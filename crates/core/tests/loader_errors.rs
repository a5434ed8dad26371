//! Error-path coverage for the dataset loader and the CSV feature import:
//! corrupt, truncated, and inconsistent bundles must surface typed
//! `DataError`s — never panics — because the loader is the boundary where
//! untrusted on-disk data enters the engine.

mod common;

use common::{bundle_literal, write_features_csv};
use std::path::{Path, PathBuf};
use zsl_core::data::format::read_zsb;
use zsl_core::data::{
    export_dataset, import_features_csv, ClassMap, DataError, SplitManifest, StreamingBundle,
    SyntheticConfig, FEATURES_CSV, FEATURES_ZSB, SIGNATURES_CSV, SPLITS_TXT,
};
use zsl_core::{FeatureSource, ZslError};

/// Fresh bundle directory holding a small valid synthetic export.
fn valid_bundle(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsl_errors_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ds = SyntheticConfig::new()
        .classes(4, 2)
        .dims(3, 5)
        .samples(3, 2)
        .seed(17)
        .build();
    export_dataset(&ds, &dir).expect("export");
    dir
}

/// Replace a bundle's `features.zsb` with the same table as `features.csv`,
/// returning the CSV's path and its text.
fn csv_only(dir: &Path) -> (PathBuf, String) {
    let zsb = dir.join(FEATURES_ZSB);
    let csv = dir.join(FEATURES_CSV);
    write_features_csv(&csv, &read_zsb(&zsb).expect("read zsb"));
    std::fs::remove_file(&zsb).expect("remove zsb");
    let text = std::fs::read_to_string(&csv).expect("read csv");
    (csv, text)
}

fn cleanup(dir: &PathBuf) {
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn truncated_zsb_is_a_typed_truncation_error() {
    let dir = valid_bundle("truncated");
    let path = dir.join(FEATURES_ZSB);
    let bytes = std::fs::read(&path).unwrap();
    // Cut the payload mid-features; also try cutting inside the header.
    for keep in [bytes.len() - 9, 40, 10] {
        std::fs::write(&path, &bytes[..keep]).unwrap();
        match StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()) {
            Err(DataError::Truncated {
                expected, actual, ..
            }) => {
                assert_eq!(actual, keep as u64);
                assert!(expected > actual, "expected {expected} > actual {actual}");
            }
            other => panic!("keep={keep}: expected Truncated, got {other:?}"),
        }
    }
    cleanup(&dir);
}

#[test]
fn bad_magic_version_flags_and_trailing_bytes_are_header_errors() {
    let dir = valid_bundle("header");
    let path = dir.join(FEATURES_ZSB);
    let pristine = std::fs::read(&path).unwrap();

    let mut bad_magic = pristine.clone();
    bad_magic[0..4].copy_from_slice(b"NOPE");
    let mut bad_version = pristine.clone();
    bad_version[4..6].copy_from_slice(&99u16.to_le_bytes());
    let mut bad_flags = pristine.clone();
    bad_flags[6..8].copy_from_slice(&1u16.to_le_bytes());
    let mut trailing = pristine.clone();
    trailing.extend_from_slice(&[0u8; 7]);

    for (what, bytes) in [
        ("magic", bad_magic),
        ("version", bad_version),
        ("flags", bad_flags),
        ("trailing", trailing),
    ] {
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(
                StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
                Err(DataError::Header { .. })
            ),
            "{what} corruption must be a Header error"
        );
    }
    cleanup(&dir);
}

#[test]
fn header_dim_mismatches_are_detected() {
    let dir = valid_bundle("dims");
    let path = dir.join(FEATURES_ZSB);
    let pristine = std::fs::read(&path).unwrap();

    // Inflating feature_dim makes the promised payload longer than the file.
    let mut wide = pristine.clone();
    wide[16..20].copy_from_slice(&1000u32.to_le_bytes());
    std::fs::write(&path, &wide).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
        Err(DataError::Truncated { .. })
    ));

    // A wrong class_count leaves the size intact but contradicts the labels.
    let mut misclassed = pristine.clone();
    misclassed[20..24].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&path, &misclassed).unwrap();
    match StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()) {
        Err(DataError::Header { message, .. }) => {
            assert!(message.contains("distinct classes"), "got: {message}")
        }
        other => panic!("expected Header error, got {other:?}"),
    }

    // Zeroed n_samples is rejected outright.
    let mut empty = pristine.clone();
    empty[8..16].copy_from_slice(&0u64.to_le_bytes());
    std::fs::write(&path, &empty).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
        Err(DataError::Header { .. })
    ));
    cleanup(&dir);
}

#[test]
fn overflowing_header_dims_are_a_header_error_not_a_panic() {
    // Regression: n_samples = 2^62 with feature_dim = 2 used to wrap the
    // expected-size arithmetic back to exactly the header length, pass both
    // length checks, and abort on allocation instead of returning an error.
    let dir = valid_bundle("overflow");
    let path = dir.join(FEATURES_ZSB);
    let mut bytes = std::fs::read(&path).unwrap()[..32].to_vec();
    bytes[8..16].copy_from_slice(&(1u64 << 62).to_le_bytes()); // n_samples
    bytes[16..20].copy_from_slice(&2u32.to_le_bytes()); // feature_dim
    std::fs::write(&path, &bytes).unwrap();
    match StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()) {
        Err(DataError::Header { message, .. }) => {
            assert!(message.contains("overflow"), "got: {message}")
        }
        other => panic!("expected Header overflow error, got {other:?}"),
    }
    cleanup(&dir);
}

#[test]
fn chunk_readers_reject_zero_chunk_rows_with_a_typed_error() {
    let dir = valid_bundle("zero_chunk");
    // A zero-row chunk could never make progress: the one streaming entry
    // point rejects it up front instead of looping forever.
    match StreamingBundle::open(&dir, 0) {
        Err(DataError::Shape { message }) => assert!(message.contains("chunk_rows"), "{message}"),
        other => panic!("expected Shape error, got {other:?}"),
    }
    cleanup(&dir);
}

#[test]
fn chunk_reader_rejects_header_dims_that_overflow_before_allocating() {
    // Same regression class as the bundle-level overflow check, on the
    // whole-table reader: a crafted header must produce a typed Header
    // error, never an abort-on-allocation. The three crafted headers cover
    // n·d·8 wrapping u64 and n·d exceeding what fits in memory arithmetic.
    let dir = valid_bundle("stream_overflow");
    let path = dir.join(FEATURES_ZSB);
    let pristine = std::fs::read(&path).unwrap()[..32].to_vec();
    for (n, d) in [(1u64 << 62, 2u32), (1u64 << 61, 8), (u64::MAX / 9, 9)] {
        let mut bytes = pristine.clone();
        bytes[8..16].copy_from_slice(&n.to_le_bytes());
        bytes[16..20].copy_from_slice(&d.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match read_zsb(&path) {
            Err(DataError::Header { message, .. }) => {
                assert!(message.contains("overflow"), "n={n} d={d}: {message}")
            }
            other => panic!("n={n} d={d}: expected Header overflow error, got {other:?}"),
        }
        // The streaming bundle surfaces the same rejection.
        assert!(matches!(
            StreamingBundle::open(&dir, 4),
            Err(DataError::Header { .. })
        ));
    }
    cleanup(&dir);
}

#[test]
fn indexed_chunk_reader_rejects_out_of_range_rows() {
    let dir = valid_bundle("indexed_range");
    let bundle = StreamingBundle::open(&dir, 4).expect("open");
    match bundle.stream_trainval_subset(&[0, 1_000_000]) {
        Err(ZslError::Data(DataError::Split { message, .. })) => {
            assert!(message.contains("1000000"), "{message}")
        }
        Err(other) => panic!("expected Split error, got {other:?}"),
        Ok(_) => panic!("expected Split error, got a stream"),
    }
    cleanup(&dir);
}

#[test]
fn streaming_bundle_mirrors_loader_validation() {
    // The open itself rejects every family of cross-file inconsistency,
    // before a feature row is read — spot-check one of each.
    let dir = valid_bundle("stream_validation");

    // Unknown feature label (relabel sample 0 in the binary label block;
    // bump the header class_count so the header stays self-consistent and
    // the cross-file check is the one that fires).
    let path = dir.join(FEATURES_ZSB);
    let pristine_features = std::fs::read(&path).unwrap();
    let mut bytes = pristine_features.clone();
    bytes[32..36].copy_from_slice(&777u32.to_le_bytes());
    bytes[20..24].copy_from_slice(&7u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4),
        Err(DataError::UnknownClass { label: 777, .. })
    ));
    std::fs::write(&path, &pristine_features).unwrap();

    // Out-of-range split index.
    let manifest_path = dir.join(SPLITS_TXT);
    let pristine = SplitManifest::read(&manifest_path).unwrap();
    let mut bad = pristine.clone();
    bad.trainval.push(1_000_000);
    bad.write(&manifest_path).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4),
        Err(DataError::Split { .. })
    ));

    // Declared unseen class that the signature table lacks.
    let mut bad = pristine.clone();
    bad.unseen_classes.as_mut().unwrap().push(424_242);
    bad.write(&manifest_path).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4),
        Err(DataError::UnknownClass { label: 424_242, .. })
    ));

    // Seen/unseen overlap — caught at open: the whole plan is validated up
    // front.
    let mut bad = pristine.clone();
    let moved = bad.trainval.pop().unwrap();
    bad.test_unseen.push(moved);
    bad.unseen_classes = None;
    bad.write(&manifest_path).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4),
        Err(DataError::Split { .. })
    ));
    cleanup(&dir);
}

#[test]
fn unknown_class_in_features_is_reported_with_context() {
    let dir = valid_bundle("unknown_feature_class");
    let path = dir.join(FEATURES_ZSB);
    let mut bytes = std::fs::read(&path).unwrap();
    // Relabel the first sample with a class the signature table lacks, and
    // bump the header class_count so the header stays self-consistent.
    bytes[32..36].copy_from_slice(&777u32.to_le_bytes());
    bytes[20..24].copy_from_slice(&7u32.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    match StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()) {
        Err(DataError::UnknownClass {
            label: 777,
            context,
        }) => {
            assert!(context.contains(FEATURES_ZSB), "context: {context}")
        }
        other => panic!("expected UnknownClass, got {other:?}"),
    }
    cleanup(&dir);
}

#[test]
fn unknown_class_in_split_manifest_is_reported_with_context() {
    let dir = valid_bundle("unknown_manifest_class");
    let path = dir.join(SPLITS_TXT);
    let mut manifest = SplitManifest::read(&path).unwrap();
    manifest.unseen_classes.as_mut().unwrap().push(424_242);
    manifest.write(&path).unwrap();
    match StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()) {
        Err(DataError::UnknownClass {
            label: 424_242,
            context,
        }) => {
            assert!(context.contains(SPLITS_TXT), "context: {context}")
        }
        other => panic!("expected UnknownClass, got {other:?}"),
    }
    cleanup(&dir);
}

#[test]
fn declared_unseen_set_must_match_observed_unseen_samples() {
    let dir = valid_bundle("unseen_mismatch");
    let path = dir.join(SPLITS_TXT);
    let mut manifest = SplitManifest::read(&path).unwrap();
    // Class 0 exists but is a *seen* class: declared set no longer matches.
    manifest.unseen_classes.as_mut().unwrap().push(0);
    manifest.write(&path).unwrap();
    // Every label resolves; the plan check at open rejects the declared set.
    assert!(matches!(
        StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
        Err(DataError::Split { .. })
    ));
    cleanup(&dir);
}

#[test]
fn empty_and_missing_splits_are_empty_split_errors() {
    let dir = valid_bundle("empty_split");
    let path = dir.join(SPLITS_TXT);
    let pristine = SplitManifest::read(&path).unwrap();

    let mut empty = pristine.clone();
    empty.test_unseen.clear();
    empty.write(&path).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
        Err(DataError::EmptySplit { split }) if split == "test_unseen"
    ));

    // A manifest missing the trainval section entirely.
    std::fs::write(&path, "test_seen: 0\ntest_unseen: 1\n").unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
        Err(DataError::EmptySplit { split }) if split == "trainval"
    ));
    cleanup(&dir);
}

#[test]
fn malformed_manifest_lines_are_parse_errors() {
    let dir = valid_bundle("bad_manifest");
    let path = dir.join(SPLITS_TXT);
    for bad in [
        "trainval 0 1\n",                                                // missing colon
        "trainval: 0\nbogus_section: 1\ntest_seen: 2\ntest_unseen: 3\n", // unknown name
        "trainval: 0\ntrainval: 1\ntest_seen: 2\ntest_unseen: 3\n",      // repeat
        "trainval: zero\ntest_seen: 1\ntest_unseen: 2\n",                // bad index
    ] {
        std::fs::write(&path, bad).unwrap();
        assert!(
            matches!(
                StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
                Err(DataError::Parse { .. })
            ),
            "manifest {bad:?} must be a Parse error"
        );
    }
    cleanup(&dir);
}

#[test]
fn out_of_range_and_overlapping_split_indices_are_split_errors() {
    let dir = valid_bundle("split_indices");
    let path = dir.join(SPLITS_TXT);
    let pristine = SplitManifest::read(&path).unwrap();

    let mut out_of_range = pristine.clone();
    out_of_range.trainval.push(1_000_000);
    out_of_range.write(&path).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
        Err(DataError::Split { .. })
    ));

    let mut overlapping = pristine.clone();
    let stolen = overlapping.test_seen[0];
    overlapping.trainval.push(stolen);
    overlapping.write(&path).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
        Err(DataError::Split { .. })
    ));
    cleanup(&dir);
}

#[test]
fn seen_unseen_class_overlap_is_rejected_at_materialization() {
    let dir = valid_bundle("class_overlap");
    let path = dir.join(SPLITS_TXT);
    let mut manifest = SplitManifest::read(&path).unwrap();
    // Move a trainval sample into test_unseen: its (seen) class now appears
    // on both sides of the GZSL boundary. Drop the declared unseen set so the
    // overlap check itself fires.
    let moved = manifest.trainval.pop().unwrap();
    manifest.test_unseen.push(moved);
    manifest.unseen_classes = None;
    manifest.write(&path).unwrap();
    // Structurally fine; the plan check at open rejects the overlap.
    match StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()) {
        Err(DataError::Split { message, .. }) => {
            assert!(
                message.contains("both trainval and test_unseen"),
                "got: {message}"
            )
        }
        other => panic!("expected Split error, got {other:?}"),
    }
    cleanup(&dir);
}

#[test]
fn inconsistent_bundle_literals_are_typed_errors_not_panics() {
    // A struct literal is the one way to build a `DatasetBundle`, and nothing
    // checks its public fields before `to_dataset`: every inconsistency the
    // opener rejects must come back as a typed error here too, not a panic.
    let dir = valid_bundle("literals");
    let valid = bundle_literal(&dir);
    let opened = StreamingBundle::open(&dir, 4)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    let gathered = valid.to_dataset().expect("the consistent literal");
    assert_eq!(gathered.train_x.as_slice(), opened.train_x.as_slice());
    assert_eq!(gathered.train_labels, opened.train_labels);

    // A manifest index out of range.
    let mut bad = valid.clone();
    bad.manifest.test_seen.push(1_000_000);
    match bad.to_dataset() {
        Err(DataError::Split {
            path: None,
            message,
            ..
        }) => assert!(message.contains("out of range"), "{message}"),
        other => panic!("expected an unlocated Split error, got {other:?}"),
    }

    // A label at or past the class count.
    let mut bad = valid.clone();
    bad.labels[0] = bad.signatures.rows();
    match bad.to_dataset() {
        Err(DataError::Shape { message }) => assert!(message.contains("out of range"), "{message}"),
        other => panic!("expected a Shape error, got {other:?}"),
    }

    // A declared unseen class the class map lacks.
    let mut bad = valid.clone();
    bad.manifest.unseen_classes.as_mut().unwrap().push(424_242);
    assert!(matches!(
        bad.to_dataset(),
        Err(DataError::UnknownClass { label: 424_242, .. })
    ));

    // Fewer labels than feature rows.
    let mut bad = valid.clone();
    bad.labels.pop();
    match bad.to_dataset() {
        Err(DataError::Shape { message }) => assert!(message.contains("labels for"), "{message}"),
        other => panic!("expected a Shape error, got {other:?}"),
    }

    // A class map that does not cover the signature table.
    let mut bad = valid.clone();
    let fewer: Vec<u32> = (1..bad.signatures.rows() as u32).collect();
    bad.class_map = ClassMap::from_labels(&fewer).expect("class map");
    match bad.to_dataset() {
        Err(DataError::Shape { message }) => assert!(message.contains("class map"), "{message}"),
        other => panic!("expected a Shape error, got {other:?}"),
    }
    cleanup(&dir);
}

/// Import `csv` to the bundle's `features.zsb`, expecting a parse error at
/// `line` whose message contains `needle`, and no `features.zsb` (nor any
/// temp file) left behind.
fn assert_import_fails_at(dir: &Path, csv: &Path, line: usize, needle: &str) {
    match import_features_csv(csv, &dir.join(FEATURES_ZSB)) {
        Err(DataError::Parse {
            path,
            line: got,
            message,
        }) => {
            assert_eq!(path, csv);
            assert_eq!(got, line, "{message}");
            assert!(message.contains(needle), "{message}");
        }
        other => panic!("expected Parse at line {line}, got {other:?}"),
    }
    let mut left: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, [FEATURES_CSV, SIGNATURES_CSV, SPLITS_TXT]);
}

#[test]
fn ragged_and_non_numeric_csv_rows_are_parse_errors() {
    let dir = valid_bundle("bad_csv");
    let (path, pristine) = csv_only(&dir);
    let appended = pristine.lines().count() + 1;

    std::fs::write(&path, format!("{pristine}3,1.0\n")).unwrap();
    assert_import_fails_at(&dir, &path, appended, "ragged row");

    std::fs::write(&path, format!("{pristine}3,1.0,abc,2.0,3.0,4.0\n")).unwrap();
    assert_import_fails_at(&dir, &path, appended, "bad float 'abc'");
    cleanup(&dir);
}

#[test]
fn empty_csv_feature_table_is_a_parse_error_at_line_1() {
    let dir = valid_bundle("empty_csv");
    let (path, _) = csv_only(&dir);
    std::fs::write(&path, "# no samples\n\n").unwrap();
    assert_import_fails_at(&dir, &path, 1, "feature table has no rows");
    cleanup(&dir);
}

#[test]
fn csv_only_bundle_fails_to_load_with_an_error_naming_the_import() {
    let dir = valid_bundle("csv_only");
    let exported = std::fs::read(dir.join(FEATURES_ZSB)).unwrap();
    csv_only(&dir);
    for result in [
        StreamingBundle::open(&dir, 4)
            .and_then(|b| b.to_dataset())
            .map(|_| ()),
        StreamingBundle::open(&dir, 4).map(|_| ()),
    ] {
        match result {
            Err(DataError::Io { path, source }) => {
                assert!(path.ends_with(FEATURES_ZSB), "{}", path.display());
                assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
                assert!(
                    source.to_string().contains("zsl-import --features-csv"),
                    "{source}"
                );
            }
            other => panic!("expected Io NotFound, got {other:?}"),
        }
    }
    // The import the message names restores the exported table and the
    // bundle loads.
    import_features_csv(&dir.join(FEATURES_CSV), &dir.join(FEATURES_ZSB)).expect("import");
    assert_eq!(std::fs::read(dir.join(FEATURES_ZSB)).unwrap(), exported);
    StreamingBundle::open(&dir, 4)
        .expect("open")
        .to_dataset()
        .expect("materialize");
    cleanup(&dir);
}

#[test]
fn duplicate_signature_labels_are_rejected() {
    let dir = valid_bundle("dup_class");
    let path = dir.join(SIGNATURES_CSV);
    let mut text = std::fs::read_to_string(&path).unwrap();
    let first_line = text.lines().next().unwrap().to_string();
    text.push_str(&first_line);
    text.push('\n');
    std::fs::write(&path, text).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
        Err(DataError::DuplicateClass { label: 0 })
    ));
    cleanup(&dir);
}

#[test]
fn missing_feature_table_is_an_io_error() {
    let dir = valid_bundle("missing_features");
    std::fs::remove_file(dir.join(FEATURES_ZSB)).unwrap();
    assert!(matches!(
        StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()),
        Err(DataError::Io { .. })
    ));
    cleanup(&dir);
}

#[test]
fn split_manifest_errors_carry_the_offending_line() {
    let dir = valid_bundle("split_line_numbers");
    let path = dir.join(SPLITS_TXT);
    let pristine = SplitManifest::read(&path).unwrap();

    // Out-of-range index in test_seen: the error must name splits.txt and
    // the 1-based line the test_seen section sits on (line 1 is the header
    // comment, line 2 trainval, line 3 test_seen).
    let mut bad = pristine.clone();
    bad.test_seen.push(1_000_000);
    bad.write(&path).unwrap();
    match StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()) {
        Err(DataError::Split {
            path: Some(p),
            line: Some(line),
            message,
        }) => {
            assert!(p.ends_with(SPLITS_TXT), "wrong path: {}", p.display());
            assert_eq!(line, 3, "test_seen section line");
            assert!(message.contains("out of range"), "message: {message}");
        }
        other => panic!("expected a located Split error, got {other:?}"),
    }

    // Duplicate assignment: points at the *second* section claiming the
    // sample (test_unseen, line 4).
    let mut bad = pristine.clone();
    bad.test_unseen.push(pristine.trainval[0]);
    bad.write(&path).unwrap();
    match StreamingBundle::open(&dir, 4).and_then(|b| b.to_dataset()) {
        Err(DataError::Split {
            path: Some(p),
            line: Some(line),
            message,
        }) => {
            assert!(p.ends_with(SPLITS_TXT), "wrong path: {}", p.display());
            assert_eq!(line, 4, "test_unseen section line");
            assert!(
                message.contains("more than one split"),
                "message: {message}"
            );
            // And the rendered form is the clickable path:line shape.
            let rendered = DataError::Split {
                path: Some(p),
                line: Some(line),
                message,
            }
            .to_string();
            assert!(
                rendered.contains("splits.txt:4"),
                "rendered error should embed path:line, got: {rendered}"
            );
        }
        other => panic!("expected a located Split error, got {other:?}"),
    }
    cleanup(&dir);
}
