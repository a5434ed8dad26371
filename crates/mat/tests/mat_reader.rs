//! Error-path suite for the MAT level-5 reader: every malformed input the
//! importer can meet in the wild — truncation, bad magic, v7.3/HDF5
//! containers, unknown endian indicators, corrupt zlib payloads, schema
//! violations against the xlsa17 layout — must surface as the right typed
//! [`MatError`] variant, never a panic and never a misparse.

mod common;

use common::{compressed_header_only, scratch_dir, synth_xlsa, write_pair, PairOpts};
use std::path::{Path, PathBuf};
use zsl_mat::mat5::mi;
use zsl_mat::{ArrayOpts, ByteOrder, Compression, MatBundle, MatError, MatFile, MatWriter};

/// A minimal valid little-endian file holding one `double` matrix `m`.
fn single_array_file(dir: &Path, compression: Compression, complex: bool) -> PathBuf {
    let mut w = MatWriter::new(ByteOrder::Little);
    w.add_array(
        "m",
        &[2, 3],
        &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        ArrayOpts {
            store_as: mi::DOUBLE,
            compression,
            complex,
            ..ArrayOpts::default()
        },
    );
    let path = dir.join("single.mat");
    w.write_to(&path).expect("write fixture");
    path
}

fn write_bytes(dir: &Path, name: &str, bytes: &[u8]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write raw fixture");
    path
}

#[test]
fn short_file_is_truncated() {
    let dir = scratch_dir("err_short");
    let path = write_bytes(&dir, "short.mat", &[0x4D; 64]);
    assert!(
        matches!(MatFile::open(&path), Err(MatError::Truncated { .. })),
        "64-byte file must be Truncated"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn level4_zero_magic_is_a_header_error() {
    // MAT level-4 files routinely begin with four zero bytes; level 5
    // guarantees the first four header-text bytes are nonzero.
    let dir = scratch_dir("err_v4");
    let path = write_bytes(&dir, "v4.mat", &[0u8; 256]);
    assert!(matches!(MatFile::open(&path), Err(MatError::Header { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hdf5_magic_is_unsupported_v73() {
    let dir = scratch_dir("err_hdf5");
    let mut bytes = vec![0u8; 512];
    bytes[..8].copy_from_slice(&[0x89, b'H', b'D', b'F', b'\r', b'\n', 0x1A, b'\n']);
    let path = write_bytes(&dir, "v73.mat", &bytes);
    assert!(matches!(
        MatFile::open(&path),
        Err(MatError::UnsupportedV73 { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_word_0x0200_is_unsupported_v73() {
    let dir = scratch_dir("err_v0200");
    let path = single_array_file(&dir, Compression::None, false);
    let mut bytes = std::fs::read(&path).expect("read");
    // Little-endian header: version u16 lives at 124..126.
    bytes[124] = 0x00;
    bytes[125] = 0x02;
    let path = write_bytes(&dir, "v0200.mat", &bytes);
    assert!(matches!(
        MatFile::open(&path),
        Err(MatError::UnsupportedV73 { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_endian_indicator_is_a_header_error() {
    let dir = scratch_dir("err_endian");
    let path = single_array_file(&dir, Compression::None, false);
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[126] = b'X';
    bytes[127] = b'Y';
    let path = write_bytes(&dir, "endian.mat", &bytes);
    let err = MatFile::open(&path).unwrap_err();
    match err {
        MatError::Header { message, .. } => {
            assert!(message.contains("endian"), "unhelpful message: {message}")
        }
        other => panic!("expected Header, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_inside_a_tag_or_element_is_truncated() {
    let dir = scratch_dir("err_trunc_elem");
    let path = single_array_file(&dir, Compression::None, false);
    let bytes = std::fs::read(&path).expect("read");
    // Cut mid-tag (header + 4 of the 8 tag bytes) and mid-element (header +
    // tag + a few body bytes): both must be typed truncations.
    for cut in [128 + 4, 128 + 8 + 10] {
        let path = write_bytes(&dir, "cut.mat", &bytes[..cut]);
        assert!(
            matches!(MatFile::open(&path), Err(MatError::Truncated { .. })),
            "cut at {cut} must be Truncated"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Little-endian words as bytes.
fn words(values: &[u32]) -> Vec<u8> {
    values.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// A little-endian file holding one plain `miMATRIX` element whose
/// sub-elements are `body`, spliced in verbatim with `MatWriter::add_raw`.
fn raw_matrix_file(dir: &Path, body: &[u8]) -> PathBuf {
    let mut w = MatWriter::new(ByteOrder::Little);
    w.add_raw(&words(&[mi::MATRIX, body.len() as u32]));
    w.add_raw(body);
    let path = dir.join("raw.mat");
    w.write_to(&path).expect("write raw fixture");
    path
}

/// Array flags (`mxDOUBLE_CLASS`) and 2 x 1 dimensions, as 32 bytes.
fn double_flags_and_dims() -> Vec<u8> {
    words(&[mi::UINT32, 8, 6, 0, mi::INT32, 8, 2, 1])
}

#[test]
fn small_format_name_claiming_more_than_4_bytes_is_an_element_error() {
    // A small-format tag keeps its data in a 4-byte region; this one claims
    // 1799 bytes of array name. The reader used to slice the region by the
    // claim and panic.
    let dir = scratch_dir("err_small_name");
    let mut body = double_flags_and_dims();
    body.extend(words(&[
        (1799 << 16) | mi::INT8,
        u32::from_le_bytes(*b"m\0\0\0"),
    ]));
    body.extend(words(&[mi::DOUBLE, 16]));
    body.extend([1.0f64, 2.0].iter().flat_map(|v| v.to_le_bytes()));
    match MatFile::open(&raw_matrix_file(&dir, &body)) {
        Err(MatError::Element { message, .. }) => {
            assert!(message.contains("1799"), "{message}")
        }
        other => panic!("expected Element, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn small_format_numeric_data_claiming_more_than_4_bytes_is_an_element_error() {
    // The `pr` tag claims two doubles in its 4-byte small region; the 16
    // zero bytes after it keep the claim inside the element, so without the
    // check the scan would record a data location that reads past the
    // region into the padding.
    let dir = scratch_dir("err_small_pr");
    let mut body = double_flags_and_dims();
    body.extend(words(&[
        (1 << 16) | mi::INT8,
        u32::from_le_bytes(*b"m\0\0\0"),
    ]));
    body.extend(words(&[(16 << 16) | mi::DOUBLE, 0]));
    body.extend([0u8; 16]);
    match MatFile::open(&raw_matrix_file(&dir, &body)) {
        Err(MatError::Element { message, .. }) => {
            assert!(message.contains("claims 16 bytes"), "{message}")
        }
        other => panic!("expected Element, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_compressed_stream_is_typed_not_a_panic() {
    let dir = scratch_dir("err_trunc_zlib");
    let path = single_array_file(&dir, Compression::FixedHuffman, false);
    let bytes = std::fs::read(&path).expect("read");
    let path = write_bytes(&dir, "cut.mat", &bytes[..bytes.len() - 20]);
    // The outer tag promises more compressed bytes than remain.
    assert!(matches!(
        MatFile::open(&path),
        Err(MatError::Truncated { .. } | MatError::Inflate { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_adler_trailer_is_a_checksum_error() {
    let dir = scratch_dir("err_adler");
    for compression in [Compression::Stored, Compression::FixedHuffman] {
        let path = single_array_file(&dir, compression, false);
        let mut bytes = std::fs::read(&path).expect("read");
        // The zlib stream is the last thing in the file; its final 4 bytes
        // are the Adler-32 trailer.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let path = write_bytes(&dir, "adler.mat", &bytes);
        // The scan only parses the matrix prefix, so open() succeeds; the
        // corruption surfaces when the value bytes are drained and verified.
        let file = MatFile::open(&path).expect("prefix scan tolerates a bad trailer");
        let err = file.read_numeric("m").unwrap_err();
        match err {
            MatError::Checksum {
                expected, actual, ..
            } => assert_ne!(expected, actual),
            other => panic!("expected Checksum, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_deflate_body_is_typed() {
    let dir = scratch_dir("err_deflate");
    let path = single_array_file(&dir, Compression::FixedHuffman, false);
    let mut bytes = std::fs::read(&path).expect("read");
    // Damage a byte in the middle of the deflate body (well past the outer
    // tag + zlib header, well before the trailer).
    let mid = 128 + 8 + 2 + 20;
    bytes[mid] ^= 0x5A;
    let path = write_bytes(&dir, "deflate.mat", &bytes);
    let outcome = MatFile::open(&path).and_then(|f| f.read_numeric("m"));
    assert!(
        matches!(
            outcome,
            Err(MatError::Inflate { .. }
                | MatError::Checksum { .. }
                | MatError::Truncated { .. }
                | MatError::Element { .. })
        ),
        "corrupt deflate body must be a typed error, got {outcome:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compressed_size_claim_is_not_preallocated() {
    // 65535 x 65535 values claimed (32 GiB once widened to f64) in a file of
    // a few hundred bytes: reading must fail on the missing bytes, not
    // reserve the claim up front and abort.
    let dir = scratch_dir("err_claim");
    let path = compressed_header_only(&dir, "claim.mat", &[65_535, 65_535], 65_535 * 65_535);
    assert!(std::fs::metadata(&path).expect("meta").len() < 256);
    let file = MatFile::open(&path).expect("the scan reads only the prefix");
    assert_eq!(file.var("m").expect("m").dims, vec![65_535, 65_535]);
    match file.read_numeric("m") {
        Err(MatError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overflowing_dims_are_an_element_error() {
    // Three dims of i32::MAX multiply past usize: a typed error, not an
    // overflow panic (debug) or a wrapped element count (release).
    let dir = scratch_dir("err_overflow");
    let path = compressed_header_only(&dir, "overflow.mat", &[i32::MAX; 3], 8);
    let file = MatFile::open(&path).expect("open");
    for result in [
        file.read_numeric("m").map(|_| ()),
        file.stream_columns("m", 4).map(|_| ()),
    ] {
        match result {
            Err(MatError::Element { message, .. }) => {
                assert!(message.contains("'m'"), "{message}")
            }
            other => panic!("expected Element, got {other:?}"),
        }
    }
    assert_eq!(file.var("m").expect("m").numel(), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn complex_array_is_unsupported() {
    let dir = scratch_dir("err_complex");
    let path = single_array_file(&dir, Compression::None, true);
    let file = MatFile::open(&path).expect("open");
    assert!(matches!(
        file.read_numeric("m"),
        Err(MatError::Unsupported { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_required_variable_is_typed() {
    let dir = scratch_dir("err_missing_var");
    let ds = synth_xlsa(7);
    let opts = PairOpts {
        order: ByteOrder::Little,
        compression: Compression::None,
        narrow: false,
    };
    let (res, att) = write_pair(&dir, &ds, opts);

    // A res101.mat without 'labels'.
    let mut w = MatWriter::new(ByteOrder::Little);
    w.add_array(
        "features",
        &[ds.d, ds.n],
        &ds.features,
        ArrayOpts::default(),
    );
    let bad_res = dir.join("res_no_labels.mat");
    w.write_to(&bad_res).expect("write");
    match MatBundle::open(&bad_res, &att).unwrap_err() {
        MatError::MissingVariable { name, .. } => assert_eq!(name, "labels"),
        other => panic!("expected MissingVariable, got {other:?}"),
    }

    // An att_splits.mat without 'trainval_loc'.
    let mut w = MatWriter::new(ByteOrder::Little);
    w.add_array("att", &[ds.a, ds.z], &ds.att, ArrayOpts::default());
    let bad_att = dir.join("att_no_locs.mat");
    w.write_to(&bad_att).expect("write");
    assert!(matches!(
        MatBundle::open(&res, &bad_att).unwrap_err(),
        MatError::MissingVariable { .. }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Re-serialize the dataset with a mutation applied, then open the pair.
fn open_mutated(
    dir: &Path,
    mutate: impl FnOnce(&mut common::SynthXlsa),
) -> Result<MatBundle, MatError> {
    let mut ds = synth_xlsa(9);
    mutate(&mut ds);
    let (res, att) = write_pair(
        dir,
        &ds,
        PairOpts {
            order: ByteOrder::Little,
            compression: Compression::None,
            narrow: false,
        },
    );
    MatBundle::open(&res, &att)
}

#[test]
fn label_outside_att_class_count_is_a_schema_error() {
    let dir = scratch_dir("err_label_range");
    // att defines z classes; a label of z+1 has no signature column.
    let err = open_mutated(&dir, |ds| ds.labels[3] = ds.z as u32 + 1).unwrap_err();
    match err {
        MatError::Schema { message, .. } => assert!(
            message.contains("classes"),
            "message should point at the att class count: {message}"
        ),
        other => panic!("expected Schema, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn labels_length_disagreeing_with_features_is_a_schema_error() {
    let dir = scratch_dir("err_label_len");
    let ds = synth_xlsa(9);
    let (_, att) = write_pair(
        &dir,
        &ds,
        PairOpts {
            order: ByteOrder::Little,
            compression: Compression::None,
            narrow: false,
        },
    );
    // A res101.mat whose labels vector is one sample short of the features.
    let mut w = MatWriter::new(ByteOrder::Little);
    w.add_array(
        "features",
        &[ds.d, ds.n],
        &ds.features,
        ArrayOpts::default(),
    );
    let short: Vec<f64> = ds.labels[..ds.n - 1].iter().map(|&l| l as f64).collect();
    w.add_array("labels", &[ds.n - 1, 1], &short, ArrayOpts::default());
    let res = dir.join("res_short_labels.mat");
    w.write_to(&res).expect("write");
    let err = MatBundle::open(&res, &att).unwrap_err();
    assert!(matches!(err, MatError::Schema { .. }));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_integral_split_index_is_a_schema_error() {
    let dir = scratch_dir("err_frac_loc");
    let ds = synth_xlsa(11);
    let (res, _) = write_pair(
        &dir,
        &ds,
        PairOpts {
            order: ByteOrder::Little,
            compression: Compression::None,
            narrow: false,
        },
    );
    // Hand-build an att_splits.mat whose trainval_loc holds 1.5.
    let mut w = MatWriter::new(ByteOrder::Little);
    w.add_array("att", &[ds.a, ds.z], &ds.att, ArrayOpts::default());
    w.add_array("trainval_loc", &[2, 1], &[1.5, 2.0], ArrayOpts::default());
    let one_based: Vec<f64> = ds.test_seen.iter().map(|&i| i as f64 + 1.0).collect();
    w.add_array(
        "test_seen_loc",
        &[one_based.len(), 1],
        &one_based,
        ArrayOpts::default(),
    );
    let one_based: Vec<f64> = ds.test_unseen.iter().map(|&i| i as f64 + 1.0).collect();
    w.add_array(
        "test_unseen_loc",
        &[one_based.len(), 1],
        &one_based,
        ArrayOpts::default(),
    );
    let att_path = dir.join("att_frac.mat");
    w.write_to(&att_path).expect("write");
    let err = MatBundle::open(&res, &att_path).unwrap_err();
    match err {
        MatError::Schema { message, .. } => assert!(
            message.contains("trainval_loc"),
            "message should name the offending variable: {message}"
        ),
        other => panic!("expected Schema, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn big_endian_prefix_scan_reports_correct_shapes() {
    // Not an error path, but the cheapest spot to pin the BE scan metadata:
    // dims/classes must come back identical to the LE reading.
    let dir = scratch_dir("be_meta");
    let ds = synth_xlsa(13);
    let (res, _) = write_pair(
        &dir,
        &ds,
        PairOpts {
            order: ByteOrder::Big,
            compression: Compression::FixedHuffman,
            narrow: true,
        },
    );
    let file = MatFile::open(&res).expect("open BE");
    let var = file.var("features").expect("features present");
    assert_eq!(var.dims, vec![ds.d, ds.n]);
    let labels = file.read_numeric("labels").expect("labels");
    assert_eq!(labels.dims, vec![ds.n, 1]);
    assert_eq!(labels.data.len(), ds.n);
    std::fs::remove_dir_all(&dir).ok();
}
