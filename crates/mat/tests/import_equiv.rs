//! The importer's differential proof: a synthetic dataset serialized as a
//! MAT v5 pair (both byte orders, uncompressed and both compressed
//! encodings, `double` and auto-narrowed integer storage), imported through
//! `zsl-import`'s library path, must reproduce the in-memory dataset — and
//! therefore the trained model's `GzslReport` — **bit-for-bit**. Also pins
//! chunk-size invariance: the streamed `features.zsb` bytes are identical
//! whatever `chunk_rows` the conversion used.

mod common;

use common::{bundle_literal, scratch_dir, synth_xlsa, write_pair, PairOpts, SynthXlsa};
use zsl_core::data::{ClassMap, Dataset, DatasetBundle, SplitManifest, StreamingBundle};
use zsl_core::linalg::Matrix;
use zsl_core::{evaluate_gzsl, EszslConfig, GzslReport, Similarity};
use zsl_mat::{ByteOrder, Compression, MatBundle};

/// The in-memory reference: the same arrays assembled directly into a
/// `DatasetBundle`, no disk involved.
fn in_memory_bundle(ds: &SynthXlsa) -> DatasetBundle {
    let class_labels: Vec<u32> = (1..=ds.z as u32).collect();
    let mut unseen: Vec<u32> = ds.test_unseen.iter().map(|&i| ds.labels[i]).collect();
    unseen.sort_unstable();
    unseen.dedup();
    DatasetBundle {
        features: Matrix::from_vec(ds.n, ds.d, ds.features.clone()),
        labels: ds.labels.iter().map(|&l| l as usize - 1).collect(),
        signatures: Matrix::from_vec(ds.z, ds.a, ds.att.clone()),
        class_map: ClassMap::from_labels(&class_labels).expect("labels distinct"),
        manifest: SplitManifest {
            trainval: ds.trainval.clone(),
            test_seen: ds.test_seen.clone(),
            test_unseen: ds.test_unseen.clone(),
            unseen_classes: Some(unseen),
        },
    }
}

fn train_and_report(ds: &Dataset) -> GzslReport {
    let model = EszslConfig::new()
        .gamma(10.0)
        .lambda(0.1)
        .build()
        .fit(ds)
        .expect("fit");
    evaluate_gzsl(&model, ds, Similarity::Dot).expect("evaluate")
}

fn report_bits(r: &GzslReport) -> Vec<u64> {
    let mut bits = vec![
        r.seen_accuracy.to_bits(),
        r.unseen_accuracy.to_bits(),
        r.harmonic_mean.to_bits(),
    ];
    for acc in r.per_class_seen.iter().chain(r.per_class_unseen.iter()) {
        bits.push(acc.map(f64::to_bits).unwrap_or(u64::MAX));
    }
    bits
}

#[test]
fn imported_bundle_reproduces_in_memory_report_bit_for_bit() {
    let ds = synth_xlsa(0xA1);
    let reference = in_memory_bundle(&ds);
    let ref_dataset = reference.to_dataset().expect("reference dataset");
    let ref_report = train_and_report(&ref_dataset);
    assert!(
        ref_report.harmonic_mean > 0.0,
        "degenerate reference report; the differential proof would be vacuous"
    );

    let variants = [
        ("le_plain", ByteOrder::Little, Compression::None, false),
        ("le_stored", ByteOrder::Little, Compression::Stored, false),
        (
            "le_fixed",
            ByteOrder::Little,
            Compression::FixedHuffman,
            true,
        ),
        ("be_plain", ByteOrder::Big, Compression::None, true),
        ("be_fixed", ByteOrder::Big, Compression::FixedHuffman, false),
    ];
    for (tag, order, compression, narrow) in variants {
        let dir = scratch_dir(&format!("equiv_{tag}"));
        let (res, att) = write_pair(
            &dir,
            &ds,
            PairOpts {
                order,
                compression,
                narrow,
            },
        );
        let bundle = MatBundle::open(&res, &att).expect(tag);
        assert_eq!(bundle.num_samples(), ds.n);
        assert_eq!(bundle.feature_dim(), ds.d);
        assert_eq!(bundle.num_classes(), ds.z);
        assert_eq!(bundle.attr_dim(), ds.a);
        let out = dir.join("bundle");
        let summary = bundle.convert_to_zsb(&out, 7).expect("convert");
        assert_eq!(summary.num_samples, ds.n);
        assert_eq!(summary.unseen_classes, 2);

        let imported = bundle_literal(&out);
        // Structure and bytes identical to the in-memory reference.
        assert_eq!(imported.labels, reference.labels, "{tag}: labels");
        assert_eq!(imported.manifest, reference.manifest, "{tag}: manifest");
        assert_eq!(
            imported.features.as_slice(),
            reference.features.as_slice(),
            "{tag}: feature bytes"
        );
        assert_eq!(
            imported.signatures.as_slice(),
            reference.signatures.as_slice(),
            "{tag}: signature bytes"
        );

        // And so is everything downstream: the full GZSL report.
        let opened = StreamingBundle::open(&out, 7).expect("open converted bundle");
        let report = train_and_report(&opened.to_dataset().expect("dataset"));
        assert_eq!(
            report_bits(&report),
            report_bits(&ref_report),
            "{tag}: GzslReport drifted from the in-memory reference"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn conversion_is_chunk_size_invariant() {
    let ds = synth_xlsa(0xB2);
    let dir = scratch_dir("chunk_invariance");
    let (res, att) = write_pair(
        &dir,
        &ds,
        PairOpts {
            order: ByteOrder::Little,
            compression: Compression::FixedHuffman,
            narrow: false,
        },
    );
    let bundle = MatBundle::open(&res, &att).expect("open");
    let mut reference_bytes = None;
    for chunk_rows in [1usize, 7, 40, 10_000] {
        let out = dir.join(format!("bundle_{chunk_rows}"));
        bundle.convert_to_zsb(&out, chunk_rows).expect("convert");
        let bytes = std::fs::read(out.join("features.zsb")).expect("read zsb");
        match &reference_bytes {
            None => reference_bytes = Some(bytes),
            Some(reference) => assert_eq!(
                &bytes, reference,
                "features.zsb differs at chunk_rows={chunk_rows}"
            ),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_column_chunks_are_bounded_and_ordered() {
    let ds = synth_xlsa(0xC3);
    let dir = scratch_dir("stream_bounds");
    let (res, _att) = write_pair(
        &dir,
        &ds,
        PairOpts {
            order: ByteOrder::Big,
            compression: Compression::Stored,
            narrow: false,
        },
    );
    let file = zsl_mat::MatFile::open(&res).expect("open");
    let chunk_cols = 7;
    let mut reader = file.stream_columns("features", chunk_cols).expect("stream");
    assert_eq!(reader.feature_dim(), ds.d);
    assert_eq!(reader.total_cols(), ds.n);
    let mut rebuilt = Vec::new();
    while let Some(chunk) = reader.next_chunk().expect("chunk") {
        // The O(chunk_rows x d) memory bound: no chunk ever exceeds the
        // requested column count.
        assert!(chunk.rows() <= chunk_cols, "oversized chunk");
        assert_eq!(chunk.cols(), ds.d);
        rebuilt.extend_from_slice(chunk.as_slice());
    }
    assert_eq!(reader.cols_read(), ds.n);
    // Concatenated chunks = the row-major n x d matrix, bit for bit.
    assert_eq!(rebuilt, ds.features);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_bundle_over_imported_features_matches_in_memory_evaluation() {
    let ds = synth_xlsa(0xD4);
    let reference = in_memory_bundle(&ds);
    let ref_dataset = reference.to_dataset().expect("reference dataset");
    let model = EszslConfig::new()
        .gamma(10.0)
        .lambda(0.1)
        .build()
        .fit(&ref_dataset)
        .expect("fit");
    let in_memory = evaluate_gzsl(&model, &ref_dataset, Similarity::Dot).expect("evaluate");

    let dir = scratch_dir("streaming_equiv");
    let (res, att) = write_pair(
        &dir,
        &ds,
        PairOpts {
            order: ByteOrder::Little,
            compression: Compression::FixedHuffman,
            narrow: false,
        },
    );
    let out = dir.join("bundle");
    MatBundle::open(&res, &att)
        .expect("open")
        .convert_to_zsb(&out, 5)
        .expect("convert");
    // Evaluate the same model against the imported bundle *streamed from
    // disk* in small chunks — same report bits as the in-memory source.
    let streaming = StreamingBundle::open(&out, 3).expect("streaming bundle");
    let streamed = evaluate_gzsl(&model, &streaming, Similarity::Dot).expect("evaluate streamed");
    assert_eq!(report_bits(&streamed), report_bits(&in_memory));
    std::fs::remove_dir_all(&dir).ok();
}
