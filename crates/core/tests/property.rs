//! Property-based test layer: seeded randomized sweeps with no external
//! dependencies (all randomness flows through the crate's own `Rng`).
//!
//! Six families, matching the loader/solver/streaming invariants the
//! subsystem promises:
//! 1. bundle round-trips (write → read → bit-identical matrices) across
//!    random shapes and seeds, with the CSV import reproducing the exported
//!    `.zsb` byte for byte;
//! 2. raw-label ↔ dense-id remapping is bijective for arbitrary label sets;
//! 3. Cholesky solve residuals stay below 1e-8 across 50 random SPD systems;
//! 4. Sylvester solve residuals (`AX + XB = C`, the SAE backbone) stay below
//!    1e-8 across 50 random well-conditioned systems;
//! 5. random chunk boundaries never change the FNV digests of the streamed
//!    `XᵀX` / `XᵀY` Gram accumulators;
//! 6. a `.zsb` file truncated mid-chunk is a typed `DataError::Truncated`,
//!    at open and mid-stream, and never yields a partial accumulator.

mod common;

use common::{digest_matrix, write_features_csv};
use std::path::PathBuf;
use zsl_core::data::format::read_zsb;
use zsl_core::data::{
    export_dataset, import_features_csv, ClassMap, StreamingBundle, SyntheticConfig, FEATURES_CSV,
    FEATURES_ZSB,
};
use zsl_core::linalg::Matrix;
use zsl_core::model::{EszslProblem, GramAccumulator};
use zsl_core::{DataError, FeatureSource, MemorySource, Rng, SplitKind, ZslError};

/// Unique scratch directory per test so parallel test binaries never collide.
fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zsl_property_{}_{tag}", std::process::id()))
}

#[test]
fn bundle_roundtrip_is_bit_identical_across_shapes_seeds_and_formats() {
    let mut sweep = Rng::new(0x0071_5EED);
    for case in 0..8 {
        // Random but valid dataset shape; small dims keep the sweep fast.
        let seen = 2 + (sweep.next_u64() % 6) as usize;
        let unseen = 1 + (sweep.next_u64() % 3) as usize;
        let attr = 1 + (sweep.next_u64() % 5) as usize;
        let feat = 1 + (sweep.next_u64() % 7) as usize;
        let train = 1 + (sweep.next_u64() % 4) as usize;
        let test = 1 + (sweep.next_u64() % 3) as usize;
        let seed = sweep.next_u64();
        let ds = SyntheticConfig::new()
            .classes(seen, unseen)
            .dims(attr, feat)
            .samples(train, test)
            .seed(seed)
            .build();
        let dir = temp_dir(&format!("rt_{case}"));
        export_dataset(&ds, &dir).expect("export");
        let back = StreamingBundle::open(&dir, usize::MAX)
            .expect("open")
            .to_dataset()
            .expect("to_dataset");
        let label = format!("case {case} ({seen}s/{unseen}u a{attr} f{feat})");
        assert_eq!(back.train_x.as_slice(), ds.train_x.as_slice(), "{label}");
        assert_eq!(back.train_labels, ds.train_labels, "{label}");
        assert_eq!(
            back.test_seen_x.as_slice(),
            ds.test_seen_x.as_slice(),
            "{label}"
        );
        assert_eq!(back.test_seen_labels, ds.test_seen_labels, "{label}");
        assert_eq!(
            back.test_unseen_x.as_slice(),
            ds.test_unseen_x.as_slice(),
            "{label}"
        );
        assert_eq!(back.test_unseen_labels, ds.test_unseen_labels, "{label}");
        assert_eq!(
            back.seen_signatures.as_slice(),
            ds.seen_signatures.as_slice(),
            "{label}"
        );
        assert_eq!(
            back.unseen_signatures.as_slice(),
            ds.unseen_signatures.as_slice(),
            "{label}"
        );

        // The CSV format: the same table written as CSV and imported is the
        // exported `.zsb`, byte for byte.
        let exported = dir.join(FEATURES_ZSB);
        let csv = dir.join(FEATURES_CSV);
        write_features_csv(&csv, &read_zsb(&exported).expect("read zsb"));
        let imported = dir.join("imported.zsb");
        import_features_csv(&csv, &imported).expect("import");
        assert_eq!(
            std::fs::read(&imported).expect("read imported"),
            std::fs::read(&exported).expect("read exported"),
            "{label}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn class_label_remap_is_bijective_for_arbitrary_label_sets() {
    let mut rng = Rng::new(0xB11E);
    for case in 0..20 {
        let n = 1 + (rng.next_u64() % 40) as usize;
        // Distinct, scattered, non-contiguous raw labels in random order.
        let mut raw: Vec<u32> = Vec::with_capacity(n);
        while raw.len() < n {
            let candidate = (rng.next_u64() % 1_000_000) as u32;
            if !raw.contains(&candidate) {
                raw.push(candidate);
            }
        }
        let map = ClassMap::from_labels(&raw).expect("distinct labels");
        assert_eq!(map.len(), n, "case {case}");
        for (dense, &label) in raw.iter().enumerate() {
            // dense → raw → dense and raw → dense → raw are both identities.
            assert_eq!(map.dense(label), Some(dense), "case {case}");
            assert_eq!(map.raw(dense), Some(label), "case {case}");
        }
        // Every id outside the range is unmapped.
        assert_eq!(map.raw(n), None);
        // Dense ids are exactly 0..n (surjective): collect and compare.
        let mut dense_ids: Vec<usize> =
            raw.iter().map(|&l| map.dense(l).expect("mapped")).collect();
        dense_ids.sort_unstable();
        assert_eq!(dense_ids, (0..n).collect::<Vec<_>>(), "case {case}");
    }
}

#[test]
fn random_chunk_boundaries_never_change_gram_digests() {
    let mut sweep = Rng::new(0x5712_EA11);
    for case in 0..10 {
        let n = 2 + (sweep.next_u64() % 40) as usize;
        let d = 1 + (sweep.next_u64() % 9) as usize;
        let a = 1 + (sweep.next_u64() % 6) as usize;
        let z = 1 + (sweep.next_u64() % 8) as usize;
        let x = Matrix::from_vec(n, d, (0..n * d).map(|_| sweep.normal()).collect());
        let labels: Vec<usize> = (0..n)
            .map(|_| (sweep.next_u64() % z as u64) as usize)
            .collect();
        let signatures = Matrix::from_vec(z, a, (0..z * a).map(|_| sweep.normal()).collect());

        let reference = EszslProblem::from_source(&MemorySource::new(&x, &labels, &signatures))
            .expect("problem");
        let (ref_xtx, ref_xtys) = (
            digest_matrix(reference.xtx()),
            digest_matrix(reference.xtys()),
        );

        for trial in 0..6 {
            // Random sorted cut points partition 0..n into chunks of wildly
            // uneven sizes (empty chunks included via duplicate cuts).
            let mut cuts: Vec<usize> = (0..(sweep.next_u64() % 6))
                .map(|_| (sweep.next_u64() % (n as u64 + 1)) as usize)
                .collect();
            cuts.push(0);
            cuts.push(n);
            cuts.sort_unstable();
            let mut acc = GramAccumulator::new(&signatures);
            for bounds in cuts.windows(2) {
                let (lo, hi) = (bounds[0], bounds[1]);
                acc.fold(&x.row_block(lo..hi), &labels[lo..hi])
                    .expect("fold");
            }
            let streamed = acc.finish().expect("finish");
            assert_eq!(
                digest_matrix(streamed.xtx()),
                ref_xtx,
                "case {case} trial {trial} cuts {cuts:?}: XᵀX digest drifted"
            );
            assert_eq!(
                digest_matrix(streamed.xtys()),
                ref_xtys,
                "case {case} trial {trial} cuts {cuts:?}: XᵀYS digest drifted"
            );
        }
    }
}

#[test]
fn truncated_mid_chunk_zsb_is_truncation_error_never_partial_accumulator() {
    let mut sweep = Rng::new(0x7210_CA7E);
    // 72 rows of 32 features: 48 trainval rows first in the file, then 16
    // test-seen and 8 test-unseen rows.
    let ds = SyntheticConfig::new()
        .classes(4, 2)
        .dims(3, 32)
        .samples(12, 4)
        .seed(99)
        .build();
    let dir = temp_dir("truncated_stream");
    export_dataset(&ds, &dir).expect("export");
    let path = dir.join("features.zsb");
    let pristine = std::fs::read(&path).expect("read");

    for trial in 0..12 {
        // Cut anywhere strictly inside the payload (past the header), so the
        // loss lands mid-label-block or mid-feature-chunk at random.
        let keep = 32 + (sweep.next_u64() % (pristine.len() as u64 - 32)) as usize;
        std::fs::write(&path, &pristine[..keep]).expect("truncate");
        match read_zsb(&path) {
            Err(DataError::Truncated {
                expected, actual, ..
            }) => {
                assert_eq!(actual, keep as u64, "trial {trial}");
                assert_eq!(expected, pristine.len() as u64, "trial {trial}");
            }
            other => panic!("trial {trial} keep={keep}: expected Truncated, got {other:?}"),
        }
    }

    // Race case: the file shrinks AFTER the bundle validated its length and
    // a stream opened. The cut lands inside trainval row 31, so the chunk of
    // rows 30..33 must surface as Truncated — and a fold loop driven by the
    // stream stops cold, leaving no partially folded chunk.
    std::fs::write(&path, &pristine).expect("restore");
    let bundle = StreamingBundle::open(&dir, 3).expect("open");
    let mut stream = bundle.stream(SplitKind::Trainval).expect("stream");
    let row_bytes = 8 * 32;
    let cut = 32 + 4 * 72 + 31 * row_bytes + row_bytes / 2;
    std::fs::write(&path, &pristine[..cut]).expect("shrink");
    let mut acc = GramAccumulator::new(&bundle.seen_signatures());
    let mut folded_chunks = 0;
    let mut saw_truncation = false;
    for chunk in &mut stream {
        match chunk {
            Ok((x, labels)) => {
                acc.fold(&x, &labels).expect("fold");
                folded_chunks += 1;
            }
            Err(ZslError::Data(DataError::Truncated { actual, .. })) => {
                assert_eq!(actual, cut as u64);
                saw_truncation = true;
                break;
            }
            Err(other) => panic!("expected Truncated, got {other:?}"),
        }
    }
    assert!(saw_truncation, "shrunken file must surface as Truncated");
    // Whatever was folded before the cut is whole chunks only (chunk_rows =
    // 3 divides the 30 rows before the cut); the failing chunk contributed
    // nothing.
    assert_eq!(folded_chunks, 10);
    assert_eq!(acc.rows_folded(), folded_chunks * 3);
    // And the stream is fused after the error.
    assert!(stream.next().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cholesky_solve_residuals_below_1e8_across_50_random_spd_systems() {
    let mut rng = Rng::new(0xCD01E5);
    for system in 0..50 {
        // Up to 130 unknowns and 40 right-hand sides, so systems run whole
        // register blocks of rows and of right-hand sides as well as their
        // narrower edges.
        let n = 1 + (rng.next_u64() % 130) as usize;
        let m = 1 + (rng.next_u64() % 40) as usize;
        // B random, A = BᵀB + I/2 is symmetric positive-definite and
        // well-conditioned at these sizes.
        let b = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.normal()).collect());
        let mut a = b.transpose().matmul(&b);
        a.add_scaled_identity(0.5);

        let chol = a.cholesky().expect("SPD factorization");
        let rhs = Matrix::from_vec(n, m, (0..n * m).map(|_| rng.normal()).collect());
        let x = chol.solve_matrix(&rhs).expect("solve_matrix");

        // Residual ‖A·X − rhs‖∞ must be tiny relative to f64 precision.
        let worst = a.matmul(&x).max_abs_diff(&rhs);
        assert!(
            worst < 1e-8,
            "system {system} (n={n}, m={m}): residual {worst:e} above 1e-8"
        );

        // Each right-hand side solved alone, as an n x 1 matrix, must agree
        // with its column of the multi-RHS solve bit-for-bit.
        for j in 0..m {
            let column = Matrix::from_vec(n, 1, (0..n).map(|r| rhs.get(r, j)).collect());
            let alone = chol.solve_matrix(&column).expect("solve_matrix");
            for r in 0..n {
                assert_eq!(alone.get(r, 0), x.get(r, j), "system {system} ({r}, {j})");
            }
        }
    }
}

#[test]
fn sylvester_solve_residuals_below_1e8_across_50_random_systems() {
    // The SAE trainer's backbone: AX + XB = C with A, B symmetric
    // positive-definite (the shape `solve_sylvester` is specified for).
    let mut rng = Rng::new(0x5AE_CD01);
    for system in 0..50 {
        let n = 1 + (rng.next_u64() % 12) as usize;
        let m = 1 + (rng.next_u64() % 12) as usize;
        // A = PᵀP + I/2 and B = QᵀQ + I/2 are SPD and well-conditioned at
        // these sizes, mirroring the Cholesky sweep above.
        let p = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.normal()).collect());
        let mut a = p.transpose().matmul(&p);
        a.add_scaled_identity(0.5);
        let q = Matrix::from_vec(m, m, (0..m * m).map(|_| rng.normal()).collect());
        let mut b = q.transpose().matmul(&q);
        b.add_scaled_identity(0.5);
        let c = Matrix::from_vec(n, m, (0..n * m).map(|_| rng.normal()).collect());

        let x = zsl_core::solve_sylvester(&a, &b, &c).expect("solve_sylvester");

        // Residual ‖A·X + X·B − C‖∞ must be tiny relative to f64 precision.
        let ax = a.matmul(&x);
        let xb = x.matmul(&b);
        let mut worst: f64 = 0.0;
        for r in 0..n {
            for col in 0..m {
                worst = worst.max((ax.get(r, col) + xb.get(r, col) - c.get(r, col)).abs());
            }
        }
        assert!(
            worst < 1e-8,
            "system {system} (n={n}, m={m}): residual {worst:e} above 1e-8"
        );
    }
}
