//! Shared fixture machinery for the `zsl-mat` integration tests: a seeded
//! synthetic dataset in xlsa17 shape, a helper that serializes it as a
//! `res101.mat` + `att_splits.mat` pair in any byte order / compression, and
//! a hostile file whose header claims far more data than it holds, plus
//! [`bundle_literal`], a converted bundle's raw tables.
#![allow(dead_code)] // not every test binary uses every helper

use std::path::{Path, PathBuf};
use zsl_core::data::format::{read_signatures_csv, read_zsb};
use zsl_core::data::{
    ClassMap, DatasetBundle, Rng, SplitManifest, FEATURES_ZSB, SIGNATURES_CSV, SPLITS_TXT,
};
use zsl_mat::mat5::mi;
use zsl_mat::writer::zlib_stored;
use zsl_mat::{ArrayOpts, ByteOrder, Compression, MatWriter};

/// A synthetic dataset laid out exactly like an xlsa17 benchmark.
///
/// The `features` buffer is simultaneously the column-major `d x n` MATLAB
/// matrix (column `i` = sample `i`) and the row-major `n x d` matrix the
/// in-memory path uses — the byte layouts coincide, which is the identity
/// the importer exploits. Same for `att` (column-major `a x z` == row-major
/// `z x a`).
pub struct SynthXlsa {
    /// Samples.
    pub n: usize,
    /// Feature dimension.
    pub d: usize,
    /// Classes (first `seen` are seen).
    pub z: usize,
    /// Attributes per class.
    pub a: usize,
    /// Features: col-major `d x n` / row-major `n x d`.
    pub features: Vec<f64>,
    /// 1-based class label per sample.
    pub labels: Vec<u32>,
    /// Attributes: col-major `a x z` / row-major `z x a`.
    pub att: Vec<f64>,
    /// 0-based trainval sample indices.
    pub trainval: Vec<usize>,
    /// 0-based test-seen sample indices.
    pub test_seen: Vec<usize>,
    /// 0-based test-unseen sample indices.
    pub test_unseen: Vec<usize>,
}

/// Deterministic synthetic xlsa17 benchmark: 5 classes (3 seen, 2 unseen),
/// class-informative features so the GZSL accuracies are non-degenerate.
pub fn synth_xlsa(seed: u64) -> SynthXlsa {
    let (n, d, z, a) = (40usize, 6usize, 5usize, 4usize);
    let seen = 3usize;
    let mut rng = Rng::new(seed);

    // Class signatures: random normal columns (a x z, column-major).
    let att: Vec<f64> = (0..a * z).map(|_| rng.normal()).collect();
    // Random linear lift from attribute space to feature space.
    let lift: Vec<f64> = (0..d * a).map(|_| rng.normal()).collect();

    let mut labels = Vec::with_capacity(n);
    let mut features = vec![0.0; n * d];
    for i in 0..n {
        let class = i % z; // 0-based
        labels.push(class as u32 + 1);
        let sig = &att[class * a..(class + 1) * a];
        for row in 0..d {
            let mut v = 0.0;
            for (k, &s) in sig.iter().enumerate() {
                v += lift[row * a + k] * s;
            }
            features[i * d + row] = v + 0.1 * rng.normal();
        }
    }

    let mut trainval = Vec::new();
    let mut test_seen = Vec::new();
    let mut test_unseen = Vec::new();
    let mut seen_count = vec![0usize; z];
    for i in 0..n {
        let class = i % z;
        if class >= seen {
            test_unseen.push(i);
        } else if seen_count[class] % 4 == 0 {
            test_seen.push(i);
            seen_count[class] += 1;
        } else {
            trainval.push(i);
            seen_count[class] += 1;
        }
    }

    SynthXlsa {
        n,
        d,
        z,
        a,
        features,
        labels,
        att,
        trainval,
        test_seen,
        test_unseen,
    }
}

/// How the pair's numeric payloads are stored.
#[derive(Clone, Copy)]
pub struct PairOpts {
    /// File byte order.
    pub order: ByteOrder,
    /// Top-level element compression.
    pub compression: Compression,
    /// Store labels/locs as narrow integer element types (as MATLAB's
    /// auto-narrowing does) instead of `miDOUBLE`.
    pub narrow: bool,
}

/// Serialize the dataset as `res101.mat` + `att_splits.mat` under `dir`.
pub fn write_pair(dir: &Path, ds: &SynthXlsa, opts: PairOpts) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).expect("fixture dir");
    let array_opts = |store_as| ArrayOpts {
        store_as,
        compression: opts.compression,
        ..ArrayOpts::default()
    };
    let int_ty = if opts.narrow {
        zsl_mat::mat5::mi::UINT16
    } else {
        zsl_mat::mat5::mi::DOUBLE
    };

    let res_path = dir.join("res101.mat");
    let mut res = MatWriter::new(opts.order);
    res.add_array(
        "features",
        &[ds.d, ds.n],
        &ds.features,
        array_opts(zsl_mat::mat5::mi::DOUBLE),
    );
    let labels_f64: Vec<f64> = ds.labels.iter().map(|&l| l as f64).collect();
    res.add_array("labels", &[ds.n, 1], &labels_f64, array_opts(int_ty));
    res.write_to(&res_path).expect("write res101.mat");

    let att_path = dir.join("att_splits.mat");
    let mut att = MatWriter::new(opts.order);
    att.add_array(
        "att",
        &[ds.a, ds.z],
        &ds.att,
        array_opts(zsl_mat::mat5::mi::DOUBLE),
    );
    let one_based = |ix: &[usize]| -> Vec<f64> { ix.iter().map(|&i| i as f64 + 1.0).collect() };
    for (name, ix) in [
        ("trainval_loc", &ds.trainval),
        ("test_seen_loc", &ds.test_seen),
        ("test_unseen_loc", &ds.test_unseen),
    ] {
        att.add_array(name, &[ix.len(), 1], &one_based(ix), array_opts(int_ty));
    }
    att.write_to(&att_path).expect("write att_splits.mat");

    (res_path, att_path)
}

/// Unique scratch directory for a test.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsl_mat_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A little-endian file holding one `miCOMPRESSED` element (stored zlib
/// blocks) whose inner `double` matrix `m` declares `dims` and a `pr` tag of
/// `pr_bytes` values stored as `uint8`, yet carries none of them. The inner
/// tag's length claims the data is there, and nothing but the decompressed
/// stream can contradict it.
pub fn compressed_header_only(dir: &Path, name: &str, dims: &[i32], pr_bytes: u32) -> PathBuf {
    fn push(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let mut body = Vec::new();
    // Array flags: miUINT32 x 2, class mxDOUBLE_CLASS (6).
    for v in [mi::UINT32, 8, 6, 0] {
        push(&mut body, v);
    }
    push(&mut body, mi::INT32);
    push(&mut body, 4 * dims.len() as u32);
    for &d in dims {
        body.extend_from_slice(&d.to_le_bytes());
    }
    if dims.len() % 2 == 1 {
        push(&mut body, 0);
    }
    // Name "m" in the 8-byte small-element form, then the bare pr tag.
    push(&mut body, (1 << 16) | mi::INT8);
    body.extend_from_slice(b"m\0\0\0");
    push(&mut body, mi::UINT8);
    push(&mut body, pr_bytes);
    let mut element = Vec::new();
    push(&mut element, mi::MATRIX);
    push(&mut element, body.len() as u32 + pr_bytes);
    element.extend_from_slice(&body);
    let compressed = zlib_stored(&element);
    let mut raw = Vec::new();
    push(&mut raw, mi::COMPRESSED);
    push(&mut raw, compressed.len() as u32);
    raw.extend_from_slice(&compressed);
    let mut w = MatWriter::new(ByteOrder::Little);
    w.add_raw(&raw);
    let path = dir.join(name);
    w.write_to(&path).expect("write fixture");
    path
}

/// A bundle directory's tables as the `DatasetBundle` literal a caller
/// holding them would build: `read_zsb`'s file-order features, labels
/// remapped through the signature table's class map, and the manifest.
pub fn bundle_literal(dir: &Path) -> DatasetBundle {
    let table = read_zsb(&dir.join(FEATURES_ZSB)).expect("read features.zsb");
    let (raw_classes, signatures) =
        read_signatures_csv(&dir.join(SIGNATURES_CSV)).expect("read signatures.csv");
    let class_map = ClassMap::from_labels(&raw_classes).expect("distinct classes");
    DatasetBundle {
        labels: table
            .labels
            .iter()
            .map(|&raw| class_map.dense(raw).expect("known class"))
            .collect(),
        features: table.features,
        signatures,
        class_map,
        manifest: SplitManifest::read(&dir.join(SPLITS_TXT)).expect("read splits.txt"),
    }
}
