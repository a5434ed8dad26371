//! The xlsa17 mapping layer: `res101.mat` + `att_splits.mat` → a zsl
//! bundle directory.
//!
//! The "Proposed Splits" distribution (Xian et al., the evaluation protocol
//! every published GZSL number uses for AWA2/CUB/SUN/APY) ships each
//! benchmark as two MAT-files:
//!
//! - `res101.mat` — `features` (`d x N` double, one *column* per sample,
//!   ResNet-101 embeddings) and `labels` (`N x 1`, 1-based class ids);
//! - `att_splits.mat` — `att` (`attr x class` signature matrix, columns
//!   L2-normalized per class) and the 1-based sample-index arrays
//!   `trainval_loc`, `test_seen_loc`, `test_unseen_loc`.
//!
//! [`MatBundle::open`] validates the pair against that schema (every
//! mismatch is a typed [`MatError`], checked *before* any multi-GB decode
//! starts) and [`MatBundle::convert_to_zsb`] writes the equivalent bundle —
//! `features.zsb` + `signatures.csv` + `splits.txt` — that
//! [`zsl_core::DatasetBundle`] and [`zsl_core::StreamingBundle`] load. The
//! feature matrix is streamed column-chunk-at-a-time through
//! [`zsl_core::ZsbWriter`], so peak memory is `O(chunk_rows x d)` no matter
//! how many samples the benchmark has; column-major `d x N` storage makes
//! each streamed chunk *already* row-major samples-by-features, so no
//! transpose pass ever materializes. All bundle files land via the crash-safe
//! unique-temp-then-rename pattern, so a killed import never leaves a
//! half-written bundle behind.

use crate::error::MatError;
use crate::mat5::{MatFile, NumericArray};
use std::path::Path;
use zsl_core::data::{SplitManifest, ZsbWriter, FEATURES_ZSB, SIGNATURES_CSV, SPLITS_TXT};
use zsl_core::linalg::Matrix;

/// Default number of samples decoded per streaming chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 512;

/// A validated xlsa17 benchmark pair, ready to convert.
///
/// Everything except the feature matrix is resident (`att`, labels, split
/// indices — all small); features stay in `res101.mat` until
/// [`MatBundle::convert_to_zsb`] streams them out.
#[derive(Debug)]
pub struct MatBundle {
    res: MatFile,
    /// `att` values, column-major `attr x class` — which is byte-for-byte a
    /// row-major `class x attr` matrix, the orientation `signatures.csv`
    /// wants.
    att: NumericArray,
    /// Raw 1-based class label per sample.
    labels: Vec<u32>,
    /// 0-based split manifest (converted from the 1-based `*_loc` arrays).
    manifest: SplitManifest,
    feature_dim: usize,
    num_samples: usize,
    num_classes: usize,
    attr_dim: usize,
}

/// What an import produced, for logging and assertions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImportSummary {
    /// Samples written to `features.zsb`.
    pub num_samples: usize,
    /// Feature dimension `d`.
    pub feature_dim: usize,
    /// Classes in the signature table.
    pub num_classes: usize,
    /// Attributes per class signature.
    pub attr_dim: usize,
    /// `trainval` split size.
    pub trainval: usize,
    /// `test_seen` split size.
    pub test_seen: usize,
    /// `test_unseen` split size.
    pub test_unseen: usize,
    /// Distinct classes appearing in `test_unseen`.
    pub unseen_classes: usize,
}

/// Read a numeric variable and convert it to 0-based sample indices,
/// validating that every value is an integral 1-based index in range.
fn read_loc(file: &MatFile, name: &str, num_samples: usize) -> Result<Vec<usize>, MatError> {
    let arr = file.read_numeric(name)?;
    arr.data
        .iter()
        .map(|&v| {
            if v.fract() != 0.0 || v < 1.0 || v > num_samples as f64 {
                return Err(MatError::schema(
                    file.path(),
                    format!("{name} value {v} is not a 1-based sample index in 1..={num_samples}"),
                ));
            }
            Ok(v as usize - 1)
        })
        .collect()
}

impl MatBundle {
    /// Open and cross-validate an xlsa17 pair.
    ///
    /// Checks, in order: both containers parse; `features` is a 2-D numeric
    /// `d x N` matrix; `att` is a 2-D numeric `attr x class` matrix;
    /// `labels` has exactly `N` integral entries in `1..=class` (anything
    /// else is the dim/class-count-mismatch [`MatError::Schema`]); every
    /// `*_loc` index is an integral 1-based sample index; and the resulting
    /// manifest passes the core split validation (no overlap, nothing out
    /// of range, no empty split).
    pub fn open(res101: &Path, att_splits: &Path) -> Result<Self, MatError> {
        let res = MatFile::open(res101)?;
        let splits = MatFile::open(att_splits)?;

        let features = res.require("features")?;
        if features.dims.len() != 2 {
            return Err(MatError::schema(
                res101,
                format!(
                    "features must be a 2-D d x N matrix, found dims {:?}",
                    features.dims
                ),
            ));
        }
        let (feature_dim, num_samples) = (features.dims[0], features.dims[1]);
        if feature_dim == 0 || num_samples == 0 {
            return Err(MatError::schema(
                res101,
                format!("features is empty: dims {:?}", features.dims),
            ));
        }

        let att = splits.read_numeric("att")?;
        if att.dims.len() != 2 || att.dims[0] == 0 || att.dims[1] == 0 {
            return Err(MatError::schema(
                att_splits,
                format!(
                    "att must be a non-empty 2-D attr x class matrix, found dims {:?}",
                    att.dims
                ),
            ));
        }
        let (attr_dim, num_classes) = (att.dims[0], att.dims[1]);

        let raw_labels = res.read_numeric("labels")?;
        if raw_labels.data.len() != num_samples {
            return Err(MatError::schema(
                res101,
                format!(
                    "labels has {} entries but features has {num_samples} columns",
                    raw_labels.data.len()
                ),
            ));
        }
        let labels: Vec<u32> = raw_labels
            .data
            .iter()
            .map(|&v| {
                if v.fract() != 0.0 || v < 1.0 || v > num_classes as f64 {
                    return Err(MatError::schema(
                        res.path(),
                        format!(
                            "label {v} is not an integral class id in 1..={num_classes} \
                             (att defines {num_classes} classes)"
                        ),
                    ));
                }
                Ok(v as u32)
            })
            .collect::<Result<_, _>>()?;

        let trainval = read_loc(&splits, "trainval_loc", num_samples)?;
        let test_seen = read_loc(&splits, "test_seen_loc", num_samples)?;
        let test_unseen = read_loc(&splits, "test_unseen_loc", num_samples)?;

        // Declare the unseen-class set from the test_unseen samples so the
        // core loader's class-set cross-check is armed.
        let mut unseen: Vec<u32> = test_unseen.iter().map(|&i| labels[i]).collect();
        unseen.sort_unstable();
        unseen.dedup();

        let manifest = SplitManifest {
            trainval,
            test_seen,
            test_unseen,
            unseen_classes: Some(unseen),
        };
        manifest.validate(num_samples)?;

        Ok(MatBundle {
            res,
            att,
            labels,
            manifest,
            feature_dim,
            num_samples,
            num_classes,
            attr_dim,
        })
    }

    /// Samples in the benchmark.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Feature dimension `d`.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Classes defined by `att`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Attributes per class signature.
    pub fn attr_dim(&self) -> usize {
        self.attr_dim
    }

    /// The 0-based split manifest.
    pub fn manifest(&self) -> &SplitManifest {
        &self.manifest
    }

    /// Raw 1-based class label per sample.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Convert to a bundle directory loadable by [`zsl_core::DatasetBundle`]
    /// and [`zsl_core::StreamingBundle`]: `features.zsb` (streamed,
    /// `chunk_rows` samples resident at a time), `signatures.csv` (class
    /// labels `1..=z` in `att` column order), and `splits.txt`. Existing
    /// files are replaced atomically.
    pub fn convert_to_zsb(
        &self,
        out_dir: &Path,
        chunk_rows: usize,
    ) -> Result<ImportSummary, MatError> {
        std::fs::create_dir_all(out_dir).map_err(|e| MatError::io(out_dir, e))?;

        // Signatures: att's column-major attr x class buffer *is* the
        // row-major class x attr table, so no transpose loop.
        let signatures = Matrix::from_vec(self.num_classes, self.attr_dim, self.att.data.clone());
        let class_labels: Vec<u32> = (1..=self.num_classes as u32).collect();
        zsl_core::data::format::write_signatures_csv(
            &out_dir.join(SIGNATURES_CSV),
            &class_labels,
            &signatures,
        )?;

        self.manifest.write(&out_dir.join(SPLITS_TXT))?;

        // Features: stream d x N columns straight into the .zsb writer —
        // each chunk of k columns arrives as a row-major k x d sample block.
        let mut writer =
            ZsbWriter::create(&out_dir.join(FEATURES_ZSB), &self.labels, self.feature_dim)?;
        let mut chunks = self.res.stream_columns("features", chunk_rows.max(1))?;
        while let Some(chunk) = chunks.next_chunk()? {
            writer.append_rows(&chunk)?;
        }
        writer.finish()?;

        Ok(ImportSummary {
            num_samples: self.num_samples,
            feature_dim: self.feature_dim,
            num_classes: self.num_classes,
            attr_dim: self.attr_dim,
            trainval: self.manifest.trainval.len(),
            test_seen: self.manifest.test_seen.len(),
            test_unseen: self.manifest.test_unseen.len(),
            unseen_classes: self
                .manifest
                .unseen_classes
                .as_ref()
                .map(Vec::len)
                .unwrap_or(0),
        })
    }
}
