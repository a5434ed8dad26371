//! Loading and exporting dataset bundles.
//!
//! A *bundle* is a directory holding a feature table (`features.zsb`), a
//! signature table (`signatures.csv`), and a split manifest (`splits.txt`) —
//! see [`crate::data::format`] for the file formats. A CSV feature table
//! (`features.csv`) is an import source, not a bundle file: convert it once
//! with [`crate::data::import_features_csv`] (`zsl-import --features-csv`).
//! [`DatasetBundle::load`] reads and cross-validates the three
//! files, remaps arbitrary raw class labels to dense ids, and
//! [`DatasetBundle::to_dataset`] materializes the trainval / test-seen /
//! test-unseen splits as the in-memory [`Dataset`] the trainers and
//! evaluators consume. [`export_dataset`] is the inverse: any [`Dataset`]
//! (e.g. a synthetic one) round-trips through disk bit-identically.

use super::error::DataError;
use super::format::{
    read_signatures_csv, read_zsb, write_signatures_csv, write_zsb, FeatureTable, SplitManifest,
};
use super::synthetic::Dataset;
use crate::linalg::Matrix;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File name of the binary feature table inside a bundle directory.
pub const FEATURES_ZSB: &str = "features.zsb";
/// File name of the CSV feature table that `zsl-import --features-csv`
/// converts to [`FEATURES_ZSB`]; the loaders never read it.
pub const FEATURES_CSV: &str = "features.csv";
/// File name of the signature table inside a bundle directory.
pub const SIGNATURES_CSV: &str = "signatures.csv";
/// File name of the split manifest inside a bundle directory.
pub const SPLITS_TXT: &str = "splits.txt";

/// Bijective map between arbitrary raw class labels and dense ids
/// `0..num_classes`, in signature-table order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassMap {
    to_raw: Vec<u32>,
    to_dense: BTreeMap<u32, usize>,
}

impl ClassMap {
    /// Build from the raw labels of the signature table, in file order
    /// (line `i` becomes dense id `i`). Duplicates are a
    /// [`DataError::DuplicateClass`].
    pub fn from_labels(raw_labels: &[u32]) -> Result<Self, DataError> {
        let mut to_dense = BTreeMap::new();
        for (dense, &raw) in raw_labels.iter().enumerate() {
            if to_dense.insert(raw, dense).is_some() {
                return Err(DataError::DuplicateClass { label: raw });
            }
        }
        Ok(ClassMap {
            to_raw: raw_labels.to_vec(),
            to_dense,
        })
    }

    /// Dense id for a raw label, if defined.
    pub fn dense(&self, raw: u32) -> Option<usize> {
        self.to_dense.get(&raw).copied()
    }

    /// Raw label for a dense id, if in range.
    pub fn raw(&self, dense: usize) -> Option<u32> {
        self.to_raw.get(dense).copied()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.to_raw.len()
    }

    /// True when no classes are mapped.
    pub fn is_empty(&self) -> bool {
        self.to_raw.is_empty()
    }
}

/// A fully loaded and cross-validated dataset bundle.
///
/// `labels` are already remapped to dense class ids (row indices of
/// `signatures`); `class_map` recovers the original raw labels.
#[derive(Clone, Debug)]
pub struct DatasetBundle {
    /// All sample features, `n_samples x feature_dim`.
    pub features: Matrix,
    /// Dense class id per sample, `len == n_samples`.
    pub labels: Vec<usize>,
    /// Class signatures, `num_classes x attr_dim`, dense-id order.
    pub signatures: Matrix,
    /// Raw-label ↔ dense-id bijection.
    pub class_map: ClassMap,
    /// Sample-index split assignment.
    pub manifest: SplitManifest,
}

/// Path of a bundle's `features.zsb`, the one feature table the loaders
/// read. Shared by [`DatasetBundle::load`] and
/// [`crate::data::StreamingBundle::open`], so the two loaders cannot drift.
/// A bundle that holds only `features.csv` is a NotFound error naming the
/// import that converts it.
pub(crate) fn feature_table_path(dir: &Path) -> Result<PathBuf, DataError> {
    let path = dir.join(FEATURES_ZSB);
    if !path.exists() && dir.join(FEATURES_CSV).is_file() {
        return Err(DataError::io(
            &path,
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "bundle has {FEATURES_CSV} but no {FEATURES_ZSB}; convert it with \
                     `zsl-import --features-csv {}`",
                    dir.display()
                ),
            ),
        ));
    }
    Ok(path)
}

/// Load `signatures.csv` and build the raw-label ↔ dense-id map — the bundle
/// prologue shared by the in-memory and streaming loaders.
pub(crate) fn load_signature_table(dir: &Path) -> Result<(Matrix, ClassMap), DataError> {
    let (raw_class_labels, signatures) = read_signatures_csv(&dir.join(SIGNATURES_CSV))?;
    let class_map = ClassMap::from_labels(&raw_class_labels)?;
    Ok((signatures, class_map))
}

/// Read and cross-validate `splits.txt` against the sample count and class
/// map (index validity plus declared-unseen-class existence) — shared by the
/// in-memory and streaming loaders.
pub(crate) fn load_validated_manifest(
    dir: &Path,
    num_samples: usize,
    class_map: &ClassMap,
) -> Result<SplitManifest, DataError> {
    let splits_path = dir.join(SPLITS_TXT);
    let (manifest, section_lines) = SplitManifest::read_located(&splits_path)?;
    manifest.validate_located(num_samples, &splits_path, &section_lines)?;
    if let Some(declared) = &manifest.unseen_classes {
        for &raw in declared {
            if class_map.dense(raw).is_none() {
                return Err(DataError::UnknownClass {
                    label: raw,
                    context: format!("{SPLITS_TXT} unseen_classes"),
                });
            }
        }
    }
    Ok(manifest)
}

impl DatasetBundle {
    /// Load a bundle directory: its `features.zsb`, `signatures.csv` and
    /// `splits.txt`.
    pub fn load(dir: &Path) -> Result<Self, DataError> {
        let (signatures, class_map) = load_signature_table(dir)?;

        let table = read_zsb(&feature_table_path(dir)?)?;
        let labels = remap_labels(&table.labels, &class_map, FEATURES_ZSB)?;

        let manifest = load_validated_manifest(dir, table.features.rows(), &class_map)?;

        Ok(DatasetBundle {
            features: table.features,
            labels,
            signatures,
            class_map,
            manifest,
        })
    }

    /// Number of samples in the feature table.
    pub fn num_samples(&self) -> usize {
        self.features.rows()
    }

    /// Visual feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Attribute/signature dimension.
    pub fn attr_dim(&self) -> usize {
        self.signatures.cols()
    }

    /// Number of classes in the signature table.
    pub fn num_classes(&self) -> usize {
        self.signatures.rows()
    }

    /// Resolve the GZSL class structure of this bundle's splits — see
    /// [`SplitPlan`]. Shared by [`DatasetBundle::to_dataset`] and the
    /// streaming path ([`crate::data::StreamingBundle`]), so both enforce the
    /// identical protocol checks.
    pub fn split_plan(&self) -> Result<SplitPlan, DataError> {
        SplitPlan::compute(
            &self.labels,
            &self.manifest,
            &self.class_map,
            self.num_classes(),
        )
    }

    /// Materialize the manifest's splits as an in-memory [`Dataset`].
    ///
    /// Seen classes are those with at least one `trainval` sample, unseen
    /// classes those observed in `test_unseen`; both keep dense-id order.
    /// Errors when the two sets overlap (a GZSL protocol violation), when a
    /// `test_seen` sample belongs to a class never trained on, or when the
    /// manifest's declared `unseen_classes` disagree with the samples.
    pub fn to_dataset(&self) -> Result<Dataset, DataError> {
        let plan = self.split_plan()?;

        let gather = |indices: &[usize], rank: &[usize]| -> (Matrix, Vec<usize>) {
            let x = self.features.gather_rows(indices);
            let labels = indices
                .iter()
                .map(|&i| {
                    let r = rank[self.labels[i]];
                    debug_assert_ne!(r, usize::MAX, "rank validated by SplitPlan::compute");
                    r
                })
                .collect();
            (x, labels)
        };

        let (train_x, train_labels) = gather(&self.manifest.trainval, &plan.seen_rank);
        let (test_seen_x, test_seen_labels) = gather(&self.manifest.test_seen, &plan.seen_rank);
        let (test_unseen_x, test_unseen_labels) =
            gather(&self.manifest.test_unseen, &plan.unseen_rank);

        Ok(Dataset {
            train_x,
            train_labels,
            test_seen_x,
            test_seen_labels,
            test_unseen_x,
            test_unseen_labels,
            seen_signatures: self.signatures.gather_rows(&plan.seen_classes),
            unseen_signatures: self.signatures.gather_rows(&plan.unseen_classes),
        })
    }
}

/// The resolved GZSL class structure of a bundle's splits: which dense class
/// ids are seen (≥ 1 `trainval` sample) vs unseen (observed in
/// `test_unseen`), in dense-id order, plus the rank of each class within its
/// list — the local label space the trainers and evaluators use.
///
/// Computing the plan performs the protocol checks that used to live inside
/// `to_dataset`: seen/unseen overlap, declared-unseen-set agreement, and
/// `test_seen` samples whose class was never trained on.
#[derive(Clone, Debug)]
pub struct SplitPlan {
    /// Dense class ids with at least one `trainval` sample, ascending.
    pub seen_classes: Vec<usize>,
    /// Dense class ids observed in `test_unseen`, ascending.
    pub unseen_classes: Vec<usize>,
    /// Dense class id → rank in `seen_classes` (`usize::MAX` when unseen).
    pub(crate) seen_rank: Vec<usize>,
    /// Dense class id → rank in `unseen_classes` (`usize::MAX` when seen).
    pub(crate) unseen_rank: Vec<usize>,
}

impl SplitPlan {
    /// Build the plan from per-sample dense labels and a validated manifest,
    /// running every GZSL protocol check.
    pub(crate) fn compute(
        labels: &[usize],
        manifest: &SplitManifest,
        class_map: &ClassMap,
        num_classes: usize,
    ) -> Result<Self, DataError> {
        let z = num_classes;
        let mut in_trainval = vec![false; z];
        for &i in &manifest.trainval {
            in_trainval[labels[i]] = true;
        }
        let mut in_unseen = vec![false; z];
        for &i in &manifest.test_unseen {
            let class = labels[i];
            if in_trainval[class] {
                return Err(DataError::split(format!(
                    "class {} (raw label {}) has samples in both trainval and test_unseen",
                    class,
                    class_map.raw(class).expect("dense id in range")
                )));
            }
            in_unseen[class] = true;
        }

        let seen_classes: Vec<usize> = (0..z).filter(|&c| in_trainval[c]).collect();
        let unseen_classes: Vec<usize> = (0..z).filter(|&c| in_unseen[c]).collect();
        if let Some(declared) = &manifest.unseen_classes {
            let mut declared_dense: Vec<usize> = declared
                .iter()
                .map(|&raw| class_map.dense(raw).expect("checked at load"))
                .collect();
            declared_dense.sort_unstable();
            if declared_dense != unseen_classes {
                return Err(DataError::split(format!(
                    "manifest declares unseen classes {declared:?} but test_unseen \
                     samples cover a different class set"
                )));
            }
        }

        // Rank of each dense class id within its (seen or unseen) list.
        let mut seen_rank = vec![usize::MAX; z];
        for (rank, &c) in seen_classes.iter().enumerate() {
            seen_rank[c] = rank;
        }
        let mut unseen_rank = vec![usize::MAX; z];
        for (rank, &c) in unseen_classes.iter().enumerate() {
            unseen_rank[c] = rank;
        }

        // trainval and test_unseen classes rank by construction; only a
        // test_seen sample can reference a class that was never trained on.
        for &i in &manifest.test_seen {
            if seen_rank[labels[i]] == usize::MAX {
                return Err(DataError::split(format!(
                    "test_seen sample {i} belongs to class with raw label {} \
                     which has no trainval samples",
                    class_map.raw(labels[i]).expect("dense id in range")
                )));
            }
        }

        Ok(SplitPlan {
            seen_classes,
            unseen_classes,
            seen_rank,
            unseen_rank,
        })
    }

    /// Number of seen classes.
    pub fn num_seen(&self) -> usize {
        self.seen_classes.len()
    }

    /// Number of unseen classes.
    pub fn num_unseen(&self) -> usize {
        self.unseen_classes.len()
    }
}

/// Map a feature table's raw labels to dense class ids, failing with
/// [`DataError::UnknownClass`] on a label the signature table lacks.
pub(crate) fn remap_labels(
    raw: &[u32],
    class_map: &ClassMap,
    context: &str,
) -> Result<Vec<usize>, DataError> {
    raw.iter()
        .map(|&label| {
            class_map
                .dense(label)
                .ok_or_else(|| DataError::UnknownClass {
                    label,
                    context: context.into(),
                })
        })
        .collect()
}

/// Export a [`Dataset`] as a `.zsb` bundle directory (created if absent), the
/// inverse of [`DatasetBundle::load`] + [`DatasetBundle::to_dataset`]:
/// reloading reproduces every matrix and label list bit-identically.
///
/// Classes are written with dense raw labels `0..num_seen` (seen) and
/// `num_seen..num_seen+num_unseen` (unseen); samples are concatenated
/// train, then test-seen, then test-unseen.
pub fn export_dataset(ds: &Dataset, dir: &Path) -> Result<PathBuf, DataError> {
    let num_seen = ds.seen_signatures.rows();
    let num_unseen = ds.unseen_signatures.rows();
    let check_labels =
        |labels: &[usize], bound: usize, what: &str| match labels.iter().find(|&&l| l >= bound) {
            Some(&bad) => Err(DataError::Shape {
                message: format!("{what} label {bad} out of range for {bound} classes"),
            }),
            None => Ok(()),
        };
    check_labels(&ds.train_labels, num_seen, "train")?;
    check_labels(&ds.test_seen_labels, num_seen, "test_seen")?;
    check_labels(&ds.test_unseen_labels, num_unseen, "test_unseen")?;

    std::fs::create_dir_all(dir).map_err(|e| DataError::io(dir, e))?;

    let class_labels: Vec<u32> = (0..num_seen + num_unseen).map(|c| c as u32).collect();
    write_signatures_csv(
        &dir.join(SIGNATURES_CSV),
        &class_labels,
        &ds.all_signatures(),
    )?;

    let n_train = ds.train_x.rows();
    let n_seen = ds.test_seen_x.rows();
    let n_unseen = ds.test_unseen_x.rows();
    let d = ds.train_x.cols();
    let mut data = Vec::with_capacity((n_train + n_seen + n_unseen) * d);
    data.extend_from_slice(ds.train_x.as_slice());
    data.extend_from_slice(ds.test_seen_x.as_slice());
    data.extend_from_slice(ds.test_unseen_x.as_slice());
    let mut labels: Vec<u32> = Vec::with_capacity(n_train + n_seen + n_unseen);
    labels.extend(ds.train_labels.iter().map(|&l| l as u32));
    labels.extend(ds.test_seen_labels.iter().map(|&l| l as u32));
    labels.extend(ds.test_unseen_labels.iter().map(|&l| (num_seen + l) as u32));
    let table = FeatureTable {
        labels,
        features: Matrix::from_vec(n_train + n_seen + n_unseen, d, data),
    };
    write_zsb(&dir.join(FEATURES_ZSB), &table)?;

    let manifest = SplitManifest {
        trainval: (0..n_train).collect(),
        test_seen: (n_train..n_train + n_seen).collect(),
        test_unseen: (n_train + n_seen..n_train + n_seen + n_unseen).collect(),
        unseen_classes: Some(
            (num_seen..num_seen + num_unseen)
                .map(|c| c as u32)
                .collect(),
        ),
    };
    manifest.write(&dir.join(SPLITS_TXT))?;
    Ok(dir.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("zsl_loader_{}_{tag}", std::process::id()))
    }

    #[test]
    fn class_map_is_bijective_in_signature_order() {
        let raw = [42u32, 7, 1000, 0];
        let map = ClassMap::from_labels(&raw).unwrap();
        assert_eq!(map.len(), 4);
        for (dense, &label) in raw.iter().enumerate() {
            assert_eq!(map.dense(label), Some(dense));
            assert_eq!(map.raw(dense), Some(label));
        }
        assert_eq!(map.dense(5), None);
        assert_eq!(map.raw(4), None);
        assert!(matches!(
            ClassMap::from_labels(&[1, 2, 1]),
            Err(DataError::DuplicateClass { label: 1 })
        ));
    }

    #[test]
    fn export_then_load_reproduces_the_dataset_exactly() {
        let ds = SyntheticConfig::new()
            .classes(5, 2)
            .dims(3, 4)
            .samples(4, 2)
            .seed(314)
            .build();
        let dir = temp_dir("rt");
        export_dataset(&ds, &dir).unwrap();
        let bundle = DatasetBundle::load(&dir).unwrap();
        assert_eq!(
            bundle.num_samples(),
            ds.train_x.rows() + ds.test_seen_x.rows() + ds.test_unseen_x.rows()
        );
        let back = bundle.to_dataset().unwrap();
        assert_eq!(back.train_x.as_slice(), ds.train_x.as_slice());
        assert_eq!(back.train_labels, ds.train_labels);
        assert_eq!(back.test_seen_x.as_slice(), ds.test_seen_x.as_slice());
        assert_eq!(back.test_seen_labels, ds.test_seen_labels);
        assert_eq!(back.test_unseen_x.as_slice(), ds.test_unseen_x.as_slice());
        assert_eq!(back.test_unseen_labels, ds.test_unseen_labels);
        assert_eq!(
            back.seen_signatures.as_slice(),
            ds.seen_signatures.as_slice()
        );
        assert_eq!(
            back.unseen_signatures.as_slice(),
            ds.unseen_signatures.as_slice()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_autodetects_zsb_over_csv() {
        // `features.zsb` is the only table the loader reads: a CSV next to
        // it is never parsed. (A CSV alone is a NotFound naming the import;
        // `tests/loader_errors.rs` pins that.)
        let ds = SyntheticConfig::new()
            .classes(3, 1)
            .dims(2, 3)
            .samples(2, 1)
            .build();
        let dir = temp_dir("autodetect");
        export_dataset(&ds, &dir).unwrap();
        std::fs::write(dir.join(FEATURES_CSV), "not,a,feature,table\n").unwrap();
        let bundle = DatasetBundle::load(&dir).unwrap();
        assert_eq!(bundle.num_samples(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
