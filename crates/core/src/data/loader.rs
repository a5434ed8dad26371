//! Loading and exporting dataset bundles.
//!
//! A *bundle* is a directory holding a feature table (`features.zsb`), a
//! signature table (`signatures.csv`), and a split manifest (`splits.txt`) —
//! see [`crate::data::format`] for the file formats. A CSV feature table
//! (`features.csv`) is an import source, not a bundle file: convert it once
//! with [`crate::data::import_features_csv`] (`zsl-import --features-csv`).
//! [`crate::data::StreamingBundle::open`] reads and cross-validates the three
//! files and remaps arbitrary raw class labels to dense ids;
//! [`crate::data::StreamingBundle::to_dataset`] materializes the trainval /
//! test-seen / test-unseen splits as the in-memory [`Dataset`] the trainers
//! and evaluators consume. [`DatasetBundle`] is a bundle a caller assembles
//! from tables it already holds; [`DatasetBundle::to_dataset`] runs the same
//! checks on it. [`export_dataset`] is the inverse: any [`Dataset`] (e.g. a
//! synthetic one) round-trips through disk bit-identically.

use super::error::DataError;
use super::format::{write_signatures_csv, write_zsb, FeatureTable, SplitManifest};
use super::synthetic::Dataset;
use crate::linalg::Matrix;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File name of the binary feature table inside a bundle directory.
pub const FEATURES_ZSB: &str = "features.zsb";
/// File name of the CSV feature table that `zsl-import --features-csv`
/// converts to [`FEATURES_ZSB`]; a bundle is never read from it.
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

/// A dataset bundle held in memory: the feature table in file order, with
/// labels already remapped to dense class ids (row indices of
/// `signatures`); `class_map` recovers the original raw labels.
///
/// Callers that hold their own tables build one with a struct literal;
/// nothing checks the fields until [`DatasetBundle::to_dataset`]. A bundle
/// directory is read by [`crate::data::StreamingBundle::open`].
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

/// Check a bundle's parts against each other before [`SplitPlan::compute`]
/// indexes with them: one dense label per feature row, each below
/// `num_classes`, and a class map of `num_classes` classes that defines
/// every declared unseen class. The manifest's indices were validated
/// against `num_rows` by the caller: located in `splits.txt` by
/// [`crate::data::StreamingBundle::open`], unlocated by
/// [`DatasetBundle::to_dataset`], whose public fields nothing else checks.
fn check_parts(
    num_rows: usize,
    labels: &[usize],
    num_classes: usize,
    class_map: &ClassMap,
    manifest: &SplitManifest,
) -> Result<(), DataError> {
    let shape = |message: String| Err(DataError::Shape { message });
    if labels.len() != num_rows {
        return shape(format!(
            "{} labels for {num_rows} feature rows",
            labels.len()
        ));
    }
    if let Some((sample, &class)) = labels.iter().enumerate().find(|&(_, &c)| c >= num_classes) {
        return shape(format!(
            "sample {sample} has class {class}, out of range for {num_classes} classes"
        ));
    }
    if class_map.len() != num_classes {
        return shape(format!(
            "class map holds {} classes but the signature table has {num_classes}",
            class_map.len()
        ));
    }
    if let Some(declared) = &manifest.unseen_classes {
        if let Some(&label) = declared.iter().find(|&&raw| class_map.dense(raw).is_none()) {
            return Err(DataError::UnknownClass {
                label,
                context: format!("{SPLITS_TXT} unseen_classes"),
            });
        }
    }
    Ok(())
}

impl DatasetBundle {
    /// Materialize the manifest's splits as an in-memory [`Dataset`].
    ///
    /// Seen classes are those with at least one `trainval` sample, unseen
    /// classes those observed in `test_unseen`; both keep dense-id order.
    /// Errors when the fields disagree (labels per feature row, a label or
    /// manifest index out of range, a declared unseen class the class map
    /// lacks), when the two sets overlap (a GZSL protocol violation), when a
    /// `test_seen` sample belongs to a class never trained on, or when the
    /// manifest's declared `unseen_classes` disagree with the samples.
    pub fn to_dataset(&self) -> Result<Dataset, DataError> {
        let rows = self.features.rows();
        self.manifest.validate(rows)?;
        let plan = SplitPlan::compute(
            rows,
            &self.labels,
            &self.manifest,
            &self.class_map,
            self.signatures.rows(),
        )?;

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
/// Computing the plan performs the GZSL protocol checks: seen/unseen
/// overlap, declared-unseen-set agreement, and `test_seen` samples whose
/// class was never trained on.
#[derive(Clone, Debug)]
pub(crate) struct SplitPlan {
    /// Dense class ids with at least one `trainval` sample, ascending.
    pub(crate) seen_classes: Vec<usize>,
    /// Dense class ids observed in `test_unseen`, ascending.
    pub(crate) unseen_classes: Vec<usize>,
    /// Dense class id → rank in `seen_classes` (`usize::MAX` when unseen).
    pub(crate) seen_rank: Vec<usize>,
    /// Dense class id → rank in `unseen_classes` (`usize::MAX` when seen).
    pub(crate) unseen_rank: Vec<usize>,
}

impl SplitPlan {
    /// Build the plan from `num_rows` samples' dense labels and a manifest
    /// whose indices [`SplitManifest::validate`] accepted for `num_rows`:
    /// [`check_parts`] first, then every GZSL protocol check.
    pub(crate) fn compute(
        num_rows: usize,
        labels: &[usize],
        manifest: &SplitManifest,
        class_map: &ClassMap,
        num_classes: usize,
    ) -> Result<Self, DataError> {
        check_parts(num_rows, labels, num_classes, class_map, manifest)?;
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
                .map(|&raw| class_map.dense(raw).expect("checked by check_parts"))
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
/// inverse of [`crate::data::StreamingBundle::open`] +
/// [`crate::data::StreamingBundle::to_dataset`]: reloading reproduces every
/// matrix and label list bit-identically.
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
    use crate::data::format::{read_signatures_csv, read_zsb};
    use crate::data::{Rng, StreamingBundle, SyntheticConfig};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("zsl_loader_{}_{tag}", std::process::id()))
    }

    /// The bundle in `dir` as a caller holding its own tables assembles it:
    /// `read_zsb`'s file-order features and labels, remapped through the
    /// signature table's class map, plus the manifest on disk.
    fn literal(dir: &Path) -> DatasetBundle {
        let table = read_zsb(&dir.join(FEATURES_ZSB)).unwrap();
        let (raw_classes, signatures) = read_signatures_csv(&dir.join(SIGNATURES_CSV)).unwrap();
        let class_map = ClassMap::from_labels(&raw_classes).unwrap();
        DatasetBundle {
            labels: remap_labels(&table.labels, &class_map, FEATURES_ZSB).unwrap(),
            features: table.features,
            signatures,
            class_map,
            manifest: SplitManifest::read(&dir.join(SPLITS_TXT)).unwrap(),
        }
    }

    /// Every matrix (shape and bits) and label list of `a` equals `b`'s.
    fn assert_same(a: &Dataset, b: &Dataset, label: &str) {
        let bits = |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        for (x, y) in [
            (&a.train_x, &b.train_x),
            (&a.test_seen_x, &b.test_seen_x),
            (&a.test_unseen_x, &b.test_unseen_x),
            (&a.seen_signatures, &b.seen_signatures),
            (&a.unseen_signatures, &b.unseen_signatures),
        ] {
            assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()), "{label}");
            assert_eq!(bits(x), bits(y), "{label}");
        }
        assert_eq!(a.train_labels, b.train_labels, "{label}");
        assert_eq!(a.test_seen_labels, b.test_seen_labels, "{label}");
        assert_eq!(a.test_unseen_labels, b.test_unseen_labels, "{label}");
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
        let n = ds.train_x.rows() + ds.test_seen_x.rows() + ds.test_unseen_x.rows();
        let bundle = StreamingBundle::open(&dir, 7).unwrap();
        assert_eq!(bundle.num_samples(), n);
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

        // The two materializers agree bit for bit: the opener's streamed
        // concatenation at every chunk size, and the struct-literal gather
        // over `read_zsb`'s table with the same manifest.
        let materializers_agree = |layout: &str| -> Dataset {
            let gathered = literal(&dir).to_dataset().unwrap();
            for chunk_rows in [1, 7, n, usize::MAX] {
                let streamed = StreamingBundle::open(&dir, chunk_rows)
                    .unwrap()
                    .to_dataset()
                    .unwrap();
                assert_same(
                    &streamed,
                    &gathered,
                    &format!("{layout}, chunk_rows={chunk_rows}"),
                );
            }
            gathered
        };
        // The exported layout: each split one ascending run of rows.
        assert_same(&materializers_agree("exported"), &back, "exported");

        // Rows permuted on disk, so the three splits interleave in the file,
        // and each split's manifest order shuffled: short, non-ascending
        // runs of rows for the reader.
        let mut rng = Rng::new(0x5EED);
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        let mut new_row = vec![0; n];
        for (row, &old) in perm.iter().enumerate() {
            new_row[old] = row;
        }
        let table = read_zsb(&dir.join(FEATURES_ZSB)).unwrap();
        let permuted = FeatureTable {
            labels: perm.iter().map(|&old| table.labels[old]).collect(),
            features: table.features.gather_rows(&perm),
        };
        write_zsb(&dir.join(FEATURES_ZSB), &permuted).unwrap();
        let mut manifest = SplitManifest::read(&dir.join(SPLITS_TXT)).unwrap();
        for split in [
            &mut manifest.trainval,
            &mut manifest.test_seen,
            &mut manifest.test_unseen,
        ] {
            for i in split.iter_mut() {
                *i = new_row[*i];
            }
            rng.shuffle(split);
        }
        manifest.write(&dir.join(SPLITS_TXT)).unwrap();
        let shuffled = materializers_agree("interleaved");
        assert_eq!(shuffled.train_x.rows(), ds.train_x.rows());
        assert_ne!(
            shuffled.train_labels, ds.train_labels,
            "the shuffle must reorder trainval"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_autodetects_zsb_over_csv() {
        // `features.zsb` is the only table the opener reads: a CSV next to
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
        let bundle = StreamingBundle::open(&dir, 4).unwrap();
        bundle.to_dataset().unwrap();
        assert_eq!(bundle.num_samples(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
