//! The source abstraction of the unified pipeline API.
//!
//! A [`FeatureSource`] is anything that can hand the pipeline its three GZSL
//! splits as chunked `(features, labels)` streams plus the class signature
//! banks: an in-memory [`Dataset`], an out-of-core
//! [`crate::data::StreamingBundle`] (whose impl lives with it in
//! [`crate::data::stream`]; the trait is the only way to stream a bundle),
//! or a bare [`MemorySource`] wrapping a feature matrix and labels. Every
//! generic entry point — [`crate::trainer::Trainer::fit`],
//! [`crate::eval::evaluate_gzsl`], [`crate::eval::cross_validate`],
//! [`crate::infer::ScoringEngine::predict_source`], and the
//! [`crate::pipeline::Pipeline`] facade — is written against this trait, so
//! one code path serves every source kind.
//!
//! **Bit-identity.** Chunks preserve row order, the Gram folds
//! ([`crate::model::GramAccumulator`]) accumulate in ascending row order, and
//! accuracy counting is integral, so every consumer produces results
//! bit-for-bit equal across sources and chunk sizes — the differential suite
//! in `tests/streaming_equiv.rs` enforces this through the *same* generic
//! code path for all sources, rather than comparing two parallel
//! implementations.
//!
//! Chunks are [`Cow`]s: in-memory sources lend their matrices without
//! copying, disk-backed sources hand over owned chunks. The trait is object
//! safe, so heterogeneous callers (e.g. a CLI choosing between in-memory and
//! streamed ingestion at runtime) can work through `&dyn FeatureSource`.

use crate::data::{DataError, Dataset};
use crate::error::ZslError;
use crate::linalg::Matrix;
use std::borrow::Cow;

/// Which GZSL split of a source to stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitKind {
    /// Seen-class training samples; labels are seen-class ranks.
    Trainval,
    /// Held-out seen-class samples; labels are seen-class ranks.
    TestSeen,
    /// Unseen-class samples; labels are unseen-class ranks.
    TestUnseen,
}

/// One streamed block: feature rows paired with their (local-rank) labels.
pub type SourceChunk<'a> = (Cow<'a, Matrix>, Cow<'a, [usize]>);

/// A chunked stream over one split of a source. Boxed so the trait stays
/// object safe; the per-chunk dynamic dispatch is noise next to the dense
/// kernels each chunk feeds (the benchmark's `train-xlsa` workload streams
/// every split of its bundle through it).
pub type SourceStream<'a> = Box<dyn Iterator<Item = Result<SourceChunk<'a>, ZslError>> + 'a>;

/// A source of labeled feature data for the ZSL pipeline: three splits
/// streamable in chunks, plus the seen/unseen signature banks.
///
/// Labels in every yielded chunk are *local ranks*: trainval and test-seen
/// labels index rows of [`FeatureSource::seen_signatures`], test-unseen
/// labels index rows of [`FeatureSource::unseen_signatures`] — the same
/// convention the in-memory [`Dataset`] fields use.
pub trait FeatureSource {
    /// Number of samples in one split.
    fn split_len(&self, split: SplitKind) -> usize;

    /// Number of trainval samples (the unit cross-validation folds over).
    fn trainval_len(&self) -> usize {
        self.split_len(SplitKind::Trainval)
    }

    /// Seen-class signature bank, `num_seen x attr_dim`, rank order.
    fn seen_signatures(&self) -> Cow<'_, Matrix>;

    /// Unseen-class signature bank, `num_unseen x attr_dim`, rank order.
    fn unseen_signatures(&self) -> Cow<'_, Matrix>;

    /// Stream one split as `(features, labels)` chunks, in source order.
    fn stream(&self, split: SplitKind) -> Result<SourceStream<'_>, ZslError>;

    /// Stream an arbitrary subset of the trainval split, given positions
    /// *within* that split (the shape a cross-validation fold produces), in
    /// the given order. Out-of-range positions are a typed error.
    fn stream_trainval_subset(&self, positions: &[usize]) -> Result<SourceStream<'_>, ZslError>;

    /// Number of seen classes. Default: rows of the seen bank.
    fn num_seen_classes(&self) -> usize {
        self.seen_signatures().rows()
    }

    /// Number of unseen classes. Default: rows of the unseen bank.
    fn num_unseen_classes(&self) -> usize {
        self.unseen_signatures().rows()
    }

    /// Seen then unseen signatures stacked — the union bank generalized
    /// evaluation scores against. The default stacks the two banks in rank
    /// order, matching [`Dataset::all_signatures`] byte for byte.
    fn union_signatures(&self) -> Matrix {
        let seen = self.seen_signatures();
        let unseen = self.unseen_signatures();
        let attr_dim = seen.cols();
        let rows = seen.rows() + unseen.rows();
        let mut data = Vec::with_capacity(rows * attr_dim);
        data.extend_from_slice(seen.as_slice());
        data.extend_from_slice(unseen.as_slice());
        Matrix::from_vec(rows, attr_dim, data)
    }
}

/// Sized delegating wrapper that turns any `&S` (including `&dyn
/// FeatureSource` itself) into something coercible to `&dyn FeatureSource`.
///
/// Generic functions over `S: FeatureSource + ?Sized` cannot unsize `&S`
/// directly, but `&DynSource<S>` is a reference to a *sized* type, so the
/// coercion applies — this is how [`crate::pipeline::Pipeline`] hands its
/// source to [`crate::eval::cross_validate`] and the object-safe
/// [`crate::trainer::Trainer`] API.
pub(crate) struct DynSource<'s, S: FeatureSource + ?Sized>(pub &'s S);

impl<S: FeatureSource + ?Sized> FeatureSource for DynSource<'_, S> {
    fn split_len(&self, split: SplitKind) -> usize {
        self.0.split_len(split)
    }

    fn trainval_len(&self) -> usize {
        self.0.trainval_len()
    }

    fn seen_signatures(&self) -> Cow<'_, Matrix> {
        self.0.seen_signatures()
    }

    fn unseen_signatures(&self) -> Cow<'_, Matrix> {
        self.0.unseen_signatures()
    }

    fn stream(&self, split: SplitKind) -> Result<SourceStream<'_>, ZslError> {
        self.0.stream(split)
    }

    fn stream_trainval_subset(&self, positions: &[usize]) -> Result<SourceStream<'_>, ZslError> {
        self.0.stream_trainval_subset(positions)
    }

    fn num_seen_classes(&self) -> usize {
        self.0.num_seen_classes()
    }

    fn num_unseen_classes(&self) -> usize {
        self.0.num_unseen_classes()
    }

    fn union_signatures(&self) -> Matrix {
        self.0.union_signatures()
    }
}

/// Shared out-of-range check for trainval-subset positions, one error for
/// every source kind.
pub(crate) fn validate_subset_positions(positions: &[usize], len: usize) -> Result<(), ZslError> {
    if let Some(&bad) = positions.iter().find(|&&p| p >= len) {
        return Err(ZslError::Data(DataError::split(format!(
            "trainval-subset position {bad} out of range for {len} trainval samples"
        ))));
    }
    Ok(())
}

/// A materialized [`Dataset`] is a zero-copy source: every split streams as
/// one borrowed chunk, and fold subsets gather rows exactly as the pre-PR 5
/// in-memory cross-validation did.
impl FeatureSource for Dataset {
    fn split_len(&self, split: SplitKind) -> usize {
        match split {
            SplitKind::Trainval => self.train_x.rows(),
            SplitKind::TestSeen => self.test_seen_x.rows(),
            SplitKind::TestUnseen => self.test_unseen_x.rows(),
        }
    }

    fn seen_signatures(&self) -> Cow<'_, Matrix> {
        Cow::Borrowed(&self.seen_signatures)
    }

    fn unseen_signatures(&self) -> Cow<'_, Matrix> {
        Cow::Borrowed(&self.unseen_signatures)
    }

    fn union_signatures(&self) -> Matrix {
        self.all_signatures()
    }

    fn stream(&self, split: SplitKind) -> Result<SourceStream<'_>, ZslError> {
        let (x, labels) = match split {
            SplitKind::Trainval => (&self.train_x, &self.train_labels),
            SplitKind::TestSeen => (&self.test_seen_x, &self.test_seen_labels),
            SplitKind::TestUnseen => (&self.test_unseen_x, &self.test_unseen_labels),
        };
        Ok(Box::new(std::iter::once(Ok((
            Cow::Borrowed(x),
            Cow::Borrowed(labels.as_slice()),
        )))))
    }

    fn stream_trainval_subset(&self, positions: &[usize]) -> Result<SourceStream<'_>, ZslError> {
        validate_subset_positions(positions, self.train_x.rows())?;
        let x = self.train_x.gather_rows(positions);
        let labels: Vec<usize> = positions.iter().map(|&p| self.train_labels[p]).collect();
        Ok(Box::new(std::iter::once(Ok((
            Cow::Owned(x),
            Cow::Owned(labels),
        )))))
    }
}

/// Bare in-memory source: a feature matrix, its labels, and the signature
/// bank those labels index — how raw matrices enter every generic entry
/// point (`trainer.fit(&MemorySource::new(&x, &labels, &signatures))`).
///
/// There are no test splits: [`SplitKind::TestSeen`] and
/// [`SplitKind::TestUnseen`] stream empty, and the unseen bank is a zero-row
/// matrix. Training and cross-validation see exactly the data they were
/// handed; generalized evaluation over a `MemorySource` degenerates to a
/// seen-classes-only report.
#[derive(Clone, Copy, Debug)]
pub struct MemorySource<'a> {
    x: &'a Matrix,
    labels: &'a [usize],
    signatures: &'a Matrix,
}

impl<'a> MemorySource<'a> {
    /// Wrap a feature matrix (`n x d`), per-row labels, and the signature
    /// bank (`z x a`) the labels index.
    ///
    /// # Panics
    ///
    /// Panics when `x.rows() != labels.len()` — a construction-time guard, so
    /// mismatched inputs fail where they are wired together rather than
    /// inside a fold loop.
    pub fn new(x: &'a Matrix, labels: &'a [usize], signatures: &'a Matrix) -> Self {
        assert_eq!(
            x.rows(),
            labels.len(),
            "MemorySource: {} feature rows but {} labels",
            x.rows(),
            labels.len()
        );
        MemorySource {
            x,
            labels,
            signatures,
        }
    }
}

impl FeatureSource for MemorySource<'_> {
    fn split_len(&self, split: SplitKind) -> usize {
        match split {
            SplitKind::Trainval => self.x.rows(),
            SplitKind::TestSeen | SplitKind::TestUnseen => 0,
        }
    }

    fn seen_signatures(&self) -> Cow<'_, Matrix> {
        Cow::Borrowed(self.signatures)
    }

    fn unseen_signatures(&self) -> Cow<'_, Matrix> {
        Cow::Owned(Matrix::zeros(0, self.signatures.cols()))
    }

    fn stream(&self, split: SplitKind) -> Result<SourceStream<'_>, ZslError> {
        match split {
            SplitKind::Trainval => Ok(Box::new(std::iter::once(Ok((
                Cow::Borrowed(self.x),
                Cow::Borrowed(self.labels),
            ))))),
            SplitKind::TestSeen | SplitKind::TestUnseen => Ok(Box::new(std::iter::empty())),
        }
    }

    fn stream_trainval_subset(&self, positions: &[usize]) -> Result<SourceStream<'_>, ZslError> {
        validate_subset_positions(positions, self.x.rows())?;
        let x = self.x.gather_rows(positions);
        let labels: Vec<usize> = positions.iter().map(|&p| self.labels[p]).collect();
        Ok(Box::new(std::iter::once(Ok((
            Cow::Owned(x),
            Cow::Owned(labels),
        )))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticConfig;

    #[test]
    fn dataset_source_streams_borrowed_splits_in_order() {
        let ds = SyntheticConfig::new().classes(5, 2).seed(3).build();
        for (split, x, labels) in [
            (SplitKind::Trainval, &ds.train_x, &ds.train_labels),
            (SplitKind::TestSeen, &ds.test_seen_x, &ds.test_seen_labels),
            (
                SplitKind::TestUnseen,
                &ds.test_unseen_x,
                &ds.test_unseen_labels,
            ),
        ] {
            let chunks: Vec<_> = ds
                .stream(split)
                .expect("stream")
                .collect::<Result<_, _>>()
                .expect("chunks");
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0].0.as_slice(), x.as_slice());
            assert_eq!(&*chunks[0].1, labels.as_slice());
            assert!(
                matches!(chunks[0].0, Cow::Borrowed(_)),
                "in-memory split must stream without copying"
            );
        }
        assert_eq!(ds.trainval_len(), ds.train_x.rows());
        assert_eq!(
            FeatureSource::union_signatures(&ds).as_slice(),
            ds.all_signatures().as_slice()
        );
    }

    #[test]
    fn subset_streams_gather_in_requested_order_and_validate_positions() {
        let ds = SyntheticConfig::new().classes(4, 2).seed(9).build();
        let positions = [3usize, 0, 7, 3];
        let chunks: Vec<_> = ds
            .stream_trainval_subset(&positions)
            .expect("stream")
            .collect::<Result<_, _>>()
            .expect("chunks");
        assert_eq!(chunks.len(), 1);
        assert_eq!(
            chunks[0].0.as_slice(),
            ds.train_x.gather_rows(&positions).as_slice()
        );
        assert_eq!(&*chunks[0].1, &[3, 0, 7, 3].map(|p| ds.train_labels[p]));
        assert!(matches!(
            ds.stream_trainval_subset(&[1_000_000]),
            Err(ZslError::Data(DataError::Split { .. }))
        ));
    }

    #[test]
    fn memory_source_has_trainval_only() {
        let ds = SyntheticConfig::new().classes(4, 2).seed(5).build();
        let source = MemorySource::new(&ds.train_x, &ds.train_labels, &ds.seen_signatures);
        assert_eq!(source.trainval_len(), ds.train_x.rows());
        assert_eq!(source.num_seen_classes(), 4);
        assert_eq!(source.num_unseen_classes(), 0);
        assert_eq!(
            source.union_signatures().as_slice(),
            ds.seen_signatures.as_slice()
        );
        assert_eq!(
            source.stream(SplitKind::TestSeen).expect("stream").count(),
            0
        );
        let chunks: Vec<_> = source
            .stream(SplitKind::Trainval)
            .expect("stream")
            .collect::<Result<_, _>>()
            .expect("chunks");
        assert_eq!(chunks[0].0.as_slice(), ds.train_x.as_slice());
    }

    #[test]
    #[should_panic(expected = "feature rows but")]
    fn memory_source_rejects_label_length_mismatch() {
        let ds = SyntheticConfig::new().classes(4, 2).build();
        MemorySource::new(&ds.train_x, &ds.train_labels[..3], &ds.seen_signatures);
    }
}
