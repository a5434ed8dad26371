//! The source abstraction of the unified pipeline API.
//!
//! A [`FeatureSource`] is anything that can hand the pipeline its three GZSL
//! splits as chunked `(features, labels)` streams plus the class signature
//! banks: an in-memory [`Dataset`], an out-of-core
//! [`crate::data::StreamingBundle`] (whose impl lives with it in
//! [`crate::data::stream`]; the trait is the only way to stream a bundle),
//! or a bare [`MemorySource`] wrapping a feature matrix and labels.
//!
//! Data enters the crate one way: every entry point that reads a source —
//! [`crate::trainer::Trainer::fit`], [`crate::model::EszslTrainer::fit`],
//! [`crate::model::EszslProblem::from_source`],
//! [`crate::eval::evaluate_gzsl`], [`crate::eval::evaluate_gzsl_with`],
//! [`crate::eval::cross_validate`],
//! [`crate::infer::ScoringEngine::predict_source`], and the
//! [`crate::pipeline::Pipeline`] facade — takes a `&dyn FeatureSource`, so
//! one compiled code path serves every source kind. A `&Dataset`,
//! `&StreamingBundle` or `&MemorySource` coerces at the call, and a caller
//! that picks its source at run time (a CLI choosing in-memory or streamed
//! ingestion) passes its `&dyn FeatureSource` as it is.
//!
//! **Bit-identity.** Chunks preserve row order, the Gram folds
//! ([`crate::model::GramAccumulator`]) accumulate in ascending row order, and
//! accuracy counting is integral, so every consumer produces results
//! bit-for-bit equal across sources and chunk sizes — the differential suite
//! in `tests/streaming_equiv.rs` enforces this through the *same* code path
//! for all sources, rather than comparing two parallel implementations.
//!
//! Chunks are [`Cow`]s: in-memory sources lend their matrices without
//! copying, disk-backed sources hand over owned chunks.
//!
//! **Normalization belongs to the source.** [`Normalized`] wraps any source
//! and L2-normalizes its feature rows, signature rows, or both as they
//! stream. Because the adapter *is* the data, every stage reads the same
//! rows: cross-validation training and validation, the final fit, the GZSL
//! evaluation and the engine's union bank. No trainer or scorer has a
//! normalization setting of its own.

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
/// streamable in chunks, plus the seen/unseen signature banks. `Debug` is a
/// supertrait so the facade types holding a `&dyn FeatureSource` print.
///
/// Labels in every yielded chunk are *local ranks*: trainval and test-seen
/// labels index rows of [`FeatureSource::seen_signatures`], test-unseen
/// labels index rows of [`FeatureSource::unseen_signatures`] — the same
/// convention the in-memory [`Dataset`] fields use.
pub trait FeatureSource: std::fmt::Debug {
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

    /// Which rows this source L2-normalizes as it streams, as
    /// `(features, signatures)`. Default: neither; [`Normalized`] reports
    /// its own flags and its inner source's. Read only for the provenance
    /// a saved pipeline records.
    fn normalizes(&self) -> (bool, bool) {
        (false, false)
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
/// bank those labels index — how raw matrices enter every entry point
/// (`trainer.fit(&MemorySource::new(&x, &labels, &signatures))`).
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

/// Another source with its feature rows, signature rows, or both
/// L2-normalized ([`Matrix::l2_normalize_rows`]) as they stream: the one
/// place training input is normalized.
///
/// Feature rows are normalized one chunk at a time, so peak feature memory
/// stays `O(chunk_rows x feature_dim)`: an owned chunk is normalized in
/// place, a borrowed one becomes one owned, normalized copy. Row
/// normalization is row-local, so results over the adapter keep their bits
/// across source kinds, chunk sizes and thread counts, and equal a run over
/// the same rows normalized up front. Split lengths and class counts are
/// forwarded without normalizing anything.
///
/// A model trained over a normalized source expects rows prepared the same
/// way at serving time. Only the RBF kernel reads a row's scale: linear
/// models under cosine or argmax do not.
///
/// ```
/// use zsl_core::source::Normalized;
/// use zsl_core::{CrossValConfig, Pipeline, SyntheticConfig};
///
/// # fn main() -> Result<(), zsl_core::ZslError> {
/// let ds = SyntheticConfig::new().classes(20, 4).seed(7).build();
/// let normalized = Normalized::new(&ds, true, true);
/// let cv = CrossValConfig::new().gammas(vec![0.1, 1.0]).lambdas(vec![1.0]).folds(3);
/// let trained = Pipeline::from(&normalized).cross_validate(&cv)?.train()?;
/// assert!(trained.evaluate()?.harmonic_mean > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Normalized<'a> {
    inner: &'a dyn FeatureSource,
    features: bool,
    signatures: bool,
}

impl<'a> Normalized<'a> {
    /// Wrap `inner`, normalizing its feature rows when `features` and its
    /// seen and unseen signature rows when `signatures`.
    pub fn new(inner: &'a dyn FeatureSource, features: bool, signatures: bool) -> Self {
        Normalized {
            inner,
            features,
            signatures,
        }
    }

    fn bank<'s>(&self, bank: Cow<'s, Matrix>) -> Cow<'s, Matrix> {
        if self.signatures {
            Cow::Owned(normalized(bank))
        } else {
            bank
        }
    }

    fn chunks<'s>(&self, stream: SourceStream<'s>) -> SourceStream<'s> {
        if !self.features {
            return stream;
        }
        Box::new(stream.map(|chunk| chunk.map(|(x, labels)| (Cow::Owned(normalized(x)), labels))))
    }
}

/// `m` with every row scaled to unit L2 norm, copied only when borrowed.
fn normalized(m: Cow<'_, Matrix>) -> Matrix {
    let mut m = m.into_owned();
    m.l2_normalize_rows();
    m
}

/// The union bank is the default stack of the two normalized banks.
impl FeatureSource for Normalized<'_> {
    fn split_len(&self, split: SplitKind) -> usize {
        self.inner.split_len(split)
    }

    fn seen_signatures(&self) -> Cow<'_, Matrix> {
        self.bank(self.inner.seen_signatures())
    }

    fn unseen_signatures(&self) -> Cow<'_, Matrix> {
        self.bank(self.inner.unseen_signatures())
    }

    fn stream(&self, split: SplitKind) -> Result<SourceStream<'_>, ZslError> {
        Ok(self.chunks(self.inner.stream(split)?))
    }

    fn stream_trainval_subset(&self, positions: &[usize]) -> Result<SourceStream<'_>, ZslError> {
        Ok(self.chunks(self.inner.stream_trainval_subset(positions)?))
    }

    fn num_seen_classes(&self) -> usize {
        self.inner.num_seen_classes()
    }

    fn num_unseen_classes(&self) -> usize {
        self.inner.num_unseen_classes()
    }

    fn normalizes(&self) -> (bool, bool) {
        let (features, signatures) = self.inner.normalizes();
        (features || self.features, signatures || self.signatures)
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
    fn normalized_source_normalizes_only_the_rows_it_was_asked_to() {
        let ds = SyntheticConfig::new().classes(4, 2).seed(17).build();
        let rows = |on: bool, m: &Matrix| {
            let mut m = m.clone();
            if on {
                m.l2_normalize_rows();
            }
            m
        };
        fn first_chunk(stream: SourceStream<'_>) -> SourceChunk<'_> {
            let mut chunks: Vec<_> = stream.collect::<Result<_, _>>().expect("chunks");
            assert_eq!(chunks.len(), 1);
            chunks.pop().expect("one chunk")
        }
        for (features, signatures) in [(false, false), (true, false), (false, true), (true, true)] {
            let source = Normalized::new(&ds, features, signatures);
            let label = format!("features={features} signatures={signatures}");
            assert_eq!(source.normalizes(), (features, signatures), "{label}");
            for (split, x, labels) in [
                (SplitKind::Trainval, &ds.train_x, &ds.train_labels),
                (SplitKind::TestSeen, &ds.test_seen_x, &ds.test_seen_labels),
                (
                    SplitKind::TestUnseen,
                    &ds.test_unseen_x,
                    &ds.test_unseen_labels,
                ),
            ] {
                assert_eq!(source.split_len(split), x.rows(), "{label}");
                let (chunk, chunk_labels) = first_chunk(source.stream(split).expect("stream"));
                assert_eq!(chunk.as_slice(), rows(features, x).as_slice(), "{label}");
                assert_eq!(&*chunk_labels, labels.as_slice(), "{label}");
                assert_eq!(matches!(chunk, Cow::Owned(_)), features, "{label}");
            }
            let positions = [3usize, 0, 7, 3];
            let (subset, _) =
                first_chunk(source.stream_trainval_subset(&positions).expect("subset"));
            assert_eq!(
                subset.as_slice(),
                rows(features, &ds.train_x.gather_rows(&positions)).as_slice(),
                "{label}"
            );
            for (bank, raw) in [
                (source.seen_signatures(), &ds.seen_signatures),
                (source.unseen_signatures(), &ds.unseen_signatures),
            ] {
                assert_eq!(bank.as_slice(), rows(signatures, raw).as_slice(), "{label}");
            }
            assert_eq!(
                source.union_signatures().as_slice(),
                rows(signatures, &ds.all_signatures()).as_slice(),
                "{label}"
            );
            assert_eq!(
                (source.num_seen_classes(), source.num_unseen_classes()),
                (4, 2)
            );
        }
        // Wrapping a normalized source reports the flags of both layers.
        let inner = Normalized::new(&ds, true, false);
        assert_eq!(
            Normalized::new(&inner, false, true).normalizes(),
            (true, true)
        );
        assert_eq!(ds.normalizes(), (false, false));
    }

    #[test]
    #[should_panic(expected = "feature rows but")]
    fn memory_source_rejects_label_length_mismatch() {
        let ds = SyntheticConfig::new().classes(4, 2).build();
        MemorySource::new(&ds.train_x, &ds.train_labels[..3], &ds.seen_signatures);
    }
}
