//! Out-of-core streaming ingestion: iterate a bundle's `.zsb` feature table
//! in fixed-row chunks so dataset size never bounds memory.
//!
//! The ESZSL closed form `W = (XᵀX + γI)⁻¹ XᵀYS (SᵀS + λI)⁻¹` only ever
//! needs the Gram accumulators `XᵀX` and `XᵀY`, so the full feature matrix
//! never has to exist in RAM. This module provides the disk side of that
//! pipeline:
//!
//! - [`ZsbChunkReader`] iterates a `.zsb` feature table as [`FeatureChunk`]s
//!   of at most `chunk_rows` rows, forward or in an explicit (shuffled,
//!   repeating) row order, with full header and truncation validation. It is
//!   the one `.zsb` decoder: the in-memory [`crate::data::format::read_zsb`]
//!   concatenates its chunks.
//! - [`StreamingBundle`] is the streaming twin of
//!   [`crate::data::DatasetBundle`]: signatures, labels, and the split
//!   manifest are loaded and cross-validated eagerly (all `O(n)` or smaller),
//!   while features stay on disk and are re-streamed per pass via
//!   [`SplitStream`].
//!
//! CSV feature tables are not read here: `zsl-import --features-csv` (or
//! [`crate::data::import_features_csv`]) converts them to `.zsb` once.
//!
//! Peak resident *feature* memory anywhere in this module is
//! `O(chunk_rows x feature_dim)`; per-sample labels are `O(n)` (4–8 bytes per
//! row, negligible next to `feature_dim` doubles per row).
//!
//! **Bit-identity.** Streamed consumers ([`crate::model::GramAccumulator`],
//! [`crate::infer::ScoringEngine::predict_source`], the generic evaluators
//! in [`crate::eval`]) produce results bit-for-bit equal to the in-memory
//! pipeline at every chunk size, because chunks preserve row order and every
//! downstream kernel accumulates in ascending row order
//! (see [`crate::linalg::Matrix::add_transposed_product`]). The differential
//! suite in `tests/streaming_equiv.rs` pins this end to end.

use super::error::DataError;
use super::format::{parse_zsb_header, zsb_validate_dims, SplitManifest, ZSB_HEADER_LEN};
use super::loader::{feature_table_path, remap_labels, ClassMap, SplitPlan, FEATURES_ZSB};
use crate::linalg::Matrix;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// One block of consecutive samples pulled from a feature table.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureChunk {
    /// Global index of the first row: its row number in the file for forward
    /// readers, or its position in the requested index list for indexed
    /// readers ([`ZsbChunkReader::open_indexed`]).
    pub start_row: usize,
    /// Raw class label per chunk row, `len == features.rows()` (empty when
    /// the crate-internal trusted indexed mode skipped the label block).
    pub labels: Vec<u32>,
    /// Feature rows, `chunk_rows x feature_dim` (the final chunk may be
    /// shorter).
    pub features: Matrix,
}

/// Reject a zero chunk size with a typed error: a zero-row chunk could never
/// make progress and would loop forever.
fn validate_chunk_rows(chunk_rows: usize) -> Result<(), DataError> {
    if chunk_rows == 0 {
        return Err(DataError::Shape {
            message: "streaming chunk_rows must be at least 1, got 0".into(),
        });
    }
    Ok(())
}

/// Map a mid-stream `read_exact` failure: an unexpected EOF means the file
/// shrank after its length was validated at open (or the header lied in a way
/// the length check could not see), which is a truncation as far as the
/// caller is concerned.
fn read_failure(path: &Path, expected: u64, e: std::io::Error) -> DataError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        let actual = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        DataError::Truncated {
            path: path.into(),
            expected,
            actual,
        }
    } else {
        DataError::io(path, e)
    }
}

/// Chunked reader over a `.zsb` binary feature dump.
///
/// [`ZsbChunkReader::open`] reads and fully validates the 32-byte header and
/// the label block (magic, version, flags, reserved bytes, non-zero dims,
/// u64 *and* usize overflow of the promised payload, exact file length —
/// truncation and trailing garbage are both rejected before the first chunk —
/// and the header `class_count` against the labels actually present). Feature
/// rows are then streamed in `chunk_rows` blocks; every value is checked
/// finite with the same error message as the in-memory reader.
///
/// The iterator yields `Result<FeatureChunk, DataError>` and fuses after the
/// first error.
#[derive(Debug)]
pub struct ZsbChunkReader {
    path: PathBuf,
    file: BufReader<File>,
    labels: Vec<u32>,
    n_samples: usize,
    feature_dim: usize,
    expected_len: u64,
    chunk_rows: usize,
    /// `None`: forward scan over all rows. `Some(indices)`: yield exactly
    /// these global rows, in order, via seeks.
    order: Option<Vec<usize>>,
    /// Next global row (forward mode) or next position in `order` (indexed).
    cursor: usize,
    failed: bool,
}

impl ZsbChunkReader {
    /// Open a `.zsb` file for a forward scan in `chunk_rows` blocks.
    pub fn open(path: &Path, chunk_rows: usize) -> Result<Self, DataError> {
        Self::open_inner(path, chunk_rows, None, true)
    }

    /// Open a `.zsb` file to stream exactly `indices` (global row numbers, in
    /// the given order, repeats allowed) in `chunk_rows` blocks.
    ///
    /// Rows are fetched with coalesced seeks, so arbitrary-order access —
    /// e.g. a shuffled cross-validation fold — costs one seek per *run* of
    /// consecutive indices, not one per row, and still never holds more than
    /// one chunk of features in memory. Ascending lists degenerate to long
    /// sequential runs, so a sparse split over a huge file reads *only* the
    /// selected byte ranges.
    pub fn open_indexed(
        path: &Path,
        indices: &[usize],
        chunk_rows: usize,
    ) -> Result<Self, DataError> {
        Self::open_indexed_inner(path, indices, chunk_rows, true)
    }

    /// [`ZsbChunkReader::open_indexed`] minus the label-block read and
    /// class-count recheck — for callers (the [`StreamingBundle`] split
    /// streams) that already validated the labels at bundle open and would
    /// otherwise re-read and re-sort 4·n bytes on every pass. Header and
    /// exact file length are still validated, so shrink/corruption races
    /// stay caught. Yielded chunks carry empty `labels`.
    pub(crate) fn open_indexed_trusted(
        path: &Path,
        indices: &[usize],
        chunk_rows: usize,
    ) -> Result<Self, DataError> {
        Self::open_indexed_inner(path, indices, chunk_rows, false)
    }

    fn open_indexed_inner(
        path: &Path,
        indices: &[usize],
        chunk_rows: usize,
        read_labels: bool,
    ) -> Result<Self, DataError> {
        let reader = Self::open_inner(path, chunk_rows, Some(indices.to_vec()), read_labels)?;
        if let Some(&bad) = indices.iter().find(|&&i| i >= reader.n_samples) {
            return Err(DataError::split(format!(
                "streamed row index {bad} out of range for {} samples",
                reader.n_samples
            )));
        }
        Ok(reader)
    }

    fn open_inner(
        path: &Path,
        chunk_rows: usize,
        order: Option<Vec<usize>>,
        read_labels: bool,
    ) -> Result<Self, DataError> {
        validate_chunk_rows(chunk_rows)?;
        let file = File::open(path).map_err(|e| DataError::io(path, e))?;
        let actual = file.metadata().map_err(|e| DataError::io(path, e))?.len();
        if actual < ZSB_HEADER_LEN {
            return Err(DataError::Truncated {
                path: path.into(),
                expected: ZSB_HEADER_LEN,
                actual,
            });
        }
        let mut file = BufReader::new(file);
        let mut header = [0u8; ZSB_HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(|e| read_failure(path, ZSB_HEADER_LEN, e))?;
        let parsed = parse_zsb_header(path, &header)?;
        let (n, d, expected) = zsb_validate_dims(path, parsed.n_samples, parsed.feature_dim)?;
        if actual < expected {
            return Err(DataError::Truncated {
                path: path.into(),
                expected,
                actual,
            });
        }
        if actual > expected {
            return Err(DataError::header(
                path,
                format!(
                    "{} trailing bytes after the feature payload",
                    actual - expected
                ),
            ));
        }

        let labels = if read_labels {
            let mut label_bytes = vec![0u8; 4 * n];
            file.read_exact(&mut label_bytes)
                .map_err(|e| read_failure(path, expected, e))?;
            let labels: Vec<u32> = label_bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                .collect();
            let mut distinct = labels.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() != parsed.class_count as usize {
                return Err(DataError::header(
                    path,
                    format!(
                        "header claims {} distinct classes but labels contain {}",
                        parsed.class_count,
                        distinct.len()
                    ),
                ));
            }
            labels
        } else {
            Vec::new()
        };

        Ok(ZsbChunkReader {
            path: path.into(),
            file,
            labels,
            n_samples: n,
            feature_dim: d,
            expected_len: expected,
            chunk_rows,
            order,
            cursor: 0,
            failed: false,
        })
    }

    /// Total sample rows in the file (not the index list).
    pub fn num_samples(&self) -> usize {
        self.n_samples
    }

    /// Feature columns per row.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// All raw per-sample labels, in file order (read once at open; `O(n)`).
    /// Empty only for the crate-internal trusted mode, which skips the label
    /// block.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Byte offset of global feature row `row`.
    fn row_offset(&self, row: usize) -> u64 {
        ZSB_HEADER_LEN + 4 * self.n_samples as u64 + (row as u64) * (8 * self.feature_dim as u64)
    }

    /// Read `rows` consecutive feature rows starting at global row `start`
    /// from the current file position, finite-checking each value.
    fn read_rows_at_cursor(&mut self, start: usize, rows: usize) -> Result<Vec<f64>, DataError> {
        let d = self.feature_dim;
        let mut bytes = vec![0u8; rows * d * 8];
        let expected = self.expected_len;
        self.file
            .read_exact(&mut bytes)
            .map_err(|e| read_failure(&self.path, expected, e))?;
        let mut data = Vec::with_capacity(rows * d);
        for (i, b) in bytes.chunks_exact(8).enumerate() {
            let v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
            if !v.is_finite() {
                return Err(DataError::header(
                    &self.path,
                    format!(
                        "non-finite feature value {v} at row {}, col {}",
                        start + i / d,
                        i % d
                    ),
                ));
            }
            data.push(v);
        }
        Ok(data)
    }

    fn next_forward(&mut self) -> Option<Result<FeatureChunk, DataError>> {
        if self.cursor >= self.n_samples {
            return None;
        }
        let start = self.cursor;
        let rows = self.chunk_rows.min(self.n_samples - start);
        let data = match self.read_rows_at_cursor(start, rows) {
            Ok(data) => data,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        self.cursor = start + rows;
        Some(Ok(FeatureChunk {
            start_row: start,
            labels: self.labels[start..start + rows].to_vec(),
            features: Matrix::from_vec(rows, self.feature_dim, data),
        }))
    }

    fn next_indexed(&mut self) -> Option<Result<FeatureChunk, DataError>> {
        let order = self.order.take().expect("indexed mode");
        let result = self.next_indexed_inner(&order);
        self.order = Some(order);
        result
    }

    fn next_indexed_inner(&mut self, order: &[usize]) -> Option<Result<FeatureChunk, DataError>> {
        if self.cursor >= order.len() {
            return None;
        }
        let start_pos = self.cursor;
        let take = self.chunk_rows.min(order.len() - start_pos);
        let wanted = &order[start_pos..start_pos + take];
        let d = self.feature_dim;
        let mut data = Vec::with_capacity(take * d);
        let mut labels = Vec::with_capacity(take);
        let mut p = 0;
        while p < take {
            // Coalesce a run of consecutive indices into one seek + read.
            let run_start = wanted[p];
            let mut run_len = 1;
            while p + run_len < take && wanted[p + run_len] == wanted[p + run_len - 1] + 1 {
                run_len += 1;
            }
            let offset = self.row_offset(run_start);
            let run = self
                .file
                .seek(SeekFrom::Start(offset))
                .map_err(|e| DataError::io(&self.path, e))
                .and_then(|_| self.read_rows_at_cursor(run_start, run_len));
            match run {
                Ok(rows) => data.extend_from_slice(&rows),
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
            if !self.labels.is_empty() {
                labels.extend(wanted[p..p + run_len].iter().map(|&g| self.labels[g]));
            }
            p += run_len;
        }
        self.cursor = start_pos + take;
        Some(Ok(FeatureChunk {
            start_row: start_pos,
            labels,
            features: Matrix::from_vec(take, d, data),
        }))
    }
}

impl Iterator for ZsbChunkReader {
    type Item = Result<FeatureChunk, DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if self.order.is_some() {
            self.next_indexed()
        } else {
            self.next_forward()
        }
    }
}

/// A chunked stream over one split of a bundle: yields
/// `(features, dense-rank labels)` blocks in the split's manifest order,
/// holding at most `chunk_rows` feature rows at a time.
///
/// Produced by the `stream_*` methods on [`StreamingBundle`]. Fuses after
/// the first error (the reader does): a consumer that keeps polling past an
/// `Err` gets `None`, never a second (possibly misleading) error.
#[derive(Debug)]
pub struct SplitStream {
    /// Seek-coalesced gather in explicit index order: only the selected byte
    /// ranges are read, so a sparse split over a huge file skips the rest
    /// entirely — an ascending dense split degenerates to one long
    /// sequential run.
    reader: ZsbChunkReader,
    /// `labels[position]` pairs with the index list handed to the reader.
    labels: Vec<usize>,
}

impl Iterator for SplitStream {
    type Item = Result<(Matrix, Vec<usize>), DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        let chunk = match self.reader.next()? {
            Ok(chunk) => chunk,
            Err(e) => return Some(Err(e)),
        };
        let rows = chunk.features.rows();
        let local = self.labels[chunk.start_row..chunk.start_row + rows].to_vec();
        Some(Ok((chunk.features, local)))
    }
}

/// The streaming twin of [`crate::data::DatasetBundle`]: everything *except*
/// the feature matrix is loaded and cross-validated up front (signatures,
/// class map, per-sample labels, split manifest — all `O(n)` or smaller),
/// while features stay on disk and are re-read chunk-at-a-time per pass.
///
/// Construction runs the same validation as the in-memory loader: label
/// remapping against the signature table, manifest index validation, declared
/// unseen-class checks, and the full GZSL [`SplitPlan`] protocol checks. The
/// `.zsb` header and labels are validated without touching the payload.
#[derive(Debug)]
pub struct StreamingBundle {
    /// The bundle's `features.zsb`.
    features: PathBuf,
    chunk_rows: usize,
    /// Dense class id per sample, file order.
    labels: Vec<usize>,
    signatures: Matrix,
    class_map: ClassMap,
    manifest: SplitManifest,
    num_samples: usize,
    feature_dim: usize,
    plan: SplitPlan,
}

impl StreamingBundle {
    /// Open a bundle directory for streaming its `features.zsb` in
    /// `chunk_rows` blocks.
    pub fn open(dir: &Path, chunk_rows: usize) -> Result<Self, DataError> {
        validate_chunk_rows(chunk_rows)?;
        let (signatures, class_map) = super::loader::load_signature_table(dir)?;

        let features = feature_table_path(dir)?;
        let reader = ZsbChunkReader::open(&features, chunk_rows)?;
        let (num_samples, feature_dim) = (reader.num_samples(), reader.feature_dim());
        let labels = remap_labels(reader.labels(), &class_map, FEATURES_ZSB)?;

        let manifest = super::loader::load_validated_manifest(dir, num_samples, &class_map)?;
        let plan = SplitPlan::compute(&labels, &manifest, &class_map, signatures.rows())?;

        Ok(StreamingBundle {
            features,
            chunk_rows,
            labels,
            signatures,
            class_map,
            manifest,
            num_samples,
            feature_dim,
            plan,
        })
    }

    /// Number of samples in the feature table.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Visual feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Attribute/signature dimension.
    pub fn attr_dim(&self) -> usize {
        self.signatures.cols()
    }

    /// Number of classes in the signature table.
    pub fn num_classes(&self) -> usize {
        self.signatures.rows()
    }

    /// Rows per streamed chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// The split manifest (validated at open).
    pub fn manifest(&self) -> &SplitManifest {
        &self.manifest
    }

    /// The raw-label ↔ dense-id bijection.
    pub fn class_map(&self) -> &ClassMap {
        &self.class_map
    }

    /// The full signature table, dense-id order.
    pub fn signatures(&self) -> &Matrix {
        &self.signatures
    }

    /// The resolved GZSL split plan.
    pub fn split_plan(&self) -> &SplitPlan {
        &self.plan
    }

    /// Number of seen classes (≥ 1 trainval sample).
    pub fn num_seen_classes(&self) -> usize {
        self.plan.num_seen()
    }

    /// Number of unseen classes (observed in test_unseen).
    pub fn num_unseen_classes(&self) -> usize {
        self.plan.num_unseen()
    }

    /// Seen-class signatures in rank order — bit-identical to
    /// `Dataset::seen_signatures` from the in-memory path.
    pub fn seen_signatures(&self) -> Matrix {
        self.signatures.gather_rows(&self.plan.seen_classes)
    }

    /// Unseen-class signatures in rank order.
    pub fn unseen_signatures(&self) -> Matrix {
        self.signatures.gather_rows(&self.plan.unseen_classes)
    }

    /// Seen then unseen signatures stacked — bit-identical to
    /// `Dataset::all_signatures`, the GZSL union bank.
    pub fn union_signatures(&self) -> Matrix {
        let mut data =
            Vec::with_capacity((self.plan.num_seen() + self.plan.num_unseen()) * self.attr_dim());
        data.extend_from_slice(self.seen_signatures().as_slice());
        data.extend_from_slice(self.unseen_signatures().as_slice());
        Matrix::from_vec(
            self.plan.num_seen() + self.plan.num_unseen(),
            self.attr_dim(),
            data,
        )
    }

    /// Stream the trainval split as `(features, seen-rank labels)` chunks, in
    /// manifest order.
    pub fn stream_trainval(&self) -> Result<SplitStream, DataError> {
        self.stream_rows(&self.manifest.trainval, |c| self.plan.seen_rank[c])
    }

    /// Stream the test-seen split as `(features, seen-rank labels)` chunks.
    pub fn stream_test_seen(&self) -> Result<SplitStream, DataError> {
        self.stream_rows(&self.manifest.test_seen, |c| self.plan.seen_rank[c])
    }

    /// Stream the test-unseen split as `(features, unseen-rank labels)`
    /// chunks.
    pub fn stream_test_unseen(&self) -> Result<SplitStream, DataError> {
        self.stream_rows(&self.manifest.test_unseen, |c| self.plan.unseen_rank[c])
    }

    /// Stream an arbitrary subset of the trainval split, given positions
    /// *within* the trainval index list (the shape a cross-validation fold
    /// produces), in the given order.
    pub fn stream_trainval_subset(&self, local: &[usize]) -> Result<SplitStream, DataError> {
        let trainval = &self.manifest.trainval;
        if let Some(&bad) = local.iter().find(|&&p| p >= trainval.len()) {
            return Err(DataError::split(format!(
                "trainval-subset position {bad} out of range for {} trainval samples",
                trainval.len()
            )));
        }
        let global: Vec<usize> = local.iter().map(|&p| trainval[p]).collect();
        self.stream_rows(&global, |c| self.plan.seen_rank[c])
    }

    /// Core row streamer: yield the given global rows, in order, paired with
    /// `rank(dense_class)` labels.
    ///
    /// Goes through the seek-coalesced indexed reader, so only the selected
    /// rows are read: a sparse split over a huge file skips the rest
    /// entirely, and a fully contiguous (ascending) split degenerates to one
    /// sequential read. Rows arrive in exactly the given order, which is
    /// what keeps streamed training bit-identical to the in-memory gather.
    fn stream_rows<F>(&self, indices: &[usize], rank: F) -> Result<SplitStream, DataError>
    where
        F: Fn(usize) -> usize,
    {
        let labels: Vec<usize> = indices.iter().map(|&g| rank(self.labels[g])).collect();
        // Trusted open: the label block was validated when this bundle
        // opened; re-reading it on every pass would cost O(n log n) per
        // stream for nothing.
        let reader =
            ZsbChunkReader::open_indexed_trusted(&self.features, indices, self.chunk_rows)?;
        Ok(SplitStream { reader, labels })
    }
}
