//! Out-of-core streaming ingestion: iterate a bundle's `.zsb` feature table
//! in fixed-row chunks so dataset size never bounds memory.
//!
//! The ESZSL closed form `W = (XᵀX + γI)⁻¹ XᵀYS (SᵀS + λI)⁻¹` only ever
//! needs the Gram accumulators `XᵀX` and `XᵀY`, so the full feature matrix
//! never has to exist in RAM. This module provides the disk side of that
//! pipeline:
//!
//! - [`ZsbChunkReader`] iterates a `.zsb` feature table as [`FeatureChunk`]s
//!   of at most `chunk_rows` rows, in a row order that is either every row
//!   of the file or an explicit (shuffled, repeating) index list, with full
//!   header and truncation validation. It is the one `.zsb` decoder: the
//!   in-memory [`crate::data::format::read_zsb`] concatenates its chunks.
//! - [`StreamingBundle`] is the one bundle reader: signatures, labels, and
//!   the split manifest are loaded and cross-validated eagerly (all `O(n)`
//!   or smaller), while features stay on disk and are re-streamed per pass
//!   through its [`FeatureSource`] impl. [`StreamingBundle::to_dataset`]
//!   concatenates those streams into an in-memory [`Dataset`].
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
use super::format::{
    parse_zsb_header, read_signatures_csv, zsb_validate_dims, SplitManifest, ZSB_HEADER_LEN,
};
use super::loader::{
    remap_labels, ClassMap, SplitPlan, FEATURES_CSV, FEATURES_ZSB, SIGNATURES_CSV, SPLITS_TXT,
};
use super::synthetic::Dataset;
use crate::error::ZslError;
use crate::linalg::Matrix;
use crate::source::{validate_subset_positions, FeatureSource, SourceStream, SplitKind};
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// One block of consecutive samples pulled from a feature table.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureChunk {
    /// Position of the chunk's first row in the reader's row order: its row
    /// number in the file for [`ZsbChunkReader::open`], its index into the
    /// requested list for [`ZsbChunkReader::open_indexed`].
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
/// Opening reads and fully validates the 32-byte header and the label block
/// (magic, version, flags, reserved bytes, non-zero dims, u64 *and* usize
/// overflow of the promised payload, exact file length — truncation and
/// trailing garbage are both rejected before the first chunk — and the
/// header `class_count` against the labels actually present). Feature rows
/// are then streamed in `chunk_rows` blocks in the reader's row order: every
/// row in file order ([`ZsbChunkReader::open`]) or an explicit index list
/// ([`ZsbChunkReader::open_indexed`]). Every value is checked finite with
/// the same error message as the in-memory reader.
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
    /// The global rows to yield, in order (repeats allowed).
    order: Vec<usize>,
    /// Next position in `order`.
    cursor: usize,
    failed: bool,
}

impl ZsbChunkReader {
    /// Open a `.zsb` file to stream every row, in file order, in
    /// `chunk_rows` blocks.
    pub fn open(path: &Path, chunk_rows: usize) -> Result<Self, DataError> {
        Self::open_inner(path, None, chunk_rows, true)
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
        Self::open_inner(path, Some(indices), chunk_rows, true)
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
        Self::open_inner(path, Some(indices), chunk_rows, false)
    }

    /// Validate the header, the file length and (with `read_labels`) the
    /// label block, then take the row order: `indices`, or every row.
    fn open_inner(
        path: &Path,
        indices: Option<&[usize]>,
        chunk_rows: usize,
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

        let order = match indices {
            None => (0..n).collect(),
            Some(indices) => {
                if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
                    return Err(DataError::split(format!(
                        "streamed row index {bad} out of range for {n} samples"
                    )));
                }
                indices.to_vec()
            }
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

    /// Total sample rows in the file (not the row order's length).
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

    /// Append `rows` consecutive feature rows, starting at global row
    /// `start`, from the current file position to `out`, finite-checking
    /// each value.
    fn read_rows_at_cursor(
        &mut self,
        start: usize,
        rows: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), DataError> {
        let d = self.feature_dim;
        let mut bytes = vec![0u8; rows * d * 8];
        let expected = self.expected_len;
        self.file
            .read_exact(&mut bytes)
            .map_err(|e| read_failure(&self.path, expected, e))?;
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
            out.push(v);
        }
        Ok(())
    }

    /// Read the rows at positions `start..start + take` of the row order,
    /// coalescing each run of consecutive rows into one seek + read.
    fn read_chunk(&mut self, start: usize, take: usize) -> Result<FeatureChunk, DataError> {
        let d = self.feature_dim;
        let end = start + take;
        let mut data = Vec::with_capacity(take * d);
        let mut labels = Vec::with_capacity(take);
        let mut p = start;
        while p < end {
            let run_start = self.order[p];
            let mut run_len = 1;
            while p + run_len < end && self.order[p + run_len] == self.order[p + run_len - 1] + 1 {
                run_len += 1;
            }
            let offset = self.row_offset(run_start);
            self.file
                .seek(SeekFrom::Start(offset))
                .map_err(|e| DataError::io(&self.path, e))?;
            self.read_rows_at_cursor(run_start, run_len, &mut data)?;
            if !self.labels.is_empty() {
                labels.extend_from_slice(&self.labels[run_start..run_start + run_len]);
            }
            p += run_len;
        }
        Ok(FeatureChunk {
            start_row: start,
            labels,
            features: Matrix::from_vec(take, d, data),
        })
    }
}

impl Iterator for ZsbChunkReader {
    type Item = Result<FeatureChunk, DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.cursor >= self.order.len() {
            return None;
        }
        let take = self.chunk_rows.min(self.order.len() - self.cursor);
        let chunk = self.read_chunk(self.cursor, take);
        match chunk {
            Ok(_) => self.cursor += take,
            Err(_) => self.failed = true,
        }
        Some(chunk)
    }
}

/// Path of a bundle's `features.zsb`, the one feature table a bundle holds.
/// A bundle with only `features.csv` is a NotFound error naming the import
/// that converts it.
fn feature_table_path(dir: &Path) -> Result<PathBuf, DataError> {
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

/// The reader of a bundle directory: everything *except* the feature matrix
/// is loaded and cross-validated up front (signatures, per-sample labels,
/// split manifest — all `O(n)` or smaller), while features stay on disk and
/// are re-read chunk-at-a-time per pass through the bundle's
/// [`FeatureSource`] impl. [`StreamingBundle::to_dataset`] concatenates the
/// same streams into an in-memory [`Dataset`].
///
/// Opening validates the signature table, the `.zsb` header and labels
/// (without touching the feature payload), label remapping against the
/// signature table, the manifest's indices (an error names its `splits.txt`
/// line), its declared unseen classes, and the GZSL protocol checks:
/// seen/unseen overlap, declared-unseen agreement, and `test_seen` samples
/// of a class with no `trainval` sample.
#[derive(Debug)]
pub struct StreamingBundle {
    /// The bundle's `features.zsb`.
    features: PathBuf,
    chunk_rows: usize,
    /// Dense class id per sample, file order.
    labels: Vec<usize>,
    signatures: Matrix,
    manifest: SplitManifest,
    feature_dim: usize,
    plan: SplitPlan,
}

impl StreamingBundle {
    /// Open a bundle directory — its `features.zsb`, `signatures.csv` and
    /// `splits.txt` — for streaming features in `chunk_rows` blocks.
    pub fn open(dir: &Path, chunk_rows: usize) -> Result<Self, DataError> {
        validate_chunk_rows(chunk_rows)?;
        let (raw_classes, signatures) = read_signatures_csv(&dir.join(SIGNATURES_CSV))?;
        let class_map = ClassMap::from_labels(&raw_classes)?;

        // Header and labels only: an empty row order reads no feature row.
        let features = feature_table_path(dir)?;
        let reader = ZsbChunkReader::open_indexed(&features, &[], chunk_rows)?;
        let (num_samples, feature_dim) = (reader.num_samples(), reader.feature_dim());
        let labels = remap_labels(reader.labels(), &class_map, FEATURES_ZSB)?;

        let splits_path = dir.join(SPLITS_TXT);
        let (manifest, section_lines) = SplitManifest::read_located(&splits_path)?;
        manifest.validate_located(num_samples, &splits_path, &section_lines)?;
        let plan = SplitPlan::compute(
            num_samples,
            &labels,
            &manifest,
            &class_map,
            signatures.rows(),
        )?;

        Ok(StreamingBundle {
            features,
            chunk_rows,
            labels,
            signatures,
            manifest,
            feature_dim,
            plan,
        })
    }

    /// Number of samples in the feature table.
    pub fn num_samples(&self) -> usize {
        self.labels.len()
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

    /// The full signature table, dense-id order.
    pub fn signatures(&self) -> &Matrix {
        &self.signatures
    }

    /// Materialize the splits as an in-memory [`Dataset`] by concatenating
    /// the bundle's split streams: the rows, labels and signature banks its
    /// [`FeatureSource`] impl streams, bit for bit, in manifest order. Peak
    /// feature memory is the dataset plus one chunk.
    pub fn to_dataset(&self) -> Result<Dataset, DataError> {
        let concat = |split: SplitKind| -> Result<(Matrix, Vec<usize>), DataError> {
            let (indices, rank) = self.split_rows(split);
            let mut data = Vec::with_capacity(indices.len() * self.feature_dim);
            let mut labels = Vec::with_capacity(indices.len());
            for chunk in self.stream_rows(indices, rank)? {
                let (x, chunk_labels) = chunk?;
                data.extend_from_slice(x.as_slice());
                labels.extend(chunk_labels);
            }
            Ok((
                Matrix::from_vec(indices.len(), self.feature_dim, data),
                labels,
            ))
        };
        let (train_x, train_labels) = concat(SplitKind::Trainval)?;
        let (test_seen_x, test_seen_labels) = concat(SplitKind::TestSeen)?;
        let (test_unseen_x, test_unseen_labels) = concat(SplitKind::TestUnseen)?;
        Ok(Dataset {
            train_x,
            train_labels,
            test_seen_x,
            test_seen_labels,
            test_unseen_x,
            test_unseen_labels,
            seen_signatures: self.signatures.gather_rows(&self.plan.seen_classes),
            unseen_signatures: self.signatures.gather_rows(&self.plan.unseen_classes),
        })
    }

    /// A split's global row indices, and the rank table that maps a dense
    /// class id to the split's local label.
    fn split_rows(&self, split: SplitKind) -> (&[usize], &[usize]) {
        match split {
            SplitKind::Trainval => (&self.manifest.trainval, &self.plan.seen_rank),
            SplitKind::TestSeen => (&self.manifest.test_seen, &self.plan.seen_rank),
            SplitKind::TestUnseen => (&self.manifest.test_unseen, &self.plan.unseen_rank),
        }
    }

    /// Core row streamer: yield the given global rows, in order, as
    /// `(features, rank[dense class])` chunks. Fuses after the first error,
    /// as the reader does.
    ///
    /// Goes through the seek-coalesced indexed reader, so only the selected
    /// rows are read: a sparse split over a huge file skips the rest
    /// entirely, and a fully contiguous (ascending) split degenerates to one
    /// sequential read. Rows arrive in exactly the given order, which is
    /// what keeps streamed training bit-identical to the in-memory gather.
    fn stream_rows(
        &self,
        indices: &[usize],
        rank: &[usize],
    ) -> Result<impl Iterator<Item = Result<(Matrix, Vec<usize>), DataError>>, DataError> {
        let labels: Vec<usize> = indices.iter().map(|&g| rank[self.labels[g]]).collect();
        // Trusted open: the label block was validated when this bundle
        // opened; re-reading it on every pass would cost O(n log n) per
        // stream for nothing.
        let reader =
            ZsbChunkReader::open_indexed_trusted(&self.features, indices, self.chunk_rows)?;
        Ok(reader.map(move |chunk| {
            let chunk = chunk?;
            let rows = chunk.start_row..chunk.start_row + chunk.features.rows();
            Ok((chunk.features, labels[rows].to_vec()))
        }))
    }
}

/// A [`StreamingBundle`] streams every split chunk-at-a-time from disk —
/// peak feature memory stays `O(chunk_rows x feature_dim)` through every
/// generic entry point.
impl FeatureSource for StreamingBundle {
    fn split_len(&self, split: SplitKind) -> usize {
        self.split_rows(split).0.len()
    }

    /// Seen-class signatures in rank order.
    fn seen_signatures(&self) -> Cow<'_, Matrix> {
        Cow::Owned(self.signatures.gather_rows(&self.plan.seen_classes))
    }

    /// Unseen-class signatures in rank order.
    fn unseen_signatures(&self) -> Cow<'_, Matrix> {
        Cow::Owned(self.signatures.gather_rows(&self.plan.unseen_classes))
    }

    fn stream(&self, split: SplitKind) -> Result<SourceStream<'_>, ZslError> {
        let (indices, rank) = self.split_rows(split);
        Ok(owned_chunks(self.stream_rows(indices, rank)?))
    }

    fn stream_trainval_subset(&self, positions: &[usize]) -> Result<SourceStream<'_>, ZslError> {
        let trainval = &self.manifest.trainval;
        validate_subset_positions(positions, trainval.len())?;
        let global: Vec<usize> = positions.iter().map(|&p| trainval[p]).collect();
        Ok(owned_chunks(
            self.stream_rows(&global, &self.plan.seen_rank)?,
        ))
    }

    /// Counted from the split plan, without gathering the bank.
    fn num_seen_classes(&self) -> usize {
        self.plan.seen_classes.len()
    }

    /// Counted from the split plan, without gathering the bank.
    fn num_unseen_classes(&self) -> usize {
        self.plan.unseen_classes.len()
    }
}

/// Box a row stream as a [`SourceStream`] of owned chunks.
fn owned_chunks<'a>(
    rows: impl Iterator<Item = Result<(Matrix, Vec<usize>), DataError>> + 'a,
) -> SourceStream<'a> {
    Box::new(rows.map(|chunk| {
        chunk
            .map(|(x, labels)| (Cow::Owned(x), Cow::Owned(labels)))
            .map_err(ZslError::from)
    }))
}
