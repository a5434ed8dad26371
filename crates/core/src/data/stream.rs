//! Out-of-core streaming ingestion: iterate a bundle's `.zsb` feature table
//! in fixed-row chunks so dataset size never bounds memory.
//!
//! The ESZSL closed form `W = (XᵀX + γI)⁻¹ XᵀYS (SᵀS + λI)⁻¹` only ever
//! needs the Gram accumulators `XᵀX` and `XᵀY`, so the full feature matrix
//! never has to exist in RAM. This module provides the disk side of that
//! pipeline:
//!
//! - [`StreamingBundle`] is the one bundle reader: signatures, labels, and
//!   the split manifest are loaded and cross-validated eagerly (all `O(n)`
//!   or smaller), while features stay on disk and are re-streamed per pass
//!   through its [`FeatureSource`] impl. [`StreamingBundle::to_dataset`]
//!   concatenates those streams into an in-memory [`Dataset`].
//! - Behind it sits the crate's one `.zsb` decoder, a private reader that
//!   validates the header, the exact file length and the label block once
//!   at open, then reads any row order (a split, or a shuffled
//!   cross-validation fold) in chunks of at most `chunk_rows` rows. Each run
//!   of consecutive rows is one positioned read with no read-ahead buffer,
//!   so a pass reads each requested row once and nothing else.
//!   [`crate::data::format::read_zsb`] reads the whole table through the
//!   same reader.
//!
//! CSV feature tables are not read here: `zsl-import --features-csv` (or
//! [`crate::data::import_features_csv`]) converts them to `.zsb` once.
//!
//! Peak resident *feature* memory anywhere in this module is
//! `O(chunk_rows x feature_dim)`; per-sample labels are `O(n)` (4–8 bytes per
//! row, negligible next to `feature_dim` doubles per row).
//!
//! **Bit-identity.** Streamed consumers ([`crate::model::GramAccumulator`],
//! [`crate::infer::ScoringEngine::predict_source`], the evaluators in
//! [`crate::eval`]) produce results bit-for-bit equal to the in-memory
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
use std::io::Read;
use std::path::{Path, PathBuf};

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

/// Map a failed read: an unexpected EOF means the file shrank after its
/// length was validated at open, which is a truncation as far as the caller
/// is concerned.
fn read_failure(path: &Path, file: &File, expected: u64, e: std::io::Error) -> DataError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        let actual = file.metadata().map(|m| m.len()).unwrap_or(0);
        DataError::Truncated {
            path: path.into(),
            expected,
            actual,
        }
    } else {
        DataError::io(path, e)
    }
}

/// Fill `buf` from byte `offset` of `file` without touching a shared cursor.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fill `buf` from byte `offset` of `file`. Each row stream owns its handle,
/// so the seek cannot race another stream's.
#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// A validated `.zsb` feature table, read by row order.
///
/// Opening reads and validates the 32-byte header and the label block once
/// (magic, version, flags, reserved bytes, non-zero dims, u64 *and* usize
/// overflow of the promised payload, exact file length — truncation and
/// trailing garbage are both rejected — and the header `class_count`
/// against the labels actually present). [`ZsbChunkReader::rows`] then
/// streams any row order without revisiting them.
#[derive(Debug)]
pub(crate) struct ZsbChunkReader {
    path: PathBuf,
    n_samples: usize,
    feature_dim: usize,
    /// The exact file length the header promises.
    len: u64,
    chunk_rows: usize,
}

impl ZsbChunkReader {
    /// Open and validate a `.zsb` file for streaming in `chunk_rows` blocks,
    /// returning the reader and the raw per-sample labels in file order.
    pub(crate) fn open(path: &Path, chunk_rows: usize) -> Result<(Self, Vec<u32>), DataError> {
        validate_chunk_rows(chunk_rows)?;
        let mut file = File::open(path).map_err(|e| DataError::io(path, e))?;
        let actual = file.metadata().map_err(|e| DataError::io(path, e))?.len();
        if actual < ZSB_HEADER_LEN {
            return Err(DataError::Truncated {
                path: path.into(),
                expected: ZSB_HEADER_LEN,
                actual,
            });
        }
        let mut header = [0u8; ZSB_HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(|e| read_failure(path, &file, ZSB_HEADER_LEN, e))?;
        let parsed = parse_zsb_header(path, &header)?;
        let (n, d, len) = zsb_validate_dims(path, parsed.n_samples, parsed.feature_dim)?;
        if actual < len {
            return Err(DataError::Truncated {
                path: path.into(),
                expected: len,
                actual,
            });
        }
        if actual > len {
            return Err(DataError::header(
                path,
                format!("{} trailing bytes after the feature payload", actual - len),
            ));
        }

        let mut label_bytes = vec![0u8; 4 * n];
        file.read_exact(&mut label_bytes)
            .map_err(|e| read_failure(path, &file, len, e))?;
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

        let reader = ZsbChunkReader {
            path: path.into(),
            n_samples: n,
            feature_dim: d,
            len,
            chunk_rows,
        };
        Ok((reader, labels))
    }

    /// Total sample rows in the file.
    pub(crate) fn num_samples(&self) -> usize {
        self.n_samples
    }

    /// Stream exactly the global rows in `order` (in that order, repeats
    /// allowed) as chunks of at most `chunk_rows` rows. A row past the table
    /// is a typed error here, before any feature byte is read.
    ///
    /// Each run of consecutive rows within a chunk is one positioned read,
    /// so an ascending split reads in long runs and a shuffled fold reads
    /// each requested row once, never the bytes between them.
    pub(crate) fn rows<'a>(&'a self, order: Cow<'a, [usize]>) -> Result<ZsbRows<'a>, DataError> {
        let n = self.n_samples;
        if let Some(&bad) = order.iter().find(|&&i| i >= n) {
            return Err(DataError::split(format!(
                "streamed row index {bad} out of range for {n} samples"
            )));
        }
        let file = File::open(&self.path).map_err(|e| DataError::io(&self.path, e))?;
        Ok(ZsbRows {
            reader: self,
            file,
            order,
            cursor: 0,
        })
    }

    /// Byte offset of global feature row `row`.
    fn row_offset(&self, row: usize) -> u64 {
        ZSB_HEADER_LEN + 4 * self.n_samples as u64 + (row as u64) * (8 * self.feature_dim as u64)
    }
}

/// One row order of a [`ZsbChunkReader`], streamed chunk by chunk. Every
/// value is checked finite. Fuses after the first error.
pub(crate) struct ZsbRows<'a> {
    reader: &'a ZsbChunkReader,
    file: File,
    /// The global rows to yield, in order.
    order: Cow<'a, [usize]>,
    /// Next position in `order`.
    cursor: usize,
}

impl ZsbRows<'_> {
    /// Read the rows at `positions` of the row order, one positioned read
    /// per run of consecutive rows, finite-checking each value.
    fn read_chunk(&self, positions: std::ops::Range<usize>) -> Result<Matrix, DataError> {
        let reader = self.reader;
        let d = reader.feature_dim;
        let order = &self.order[positions];
        let mut data = Vec::with_capacity(order.len() * d);
        let mut bytes = Vec::new();
        let mut p = 0;
        while p < order.len() {
            let start = order[p];
            let mut run = 1;
            while p + run < order.len() && order[p + run] == start + run {
                run += 1;
            }
            bytes.resize(run * d * 8, 0);
            read_exact_at(&self.file, &mut bytes, reader.row_offset(start))
                .map_err(|e| read_failure(&reader.path, &self.file, reader.len, e))?;
            for (i, b) in bytes.chunks_exact(8).enumerate() {
                let v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
                if !v.is_finite() {
                    return Err(DataError::header(
                        &reader.path,
                        format!(
                            "non-finite feature value {v} at row {}, col {}",
                            start + i / d,
                            i % d
                        ),
                    ));
                }
                data.push(v);
            }
            p += run;
        }
        Ok(Matrix::from_vec(order.len(), d, data))
    }
}

impl Iterator for ZsbRows<'_> {
    type Item = Result<Matrix, DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        let remaining = self.order.len() - self.cursor;
        if remaining == 0 {
            return None;
        }
        let end = self.cursor + self.reader.chunk_rows.min(remaining);
        let chunk = self.read_chunk(self.cursor..end);
        // An error ends the stream: no later chunk is read.
        self.cursor = if chunk.is_ok() { end } else { self.order.len() };
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
    /// The bundle's `features.zsb`, validated at open.
    features: ZsbChunkReader,
    /// Dense class id per sample, file order.
    labels: Vec<usize>,
    signatures: Matrix,
    manifest: SplitManifest,
    plan: SplitPlan,
}

impl StreamingBundle {
    /// Open a bundle directory — its `features.zsb`, `signatures.csv` and
    /// `splits.txt` — for streaming features in `chunk_rows` blocks.
    pub fn open(dir: &Path, chunk_rows: usize) -> Result<Self, DataError> {
        let (raw_classes, signatures) = read_signatures_csv(&dir.join(SIGNATURES_CSV))?;
        let class_map = ClassMap::from_labels(&raw_classes)?;

        let (features, raw_labels) = ZsbChunkReader::open(&feature_table_path(dir)?, chunk_rows)?;
        let num_samples = features.num_samples();
        let labels = remap_labels(&raw_labels, &class_map, FEATURES_ZSB)?;

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
            labels,
            signatures,
            manifest,
            plan,
        })
    }

    /// Number of samples in the feature table.
    pub fn num_samples(&self) -> usize {
        self.labels.len()
    }

    /// Visual feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.features.feature_dim
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
        self.features.chunk_rows
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
        let d = self.feature_dim();
        let concat = |split: SplitKind| -> Result<(Matrix, Vec<usize>), DataError> {
            let (indices, rank) = self.split_rows(split);
            let mut data = Vec::with_capacity(indices.len() * d);
            let mut labels = Vec::with_capacity(indices.len());
            for chunk in self.stream_rows(Cow::Borrowed(indices), rank)? {
                let (x, chunk_labels) = chunk?;
                data.extend_from_slice(x.as_slice());
                labels.extend(chunk_labels);
            }
            Ok((Matrix::from_vec(indices.len(), d, data), labels))
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
    /// Only the selected rows are read: a sparse split over a huge file
    /// skips the rest entirely, and a fully contiguous (ascending) split
    /// degenerates to one sequential read per chunk. Rows arrive in exactly
    /// the given order, which is what keeps streamed training bit-identical
    /// to the in-memory gather.
    fn stream_rows<'a>(
        &'a self,
        rows: Cow<'a, [usize]>,
        rank: &[usize],
    ) -> Result<impl Iterator<Item = Result<(Matrix, Vec<usize>), DataError>> + 'a, DataError> {
        let labels: Vec<usize> = rows.iter().map(|&g| rank[self.labels[g]]).collect();
        let mut next = 0;
        Ok(self.features.rows(rows)?.map(move |chunk| {
            let x = chunk?;
            let chunk_labels = labels[next..next + x.rows()].to_vec();
            next += x.rows();
            Ok((x, chunk_labels))
        }))
    }
}

/// A [`StreamingBundle`] streams every split chunk-at-a-time from disk —
/// peak feature memory stays `O(chunk_rows x feature_dim)` through every
/// entry point that takes a `&dyn FeatureSource`.
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
        Ok(owned_chunks(
            self.stream_rows(Cow::Borrowed(indices), rank)?,
        ))
    }

    fn stream_trainval_subset(&self, positions: &[usize]) -> Result<SourceStream<'_>, ZslError> {
        let trainval = &self.manifest.trainval;
        validate_subset_positions(positions, trainval.len())?;
        let global: Vec<usize> = positions.iter().map(|&p| trainval[p]).collect();
        Ok(owned_chunks(
            self.stream_rows(Cow::Owned(global), &self.plan.seen_rank)?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::format::{read_zsb, write_zsb, FeatureTable};
    use crate::data::Rng;

    /// A seeded `n x d` table with five raw classes, written as a `.zsb`.
    fn written_table(tag: &str, n: usize, d: usize) -> (PathBuf, FeatureTable) {
        let mut rng = Rng::new(2048);
        let table = FeatureTable {
            labels: (0..n).map(|i| (i % 5) as u32).collect(),
            features: Matrix::from_vec(n, d, (0..n * d).map(|_| rng.normal()).collect()),
        };
        let path =
            std::env::temp_dir().join(format!("zsl_stream_{}_{tag}.zsb", std::process::id()));
        write_zsb(&path, &table).expect("write");
        (path, table)
    }

    #[test]
    fn indexed_reads_match_read_zsb_across_buffer_gaps() {
        // The order mixes runs that continue the previous one, forward gaps
        // of one to several 2 KiB rows, backward jumps and repeats, so chunk
        // boundaries cut runs at every chunk size below.
        let (n, d) = (24, 256);
        let (path, table) = written_table("gaps", n, d);
        let reference = read_zsb(&path).expect("read_zsb");
        assert_eq!(reference, table);
        let order = [
            0, 1, 2, 4, 5, 9, 3, 3, 3, 10, 11, 20, 19, 7, 8, 23, 0, 12, 14, 13, 22, 21, 6, 6,
        ];
        assert_eq!(order.len(), n);
        for chunk_rows in [1, 3, n] {
            let (reader, labels) = ZsbChunkReader::open(&path, chunk_rows).expect("open");
            assert_eq!(labels, reference.labels);
            let mut position = 0;
            for chunk in reader.rows(Cow::Borrowed(&order)).expect("rows") {
                let chunk = chunk.expect("chunk");
                assert_eq!(chunk.rows(), chunk_rows.min(n - position));
                for (i, &row) in order[position..position + chunk.rows()].iter().enumerate() {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(chunk.row(i)),
                        bits(reference.features.row(row)),
                        "chunk_rows={chunk_rows} position={}",
                        position + i
                    );
                }
                position += chunk.rows();
            }
            assert_eq!(position, order.len(), "chunk_rows={chunk_rows}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn row_orders_past_the_table_are_split_errors_before_any_read() {
        let (path, _) = written_table("range", 6, 3);
        let (reader, _) = ZsbChunkReader::open(&path, 4).expect("open");
        match reader.rows(Cow::Owned(vec![0, 1_000_000])) {
            Err(DataError::Split { message, .. }) => {
                assert!(message.contains("1000000"), "{message}")
            }
            Err(other) => panic!("expected Split error, got {other:?}"),
            Ok(_) => panic!("expected Split error, got a row stream"),
        }
        assert!(matches!(
            ZsbChunkReader::open(&path, 0),
            Err(DataError::Shape { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
