//! On-disk serialization formats for dataset bundles.
//!
//! Three artifacts make up a bundle directory (read together by
//! [`crate::data::StreamingBundle`]):
//!
//! 1. **Feature table** — `features.zsb`, samples with raw class labels in a
//!    compact little-endian binary dump with a fixed 32-byte header (see
//!    [`ZSB_MAGIC`] and [`write_zsb`] for the layout). A CSV table (one
//!    `label,f0,f1,...` line per sample) is an import source:
//!    [`crate::data::import_features_csv`] converts it to `.zsb`
//!    bit-identically.
//! 2. **Signature table** — `signatures.csv`, one line per class,
//!    `label,a0,a1,...`. Line order defines the dense class-id order used
//!    everywhere downstream.
//! 3. **Split manifest** — `splits.txt`, a [`SplitManifest`] assigning sample
//!    indices to the trainval / test-seen / test-unseen splits (the same
//!    structure as the `att_splits.mat` `*_loc` arrays in the reference ESZSL
//!    code), plus an optional declared unseen-class set.
//!
//! All readers return typed [`DataError`]s — truncated files, bad magic,
//! dimension mismatches, and malformed manifests never panic.

use super::error::DataError;
use crate::fsutil;
use crate::linalg::Matrix;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every `.zsb` feature dump.
pub const ZSB_MAGIC: [u8; 4] = *b"ZSBF";
/// Current `.zsb` format version.
pub const ZSB_VERSION: u16 = 1;
/// Fixed `.zsb` header length in bytes.
pub const ZSB_HEADER_LEN: u64 = 32;

/// A parsed feature table: per-sample raw class labels plus the feature
/// matrix, exactly as stored on disk (labels not yet remapped to dense ids).
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureTable {
    /// Raw class label per sample, `len == features.rows()`.
    pub labels: Vec<u32>,
    /// Feature matrix, `n_samples x feature_dim`.
    pub features: Matrix,
}

/// Write a feature table as a `.zsb` binary dump.
///
/// Layout (all integers little-endian):
///
/// | offset | size | field |
/// |-------:|-----:|-------|
/// | 0      | 4    | magic `"ZSBF"` |
/// | 4      | 2    | version (= 1) |
/// | 6      | 2    | flags (= 0) |
/// | 8      | 8    | `n_samples` (u64) |
/// | 16     | 4    | `feature_dim` (u32) |
/// | 20     | 4    | `class_count` (u32, distinct labels) |
/// | 24     | 8    | reserved (= 0) |
/// | 32     | 4·n  | labels, one u32 per sample |
/// | 32+4n  | 8·n·d | features, row-major f64 |
pub fn write_zsb(path: &Path, table: &FeatureTable) -> Result<(), DataError> {
    // The streaming ZsbWriter is the one real encoder; this in-memory path
    // just feeds it the whole matrix at once, so the two cannot drift. Its
    // row-count checks reject labels that disagree with the feature rows.
    let mut writer = ZsbWriter::create(path, &table.labels, table.features.cols())?;
    writer.append_rows(&table.features)?;
    writer.finish()
}

/// Incremental `.zsb` writer: header and labels up front, feature rows
/// appended chunk-at-a-time, finished with an fsync + atomic rename.
///
/// This is the bounded-memory counterpart of [`write_zsb`] (which is now a
/// thin wrapper over it): converters streaming a multi-GB feature matrix
/// out of a foreign container never hold more than one chunk of rows while
/// producing a byte-identical file. Until [`ZsbWriter::finish`] succeeds,
/// the target path is untouched — bytes accumulate in a uniquely named temp
/// sibling that is removed on failure or drop.
pub struct ZsbWriter {
    target: PathBuf,
    tmp: PathBuf,
    file: Option<std::io::BufWriter<std::fs::File>>,
    expected_rows: usize,
    feature_dim: usize,
    rows_written: usize,
    committed: bool,
}

impl ZsbWriter {
    /// Start a `.zsb` file for `labels.len()` samples of `feature_dim`
    /// features: writes the 32-byte header and the full label block to a
    /// temp sibling of `path`. Shape rules match [`write_zsb`]: no empty
    /// tables.
    pub fn create(path: &Path, labels: &[u32], feature_dim: usize) -> Result<Self, DataError> {
        if labels.is_empty() || feature_dim == 0 {
            return Err(DataError::Shape {
                message: format!(
                    "{}: refusing to write an empty feature table",
                    path.display()
                ),
            });
        }
        let n = labels.len();
        let mut distinct = labels.to_vec();
        distinct.sort_unstable();
        distinct.dedup();

        let tmp = fsutil::unique_temp_sibling(path);
        let mut head = Vec::with_capacity(ZSB_HEADER_LEN as usize + 4 * n);
        head.extend_from_slice(&ZSB_MAGIC);
        head.extend_from_slice(&ZSB_VERSION.to_le_bytes());
        head.extend_from_slice(&0u16.to_le_bytes()); // flags
        head.extend_from_slice(&(n as u64).to_le_bytes());
        head.extend_from_slice(&(feature_dim as u32).to_le_bytes());
        head.extend_from_slice(&(distinct.len() as u32).to_le_bytes());
        head.extend_from_slice(&0u64.to_le_bytes()); // reserved
        for &label in labels {
            head.extend_from_slice(&label.to_le_bytes());
        }
        let write_head = (|| {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            file.write_all(&head)?;
            Ok(file)
        })();
        let file = match write_head {
            Ok(file) => file,
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                return Err(DataError::io(&tmp, e));
            }
        };
        Ok(ZsbWriter {
            target: path.into(),
            tmp,
            file: Some(file),
            expected_rows: n,
            feature_dim,
            rows_written: 0,
            committed: false,
        })
    }

    /// Append a chunk of feature rows (row-major, `feature_dim` columns).
    pub fn append_rows(&mut self, rows: &Matrix) -> Result<(), DataError> {
        if rows.cols() != self.feature_dim {
            return Err(DataError::Shape {
                message: format!(
                    "{}: chunk has {} columns, table has feature_dim {}",
                    self.target.display(),
                    rows.cols(),
                    self.feature_dim
                ),
            });
        }
        if self.rows_written + rows.rows() > self.expected_rows {
            return Err(DataError::Shape {
                message: format!(
                    "{}: {} rows appended but header promises {}",
                    self.target.display(),
                    self.rows_written + rows.rows(),
                    self.expected_rows
                ),
            });
        }
        let file = self.file.as_mut().expect("writer not finished");
        let mut buf = Vec::with_capacity(rows.as_slice().len() * 8);
        for &v in rows.as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        file.write_all(&buf)
            .map_err(|e| DataError::io(&self.tmp, e))?;
        self.rows_written += rows.rows();
        Ok(())
    }

    /// Validate the row count, fsync, and atomically rename the temp file
    /// over the target.
    pub fn finish(mut self) -> Result<(), DataError> {
        if self.rows_written != self.expected_rows {
            return Err(DataError::Shape {
                message: format!(
                    "{}: finished after {} rows but header promises {}",
                    self.target.display(),
                    self.rows_written,
                    self.expected_rows
                ),
            });
        }
        let file = self.file.take().expect("writer not finished");
        let synced = (|| {
            let file = file.into_inner().map_err(|e| e.into_error())?;
            file.sync_all()
        })();
        if let Err(e) = synced {
            return Err(DataError::io(&self.tmp, e));
        }
        fsutil::commit_temp(&self.tmp, &self.target)
            .map_err(|e| DataError::io(e.path, e.source))?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for ZsbWriter {
    fn drop(&mut self) {
        if !self.committed {
            self.file.take();
            std::fs::remove_file(&self.tmp).ok();
        }
    }
}

/// A validated `.zsb` header: magic, version, flags, and reserved bytes have
/// been checked, dimensions are non-zero, but lengths are *not* yet compared
/// against the file (callers hold that information).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ZsbHeader {
    /// Number of sample rows the header promises.
    pub n_samples: u64,
    /// Feature columns per row.
    pub feature_dim: u64,
    /// Distinct raw labels the header claims.
    pub class_count: u32,
}

/// Parse and validate the fixed 32-byte `.zsb` header, the first check of
/// the one `.zsb` reader behind [`read_zsb`] and
/// [`crate::data::StreamingBundle`].
pub(crate) fn parse_zsb_header(path: &Path, bytes: &[u8; 32]) -> Result<ZsbHeader, DataError> {
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if magic != ZSB_MAGIC {
        return Err(DataError::header(
            path,
            format!("bad magic {magic:?}, expected {ZSB_MAGIC:?} (\"ZSBF\")"),
        ));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != ZSB_VERSION {
        return Err(DataError::header(
            path,
            format!("unsupported version {version}, this reader handles {ZSB_VERSION}"),
        ));
    }
    let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if flags != 0 {
        return Err(DataError::header(
            path,
            format!("unknown flags 0x{flags:04x}, version {ZSB_VERSION} defines none"),
        ));
    }
    let n = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let d = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as u64;
    let class_count = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let reserved = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    if reserved != 0 {
        return Err(DataError::header(
            path,
            "reserved header bytes are non-zero",
        ));
    }
    if n == 0 || d == 0 || class_count == 0 {
        return Err(DataError::header(
            path,
            format!("zero-sized table: n_samples={n}, feature_dim={d}, class_count={class_count}"),
        ));
    }
    Ok(ZsbHeader {
        n_samples: n,
        feature_dim: d,
        class_count,
    })
}

/// Validate a header's dimensions against the platform and compute the exact
/// file length it promises.
///
/// Header fields are attacker-controlled: checked arithmetic keeps a crafted
/// `n_samples`/`feature_dim` pair from wrapping the expected size back into
/// range and panicking on allocation instead of returning an error; the
/// explicit `usize` conversions additionally reject tables whose cell count
/// cannot be addressed on this platform (a real hazard on 32-bit targets).
///
/// Returns `(n_samples, feature_dim, expected_file_len)`.
pub(crate) fn zsb_validate_dims(
    path: &Path,
    n: u64,
    d: u64,
) -> Result<(usize, usize, u64), DataError> {
    let expected = 4u64
        .checked_mul(n)
        .and_then(|labels| 8u64.checked_mul(n)?.checked_mul(d)?.checked_add(labels))
        .and_then(|payload| payload.checked_add(ZSB_HEADER_LEN));
    let Some(expected) = expected else {
        return Err(DataError::header(
            path,
            format!("header dims overflow: n_samples={n} x feature_dim={d}"),
        ));
    };
    // Both the cell count and the feature byte count (8·n·d — the largest
    // buffer any reader sizes; the 4·n label block is strictly smaller for
    // d ≥ 1) must be addressable, or chunk-size arithmetic could wrap on
    // 32-bit targets.
    let cells = usize::try_from(n)
        .ok()
        .zip(usize::try_from(d).ok())
        .and_then(|(n, d)| n.checked_mul(d)?.checked_mul(8).map(|_| (n, d)));
    let Some((n, d)) = cells else {
        return Err(DataError::header(
            path,
            format!("header dims overflow usize on this platform: n_samples={n} x feature_dim={d}"),
        ));
    };
    Ok((n, d, expected))
}

/// Read a `.zsb` feature dump written by [`write_zsb`] as one whole table.
///
/// Validates the magic, version, flags, non-zero dims, exact file length
/// (both truncation and trailing garbage are errors), the header
/// `class_count` against the labels actually present, and that every feature
/// value is finite.
///
/// This reads every row, in file order, as one chunk of the same reader that
/// streams a [`crate::data::StreamingBundle`]'s splits, so the two paths
/// share one decoder and reject exactly the same files.
pub fn read_zsb(path: &Path) -> Result<FeatureTable, DataError> {
    let (reader, labels) = super::stream::ZsbChunkReader::open(path, usize::MAX)?;
    let every_row: Vec<usize> = (0..reader.num_samples()).collect();
    // A valid header promises at least one row, so the one chunk exists.
    let features = reader
        .rows(every_row.into())?
        .next()
        .expect("a .zsb table has at least one row")?;
    Ok(FeatureTable { labels, features })
}

/// Write the signature table: one `label,a0,a1,...` line per class, in dense
/// class-id order.
pub fn write_signatures_csv(
    path: &Path,
    class_labels: &[u32],
    signatures: &Matrix,
) -> Result<(), DataError> {
    if class_labels.len() != signatures.rows() {
        return Err(DataError::Shape {
            message: format!(
                "{} class labels but {} signature rows",
                class_labels.len(),
                signatures.rows()
            ),
        });
    }
    let mut out = Vec::new();
    for (i, &label) in class_labels.iter().enumerate() {
        write_csv_row(&mut out, label, signatures.row(i));
    }
    fsutil::write_atomic(path, &out).map_err(|e| DataError::io(e.path, e.source))
}

/// Read the signature table. Line order defines dense class-id order;
/// duplicate labels are a [`DataError::DuplicateClass`].
pub fn read_signatures_csv(path: &Path) -> Result<(Vec<u32>, Matrix), DataError> {
    let (labels, signatures) = read_labeled_csv(path)?;
    if signatures.rows() == 0 {
        return Err(DataError::parse(path, 1, "signature table has no rows"));
    }
    let mut sorted = labels.clone();
    sorted.sort_unstable();
    if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(DataError::DuplicateClass { label: dup[0] });
    }
    Ok((labels, signatures))
}

/// Sample-index assignment of every split, mirroring the `trainval_loc` /
/// `test_seen_loc` / `test_unseen_loc` arrays of the reference `att_splits`
/// format (0-based here).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SplitManifest {
    /// Sample indices trained on (seen classes).
    pub trainval: Vec<usize>,
    /// Held-out sample indices from seen classes.
    pub test_seen: Vec<usize>,
    /// Sample indices from unseen classes (never trained on).
    pub test_unseen: Vec<usize>,
    /// Optionally declared raw labels of the unseen classes; when present the
    /// loader checks each exists in the signature table and that the set
    /// matches the classes actually observed in `test_unseen`.
    pub unseen_classes: Option<Vec<u32>>,
}

/// 1-based line numbers of each section in a parsed `splits.txt`, recorded
/// by [`SplitManifest::read_located`] so validation failures can point at
/// the offending line, not just the file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SectionLines {
    /// Line of the `trainval:` section.
    trainval: Option<usize>,
    /// Line of the `test_seen:` section.
    test_seen: Option<usize>,
    /// Line of the `test_unseen:` section.
    test_unseen: Option<usize>,
    /// Line of the optional `unseen_classes:` section.
    unseen_classes: Option<usize>,
}

impl SectionLines {
    /// Line of the named section, if it was present.
    fn section(&self, name: &str) -> Option<usize> {
        match name {
            "trainval" => self.trainval,
            "test_seen" => self.test_seen,
            "test_unseen" => self.test_unseen,
            "unseen_classes" => self.unseen_classes,
            _ => None,
        }
    }
}

impl SplitManifest {
    /// Check internal consistency against a feature table of `num_samples`
    /// rows: every split non-empty, every index in range, and no index
    /// assigned to two splits.
    pub fn validate(&self, num_samples: usize) -> Result<(), DataError> {
        self.validate_inner(num_samples, None)
    }

    /// [`SplitManifest::validate`] for a manifest parsed from disk: any
    /// failure carries the manifest path and the 1-based line of the section
    /// the offending index came from.
    pub(crate) fn validate_located(
        &self,
        num_samples: usize,
        path: &Path,
        lines: &SectionLines,
    ) -> Result<(), DataError> {
        self.validate_inner(num_samples, Some((path, lines)))
    }

    fn validate_inner(
        &self,
        num_samples: usize,
        locate: Option<(&Path, &SectionLines)>,
    ) -> Result<(), DataError> {
        let split_err = |name: &str, message: String| match locate {
            Some((path, lines)) => DataError::split_at(path, lines.section(name), message),
            None => DataError::split(message),
        };
        for (name, indices) in self.sections() {
            if indices.is_empty() {
                return Err(DataError::EmptySplit { split: name.into() });
            }
        }
        let mut assigned = vec![false; num_samples];
        for (name, indices) in self.sections() {
            for &i in indices {
                if i >= num_samples {
                    return Err(split_err(
                        name,
                        format!("{name} index {i} out of range for {num_samples} samples"),
                    ));
                }
                if assigned[i] {
                    return Err(split_err(
                        name,
                        format!("sample index {i} assigned to more than one split"),
                    ));
                }
                assigned[i] = true;
            }
        }
        Ok(())
    }

    /// The three index sections with their manifest names.
    fn sections(&self) -> [(&'static str, &Vec<usize>); 3] {
        [
            ("trainval", &self.trainval),
            ("test_seen", &self.test_seen),
            ("test_unseen", &self.test_unseen),
        ]
    }

    /// Write the manifest as `splits.txt`:
    ///
    /// ```text
    /// # zsl split manifest v1
    /// trainval: 0 1 2
    /// test_seen: 3 4
    /// test_unseen: 5 6
    /// unseen_classes: 7 8
    /// ```
    pub fn write(&self, path: &Path) -> Result<(), DataError> {
        let mut out = Vec::new();
        writeln!(out, "# zsl split manifest v1").expect("vec write");
        for (name, indices) in self.sections() {
            write!(out, "{name}:").expect("vec write");
            for i in indices {
                write!(out, " {i}").expect("vec write");
            }
            writeln!(out).expect("vec write");
        }
        if let Some(classes) = &self.unseen_classes {
            write!(out, "unseen_classes:").expect("vec write");
            for c in classes {
                write!(out, " {c}").expect("vec write");
            }
            writeln!(out).expect("vec write");
        }
        fsutil::write_atomic(path, &out).map_err(|e| DataError::io(e.path, e.source))
    }

    /// Parse a manifest written by [`SplitManifest::write`]. Blank lines and
    /// `#` comments are ignored; unknown or repeated section names, and
    /// non-numeric indices, are [`DataError::Parse`]; a missing or empty
    /// section is a [`DataError::EmptySplit`].
    pub fn read(path: &Path) -> Result<Self, DataError> {
        Ok(Self::read_located(path)?.0)
    }

    /// [`SplitManifest::read`] plus the 1-based line number each section was
    /// declared on, for validation errors that point at the offending line.
    pub(crate) fn read_located(path: &Path) -> Result<(Self, SectionLines), DataError> {
        let text = std::fs::read_to_string(path).map_err(|e| DataError::io(path, e))?;
        let mut trainval = None;
        let mut test_seen = None;
        let mut test_unseen = None;
        let mut unseen_classes = None;
        let mut lines = SectionLines::default();
        for (line_no, raw_line) in text.lines().enumerate() {
            let line_no = line_no + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, rest) = line.split_once(':').ok_or_else(|| {
                DataError::parse(path, line_no, "expected '<section>: <indices...>'")
            })?;
            let (slot, slot_line): (&mut Option<Vec<usize>>, &mut Option<usize>) = match name.trim()
            {
                "trainval" => (&mut trainval, &mut lines.trainval),
                "test_seen" => (&mut test_seen, &mut lines.test_seen),
                "test_unseen" => (&mut test_unseen, &mut lines.test_unseen),
                "unseen_classes" => {
                    if unseen_classes.is_some() {
                        return Err(DataError::parse(
                            path,
                            line_no,
                            "section 'unseen_classes' repeated",
                        ));
                    }
                    let parsed: Result<Vec<u32>, _> = rest
                        .split_whitespace()
                        .map(|tok| {
                            tok.parse::<u32>().map_err(|_| {
                                DataError::parse(path, line_no, format!("bad class label '{tok}'"))
                            })
                        })
                        .collect();
                    unseen_classes = Some(parsed?);
                    lines.unseen_classes = Some(line_no);
                    continue;
                }
                other => {
                    return Err(DataError::parse(
                        path,
                        line_no,
                        format!("unknown section '{other}'"),
                    ));
                }
            };
            if slot.is_some() {
                return Err(DataError::parse(
                    path,
                    line_no,
                    format!("section '{}' repeated", name.trim()),
                ));
            }
            let parsed: Result<Vec<usize>, _> = rest
                .split_whitespace()
                .map(|tok| {
                    tok.parse::<usize>().map_err(|_| {
                        DataError::parse(path, line_no, format!("bad sample index '{tok}'"))
                    })
                })
                .collect();
            *slot = Some(parsed?);
            *slot_line = Some(line_no);
        }
        let require = |slot: Option<Vec<usize>>, name: &str| {
            slot.ok_or_else(|| DataError::EmptySplit { split: name.into() })
        };
        Ok((
            SplitManifest {
                trainval: require(trainval, "trainval")?,
                test_seen: require(test_seen, "test_seen")?,
                test_unseen: require(test_unseen, "test_unseen")?,
                unseen_classes,
            },
            lines,
        ))
    }
}

/// One `label,v0,v1,...` CSV line. `{}` on f64 prints the shortest string
/// that parses back to the identical bits, which is what makes CSV tables
/// round-trip exactly.
fn write_csv_row(out: &mut Vec<u8>, label: u32, values: &[f64]) {
    write!(out, "{label}").expect("vec write");
    for v in values {
        write!(out, ",{v}").expect("vec write");
    }
    writeln!(out).expect("vec write");
}

/// Parse one line of a `label,v0,v1,...` CSV table, appending the row's
/// values to `data`. Returns `Ok(Some(label))` for a data row, `Ok(None)` for
/// a blank or `#`-comment line. `cols` tracks the established row width so
/// ragged rows fail exactly as they always have.
///
/// Shared by the signature-table reader [`read_labeled_csv`] and the feature
/// import [`crate::data::import_features_csv`], so the two parsers cannot
/// drift: same trimming, same error strings, same finite-value policy. On
/// `Err`, partially appended values may remain in `data`; every caller
/// treats a parse error as fatal for the whole table.
pub(crate) fn parse_labeled_csv_line(
    path: &Path,
    line_no: usize,
    raw_line: &str,
    cols: &mut Option<usize>,
    data: &mut Vec<f64>,
) -> Result<Option<u32>, DataError> {
    let line = raw_line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split(',');
    let label_tok = fields.next().expect("split yields at least one field");
    let label = label_tok
        .parse::<u32>()
        .map_err(|_| DataError::parse(path, line_no, format!("bad class label '{label_tok}'")))?;
    let mut row_width = 0;
    for tok in fields {
        let v = tok
            .trim()
            .parse::<f64>()
            .map_err(|_| DataError::parse(path, line_no, format!("bad float '{tok}'")))?;
        if !v.is_finite() {
            return Err(DataError::parse(
                path,
                line_no,
                format!("non-finite value {v}"),
            ));
        }
        data.push(v);
        row_width += 1;
    }
    if row_width == 0 {
        return Err(DataError::parse(
            path,
            line_no,
            "row has a label but no values",
        ));
    }
    match cols {
        None => *cols = Some(row_width),
        Some(w) if *w != row_width => {
            return Err(DataError::parse(
                path,
                line_no,
                format!("ragged row: {row_width} values, previous rows had {w}"),
            ));
        }
        Some(_) => {}
    }
    Ok(Some(label))
}

/// Parse a `label,v0,v1,...` CSV file into labels plus a dense matrix.
/// Rejects ragged rows, non-numeric fields, and non-finite values.
fn read_labeled_csv(path: &Path) -> Result<(Vec<u32>, Matrix), DataError> {
    let text = std::fs::read_to_string(path).map_err(|e| DataError::io(path, e))?;
    let mut labels = Vec::new();
    let mut data = Vec::new();
    let mut cols: Option<usize> = None;
    for (line_no, raw_line) in text.lines().enumerate() {
        if let Some(label) =
            parse_labeled_csv_line(path, line_no + 1, raw_line, &mut cols, &mut data)?
        {
            labels.push(label);
        }
    }
    let cols = cols.unwrap_or(0);
    let rows = labels.len();
    Ok((labels, Matrix::from_vec(rows, cols, data)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Rng;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("zsl_format_{}_{tag}", std::process::id()))
    }

    fn random_table(seed: u64, n: usize, d: usize, classes: u32) -> FeatureTable {
        let mut rng = Rng::new(seed);
        let labels = (0..n).map(|i| (i as u32) % classes).collect();
        let features = Matrix::from_vec(n, d, (0..n * d).map(|_| rng.normal()).collect());
        FeatureTable { labels, features }
    }

    #[test]
    fn zsb_roundtrip_is_bit_identical() {
        let table = random_table(5, 17, 9, 4);
        let path = temp_path("zsb_rt.zsb");
        write_zsb(&path, &table).unwrap();
        let back = read_zsb(&path).unwrap();
        assert_eq!(back, table);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_roundtrip_is_bit_identical() {
        // Shortest round-trip float text, imported, decodes to the same bits.
        let table = random_table(6, 13, 5, 3);
        let mut text = Vec::new();
        for (i, &label) in table.labels.iter().enumerate() {
            write_csv_row(&mut text, label, table.features.row(i));
        }
        let (csv, zsb) = (temp_path("csv_rt.csv"), temp_path("csv_rt.zsb"));
        std::fs::write(&csv, text).unwrap();
        assert_eq!(crate::data::import_features_csv(&csv, &zsb).unwrap(), 13);
        assert_eq!(read_zsb(&zsb).unwrap(), table);
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&zsb).ok();
    }

    #[test]
    fn manifest_roundtrip_and_validation() {
        let manifest = SplitManifest {
            trainval: vec![0, 1, 2],
            test_seen: vec![3],
            test_unseen: vec![4, 5],
            unseen_classes: Some(vec![7, 9]),
        };
        let path = temp_path("manifest.txt");
        manifest.write(&path).unwrap();
        let back = SplitManifest::read(&path).unwrap();
        assert_eq!(back, manifest);
        assert!(back.validate(6).is_ok());
        assert!(matches!(back.validate(5), Err(DataError::Split { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_rejects_overlapping_and_empty_splits() {
        let overlapping = SplitManifest {
            trainval: vec![0, 1],
            test_seen: vec![1],
            test_unseen: vec![2],
            unseen_classes: None,
        };
        assert!(matches!(
            overlapping.validate(3),
            Err(DataError::Split { .. })
        ));
        let empty = SplitManifest {
            trainval: vec![0],
            test_seen: vec![1],
            test_unseen: vec![],
            unseen_classes: None,
        };
        assert!(matches!(
            empty.validate(2),
            Err(DataError::EmptySplit { split }) if split == "test_unseen"
        ));
    }
}
