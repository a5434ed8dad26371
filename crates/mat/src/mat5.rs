//! MAT-file level-5 container parsing: the 128-byte header, the
//! tag/element stream, and the `miMATRIX` sub-element tree.
//!
//! [`MatFile::open`] scans the top level of a `.mat` file and records, for
//! every variable, its name, array class, dimensions, and *where its numeric
//! data lives* — an absolute file offset for plain elements, or a
//! (compressed-element, decompressed-offset) pair for `miCOMPRESSED` (v7)
//! elements. Nothing large is resident after the scan: actual values are
//! read on demand by [`MatFile::read_numeric`] (small arrays, widened to
//! `f64`) or streamed column-chunk-at-a-time by [`MatFile::stream_columns`]
//! (the multi-GB `features` matrix path).
//!
//! Both byte orders are handled — the header's endian indicator decides how
//! every integer and float in the file is decoded — and MAT v7.3 (HDF5)
//! containers are detected by their version word / HDF5 magic and rejected
//! with the typed [`MatError::UnsupportedV73`] instead of being misparsed.

use crate::error::MatError;
use crate::inflate::ZlibDecoder;
use crate::stream::ColumnChunkReader;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// MAT element data types (Table 1-1 of the MAT-file format spec).
pub mod mi {
    /// 8-bit signed.
    pub const INT8: u32 = 1;
    /// 8-bit unsigned.
    pub const UINT8: u32 = 2;
    /// 16-bit signed.
    pub const INT16: u32 = 3;
    /// 16-bit unsigned.
    pub const UINT16: u32 = 4;
    /// 32-bit signed.
    pub const INT32: u32 = 5;
    /// 32-bit unsigned.
    pub const UINT32: u32 = 6;
    /// IEEE single.
    pub const SINGLE: u32 = 7;
    /// IEEE double.
    pub const DOUBLE: u32 = 9;
    /// 64-bit signed.
    pub const INT64: u32 = 12;
    /// 64-bit unsigned.
    pub const UINT64: u32 = 13;
    /// An array (the sub-element tree).
    pub const MATRIX: u32 = 14;
    /// A zlib-wrapped element (MAT v7).
    pub const COMPRESSED: u32 = 15;
    /// UTF-8 text.
    pub const UTF8: u32 = 16;
}

/// Byte size of a numeric element type, or `None` for non-numeric types.
pub(crate) fn mi_value_size(ty: u32) -> Option<usize> {
    match ty {
        mi::INT8 | mi::UINT8 => Some(1),
        mi::INT16 | mi::UINT16 => Some(2),
        mi::INT32 | mi::UINT32 | mi::SINGLE => Some(4),
        mi::DOUBLE | mi::INT64 | mi::UINT64 => Some(8),
        _ => None,
    }
}

/// MATLAB array classes (`mxCLASS` values from the Array Flags
/// sub-element).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatClass {
    /// Cell array (skipped by the numeric readers).
    Cell,
    /// Struct array.
    Struct,
    /// Object array.
    Object,
    /// Character array.
    Char,
    /// Sparse numeric array (unsupported).
    Sparse,
    /// `double`.
    Double,
    /// `single`.
    Single,
    /// `int8`.
    Int8,
    /// `uint8`.
    UInt8,
    /// `int16`.
    Int16,
    /// `uint16`.
    UInt16,
    /// `int32`.
    Int32,
    /// `uint32`.
    UInt32,
    /// `int64`.
    Int64,
    /// `uint64`.
    UInt64,
    /// Any class code this reader does not know.
    Other(u8),
}

impl MatClass {
    fn from_code(code: u8) -> Self {
        match code {
            1 => MatClass::Cell,
            2 => MatClass::Struct,
            3 => MatClass::Object,
            4 => MatClass::Char,
            5 => MatClass::Sparse,
            6 => MatClass::Double,
            7 => MatClass::Single,
            8 => MatClass::Int8,
            9 => MatClass::UInt8,
            10 => MatClass::Int16,
            11 => MatClass::UInt16,
            12 => MatClass::Int32,
            13 => MatClass::UInt32,
            14 => MatClass::Int64,
            15 => MatClass::UInt64,
            other => MatClass::Other(other),
        }
    }

    /// True for the numeric classes the readers can widen to `f64`.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            MatClass::Double
                | MatClass::Single
                | MatClass::Int8
                | MatClass::UInt8
                | MatClass::Int16
                | MatClass::UInt16
                | MatClass::Int32
                | MatClass::UInt32
                | MatClass::Int64
                | MatClass::UInt64
        )
    }
}

/// Byte order of a MAT file, decided by the header's endian indicator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByteOrder {
    /// Least-significant byte first (`IM` indicator).
    Little,
    /// Most-significant byte first (`MI` indicator).
    Big,
}

impl ByteOrder {
    #[inline]
    pub(crate) fn u16(self, b: [u8; 2]) -> u16 {
        match self {
            ByteOrder::Little => u16::from_le_bytes(b),
            ByteOrder::Big => u16::from_be_bytes(b),
        }
    }

    #[inline]
    pub(crate) fn u32(self, b: [u8; 4]) -> u32 {
        match self {
            ByteOrder::Little => u32::from_le_bytes(b),
            ByteOrder::Big => u32::from_be_bytes(b),
        }
    }

    #[inline]
    pub(crate) fn i32(self, b: [u8; 4]) -> i32 {
        match self {
            ByteOrder::Little => i32::from_le_bytes(b),
            ByteOrder::Big => i32::from_be_bytes(b),
        }
    }

    /// Widen one stored value of element type `ty` to `f64`.
    #[inline]
    pub(crate) fn widen(self, ty: u32, b: &[u8]) -> f64 {
        match ty {
            mi::INT8 => b[0] as i8 as f64,
            mi::UINT8 => b[0] as f64,
            mi::INT16 => self.u16([b[0], b[1]]) as i16 as f64,
            mi::UINT16 => self.u16([b[0], b[1]]) as f64,
            mi::INT32 => self.i32([b[0], b[1], b[2], b[3]]) as f64,
            mi::UINT32 => self.u32([b[0], b[1], b[2], b[3]]) as f64,
            mi::SINGLE => f32::from_bits(self.u32([b[0], b[1], b[2], b[3]])) as f64,
            mi::DOUBLE => {
                f64::from_bits(self.u64([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            }
            mi::INT64 => self.u64([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]) as i64 as f64,
            mi::UINT64 => self.u64([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]) as f64,
            _ => unreachable!("caller validated the element type is numeric"),
        }
    }

    #[inline]
    pub(crate) fn u64(self, b: [u8; 8]) -> u64 {
        match self {
            ByteOrder::Little => u64::from_le_bytes(b),
            ByteOrder::Big => u64::from_be_bytes(b),
        }
    }
}

/// HDF5 superblock signature — a MAT v7.3 file either carries this at
/// offset 0 (rare, headerless) or declares version `0x0200` in the MAT
/// header.
const HDF5_MAGIC: [u8; 8] = [0x89, b'H', b'D', b'F', b'\r', b'\n', 0x1A, b'\n'];
/// MAT header length.
pub(crate) const HEADER_LEN: u64 = 128;
/// Caps on scan-time sub-element sizes (attacker-controlled byte counts
/// must not drive allocations).
const MAX_DIMS_BYTES: u32 = 4 * 1024;
const MAX_NAME_BYTES: u32 = 64 * 1024;

/// Where a variable's numeric (`pr`) data lives.
#[derive(Clone, Debug)]
pub(crate) enum VarLoc {
    /// Uncompressed element: absolute file offset of the data bytes.
    Plain {
        /// Absolute offset of the first `pr` data byte.
        pr_offset: u64,
    },
    /// `miCOMPRESSED` element: re-inflate from `comp_offset` and skip
    /// `pr_skip` decompressed bytes to reach the data.
    Compressed {
        /// Absolute offset of the zlib stream.
        comp_offset: u64,
        /// Compressed byte count (from the element tag).
        comp_len: u64,
        /// Decompressed bytes preceding the `pr` data.
        pr_skip: u64,
    },
}

/// One top-level variable discovered by the scan.
#[derive(Clone, Debug)]
pub struct MatVar {
    /// Variable name (the Array Name sub-element).
    pub name: String,
    /// Array class.
    pub class: MatClass,
    /// Dimensions, in MATLAB (column-major) order.
    pub dims: Vec<usize>,
    /// True when the complex flag is set (pr + pi parts).
    pub complex: bool,
    pub(crate) loc: Option<VarLoc>,
    /// Element type the values are stored as (MATLAB auto-narrows, so a
    /// `double` array may carry e.g. `miUINT8` data).
    pub(crate) pr_type: u32,
    /// Stored byte count of the `pr` data.
    pub(crate) pr_bytes: u64,
}

impl MatVar {
    /// Total element count (product of dims), `None` when the product
    /// overflows `usize` — the dims come straight from the file's header.
    pub fn numel(&self) -> Option<usize> {
        self.dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
    }
}

/// A dense numeric array read in full, widened to `f64`.
///
/// `data` keeps MATLAB's column-major order: element `(i, j)` of a 2-D
/// array is `data[j * dims[0] + i]`.
#[derive(Clone, Debug, PartialEq)]
pub struct NumericArray {
    /// Dimensions, column-major order.
    pub dims: Vec<usize>,
    /// Values, column-major.
    pub data: Vec<f64>,
}

/// A scanned MAT level-5 file: variable directory plus the byte order, with
/// values read lazily.
#[derive(Debug)]
pub struct MatFile {
    path: PathBuf,
    order: ByteOrder,
    vars: Vec<MatVar>,
}

/// A [`Read`] counting consumed bytes — the scan uses it to record where a
/// compressed element's data begins in decompressed coordinates.
struct CountingReader<R> {
    inner: R,
    count: u64,
}

impl<R: Read> CountingReader<R> {
    fn new(inner: R) -> Self {
        CountingReader { inner, count: 0 }
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count += n as u64;
        Ok(n)
    }
}

/// A parsed element tag.
#[derive(Clone, Copy, Debug)]
struct Tag {
    ty: u32,
    nbytes: u32,
    /// True for the 4-byte small-element form (data lives in the tag's
    /// second word; total element size is exactly 8 bytes).
    small: bool,
}

/// Read a sub-element tag from a byte stream.
fn read_tag(r: &mut impl Read, order: ByteOrder, path: &Path) -> Result<Tag, MatError> {
    let mut w0 = [0u8; 4];
    r.read_exact(&mut w0)
        .map_err(|e| MatError::from_read(path, e))?;
    let w0 = order.u32(w0);
    if w0 >> 16 != 0 {
        return Ok(Tag {
            ty: w0 & 0xFFFF,
            nbytes: w0 >> 16,
            small: true,
        });
    }
    let mut w1 = [0u8; 4];
    r.read_exact(&mut w1)
        .map_err(|e| MatError::from_read(path, e))?;
    Ok(Tag {
        ty: w0,
        nbytes: order.u32(w1),
        small: false,
    })
}

/// Padding after a normal element's data so the next tag is 8-aligned.
fn pad_to_8(nbytes: u32) -> u32 {
    (8 - nbytes % 8) % 8
}

/// Read one complete sub-element (tag + data + padding), with a cap on the
/// byte count so corrupt headers cannot drive allocations.
fn read_element(
    r: &mut impl Read,
    order: ByteOrder,
    path: &Path,
    what: &str,
    max_bytes: u32,
) -> Result<(u32, Vec<u8>), MatError> {
    let tag = read_tag(r, order, path)?;
    if tag.nbytes > max_bytes {
        return Err(MatError::element(
            path,
            format!(
                "{what} sub-element claims {} bytes (cap {max_bytes})",
                tag.nbytes
            ),
        ));
    }
    if tag.small {
        let mut region = [0u8; 4];
        r.read_exact(&mut region)
            .map_err(|e| MatError::from_read(path, e))?;
        return Ok((tag.ty, region[..tag.nbytes as usize].to_vec()));
    }
    let mut data = vec![0u8; tag.nbytes as usize];
    r.read_exact(&mut data)
        .map_err(|e| MatError::from_read(path, e))?;
    let mut pad = [0u8; 8];
    let padding = pad_to_8(tag.nbytes) as usize;
    r.read_exact(&mut pad[..padding])
        .map_err(|e| MatError::from_read(path, e))?;
    Ok((tag.ty, data))
}

/// Everything the scan needs from a `miMATRIX` prefix: identity, shape, and
/// where (relative to the reader's start) the numeric data begins.
struct MatrixPrefix {
    class: MatClass,
    complex: bool,
    dims: Vec<usize>,
    name: String,
    /// `(element type, byte count, data offset from matrix-element start)`
    /// for numeric classes; `None` otherwise.
    pr: Option<(u32, u64, u64)>,
}

/// Parse the leading sub-elements of a `miMATRIX`: Array Flags, Dimensions,
/// Array Name, and (for numeric classes) the `pr` tag. Stops *before* the
/// numeric data so multi-GB matrices are never resident.
fn parse_matrix_prefix(
    r: &mut CountingReader<impl Read>,
    order: ByteOrder,
    path: &Path,
) -> Result<MatrixPrefix, MatError> {
    // Array Flags: miUINT32, 8 bytes.
    let (ty, flags) = read_element(r, order, path, "array flags", 8)?;
    if ty != mi::UINT32 || flags.len() != 8 {
        return Err(MatError::element(
            path,
            format!(
                "expected 8-byte miUINT32 array flags, found type {ty} ({} bytes)",
                flags.len()
            ),
        ));
    }
    let word = order.u32([flags[0], flags[1], flags[2], flags[3]]);
    let class = MatClass::from_code((word & 0xFF) as u8);
    let complex = word & 0x0800 != 0;

    // Dimensions: miINT32.
    let (ty, dim_bytes) = read_element(r, order, path, "dimensions", MAX_DIMS_BYTES)?;
    if ty != mi::INT32 || dim_bytes.len() % 4 != 0 || dim_bytes.len() < 8 {
        return Err(MatError::element(
            path,
            format!(
                "expected miINT32 dimensions (>= 2), found type {ty} ({} bytes)",
                dim_bytes.len()
            ),
        ));
    }
    let mut dims = Vec::with_capacity(dim_bytes.len() / 4);
    for chunk in dim_bytes.chunks_exact(4) {
        let d = order.i32([chunk[0], chunk[1], chunk[2], chunk[3]]);
        if d < 0 {
            return Err(MatError::element(path, format!("negative dimension {d}")));
        }
        dims.push(d as usize);
    }

    // Array Name: miINT8 (empty for anonymous arrays, e.g. cell contents).
    let (ty, name_bytes) = read_element(r, order, path, "array name", MAX_NAME_BYTES)?;
    if ty != mi::INT8 {
        return Err(MatError::element(
            path,
            format!("expected miINT8 array name, found type {ty}"),
        ));
    }
    let name = String::from_utf8(name_bytes)
        .map_err(|_| MatError::element(path, "array name is not valid UTF-8"))?;

    // Numeric classes: record where the real-part data begins. Non-numeric
    // classes (cell/char/struct) are skipped by the caller via the outer
    // element length, so their contents are never parsed.
    let pr = if class.is_numeric() {
        let tag = read_tag(r, order, path)?;
        if mi_value_size(tag.ty).is_none() {
            return Err(MatError::element(
                path,
                format!(
                    "numeric array '{name}' stores data as non-numeric type {}",
                    tag.ty
                ),
            ));
        }
        // For a small element the 4-byte data region immediately follows;
        // `r.count` already points at it either way.
        Some((tag.ty, tag.nbytes as u64, r.count))
    } else {
        None
    };

    Ok(MatrixPrefix {
        class,
        complex,
        dims,
        name,
        pr,
    })
}

impl MatFile {
    /// Open and scan a MAT level-5 file.
    ///
    /// Validates the 128-byte header (magic text, endian indicator, version
    /// — v7.3/HDF5 is the typed [`MatError::UnsupportedV73`]), then walks
    /// the top-level element stream recording every variable's name, class,
    /// dims, and data location. Compressed elements have only their prefix
    /// inflated; feature-sized payloads stay on disk.
    pub fn open(path: &Path) -> Result<Self, MatError> {
        let mut file = std::fs::File::open(path).map_err(|e| MatError::io(path, e))?;
        let file_len = file.metadata().map_err(|e| MatError::io(path, e))?.len();

        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return Err(MatError::truncated(
                path,
                format!("{file_len} bytes is shorter than the 128-byte MAT header"),
            ));
        }
        file.read_exact(&mut header)
            .map_err(|e| MatError::from_read(path, e))?;
        if header[..8] == HDF5_MAGIC {
            return Err(MatError::UnsupportedV73 { path: path.into() });
        }
        if header[..4].contains(&0) {
            return Err(MatError::header(
                path,
                "descriptive text starts with a zero byte (a level-4 MAT-file, not level 5)",
            ));
        }
        let order = match (header[126], header[127]) {
            (b'I', b'M') => ByteOrder::Little,
            (b'M', b'I') => ByteOrder::Big,
            (a, b) => {
                return Err(MatError::header(
                    path,
                    format!("unknown endian indicator bytes 0x{a:02x} 0x{b:02x} (expected 'MI')"),
                ));
            }
        };
        let version = order.u16([header[124], header[125]]);
        if version == 0x0200 {
            return Err(MatError::UnsupportedV73 { path: path.into() });
        }
        if version != 0x0100 {
            return Err(MatError::header(
                path,
                format!("unsupported MAT version word {version:#06x} (expected 0x0100)"),
            ));
        }

        let mut vars = Vec::new();
        let mut pos = HEADER_LEN;
        while pos < file_len {
            if file_len - pos < 8 {
                return Err(MatError::truncated(
                    path,
                    format!(
                        "element tag at offset {pos} needs 8 bytes, file ends after {}",
                        file_len - pos
                    ),
                ));
            }
            file.seek(SeekFrom::Start(pos))
                .map_err(|e| MatError::io(path, e))?;
            let tag = read_tag(&mut file, order, path)?;
            let tag_len: u64 = if tag.small { 4 } else { 8 };
            let data_start = pos + tag_len;
            let data_len = if tag.small { 4 } else { tag.nbytes as u64 };
            // Small elements occupy exactly 8 bytes; compressed elements are
            // written unpadded by MATLAB; everything else pads to 8.
            let next = if tag.small {
                pos + 8
            } else if tag.ty == mi::COMPRESSED {
                data_start + data_len
            } else {
                data_start + data_len + pad_to_8(tag.nbytes) as u64
            };
            if data_start + data_len > file_len {
                return Err(MatError::truncated(
                    path,
                    format!(
                        "element at offset {pos} promises {data_len} data bytes but only {} remain",
                        file_len - data_start.min(file_len)
                    ),
                ));
            }
            match tag.ty {
                mi::MATRIX => {
                    let mut counter = CountingReader::new(&mut file);
                    let prefix = parse_matrix_prefix(&mut counter, order, path)?;
                    vars.push(Self::var_from_prefix(
                        prefix,
                        |p| VarLoc::Plain {
                            pr_offset: data_start + p,
                        },
                        path,
                        data_len,
                    )?);
                }
                mi::COMPRESSED => {
                    let sub = (&mut file).take(data_len);
                    let mut decoder = CountingReader::new(ZlibDecoder::new(sub));
                    // The decompressed payload is one complete element; its
                    // tag must be miMATRIX.
                    let inner = read_tag(&mut decoder, order, path)?;
                    if inner.ty != mi::MATRIX {
                        return Err(MatError::element(
                            path,
                            format!(
                                "compressed element at offset {pos} holds type {} (expected miMATRIX)",
                                inner.ty
                            ),
                        ));
                    }
                    let inner_len = if inner.small { 4 } else { inner.nbytes as u64 };
                    let prefix = parse_matrix_prefix(&mut decoder, order, path)?;
                    vars.push(Self::var_from_prefix(
                        prefix,
                        |p| VarLoc::Compressed {
                            comp_offset: data_start,
                            comp_len: data_len,
                            pr_skip: p,
                        },
                        path,
                        inner_len + if inner.small { 4 } else { 8 },
                    )?);
                }
                other => {
                    // Top-level elements other than miMATRIX/miCOMPRESSED do
                    // not occur in practice; skip them by their declared
                    // length rather than failing the whole file.
                    let _ = other;
                }
            }
            pos = next;
        }

        Ok(MatFile {
            path: path.into(),
            order,
            vars,
        })
    }

    /// Build a [`MatVar`] from a parsed prefix, validating that the numeric
    /// data fits inside the element (`elem_len` = total element byte count
    /// including the matrix tag region the prefix offsets are relative to).
    fn var_from_prefix(
        prefix: MatrixPrefix,
        make_loc: impl Fn(u64) -> VarLoc,
        path: &Path,
        elem_len: u64,
    ) -> Result<MatVar, MatError> {
        let (pr_type, pr_bytes, loc) = match prefix.pr {
            Some((ty, bytes, offset)) => {
                if offset + bytes > elem_len {
                    return Err(MatError::truncated(
                        path,
                        format!(
                            "variable '{}' promises {bytes} data bytes at offset {offset} \
                             but its element holds only {elem_len}",
                            prefix.name
                        ),
                    ));
                }
                (ty, bytes, Some(make_loc(offset)))
            }
            None => (0, 0, None),
        };
        Ok(MatVar {
            name: prefix.name,
            class: prefix.class,
            dims: prefix.dims,
            complex: prefix.complex,
            loc,
            pr_type,
            pr_bytes,
        })
    }

    /// Path this file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All scanned variables, in file order.
    pub fn vars(&self) -> &[MatVar] {
        &self.vars
    }

    /// Find a variable by name.
    pub fn var(&self, name: &str) -> Option<&MatVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Find a variable or fail with the typed missing-variable error.
    pub fn require(&self, name: &str) -> Result<&MatVar, MatError> {
        self.var(name).ok_or_else(|| MatError::MissingVariable {
            path: self.path.clone(),
            name: name.into(),
        })
    }

    /// Check a variable can be read numerically and return its per-value
    /// byte size.
    fn numeric_prelude(&self, var: &MatVar) -> Result<usize, MatError> {
        if !var.class.is_numeric() {
            return Err(MatError::unsupported(
                &self.path,
                format!(
                    "variable '{}' has non-numeric class {:?}",
                    var.name, var.class
                ),
            ));
        }
        if var.complex {
            return Err(MatError::unsupported(
                &self.path,
                format!("variable '{}' is complex", var.name),
            ));
        }
        let vsize = mi_value_size(var.pr_type).expect("validated at scan");
        let expected = var
            .numel()
            .and_then(|n| n.checked_mul(vsize))
            .ok_or_else(|| {
                MatError::element(
                    &self.path,
                    format!(
                        "variable '{}' dims {:?} hold more bytes than memory can address",
                        var.name, var.dims
                    ),
                )
            })? as u64;
        if expected != var.pr_bytes {
            return Err(MatError::element(
                &self.path,
                format!(
                    "variable '{}' dims {:?} need {expected} data bytes but element stores {}",
                    var.name, var.dims, var.pr_bytes
                ),
            ));
        }
        Ok(vsize)
    }

    /// Open a [`Read`] positioned at the first byte of a variable's numeric
    /// data (plain: a seek; compressed: re-inflate and discard the prefix).
    pub(crate) fn value_reader(&self, var: &MatVar) -> Result<ValueSource, MatError> {
        let loc = var.loc.as_ref().ok_or_else(|| {
            MatError::unsupported(
                &self.path,
                format!("variable '{}' has no numeric data", var.name),
            )
        })?;
        let mut file = std::fs::File::open(&self.path).map_err(|e| MatError::io(&self.path, e))?;
        match *loc {
            VarLoc::Plain { pr_offset } => {
                file.seek(SeekFrom::Start(pr_offset))
                    .map_err(|e| MatError::io(&self.path, e))?;
                Ok(ValueSource::Plain(file))
            }
            VarLoc::Compressed {
                comp_offset,
                comp_len,
                pr_skip,
            } => {
                file.seek(SeekFrom::Start(comp_offset))
                    .map_err(|e| MatError::io(&self.path, e))?;
                let mut decoder = ZlibDecoder::new(file.take(comp_len));
                let mut skip = pr_skip;
                let mut scratch = [0u8; 8192];
                while skip > 0 {
                    let take = skip.min(scratch.len() as u64) as usize;
                    decoder
                        .read_exact(&mut scratch[..take])
                        .map_err(|e| MatError::from_read(&self.path, e))?;
                    skip -= take as u64;
                }
                Ok(ValueSource::Inflated(Box::new(decoder)))
            }
        }
    }

    /// Read a numeric variable in full, widening every stored value to
    /// `f64`. For compressed elements the stream is drained to its end so
    /// the Adler-32 trailer is verified — corrupt payloads cannot produce a
    /// silently wrong array.
    pub fn read_numeric(&self, name: &str) -> Result<NumericArray, MatError> {
        let var = self.require(name)?.clone();
        // The prelude checked that `pr_bytes` is the dims' byte count and
        // that it fits in memory arithmetic.
        self.numeric_prelude(&var)?;
        let mut source = self.value_reader(&var)?;
        let data =
            source.read_values(&self.path, self.order, var.pr_type, var.pr_bytes as usize)?;
        source.drain_and_verify(&self.path)?;
        Ok(NumericArray {
            dims: var.dims,
            data,
        })
    }

    /// Stream a 2-D numeric variable's columns in bounded memory: each
    /// yielded chunk holds up to `chunk_cols` consecutive MATLAB columns as
    /// *rows* of a row-major matrix (column-major `d x N` storage means one
    /// column — one xlsa17 sample — is contiguous, so this is the transpose
    /// the bundle format wants, for free).
    pub fn stream_columns(
        &self,
        name: &str,
        chunk_cols: usize,
    ) -> Result<ColumnChunkReader, MatError> {
        let var = self.require(name)?.clone();
        let vsize = self.numeric_prelude(&var)?;
        if var.dims.len() != 2 {
            return Err(MatError::unsupported(
                &self.path,
                format!(
                    "variable '{}' has {} dimensions; column streaming needs a 2-D matrix",
                    var.name,
                    var.dims.len()
                ),
            ));
        }
        if chunk_cols == 0 {
            return Err(MatError::element(&self.path, "chunk_cols must be positive"));
        }
        let source = self.value_reader(&var)?;
        Ok(ColumnChunkReader::new(
            source,
            self.path.clone(),
            self.order,
            var.pr_type,
            vsize,
            var.dims[0],
            var.dims[1],
            chunk_cols,
        ))
    }
}

/// A positioned reader over a variable's numeric data: either the raw file
/// or a bounded inflate stream.
pub(crate) enum ValueSource {
    /// Seeked raw file.
    Plain(std::fs::File),
    /// Decompressor positioned past the element prefix (boxed: the decoder
    /// carries its 32 KiB window and lookup tables inline).
    Inflated(Box<ZlibDecoder<std::io::Take<std::fs::File>>>),
}

impl Read for ValueSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ValueSource::Plain(f) => f.read(buf),
            ValueSource::Inflated(d) => d.read(buf),
        }
    }
}

impl ValueSource {
    /// Read `nbytes` of `pr_type` values and widen each to f64.
    ///
    /// `nbytes` comes from the header dims, and for a compressed element
    /// nothing but its inner tag bounds those, never the file: the bytes go
    /// through a buffer of at most 64 KiB, and the values grow with what
    /// actually arrives instead of reserving the claim up front.
    pub(crate) fn read_values(
        &mut self,
        path: &Path,
        order: ByteOrder,
        pr_type: u32,
        mut nbytes: usize,
    ) -> Result<Vec<f64>, MatError> {
        let vsize = mi_value_size(pr_type).expect("validated at scan");
        let mut buf = vec![0u8; nbytes.min(64 * 1024 / vsize * vsize)];
        let mut data = Vec::with_capacity(buf.len() / vsize);
        while nbytes > 0 {
            let take = nbytes.min(buf.len());
            self.read_exact(&mut buf[..take])
                .map_err(|e| MatError::from_read(path, e))?;
            data.extend(
                buf[..take]
                    .chunks_exact(vsize)
                    .map(|b| order.widen(pr_type, b)),
            );
            nbytes -= take;
        }
        Ok(data)
    }

    /// For compressed sources, consume the remainder of the stream so the
    /// final block and Adler-32 trailer are decoded and checked. Plain
    /// sources have nothing to verify.
    pub(crate) fn drain_and_verify(&mut self, path: &Path) -> Result<(), MatError> {
        if let ValueSource::Inflated(decoder) = self {
            let mut scratch = [0u8; 8192];
            loop {
                match decoder.read(&mut scratch) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) => return Err(MatError::from_read(path, e)),
                }
            }
        }
        Ok(())
    }
}
