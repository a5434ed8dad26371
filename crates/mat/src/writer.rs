//! A minimal MAT level-5 *writer*, used to generate test fixtures
//! byte-by-byte.
//!
//! This is not a general-purpose MATLAB exporter: it emits exactly the
//! constructs the reader must handle — numeric arrays (optionally stored as
//! a narrower element type than their class, as MATLAB's auto-narrowing
//! does), small-element names, both byte orders, and `miCOMPRESSED`
//! wrapping via two std-only zlib encoders (stored blocks and
//! fixed-Huffman literals). Differential tests round-trip synthetic
//! datasets through it so the reader is proven against independently
//! constructed bytes, not against its own output alone.

use crate::inflate::adler32;
use crate::mat5::{mi, mi_value_size, ByteOrder};
use std::path::Path;

/// How a top-level array element is encoded on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Compression {
    /// Plain `miMATRIX` element.
    #[default]
    None,
    /// `miCOMPRESSED` wrapping a zlib stream of stored (uncompressed)
    /// deflate blocks.
    Stored,
    /// `miCOMPRESSED` wrapping a zlib stream of fixed-Huffman literal-only
    /// deflate blocks.
    FixedHuffman,
}

/// Per-array encoding options.
#[derive(Clone, Copy, Debug)]
pub struct ArrayOpts {
    /// Element type the values are stored as (MATLAB narrows `double`
    /// arrays whose values fit a small integer type).
    pub store_as: u32,
    /// Top-level element encoding.
    pub compression: Compression,
    /// `mxCLASS` code written to the array flags (6 = `mxDOUBLE_CLASS`).
    pub class_code: u8,
    /// Set the complex flag (the reader must reject such arrays).
    pub complex: bool,
}

impl Default for ArrayOpts {
    fn default() -> Self {
        ArrayOpts {
            store_as: mi::DOUBLE,
            compression: Compression::None,
            class_code: 6,
            complex: false,
        }
    }
}

/// Builder for a MAT level-5 file.
pub struct MatWriter {
    order: ByteOrder,
    out: Vec<u8>,
}

impl MatWriter {
    /// Start a file in the given byte order, writing the 128-byte header.
    pub fn new(order: ByteOrder) -> Self {
        let mut out = Vec::new();
        let text = b"MATLAB 5.0 MAT-file, Platform: zsl-mat fixture writer";
        let mut header = [b' '; 116];
        header[..text.len()].copy_from_slice(text);
        out.extend_from_slice(&header);
        out.extend_from_slice(&[0u8; 8]); // subsystem data offset: none
        match order {
            ByteOrder::Little => {
                out.extend_from_slice(&0x0100u16.to_le_bytes());
                out.extend_from_slice(b"IM");
            }
            ByteOrder::Big => {
                out.extend_from_slice(&0x0100u16.to_be_bytes());
                out.extend_from_slice(b"MI");
            }
        }
        debug_assert_eq!(out.len(), 128);
        MatWriter { order, out }
    }

    /// Append a numeric array with explicit encoding options.
    ///
    /// `data` is in MATLAB (column-major) order and is encoded element-wise
    /// into `opts.store_as`; values must be exactly representable in that
    /// type (fixtures control their own data).
    pub fn add_array(&mut self, name: &str, dims: &[usize], data: &[f64], opts: ArrayOpts) {
        assert_eq!(
            dims.iter().product::<usize>(),
            data.len(),
            "dims {dims:?} disagree with {} values",
            data.len()
        );
        let body = self.matrix_body(name, dims, data, opts);
        match opts.compression {
            Compression::None => {
                self.push_u32(mi::MATRIX);
                self.push_u32(body.len() as u32);
                self.out.extend_from_slice(&body);
                // body is a sequence of padded sub-elements, already 8-aligned
                debug_assert_eq!(body.len() % 8, 0);
            }
            Compression::Stored | Compression::FixedHuffman => {
                let mut element = Vec::new();
                push_u32_order(&mut element, self.order, mi::MATRIX);
                push_u32_order(&mut element, self.order, body.len() as u32);
                element.extend_from_slice(&body);
                let compressed = match opts.compression {
                    Compression::Stored => zlib_stored(&element),
                    _ => zlib_fixed(&element),
                };
                self.push_u32(mi::COMPRESSED);
                self.push_u32(compressed.len() as u32);
                // miCOMPRESSED data is written unpadded, as MATLAB does.
                self.out.extend_from_slice(&compressed);
            }
        }
    }

    /// Append raw bytes verbatim — lets corrupt-fixture tests splice in
    /// malformed elements.
    pub fn add_raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Finish and return the file bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }

    /// Finish and write the file to disk.
    pub fn write_to(self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.finish())
    }

    /// Serialize the sub-element sequence of a `miMATRIX` (array flags,
    /// dimensions, name, pr data), each padded to 8 bytes.
    fn matrix_body(&self, name: &str, dims: &[usize], data: &[f64], opts: ArrayOpts) -> Vec<u8> {
        let order = self.order;
        let mut body = Vec::new();

        // Array flags: miUINT32 x 2.
        let mut flags_word = opts.class_code as u32;
        if opts.complex {
            flags_word |= 0x0800;
        }
        push_u32_order(&mut body, order, mi::UINT32);
        push_u32_order(&mut body, order, 8);
        push_u32_order(&mut body, order, flags_word);
        push_u32_order(&mut body, order, 0); // nzmax

        // Dimensions: miINT32.
        push_u32_order(&mut body, order, mi::INT32);
        push_u32_order(&mut body, order, (dims.len() * 4) as u32);
        for &d in dims {
            push_u32_order(&mut body, order, d as u32);
        }
        pad8(&mut body);

        // Array name: miINT8, small-element form when it fits (as MATLAB
        // writes short names).
        if name.len() <= 4 {
            let word = mi::INT8 | ((name.len() as u32) << 16);
            push_u32_order(&mut body, order, word);
            let mut region = [0u8; 4];
            region[..name.len()].copy_from_slice(name.as_bytes());
            body.extend_from_slice(&region);
        } else {
            push_u32_order(&mut body, order, mi::INT8);
            push_u32_order(&mut body, order, name.len() as u32);
            body.extend_from_slice(name.as_bytes());
            pad8(&mut body);
        }

        // Real-part data, encoded element-wise into the storage type.
        let vsize = mi_value_size(opts.store_as).expect("storage type must be numeric");
        let nbytes = data.len() * vsize;
        push_u32_order(&mut body, order, opts.store_as);
        push_u32_order(&mut body, order, nbytes as u32);
        for &v in data {
            encode_value(&mut body, order, opts.store_as, v);
        }
        pad8(&mut body);

        if opts.complex {
            // An imaginary part mirroring the real part, so the element is
            // structurally complete even though the reader rejects it.
            push_u32_order(&mut body, order, opts.store_as);
            push_u32_order(&mut body, order, nbytes as u32);
            for &v in data {
                encode_value(&mut body, order, opts.store_as, v);
            }
            pad8(&mut body);
        }

        body
    }

    fn push_u32(&mut self, v: u32) {
        push_u32_order(&mut self.out, self.order, v);
    }
}

fn push_u32_order(out: &mut Vec<u8>, order: ByteOrder, v: u32) {
    match order {
        ByteOrder::Little => out.extend_from_slice(&v.to_le_bytes()),
        ByteOrder::Big => out.extend_from_slice(&v.to_be_bytes()),
    }
}

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

/// Encode one `f64` as the given element type in the given byte order.
/// Panics if the value is not exactly representable — fixtures own their
/// data, so a lossy narrow is a bug in the test, not a runtime condition.
fn encode_value(out: &mut Vec<u8>, order: ByteOrder, ty: u32, v: f64) {
    macro_rules! narrow {
        ($t:ty) => {{
            let n = v as $t;
            assert_eq!(
                n as f64,
                v,
                "{v} is not exactly representable as {}",
                stringify!($t)
            );
            match order {
                ByteOrder::Little => out.extend_from_slice(&n.to_le_bytes()),
                ByteOrder::Big => out.extend_from_slice(&n.to_be_bytes()),
            }
        }};
    }
    match ty {
        mi::INT8 => narrow!(i8),
        mi::UINT8 => narrow!(u8),
        mi::INT16 => narrow!(i16),
        mi::UINT16 => narrow!(u16),
        mi::INT32 => narrow!(i32),
        mi::UINT32 => narrow!(u32),
        mi::INT64 => narrow!(i64),
        mi::UINT64 => narrow!(u64),
        mi::SINGLE => {
            let n = v as f32;
            assert_eq!(n as f64, v, "{v} is not exactly representable as f32");
            match order {
                ByteOrder::Little => out.extend_from_slice(&n.to_bits().to_le_bytes()),
                ByteOrder::Big => out.extend_from_slice(&n.to_bits().to_be_bytes()),
            }
        }
        mi::DOUBLE => match order {
            ByteOrder::Little => out.extend_from_slice(&v.to_bits().to_le_bytes()),
            ByteOrder::Big => out.extend_from_slice(&v.to_bits().to_be_bytes()),
        },
        other => panic!("cannot encode element type {other}"),
    }
}

/// zlib-wrap `data` using stored (BTYPE=00) deflate blocks. Valid per RFC
/// 1950/1951; no compression, but exercises the reader's stored-block and
/// multi-block paths (blocks cap at 65535 bytes).
pub fn zlib_stored(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0x78, 0x01]; // CMF/FLG: 32K window, fastest, (0x7801 % 31 == 0)
    let mut chunks = data.chunks(65_535).peekable();
    if data.is_empty() {
        // A final empty stored block.
        out.extend_from_slice(&[0x01, 0x00, 0x00, 0xFF, 0xFF]);
    }
    while let Some(chunk) = chunks.next() {
        let last = chunks.peek().is_none();
        out.push(if last { 0x01 } else { 0x00 }); // BFINAL + BTYPE=00, then byte-aligned
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// zlib-wrap `data` as one fixed-Huffman (BTYPE=01) deflate block emitting
/// every byte as a literal. No back-references, but a genuinely
/// Huffman-coded stream — exercises the reader's fixed-table decode path.
pub fn zlib_fixed(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0x78, 0x01];
    let mut bits = BitSink::new();
    bits.push_bits(1, 1); // BFINAL
    bits.push_bits(0b01, 2); // BTYPE = fixed Huffman
    for &b in data {
        let (code, len) = fixed_literal_code(b as u16);
        bits.push_code(code, len);
    }
    let (code, len) = fixed_literal_code(256); // end of block
    bits.push_code(code, len);
    out.extend_from_slice(&bits.finish());
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// The RFC 1951 fixed literal/length code for a symbol.
fn fixed_literal_code(sym: u16) -> (u16, u32) {
    match sym {
        0..=143 => (0b0011_0000 + sym, 8),
        144..=255 => (0b1_1001_0000 + (sym - 144), 9),
        256..=279 => (sym - 256, 7),
        _ => (0b1100_0000 + (sym - 280), 8),
    }
}

/// LSB-first deflate bit packer. Huffman codes go in MSB-first
/// (`push_code`); everything else LSB-first (`push_bits`).
struct BitSink {
    out: Vec<u8>,
    bitbuf: u32,
    nbits: u32,
}

impl BitSink {
    fn new() -> Self {
        BitSink {
            out: Vec::new(),
            bitbuf: 0,
            nbits: 0,
        }
    }

    fn push_bits(&mut self, value: u32, n: u32) {
        self.bitbuf |= value << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.bitbuf & 0xFF) as u8);
            self.bitbuf >>= 8;
            self.nbits -= 8;
        }
    }

    fn push_code(&mut self, code: u16, len: u32) {
        for i in (0..len).rev() {
            self.push_bits(((code >> i) & 1) as u32, 1);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.bitbuf & 0xFF) as u8);
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::ZlibDecoder;
    use std::io::Read;

    fn inflate_all(bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        ZlibDecoder::new(bytes)
            .read_to_end(&mut out)
            .expect("writer output must inflate");
        out
    }

    #[test]
    fn stored_roundtrip() {
        for len in [0usize, 1, 7, 8, 65_535, 65_536, 70_000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(inflate_all(&zlib_stored(&data)), data, "len {len}");
        }
    }

    #[test]
    fn fixed_roundtrip() {
        for len in [0usize, 1, 9, 255, 4096] {
            // Cover both the 8-bit (0..=143) and 9-bit (144..=255) literal ranges.
            let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            assert_eq!(inflate_all(&zlib_fixed(&data)), data, "len {len}");
        }
    }
}
