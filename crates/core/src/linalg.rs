//! Dense, row-major linear algebra for the ZSL pipeline.
//!
//! Everything downstream (the closed-form trainer in [`crate::model`], the
//! batch scorer in [`crate::infer`]) is expressed over this one [`Matrix`]
//! type, so the hot paths that later PRs will optimize (blocked matmul,
//! Cholesky solves) live here and nowhere else.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::{Condvar, Mutex, OnceLock};

/// Guard used when dividing by row norms: rows with an L2 norm at or below
/// this value are left untouched by [`Matrix::l2_normalize_rows`].
pub const NORM_EPSILON: f64 = 1e-12;

/// Cache-blocking tile edge for the portable instance of [`Matrix::matmul`].
/// 64 doubles = 512 bytes per row segment, so an A-tile, B-tile, and C-tile
/// together stay well inside L1/L2.
///
/// Also the class width of one tile of the bank product, `gemm_bt_tiles`,
/// which scores the bank one `BLOCK`-class tile at a time: within a tile,
/// whole groups of eight classes go through the packed 8-class kernel (one
/// or four sample rows per pass), and the last `len mod 8` classes through
/// the 4-wide and scalar tails. Tiles always start at multiples of `BLOCK`,
/// so every class goes through the same kernel with the same accumulation
/// order whoever asks for it. Exposed crate-wide for
/// [`crate::infer::BankShards`], whose band boundaries sit on tile edges.
pub(crate) const BLOCK: usize = 64;

/// Rows of the left operand that the Gram fold
/// ([`Matrix::add_transposed_product`] and the symmetric `XᵀX` fold)
/// transposes at a time: the copy stays at `FOLD_SLAB_ROWS x cols` (768 KiB
/// at 384 features) however tall the chunk being folded.
const FOLD_SLAB_ROWS: usize = 256;

/// Below this many multiply-adds the parallel entry points run the serial
/// kernel instead: even with the persistent pool, waking workers and taking
/// the task lock only amortizes once there is real work to split.
const PARALLEL_WORK_CUTOFF: usize = 1 << 17;

/// Minimum sample rows before `gemm_bt_tiles` packs signature tiles into the
/// interleaved SIMD layout: packing re-reads each tile once, which only pays
/// off when several sample rows reuse the packed form. Smaller batches score
/// one row at a time straight from the bank through [`dot8`]; only packed
/// batches are scored several rows per pass.
const PACK_MIN_ROWS: usize = 4;

/// Number of worker threads the hardware supports, used as the default by the
/// parallel matmul paths and [`crate::infer::ScoringEngine`]. Falls back to 1
/// when the platform cannot report its parallelism. Computed once per
/// process: `available_parallelism` re-reads the cgroup CPU quota on every
/// call, and every engine construction asks.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Scalar element the shared microkernels are generic over: `f64` for
/// training and default scoring, `f32` for the opt-in reduced-precision
/// serving path. Every kernel in this module accumulates in strictly
/// sequential per-output order regardless of `T`, so each precision is
/// bit-identical across thread counts *within itself*.
pub(crate) trait Elem:
    Copy
    + Send
    + Sync
    + PartialOrd
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::DivAssign
    + 'static
{
    const ZERO: Self;
    fn from_f64(v: f64) -> Self;
    fn sqrt(self) -> Self;
    fn exp(self) -> Self;
    /// `data` in this precision: borrowed as-is for `f64`, rounded once into
    /// a new buffer for `f32`.
    fn cast_slice(data: &[f64]) -> Cow<'_, [Self]>;
    /// `block` in `f64`: the block itself for `f64`, and for `f32` its
    /// values widened (exactly) into `wide`, a buffer the caller reuses
    /// from block to block.
    fn widen<'a>(block: &'a mut [Self], wide: &'a mut Vec<f64>) -> &'a mut [f64];
}

impl Elem for f64 {
    const ZERO: Self = 0.0;
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    fn cast_slice(data: &[f64]) -> Cow<'_, [Self]> {
        Cow::Borrowed(data)
    }
    fn widen<'a>(block: &'a mut [Self], _: &'a mut Vec<f64>) -> &'a mut [f64] {
        block
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
}

impl Elem for f32 {
    const ZERO: Self = 0.0;
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn cast_slice(data: &[f64]) -> Cow<'_, [Self]> {
        Cow::Owned(data.iter().map(|&v| v as f32).collect())
    }
    fn widen<'a>(block: &'a mut [Self], wide: &'a mut Vec<f64>) -> &'a mut [f64] {
        wide.clear();
        wide.extend(block.iter().map(|&v| f64::from(v)));
        wide
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f32::exp(self)
    }
}

/// `out += a * b` over raw row-major slabs, where `a` is `n x k_dim`, `b` is
/// `k_dim x m` and `out` is `n x m`: a product into a zeroed `out`, a fold
/// into one that already holds a sum. Shared by the serial and row-banded
/// parallel matmul paths and the Gram fold. Each output starts from its
/// value in `out` and adds `a[i][k] * b[k][j]` in ascending `k`, whichever
/// instance runs: on a CPU with AVX2 the 4-row x 8-column register block of
/// `gemm_avx2`, elsewhere the tiled loop of `gemm_portable`. Rust never
/// contracts `a*b + c` into an FMA, so the instance never changes a bit.
///
/// With `upper` (square `out` only), tiles strictly below the diagonal tile
/// are skipped: the symmetric Gram fold computes the upper block triangle
/// and mirrors it. That fold runs `gemm_portable` on every host.
fn gemm_into<T: Elem>(
    a: &[T],
    n: usize,
    k_dim: usize,
    b: &[T],
    m: usize,
    out: &mut [T],
    upper: bool,
) {
    debug_assert_eq!(a.len(), n * k_dim);
    debug_assert_eq!(b.len(), k_dim * m);
    debug_assert_eq!(out.len(), n * m);
    debug_assert!(!upper || n == m);
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if !upper && has_avx2() {
        // SAFETY: `has_avx2` is true only when the running CPU reports AVX2,
        // the one feature `gemm_avx2` is compiled for.
        unsafe { gemm_avx2(a, n, k_dim, b, m, out) };
        return;
    }
    gemm_portable(a, n, k_dim, b, m, out, upper);
}

/// The portable instance of `gemm_into`, built for the target's baseline
/// ISA: a blocked `i-k-j` loop over `BLOCK`-sized tiles whose innermost loop
/// streams a row of `b` into a row of `out`. It is also the oracle the AVX2
/// instance is tested against.
fn gemm_portable<T: Elem>(
    a: &[T],
    n: usize,
    k_dim: usize,
    b: &[T],
    m: usize,
    out: &mut [T],
    upper: bool,
) {
    for ii in (0..n).step_by(BLOCK) {
        let i_end = (ii + BLOCK).min(n);
        let j_start = if upper { ii } else { 0 };
        for kk in (0..k_dim).step_by(BLOCK) {
            let k_end = (kk + BLOCK).min(k_dim);
            for jj in (j_start..m).step_by(BLOCK) {
                let j_end = (jj + BLOCK).min(m);
                for i in ii..i_end {
                    for k in kk..k_end {
                        let a_ik = a[i * k_dim + k];
                        let b_row = &b[k * m + jj..k * m + j_end];
                        let c_row = &mut out[i * m + jj..i * m + j_end];
                        for (c, &bv) in c_row.iter_mut().zip(b_row) {
                            *c += a_ik * bv;
                        }
                    }
                }
            }
        }
    }
}

/// The AVX2 instance of `gemm_into` (never FMA): rows go four at a time
/// through [`gemm_block`], whose 4 x 8 accumulators fill the 256-bit
/// registers, and the `n mod 4` rows left over one at a time.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2<T: Elem>(a: &[T], n: usize, k_dim: usize, b: &[T], m: usize, out: &mut [T]) {
    let blocked = n - n % 4;
    for i in (0..blocked).step_by(4) {
        let rows = &a[i * k_dim..(i + 4) * k_dim];
        gemm_block::<T, 4>(rows, k_dim, b, m, &mut out[i * m..(i + 4) * m]);
    }
    for i in blocked..n {
        let row = &a[i * k_dim..(i + 1) * k_dim];
        gemm_block::<T, 1>(row, k_dim, b, m, &mut out[i * m..(i + 1) * m]);
    }
}

/// `out += a * b` for `M` rows (`a` is `M x k_dim`, `out` is `M x m`): per
/// group of eight columns, an `M x 8` block of accumulators is loaded from
/// `out`, runs the whole `k` range in ascending order and is written back.
/// The block is a fixed-size array moved in fixed 8-long copies, so it stays
/// in registers. The last `m mod 8` columns take a scalar loop that runs `k`
/// outermost, so the `M` rows' sums advance side by side, each still in
/// ascending `k`.
#[inline(always)]
fn gemm_block<T: Elem, const M: usize>(a: &[T], k_dim: usize, b: &[T], m: usize, out: &mut [T]) {
    let a: [&[T]; M] = std::array::from_fn(|r| &a[r * k_dim..(r + 1) * k_dim]);
    let tails = m - m % 8;
    for j in (0..tails).step_by(8) {
        let mut acc: [[T; 8]; M] = [[T::ZERO; 8]; M];
        for (r, eight) in acc.iter_mut().enumerate() {
            eight.copy_from_slice(&out[r * m + j..r * m + j + 8]);
        }
        for (k, b_row) in b.chunks_exact(m).enumerate() {
            let b8 = &b_row[j..j + 8];
            for (eight, a_row) in acc.iter_mut().zip(&a) {
                let av = a_row[k];
                for (c, &bv) in eight.iter_mut().zip(b8) {
                    *c += av * bv;
                }
            }
        }
        for (r, eight) in acc.iter().enumerate() {
            out[r * m + j..r * m + j + 8].copy_from_slice(eight);
        }
    }
    if tails < m {
        for (k, b_row) in b.chunks_exact(m).enumerate() {
            for (a_row, out_row) in a.iter().zip(out.chunks_exact_mut(m)) {
                let a_rk = a_row[k];
                for (c, &bv) in out_row[tails..].iter_mut().zip(&b_row[tails..]) {
                    *c += a_rk * bv;
                }
            }
        }
    }
}

/// `A · Bᵀ` one tile of the bank at a time, where `bt` is the packed
/// row-major transpose (`z x k_dim`): every inner product streams two
/// contiguous rows, the access pattern the scoring path (`X·Sᵀ` against a
/// signature bank) needs. Per tile of [`BLOCK`] consecutive `bt` rows, in
/// ascending order, the `n x width` block of products (row-major, `width`
/// values per row) is computed into one reused buffer and handed to `tile`
/// with the tile's row range of `bt`; a caller that reduces each block as it
/// arrives never holds more than `n x BLOCK` products. This is the one body
/// of the bank product: [`Matrix::matmul_bt`] and the linear kernel map copy
/// the blocks into place through [`gemm_bt_into`], and
/// [`crate::infer::ScoringEngine`] reduces them.
///
/// Within a tile, eight signatures are register-blocked at a time (a 4-wide
/// then scalar cascade covers the remainder). When the batch is large enough
/// to amortize it, each eight-row group is repacked into an interleaved
/// buffer, reused from tile to tile, so the 8-wide microkernel's inner loop
/// is one contiguous vector multiply-add, and on a CPU with AVX2 four sample
/// rows share each pass over it (`gemm_bt_tiles_avx2`); elsewhere the
/// portable instance scores one row per pass. Every output but the last
/// `z mod 4` keeps one sequential accumulator in ascending `k` whichever path
/// scores it; those last classes go through [`dot`], whose four partial sums
/// add in another order once `k_dim >= 4`, on every path alike. Rust never
/// contracts `a*b + c` into an FMA, so neither the packing heuristic, the
/// dispatched instance nor the caller changes a bit.
pub(crate) fn gemm_bt_tiles<T, F>(a: &[T], n: usize, k_dim: usize, bt: &[T], z: usize, tile: F)
where
    T: Elem,
    F: FnMut(Range<usize>, &mut [T]),
{
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if has_avx2() {
        // SAFETY: `has_avx2` is true only when the running CPU reports AVX2,
        // the one feature `gemm_bt_tiles_avx2` is compiled for.
        unsafe { gemm_bt_tiles_avx2(a, n, k_dim, bt, z, tile) };
        return;
    }
    gemm_bt_tiles_portable(a, n, k_dim, bt, z, tile);
}

/// `out = a · btᵀ` (`out` is `n x z`) through [`gemm_bt_tiles`], each
/// tile's block copied into its columns.
pub(crate) fn gemm_bt_into<T: Elem>(
    a: &[T],
    n: usize,
    k_dim: usize,
    bt: &[T],
    z: usize,
    out: &mut [T],
) {
    debug_assert_eq!(out.len(), n * z);
    gemm_bt_tiles(a, n, k_dim, bt, z, |classes, block| {
        for (row, scores) in out
            .chunks_exact_mut(z)
            .zip(block.chunks_exact(classes.len()))
        {
            row[classes.clone()].copy_from_slice(scores);
        }
    });
}

/// Whether the running CPU has AVX2, asked once per process (as
/// [`default_threads`] asks for its parallelism) and cached for every
/// dispatched kernel call: `gemm_into`, `gemm_bt_tiles`, and the Cholesky
/// column passes and substitutions. Only x86 and x86_64 build the AVX2
/// instances.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn has_avx2() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
fn has_avx2() -> bool {
    false
}

/// The instance every dispatched kernel runs in this process: `gemm_bt_tiles`,
/// the signature-bank product of every scoring call; `gemm_into`, the dense
/// product behind the model projection, [`Matrix::matmul`] and
/// [`Matrix::add_transposed_product`]; and the column passes of
/// [`Matrix::cholesky`] and the substitutions of [`Cholesky::solve_matrix`],
/// behind every ESZSL and kernel-ESZSL fit. `"avx2"` on an x86 CPU that
/// reports AVX2, `"portable"` otherwise. Both instances of each kernel
/// produce the same bits, so this names a speed, not a result; timings are
/// comparable only between runs that report the same value.
pub fn kernel_isa() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "portable"
    }
}

/// The portable instance of `gemm_bt_tiles`, built for the target's
/// baseline ISA: one sample row per pass over each packed tile. Four rows
/// per pass measured slower under SSE2's 128-bit registers: 10.2–13.4 ms
/// against 9.0–10.0 ms for 64 rows of width 64 against 8192 classes, on an
/// Intel Xeon (family 6, model 207).
fn gemm_bt_tiles_portable<T, F>(a: &[T], n: usize, k_dim: usize, bt: &[T], z: usize, tile: F)
where
    T: Elem,
    F: FnMut(Range<usize>, &mut [T]),
{
    gemm_bt_tile_rows::<T, F, 1>(a, n, k_dim, bt, z, tile);
}

/// The AVX2 instance of `gemm_bt_tiles`: the same body compiled with AVX2
/// (never FMA), scoring four sample rows per pass over each packed tile, so
/// four independent rows share every tile load and the 4 x 8 accumulators
/// fill the 256-bit registers.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_bt_tiles_avx2<T, F>(a: &[T], n: usize, k_dim: usize, bt: &[T], z: usize, tile: F)
where
    T: Elem,
    F: FnMut(Range<usize>, &mut [T]),
{
    gemm_bt_tile_rows::<T, F, 4>(a, n, k_dim, bt, z, tile);
}

/// The body both `gemm_bt_tiles` instances inline. Per `BLOCK`-class tile of
/// the bank: in a packed batch, rows go `M` at a time through
/// [`dot8_packed`] and the rows left over from a multiple of `M` one at a
/// time; a batch under [`PACK_MIN_ROWS`] scores each row through [`dot8`].
/// The last `len mod 8` classes of a tile take the 4-wide and scalar tails
/// row by row. `M` only chooses which outputs are computed side by side.
#[inline(always)]
fn gemm_bt_tile_rows<T, F, const M: usize>(
    a: &[T],
    n: usize,
    k_dim: usize,
    bt: &[T],
    z: usize,
    mut tile: F,
) where
    T: Elem,
    F: FnMut(Range<usize>, &mut [T]),
{
    debug_assert_eq!(a.len(), n * k_dim);
    debug_assert_eq!(bt.len(), z * k_dim);
    let pack = n >= PACK_MIN_ROWS;
    let blocked = if pack { n - n % M } else { 0 };
    let mut packed_tile: Vec<T> = Vec::new();
    let mut block = vec![T::ZERO; n * z.min(BLOCK)];
    for jj in (0..z).step_by(BLOCK) {
        let j_end = (jj + BLOCK).min(z);
        let width = j_end - jj;
        let groups = width / 8;
        let tails = jj + 8 * groups;
        if pack && groups > 0 {
            pack_bt_tile(bt, k_dim, jj, groups, &mut packed_tile);
        }
        let packed = |g: usize| &packed_tile[g * 8 * k_dim..(g + 1) * 8 * k_dim];
        let out = &mut block[..n * width];
        for i in (0..blocked).step_by(M) {
            let rows = &a[i * k_dim..(i + M) * k_dim];
            for g in 0..groups {
                let eights: [[T; 8]; M] = dot8_packed(rows, packed(g));
                for (r, eight) in eights.iter().enumerate() {
                    let at = (i + r) * width + 8 * g;
                    out[at..at + 8].copy_from_slice(eight);
                }
            }
            for r in i..i + M {
                let a_row = &a[r * k_dim..(r + 1) * k_dim];
                let out_row = &mut out[r * width..(r + 1) * width];
                dot_tails(a_row, bt, tails, &mut out_row[8 * groups..]);
            }
        }
        for r in blocked..n {
            let a_row = &a[r * k_dim..(r + 1) * k_dim];
            let out_row = &mut out[r * width..(r + 1) * width];
            for g in 0..groups {
                let eight = if pack {
                    dot8_packed::<T, 1>(a_row, packed(g))[0]
                } else {
                    let j = jj + 8 * g;
                    dot8(a_row, &bt[j * k_dim..(j + 8) * k_dim])
                };
                out_row[8 * g..8 * g + 8].copy_from_slice(&eight);
            }
            dot_tails(a_row, bt, tails, &mut out_row[8 * groups..]);
        }
        tile(jj..j_end, out);
    }
}

/// Score `a_row` against the `out.len()` (fewer than eight) bank rows from
/// row `first` on: [`dot4`] while four remain, then [`dot`] one at a time.
fn dot_tails<T: Elem>(a_row: &[T], bt: &[T], first: usize, out: &mut [T]) {
    let k = a_row.len();
    let row = |j: usize| &bt[j * k..(j + 1) * k];
    let mut quads = out.chunks_exact_mut(4);
    let mut j = first;
    for quad in &mut quads {
        quad.copy_from_slice(&dot4(a_row, row(j), row(j + 1), row(j + 2), row(j + 3)));
        j += 4;
    }
    for o in quads.into_remainder() {
        *o = dot(a_row, row(j));
        j += 1;
    }
}

/// Interleave `groups` runs of eight consecutive `bt` rows starting at row
/// `first` into `tile`: element `i` of row `first + 8g + r` lands at
/// `tile[g * 8 * k_dim + i * 8 + r]`. The transposed layout turns the 8-wide
/// dot kernel's inner loop into contiguous vector loads.
fn pack_bt_tile<T: Elem>(bt: &[T], k_dim: usize, first: usize, groups: usize, tile: &mut Vec<T>) {
    tile.clear();
    tile.resize(groups * 8 * k_dim, T::ZERO);
    for g in 0..groups {
        let dst = &mut tile[g * 8 * k_dim..(g + 1) * 8 * k_dim];
        for r in 0..8 {
            let row = first + 8 * g + r;
            let src = &bt[row * k_dim..(row + 1) * k_dim];
            for (i, &v) in src.iter().enumerate() {
                dst[i * 8 + r] = v;
            }
        }
    }
}

/// The `M x 8` dot products of `M` sample rows (`rows`, an `M x k` row-major
/// slab) against an interleaved packed tile (`tile[i * 8 + c]` holds element
/// `i` of class `c`). Each output keeps one sequential accumulator in
/// ascending `i` — bit-identical to [`dot8`] and the naive order for every
/// `M` — and the contiguous 8-lane layout lets the autovectorizer emit one
/// vector multiply-add per row per element of `i`. The block is a fixed-size
/// array the caller copies out in fixed-length runs, so it stays in
/// registers: at `M = 4` the `M` rows share every tile load.
#[inline(always)]
fn dot8_packed<T: Elem, const M: usize>(rows: &[T], tile: &[T]) -> [[T; 8]; M] {
    let k = tile.len() / 8;
    debug_assert_eq!(rows.len(), M * k);
    let a: [&[T]; M] = std::array::from_fn(|r| &rows[r * k..(r + 1) * k]);
    let mut s = [[T::ZERO; 8]; M];
    for (i, lane) in tile.chunks_exact(8).enumerate() {
        for (acc, a_row) in s.iter_mut().zip(&a) {
            let av = a_row[i];
            for (c, &tv) in acc.iter_mut().zip(lane) {
                *c += av * tv;
            }
        }
    }
    s
}

/// Eight simultaneous dot products of `a` against the eight consecutive
/// packed rows of `bt8` (an `8 x k` row-major slab). One sequential
/// accumulator per output, eight independent chains for instruction-level
/// parallelism; every `a` element is loaded once per eight outputs.
#[inline]
fn dot8<T: Elem>(a: &[T], bt8: &[T]) -> [T; 8] {
    let k = a.len();
    debug_assert_eq!(bt8.len(), 8 * k);
    let rows: [&[T]; 8] = std::array::from_fn(|r| &bt8[r * k..(r + 1) * k]);
    let mut s = [T::ZERO; 8];
    for (i, &av) in a.iter().enumerate() {
        for (acc, row) in s.iter_mut().zip(&rows) {
            *acc += av * row[i];
        }
    }
    s
}

/// Four simultaneous dot products of `a` against `b0..b3`. Each output keeps
/// a single sequential accumulator (so per-output numerics match the naive
/// order), while the four independent chains give the CPU instruction-level
/// parallelism and reuse every `a` element four times per load.
fn dot4<T: Elem>(a: &[T], b0: &[T], b1: &[T], b2: &[T], b3: &[T]) -> [T; 4] {
    let mut s = [T::ZERO; 4];
    for ((((&av, &v0), &v1), &v2), &v3) in a.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
        s[0] += av * v0;
        s[1] += av * v1;
        s[2] += av * v2;
        s[3] += av * v3;
    }
    s
}

/// Four-accumulator unrolled dot product. The independent accumulators break
/// the serial FP dependency chain so the compiler can keep several FMAs in
/// flight; the remainder is summed separately and added once at the end.
fn dot<T: Elem>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let main_len = a.len() / 4 * 4;
    let (a_main, a_tail) = a.split_at(main_len);
    let (b_main, b_tail) = b.split_at(main_len);
    let mut acc = [T::ZERO; 4];
    for (av, bv) in a_main.chunks_exact(4).zip(b_main.chunks_exact(4)) {
        acc[0] += av[0] * bv[0];
        acc[1] += av[1] * bv[1];
        acc[2] += av[2] * bv[2];
        acc[3] += av[3] * bv[3];
    }
    let mut tail = T::ZERO;
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// One in-flight band batch: a type-erased band executor plus claim and
/// completion counters. `func` is only dereferenced between a claim and the
/// matching completion increment, both of which happen strictly before
/// [`Pool::run`] returns — that ordering is what makes the lifetime erasure
/// in `run` sound.
struct PoolBatch {
    func: &'static (dyn Fn(usize) + Sync),
    next: usize,
    total: usize,
    completed: usize,
    panicked: bool,
}

/// The lazily-initialized process-wide worker pool behind every parallel
/// linalg entry point. Workers are spawned once and live for the process
/// lifetime, so serving-sized batches stop paying the tens of microseconds of
/// `std::thread::scope` spawn-and-join that the old per-call path cost.
struct Pool {
    state: Mutex<Option<PoolBatch>>,
    /// Wakes idle workers when a new batch lands.
    work_cv: Condvar,
    /// Wakes the submitting thread when the last band completes.
    done_cv: Condvar,
    /// Spawned worker threads; the submitting thread always participates, so
    /// the pool schedules across `workers + 1` threads.
    workers: usize,
}

impl Pool {
    /// Execute `f(0)..f(total - 1)` cooperatively across the pool workers and
    /// the calling thread, returning once every index has completed. A caller
    /// that arrives while another batch is in flight runs its own indices
    /// serially on its own thread — same band set, same kernels, so results
    /// are bit-identical — which keeps concurrent submitters (e.g. serve
    /// connection threads) from oversubscribing the machine. A panic in any
    /// index, on a worker or on the calling thread, is re-raised only after
    /// every index has completed and the pool is free again, so no worker
    /// still runs `f` once `run` unwinds.
    fn run(&self, total: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.workers == 0 || total <= 1 {
            for idx in 0..total {
                f(idx);
            }
            return;
        }
        // Erase the borrow's lifetime so workers can hold it across the lock;
        // `run` does not return until `completed == total`, so the erased
        // reference never outlives the frame that owns the closure.
        let func: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        {
            let mut state = self.state.lock().unwrap();
            if state.is_some() {
                drop(state);
                for idx in 0..total {
                    f(idx);
                }
                return;
            }
            *state = Some(PoolBatch {
                func,
                next: 0,
                total,
                completed: 0,
                panicked: false,
            });
        }
        self.work_cv.notify_all();
        loop {
            let mut state = self.state.lock().unwrap();
            let batch = state.as_mut().expect("pool batch vanished mid-run");
            if batch.next < batch.total {
                let idx = batch.next;
                batch.next += 1;
                drop(state);
                // A panic here must not unwind past the workers still
                // running other indices of `f`: record it, finish the
                // batch, and re-raise below.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(idx)));
                let mut state = self.state.lock().unwrap();
                let batch = state.as_mut().expect("pool batch vanished mid-run");
                batch.panicked |= outcome.is_err();
                batch.completed += 1;
            } else {
                while state.as_ref().is_some_and(|b| b.completed < b.total) {
                    state = self.done_cv.wait(state).unwrap();
                }
                let panicked = state.as_ref().is_some_and(|b| b.panicked);
                *state = None;
                drop(state);
                assert!(
                    !panicked,
                    "a linalg pool worker panicked while executing a band"
                );
                return;
            }
        }
    }

    /// Body of each persistent worker thread: claim the next unclaimed band
    /// of the current batch, execute it outside the lock, record completion.
    /// A panicking band is caught so the submitter is released (and re-raises)
    /// instead of waiting forever on a completion that will never come.
    fn worker_loop(&self) {
        loop {
            let (func, idx) = {
                let mut state = self.state.lock().unwrap();
                loop {
                    if let Some(batch) = state.as_mut() {
                        if batch.next < batch.total {
                            let idx = batch.next;
                            batch.next += 1;
                            break (batch.func, idx);
                        }
                    }
                    state = self.work_cv.wait(state).unwrap();
                }
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| func(idx)));
            let mut state = self.state.lock().unwrap();
            if let Some(batch) = state.as_mut() {
                if outcome.is_err() {
                    batch.panicked = true;
                }
                batch.completed += 1;
                if batch.completed == batch.total {
                    self.done_cv.notify_all();
                }
            }
        }
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, spawning `default_threads() - 1` workers on first
/// use (the submitting thread is always the extra participant). Worker
/// threads block on the same `OnceLock` until initialization finishes, so the
/// self-referential spawn is safe; a failed spawn just leaves the pool with
/// fewer workers.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let target = default_threads().saturating_sub(1);
        let mut spawned = 0;
        for _ in 0..target {
            let ok = std::thread::Builder::new()
                .name("zsl-linalg".into())
                .spawn(|| pool().worker_loop())
                .is_ok();
            spawned += usize::from(ok);
        }
        Pool {
            state: Mutex::new(None),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            workers: spawned,
        }
    })
}

/// Number of threads the shared linalg worker pool schedules work across —
/// the persistent workers plus the submitting thread. Forces pool
/// initialization on first call; serving stacks surface this in diagnostics
/// so operators can see the actual parallelism budget.
pub fn pool_threads() -> usize {
    pool().workers + 1
}

/// Pointer to the per-band states of one [`par_bands`] call, so each pool
/// task can reach its own state.
struct SendPtr<T>(*mut T);

// SAFETY: the one field is a pointer into a `Vec` of states that outlives
// the pool run. Each task dereferences it to a distinct element, so no two
// threads share a `T`, and a `T` is moved to (and mutated on) whichever
// thread runs its band: `T: Send` is the whole requirement, for sending and
// for sharing the pointer alike.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor instead of field syntax so closures capture the whole
    /// `Sync` wrapper rather than the bare (non-`Sync`) raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Split `rows` rows into contiguous bands — one per thread, sized within
/// one row of each other — and run `band` on each through the persistent
/// pool and the calling thread. `init` builds each band's state on the
/// calling thread, in band order, before any band runs, and `done` takes
/// the states back in band order once every band has finished. Work under
/// [`PARALLEL_WORK_CUTOFF`] multiply-adds (`rows * row_work`) runs as one
/// band on the calling thread. Band boundaries depend only on `rows`,
/// `row_work` and `threads`, never on which thread runs what, so as long as
/// `band` keeps each row's arithmetic to that row, every result is the same
/// at every thread count.
pub(crate) fn par_bands<S: Send>(
    rows: usize,
    row_work: usize,
    threads: usize,
    mut init: impl FnMut(Range<usize>) -> S,
    band: impl Fn(Range<usize>, &mut S) + Sync,
    mut done: impl FnMut(S),
) {
    let count = if rows.saturating_mul(row_work) < PARALLEL_WORK_CUTOFF {
        1
    } else {
        threads.clamp(1, rows)
    };
    if count == 1 {
        let mut state = init(0..rows);
        band(0..rows, &mut state);
        done(state);
        return;
    }
    let (base, extra) = (rows / count, rows % count);
    let bounds = |b: usize| {
        let start = b * base + b.min(extra);
        start..start + base + usize::from(b < extra)
    };
    let mut states: Vec<S> = (0..count).map(|b| init(bounds(b))).collect();
    let states_ptr = SendPtr(states.as_mut_ptr());
    pool().run(count, &|b| {
        // SAFETY: `Pool::run` calls every index below `count` exactly once
        // and returns only after the last call finished, so each call gets
        // the only reference to its own element of `states`, which lives
        // until after the run.
        let state = unsafe { &mut *states_ptr.get().add(b) };
        band(bounds(b), state);
    });
    states.into_iter().for_each(done);
}

/// Split `a` (`rows x a_cols`) and `out` (`rows x out_cols`) into matching
/// row bands and run `kernel(a_band, band_rows, out_band)` on each, through
/// [`par_bands`] with `a_cols * out_cols` multiply-adds per row: one band on
/// the calling thread for a small product, else one per thread. Each row's
/// accumulation order is internal to `kernel`, so the result is
/// bit-identical for every thread count.
pub(crate) fn par_row_bands<T, F>(
    rows: usize,
    threads: usize,
    a: &[T],
    a_cols: usize,
    out: &mut [T],
    out_cols: usize,
    kernel: F,
) where
    T: Elem,
    F: Fn(&[T], usize, &mut [T]) + Sync,
{
    debug_assert_eq!(a.len(), rows * a_cols);
    debug_assert_eq!(out.len(), rows * out_cols);
    let mut rest = out;
    par_bands(
        rows,
        a_cols * out_cols,
        threads,
        |band| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(band.len() * out_cols);
            rest = tail;
            head
        },
        |band, out_band| {
            kernel(
                &a[band.start * a_cols..band.end * a_cols],
                band.len(),
                out_band,
            )
        },
        |_| {},
    );
}

/// Serial-or-banded `a (n x k_dim) · b (k_dim x m)` over raw slabs, generic
/// over the element type — the model projection in both scoring precisions.
/// Rows of `a` are split into contiguous bands run by the persistent pool and
/// the calling thread, each band through `gemm_into` (on AVX2, four rows
/// per pass and the band's leftover rows one at a time); banding never
/// changes a row's accumulation order, so the result is **bit-identical** to
/// [`Matrix::matmul`] for every thread count. Small products run the serial
/// kernel unconditionally.
pub(crate) fn gemm_parallel<T: Elem>(
    a: &[T],
    n: usize,
    k_dim: usize,
    b: &[T],
    m: usize,
    threads: usize,
) -> Vec<T> {
    let mut out = vec![T::ZERO; n * m];
    par_row_bands(
        n,
        threads,
        a,
        k_dim,
        &mut out,
        m,
        |a_band, rows, out_band| gemm_into(a_band, rows, k_dim, b, m, out_band, false),
    );
    out
}

/// RBF Gram `exp(-width · ‖x_i − a_j‖²) : n x m`, row-banded over the pool.
/// Each output row is computed with a fixed summation order (ascending anchor
/// index, then ascending feature index) that banding never touches, so
/// parallel results are bit-identical to serial for every thread count — the
/// guarantee `kernel_map` documents.
pub(crate) fn rbf_gram_parallel<T: Elem>(
    x: &[T],
    n: usize,
    d: usize,
    anchors: &[T],
    m: usize,
    width: T,
    threads: usize,
) -> Vec<T> {
    debug_assert_eq!(x.len(), n * d);
    debug_assert_eq!(anchors.len(), m * d);
    let mut out = vec![T::ZERO; n * m];
    let rbf_rows = |x_band: &[T], rows: usize, out_band: &mut [T]| {
        for i in 0..rows {
            let xi = &x_band[i * d..(i + 1) * d];
            let out_row = &mut out_band[i * m..(i + 1) * m];
            for (j, o) in out_row.iter_mut().enumerate() {
                let aj = &anchors[j * d..(j + 1) * d];
                let mut s = T::ZERO;
                for (&xv, &av) in xi.iter().zip(aj) {
                    let diff = xv - av;
                    s += diff * diff;
                }
                *o = (-(width * s)).exp();
            }
        }
    };
    par_row_bands(n, threads, x, d, &mut out, m, rbf_rows);
    out
}

/// Scale every `cols`-wide row of `data` to unit L2 norm in place, skipping
/// rows whose norm is at or below [`NORM_EPSILON`] (in `T`'s precision) —
/// the generic slab form behind [`Matrix::l2_normalize_rows`] and cosine
/// scoring in both precisions. The `Matrix` method delegates here, so both
/// run the same sum-then-sqrt-then-divide sequence.
pub(crate) fn l2_normalize_rows_slab<T: Elem>(data: &mut [T], cols: usize) {
    if cols == 0 {
        return;
    }
    for row in data.chunks_mut(cols) {
        let mut sq = T::ZERO;
        for &v in row.iter() {
            sq += v * v;
        }
        let norm = sq.sqrt();
        if norm > T::from_f64(NORM_EPSILON) {
            for v in row {
                *v /= norm;
            }
        }
    }
}

/// Errors produced by factorizations and solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix handed to [`Matrix::cholesky`] was not symmetric
    /// positive-definite (a non-positive pivot was encountered).
    NotPositiveDefinite { pivot_index: usize },
    /// Operand shapes do not line up for the requested operation.
    ShapeMismatch {
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// The spectral Sylvester solve hit an eigenvalue pair whose sum is
    /// numerically zero, so `AX + XB = C` has no unique solution.
    SingularSylvester { detail: String },
    /// An entry that [`Matrix::cholesky`] or [`Matrix::symmetric_eigen`]
    /// reads is NaN or infinite.
    NonFinite { row: usize, col: usize },
    /// The implicit-shift QL iteration of [`Matrix::symmetric_eigen`] spent
    /// its iteration cap on eigenvalue `index` without deflating it.
    NoConvergence { index: usize },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot_index } => write!(
                f,
                "matrix is not symmetric positive-definite (pivot {pivot_index} <= 0)"
            ),
            LinalgError::ShapeMismatch { expected, got } => write!(
                f,
                "shape mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            LinalgError::SingularSylvester { detail } => {
                write!(f, "singular Sylvester system: {detail}")
            }
            LinalgError::NonFinite { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is not finite")
            }
            LinalgError::NoConvergence { index } => write!(
                f,
                "eigensolver did not converge on eigenvalue {index} within \
                 {MAX_QL_ITERATIONS} QL iterations"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix of `f64`.
///
/// Row-major layout matches the "one row per sample / per class signature"
/// convention used throughout the crate: `X` is `n_samples x feature_dim`,
/// signatures `S` are `n_classes x attr_dim`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// An all-zeros `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from row slices. Panics if rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Element at `(r, c)`. Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`. Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    ///
    /// On a CPU with AVX2, four rows of `self` share each pass over `other`,
    /// and each 4 x 8 block of the output is accumulated in registers over
    /// the whole inner dimension; elsewhere a blocked `i-k-j` loop over
    /// `BLOCK`-sized tiles streams a row of `other` into a row of the
    /// output. Every output adds its products in ascending inner index on
    /// both instances, so the bits are the same on every host ([`kernel_isa`]
    /// names the instance). Verified against a textbook triple loop in the
    /// test suite.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k_dim, m) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(n, m);
        gemm_into(&self.data, n, k_dim, &other.data, m, &mut out.data, false);
        out
    }

    /// `self · otherᵀ` without materializing the transpose: `other` is read
    /// as a packed `z x k` row-major bank, so every inner product streams two
    /// contiguous rows. This is the natural layout for the scoring shape
    /// `X · Sᵀ`, where `other` holds one class signature per row.
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_bt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        gemm_bt_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
        out
    }

    /// Accumulate `self += aᵀ · b` where `a` is `n x rows(self)` and `b` is
    /// `n x cols(self)` — the Gram-fold primitive behind out-of-core
    /// training.
    ///
    /// Runs the same dispatched kernel as [`Matrix::matmul`] (the AVX2
    /// instance where [`kernel_isa`] reads `"avx2"`), which adds into each
    /// output element in strictly ascending order over `a`'s rows.
    /// Folding a tall matrix as consecutive row slabs therefore performs the
    /// *identical* floating-point addition sequence as
    /// `a.transpose().matmul(&b)` in one shot: streamed Gram matrices are
    /// bit-identical to the in-memory product for every chunk size (the
    /// differential suite in `tests/streaming_equiv.rs` pins this). The
    /// fold itself runs in fixed row slabs for the same reason, so it never
    /// copies more than one slab of `a`.
    pub fn add_transposed_product(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            a.rows, b.rows,
            "add_transposed_product shape mismatch: ({}x{})ᵀ * {}x{}",
            a.rows, a.cols, b.rows, b.cols
        );
        assert_eq!(
            (self.rows, self.cols),
            (a.cols, b.cols),
            "add_transposed_product output must be {}x{}, got {}x{}",
            a.cols,
            b.cols,
            self.rows,
            self.cols
        );
        self.fold_slabs(a, b, false);
    }

    /// Accumulate `self += aᵀ · a` into a symmetric `self` — the `XᵀX` half
    /// of the Gram fold at half the multiply-adds of
    /// [`Matrix::add_transposed_product`].
    ///
    /// Only the tiles on and above the diagonal are accumulated; the tiles
    /// below are then copied from their mirror images. Entries `(i, j)` and
    /// `(j, i)` sum the same products in the same ascending-row order, so
    /// the result is bit-identical to `add_transposed_product(a, a)` and
    /// exactly symmetric, provided `self` was symmetric on entry.
    ///
    /// The triangle runs the portable tiled kernel on every host. The AVX2
    /// instance would roughly halve fit-sae's time, but that benchmark holds
    /// every fitted model inside its peak-RSS window, so a faster fit reads
    /// as a memory regression there until it drops each op's model.
    pub(crate) fn add_gram(&mut self, a: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (a.cols, a.cols),
            "add_gram output must be {}x{}, got {}x{}",
            a.cols,
            a.cols,
            self.rows,
            self.cols
        );
        self.fold_slabs(a, a, true);
        let n = self.cols;
        for i in BLOCK..n {
            let below = i / BLOCK * BLOCK;
            for j in 0..below {
                self.data[i * n + j] = self.data[j * n + i];
            }
        }
    }

    /// `self += aᵀ · b`, transposing `a` one slab of [`FOLD_SLAB_ROWS`] rows
    /// at a time into a reused buffer; with `upper`, only the tiles on and
    /// above the diagonal of (square) `self`. `gemm_into` adds each slab's
    /// products after the previous slab's, in ascending row order, so the
    /// slab size never changes a bit.
    fn fold_slabs(&mut self, a: &Matrix, b: &Matrix, upper: bool) {
        let (d, m) = (a.cols, b.cols);
        let mut at = Vec::with_capacity(d * a.rows.min(FOLD_SLAB_ROWS));
        for start in (0..a.rows).step_by(FOLD_SLAB_ROWS) {
            let rows = FOLD_SLAB_ROWS.min(a.rows - start);
            at.clear();
            at.resize(d * rows, 0.0);
            for r in 0..rows {
                let src = &a.data[(start + r) * d..(start + r + 1) * d];
                for (c, &v) in src.iter().enumerate() {
                    at[c * rows + r] = v;
                }
            }
            let b_slab = &b.data[start * m..(start + rows) * m];
            gemm_into(&at, d, rows, b_slab, m, &mut self.data, upper);
        }
    }

    /// Copy of the contiguous row slab `range.start..range.end` — the
    /// building block for chunked streaming over huge sample matrices.
    pub fn row_block(&self, range: std::ops::Range<usize>) -> Matrix {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {}..{} out of bounds for {} rows",
            range.start,
            range.end,
            self.rows
        );
        Matrix {
            rows: range.end - range.start,
            cols: self.cols,
            data: self.data[range.start * self.cols..range.end * self.cols].to_vec(),
        }
    }

    /// Copy of arbitrary (possibly repeated, unordered) rows into a new
    /// matrix — the gather primitive behind split materialization and k-fold
    /// subset extraction. Panics on an out-of-range index; callers validate
    /// indices against their own error types first.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(
                src < self.rows,
                "row index {src} out of bounds for {} rows",
                self.rows
            );
            out.data[dst * self.cols..(dst + 1) * self.cols]
                .copy_from_slice(&self.data[src * self.cols..(src + 1) * self.cols]);
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Scale every row to unit L2 norm, in place.
    ///
    /// Rows whose norm is at or below [`NORM_EPSILON`] are left unchanged so
    /// that zero rows (e.g. an absent attribute signature) never produce NaNs.
    pub fn l2_normalize_rows(&mut self) {
        l2_normalize_rows_slab(&mut self.data, self.cols);
    }

    /// Add `gamma` to every diagonal element, in place (ridge regularization).
    /// Panics if the matrix is not square.
    pub fn add_scaled_identity(&mut self, gamma: f64) {
        assert_eq!(
            self.rows, self.cols,
            "add_scaled_identity needs a square matrix"
        );
        for i in 0..self.rows {
            self.data[i * self.cols + i] += gamma;
        }
    }

    /// Frobenius norm `sqrt(sum a_ij^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute elementwise difference to `other`.
    /// Panics if shapes differ. Handy for approximate test assertions.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix. Only the lower triangle of `self` is read.
    ///
    /// Entry `(i, j)` of `L` is `A_ij − Σ_{k<j} L_ik·L_jk`, subtracted in
    /// ascending `k`, then its square root on the diagonal or its quotient
    /// by the pivot `L_jj` below it. The factorization works in column order
    /// on a column-major copy of the lower triangle, four columns per pass,
    /// so independent entries advance side by side in register blocks: on a
    /// CPU with AVX2 through an AVX2 instance, elsewhere through the portable
    /// one. Each entry keeps its own sequence whichever instance runs, so the
    /// bits are the same on every host ([`kernel_isa`] names the instance).
    /// The copy is transposed in place into the row-major factor, so a
    /// factorization allocates one `n x n` buffer.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] for non-square input.
    /// - [`LinalgError::NonFinite`] if an entry of the lower triangle is NaN
    ///   or infinite: the first in row-major order, before any arithmetic.
    /// - [`LinalgError::NotPositiveDefinite`] for the first pivot that is not
    ///   positive, including a pivot that overflow turned into NaN.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        self.cholesky_by(factor_columns)
    }

    /// [`Matrix::cholesky`] through `factor`, an instance of the column
    /// passes (the tests call each instance directly).
    fn cholesky_by(&self, factor: ColumnPasses) -> Result<Cholesky, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, self.rows),
                got: (self.rows, self.cols),
            });
        }
        let n = self.rows;
        for row in 0..n {
            if let Some(col) = (0..=row).find(|&col| !self.data[row * n + col].is_finite()) {
                return Err(LinalgError::NonFinite { row, col });
            }
        }
        // Column j of the working copy, `ld` entries after column j - 1,
        // holds column j of the lower triangle from row j down; the slots
        // above the diagonal stay zero. `ld` is an odd number of 64-byte
        // lines, so the columns a pass reads spread over every cache set: at
        // n = 256, a stride of n put them all in two L1 sets, and the
        // factorization took 0.79–0.87 ms against 0.34–0.50 ms padded
        // (AVX2 instance, serial, on an Intel Xeon, family 6, model 207).
        let ld = n / 16 * 16 + if n % 16 <= 8 { 8 } else { 24 };
        let mut w = vec![0.0; n * ld];
        for i in 0..n {
            for j in 0..=i {
                w[j * ld + i] = self.data[i * n + j];
            }
        }
        factor(&mut w, ld, n)
            .map_err(|pivot_index| LinalgError::NotPositiveDefinite { pivot_index })?;
        for i in 0..n {
            for j in 0..i {
                w.swap(i * ld + j, j * ld + i);
            }
        }
        for i in 1..n {
            w.copy_within(i * ld..i * ld + n, i * n);
        }
        w.truncate(n * n);
        Ok(Cholesky {
            l: Matrix::from_vec(n, n, w),
        })
    }
}

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`, reusable across
/// many right-hand sides (the ESZSL trainer solves against whole matrices).
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A X = B` for all right-hand sides, returning `X` with `B`'s
    /// shape.
    ///
    /// Works on one copy of `B` in its own row-major layout: forward
    /// substitution (`L Y = B`) row by row, then back substitution
    /// (`Lᵀ X = Y`) rows descending. Each row advances a block of
    /// right-hand sides side by side in registers (an AVX2 instance on a CPU
    /// with AVX2, the portable one elsewhere), narrowing to 8, 4 and then
    /// single columns at the right edge. Every entry subtracts its terms in
    /// ascending `k` and then divides by the pivot, the sequence of solving
    /// its column alone, so the bits are the same on every host and for
    /// every column count.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `B` does not have [`Cholesky::dim`]
    /// rows.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        self.solve_by(b, substitute)
    }

    /// [`Cholesky::solve_matrix`] through `solve`, an instance of the
    /// substitutions (the tests call each instance directly).
    fn solve_by(&self, b: &Matrix, solve: Substitutions) -> Result<Matrix, LinalgError> {
        let n = self.l.rows;
        if b.rows != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, b.cols),
                got: (b.rows, b.cols),
            });
        }
        let mut x = b.clone();
        solve(&self.l.data, n, &mut x.data, b.cols);
        Ok(x)
    }
}

/// An instance of the Cholesky column passes over an `n x n` working copy
/// stored by columns `ld` entries apart; `Err` carries the index of the
/// first failing pivot.
type ColumnPasses = fn(&mut [f64], usize, usize) -> Result<(), usize>;

/// An instance of the two triangular substitutions: the factor `L`
/// (row-major `n x n`) against the `n x m` right-hand sides, in place.
type Substitutions = fn(&[f64], usize, &mut [f64], usize);

/// The dispatched column passes of [`Matrix::cholesky`]: `cholesky_avx2` on
/// a CPU with AVX2, `cholesky_portable` elsewhere.
fn factor_columns(w: &mut [f64], ld: usize, n: usize) -> Result<(), usize> {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if has_avx2() {
        // SAFETY: `has_avx2` is true only when the running CPU reports AVX2,
        // the one feature `cholesky_avx2` is compiled for.
        return unsafe { cholesky_avx2(w, ld, n) };
    }
    cholesky_portable(w, ld, n)
}

/// The portable instance of the column passes, built for the target's
/// baseline ISA.
fn cholesky_portable(w: &mut [f64], ld: usize, n: usize) -> Result<(), usize> {
    cholesky_columns(w, ld, n)
}

/// The AVX2 instance of the column passes: the same body compiled with AVX2
/// (never FMA).
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn cholesky_avx2(w: &mut [f64], ld: usize, n: usize) -> Result<(), usize> {
    cholesky_columns(w, ld, n)
}

/// Factor the lower triangle stored by columns in `w` in place: passes of
/// four columns, then the `n mod 4` columns left over one per pass. Pivots
/// are checked in ascending order, so the first failing one is reported.
#[inline(always)]
fn cholesky_columns(w: &mut [f64], ld: usize, n: usize) -> Result<(), usize> {
    let fours = n - n % 4;
    for j in (0..fours).step_by(4) {
        cholesky_pass::<4>(w, ld, n, j)?;
    }
    for j in fours..n {
        cholesky_pass::<1>(w, ld, n, j)?;
    }
    Ok(())
}

/// Columns `j..j + C` of `L`, whose earlier columns are final. First the
/// `C x C` diagonal block: it subtracts the terms of the earlier columns in
/// ascending `k` (its entries above the diagonal are computed and dropped),
/// then, column by column, the terms of this pass's earlier columns, the
/// pivot check and square root, and the division by the pivot. Then the
/// rows below in register blocks of 8, 4 and 1 rows, through the same
/// sequence with the diagonal block's values.
#[inline(always)]
fn cholesky_pass<const C: usize>(
    w: &mut [f64],
    ld: usize,
    n: usize,
    j: usize,
) -> Result<(), usize> {
    // diag[t][r] is entry (j + r, j + t).
    let mut diag = [[0.0; C]; C];
    for (t, col) in diag.iter_mut().enumerate() {
        col.copy_from_slice(&w[(j + t) * ld + j..(j + t) * ld + j + C]);
    }
    for l_k in w[..j * ld].chunks_exact(ld) {
        let l_k = &l_k[j..j + C];
        for (col, &l_jk) in diag.iter_mut().zip(l_k) {
            for (v, &l_ik) in col.iter_mut().zip(l_k) {
                *v -= l_ik * l_jk;
            }
        }
    }
    for t in 0..C {
        for s in 0..t {
            let (l_s, l_ts) = (diag[s], diag[s][t]);
            for r in t..C {
                diag[t][r] -= l_s[r] * l_ts;
            }
        }
        let pivot = diag[t][t];
        // A pivot that overflow turned into NaN fails too.
        if pivot.is_nan() || pivot <= 0.0 {
            return Err(j + t);
        }
        diag[t][t] = pivot.sqrt();
        for r in t + 1..C {
            diag[t][r] /= diag[t][t];
        }
        w[(j + t) * ld + j + t..(j + t) * ld + j + C].copy_from_slice(&diag[t][t..]);
    }
    let mut i = j + C;
    while i + 8 <= n {
        cholesky_rows::<C, 8>(w, ld, j, i, &diag);
        i += 8;
    }
    if i + 4 <= n {
        cholesky_rows::<C, 4>(w, ld, j, i, &diag);
        i += 4;
    }
    for i in i..n {
        cholesky_rows::<C, 1>(w, ld, j, i, &diag);
    }
    Ok(())
}

/// Rows `i..i + R` of columns `j..j + C` (all below the diagonal block
/// `diag`): an `R x C` block of accumulators loaded from `w` subtracts
/// `L_ik·L_jk` for every earlier column `k` in ascending order, each load of
/// column `k` serving all `C` columns; then, column by column, the terms of
/// this pass's earlier columns and the division by the pivot. The block is
/// a fixed-size array moved in fixed-length copies, so it stays in
/// registers.
#[inline(always)]
fn cholesky_rows<const C: usize, const R: usize>(
    w: &mut [f64],
    ld: usize,
    j: usize,
    i: usize,
    diag: &[[f64; C]; C],
) {
    // acc[t][r] is entry (i + r, j + t).
    let mut acc = [[0.0; R]; C];
    for (t, rows) in acc.iter_mut().enumerate() {
        rows.copy_from_slice(&w[(j + t) * ld + i..(j + t) * ld + i + R]);
    }
    for l_k in w[..j * ld].chunks_exact(ld) {
        let l_i: &[f64; R] = l_k[i..i + R].try_into().expect("R rows");
        let l_j: &[f64; C] = l_k[j..j + C].try_into().expect("C columns");
        for (rows, &l_jk) in acc.iter_mut().zip(l_j) {
            for (v, &l_ik) in rows.iter_mut().zip(l_i) {
                *v -= l_ik * l_jk;
            }
        }
    }
    for t in 0..C {
        for s in 0..t {
            let (l_s, l_ts) = (acc[s], diag[s][t]);
            for (v, &l_is) in acc[t].iter_mut().zip(&l_s) {
                *v -= l_is * l_ts;
            }
        }
        let pivot = diag[t][t];
        for v in acc[t].iter_mut() {
            *v /= pivot;
        }
    }
    for (t, rows) in acc.iter().enumerate() {
        w[(j + t) * ld + i..(j + t) * ld + i + R].copy_from_slice(rows);
    }
}

/// The dispatched substitutions of [`Cholesky::solve_matrix`]:
/// `substitute_avx2` on a CPU with AVX2, `substitute_portable` elsewhere.
fn substitute(l: &[f64], n: usize, x: &mut [f64], m: usize) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if has_avx2() {
        // SAFETY: `has_avx2` is true only when the running CPU reports AVX2,
        // the one feature `substitute_avx2` is compiled for.
        unsafe { substitute_avx2(l, n, x, m) };
        return;
    }
    substitute_portable(l, n, x, m);
}

/// The portable instance of the substitutions, built for the target's
/// baseline ISA: 16 right-hand sides per block, eight 128-bit accumulators.
fn substitute_portable(l: &[f64], n: usize, x: &mut [f64], m: usize) {
    substitutions::<16>(l, n, x, m);
}

/// The AVX2 instance of the substitutions (never FMA): 32 right-hand sides
/// per block, eight 256-bit accumulators.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn substitute_avx2(l: &[f64], n: usize, x: &mut [f64], m: usize) {
    substitutions::<32>(l, n, x, m);
}

/// `L Y = X` then `Lᵀ X = Y`, in place on the row-major `n x m` `x`. The
/// forward pass goes row by row, subtracting `L_ik·y_k` in ascending `k`;
/// the backward pass goes rows descending, subtracting `L_ki·x_k` in
/// ascending `k`; each row then divides by its pivot `L_ii`. That is the
/// sequence of each column solved alone.
#[inline(always)]
fn substitutions<const W: usize>(l: &[f64], n: usize, x: &mut [f64], m: usize) {
    for i in 0..n {
        let row = &l[i * n..i * n + i];
        substitute_row::<W>(x, m, i, row.iter().copied().enumerate(), l[i * n + i]);
    }
    for i in (0..n).rev() {
        let column = (i + 1..n).map(|k| (k, l[k * n + i]));
        substitute_row::<W>(x, m, i, column, l[i * n + i]);
    }
}

/// Row `i` of `x`, in blocks of `W` right-hand sides, then 8, then 4, then
/// one: subtract `l_k · x_k` for each `(k, l_k)` of `terms` in order, then
/// divide by `pivot`.
#[inline(always)]
fn substitute_row<const W: usize>(
    x: &mut [f64],
    m: usize,
    i: usize,
    terms: impl Iterator<Item = (usize, f64)> + Clone,
    pivot: f64,
) {
    let mut c = 0;
    while c + W <= m {
        substitute_block::<W>(x, m, i, c, terms.clone(), pivot);
        c += W;
    }
    while c + 8 <= m {
        substitute_block::<8>(x, m, i, c, terms.clone(), pivot);
        c += 8;
    }
    if c + 4 <= m {
        substitute_block::<4>(x, m, i, c, terms.clone(), pivot);
        c += 4;
    }
    for c in c..m {
        substitute_block::<1>(x, m, i, c, terms.clone(), pivot);
    }
}

/// Columns `c..c + B` of row `i`: `B` accumulators loaded from `x` run the
/// whole of `terms` and are divided by `pivot` and written back.
#[inline(always)]
fn substitute_block<const B: usize>(
    x: &mut [f64],
    m: usize,
    i: usize,
    c: usize,
    terms: impl Iterator<Item = (usize, f64)>,
    pivot: f64,
) {
    let mut acc = [0.0; B];
    acc.copy_from_slice(&x[i * m + c..i * m + c + B]);
    for (k, l_k) in terms {
        for (v, &x_k) in acc.iter_mut().zip(&x[k * m + c..k * m + c + B]) {
            *v -= l_k * x_k;
        }
    }
    for v in acc.iter_mut() {
        *v /= pivot;
    }
    x[i * m + c..i * m + c + B].copy_from_slice(&acc);
}

/// Iteration cap of the implicit-shift QL sweep on any one eigenvalue, the
/// cap LAPACK's `dsteqr` uses. The shifted iteration converges cubically, so
/// an eigenvalue typically deflates within two or three iterations; reaching
/// the cap means the iteration stalled, as it does once a NaN gets in.
const MAX_QL_ITERATIONS: usize = 30;

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix, from
/// [`Matrix::symmetric_eigen`].
///
/// Column `j` of [`SymmetricEigen::vectors`] is the (unit-norm) eigenvector
/// for `values[j]`. Eigenvalues are unsorted — they come out in the order
/// the QL iteration deflates them — so callers that need an order sort
/// themselves. The computation is serial and fully deterministic: identical
/// input bits give identical output bits, which is what lets the SAE trainer
/// inherit the streamed-equals-in-memory bit-identity guarantee from its
/// (chunk-order-invariant) accumulated inputs.
#[derive(Clone, Debug)]
pub struct SymmetricEigen {
    values: Vec<f64>,
    vectors: Matrix,
}

impl SymmetricEigen {
    /// The eigenvalues, unsorted.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The orthogonal eigenvector matrix `V` (one eigenvector per column).
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }
}

impl Matrix {
    /// Eigendecomposition of a symmetric matrix: Householder reduction to
    /// tridiagonal form, then implicit-shift QL that accumulates the
    /// eigenvectors (EISPACK `tred2` and `tql2`), in `O(n³)` serial work.
    ///
    /// Only the upper triangle (entries `(i, j)` with `i <= j`) is read; the
    /// strictly-lower triangle is taken to mirror it. Eigenvalues come out
    /// unsorted (see [`SymmetricEigen`]).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] for non-square input.
    /// - [`LinalgError::NonFinite`] if an entry of the upper triangle is NaN
    ///   or infinite.
    /// - [`LinalgError::NoConvergence`] if the QL iteration spends 30
    ///   iterations (LAPACK `dsteqr`'s cap) on one eigenvalue without
    ///   deflating it.
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, self.rows),
                got: (self.rows, self.cols),
            });
        }
        let n = self.rows;
        for row in 0..n {
            if let Some(col) = (row..n).find(|&col| !self.data[row * n + col].is_finite()) {
                return Err(LinalgError::NonFinite { row, col });
            }
        }
        // `w` holds the transposed working matrix — the eigenvectors end up
        // in its rows, transposed into columns at the end — so every inner
        // loop below walks one contiguous row.
        let mut w = self.data.clone();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(&mut w, n, &mut d, &mut e);
        tridiagonal_ql(&mut w, n, &mut d, &mut e)?;
        for i in 0..n {
            for j in i + 1..n {
                w.swap(i * n + j, j * n + i);
            }
        }
        Ok(SymmetricEigen {
            values: d,
            vectors: Matrix {
                rows: n,
                cols: n,
                data: w,
            },
        })
    }
}

/// Householder reduction of the symmetric `n x n` matrix in the upper
/// triangle of `w` (row-major) to tridiagonal form `T = Qᵀ A Q` — EISPACK
/// `tred2` on the transposed matrix, so each inner loop walks a row of `w`.
/// On return `d` holds the diagonal of `T`, `e[1..]` its subdiagonal
/// (`e[0] = 0`), and row `j` of `w` holds column `j` of `Q`.
fn tridiagonalize(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    if n == 0 {
        return;
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|v| v.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            // Column `i` is already reduced: no reflection.
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // The Householder vector `u`, scaled against under- and overflow.
            for v in &mut d[..i] {
                *v /= scale;
                h += *v * *v;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // `e = A u` over the active block, read from its upper triangle;
            // `u` is kept in row `i` for the accumulation below.
            for j in 0..i {
                let f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n + j..j * n + i];
                let mut g = e[j] + row[0] * f;
                for ((&wjk, &dk), ek) in row[1..].iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i]) {
                    g += wjk * dk;
                    *ek += wjk * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            // Rank-two update `A -= u pᵀ + p uᵀ` of the active block.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w[j * n + j..j * n + i];
                for ((wjk, &ek), &dk) in row.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *wjk -= f * ek + g * dk;
                }
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate `Q` from the stored Householder vectors, one row of `w` at
    // a time; the diagonal of `T` waits in the last column meanwhile.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        let (done, rest) = w.split_at_mut((i + 1) * n);
        let u = &mut rest[..=i];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for j in 0..=i {
                let row = &mut done[j * n..j * n + i + 1];
                let g = dot(u, row);
                for (wjk, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *wjk -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Eigenvalues and eigenvectors of the symmetric tridiagonal matrix with
/// diagonal `d` and subdiagonal `e[1..]`, by implicit-shift QL — EISPACK
/// `tql2`. Each plane rotation is applied to two rows of `w`, which on entry
/// holds the transform from [`tridiagonalize`] and on return the
/// eigenvectors, one per row; `d` returns the eigenvalues, unsorted.
fn tridiagonal_ql(
    w: &mut [f64],
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
) -> Result<(), LinalgError> {
    if n == 0 {
        return Ok(());
    }
    e.copy_within(1..n, 0);
    e[n - 1] = 0.0;
    let mut shift = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Find the first negligible subdiagonal entry at or after `l`. Both
        // tests are written so that NaN never counts as negligible.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let m = (l..n)
            .find(|&m| e[m].abs() <= f64::EPSILON * tst1)
            .unwrap_or(n - 1);
        let mut converged = m == l;
        let mut iterations = 0;
        while !converged {
            if iterations == MAX_QL_ITERATIONS {
                return Err(LinalgError::NoConvergence { index: l });
            }
            iterations += 1;
            // Implicit shift from the leading 2 x 2 block.
            let g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = p.hypot(1.0).copysign(p);
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for v in &mut d[l + 2..] {
                *v -= h;
            }
            shift += h;
            // One QL sweep of plane rotations from `m` back to `l`.
            p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (head, tail) = w.split_at_mut((i + 1) * n);
                let (vi, vj) = (&mut head[i * n..], &mut tail[..n]);
                for (a, b) in vi.iter_mut().zip(vj.iter_mut()) {
                    let h = *b;
                    *b = s * *a + c * h;
                    *a = c * *a - s * h;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
            converged = e[l].abs() <= f64::EPSILON * tst1;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    Ok(())
}

/// Solve the Sylvester equation `A X + X B = C` for symmetric `A` (`p x p`)
/// and `B` (`q x q`) with `C` of shape `p x q` — the closed form behind the
/// SAE trainer (Bartels–Stewart specialized to the symmetric case via two
/// eigendecompositions).
///
/// With `A = U diag(α) Uᵀ` and `B = V diag(β) Vᵀ`, the transformed system is
/// diagonal: `X̃ij = C̃ij / (αi + βj)` where `C̃ = Uᵀ C V`, and
/// `X = U X̃ Vᵀ`. An eigenvalue pair with `αi + βj` numerically zero (below
/// `1e-12` relative to the spectrum) is a [`LinalgError::SingularSylvester`]
/// — for the SAE system both operands are positive semi-definite with at
/// least one positive definite, so this never fires on valid training input.
pub fn solve_sylvester(a: &Matrix, b: &Matrix, c: &Matrix) -> Result<Matrix, LinalgError> {
    if c.rows() != a.rows() || c.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            expected: (a.rows(), b.rows()),
            got: (c.rows(), c.cols()),
        });
    }
    let ea = a.symmetric_eigen()?;
    let eb = b.symmetric_eigen()?;
    let ct = ea.vectors().transpose().matmul(c).matmul(eb.vectors());
    let scale = ea
        .values()
        .iter()
        .chain(eb.values())
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1.0);
    let (p, q) = (c.rows(), c.cols());
    let mut xt = Matrix::zeros(p, q);
    for i in 0..p {
        for j in 0..q {
            let denom = ea.values()[i] + eb.values()[j];
            if denom.abs() <= scale * 1e-12 {
                return Err(LinalgError::SingularSylvester {
                    detail: format!(
                        "eigenvalue pair ({}, {}) sums to {denom:e}, below the conditioning floor",
                        ea.values()[i],
                        eb.values()[j]
                    ),
                });
            }
            xt.data[i * q + j] = ct.data[i * q + j] / denom;
        }
    }
    Ok(ea.vectors().matmul(&xt).matmul(&eb.vectors().transpose()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::data::Rng;

    /// The bank product in the order every instance of [`gemm_bt_tiles`]
    /// must reproduce, one output at a time: one sequential accumulator in
    /// ascending `k` per output, except the last `z mod 4` classes, which
    /// [`dot`] sums four ways. The oracle of the tile body here and of the
    /// fused scoring fold in `infer`.
    pub(crate) fn gemm_bt_reference<T: Elem>(
        a: &[T],
        n: usize,
        k_dim: usize,
        bt: &[T],
        z: usize,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(n * z);
        for i in 0..n {
            let a_row = &a[i * k_dim..(i + 1) * k_dim];
            for j in 0..z {
                let b_row = &bt[j * k_dim..(j + 1) * k_dim];
                out.push(if j < z - z % 4 {
                    let mut acc = T::ZERO;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    acc
                } else {
                    dot(a_row, b_row)
                });
            }
        }
        out
    }

    /// `a · btᵀ` banded over the pool at `threads`, as the linear kernel map
    /// runs it.
    fn banded_bt(a: &[f64], n: usize, k: usize, bt: &[f64], z: usize, threads: usize) -> Vec<f64> {
        let mut out = vec![0.0; n * z];
        par_row_bands(n, threads, a, k, &mut out, z, |a_band, rows, out_band| {
            gemm_bt_into(a_band, rows, k, bt, z, out_band)
        });
        out
    }

    /// A `Vec` of either precision widened to `f64`.
    fn widened<T: Elem>(mut v: Vec<T>) -> Vec<f64> {
        let mut wide = Vec::new();
        T::widen(&mut v, &mut wide).to_vec()
    }

    fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols).map(|_| rng.normal()).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Textbook triple-loop product: the oracle the blocked kernel is tested
    /// against.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut acc = 0.0;
                for k in 0..a.cols {
                    acc += a.data[i * a.cols + k] * b.data[k * b.cols + j];
                }
                out.data[i * b.cols + j] = acc;
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_matches_naive_across_block_boundaries() {
        let mut rng = Rng::new(42);
        // Sizes straddle the 64-wide tile on every axis.
        for &(n, k, m) in &[(1, 1, 1), (3, 5, 2), (63, 64, 65), (70, 129, 33)] {
            let a = random_matrix(&mut rng, n, k);
            let b = random_matrix(&mut rng, k, m);
            let fast = a.matmul(&b);
            let slow = matmul_naive(&a, &b);
            assert!(
                fast.max_abs_diff(&slow) < 1e-9,
                "blocked vs naive diverged at {n}x{k}x{m}"
            );
        }
    }

    #[test]
    fn parallel_matmul_is_bit_identical_across_thread_counts() {
        let mut rng = Rng::new(17);
        // Shapes straddle the 64-wide tile and include sizes above and below
        // the parallel work cutoff; thread counts exceed both row count and
        // hardware parallelism to exercise the clamps.
        for &(n, k, m) in &[
            (1, 1, 1),
            (5, 3, 2),
            (63, 64, 65),
            (70, 129, 33),
            (256, 96, 48),
        ] {
            let a = random_matrix(&mut rng, n, k);
            let b = random_matrix(&mut rng, k, m);
            let serial = a.matmul(&b);
            for threads in [1, 2, 3, 7, 16] {
                let parallel = gemm_parallel(&a.data, n, k, &b.data, m, threads);
                assert_eq!(
                    parallel.as_slice(),
                    serial.as_slice(),
                    "parallel matmul diverged at {n}x{k}x{m} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose_product() {
        let mut rng = Rng::new(23);
        for &(n, k, z) in &[(1, 1, 1), (4, 7, 3), (63, 65, 64), (70, 129, 33)] {
            let a = random_matrix(&mut rng, n, k);
            let b = random_matrix(&mut rng, z, k);
            let via_transpose = a.matmul(&b.transpose());
            let packed = a.matmul_bt(&b);
            assert!(
                packed.max_abs_diff(&via_transpose) < 1e-9,
                "matmul_bt diverged at {n}x{k} * ({z}x{k})ᵀ"
            );
            for threads in [1, 2, 5, 16] {
                let parallel = banded_bt(&a.data, n, k, &b.data, z, threads);
                assert_eq!(
                    parallel.as_slice(),
                    packed.as_slice(),
                    "parallel matmul_bt diverged at {n}x{k} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn add_transposed_product_over_row_slabs_is_bit_identical_to_one_shot() {
        let mut rng = Rng::new(61);
        for &(n, d, m) in &[(1usize, 1usize, 1usize), (9, 4, 3), (70, 65, 17)] {
            let a = random_matrix(&mut rng, n, d);
            let b = random_matrix(&mut rng, n, m);
            let one_shot = a.transpose().matmul(&b);
            for chunk in [1usize, 3, n, n + 5] {
                let mut acc = Matrix::zeros(d, m);
                let mut start = 0;
                while start < n {
                    let end = (start + chunk).min(n);
                    acc.add_transposed_product(&a.row_block(start..end), &b.row_block(start..end));
                    start = end;
                }
                assert_eq!(
                    acc.as_slice(),
                    one_shot.as_slice(),
                    "fold diverged at n={n} d={d} m={m} chunk={chunk}"
                );
            }
            // Folding an empty slab is a no-op.
            let mut acc = one_shot.clone();
            acc.add_transposed_product(&a.row_block(0..0), &b.row_block(0..0));
            assert_eq!(acc.as_slice(), one_shot.as_slice());
        }
    }

    #[test]
    fn slabbed_and_symmetric_folds_are_bit_identical_to_the_product() {
        let mut rng = Rng::new(0x51AB);
        let s = FOLD_SLAB_ROWS;
        for n in [s - 1, s, s + 1, 2 * s + 1] {
            for d in [63usize, 64, 65, 130] {
                let a = random_matrix(&mut rng, n, d);
                let b = random_matrix(&mut rng, n, 17);
                let mut xtb = Matrix::zeros(d, 17);
                xtb.add_transposed_product(&a, &b);
                assert_eq!(
                    xtb.as_slice(),
                    a.transpose().matmul(&b).as_slice(),
                    "slabbed fold diverged at n={n} d={d}"
                );
                let one_shot = a.transpose().matmul(&a);
                let mut xtx = Matrix::zeros(d, d);
                xtx.add_gram(&a);
                assert_eq!(
                    xtx.as_slice(),
                    one_shot.as_slice(),
                    "symmetric fold diverged at n={n} d={d}"
                );
                assert_eq!(xtx, xtx.transpose(), "XᵀX not symmetric at n={n} d={d}");
                // A second fold adds onto the mirrored sum.
                xtx.add_gram(&a);
                let mut twice = Matrix::zeros(d, d);
                twice.add_transposed_product(&a, &a);
                twice.add_transposed_product(&a, &a);
                assert_eq!(xtx.as_slice(), twice.as_slice(), "refold at n={n} d={d}");
            }
        }
        let mut empty = Matrix::zeros(3, 3);
        empty.add_gram(&Matrix::zeros(0, 3));
        assert_eq!(empty.as_slice(), &[0.0; 9]);
    }

    #[test]
    fn row_block_copies_the_requested_slab() {
        let mut rng = Rng::new(31);
        let a = random_matrix(&mut rng, 9, 4);
        let block = a.row_block(2..6);
        assert_eq!((block.rows(), block.cols()), (4, 4));
        for r in 0..4 {
            assert_eq!(block.row(r), a.row(r + 2));
        }
        let empty = a.row_block(3..3);
        assert_eq!((empty.rows(), empty.cols()), (0, 4));
    }

    #[test]
    fn gather_rows_copies_in_index_order_with_repeats() {
        let mut rng = Rng::new(77);
        let a = random_matrix(&mut rng, 6, 3);
        let picked = a.gather_rows(&[4, 0, 4, 2]);
        assert_eq!((picked.rows(), picked.cols()), (4, 3));
        assert_eq!(picked.row(0), a.row(4));
        assert_eq!(picked.row(1), a.row(0));
        assert_eq!(picked.row(2), a.row(4));
        assert_eq!(picked.row(3), a.row(2));
        let empty = a.gather_rows(&[]);
        assert_eq!((empty.rows(), empty.cols()), (0, 3));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn pool_schedules_at_least_the_submitting_thread() {
        assert!(pool_threads() >= 1);
        assert!(pool_threads() <= default_threads());
    }

    #[test]
    fn packed_and_unpacked_bt_kernels_are_bit_identical() {
        // `gemm_bt_tiles` chooses packed tiles for n >= PACK_MIN_ROWS and the
        // unpacked 8-wide kernel below it. Both must produce the same bits:
        // score row 0 of a large batch (packed) against the same single row
        // scored alone (unpacked).
        let mut rng = Rng::new(41);
        for &(k, z) in &[(5usize, 9usize), (64, 64), (129, 37), (7, 8)] {
            let bank = random_matrix(&mut rng, z, k);
            let row = random_matrix(&mut rng, 1, k);
            let mut batch = Matrix::zeros(PACK_MIN_ROWS + 3, k);
            batch.row_mut(0).copy_from_slice(row.row(0));
            for r in 1..batch.rows() {
                for c in 0..k {
                    batch.set(r, c, rng.normal());
                }
            }
            let packed = batch.matmul_bt(&bank);
            let unpacked = row.matmul_bt(&bank);
            assert_eq!(
                packed.row(0),
                unpacked.row(0),
                "packed vs unpacked diverged at k={k} z={z}"
            );
        }
    }

    /// `a` and `b` hold the same bits, except that NaN matches NaN whatever
    /// its payload (which operand a NaN is propagated from depends on how
    /// the compiler orders a commutative multiply).
    pub(crate) fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: output {i} is {x:e} ({:#x}) against {y:e} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    /// Normal draws with special values sprinkled in: about one entry in
    /// eight is −0.0 or a subnormal of either precision (1e-310 is an f64
    /// subnormal and rounds to 0.0 in f32; 1e-40 is an f32 subnormal), every
    /// seventh row holds an infinity of alternating sign, and row 3 of every
    /// eleven holds a NaN.
    fn special_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Vec<f64> {
        let mut m: Vec<f64> = (0..rows * cols)
            .map(|_| match rng.next_u64() % 24 {
                0 => -0.0,
                1 => 1e-310,
                2 => -1e-40,
                _ => rng.normal(),
            })
            .collect();
        if cols == 0 {
            return m;
        }
        for r in 0..rows {
            let at = r * cols + (r * 5) % cols;
            if r % 7 == 6 {
                m[at] = f64::INFINITY.copysign(0.5 - (r % 2) as f64);
            } else if r % 11 == 3 {
                m[at] = f64::NAN;
            }
        }
        m
    }

    /// The whole `n x z` product through one instance of the tile body,
    /// with a check that the tiles arrive in order, each `BLOCK` classes
    /// wide but the last, as `n x width` blocks.
    fn tiled<T: Elem>(
        n: usize,
        z: usize,
        instance: impl FnOnce(&mut dyn FnMut(Range<usize>, &mut [T])),
    ) -> Vec<T> {
        let mut out = vec![T::ZERO; n * z];
        let mut next = 0;
        instance(&mut |classes, block| {
            assert_eq!(classes, next..(next + BLOCK).min(z), "tile out of order");
            assert_eq!(block.len(), n * classes.len(), "tile block shape");
            next = classes.end;
            for (row, scores) in out
                .chunks_exact_mut(z)
                .zip(block.chunks_exact(classes.len()))
            {
                row[classes.clone()].copy_from_slice(scores);
            }
        });
        assert_eq!(next, z, "tiles missed classes");
        out
    }

    /// Score `a` (`n x k`) against `bt` (`z x k`) through both instances of
    /// `gemm_bt_tiles` (where the CPU has AVX2) and one row at a time through
    /// the portable instance; all must agree bit for bit with the reference
    /// order, and a row holding a NaN scores NaN against every class.
    /// Returns whether AVX2 was checked.
    fn check_bank_instances<T: Elem>(
        a64: &[f64],
        n: usize,
        k: usize,
        bt: &[f64],
        z: usize,
    ) -> bool {
        let (a, bt) = (T::cast_slice(a64), T::cast_slice(bt));
        let what = format!("{} n={n} z={z} k={k}", std::any::type_name::<T>());
        let portable = widened(tiled(n, z, |tile| {
            gemm_bt_tiles_portable(&a, n, k, &bt, z, tile)
        }));
        let reference = widened(gemm_bt_reference(&a, n, k, &bt, z));
        assert_same_bits(
            &portable,
            &reference,
            &format!("{what}: tiles vs reference"),
        );
        let mut by_row = Vec::with_capacity(n * z);
        for row in a.chunks_exact(k) {
            by_row.extend(widened(tiled(1, z, |tile| {
                gemm_bt_tiles_portable(row, 1, k, &bt, z, tile)
            })));
        }
        assert_same_bits(&portable, &by_row, &format!("{what}: batch vs rows alone"));
        for (r, row) in a64.chunks_exact(k).enumerate() {
            if row.iter().any(|v| v.is_nan()) {
                let scores = &portable[r * z..(r + 1) * z];
                assert!(scores.iter().all(|s| s.is_nan()), "{what}: NaN row {r}");
            }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if has_avx2() {
            let avx2 = tiled(n, z, |tile| {
                // SAFETY: `has_avx2` reported AVX2 on the running CPU.
                unsafe { gemm_bt_tiles_avx2(&a, n, k, &bt, z, tile) }
            });
            assert_same_bits(
                &widened(avx2),
                &portable,
                &format!("{what}: avx2 vs portable"),
            );
            return true;
        }
        false
    }

    #[test]
    fn bank_kernel_instances_score_the_same_bits() {
        // Row counts straddle the 4-row pass and PACK_MIN_ROWS, class counts
        // the 8-class group, the 4-wide tail and the 64-class tile, and
        // widths the 8-lane vector.
        let mut rng = Rng::new(0xA5F2);
        let mut avx2 = false;
        for &n in &[1usize, 3, 4, 5, 7, 8, 9, 64, 67] {
            for &z in &[1usize, 3, 4, 5, 7, 8, 9, 12, 63, 64, 65, 130] {
                for &k in &[1usize, 2, 7, 8, 33, 64, 65] {
                    let a = special_matrix(&mut rng, n, k);
                    let bt = special_matrix(&mut rng, z, k);
                    avx2 |= check_bank_instances::<f64>(&a, n, k, &bt, z);
                    avx2 |= check_bank_instances::<f32>(&a, n, k, &bt, z);
                }
            }
        }
        if avx2 {
            println!("bank kernel: checked the avx2 and portable instances");
        } else {
            println!("bank kernel: no AVX2 on this CPU, checked the portable instance only");
        }
        assert_eq!(kernel_isa(), if avx2 { "avx2" } else { "portable" });

        // Banded over the pool, odd band heights mix 4-row and 1-row passes;
        // every thread count must still match each row scored alone.
        let n = 67;
        for &(z, k) in &[(130usize, 65usize), (65, 64), (64, 33)] {
            let a = special_matrix(&mut rng, n, k);
            let bt = special_matrix(&mut rng, z, k);
            let mut by_row = Vec::with_capacity(n * z);
            for row in a.chunks_exact(k) {
                by_row.extend(tiled(1, z, |tile| {
                    gemm_bt_tiles_portable(row, 1, k, &bt, z, tile)
                }));
            }
            for threads in 1..=4 {
                let banded = banded_bt(&a, n, k, &bt, z, threads);
                let what = format!("n={n} z={z} k={k} threads={threads}");
                assert_same_bits(&banded, &by_row, &what);
            }
        }
    }

    /// `out + a · b` (`a` is `n x k`, `b` is `k x m`, `out` is `n x m`)
    /// through the tiled portable instance of `gemm_into` and, where the CPU
    /// has AVX2, the AVX2 instance; both must agree bit for bit. Returns
    /// whether AVX2 was checked.
    fn check_dense_instances<T: Elem>(
        a64: &[f64],
        n: usize,
        k: usize,
        b64: &[f64],
        m: usize,
        out64: &[f64],
    ) -> bool {
        let (a, b) = (T::cast_slice(a64), T::cast_slice(b64));
        let mut portable = T::cast_slice(out64).into_owned();
        gemm_portable(&a, n, k, &b, m, &mut portable, false);
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if has_avx2() {
            let mut avx2 = T::cast_slice(out64).into_owned();
            // SAFETY: `has_avx2` reported AVX2 on the running CPU.
            unsafe { gemm_avx2(&a, n, k, &b, m, &mut avx2) };
            let what = format!(
                "{} n={n} k={k} m={m}: avx2 vs portable",
                std::any::type_name::<T>()
            );
            assert_same_bits(&widened(avx2), &widened(portable), &what);
            return true;
        }
        false
    }

    #[test]
    fn dense_kernel_instances_multiply_the_same_bits() {
        // Row counts straddle the 4-row block, column counts the 8-column
        // group and its scalar tail, and inner dimensions the 64-wide tile of
        // the portable loop. Each shape is multiplied into a zeroed `out` (a
        // product) and into one holding a previous sum with −0.0 among its
        // entries (a fold), which the AVX2 block must load, not restart.
        let mut rng = Rng::new(0xD3E5);
        let mut avx2 = false;
        for &n in &[1usize, 3, 4, 5, 7, 8, 9, 64, 67] {
            for &k in &[0usize, 1, 2, 7, 8, 33, 64, 65, 256] {
                for &m in &[1usize, 3, 7, 8, 9, 16, 31, 32, 33, 85] {
                    let a = special_matrix(&mut rng, n, k);
                    let b = special_matrix(&mut rng, k, m);
                    let zeroed = vec![0.0; n * m];
                    let folded: Vec<f64> = (0..n * m)
                        .map(|_| match rng.next_u64() % 8 {
                            0 => -0.0,
                            _ => rng.normal(),
                        })
                        .collect();
                    for out in [&zeroed, &folded] {
                        avx2 |= check_dense_instances::<f64>(&a, n, k, &b, m, out);
                        avx2 |= check_dense_instances::<f32>(&a, n, k, &b, m, out);
                    }
                }
            }
        }
        if avx2 {
            println!("dense kernel: checked the avx2 and portable instances");
        } else {
            println!("dense kernel: no AVX2 on this CPU, checked the portable instance only");
        }
        assert_eq!(kernel_isa(), if avx2 { "avx2" } else { "portable" });

        // Banded over the pool, odd band heights mix 4-row blocks with
        // leftover rows; every thread count must match the serial portable
        // product.
        let n = 67;
        for &(k, m) in &[(256usize, 33usize), (65, 85), (64, 32)] {
            let a = special_matrix(&mut rng, n, k);
            let b = special_matrix(&mut rng, k, m);
            let mut serial = vec![0.0; n * m];
            gemm_portable(&a, n, k, &b, m, &mut serial, false);
            for threads in 1..=4 {
                let banded = gemm_parallel(&a, n, k, &b, m, threads);
                let what = format!("n={n} k={k} m={m} threads={threads}");
                assert_same_bits(&banded, &serial, &what);
            }
        }
    }

    #[test]
    fn concurrent_submitters_fall_back_serially_and_stay_bit_identical() {
        // Several threads driving the shared pool at once must each get the
        // serial answer bit-for-bit: whoever loses the race for the pool runs
        // its own bands inline, which is the same computation.
        let mut rng = Rng::new(53);
        let a = random_matrix(&mut rng, 256, 96);
        let b = random_matrix(&mut rng, 96, 48);
        let serial = a.matmul(&b);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let got = gemm_parallel(&a.data, 256, 96, &b.data, 48, 4);
                        assert_eq!(got.as_slice(), serial.as_slice());
                    }
                });
            }
        });
    }

    #[test]
    fn f32_kernels_mirror_f64_shapes_and_normalization() {
        // The generic slab entry points drive the f32 serving mirror; sanity
        // check them against a straightforward reference in f32.
        let a: Vec<f32> = (0..6).map(|v| v as f32 * 0.5 - 1.0).collect(); // 2x3
        let b: Vec<f32> = (0..12).map(|v| 0.25 * v as f32).collect(); // 3x4
        let out = gemm_parallel(&a, 2, 3, &b, 4, 1);
        for i in 0..2 {
            for j in 0..4 {
                let mut acc = 0.0f32;
                for k in 0..3 {
                    acc += a[i * 3 + k] * b[k * 4 + j];
                }
                assert_eq!(out[i * 4 + j], acc);
            }
        }
        let bt: Vec<f32> = (0..6).map(|v| 1.0 - v as f32 * 0.125).collect(); // 2x3
        let gram = rbf_gram_parallel(&a, 2, 3, &bt, 2, 0.5f32, 1);
        for &g in &gram {
            assert!(g > 0.0 && g <= 1.0);
        }
        let mut rows: Vec<f32> = vec![3.0, 4.0, 0.0, 0.0];
        l2_normalize_rows_slab(&mut rows, 2);
        assert_eq!(&rows, &[0.6, 0.8, 0.0, 0.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = Rng::new(7);
        let a = random_matrix(&mut rng, 17, 17);
        let i = Matrix::identity(17);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-12);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn transpose_is_involution_and_swaps_shape() {
        let mut rng = Rng::new(3);
        let a = random_matrix(&mut rng, 4, 9);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (9, 4));
        assert_eq!(t.get(2, 3), a.get(3, 2));
        assert!(t.transpose().max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn normalize_rows_handles_1x1_single_row_and_zero_row() {
        // 1x1
        let mut m = Matrix::from_vec(1, 1, vec![-5.0]);
        m.l2_normalize_rows();
        assert!((m.get(0, 0) + 1.0).abs() < 1e-15);

        // single row
        let mut m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        m.l2_normalize_rows();
        assert!((m.get(0, 0) - 0.6).abs() < 1e-15);
        assert!((m.get(0, 1) - 0.8).abs() < 1e-15);

        // zero row stays zero (epsilon guard), nonzero row still normalized
        let mut m = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        m.l2_normalize_rows();
        assert_eq!(m.row(0), &[0.0, 0.0]);
        let norm: f64 = m.row(1).iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_solve_round_trip() {
        let mut rng = Rng::new(99);
        let g = random_matrix(&mut rng, 12, 12);
        // G Gᵀ + I is SPD.
        let mut a = g.matmul(&g.transpose());
        a.add_scaled_identity(1.0);
        let b: Vec<f64> = (0..12).map(|_| rng.normal()).collect();
        let chol = a.cholesky().expect("SPD");
        let b_mat = Matrix::from_vec(12, 1, b);
        let x = chol.solve_matrix(&b_mat).expect("solve");
        // A x ≈ b
        let ax = a.matmul(&x);
        assert!(ax.max_abs_diff(&b_mat) < 1e-8);
    }

    #[test]
    fn solve_spd_matrix_rhs_round_trip() {
        let mut rng = Rng::new(5);
        let g = random_matrix(&mut rng, 8, 8);
        let mut a = g.matmul(&g.transpose());
        a.add_scaled_identity(0.5);
        let b = random_matrix(&mut rng, 8, 3);
        let x = a.cholesky().expect("SPD").solve_matrix(&b).expect("solve");
        assert!(a.matmul(&x).max_abs_diff(&b) < 1e-8);
    }

    #[test]
    fn solve_matrix_matches_per_column_solve_vec() {
        let mut rng = Rng::new(71);
        let g = random_matrix(&mut rng, 10, 10);
        let mut a = g.matmul(&g.transpose());
        a.add_scaled_identity(0.3);
        let b = random_matrix(&mut rng, 10, 5);
        let chol = a.cholesky().expect("SPD");
        let x = chol.solve_matrix(&b).expect("shape");
        // The blocked path must agree bit-for-bit with solving each column
        // independently through the per-column oracle.
        let mut y = vec![0.0; b.rows()];
        for j in 0..b.cols() {
            let col: Vec<f64> = (0..b.rows()).map(|i| b.get(i, j)).collect();
            let mut expected = vec![0.0; b.rows()];
            solve_into(&chol, &col, &mut y, &mut expected);
            for (i, &e) in expected.iter().enumerate() {
                assert_eq!(x.get(i, j), e, "solve_matrix diverged at ({i},{j})");
            }
        }
    }

    /// The row-order loop `Matrix::cholesky` ran before its column passes,
    /// kept unchanged as the oracle both instances are tested against.
    fn cholesky_by_rows(a: &Matrix) -> Result<Cholesky, LinalgError> {
        if a.rows != a.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (a.rows, a.rows),
                got: (a.rows, a.cols),
            });
        }
        let n = a.rows;
        for row in 0..n {
            if let Some(col) = (0..=row).find(|&col| !a.data[row * n + col].is_finite()) {
                return Err(LinalgError::NonFinite { row, col });
            }
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.data[i * n + j];
                for k in 0..j {
                    sum -= l.data[i * n + k] * l.data[j * n + k];
                }
                if i == j {
                    // A pivot that overflow turned into NaN fails too.
                    if sum.is_nan() || sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot_index: i });
                    }
                    l.data[i * n + j] = sum.sqrt();
                } else {
                    l.data[i * n + j] = sum / l.data[j * n + j];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Forward (`L y = b`) then backward (`Lᵀ x = y`) substitution for one
    /// right-hand side: the per-column loop `solve_matrix` ran before its
    /// blocked substitutions, kept unchanged as their oracle.
    fn solve_into(chol: &Cholesky, b: &[f64], y: &mut [f64], x: &mut [f64]) {
        let n = chol.l.rows;
        for i in 0..n {
            let mut sum = b[i];
            let l_row = &chol.l.data[i * n..i * n + i];
            for (l, yk) in l_row.iter().zip(y.iter()) {
                sum -= l * yk;
            }
            y[i] = sum / chol.l.data[i * n + i];
        }
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                sum -= chol.l.data[k * n + i] * xk;
            }
            x[i] = sum / chol.l.data[i * n + i];
        }
    }

    /// `A X = B` one column at a time through `solve_into`.
    fn solve_by_columns(chol: &Cholesky, b: &Matrix) -> Matrix {
        let n = chol.dim();
        let bt = b.transpose();
        let mut xt = Matrix::zeros(b.cols, n);
        let mut y = vec![0.0; n];
        for j in 0..b.cols {
            solve_into(chol, bt.row(j), &mut y, xt.row_mut(j));
        }
        xt.transpose()
    }

    /// A symmetric matrix of normal draws whose diagonal entries exceed
    /// their rows' absolute sums, so it is positive-definite.
    fn dominant_spd(rng: &mut Rng, n: usize) -> Matrix {
        let mut a = random_matrix(rng, n, n);
        for i in 0..n {
            for j in 0..i {
                a.set(j, i, a.get(i, j));
            }
        }
        for i in 0..n {
            let sum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
            a.set(i, i, sum + 1.0);
        }
        a
    }

    /// The instances of the column passes this CPU can run, by name.
    fn column_pass_instances() -> Vec<(&'static str, ColumnPasses)> {
        let mut instances: Vec<(&'static str, ColumnPasses)> =
            vec![("portable", cholesky_portable)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if has_avx2() {
            // SAFETY: listed only when `has_avx2` reported AVX2.
            instances.push(("avx2", |w, ld, n| unsafe { cholesky_avx2(w, ld, n) }));
        }
        instances
    }

    /// The instances of the substitutions this CPU can run, by name.
    fn substitution_instances() -> Vec<(&'static str, Substitutions)> {
        let mut instances: Vec<(&'static str, Substitutions)> =
            vec![("portable", substitute_portable)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if has_avx2() {
            // SAFETY: listed only when `has_avx2` reported AVX2.
            instances.push(("avx2", |l, n, x, m| unsafe { substitute_avx2(l, n, x, m) }));
        }
        instances
    }

    /// Factor `a` through the row-order oracle and every instance of the
    /// column passes; each must give the oracle's bits or its error.
    /// Returns the oracle's result.
    fn check_cholesky_instances(a: &Matrix, what: &str) -> Result<Cholesky, LinalgError> {
        let oracle = cholesky_by_rows(a);
        for (name, factor) in column_pass_instances() {
            match (a.cholesky_by(factor), &oracle) {
                (Ok(got), Ok(want)) => assert_same_bits(
                    got.factor().as_slice(),
                    want.factor().as_slice(),
                    &format!("{what}: {name} factor"),
                ),
                (got, want) => assert_eq!(
                    got.err().as_ref(),
                    want.as_ref().err(),
                    "{what}: {name} result"
                ),
            }
        }
        oracle
    }

    /// Solve `chol` against `b` one column at a time through the oracle and
    /// through every instance of the substitutions; all must agree bit for
    /// bit.
    fn check_solve_instances(chol: &Cholesky, b: &Matrix, what: &str) {
        let oracle = solve_by_columns(chol, b);
        for (name, solve) in substitution_instances() {
            let got = chol.solve_by(b, solve).expect("rows match");
            assert_eq!((got.rows(), got.cols()), (b.rows(), b.cols()));
            assert_same_bits(
                got.as_slice(),
                oracle.as_slice(),
                &format!("{what}: {name} solve"),
            );
        }
    }

    #[test]
    fn cholesky_instances_factor_and_solve_the_same_bits() {
        // Sizes straddle the four-column pass and the 8- and 4-row blocks
        // below its diagonal block; right-hand-side counts straddle the
        // 32-column (AVX2) and 16-column (portable) blocks and the 8-, 4- and
        // 1-column blocks that narrow toward the edge. Each right-hand side
        // holds −0.0, subnormals, ±∞ and NaN among normal draws.
        let mut rng = Rng::new(0xC401);
        for n in (1..=70).chain([96, 127, 128, 129, 200, 256, 300]) {
            let a = dominant_spd(&mut rng, n);
            let chol = check_cholesky_instances(&a, &format!("n={n}")).expect("SPD");
            // Past n = 70 the rows add only longer sums: a subset of the
            // counts keeps the unoptimized test build quick.
            let counts: &[usize] = if n <= 70 {
                &[1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 85]
            } else {
                &[1, 5, 17, 33, 85]
            };
            for &m in counts {
                let b = Matrix::from_vec(n, m, special_matrix(&mut rng, n, m));
                check_solve_instances(&chol, &b, &format!("n={n} m={m}"));
            }

            // A zeroed diagonal entry makes its pivot the first that is not
            // positive: −Σ L_pk² < 0, or exactly 0 at p = 0.
            let p = (rng.next_u64() % n as u64) as usize;
            let mut indefinite = a.clone();
            indefinite.set(p, p, 0.0);
            assert_eq!(
                check_cholesky_instances(&indefinite, &format!("n={n} pivot {p}")).err(),
                Some(LinalgError::NotPositiveDefinite { pivot_index: p })
            );
            // A symmetric matrix of normal draws fails at some pivot, the
            // same one on every instance.
            let mut symmetric = random_matrix(&mut rng, n, n);
            for i in 0..n {
                for j in 0..i {
                    symmetric.set(j, i, symmetric.get(i, j));
                }
            }
            let _ = check_cholesky_instances(&symmetric, &format!("n={n} symmetric"));
            // A non-finite entry of the lower triangle is reported before any
            // arithmetic; one above the diagonal is never read.
            let (row, col) = (p, (rng.next_u64() % (p as u64 + 1)) as usize);
            let mut lower = a.clone();
            lower.set(
                row,
                col,
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][n % 3],
            );
            assert_eq!(
                check_cholesky_instances(&lower, &format!("n={n} non-finite")).err(),
                Some(LinalgError::NonFinite { row, col })
            );
            if n > 1 {
                let mut upper = a.clone();
                upper.set(0, n - 1, f64::NAN);
                let got = check_cholesky_instances(&upper, &format!("n={n} upper NaN"));
                assert_same_bits(
                    got.expect("upper triangle unread").factor().as_slice(),
                    chol.factor().as_slice(),
                    &format!("n={n}: upper NaN"),
                );
            }
            // Shapes that do not line up.
            let wide = Matrix::zeros(n, n + 1);
            assert_eq!(
                check_cholesky_instances(&wide, &format!("n={n} wide")).err(),
                Some(LinalgError::ShapeMismatch {
                    expected: (n, n),
                    got: (n, n + 1)
                })
            );
            for (name, solve) in substitution_instances() {
                assert_eq!(
                    chol.solve_by(&Matrix::zeros(n + 1, 2), solve).err(),
                    Some(LinalgError::ShapeMismatch {
                        expected: (n, 2),
                        got: (n + 1, 2)
                    }),
                    "n={n}: {name} rows"
                );
            }
        }

        // The right solve's shape: a small factor against many columns.
        for n in [1, 5, 31, 32, 33] {
            let a = dominant_spd(&mut rng, n);
            let chol = check_cholesky_instances(&a, &format!("n={n}")).expect("SPD");
            let b = Matrix::from_vec(n, 256, special_matrix(&mut rng, n, 256));
            check_solve_instances(&chol, &b, &format!("n={n} m=256"));
        }

        // The overflow case: pivot 3 turns NaN on every instance.
        let overflow = Matrix::from_rows(&[
            vec![1e-300, 1e-150, 1e-150, 1e300],
            vec![1e-150, 2.0, 2.0, 0.0],
            vec![1e-150, 2.0, 3.0, 0.0],
            vec![1e300, 0.0, 0.0, 1.0],
        ]);
        assert_eq!(
            check_cholesky_instances(&overflow, "overflow").err(),
            Some(LinalgError::NotPositiveDefinite { pivot_index: 3 })
        );
        // The empty system factors and solves to empty results.
        let empty = check_cholesky_instances(&Matrix::zeros(0, 0), "n=0").expect("empty");
        check_solve_instances(&empty, &Matrix::zeros(0, 3), "n=0 m=3");

        let names: Vec<&str> = column_pass_instances().iter().map(|i| i.0).collect();
        let avx2 = names.contains(&"avx2");
        if avx2 {
            println!("cholesky and substitutions: checked the avx2 and portable instances");
        } else {
            println!(
                "cholesky and substitutions: no AVX2 on this CPU, checked the portable instance only"
            );
        }
        assert_eq!(kernel_isa(), if avx2 { "avx2" } else { "portable" });
    }

    #[test]
    fn cholesky_rejects_indefinite_and_nonsquare() {
        let indefinite = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(matches!(
            indefinite.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            rect.cholesky(),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn cholesky_rejects_non_finite_input_and_nan_pivots() {
        // The first non-finite entry of the lower triangle, in row-major
        // order, is reported; the upper triangle is never read.
        let mut nan = Matrix::identity(4);
        nan.set(1, 3, f64::NAN);
        nan.set(3, 1, f64::NAN);
        assert_eq!(
            nan.cholesky().map(|c| c.dim()),
            Err(LinalgError::NonFinite { row: 3, col: 1 })
        );
        let mut inf = Matrix::identity(3);
        inf.set(2, 2, f64::INFINITY);
        assert_eq!(
            inf.cholesky().map(|c| c.dim()),
            Err(LinalgError::NonFinite { row: 2, col: 2 })
        );
        let mut upper = Matrix::identity(3);
        upper.set(0, 2, f64::NAN);
        assert_eq!(
            upper.cholesky().map(|c| c.factor().as_slice().to_vec()),
            Ok(Matrix::identity(3).as_slice().to_vec())
        );
        // Finite but indefinite input whose elimination overflows:
        // L[3][0] = 1e300 / 1e-150 = ∞, L[3][1] = −∞, L[3][2] = −∞ + ∞ = NaN,
        // so pivot 3 is NaN, which is not positive either.
        let overflow = Matrix::from_rows(&[
            vec![1e-300, 1e-150, 1e-150, 1e300],
            vec![1e-150, 2.0, 2.0, 0.0],
            vec![1e-150, 2.0, 3.0, 0.0],
            vec![1e300, 0.0, 0.0, 1.0],
        ]);
        assert_eq!(
            overflow.cholesky().map(|c| c.dim()),
            Err(LinalgError::NotPositiveDefinite { pivot_index: 3 })
        );
        // Solving through the factorization passes the error on.
        assert_eq!(
            nan.cholesky()
                .and_then(|c| c.solve_matrix(&Matrix::zeros(4, 1))),
            Err(LinalgError::NonFinite { row: 3, col: 1 })
        );
    }

    /// Cyclic Jacobi eigendecomposition: the solver `symmetric_eigen` ran
    /// before Householder + QL, kept as an independent oracle. Reads both
    /// triangles; sweeps stop once the off-diagonal Frobenius norm falls
    /// below `1e-15 · ‖A‖_F`, or after 64 sweeps.
    fn jacobi_eigen(m: &Matrix) -> SymmetricEigen {
        let n = m.rows();
        let mut a = m.clone();
        let mut v = Matrix::identity(n);
        let tol = (m.frobenius_norm() * 1e-15).max(f64::MIN_POSITIVE);
        for _ in 0..64 {
            let mut off = 0.0;
            for p in 0..n {
                for q in (p + 1)..n {
                    off += a.data[p * n + q] * a.data[p * n + q];
                }
            }
            if off.sqrt() <= tol {
                break;
            }
            for p in 0..n.saturating_sub(1) {
                for q in (p + 1)..n {
                    let apq = a.data[p * n + q];
                    if apq == 0.0 {
                        continue;
                    }
                    let theta = (a.data[q * n + q] - a.data[p * n + p]) / (2.0 * apq);
                    let t = if theta == 0.0 {
                        1.0
                    } else {
                        theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt())
                    };
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // A ← Jᵀ A J with the rotation in the (p, q) plane.
                    for k in 0..n {
                        let akp = a.data[k * n + p];
                        let akq = a.data[k * n + q];
                        a.data[k * n + p] = c * akp - s * akq;
                        a.data[k * n + q] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a.data[p * n + k];
                        let aqk = a.data[q * n + k];
                        a.data[p * n + k] = c * apk - s * aqk;
                        a.data[q * n + k] = s * apk + c * aqk;
                    }
                    a.data[p * n + q] = 0.0;
                    a.data[q * n + p] = 0.0;
                    for k in 0..n {
                        let vkp = v.data[k * n + p];
                        let vkq = v.data[k * n + q];
                        v.data[k * n + p] = c * vkp - s * vkq;
                        v.data[k * n + q] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let values = (0..n).map(|i| a.data[i * n + i]).collect();
        SymmetricEigen { values, vectors: v }
    }

    /// `A X + X B = C` through the spectral formula of [`solve_sylvester`],
    /// with the Jacobi oracle's eigendecompositions.
    fn jacobi_sylvester(a: &Matrix, b: &Matrix, c: &Matrix) -> Matrix {
        let (ea, eb) = (jacobi_eigen(a), jacobi_eigen(b));
        let mut xt = ea.vectors().transpose().matmul(c).matmul(eb.vectors());
        let q = xt.cols();
        for (idx, v) in xt.data.iter_mut().enumerate() {
            *v /= ea.values()[idx / q] + eb.values()[idx % q];
        }
        ea.vectors().matmul(&xt).matmul(&eb.vectors().transpose())
    }

    /// `V diag(values) Vᵀ`.
    fn compose(v: &Matrix, values: &[f64]) -> Matrix {
        let mut scaled = v.clone();
        for row in scaled.data.chunks_mut(v.cols) {
            for (x, value) in row.iter_mut().zip(values) {
                *x *= value;
            }
        }
        scaled.matmul(&v.transpose())
    }

    /// `‖VᵀV − I‖_max` and `‖V diag(λ) Vᵀ − A‖_max / max(‖A‖_max, 1)`.
    fn eigen_residuals(a: &Matrix, eig: &SymmetricEigen) -> (f64, f64) {
        let n = a.rows();
        let v = eig.vectors();
        let orthogonality = v.transpose().matmul(v).max_abs_diff(&Matrix::identity(n));
        let scale = a.data.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let reconstruction = compose(v, eig.values()).max_abs_diff(a) / scale;
        (orthogonality, reconstruction)
    }

    fn sorted(values: &[f64]) -> Vec<f64> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        v
    }

    /// `GᵀG` of a random `2n x n` matrix: symmetric positive definite, and
    /// shaped like the SAE operand `λXᵀX`.
    fn random_spd_gram(rng: &mut Rng, n: usize) -> Matrix {
        let g = random_matrix(rng, 2 * n, n);
        g.transpose().matmul(&g)
    }

    #[test]
    fn symmetric_eigen_reconstructs_and_is_orthogonal() {
        let mut rng = Rng::new(0xE16);
        for n in [1usize, 2, 5, 12, 23, 64] {
            let g = random_matrix(&mut rng, n, n);
            // Symmetrize: A = (G + Gᵀ) / 2.
            let gt = g.transpose();
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    a.set(r, c, 0.5 * (g.get(r, c) + gt.get(r, c)));
                }
            }
            let eig = a.symmetric_eigen().expect("square and finite");
            let (orthogonality, reconstruction) = eigen_residuals(&a, &eig);
            assert!(
                orthogonality < 5e-14,
                "‖VᵀV − I‖ = {orthogonality:e} at n={n}"
            );
            assert!(
                reconstruction < 5e-14,
                "reconstruction {reconstruction:e} at n={n}"
            );
        }
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            rect.symmetric_eigen(),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn symmetric_eigen_reads_only_the_upper_triangle() {
        let mut rng = Rng::new(0x0B5);
        let a = random_spd_gram(&mut rng, 9);
        let mut garbled = a.clone();
        for r in 1..9 {
            for c in 0..r {
                garbled.set(r, c, f64::NAN);
            }
        }
        let clean = a.symmetric_eigen().expect("finite");
        let upper_only = garbled.symmetric_eigen().expect("lower triangle unread");
        assert_eq!(clean.values(), upper_only.values());
        assert_eq!(clean.vectors().as_slice(), upper_only.vectors().as_slice());
    }

    #[test]
    fn symmetric_eigen_matches_the_jacobi_oracle_on_spd_grams() {
        let mut rng = Rng::new(0x0AC1E);
        for n in [2usize, 63, 64, 65, 130] {
            let a = random_spd_gram(&mut rng, n);
            let ql = a.symmetric_eigen().expect("SPD Gram");
            let oracle = jacobi_eigen(&a);
            let (ql_sorted, oracle_sorted) = (sorted(ql.values()), sorted(oracle.values()));
            let max = oracle_sorted.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (q, o) in ql_sorted.iter().zip(&oracle_sorted) {
                assert!(
                    (q - o).abs() <= 1e-12 * max,
                    "eigenvalue {q} vs oracle {o} at n={n}"
                );
            }
            let (orthogonality, reconstruction) = eigen_residuals(&a, &ql);
            assert!(
                orthogonality < 1e-13,
                "‖VᵀV − I‖ = {orthogonality:e} at n={n}"
            );
            assert!(
                reconstruction < 5e-14,
                "reconstruction {reconstruction:e} at n={n}"
            );

            // The SAE shape: a small signature Gram against the feature Gram.
            let s = random_spd_gram(&mut rng, 7);
            let c = random_matrix(&mut rng, 7, n);
            let weights = solve_sylvester(&s, &a, &c).expect("SPD operands");
            let oracle = jacobi_sylvester(&s, &a, &c);
            let mut diff = weights.clone();
            for (d, o) in diff.data.iter_mut().zip(oracle.as_slice()) {
                *d -= o;
            }
            let relative = diff.frobenius_norm() / oracle.frobenius_norm();
            assert!(
                relative <= 1e-10,
                "Sylvester weights differ by {relative:e} at n={n}"
            );
        }
    }

    #[test]
    fn symmetric_eigen_handles_degenerate_spectra() {
        let mut rng = Rng::new(0xDE6);
        let n = 6;
        // A random orthogonal basis, to plant chosen spectra.
        let q = random_spd_gram(&mut rng, n)
            .symmetric_eigen()
            .expect("SPD")
            .vectors()
            .clone();
        let u = random_matrix(&mut rng, n, 1);
        let rank_one = u.matmul(&u.transpose());
        let mut rank_one_values = vec![0.0; n];
        rank_one_values[n - 1] = u.frobenius_norm().powi(2);
        let diagonal = [-3.0, 2.0, -1.0, 0.5, 4.0, -0.25];
        let mut negative_diagonal = Matrix::zeros(n, n);
        for (i, &v) in diagonal.iter().enumerate() {
            negative_diagonal.set(i, i, v);
        }
        let repeated = [2.0, -1.0, 2.0, 5.0, -1.0, 2.0];
        let cases = [
            ("zero", Matrix::zeros(n, n), vec![0.0; n]),
            ("identity", Matrix::identity(n), vec![1.0; n]),
            ("negative diagonal", negative_diagonal, diagonal.to_vec()),
            ("rank one", rank_one, rank_one_values),
            ("repeated blocks", compose(&q, &repeated), repeated.to_vec()),
        ];
        for (name, a, expected) in cases {
            let eig = a.symmetric_eigen().expect("finite");
            for (got, want) in sorted(eig.values()).iter().zip(sorted(&expected)) {
                assert!(
                    (got - want).abs() < 1e-13,
                    "{name}: eigenvalue {got} vs {want}"
                );
            }
            let (orthogonality, reconstruction) = eigen_residuals(&a, &eig);
            assert!(
                orthogonality < 5e-14,
                "{name}: ‖VᵀV − I‖ = {orthogonality:e}"
            );
            assert!(
                reconstruction < 5e-14,
                "{name}: reconstruction {reconstruction:e}"
            );
        }
        // Diagonal input is already tridiagonal with a zero subdiagonal:
        // the values come back exactly, in diagonal order.
        let eig = Matrix::from_vec(3, 3, vec![-2.0, 0.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0, 0.5])
            .symmetric_eigen()
            .expect("finite");
        assert_eq!(eig.values(), &[-2.0, 7.0, 0.5]);
        assert_eq!(eig.vectors().as_slice(), Matrix::identity(3).as_slice());
        let empty = Matrix::zeros(0, 0).symmetric_eigen().expect("empty");
        assert!(empty.values().is_empty());
    }

    #[test]
    fn symmetric_eigen_rejects_non_finite_input() {
        let mut nan = Matrix::identity(5);
        nan.set(1, 3, f64::NAN);
        nan.set(3, 1, f64::NAN);
        assert_eq!(
            nan.symmetric_eigen().map(|e| e.values().to_vec()),
            Err(LinalgError::NonFinite { row: 1, col: 3 })
        );
        let mut inf = Matrix::identity(5);
        inf.set(0, 0, f64::INFINITY);
        assert_eq!(
            inf.symmetric_eigen().map(|e| e.values().to_vec()),
            Err(LinalgError::NonFinite { row: 0, col: 0 })
        );
        // The Sylvester solve passes the error through untouched.
        assert_eq!(
            solve_sylvester(&Matrix::identity(2), &inf, &Matrix::zeros(2, 5)),
            Err(LinalgError::NonFinite { row: 0, col: 0 })
        );
    }

    #[test]
    fn tridiagonal_ql_reports_a_stalled_iteration() {
        // A NaN that reaches the QL iteration never counts as converged: the
        // iteration cap turns it into a typed error instead of `Ok(NaN)`.
        let n = 3;
        let mut w = Matrix::identity(n).data;
        let mut d = vec![1.0, 2.0, 3.0];
        let mut e = vec![0.0, f64::NAN, 1.0];
        assert_eq!(
            tridiagonal_ql(&mut w, n, &mut d, &mut e),
            Err(LinalgError::NoConvergence { index: 0 })
        );
    }

    #[test]
    fn solve_sylvester_round_trip_and_error_paths() {
        let mut rng = Rng::new(0x5711);
        for &(p, q) in &[(1usize, 1usize), (3, 5), (8, 4), (12, 12)] {
            let ga = random_matrix(&mut rng, p, p);
            let mut a = ga.matmul(&ga.transpose());
            a.add_scaled_identity(0.5);
            let gb = random_matrix(&mut rng, q, q);
            let mut b = gb.matmul(&gb.transpose());
            b.add_scaled_identity(0.5);
            let c = random_matrix(&mut rng, p, q);
            let x = solve_sylvester(&a, &b, &c).expect("well-conditioned");
            let residual = a.matmul(&x);
            let xb = x.matmul(&b);
            let mut lhs = residual.clone();
            for (l, v) in lhs.data.iter_mut().zip(xb.as_slice()) {
                *l += v;
            }
            assert!(
                lhs.max_abs_diff(&c) < 1e-8,
                "Sylvester residual too large at {p}x{q}"
            );
        }
        // Shape mismatch: C must be p x q.
        let a = Matrix::identity(2);
        let b = Matrix::identity(3);
        assert!(matches!(
            solve_sylvester(&a, &b, &Matrix::zeros(3, 2)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        // α + β = 0 is a typed singularity, not garbage.
        let neg = Matrix::from_vec(1, 1, vec![-1.0]);
        let pos = Matrix::from_vec(1, 1, vec![1.0]);
        assert!(matches!(
            solve_sylvester(&pos, &neg, &Matrix::from_vec(1, 1, vec![2.0])),
            Err(LinalgError::SingularSylvester { .. })
        ));
    }

    #[test]
    fn add_scaled_identity_only_touches_diagonal() {
        let mut m = Matrix::zeros(3, 3);
        m.set(0, 1, 2.0);
        m.add_scaled_identity(0.25);
        assert_eq!(m.get(0, 0), 0.25);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(2, 2), 0.25);
    }
}
