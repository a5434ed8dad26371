//! Batch inference and evaluation for trained ZSL models.
//!
//! The workhorse is the [`ScoringEngine`]: it validates and (for cosine)
//! pre-normalizes the signature bank **once at construction**, projects
//! feature batches into attribute space, and scores them against the cached
//! bank through the packed `X·Sᵀ` tile kernel in [`crate::linalg`].
//!
//! [`ScoringEngine::scores`], [`ScoringEngine::predict`] and
//! [`ScoringEngine::predict_topk`] all run one fold. The input streams in
//! chunks of [`DEFAULT_CHUNK_ROWS`] rows, each chunk is projected once and
//! split into row bands over the worker pool, and each band scores the bank
//! one 64-class tile at a time into one reused `rows x 64` block. Each
//! calibrated block goes straight to its reducer: argmax keeps a running
//! best per row, top-k a bounded per-row heap, and `scores` copies the
//! block into place. So peak score memory is one `rows x 64` block per
//! band, at any class count and any [`BankShards`] layout, and no call
//! builds an `n x num_classes` score matrix unless it asked for one. Every
//! score carries the same bits at every thread count, chunk size and shard
//! count (pinned by `tests/shard_equiv.rs` and this module's differential
//! test against the banded fold it replaced). Both [`ScoringPrecision`]s run
//! that fold through one projection generic over the element type. The bank
//! can be borrowed zero-copy from an mmap'd `.zsm` artifact instead of the
//! heap, and calibrated stacking (a seen-class score penalty `γ_cal`, the
//! classic fix for GZSL seen-swamping) is applied to each tile block.
//!
//! Evaluation helpers cover the standard ZSL protocol (mean per-class
//! accuracy) and the generalized protocol (harmonic mean of seen and unseen
//! accuracy).

use crate::error::ZslError;
use crate::linalg::{
    default_threads, gemm_bt_tiles, l2_normalize_rows_slab, par_bands, Elem, Matrix, BLOCK,
    NORM_EPSILON,
};
use crate::mmap::MappedFile;
use crate::source::{FeatureSource, SplitKind};
use crate::trainer::TrainedModel;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

/// Rows per chunk of every scoring call: each chunk is projected once and
/// its scores reduced one 64-class tile at a time, so peak score memory is
/// one `rows x 64` tile block (at most `DEFAULT_CHUNK_ROWS x 64`, split over
/// the chunk's row bands) at any class count and shard count, no matter how
/// many samples are scored.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// Scoring function between a projected sample and a class signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Similarity {
    /// Cosine similarity — scale invariant, the usual ZSL choice.
    #[default]
    Cosine,
    /// Raw dot product — cheaper, appropriate when signatures are already
    /// normalized.
    Dot,
}

impl std::fmt::Display for Similarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Similarity::Cosine => write!(f, "cosine"),
            Similarity::Dot => write!(f, "dot"),
        }
    }
}

impl std::str::FromStr for Similarity {
    type Err = String;

    /// Parse `"cosine"` or `"dot"` (case-insensitive) — the spelling used by
    /// CLI flags and config files.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cosine" => Ok(Similarity::Cosine),
            "dot" => Ok(Similarity::Dot),
            other => Err(format!(
                "unknown similarity '{other}', expected 'cosine' or 'dot'"
            )),
        }
    }
}

/// Numeric precision the engine scores in. Training always runs in `f64`;
/// [`ScoringPrecision::F32`] casts the model parameters, the (already
/// normalized) signature bank, and each input batch to `f32` once, runs the
/// same banded kernels in single precision (roughly half the memory
/// traffic), and widens the final scores back to `f64` losslessly. Within
/// each precision, results stay bit-identical across thread counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScoringPrecision {
    /// Full double precision — the default, bit-compatible with training.
    #[default]
    F64,
    /// Opt-in single-precision serving (train f64, serve f32).
    F32,
}

impl std::fmt::Display for ScoringPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoringPrecision::F64 => write!(f, "f64"),
            ScoringPrecision::F32 => write!(f, "f32"),
        }
    }
}

impl std::str::FromStr for ScoringPrecision {
    type Err = String;

    /// Parse `"f64"` or `"f32"` (case-insensitive) — the spelling used by
    /// CLI flags and artifact metadata.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f64" => Ok(ScoringPrecision::F64),
            "f32" => Ok(ScoringPrecision::F32),
            other => Err(format!(
                "unknown scoring precision '{other}', expected 'f64' or 'f32'"
            )),
        }
    }
}

/// A ranked prediction: class indices ordered best-first with their scores.
#[derive(Clone, Debug, PartialEq)]
pub struct TopK {
    /// Class indices, best first.
    pub classes: Vec<usize>,
    /// Similarity scores aligned with `classes`.
    pub scores: Vec<f64>,
}

/// Layout of the signature bank as contiguous row bands ("shards"), each
/// starting on a 64-class tile edge. The default is one band over the whole
/// bank.
///
/// The engine scores the bank one 64-class tile at a time whatever the
/// layout, so peak score memory is one `rows x 64` tile block at any shard
/// count, and the layout changes neither bits, memory nor speed. The type
/// and [`ScoringEngine::set_bank_shards`] stay public only because the
/// workspace benchmark's reference engine still sets a layout. A requested
/// count is a *hint*: it is clamped to the number of 64-row tiles the bank
/// actually has.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BankShards {
    /// Exclusive end row of each band, ascending; the last entry is the class
    /// count. Band `i` covers `ends[i-1]..ends[i]` (band 0 starts at row 0).
    ends: Vec<usize>,
}

impl BankShards {
    /// Split `num_classes` bank rows into (at most) `requested` bands of
    /// near-equal tile counts. `requested` is clamped to `[1, ceil(z / 64)]`;
    /// every boundary except the last is a multiple of 64.
    pub fn uniform(num_classes: usize, requested: usize) -> Self {
        let tiles = num_classes.div_ceil(BLOCK).max(1);
        let bands = requested.clamp(1, tiles);
        let mut ends = Vec::with_capacity(bands);
        for b in 1..=bands {
            ends.push((b * tiles / bands * BLOCK).min(num_classes));
        }
        BankShards { ends }
    }

    /// Number of bands.
    pub fn count(&self) -> usize {
        self.ends.len()
    }

    /// Global class-row range of band `i`.
    pub fn band(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }
}

/// The engine's cached signature bank: either owned rows on the heap or rows
/// borrowed zero-copy from a memory-mapped `.zsm` artifact.
#[derive(Clone, Debug)]
pub(crate) enum Bank {
    /// Heap-owned `num_classes x attr_dim` rows — the default.
    Owned(Matrix),
    /// Rows borrowed from a mapped artifact: `offset` bytes into the mapping,
    /// `rows x cols` little-endian `f64`s. The loader guarantees the region
    /// is in-bounds and 8-byte aligned (64-byte-aligned payload in a
    /// page-aligned mapping) before constructing this variant.
    Mapped {
        map: Arc<MappedFile>,
        offset: usize,
        rows: usize,
        cols: usize,
    },
}

impl Bank {
    fn rows(&self) -> usize {
        match self {
            Bank::Owned(m) => m.rows(),
            Bank::Mapped { rows, .. } => *rows,
        }
    }

    fn cols(&self) -> usize {
        match self {
            Bank::Owned(m) => m.cols(),
            Bank::Mapped { cols, .. } => *cols,
        }
    }

    fn as_slice(&self) -> &[f64] {
        match self {
            Bank::Owned(m) => m.as_slice(),
            Bank::Mapped {
                map,
                offset,
                rows,
                cols,
            } => {
                let bytes = &map.as_bytes()[*offset..*offset + rows * cols * 8];
                // Safety: the loader verified bounds and 8-byte alignment at
                // construction, the mapping is immutable and lives as long as
                // the `Arc`, and the target is little-endian (gated by the
                // loader), so these bytes *are* the bank's f64 rows.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f64, rows * cols) }
            }
        }
    }

    /// Heap bytes this bank keeps resident (0 when mapped).
    fn resident_bytes(&self) -> usize {
        match self {
            Bank::Owned(m) => std::mem::size_of_val(m.as_slice()),
            Bank::Mapped { .. } => 0,
        }
    }
}

/// Borrowed, read-only view of an engine's cached signature bank, uniform
/// over heap-owned and mmap-borrowed storage. Replaces the old `&Matrix`
/// accessor so callers never assume the bank lives on the heap.
#[derive(Clone, Copy, Debug)]
pub struct BankView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
}

impl<'a> BankView<'a> {
    /// Number of classes (bank rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Attribute dimension (bank columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The full bank as one row-major slice.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Row `r` as a contiguous slice.
    pub fn row(&self, r: usize) -> &'a [f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy the viewed rows into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.to_vec())
    }
}

/// Which classes a calibration penalty applies to.
#[derive(Clone, Debug)]
enum Penalized {
    /// The first `n` bank rows — the seen-class prefix of a GZSL union bank.
    /// This is the persistable form (`.zsm` calibration block).
    Prefix(usize),
    /// Arbitrary class subset — used internally by cross-validation, where
    /// each fold penalizes its pseudo-seen classes. Never persisted.
    Mask(Arc<Vec<bool>>),
}

/// Calibrated stacking: subtract `gamma` from every penalized class's score
/// at scoring time. With a union bank ordered seen-then-unseen, penalizing
/// the seen prefix counteracts the seen-class swamping that collapses GZSL
/// unseen accuracy at large class counts.
#[derive(Clone, Debug)]
struct Calibration {
    gamma: f64,
    penalized: Penalized,
}

/// Cached, parallel batch scorer: the hot path of the serving stack.
///
/// Construction validates the signature bank (non-empty, non-zero-width, all
/// finite) and — for [`Similarity::Cosine`] — L2-normalizes it **once**, so
/// per-call scoring does no bank clone, no renormalization, and no transpose:
/// the cached bank rows are already the packed transposed-B layout the
/// contiguous `X·Sᵀ` kernel wants. Batches are projected and scored through
/// the row-banded multi-threaded matmul paths in [`crate::linalg`].
///
/// Results are bit-identical for every thread count, chunk size and shard
/// count, so the engine can be tuned freely without perturbing golden
/// numerics.
#[derive(Clone, Debug)]
pub struct ScoringEngine {
    /// Any trained model family; a bare [`crate::model::ProjectionModel`]
    /// converts in as ESZSL, so pre-trainer call sites keep compiling.
    model: TrainedModel,
    /// `num_classes x attr_dim`, one row per candidate class; pre-normalized
    /// when the similarity is cosine. Heap-owned or mmap-borrowed.
    bank: Bank,
    /// The requested band layout of the bank, which scoring no longer
    /// reads (see [`BankShards`]).
    shards: BankShards,
    /// Optional seen-class score penalty (calibrated stacking); `None` means
    /// scoring is exactly the uncalibrated pipeline, bit-for-bit.
    calibration: Option<Calibration>,
    similarity: Similarity,
    threads: usize,
    /// Present exactly when scoring in [`ScoringPrecision::F32`]: the model's
    /// parameter slabs (in `TrainedModel::param_slabs` order) and the cached
    /// bank, cast to `f32` once so scoring never casts parameters per call.
    f32_mirror: Option<(Vec<Vec<f32>>, Vec<f32>)>,
}

impl ScoringEngine {
    /// Build an engine over `signatures` (`num_classes x attr_dim`), the one
    /// public constructor. Every construction-time validation failure (empty
    /// / zero-width / non-finite bank, attribute-dimension mismatch) is a
    /// typed [`ZslError::Config`], so a daemon's boot or reload degrades to
    /// an error response instead of aborting the process.
    ///
    /// For [`Similarity::Cosine`] the bank is L2-normalized here, once. The
    /// engine uses one worker thread per available core;
    /// [`ScoringEngine::set_threads`] changes that.
    pub fn try_new(
        model: impl Into<TrainedModel>,
        mut signatures: Matrix,
        similarity: Similarity,
    ) -> Result<Self, ZslError> {
        let model = model.into();
        check_engine_parts(
            &model,
            signatures.rows(),
            signatures.cols(),
            signatures.as_slice(),
        )
        .map_err(ZslError::Config)?;
        if similarity == Similarity::Cosine {
            signatures.l2_normalize_rows();
        }
        Ok(Self::assemble(
            model,
            Bank::Owned(signatures),
            similarity,
            default_threads(),
        ))
    }

    /// Reassemble an engine from an *already prepared* cached bank, heap-owned
    /// or borrowed from a mapped file — the `.zsm` artifact loaders'
    /// constructor ([`ScoringEngine::load_with_metadata`] and
    /// [`ScoringEngine::load_mapped`]).
    ///
    /// The bank is taken exactly as given, with **no** re-normalization: a
    /// cosine engine's bank was normalized once when the engine was first
    /// built, and normalizing it again would divide by norms of ≈1.0 (not
    /// exactly 1.0) and perturb the cached bits. Skipping that step is what
    /// makes a save/load round trip reproduce predictions bit-for-bit.
    /// Validation (non-empty, finite, width match) still runs and returns the
    /// message for the loader to type, since input here is untrusted by
    /// definition. The loader additionally checks that a cosine bank's rows
    /// really are unit-norm, since nothing downstream will ever re-normalize
    /// them.
    pub(crate) fn from_bank(
        model: TrainedModel,
        bank: Bank,
        similarity: Similarity,
        threads: usize,
    ) -> Result<Self, String> {
        check_engine_parts(&model, bank.rows(), bank.cols(), bank.as_slice())?;
        Ok(Self::assemble(model, bank, similarity, threads))
    }

    /// The engine every constructor returns once its parts are validated:
    /// one band, no calibration, `f64` scoring.
    fn assemble(model: TrainedModel, bank: Bank, similarity: Similarity, threads: usize) -> Self {
        ScoringEngine {
            model,
            shards: BankShards::uniform(bank.rows(), 1),
            bank,
            calibration: None,
            similarity,
            threads: threads.max(1),
            f32_mirror: None,
        }
    }

    /// Switch the engine's scoring precision, (re)building or dropping the
    /// cached `f32` mirror as needed. Consuming-builder style so artifact
    /// loaders and pipelines can chain it after construction:
    /// `engine.with_precision(ScoringPrecision::F32)`.
    pub fn with_precision(mut self, precision: ScoringPrecision) -> Self {
        let cast = |slab: &[f64]| f32::cast_slice(slab).into_owned();
        self.f32_mirror = (precision == ScoringPrecision::F32).then(|| {
            let params = self.model.param_slabs().into_iter().map(cast).collect();
            (params, cast(self.bank.as_slice()))
        });
        self
    }

    /// Record a layout of (at most) `shards` row bands for the cached bank —
    /// see [`BankShards`]. Scoring reads the bank one 64-class tile at a
    /// time at every shard count, so peak score memory stays one `rows x 64`
    /// tile block and the bits, memory and speed are those of one band. It
    /// stays public only because the workspace benchmark's reference engine
    /// calls it.
    pub fn set_bank_shards(&mut self, shards: usize) {
        self.shards = BankShards::uniform(self.bank.rows(), shards);
    }

    /// The shard layout last recorded by [`ScoringEngine::set_bank_shards`]
    /// (one band by default); scoring does not read it.
    pub fn bank_shards(&self) -> &BankShards {
        &self.shards
    }

    /// Heap bytes resident for the signature bank (the `f64` rows plus the
    /// `f32` mirror when reduced-precision scoring is on). `0` + mirror for
    /// an mmap-borrowed bank — the gauge a serving box watches to confirm
    /// zero-copy boot took effect.
    pub fn bank_resident_bytes(&self) -> usize {
        let mirror = self
            .f32_mirror
            .as_ref()
            .map_or(0, |(_, bank)| std::mem::size_of_val(bank.as_slice()));
        self.bank.resident_bytes() + mirror
    }

    /// Whether the bank is borrowed from a memory-mapped artifact.
    pub fn is_bank_mapped(&self) -> bool {
        matches!(self.bank, Bank::Mapped { .. })
    }

    /// Enable calibrated stacking: subtract `gamma_cal` from the scores of
    /// the first `seen_classes` bank rows (the seen prefix of a GZSL union
    /// bank) at scoring time. `gamma_cal = 0` clears calibration and restores
    /// the uncalibrated pipeline bit-for-bit. Rejects non-finite or negative
    /// `gamma_cal` and a prefix longer than the bank.
    pub fn with_calibration(
        mut self,
        gamma_cal: f64,
        seen_classes: usize,
    ) -> Result<Self, ZslError> {
        if !gamma_cal.is_finite() || gamma_cal < 0.0 {
            return Err(ZslError::Config(format!(
                "calibration penalty gamma_cal must be finite and >= 0, got {gamma_cal}"
            )));
        }
        if seen_classes > self.num_classes() {
            return Err(ZslError::Config(format!(
                "calibration seen-class prefix {seen_classes} exceeds the bank's {} classes",
                self.num_classes()
            )));
        }
        self.calibration = (gamma_cal > 0.0).then_some(Calibration {
            gamma: gamma_cal,
            penalized: Penalized::Prefix(seen_classes),
        });
        Ok(self)
    }

    /// Cross-validation-internal calibration over an arbitrary class mask
    /// (`true` = penalized). Never persisted; `gamma_cal = 0` clears.
    pub(crate) fn with_calibration_mask(mut self, gamma_cal: f64, mask: Arc<Vec<bool>>) -> Self {
        debug_assert_eq!(mask.len(), self.num_classes());
        self.calibration = (gamma_cal > 0.0).then_some(Calibration {
            gamma: gamma_cal,
            penalized: Penalized::Mask(mask),
        });
        self
    }

    /// The persistable seen-prefix calibration `(gamma_cal, seen_classes)`,
    /// if any. CV-internal mask calibrations (never persisted) return `None`.
    pub fn seen_calibration(&self) -> Option<(f64, usize)> {
        match &self.calibration {
            Some(Calibration {
                gamma,
                penalized: Penalized::Prefix(seen),
            }) => Some((*gamma, *seen)),
            _ => None,
        }
    }

    /// The active calibration penalty, `0.0` when uncalibrated.
    pub fn gamma_cal(&self) -> f64 {
        self.calibration.as_ref().map_or(0.0, |c| c.gamma)
    }

    /// Whether the engine carries a CV-internal mask calibration, which the
    /// artifact writer must refuse to persist.
    pub(crate) fn has_mask_calibration(&self) -> bool {
        matches!(
            self.calibration,
            Some(Calibration {
                penalized: Penalized::Mask(_),
                ..
            })
        )
    }

    /// Subtract the calibration penalty from a `rows x (hi - lo)` score tile
    /// covering global classes `lo..hi`. No-op when uncalibrated, so the
    /// `gamma_cal = 0` pipeline performs zero extra float operations.
    fn apply_calibration(&self, block: &mut [f64], lo: usize, hi: usize) {
        let Some(cal) = &self.calibration else {
            return;
        };
        let width = hi - lo;
        match &cal.penalized {
            Penalized::Prefix(seen) => {
                let end = (*seen).min(hi);
                if end > lo {
                    for row in block.chunks_mut(width) {
                        for v in &mut row[..end - lo] {
                            *v -= cal.gamma;
                        }
                    }
                }
            }
            Penalized::Mask(mask) => {
                for row in block.chunks_mut(width) {
                    for (j, v) in row.iter_mut().enumerate() {
                        if mask[lo + j] {
                            *v -= cal.gamma;
                        }
                    }
                }
            }
        }
    }

    /// The precision scores are computed in.
    pub fn precision(&self) -> ScoringPrecision {
        if self.f32_mirror.is_some() {
            ScoringPrecision::F32
        } else {
            ScoringPrecision::F64
        }
    }

    /// Resize the engine's worker-thread budget in place (`0` is treated as
    /// `1`). Serving stacks call this once at boot so every connection thread
    /// shares one deliberately-sized engine instead of each assuming the full
    /// machine.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Number of candidate classes.
    pub fn num_classes(&self) -> usize {
        self.bank.rows()
    }

    /// The underlying trained model (any family).
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Input feature width the engine scores — the trained model's.
    pub fn feature_dim(&self) -> usize {
        self.model.feature_dim()
    }

    /// The cached signature bank (L2-normalized when the similarity is
    /// cosine), as a storage-agnostic view: the rows may live on the heap or
    /// be borrowed from a memory-mapped artifact.
    pub fn signatures(&self) -> BankView<'_> {
        BankView {
            data: self.bank.as_slice(),
            rows: self.bank.rows(),
            cols: self.bank.cols(),
        }
    }

    /// The configured similarity.
    pub fn similarity(&self) -> Similarity {
        self.similarity
    }

    /// Worker threads used by the scoring matmuls.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Full score matrix: `n_samples x num_classes`, including any active
    /// calibration penalty. Filled tile by tile from the same fold that
    /// `predict` and `predict_topk` reduce, so it carries their bits; beyond
    /// the matrix it returns, its peak score memory is one `rows x 64` tile
    /// block at any shard count.
    pub fn scores(&self, x: &Matrix) -> Matrix {
        let z = self.num_classes();
        let mut out = vec![0.0; x.rows() * z];
        let mut rest = out.as_mut_slice();
        self.fold(
            x,
            |rows| {
                let (band, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * z);
                rest = tail;
                band
            },
            |band: &mut &mut [f64], classes, block| {
                for (row, tile) in band.chunks_exact_mut(z).zip(block.chunks(classes.len())) {
                    row[classes.clone()].copy_from_slice(tile);
                }
            },
            |_| {},
        );
        Matrix::from_vec(x.rows(), z, out)
    }

    /// The one scoring path. Streams `x` in chunks of [`DEFAULT_CHUNK_ROWS`]
    /// rows; per chunk, projects once (normalizing for cosine), splits the
    /// rows into bands over the worker pool, and in each band scores the
    /// bank one 64-class tile at a time through the `X·Sᵀ` tile kernel,
    /// applies calibration, and hands the `rows x tile_classes` block with
    /// its class range to `tile`, classes ascending. `init` builds each
    /// band's state from its global row range, on the calling thread and in
    /// row order; `done` consumes the states in the same order. Peak score
    /// memory is one `rows x 64` block per band.
    ///
    /// Each score's accumulation is internal to the tile kernel, so every
    /// element carries the *same bits* at every thread, chunk and shard
    /// count, and any reducer that keeps class order reduces the full row
    /// exactly. The precision is chosen here, and only here: both run
    /// [`Self::fold_in`], over the model and bank or over their `f32`
    /// mirror.
    fn fold<S: Send>(
        &self,
        x: &Matrix,
        init: impl FnMut(Range<usize>) -> S,
        tile: impl Fn(&mut S, Range<usize>, &[f64]) + Sync,
        done: impl FnMut(S),
    ) {
        match &self.f32_mirror {
            None => {
                let params = self.model.param_slabs();
                self.fold_in(&params, self.bank.as_slice(), x, init, tile, done);
            }
            Some((params, bank)) => {
                let params: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
                self.fold_in(&params, bank, x, init, tile, done);
            }
        }
    }

    /// [`Self::fold`] in element type `T`: `params` are the model's
    /// parameter slabs and `bank` the cached bank, both in `T`. Each chunk is
    /// cast to `T` (a borrow for `f64`) and each tile block widened back to
    /// `f64` (exact for `f32`) before calibration and the reducer.
    fn fold_in<T: Elem, S: Send>(
        &self,
        params: &[&[T]],
        bank: &[T],
        x: &Matrix,
        mut init: impl FnMut(Range<usize>) -> S,
        tile: impl Fn(&mut S, Range<usize>, &[f64]) + Sync,
        mut done: impl FnMut(S),
    ) {
        let (n, d) = (x.rows(), self.feature_dim());
        assert_eq!(
            x.cols(),
            d,
            "scores shape mismatch: {n}x{} features vs projection dim {d}",
            x.cols()
        );
        let (a_dim, z) = (self.bank.cols(), self.num_classes());
        for start in (0..n).step_by(DEFAULT_CHUNK_ROWS) {
            let end = (start + DEFAULT_CHUNK_ROWS).min(n);
            let rows = end - start;
            let chunk = T::cast_slice(&x.as_slice()[start * d..end * d]);
            let mut proj = self.model.project_slab(params, &chunk, rows, self.threads);
            if self.similarity == Similarity::Cosine {
                l2_normalize_rows_slab(&mut proj, a_dim);
            }
            par_bands(
                rows,
                a_dim * z,
                self.threads,
                |band| init(start + band.start..start + band.end),
                |band, state| {
                    let a = &proj[band.start * a_dim..band.end * a_dim];
                    let mut wide = Vec::new();
                    gemm_bt_tiles(a, band.len(), a_dim, bank, z, |classes, block| {
                        let block = T::widen(block, &mut wide);
                        self.apply_calibration(block, classes.start, classes.end);
                        tile(state, classes, block);
                    });
                },
                &mut done,
            );
        }
    }

    /// Argmax prediction per sample, computed tile by tile: each tile's
    /// per-row argmax folds into a running best with a strictly-greater
    /// `total_cmp` test. Tiles ascend and the in-tile argmax is first-wins,
    /// so the first index wins ties across the whole row.
    ///
    /// Selection uses [`f64::total_cmp`], a total order, so results are
    /// deterministic even for non-finite scores (the old `>`-based loop lost
    /// every NaN comparison and always fell back to class 0). Positive NaN
    /// ranks above every finite score and surfaces in the output; note that
    /// negative NaN ranks below everything, and a NaN *feature* poisons its
    /// entire score row — callers that must detect corrupt inputs should
    /// check [`ScoringEngine::scores`] for non-finite values rather than rely
    /// on predictions alone.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let mut out = Vec::with_capacity(x.rows());
        self.fold(
            x,
            |rows| vec![(0usize, 0.0f64); rows.len()],
            |best: &mut Vec<(usize, f64)>, classes, block| {
                for (row_best, row) in best.iter_mut().zip(block.chunks(classes.len())) {
                    offer_best(row_best, classes.start, row);
                }
            },
            |best| out.extend(best.into_iter().map(|(class, _)| class)),
        );
        out
    }

    /// Guard for the `Result`-returning serving paths: a feature chunk whose
    /// width disagrees with the projection must surface as a typed error
    /// (e.g. a `.zsm` model served against a bundle from a different feature
    /// space), not as the shape assert the in-memory `predict` reserves for
    /// programming errors.
    pub(crate) fn check_feature_width(&self, cols: usize) -> Result<(), ZslError> {
        let d = self.model.feature_dim();
        if cols != d {
            return Err(ZslError::Config(format!(
                "source features have {cols} columns but the engine's projection expects {d}; \
                 the model was trained on a different feature space"
            )));
        }
        Ok(())
    }

    /// The one batch-prediction entry point over a source: argmax
    /// predictions over one split of any [`FeatureSource`], chunk by chunk.
    ///
    /// Projection, normalization, and scoring are all row-local, so the
    /// predictions are **bit-identical** to calling
    /// [`ScoringEngine::predict`] on the concatenated rows — for every source
    /// kind and chunk size. Only the `Vec<usize>` of predictions grows with
    /// the stream; peak feature memory stays one chunk (zero extra copies for
    /// in-memory sources, which lend their matrix as one borrowed chunk).
    ///
    /// A source whose feature width disagrees with the model (e.g. a `.zsm`
    /// engine from a different feature space) is a typed
    /// [`ZslError::Config`], never a panic.
    pub fn predict_source(
        &self,
        source: &dyn FeatureSource,
        split: SplitKind,
    ) -> Result<Vec<usize>, ZslError> {
        let mut out = Vec::new();
        for chunk in source.stream(split)? {
            let (x, _) = chunk?;
            self.check_feature_width(x.cols())?;
            out.extend(self.predict(&x));
        }
        Ok(out)
    }

    /// Best-`k` ranked predictions per sample (`k` clamped to the class
    /// count), computed tile by tile: each row offers its tile scores to a
    /// bounded worst-first `k`-heap ordered by descending score, ties by
    /// ascending class id, so the result equals a full sort of the row —
    /// without ever holding more than one `rows x 64` tile of scores plus
    /// `k` candidates per row.
    pub fn predict_topk(&self, x: &Matrix, k: usize) -> Vec<TopK> {
        let k = k.min(self.num_classes());
        let mut out = Vec::with_capacity(x.rows());
        self.fold(
            x,
            |rows| {
                (0..rows.len())
                    .map(|_| BinaryHeap::with_capacity(k))
                    .collect::<Vec<_>>()
            },
            |heaps: &mut Vec<BinaryHeap<Reverse<Cand>>>, classes, block| {
                if k == 0 {
                    return;
                }
                for (heap, row) in heaps.iter_mut().zip(block.chunks(classes.len())) {
                    offer_tile(heap, k, classes.start, row);
                }
            },
            |heaps| {
                out.extend(heaps.into_iter().map(|heap| {
                    let ranked = heap.into_sorted_vec();
                    TopK {
                        classes: ranked.iter().map(|Reverse(c)| c.class).collect(),
                        scores: ranked.iter().map(|Reverse(c)| c.score).collect(),
                    }
                }));
            },
        );
        out
    }
}

/// Fold one row of a score tile — classes `first..first + row.len()`, which
/// ascend past every class folded before — into that row's running best
/// `(class, score)`: the tile's first-wins argmax replaces it when `first`
/// is 0 or when strictly `total_cmp`-greater, so the first index of the
/// row's maximum wins. A tile row with no score not below the best (see
/// [`offer_tile`]) cannot win and is skipped after one vectorized pass.
fn offer_best(best: &mut (usize, f64), first: usize, row: &[f64]) {
    if first > 0 && !any_not_below(row, best.1) {
        return;
    }
    let local = argmax(row);
    if first == 0 || row[local].total_cmp(&best.1) == Ordering::Greater {
        *best = (first + local, row[local]);
    }
}

/// Offer one row of a score tile — classes `first..first + row.len()`, which
/// ascend past every class offered before — to that row's bounded heap of
/// its best `k > 0` candidates. Until the heap holds `k`, every score goes
/// in. After that a candidate replaces the worst only when it is strictly
/// better under [`Cand`]'s order; as class ids ascend, that is exactly when
/// its score is `total_cmp`-greater than the worst's, so ties keep the
/// lower class id, as a full sort does.
///
/// A `total_cmp`-greater score is never `<` the worst score: NaN compares
/// false, and so does `+0.0 < -0.0`. So `!(s < worst)` is a superset of the
/// exact test, and the tile row is first checked with it in one pass that
/// vectorizes; most rows of a wide bank have no score left that can enter,
/// and skip the heap entirely.
fn offer_tile(heap: &mut BinaryHeap<Reverse<Cand>>, k: usize, first: usize, row: &[f64]) {
    let fill = (k - heap.len()).min(row.len());
    for (j, &score) in row[..fill].iter().enumerate() {
        heap.push(Reverse(Cand {
            score,
            class: first + j,
        }));
    }
    let rest = &row[fill..];
    let mut worst = heap.peek().expect("k > 0 and the row is not empty").0;
    if !any_not_below(rest, worst.score) {
        return;
    }
    for (j, &score) in rest.iter().enumerate() {
        if score < worst.score {
            continue;
        }
        let cand = Cand {
            score,
            class: first + fill + j,
        };
        if cand > worst {
            *heap.peek_mut().expect("the heap holds k > 0 candidates") = Reverse(cand);
            worst = heap.peek().expect("the heap holds k > 0 candidates").0;
        }
    }
}

/// Whether any of `scores` is not below `bound`: one pass with no early
/// exit, so it vectorizes. True for every score that `total_cmp` ranks above
/// `bound`, and for NaN on either side.
fn any_not_below(scores: &[f64], bound: f64) -> bool {
    scores.iter().fold(false, |hit, s| {
        hit | (s.partial_cmp(&bound) != Some(Ordering::Less))
    })
}

/// One streaming top-k candidate. The ordering is "better = greater": higher
/// score first (under [`f64::total_cmp`]), ties broken by *lower* class id —
/// the total order of a full descending sort with an index tie-break, so the
/// heap merge agrees with it on every tie, including ties that straddle tile
/// boundaries.
#[derive(Clone, Copy, Debug)]
struct Cand {
    score: f64,
    class: usize,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.class.cmp(&self.class))
    }
}

/// The ONE construction-time validation behind every engine constructor:
/// empty, zero-width, or non-finite signature banks and attribute-dimension
/// mismatches are reported as an error message, which
/// [`ScoringEngine::try_new`] types as [`ZslError::Config`] and the `.zsm`
/// loaders as a header error.
fn check_engine_parts(
    model: &TrainedModel,
    rows: usize,
    cols: usize,
    data: &[f64],
) -> Result<(), String> {
    if rows == 0 {
        return Err("classifier needs at least one class signature".into());
    }
    if cols == 0 {
        return Err(
            "classifier signature bank is zero-width (attr_dim = 0); every class needs at least \
             one attribute"
                .into(),
        );
    }
    debug_assert_eq!(data.len(), rows * cols);
    for (r, row) in data.chunks(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!(
                    "signature bank contains non-finite value {v} at row {r}, col {c}; clean the \
                     bank before constructing a classifier"
                ));
            }
        }
    }
    if model.attr_dim() != cols {
        return Err(format!(
            "model attribute dim {} != signature dim {}",
            model.attr_dim(),
            cols
        ));
    }
    if !model.is_finite() {
        return Err(format!(
            "{} model contains non-finite parameters; refuse to score with it",
            model.family()
        ));
    }
    Ok(())
}

/// Index of the row maximum under [`f64::total_cmp`], first index winning
/// ties. `total_cmp` gives NaN a defined (maximal, for positive NaN) rank, so
/// a NaN score is *selected* — and therefore visible downstream — rather than
/// losing every `>` comparison and silently defaulting to class 0.
fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in row.iter().enumerate().skip(1) {
        if v.total_cmp(&row[best]) == Ordering::Greater {
            best = i;
        }
    }
    best
}

/// Incremental per-class accuracy counter — the one per-class accuracy
/// metric, behind one-shot batches and the streamed evaluators in
/// [`crate::eval`] alike.
///
/// Hits and totals are integers, so observation order (and chunking) cannot
/// perturb anything; the only float operations are the final `hits / counts`
/// divisions and the mean over defined classes. Batch and streamed metrics
/// sharing this type is what makes their bit-identity structural rather than
/// a documentation promise.
#[derive(Clone, Debug)]
pub struct ClassAccuracyCounter {
    hits: Vec<usize>,
    counts: Vec<usize>,
}

impl ClassAccuracyCounter {
    /// Counter over `num_classes` classes, all zero.
    pub fn new(num_classes: usize) -> Self {
        ClassAccuracyCounter {
            hits: vec![0; num_classes],
            counts: vec![0; num_classes],
        }
    }

    /// Fold one batch of aligned predictions and ground-truth labels.
    /// Panics on length mismatch or an out-of-range truth label.
    pub fn observe(&mut self, predicted: &[usize], truth: &[usize]) {
        assert_eq!(predicted.len(), truth.len(), "length mismatch");
        for (&p, &t) in predicted.iter().zip(truth) {
            assert!(t < self.counts.len(), "truth label {t} out of range");
            self.counts[t] += 1;
            if p == t {
                self.hits[t] += 1;
            }
        }
    }

    /// Per-class accuracies; classes with no observed samples yield `None`.
    pub fn per_class(&self) -> Vec<Option<f64>> {
        self.hits
            .iter()
            .zip(&self.counts)
            .map(|(&h, &c)| (c > 0).then(|| h as f64 / c as f64))
            .collect()
    }

    /// Mean of the defined per-class accuracies — the standard ZSL metric,
    /// robust to class imbalance — and 0 when none are defined.
    pub fn mean(&self) -> f64 {
        mean_defined(&self.per_class())
    }
}

/// Mean of the defined entries, 0 when none are defined — the one reduction
/// behind [`ClassAccuracyCounter::mean`] and the [`crate::eval::GzslReport`]
/// accuracies, so every report derives its headline numbers from identical
/// float operations.
pub(crate) fn mean_defined(per_class: &[Option<f64>]) -> f64 {
    let defined: Vec<f64> = per_class.iter().copied().flatten().collect();
    if defined.is_empty() {
        return 0.0;
    }
    defined.iter().sum::<f64>() / defined.len() as f64
}

/// Harmonic mean `2·s·u / (s + u)` of seen and unseen accuracy — the headline
/// generalized-ZSL metric. Returns 0 when both inputs are (near) zero.
pub fn harmonic_mean(seen_acc: f64, unseen_acc: f64) -> f64 {
    let denom = seen_acc + unseen_acc;
    if denom <= NORM_EPSILON {
        return 0.0;
    }
    2.0 * seen_acc * unseen_acc / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::tests::{assert_same_bits, gemm_bt_reference};
    use crate::linalg::Matrix;
    use crate::model::ProjectionModel;

    /// Identity projection over 2-dim "attributes" with two orthogonal classes.
    fn toy_engine(similarity: Similarity) -> ScoringEngine {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let signatures = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        ScoringEngine::try_new(model, signatures, similarity).expect("engine")
    }

    #[test]
    fn cosine_is_scale_invariant_dot_is_not() {
        let x = Matrix::from_rows(&[vec![10.0, 1.0], vec![0.1, 0.2]]);
        let cos = toy_engine(Similarity::Cosine);
        assert_eq!(cos.predict(&x), vec![0, 1]);
        // Scaling a sample must not change its cosine prediction.
        let x_scaled = Matrix::from_rows(&[vec![1000.0, 100.0], vec![0.1, 0.2]]);
        assert_eq!(cos.predict(&x_scaled), vec![0, 1]);

        let dot = toy_engine(Similarity::Dot);
        let dot_scores = dot.scores(&x);
        assert!((dot_scores.get(0, 0) - 10.0).abs() < 1e-12);
        let cos_scores = cos.scores(&x);
        assert!(cos_scores.get(0, 0) <= 1.0 + 1e-12);
    }

    #[test]
    fn topk_ranks_best_first_and_clamps_k() {
        let clf = toy_engine(Similarity::Dot);
        let x = Matrix::from_rows(&[vec![0.2, 0.9]]);
        let ranked = clf.predict_topk(&x, 10);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].classes, vec![1, 0]);
        assert!(ranked[0].scores[0] >= ranked[0].scores[1]);
        let top1 = clf.predict_topk(&x, 1);
        assert_eq!(top1[0].classes, vec![1]);
    }

    #[test]
    fn accuracy_metrics_on_known_inputs() {
        let predicted = [0, 1, 1, 2, 2, 2];
        let truth = [0, 1, 0, 2, 2, 1];
        let mut counter = ClassAccuracyCounter::new(4);
        counter.observe(&predicted, &truth);

        let per_class = counter.per_class();
        assert_eq!(per_class[0], Some(0.5));
        assert_eq!(per_class[1], Some(0.5));
        assert_eq!(per_class[2], Some(1.0));
        assert_eq!(per_class[3], None);

        assert!((counter.mean() - (0.5 + 0.5 + 1.0) / 3.0).abs() < 1e-12);
    }

    // Every construction failure is a typed `ZslError::Config`: unwrapping it
    // panics with the variant and its message, which `should_panic` matches.

    #[test]
    #[should_panic(expected = r#"Config("classifier needs at least one class signature"#)]
    fn classifier_rejects_empty_signature_bank() {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        ScoringEngine::try_new(model, Matrix::zeros(0, 2), Similarity::Cosine).unwrap();
    }

    #[test]
    #[should_panic(expected = r#"Config("classifier signature bank is zero-width"#)]
    fn classifier_rejects_zero_width_signature_bank() {
        let model = ProjectionModel::from_weights(Matrix::zeros(2, 0));
        ScoringEngine::try_new(model, Matrix::zeros(3, 0), Similarity::Cosine).unwrap();
    }

    #[test]
    #[should_panic(expected = r#"Config("signature bank contains non-finite value"#)]
    fn classifier_rejects_nan_in_signature_bank() {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let bank = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, f64::NAN]]);
        ScoringEngine::try_new(model, bank, Similarity::Cosine).unwrap();
    }

    #[test]
    #[should_panic(expected = r#"Config("signature bank contains non-finite value"#)]
    fn classifier_rejects_infinity_in_signature_bank() {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let bank = Matrix::from_rows(&[vec![1.0, f64::INFINITY]]);
        ScoringEngine::try_new(model, bank, Similarity::Dot).unwrap();
    }

    #[test]
    fn argmax_surfaces_nan_instead_of_defaulting_to_class_zero() {
        // Regression: the old `v > row[best]` loop lost every comparison
        // against NaN, so a NaN score anywhere right of class 0 silently
        // predicted class 0.
        assert_eq!(argmax(&[0.5, f64::NAN, 0.9]), 1);
        assert_eq!(argmax(&[1.0, f64::NAN]), 1);
        // Finite rows keep ordinary argmax semantics, first index wins ties.
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }

    #[test]
    fn nan_feature_scores_are_visible_and_predictions_deterministic() {
        // A NaN feature poisons its whole score row (every dot picks the NaN
        // up, even through zero signature entries). The scores expose the
        // corruption to callers, and predict/predict_topk stay deterministic
        // (total_cmp is a total order) instead of depending on incomparable
        // `>` results.
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let bank = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let clf = ScoringEngine::try_new(model, bank, Similarity::Dot).expect("engine");
        let x = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![0.0, 1.0]]);
        let scores = clf.scores(&x);
        assert!(
            scores.row(0).iter().all(|v| v.is_nan()),
            "corruption hidden"
        );
        assert!(scores.row(1).iter().all(|v| v.is_finite()));
        // The clean sample is unaffected; the poisoned one resolves to the
        // lowest NaN-scored index under the documented total_cmp order.
        let predictions = clf.predict(&x);
        assert_eq!(predictions[1], 1);
        assert_eq!(predictions[0], 0);
        let ranked = clf.predict_topk(&x, 2);
        assert_eq!(ranked[0].classes, vec![0, 1]);
        assert!(ranked[0].scores.iter().all(|v| v.is_nan()));
    }

    /// `predict_topk` against the reference it must equal: a full sort of
    /// each `scores` row, descending `total_cmp`, ties by ascending class id.
    fn assert_topk_is_full_sort(engine: &ScoringEngine, x: &Matrix, k: usize) {
        let scores = engine.scores(x);
        let ranked = engine.predict_topk(x, k);
        assert_eq!(ranked.len(), x.rows());
        for (i, got) in ranked.iter().enumerate() {
            let row = scores.row(i);
            let mut order: Vec<usize> = (0..row.len()).collect();
            order.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
            order.truncate(k.min(row.len()));
            let expected: Vec<u64> = order.iter().map(|&c| row[c].to_bits()).collect();
            assert_eq!(got.classes, order, "row {i} k={k}");
            let got_bits: Vec<u64> = got.scores.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, expected, "row {i} k={k}");
        }
    }

    #[test]
    fn topk_matches_full_sort_reference() {
        let mut rng = crate::data::Rng::new(2027);
        for z in [1usize, 2, 7, 64, 201] {
            let bank = Matrix::from_vec(z, 3, (0..z * 3).map(|_| rng.normal()).collect());
            let x = Matrix::from_vec(4, 3, (0..12).map(|_| rng.normal()).collect());
            let model = ProjectionModel::from_weights(Matrix::identity(3));
            let engine = ScoringEngine::try_new(model, bank, Similarity::Dot).expect("engine");
            for k in [0usize, 1, 3, z / 2, z.saturating_sub(1), z, z + 5] {
                assert_topk_is_full_sort(&engine, &x, k);
            }
        }
    }

    #[test]
    fn topk_handles_ties_and_nans_like_full_sort() {
        // Dot scores of x = [1, 1e308, 1e308] against this bank are
        // [1, 1, NaN, 0.5, 1]: class 2 sums inf + -inf.
        let bank = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 10.0, -10.0],
            vec![0.5, 0.0, 0.0],
            vec![1.0, 0.0, 0.0],
        ]);
        let model = ProjectionModel::from_weights(Matrix::identity(3));
        let engine = ScoringEngine::try_new(model, bank, Similarity::Dot).expect("engine");
        let x = Matrix::from_rows(&[vec![1.0, 1e308, 1e308], vec![0.5, 0.0, 0.0]]);
        let scores = engine.scores(&x);
        assert!(scores.get(0, 2).is_nan());
        assert_eq!(scores.get(1, 0), scores.get(1, 4), "tie lost");
        for k in 0..=engine.num_classes() {
            assert_topk_is_full_sort(&engine, &x, k);
        }
    }

    #[test]
    fn predict_on_zero_samples_returns_empty() {
        let clf = toy_engine(Similarity::Cosine);
        let x = Matrix::zeros(0, 2);
        assert!(clf.predict(&x).is_empty());
        assert!(clf.predict_topk(&x, 1).is_empty());
        let scores = clf.scores(&x);
        assert_eq!((scores.rows(), scores.cols()), (0, 2));
    }

    #[test]
    fn single_class_bank_always_predicts_class_zero() {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let bank = Matrix::from_rows(&[vec![0.3, 0.7]]);
        let clf = ScoringEngine::try_new(model, bank, Similarity::Cosine).expect("engine");
        let x = Matrix::from_rows(&[vec![5.0, -1.0], vec![-2.0, 0.4]]);
        assert_eq!(clf.predict(&x), vec![0, 0]);
        let ranked = clf.predict_topk(&x, 4);
        assert_eq!(ranked[0].classes, vec![0]);
        assert_eq!(ranked[1].classes, vec![0]);
    }

    #[test]
    fn engine_caches_normalized_bank_and_streams_chunks() {
        let model = ProjectionModel::from_weights(Matrix::identity(3));
        let bank = Matrix::from_rows(&[vec![3.0, 0.0, 0.0], vec![0.0, 0.0, 5.0]]);
        let engine = ScoringEngine::try_new(model, bank, Similarity::Cosine).expect("engine");
        // Bank was normalized once at construction.
        for r in 0..engine.num_classes() {
            let norm: f64 = engine
                .signatures()
                .row(r)
                .iter()
                .map(|v| v * v)
                .sum::<f64>();
            assert!((norm - 1.0).abs() < 1e-12);
        }

        // Scoring is row-local: any split of the rows scores the same bits.
        let mut rng = crate::data::Rng::new(9);
        let x = Matrix::from_vec(10, 3, (0..30).map(|_| rng.normal()).collect());
        let full = engine.scores(&x);
        for split in [1usize, 3, 9] {
            let mut stitched = engine.scores(&x.row_block(0..split)).as_slice().to_vec();
            stitched.extend_from_slice(engine.scores(&x.row_block(split..10)).as_slice());
            assert_eq!(stitched, full.as_slice(), "split={split}");
        }
    }

    #[test]
    fn predict_source_matches_predict_on_every_split() {
        let ds = crate::data::SyntheticConfig::new()
            .classes(6, 2)
            .seed(8)
            .build();
        let model = crate::model::EszslConfig::new()
            .build()
            .fit(&ds)
            .expect("fit");
        let engine =
            ScoringEngine::try_new(model, ds.all_signatures(), Similarity::Cosine).expect("engine");
        for (split, x) in [
            (SplitKind::Trainval, &ds.train_x),
            (SplitKind::TestSeen, &ds.test_seen_x),
            (SplitKind::TestUnseen, &ds.test_unseen_x),
        ] {
            assert_eq!(
                engine.predict_source(&ds, split).expect("predict_source"),
                engine.predict(x),
                "{split:?}"
            );
        }
    }

    #[test]
    fn engine_results_identical_across_thread_counts() {
        let mut rng = crate::data::Rng::new(33);
        let w = Matrix::from_vec(4, 3, (0..12).map(|_| rng.normal()).collect());
        let bank = Matrix::from_vec(5, 3, (0..15).map(|_| rng.normal()).collect());
        let x = Matrix::from_vec(40, 4, (0..160).map(|_| rng.normal()).collect());
        let mut baseline =
            ScoringEngine::try_new(ProjectionModel::from_weights(w), bank, Similarity::Cosine)
                .expect("engine");
        baseline.set_threads(1);
        for threads in [2usize, 4, 9] {
            let mut engine = baseline.clone();
            engine.set_threads(threads);
            assert_eq!(
                engine.scores(&x).as_slice(),
                baseline.scores(&x).as_slice(),
                "threads={threads}"
            );
            assert_eq!(engine.predict(&x), baseline.predict(&x));
        }
    }

    #[test]
    fn f32_precision_tracks_f64_scores_and_is_thread_invariant() {
        let mut rng = crate::data::Rng::new(0xF32);
        let w = Matrix::from_vec(6, 4, (0..24).map(|_| rng.normal()).collect());
        let bank = Matrix::from_vec(5, 4, (0..20).map(|_| rng.normal()).collect());
        let x = Matrix::from_vec(32, 6, (0..192).map(|_| rng.normal()).collect());
        let mut f64_engine =
            ScoringEngine::try_new(ProjectionModel::from_weights(w), bank, Similarity::Cosine)
                .expect("engine");
        f64_engine.set_threads(1);
        assert_eq!(f64_engine.precision(), ScoringPrecision::F64);
        let f32_engine = f64_engine.clone().with_precision(ScoringPrecision::F32);
        assert_eq!(f32_engine.precision(), ScoringPrecision::F32);
        let reference = f32_engine.scores(&x);
        // Single precision tracks double to f32 roundoff on these magnitudes.
        let drift = reference.max_abs_diff(&f64_engine.scores(&x));
        assert!(
            drift > 0.0 && drift < 1e-4,
            "f32 drift {drift} out of range"
        );
        // Bit-identical across thread counts within the f32 precision.
        for threads in [2usize, 4, 9] {
            let mut engine = f32_engine.clone();
            engine.set_threads(threads);
            assert_eq!(
                engine.scores(&x).as_slice(),
                reference.as_slice(),
                "threads={threads}"
            );
        }
        // Round-tripping back to f64 restores the exact double-precision path.
        let restored = f32_engine.clone().with_precision(ScoringPrecision::F64);
        assert_eq!(
            restored.scores(&x).as_slice(),
            f64_engine.scores(&x).as_slice()
        );
    }

    #[test]
    fn scoring_precision_parses_and_displays_round_trip() {
        for p in [ScoringPrecision::F64, ScoringPrecision::F32] {
            assert_eq!(p.to_string().parse::<ScoringPrecision>(), Ok(p));
        }
        assert_eq!("F32".parse::<ScoringPrecision>(), Ok(ScoringPrecision::F32));
        assert!("f16".parse::<ScoringPrecision>().is_err());
    }

    #[test]
    fn similarity_parses_and_displays_round_trip() {
        for sim in [Similarity::Cosine, Similarity::Dot] {
            assert_eq!(sim.to_string().parse::<Similarity>(), Ok(sim));
        }
        assert_eq!("COSINE".parse::<Similarity>(), Ok(Similarity::Cosine));
        assert!("euclidean".parse::<Similarity>().is_err());
    }

    #[test]
    fn harmonic_mean_known_values() {
        assert!((harmonic_mean(1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(0.8, 0.4) - 2.0 * 0.8 * 0.4 / 1.2).abs() < 1e-12);
        assert_eq!(harmonic_mean(0.0, 0.9), 0.0);
        assert_eq!(harmonic_mean(0.0, 0.0), 0.0);
    }

    /// Score rows cannot mix NaN with other values or hold −0.0 (a NaN
    /// feature poisons every class, and sums start from +0.0), so the
    /// reducers are driven directly here with rows that do, cut into tiles
    /// of several widths, against the first-index argmax and a full sort.
    #[test]
    fn tile_reducers_match_argmax_and_full_sort_on_special_scores() {
        let values = [
            0.5,
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            -2.0,
        ];
        let mut rng = crate::data::Rng::new(0xB357);
        for trial in 0..300 {
            let len = 1 + trial % 140;
            let row: Vec<f64> = (0..len)
                .map(|_| values[rng.next_u64() as usize % values.len()])
                .collect();
            let mut order: Vec<usize> = (0..len).collect();
            order.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
            for width in [1usize, 7, BLOCK] {
                let mut best = (0usize, 0.0f64);
                for (t, tile) in row.chunks(width).enumerate() {
                    offer_best(&mut best, t * width, tile);
                }
                assert_eq!(best.0, argmax(&row), "{row:?} width={width}");
                for k in [1usize, 2, 3, 10, len] {
                    let k = k.min(len);
                    let mut heap = BinaryHeap::new();
                    for (t, tile) in row.chunks(width).enumerate() {
                        offer_tile(&mut heap, k, t * width, tile);
                    }
                    let got: Vec<usize> = heap
                        .into_sorted_vec()
                        .iter()
                        .map(|Reverse(c)| c.class)
                        .collect();
                    assert_eq!(got, order[..k], "{row:?} width={width} k={k}");
                }
            }
        }
    }

    /// One score block of the banded fold: its global rows, its classes
    /// and the `rows x classes` scores.
    type Block = (Range<usize>, Range<usize>, Vec<f64>);

    /// The fold as it ran before tiles were fused, kept as the oracle: per
    /// chunk, the projection, then per [`BankShards`] band the whole
    /// `rows x band` score block, scored in the reference order, widened
    /// and calibrated.
    fn banded_blocks(engine: &ScoringEngine, x: &Matrix, shards: usize) -> Vec<Block> {
        match &engine.f32_mirror {
            None => {
                let params = engine.model.param_slabs();
                banded_blocks_in(engine, &params, engine.bank.as_slice(), x, shards)
            }
            Some((params, bank)) => {
                let params: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
                banded_blocks_in(engine, &params, bank, x, shards)
            }
        }
    }

    fn banded_blocks_in<T: Elem>(
        engine: &ScoringEngine,
        params: &[&[T]],
        bank: &[T],
        x: &Matrix,
        shards: usize,
    ) -> Vec<Block> {
        let (n, d, a_dim) = (x.rows(), engine.feature_dim(), engine.bank.cols());
        let bands = BankShards::uniform(engine.num_classes(), shards);
        let mut blocks = Vec::new();
        for start in (0..n).step_by(DEFAULT_CHUNK_ROWS) {
            let end = (start + DEFAULT_CHUNK_ROWS).min(n);
            let chunk = T::cast_slice(&x.as_slice()[start * d..end * d]);
            let mut proj = engine.model.project_slab(params, &chunk, end - start, 1);
            if engine.similarity == Similarity::Cosine {
                l2_normalize_rows_slab(&mut proj, a_dim);
            }
            for b in 0..bands.count() {
                let r = bands.band(b);
                let band_bank = &bank[r.start * a_dim..r.end * a_dim];
                let mut block = gemm_bt_reference(&proj, end - start, a_dim, band_bank, r.len());
                let mut block = T::widen(&mut block, &mut Vec::new()).to_vec();
                engine.apply_calibration(&mut block, r.start, r.end);
                blocks.push((start..end, r, block));
            }
        }
        blocks
    }

    /// The pre-fusion argmax merge: per band block, each row's first-wins
    /// argmax replaces the running best when strictly `total_cmp`-greater.
    fn banded_predict(blocks: &[Block], n: usize) -> Vec<usize> {
        let mut best = vec![(0usize, 0.0f64); n];
        for (rows, r, block) in blocks {
            for (i, row) in rows.clone().zip(block.chunks(r.len())) {
                let local = argmax(row);
                let cand = (r.start + local, row[local]);
                if r.start == 0 || cand.1.total_cmp(&best[i].1) == Ordering::Greater {
                    best[i] = cand;
                }
            }
        }
        best.into_iter().map(|(class, _)| class).collect()
    }

    /// The pre-fusion top-k: every score of every band block through the
    /// bounded heap, then a descending sort.
    fn banded_topk(blocks: &[Block], n: usize, k: usize) -> Vec<TopK> {
        let mut heaps = vec![BinaryHeap::<Reverse<Cand>>::new(); n];
        for (rows, r, block) in blocks {
            for (i, row) in rows.clone().zip(block.chunks(r.len())) {
                let heap = &mut heaps[i];
                for (j, &score) in row.iter().enumerate() {
                    let cand = Cand {
                        score,
                        class: r.start + j,
                    };
                    if heap.len() < k {
                        heap.push(Reverse(cand));
                    } else if k > 0 && cand > heap.peek().expect("k > 0").0 {
                        heap.pop();
                        heap.push(Reverse(cand));
                    }
                }
            }
        }
        heaps
            .into_iter()
            .map(|heap| {
                let mut ranked: Vec<Cand> = heap.into_iter().map(|Reverse(c)| c).collect();
                ranked.sort_unstable_by(|a, b| b.cmp(a));
                TopK {
                    classes: ranked.iter().map(|c| c.class).collect(),
                    scores: ranked.iter().map(|c| c.score).collect(),
                }
            })
            .collect()
    }

    /// `rows` queries of width `dim` cycling through special kinds from
    /// `offset`: random, a copy of a bank row that has a duplicate across a
    /// tile edge, all −0.0, one +NaN, one −NaN, ±1e308 (±inf dot scores),
    /// one +inf, and a copy of the bank's first row (tied with its last).
    /// Each row holds one kind of non-finite value, so every NaN it scores
    /// carries one payload whatever order a kernel sums in.
    fn special_queries(
        rng: &mut crate::data::Rng,
        bank: &Matrix,
        rows: usize,
        offset: usize,
    ) -> Matrix {
        let (z, dim) = (bank.rows(), bank.cols());
        let data = (0..rows)
            .flat_map(|i| -> Vec<f64> {
                let at = i % dim;
                let mut one = |v: f64| {
                    let mut row: Vec<f64> = (0..dim).map(|_| rng.normal()).collect();
                    row[at] = v;
                    row
                };
                match (i + offset) % 8 {
                    0 => one(0.5),
                    1 => bank.row(63 % z).to_vec(),
                    2 => vec![-0.0; dim],
                    3 => one(f64::NAN),
                    4 => one(-f64::NAN),
                    5 => (0..dim)
                        .map(|c| if c % 2 == 0 { 1e308 } else { -1e308 })
                        .collect(),
                    6 => one(f64::INFINITY),
                    _ => bank.row(0).to_vec(),
                }
            })
            .collect();
        Matrix::from_vec(rows, dim, data)
    }

    #[test]
    fn fused_tiles_reproduce_the_banded_fold_bit_for_bit() {
        let dim = 6;
        let mut rng = crate::data::Rng::new(0x7113);
        let mut case = 0usize;
        for z in [1usize, 7, 8, 63, 64, 65, 129, 1000] {
            // Duplicate rows tie across the first two tile edges and across
            // the whole bank.
            let mut bank = Matrix::from_vec(z, dim, (0..z * dim).map(|_| rng.normal()).collect());
            for (from, to) in [(63, 64), (127, 128), (0, z - 1)] {
                if to < z {
                    let row = bank.row(from).to_vec();
                    bank.row_mut(to).copy_from_slice(&row);
                }
            }
            for rows in [1usize, 3, 4, 5, 64] {
                let x = special_queries(&mut rng, &bank, rows, z + rows);
                for precision in [ScoringPrecision::F64, ScoringPrecision::F32] {
                    for similarity in [Similarity::Cosine, Similarity::Dot] {
                        for calibration in ["none", "prefix", "mask"] {
                            case += 1;
                            let (threads, shards) = (1 + case % 4, 1 + case % 3);
                            let model = ProjectionModel::from_weights(Matrix::identity(dim));
                            let engine = ScoringEngine::try_new(model, bank.clone(), similarity)
                                .expect("engine")
                                .with_precision(precision);
                            let mut engine = match calibration {
                                "none" => engine,
                                "prefix" => engine
                                    .with_calibration(0.25, (z / 2 + 1).min(z))
                                    .expect("prefix calibration"),
                                _ => engine.with_calibration_mask(
                                    0.25,
                                    Arc::new((0..z).map(|c| c % 3 == 1).collect()),
                                ),
                            };
                            engine.set_threads(threads);
                            engine.set_bank_shards(shards);
                            let tag = format!(
                                "z={z} rows={rows} {precision} {similarity} calibration={calibration} \
                                 threads={threads} shards={shards}"
                            );

                            let blocks = banded_blocks(&engine, &x, shards);
                            let mut oracle = vec![0.0; rows * z];
                            for (rs, r, block) in &blocks {
                                for (i, src) in rs.clone().zip(block.chunks(r.len())) {
                                    oracle[i * z + r.start..i * z + r.end].copy_from_slice(src);
                                }
                            }
                            assert_same_bits(engine.scores(&x).as_slice(), &oracle, &tag);
                            assert_eq!(engine.predict(&x), banded_predict(&blocks, rows), "{tag}");
                            for k in [0, 1, 10, z, z + 3] {
                                let got = engine.predict_topk(&x, k);
                                let want = banded_topk(&blocks, rows, k.min(z));
                                for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                                    let what = format!("{tag} k={k} row {i}");
                                    assert_eq!(got.classes, want.classes, "{what}");
                                    assert_same_bits(&got.scores, &want.scores, &what);
                                }
                                assert_eq!(got.len(), rows, "{tag} k={k}");
                            }
                        }
                    }
                }
            }
        }
    }
}
