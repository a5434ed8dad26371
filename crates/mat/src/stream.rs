//! Bounded-memory streaming over a 2-D numeric MAT variable.
//!
//! MATLAB stores matrices column-major, and the xlsa17 `features` matrix is
//! `d x N` — one *column* per sample. Column-major `d x N` means each
//! sample's `d` feature values are contiguous on disk, so reading `k`
//! consecutive columns yields, byte-for-byte, a row-major `k x d` matrix of
//! samples. [`ColumnChunkReader`] exploits that: it decodes `chunk_cols`
//! columns at a time into a [`Matrix`] whose rows are samples, keeping peak
//! memory at `O(chunk_cols * d)` regardless of `N`.

use crate::error::MatError;
use crate::mat5::{ByteOrder, ValueSource};
use std::path::PathBuf;
use zsl_core::linalg::Matrix;

/// Streaming decoder yielding consecutive column chunks of a 2-D numeric
/// variable as row-major sample matrices.
///
/// Create via [`MatFile::stream_columns`](crate::MatFile::stream_columns).
/// Also usable as an `Iterator<Item = Result<Matrix, MatError>>`.
pub struct ColumnChunkReader {
    source: ValueSource,
    path: PathBuf,
    order: ByteOrder,
    pr_type: u32,
    vsize: usize,
    rows: usize,
    cols: usize,
    chunk_cols: usize,
    cols_read: usize,
    /// Set once the source has been drained and (for compressed elements)
    /// its Adler-32 trailer verified.
    finished: bool,
}

impl ColumnChunkReader {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        source: ValueSource,
        path: PathBuf,
        order: ByteOrder,
        pr_type: u32,
        vsize: usize,
        rows: usize,
        cols: usize,
        chunk_cols: usize,
    ) -> Self {
        ColumnChunkReader {
            source,
            path,
            order,
            pr_type,
            vsize,
            rows,
            cols,
            chunk_cols,
            cols_read: 0,
            finished: false,
        }
    }

    /// Number of rows in the MATLAB matrix (the feature dimension `d` for
    /// an xlsa17 `features` variable).
    pub fn feature_dim(&self) -> usize {
        self.rows
    }

    /// Number of columns in the MATLAB matrix (the sample count `N`).
    pub fn total_cols(&self) -> usize {
        self.cols
    }

    /// Columns decoded so far.
    pub fn cols_read(&self) -> usize {
        self.cols_read
    }

    /// Decode the next chunk: up to `chunk_cols` MATLAB columns, returned
    /// as a row-major matrix with one *row* per column (sample). Returns
    /// `Ok(None)` after the last chunk, at which point compressed sources
    /// have been drained and their checksum verified.
    pub fn next_chunk(&mut self) -> Result<Option<Matrix>, MatError> {
        if self.cols_read >= self.cols || self.rows == 0 {
            if !self.finished {
                self.source.drain_and_verify(&self.path)?;
                self.finished = true;
            }
            return Ok(None);
        }
        let take_cols = self.chunk_cols.min(self.cols - self.cols_read);
        let data = self.source.read_values(
            &self.path,
            self.order,
            self.pr_type,
            take_cols * self.rows * self.vsize,
        )?;
        self.cols_read += take_cols;
        if self.cols_read >= self.cols && !self.finished {
            self.source.drain_and_verify(&self.path)?;
            self.finished = true;
        }
        Ok(Some(Matrix::from_vec(take_cols, self.rows, data)))
    }
}

impl Iterator for ColumnChunkReader {
    type Item = Result<Matrix, MatError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk().transpose()
    }
}
