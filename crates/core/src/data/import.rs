//! CSV feature import: the one place that reads a `label,f0,f1,...` feature
//! table. [`import_features_csv`] converts it once to the `.zsb` file that
//! [`crate::data::DatasetBundle`] and [`crate::data::StreamingBundle`] read;
//! `zsl-import --features-csv <dir>` is its command line.

use super::error::DataError;
use super::format::{parse_labeled_csv_line, ZsbWriter};
use crate::linalg::Matrix;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Rows parsed and handed to the `.zsb` writer at a time.
const BLOCK_ROWS: usize = 1024;

/// Convert a CSV feature table (one `label,f0,f1,...` line per sample;
/// blank and `#` lines are skipped) to a `.zsb` file, returning its row
/// count. The output is byte-identical to
/// [`write_zsb`](crate::data::format::write_zsb) of the same table.
///
/// Two passes over `csv` keep memory at the labels (4 bytes per row) plus one
/// block of rows. The first runs every line through the CSV parser and keeps
/// the labels and the row width; the second appends the rows to a
/// [`ZsbWriter`] block by block. Parse errors name the 1-based line, and an
/// empty table is "feature table has no rows" at line 1. The second pass
/// holds the file to the first pass's width, labels and row count, so a file
/// that changes between the passes is an error, not a short table; the
/// writer's temp file and rename mean a failed import leaves no `zsb` behind.
pub fn import_features_csv(csv: &Path, zsb: &Path) -> Result<usize, DataError> {
    let mut labels = Vec::new();
    let mut cols = None;
    for_each_block(csv, &mut cols, |block, _| {
        labels.extend_from_slice(block);
        Ok(())
    })?;
    let Some(cols) = cols else {
        return Err(DataError::parse(csv, 1, "feature table has no rows"));
    };

    let mut writer = ZsbWriter::create(zsb, &labels, cols)?;
    let mut row = 0;
    for_each_block(csv, &mut Some(cols), |block, rows| {
        writer.append_rows(&rows)?;
        if labels.get(row..row + block.len()) != Some(block) {
            return Err(DataError::Shape {
                message: format!(
                    "{}: labels changed between the import's two passes",
                    csv.display()
                ),
            });
        }
        row += block.len();
        Ok(())
    })?;
    writer.finish()?;
    Ok(labels.len())
}

/// Parse `path` line by line, calling `block` with the labels and rows of
/// every [`BLOCK_ROWS`] data rows (the last block may be shorter). `cols` is
/// the row width: `None` lets the first data row set it, `Some` holds every
/// row to it.
fn for_each_block(
    path: &Path,
    cols: &mut Option<usize>,
    mut block: impl FnMut(&[u32], Matrix) -> Result<(), DataError>,
) -> Result<(), DataError> {
    let file = File::open(path).map_err(|e| DataError::io(path, e))?;
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    let mut line_no = 0;
    let mut labels = Vec::with_capacity(BLOCK_ROWS);
    let mut values = Vec::new();
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| DataError::io(path, e))?;
        if read > 0 {
            line_no += 1;
            if let Some(label) = parse_labeled_csv_line(path, line_no, &line, cols, &mut values)? {
                labels.push(label);
            }
        }
        if labels.len() == BLOCK_ROWS || (read == 0 && !labels.is_empty()) {
            let width = cols.expect("a parsed row sets the width");
            block(
                &labels,
                Matrix::from_vec(labels.len(), width, std::mem::take(&mut values)),
            )?;
            labels.clear();
        }
        if read == 0 {
            return Ok(());
        }
    }
}
