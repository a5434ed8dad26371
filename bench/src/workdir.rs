//! Per-run scratch directory, removed when the run ends; span dumps go to a
//! sibling `traces/` directory and are kept.

use std::path::{Path, PathBuf};

pub struct WorkDir {
    dir: PathBuf,
    traces: PathBuf,
}

impl WorkDir {
    /// `<root>/run-<workload>-<pid>`, created empty.
    pub fn create(root: &Path, workload: &str) -> Result<WorkDir, String> {
        let dir = root.join(format!("run-{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir {
            dir,
            traces: root.join("traces"),
        })
    }

    /// A path inside the run directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Where this run's span dump goes.
    pub fn trace_file(&self, workload: &str, seed: u64) -> Result<PathBuf, String> {
        std::fs::create_dir_all(&self.traces)
            .map_err(|e| format!("create {}: {e}", self.traces.display()))?;
        Ok(self
            .traces
            .join(format!("{workload}-seed{seed}-{}.tsv", std::process::id())))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}
