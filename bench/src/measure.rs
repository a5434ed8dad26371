//! Process resource readings, set-up timing and order statistics.

use std::time::Instant;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Field 2 (comm) may contain spaces; the fields after its closing ')'
    // start at field 3 (state), so utime/stime (fields 14/15) sit at 11/12.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64)
            .ok_or_else(|| format!("malformed /proc/self/stat field {i}"))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// The hypervisor's steal counter and the sum of all vCPU time counters, in
/// clock ticks, from the aggregate `cpu` line of `/proc/stat`. Steal is time
/// a vCPU wanted to run while the host ran someone else; on a shared 2-vCPU
/// VM it came in episodes of minutes that took 15-30% of every vCPU, so
/// wall-clock figures are reported with it taken out (see
/// [`Steal::share_since`]).
#[derive(Clone, Copy)]
pub struct Steal {
    stolen: u64,
    total: u64,
}

impl Steal {
    /// Read the counters now.
    pub fn read() -> Result<Steal, String> {
        let stat =
            std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
        let ticks = stat
            .lines()
            .find_map(|line| line.strip_prefix("cpu "))
            .ok_or("no aggregate cpu line in /proc/stat")?
            .split_whitespace()
            .map(|v| v.parse::<u64>())
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|e| format!("malformed /proc/stat: {e}"))?;
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user and nice.
        let counted = &ticks[..ticks.len().min(8)];
        Ok(Steal {
            stolen: counted.get(7).copied().unwrap_or(0),
            total: counted.iter().sum(),
        })
    }

    /// Share of all vCPU time since this reading that the hypervisor stole.
    /// A thread that wants a vCPU is stolen from for that share of its wall
    /// time, so a wall time times `1 - share` is the time it would have
    /// taken on vCPUs of its own.
    pub fn share_since(self) -> Result<f64, String> {
        let now = Steal::read()?;
        let total = now.total.saturating_sub(self.total);
        Ok(if total == 0 {
            0.0
        } else {
            now.stolen.saturating_sub(self.stolen) as f64 / total as f64
        })
    }
}

/// Start a new peak-memory window at the current resident size: hand the
/// heap's free pages back to the kernel, so memory the benchmark has already
/// freed stops counting as resident, then reset `VmHWM` (writing 5 to
/// `/proc/self/clear_refs`, Linux 4.0 and later).
pub fn reset_peak_rss() -> Result<(), String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak RSS through /proc/self/clear_refs: {e}"))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and touches no memory the
    // caller owns: it locks each glibc arena in turn and returns whole free
    // pages to the kernel, so it is sound from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators keep what they keep; the window then starts higher.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Peak resident set size of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Set-up runs at least this many times per run...
const SETUP_MIN_REPS: usize = 5;
/// ...and keeps repeating until this many seconds have passed...
const SETUP_TARGET_S: f64 = 5.0;
/// ...but never more often than this.
const SETUP_MAX_REPS: usize = 60;

/// Run `setup` several times, dropping each product before the next run, and
/// return the last product with the median set-up time, less the share of
/// the set-up window the hypervisor stole: one set-up is too short to time
/// steadily.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let started = Instant::now();
    let steal = Steal::read()?;
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (since(started) < SETUP_TARGET_S && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(since(t));
    }
    let available = 1.0 - steal.share_since()?;
    Ok((
        last.expect("set-up ran at least once"),
        median(&times) * available,
    ))
}

/// Linear-interpolated percentile (`p` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Mean of values (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles `(Q1, Q2, Q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so the
/// steadiness report reads the same numbers an external check computes.
/// Needs at least 2 values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, ld) = (4i64, ld as i64);
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        // Python leaves delta unclamped, extrapolating on tiny samples.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
    }

    #[test]
    fn repeated_setup_keeps_the_last_product() {
        let mut runs = 0;
        let (last, median_s) = repeat_setup(|| {
            runs += 1;
            Ok(runs)
        })
        .expect("setup");
        assert_eq!(last, runs);
        assert!((SETUP_MIN_REPS..=SETUP_MAX_REPS).contains(&runs));
        assert!(median_s >= 0.0);
    }

    #[test]
    fn stolen_share_is_a_fraction_of_vcpu_time() {
        let before = Steal::read().expect("/proc/stat");
        std::hint::black_box((0..1_000_000u64).sum::<u64>());
        let share = before.share_since().expect("/proc/stat");
        assert!((0.0..=1.0).contains(&share), "stolen share {share}");
    }

    #[test]
    fn peak_rss_restarts_at_the_current_resident_size() {
        let held = vec![1u8; 64 << 20];
        std::hint::black_box(&held);
        let before = peak_rss_mb().expect("VmHWM");
        drop(held);
        reset_peak_rss().expect("reset VmHWM");
        let after = peak_rss_mb().expect("VmHWM");
        assert!(after < before - 32.0, "peak {before} MiB -> {after} MiB");
    }
}
