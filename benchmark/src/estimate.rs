//! Estimators over per-slice host times.
//!
//! Host interference in a shared sandbox is one-sided: a noisy neighbour or a
//! throttled core makes a slice slower, never faster. The gated estimator is
//! therefore the **fast decile** — the 10th percentile of slice *time*
//! (equivalently the 90th percentile of slice throughput) — which the noise
//! study in README.md found repeatable to ±1–3% where the median moved ±18%.
//! Median and p99 are still reported, as diagnostics with the sample count.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` (ascending), linearly
/// interpolated between the two closest ranks. Empty input gives `NaN`, which
/// the result writer turns into a failed run.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorted copy of `samples` (ascending; NaN never occurs in measured times).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Summary of a set of timings (any unit; lower is faster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSummary {
    /// Sample count.
    pub n: usize,
    /// 10th percentile: the fast decile, the gated estimator.
    pub fast: f64,
    pub median: f64,
    pub p99: f64,
    /// Share of samples slower than 1.25× the fast decile — how much of the
    /// run the host spent in a slow phase.
    pub slow_share: f64,
}

pub fn summarize(times: &[f64]) -> TimeSummary {
    let s = sorted(times);
    let fast = quantile(&s, 0.10);
    let slow = s.iter().filter(|&&t| t > 1.25 * fast).count();
    TimeSummary {
        n: s.len(),
        fast,
        median: quantile(&s, 0.50),
        p99: quantile(&s, 0.99),
        slow_share: if s.is_empty() {
            0.0
        } else {
            slow as f64 / s.len() as f64
        },
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) computes them — the driver's spread rule uses exactly
/// this, so `compare` must too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j = i*(n+1)/4 with the remainder as the interpolation weight,
        // clamped to the data range as CPython does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}
