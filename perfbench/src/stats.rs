//! Order statistics for timings: medians, quartiles and the tail
//! percentile a sample can support, each reported beside its sample
//! count.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 <= q <= 1`) by linear interpolation between
/// the closest ranks; NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median; NaN for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First, second and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (its default
/// "exclusive" method), the rule the benchmark's spread is judged by.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let data = sorted(xs);
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Whether at least [`TAIL_SUPPORT`] of `n` samples lie beyond the
/// `q`-quantile.
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= TAIL_SUPPORT as f64 - 1e-9
}

/// The `q`-quantile, or `None` when the sample is too small to put
/// [`TAIL_SUPPORT`] samples beyond it.
pub fn supported_quantile(xs: &[f64], q: f64) -> Option<f64> {
    supports(xs.len(), q).then(|| quantile(xs, q))
}

/// The highest percentile with at least [`TAIL_SUPPORT`] samples
/// beyond it: `(q, value)` where exactly ten samples exceed the rank of
/// `value`. `None` for fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_SUPPORT {
        return None;
    }
    let v = sorted(xs);
    Some((
        (n - TAIL_SUPPORT) as f64 / n as f64,
        v[n - TAIL_SUPPORT - 1],
    ))
}

/// A timing sample reduced to what the report shows: its count, median,
/// supported tail and range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest supported percentile (see [`tail`]) and its value.
    pub tail: Option<(f64, f64)>,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `xs` (NaN fields for an empty sample).
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            n: xs.len(),
            p50: median(xs),
            tail: tail(xs),
            min: xs.iter().copied().fold(f64::NAN, f64::min),
            max: xs.iter().copied().fold(f64::NAN, f64::max),
        }
    }

    /// One-line rendering, e.g. `p50 1.2 p99.0 3.4 (n=1000)`.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((q, v)) => format!(
                "p50 {:.4} p{:.1} {:.4} max {:.4} (n={})",
                self.p50,
                q * 100.0,
                v,
                self.max,
                self.n
            ),
            None => format!("p50 {:.4} max {:.4} (n={})", self.p50, self.max, self.n),
        }
    }
}
