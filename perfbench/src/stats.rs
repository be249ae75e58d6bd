//! Percentiles and the sample-count rule for reported timings.
//!
//! A timing is reported as its median plus one tail percentile, and a
//! tail percentile is only meaningful when at least [`MIN_BEYOND`]
//! samples lie beyond it: p99 needs 1,000 samples, p90 needs 100.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`0 < q <= 1`) of an ascending-sorted slice:
/// the smallest sample with at least `q * n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} out of (0, 1]");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Half-width, as a quantile, of the rank band a tail percentile is
/// averaged over.
pub const TAIL_BAND: f64 = 0.025;

/// The `q` percentile of an ascending-sorted slice, smoothed over
/// ranks: the mean of the samples from the nearest-rank `q - TAIL_BAND`
/// percentile to the `q + TAIL_BAND` one. A heavy tail leaves wide gaps
/// between neighbouring samples; a single rank jumps across such a gap
/// whenever host noise reorders the two ops beside it, while the band
/// mean moves by one sample's share.
pub fn banded_percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n);
    let band = &sorted[rank(q - TAIL_BAND) - 1..rank(q + TAIL_BAND)];
    band.iter().sum::<f64>() / band.len() as f64
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples support reporting the `q` percentile.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The highest of p99.9, p99, p90 and p50 that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| supports(n, q))
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Chunks a run needs before its rate is the median chunk rate.
pub const MIN_CHUNKS: usize = 5;

/// Each input's typical time: the median of its repeated timings, for
/// every input timed at least once. A burst of host noise slows one
/// repeat, not the median of several spread over the run.
pub fn typical_times(per_input: &[Vec<f64>]) -> Vec<f64> {
    per_input
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect()
}

/// Throughput of consecutive chunks of work, `(ops, seconds)`: the
/// median chunk rate with at least [`MIN_CHUNKS`] chunks, else total
/// ops over total seconds.
pub fn chunked_rate(chunks: &[(u64, f64)]) -> f64 {
    if chunks.len() >= MIN_CHUNKS {
        let rates: Vec<f64> = chunks
            .iter()
            .map(|&(ops, secs)| ops as f64 / secs)
            .collect();
        return median(&rates);
    }
    let ops: u64 = chunks.iter().map(|c| c.0).sum();
    let secs: f64 = chunks.iter().map(|c| c.1).sum();
    ops as f64 / secs
}

/// Latency samples in the order they were taken.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
    sorted: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
        self.sorted.clear();
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// The `q` percentile of all samples, in milliseconds.
    pub fn at(&mut self, q: f64) -> f64 {
        if self.sorted.len() != self.ms.len() {
            self.sorted = self.ms.clone();
            self.sorted.sort_by(f64::total_cmp);
        }
        percentile(&self.sorted, q)
    }

    /// The banded `q` percentile of the samples taken from index `from`
    /// on.
    pub fn banded_since(&self, from: usize, q: f64) -> f64 {
        let mut tail = self.ms[from..].to_vec();
        tail.sort_by(f64::total_cmp);
        banded_percentile(&tail, q)
    }
}
