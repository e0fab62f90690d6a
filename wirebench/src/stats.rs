//! Small statistics helpers: exact quantiles of stored samples, and a
//! fixed-size log-linear histogram for unbounded sample streams.

/// Linear-interpolated quantile of `v` (sorted in place), `q` in 0..=1.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v` (sorted in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Exact `q`-quantile of integer samples (nearest rank), sorted in place.
pub fn quantile_u32(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    f64::from(v[rank - 1])
}

/// The `q`-quantile of a log-2 bucketed histogram (bucket `b > 0` holds
/// `[2^(b-1), 2^b)`, bucket 0 holds 0), interpolated linearly inside the
/// bucket that holds it, so the estimate moves with the data instead of
/// snapping to one value per bucket.
pub fn log2_quantile(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut seen = 0u64;
    for (b, &n) in buckets.iter().enumerate() {
        if n > 0 && (seen + n) as f64 >= rank {
            if b == 0 {
                return 0.0;
            }
            let lo = 2f64.powi(b as i32 - 1);
            return lo + lo * (rank - seen as f64) / n as f64;
        }
        seen += n;
    }
    2f64.powi(buckets.len() as i32 - 1)
}

/// log2 of the sub-buckets per power of two.
const SUB_BITS: usize = 10;
/// Sub-buckets per power of two (resolution 1/1024 ≈ 0.1 %).
const SUB: usize = 1 << SUB_BITS;

/// Log-linear histogram over `u64` values with ~0.1 % resolution and
/// fixed storage.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; 64 * SUB],
            total: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
        (msb - SUB_BITS + 1) * SUB + sub
    }

    fn floor(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let msb = i / SUB + SUB_BITS - 1;
        let sub = (i % SUB) as u64;
        (SUB as u64 | sub) << (msb - SUB_BITS)
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Add another histogram's counts to this one.
    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (bucket floor), 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::floor(i);
            }
        }
        Self::floor(self.counts.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_within_resolution() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let want = q * 100_000.0;
            let got = h.quantile(q) as f64;
            assert!((got - want).abs() / want < 0.002, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn log2_quantile_interpolates_inside_the_bucket() {
        // 100 values in [4, 8): the median sits halfway through it.
        let mut b = [0u64; 8];
        b[3] = 100;
        assert_eq!(log2_quantile(&b, 0.5), 6.0);
        assert_eq!(log2_quantile(&b, 1.0), 8.0);
        assert_eq!(log2_quantile(&[0; 8], 0.5), 0.0);
    }

    #[test]
    fn exact_quantiles() {
        let mut v = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        let mut u = vec![10u32, 20, 30, 40];
        assert_eq!(quantile_u32(&mut u, 0.5), 20.0);
        assert_eq!(quantile_u32(&mut u, 1.0), 40.0);
    }
}
