//! The benchmark's one statistics module: sorted-sample percentiles, the
//! windowed-median p99, medians/quartiles across runs, and the FNV row
//! hash the oracle check compares.

use hermes_common::Value;
use std::hash::{Hash, Hasher};

/// The `p`-quantile (0 < p <= 1) of an ascending-sorted sample, by the
/// nearest-rank rule: the smallest value with at least `p` of the sample
/// at or below it. An empty sample reads 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `sample` in place and returns its `p`-quantile.
pub fn percentile_of(sample: &mut [u64], p: f64) -> u64 {
    sample.sort_unstable();
    percentile(sample, p)
}

/// One timed observation: when it completed (ns since the window began)
/// and how long it took (ns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub done_ns: u64,
    pub lat_ns: u64,
}

/// What one sub-window of a measured window saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubWindow {
    pub count: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Splits `samples` into `windows` equal spans of `span_ns` by completion
/// time. A window that received nothing reads all zeros.
pub fn sub_windows(samples: &[Sample], span_ns: u64, windows: usize) -> Vec<SubWindow> {
    let width = (span_ns / windows as u64).max(1);
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for s in samples {
        let w = ((s.done_ns / width) as usize).min(windows - 1);
        buckets[w].push(s.lat_ns);
    }
    buckets
        .iter_mut()
        .map(|b| {
            b.sort_unstable();
            SubWindow {
                count: b.len() as u64,
                p50_ns: percentile(b, 0.50),
                p99_ns: percentile(b, 0.99),
            }
        })
        .collect()
}

/// The windowed median of a per-window reading: one scheduler hiccup or
/// one stolen second moves one window, not the metric. Windows for which
/// `reading` is `None` (nothing completed in them) are left out. Also
/// returns the windows' relative spread (IQR / median).
pub fn windowed_median(
    windows: &[SubWindow],
    reading: impl Fn(&SubWindow) -> Option<f64>,
) -> (f64, f64) {
    let values: Vec<f64> = windows.iter().filter_map(reading).collect();
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let q = Quartiles::of(&values);
    (q.median, q.rel_spread())
}

/// First quartile, median and third quartile across runs, computed the
/// way Python's `statistics.quantiles(values, n=4)` does (the exclusive
/// method), so spreads agree with the driver's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let only = v.first().copied().unwrap_or(0.0);
            return Quartiles {
                q1: only,
                median: only,
                q3: only,
            };
        }
        let cut = |i: usize| {
            // Position i*(n+1)/4 on a 1-based scale, clamped to the sample
            // first and interpolated (or extrapolated) from there.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// 64-bit FNV-1a as a `Hasher`, so `Value`'s own `Hash` impl feeds it:
/// deterministic across runs and processes, unlike the std hasher.
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Order-independent hash of a row multiset: each row hashes through
/// FNV-1a, the row hashes add up (so duplicates count and order does
/// not), and the row count is folded in last.
pub fn row_multiset_hash(rows: &[Vec<Value>]) -> u64 {
    let mut sum = 0u64;
    for row in rows {
        let mut h = Fnv64::default();
        row.hash(&mut h);
        sum = sum.wrapping_add(h.finish());
    }
    let mut h = Fnv64::default();
    h.write_u64(sum);
    h.write_u64(rows.len() as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        let mut unsorted = vec![9, 1, 5];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 5);
    }

    #[test]
    fn windowed_median_ignores_one_bad_window() {
        // Ten windows of 1000 samples at 100ns; window 3 has a hiccup
        // that drags its p99 (and the global p99) to 1ms.
        let mut samples = Vec::new();
        for w in 0..10u64 {
            for i in 0..1000u64 {
                let slow = w == 3 && i < 200;
                samples.push(Sample {
                    done_ns: w * 1000 + i,
                    lat_ns: if slow { 1_000_000 } else { 100 },
                });
            }
        }
        let mut all: Vec<u64> = samples.iter().map(|s| s.lat_ns).collect();
        assert_eq!(percentile_of(&mut all, 0.99), 1_000_000);
        let windows = sub_windows(&samples, 10_000, 10);
        assert_eq!(windows[3].p99_ns, 1_000_000);
        assert!(windows.iter().all(|w| w.count == 1000 && w.p50_ns == 100));
        let (p99, spread) = windowed_median(&windows, |w| Some(w.p99_ns as f64));
        assert_eq!((p99, spread), (100.0, 0.0));
    }

    #[test]
    fn empty_windows_read_zero_and_can_be_left_out() {
        let samples = [Sample {
            done_ns: 5,
            lat_ns: 42,
        }];
        let windows = sub_windows(&samples, 100, 10);
        assert_eq!(windows.len(), 10);
        assert_eq!(windows.iter().filter(|w| w.count > 0).count(), 1);
        let latency = |w: &SubWindow| (w.count > 0).then_some(w.p99_ns as f64);
        assert_eq!(windowed_median(&windows, latency).0, 42.0);
        assert_eq!(windowed_median(&windows, |w| Some(w.count as f64)).0, 0.0);
        assert_eq!(windowed_median(&[], latency), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.rel_spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(Quartiles::of(&[4.0]).median, 4.0);
        assert_eq!(Quartiles::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn row_hash_is_a_multiset_hash() {
        let a = vec![Value::str("x"), Value::Int(1)];
        let b = vec![Value::str("y"), Value::Int(2)];
        let ab = row_multiset_hash(&[a.clone(), b.clone()]);
        assert_eq!(ab, row_multiset_hash(&[b.clone(), a.clone()]), "order");
        assert_ne!(
            ab,
            row_multiset_hash(std::slice::from_ref(&a)),
            "missing row"
        );
        assert_ne!(
            ab,
            row_multiset_hash(&[a.clone(), b.clone(), b.clone()]),
            "duplicates count"
        );
        assert_ne!(row_multiset_hash(&[]), row_multiset_hash(&[vec![]]));
        // FNV-1a, not the randomly keyed std hasher: the same in every
        // process.
        assert_eq!(
            row_multiset_hash(&[vec![Value::Int(7)]]),
            12_244_616_619_119_245_821
        );
    }
}
