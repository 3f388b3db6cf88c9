//! Empirical inter-arrival statistics.
//!
//! MakeIdle (§4.2 of the paper) predicts from "the latest *n* packets that the
//! control module has seen", i.e. from an empirical distribution over a
//! sliding window of recent inter-arrival times. This module provides:
//!
//! * [`EmpiricalDist`] — an immutable sorted sample set with exact CDF,
//!   survival, conditional-survival and quantile queries;
//! * [`SlidingWindow`] — the online structure that maintains the last *n*
//!   samples in both arrival order (for eviction) and sorted order (for
//!   queries), exposing the same query interface;
//! * small summary helpers ([`mean`], [`median`]) used throughout the
//!   evaluation harness.
//!
//! All queries are exact with respect to the stored samples — there is no
//! binning — because the MakeIdle decision rule integrates the energy
//! function over the sample set and binning would inject avoidable error.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::Duration;

/// An immutable empirical distribution over durations.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDist {
    sorted: Vec<Duration>,
}

impl EmpiricalDist {
    /// Builds a distribution from samples in any order.
    pub fn from_samples(mut samples: Vec<Duration>) -> EmpiricalDist {
        samples.sort_unstable();
        EmpiricalDist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the distribution holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The samples in non-decreasing order.
    pub fn sorted_samples(&self) -> &[Duration] {
        &self.sorted
    }

    /// Empirical CDF: fraction of samples `<= d`.
    ///
    /// Returns 0 for an empty distribution.
    pub fn cdf(&self, d: Duration) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&s| s <= d);
        k as f64 / self.sorted.len() as f64
    }

    /// Empirical survival function: fraction of samples `> d`.
    pub fn survival(&self, d: Duration) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        1.0 - self.cdf(d)
    }

    /// Conditional survival `P(X > b | X > a)` for `b >= a`.
    ///
    /// This is the quantity the paper calls `P(t_wait)` when
    /// `a = t_wait` and `b = t_wait + t_threshold` (§4.2 step 1). If no
    /// sample exceeds `a` the condition is void; we return 1.0, i.e. "as far
    /// as the window knows, the gap is already longer than anything seen, so
    /// no further packet is expected" — the optimistic reading the algorithm
    /// needs to be able to demote after unprecedented silences.
    pub fn conditional_survival(&self, a: Duration, b: Duration) -> f64 {
        debug_assert!(b >= a, "conditional_survival requires b >= a");
        let sa = self.survival(a);
        if sa == 0.0 {
            return 1.0;
        }
        self.survival(b) / sa
    }

    /// Exact empirical quantile using the nearest-rank method.
    ///
    /// `q` is clamped to `[0, 1]`; returns `None` for an empty distribution.
    /// `quantile(0.95)` is the "95% IAT" statistic the paper's second
    /// baseline derives from a whole trace (§6.2).
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        // Nearest-rank: smallest sample with cdf >= q.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Mean of the samples; `None` if empty.
    pub fn mean(&self) -> Option<Duration> {
        mean(&self.sorted)
    }

    /// Expectation `E[g(min(X, cap)) | X > given]` over the samples.
    ///
    /// This is the workhorse of the MakeIdle decision rule: the expected
    /// tail energy if we let the inactivity timers run is the expectation of
    /// the (capped) energy function over gaps longer than what we have
    /// already waited. Samples `<= given` are excluded by the conditioning;
    /// if none remain, returns `None`.
    pub fn conditional_expectation<F>(&self, given: Duration, cap: Duration, g: F) -> Option<f64>
    where
        F: Fn(Duration) -> f64,
    {
        let start = self.sorted.partition_point(|&s| s <= given);
        let tail = &self.sorted[start..];
        if tail.is_empty() {
            return None;
        }
        let sum: f64 = tail.iter().map(|&s| g(s.min(cap))).sum();
        Some(sum / tail.len() as f64)
    }
}

/// Sliding window over the last `n` durations, supporting the same queries
/// as [`EmpiricalDist`] while samples stream in.
///
/// Samples are kept both in arrival order (a ring buffer, for eviction) and
/// in sorted order (for CDF/quantile queries). A push into a full window
/// is one shift of the sorted samples lying between the evicted sample's
/// slot and the new sample's slot; with the paper's default window of
/// n = 100 (§6.3) that beats any tree structure.
///
/// Consumers that keep their own statistics of the window up to date
/// (MakeIdle's cut-point counts) follow it through [`stream`](Self::stream),
/// [`pushes`](Self::pushes) and [`last_push`](Self::last_push): when the
/// window is the one they saw last plus exactly one push, `last_push`
/// is the whole difference.
#[derive(Debug)]
pub struct SlidingWindow {
    capacity: usize,
    arrivals: VecDeque<Duration>,
    sorted: Vec<Duration>,
    stream: u64,
    pushes: u64,
    evicted: Option<Duration>,
}

/// Source of [`SlidingWindow::stream`] ids.
static NEXT_STREAM: AtomicU64 = AtomicU64::new(0);

fn fresh_stream() -> u64 {
    NEXT_STREAM.fetch_add(1, Ordering::Relaxed)
}

impl Clone for SlidingWindow {
    /// The clone starts a stream of its own: it holds the same samples,
    /// but pushes to it are not pushes to `self`.
    fn clone(&self) -> SlidingWindow {
        SlidingWindow {
            arrivals: self.arrivals.clone(),
            sorted: self.sorted.clone(),
            stream: fresh_stream(),
            ..*self
        }
    }
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` samples. Its buffers
    /// grow with the samples pushed, so a capacity beyond any stream's
    /// length allocates nothing up front.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> SlidingWindow {
        assert!(capacity > 0, "SlidingWindow capacity must be positive");
        SlidingWindow {
            capacity,
            arrivals: VecDeque::new(),
            sorted: Vec::new(),
            stream: fresh_stream(),
            pushes: 0,
            evicted: None,
        }
    }

    /// Maximum number of samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of samples.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True if no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// True once the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.arrivals.len() == self.capacity
    }

    /// Pushes a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, d: Duration) {
        // The new sample's slot among the current sorted samples.
        let to = self.sorted.partition_point(|&s| s <= d);
        self.evicted = None;
        if self.arrivals.len() < self.capacity {
            self.sorted.insert(to, d);
        } else {
            let evicted = self.arrivals.pop_front().expect("window full implies non-empty");
            let from = self
                .sorted
                .binary_search(&evicted)
                .expect("evicted sample must be present in sorted set");
            // Everything strictly between the two slots moves one place
            // toward the evicted one. `from < to` iff evicted ≤ d.
            if from < to {
                self.sorted.copy_within(from + 1..to, from);
                self.sorted[to - 1] = d;
            } else {
                self.sorted.copy_within(to..from, to + 1);
                self.sorted[to] = d;
            }
            self.evicted = Some(evicted);
        }
        self.arrivals.push_back(d);
        self.pushes += 1;
    }

    /// Clears all samples and starts a new [`stream`](Self::stream).
    pub fn clear(&mut self) {
        self.arrivals.clear();
        self.sorted.clear();
        self.stream = fresh_stream();
        self.pushes = 0;
        self.evicted = None;
    }

    /// Identifies this window's sample history within the process: a
    /// fresh id on [`new`](Self::new), [`clone`](Clone::clone) and
    /// [`clear`](Self::clear), never shared by two windows.
    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// Pushes since the current [`stream`](Self::stream) began.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// The latest push as `(inserted, evicted)`, where `evicted` is the
    /// sample it pushed out of a full window; `None` while the window is
    /// empty.
    pub fn last_push(&self) -> Option<(Duration, Option<Duration>)> {
        self.arrivals.back().map(|&d| (d, self.evicted))
    }

    /// The samples in non-decreasing order.
    pub fn sorted_samples(&self) -> &[Duration] {
        &self.sorted
    }

    /// The samples in arrival order (oldest first).
    pub fn arrival_order(&self) -> impl Iterator<Item = Duration> + '_ {
        self.arrivals.iter().copied()
    }

    /// Empirical CDF over the current window (see [`EmpiricalDist::cdf`]).
    pub fn cdf(&self, d: Duration) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&s| s <= d);
        k as f64 / self.sorted.len() as f64
    }

    /// Empirical survival over the current window.
    pub fn survival(&self, d: Duration) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        1.0 - self.cdf(d)
    }

    /// Conditional survival `P(X > b | X > a)`; see
    /// [`EmpiricalDist::conditional_survival`].
    pub fn conditional_survival(&self, a: Duration, b: Duration) -> f64 {
        debug_assert!(b >= a);
        let sa = self.survival(a);
        if sa == 0.0 {
            return 1.0;
        }
        self.survival(b) / sa
    }

    /// Conditional expectation `E[g(min(X, cap)) | X > given]`; see
    /// [`EmpiricalDist::conditional_expectation`].
    pub fn conditional_expectation<F>(&self, given: Duration, cap: Duration, g: F) -> Option<f64>
    where
        F: Fn(Duration) -> f64,
    {
        let start = self.sorted.partition_point(|&s| s <= given);
        let tail = &self.sorted[start..];
        if tail.is_empty() {
            return None;
        }
        let sum: f64 = tail.iter().map(|&s| g(s.min(cap))).sum();
        Some(sum / tail.len() as f64)
    }

    /// Snapshot of the window as an immutable distribution.
    pub fn snapshot(&self) -> EmpiricalDist {
        EmpiricalDist { sorted: self.sorted.clone() }
    }
}

/// Mean of a duration slice; `None` if empty.
pub fn mean(samples: &[Duration]) -> Option<Duration> {
    if samples.is_empty() {
        return None;
    }
    let sum: i64 = samples.iter().map(|d| d.as_micros()).sum();
    Some(Duration::from_micros(sum / samples.len() as i64))
}

/// Median (lower of the two middle elements for even counts) of a duration
/// slice; `None` if empty. The input need not be sorted.
pub fn median(samples: &[Duration]) -> Option<Duration> {
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<Duration> = samples.to_vec();
    let mid = (v.len() - 1) / 2;
    let (_, m, _) = v.select_nth_unstable(mid);
    Some(*m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(xs: &[f64]) -> Vec<Duration> {
        xs.iter().map(|&x| Duration::from_secs_f64(x)).collect()
    }

    #[test]
    fn cdf_and_survival_are_complementary() {
        let d = EmpiricalDist::from_samples(secs(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(d.cdf(Duration::from_secs_f64(2.5)), 0.5);
        assert_eq!(d.survival(Duration::from_secs_f64(2.5)), 0.5);
        assert_eq!(d.cdf(Duration::from_secs_f64(0.5)), 0.0);
        assert_eq!(d.cdf(Duration::from_secs_f64(4.0)), 1.0); // cdf is P(X <= d)
        assert_eq!(d.survival(Duration::from_secs_f64(4.0)), 0.0);
    }

    #[test]
    fn empty_distribution_queries() {
        let d = EmpiricalDist::from_samples(vec![]);
        assert_eq!(d.cdf(Duration::from_secs(1)), 0.0);
        assert_eq!(d.survival(Duration::from_secs(1)), 0.0);
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.mean(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn conditional_survival_matches_definition() {
        // Samples: 1,2,3,4,10. P(X>2)=3/5, P(X>4)=1/5 → P(X>4|X>2)=1/3.
        let d = EmpiricalDist::from_samples(secs(&[1.0, 2.0, 3.0, 4.0, 10.0]));
        let p = d.conditional_survival(Duration::from_secs(2), Duration::from_secs(4));
        assert!((p - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn conditional_survival_beyond_support_is_one() {
        let d = EmpiricalDist::from_samples(secs(&[1.0, 2.0]));
        let p = d.conditional_survival(Duration::from_secs(5), Duration::from_secs(9));
        assert_eq!(p, 1.0);
    }

    #[test]
    fn quantile_nearest_rank() {
        let d = EmpiricalDist::from_samples(secs(&[1.0, 2.0, 3.0, 4.0, 5.0]));
        assert_eq!(d.quantile(0.0), Some(Duration::from_secs(1)));
        assert_eq!(d.quantile(0.2), Some(Duration::from_secs(1)));
        assert_eq!(d.quantile(0.21), Some(Duration::from_secs(2)));
        assert_eq!(d.quantile(0.95), Some(Duration::from_secs(5)));
        assert_eq!(d.quantile(1.0), Some(Duration::from_secs(5)));
    }

    #[test]
    fn conditional_expectation_caps_and_conditions() {
        let d = EmpiricalDist::from_samples(secs(&[1.0, 3.0, 5.0]));
        // Given X > 2 → {3,5}; cap 4 → {3,4}; g = seconds → (3+4)/2.
        let e = d
            .conditional_expectation(Duration::from_secs(2), Duration::from_secs(4), |x| {
                x.as_secs_f64()
            })
            .unwrap();
        assert!((e - 3.5).abs() < 1e-12);
        // Condition excludes everything.
        assert_eq!(
            d.conditional_expectation(Duration::from_secs(9), Duration::from_secs(10), |x| x
                .as_secs_f64()),
            None
        );
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = SlidingWindow::new(3);
        for s in [5.0, 1.0, 3.0, 2.0] {
            w.push(Duration::from_secs_f64(s));
        }
        // 5.0 evicted; remaining sorted {1,2,3}.
        assert_eq!(w.len(), 3);
        assert_eq!(
            w.sorted_samples(),
            &[Duration::from_secs(1), Duration::from_secs(2), Duration::from_secs(3)]
        );
        let arrivals: Vec<Duration> = w.arrival_order().collect();
        assert_eq!(
            arrivals,
            vec![Duration::from_secs(1), Duration::from_secs(3), Duration::from_secs(2)]
        );
    }

    #[test]
    fn window_handles_duplicate_samples() {
        let mut w = SlidingWindow::new(2);
        w.push(Duration::from_secs(1));
        w.push(Duration::from_secs(1));
        w.push(Duration::from_secs(1));
        assert_eq!(w.len(), 2);
        assert_eq!(w.cdf(Duration::from_secs(1)), 1.0);
    }

    #[test]
    fn window_reports_its_stream_and_last_push() {
        let mut w = SlidingWindow::new(2);
        assert_eq!((w.pushes(), w.last_push()), (0, None));
        let secs = Duration::from_secs;
        w.push(secs(1));
        w.push(secs(2));
        assert_eq!((w.pushes(), w.last_push()), (2, Some((secs(2), None))));
        w.push(secs(3));
        assert_eq!((w.pushes(), w.last_push()), (3, Some((secs(3), Some(secs(1))))));
        // A clone and a cleared window each start a stream of their own.
        let stream = w.stream();
        let copy = w.clone();
        assert_ne!(copy.stream(), stream);
        assert_eq!(copy.sorted_samples(), w.sorted_samples());
        w.clear();
        assert_ne!(w.stream(), stream);
        assert_ne!(w.stream(), copy.stream());
        assert_eq!((w.pushes(), w.last_push()), (0, None));
    }

    #[test]
    fn window_snapshot_matches_queries() {
        let mut w = SlidingWindow::new(10);
        for s in [1.0, 2.0, 3.0, 4.0] {
            w.push(Duration::from_secs_f64(s));
        }
        let snap = w.snapshot();
        let probe = Duration::from_secs_f64(2.5);
        assert_eq!(snap.cdf(probe), w.cdf(probe));
        assert_eq!(snap.survival(probe), w.survival(probe));
        assert_eq!(snap.len(), w.len());
    }

    #[test]
    fn window_clear() {
        let mut w = SlidingWindow::new(4);
        w.push(Duration::from_secs(1));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.survival(Duration::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_window_panics() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn mean_and_median_helpers() {
        let xs = secs(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(mean(&xs), Some(Duration::from_secs(4)));
        assert_eq!(median(&xs), Some(Duration::from_secs(2))); // lower middle
        let odd = secs(&[3.0, 1.0, 2.0]);
        assert_eq!(median(&odd), Some(Duration::from_secs(2)));
        assert_eq!(mean(&[]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn full_window_slides_like_paper_description() {
        // "As new packets are seen, the window of the n packets slides
        // forward, and the distribution is adjusted accordingly." (§4.2)
        let mut w = SlidingWindow::new(100);
        for i in 0..100 {
            w.push(Duration::from_millis(i));
        }
        assert!(w.is_full());
        let before = w.survival(Duration::from_millis(49));
        assert!((before - 0.5).abs() < 1e-9);
        // Push 50 large samples; survival at the same point must rise.
        for _ in 0..50 {
            w.push(Duration::from_secs(10));
        }
        assert!(w.survival(Duration::from_millis(49)) > before);
        assert_eq!(w.len(), 100);
    }
}
