//! Scalar statistics primitives shared by every stats surface in the
//! workspace: the simulator, the cost-model counters, and the live
//! server's lock-free counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A saturating event counter with byte accounting.
///
/// # Example
///
/// ```
/// use press_telem::Counter;
///
/// let mut c = Counter::default();
/// c.add(1024);
/// c.add(2048);
/// assert_eq!(c.count(), 2);
/// assert_eq!(c.bytes(), 3072);
/// assert_eq!(c.mean_size(), 1536.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
    bytes: u64,
}

impl Counter {
    /// Records one event of `bytes` bytes.
    pub fn add(&mut self, bytes: u64) {
        self.count = self.count.saturating_add(1);
        self.bytes = self.bytes.saturating_add(bytes);
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: Counter) {
        self.count = self.count.saturating_add(other.count);
        self.bytes = self.bytes.saturating_add(other.bytes);
    }

    /// Number of recorded events.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total recorded bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Mean event size in bytes, or zero with no events.
    pub fn mean_size(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.bytes as f64 / self.count as f64
        }
    }
}

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use press_telem::MeanVar;
///
/// let mut mv = MeanVar::default();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     mv.push(x);
/// }
/// assert_eq!(mv.mean(), 5.0);
/// assert!((mv.variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanVar {
    n: u64,
    mean: f64,
    m2: f64,
}

impl MeanVar {
    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (zero with no observations).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (zero with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// A relaxed atomic counter for lock-free hot paths (the live server's
/// per-node stats). Purely statistical: no synchronization is implied,
/// readers see an eventually-consistent total.
#[derive(Debug, Default)]
pub struct AtomicCounter(AtomicU64);

impl AtomicCounter {
    /// Increments by one.
    pub fn bump(&self) {
        // ordering: Relaxed — statistical counter; no other memory is
        // published through it and totals are read after quiescence.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — as for `bump`.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — statistical read; staleness is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merge() {
        let mut a = Counter::default();
        a.add(10);
        let mut b = Counter::default();
        b.add(20);
        b.add(30);
        a.merge(b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bytes(), 60);
    }

    #[test]
    fn counter_empty_mean() {
        assert_eq!(Counter::default().mean_size(), 0.0);
    }

    #[test]
    fn meanvar_small_counts() {
        let mut mv = MeanVar::default();
        assert_eq!(mv.mean(), 0.0);
        assert_eq!(mv.variance(), 0.0);
        mv.push(3.0);
        assert_eq!(mv.mean(), 3.0);
        assert_eq!(mv.variance(), 0.0);
        assert_eq!(mv.count(), 1);
    }

    #[test]
    fn atomic_counter_accumulates() {
        let c = AtomicCounter::default();
        c.bump();
        c.add(4);
        assert_eq!(c.get(), 5);
    }
}
