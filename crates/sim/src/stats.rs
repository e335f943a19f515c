//! Statistics collection for simulation outputs.
//!
//! Three collectors cover what the experiment harnesses need:
//!
//! * [`Tally`] — streaming mean/variance/min/max of point samples
//!   (Welford's algorithm).
//! * [`Histogram`] — fixed-width bins plus exact quantiles from retained
//!   samples.
//! * [`TimeWeighted`] — time-average of a piecewise-constant signal (queue
//!   lengths, number of active transmissions, ...).

use crate::time::Time;

/// Streaming mean / variance / extrema over point samples.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Tally {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (NaN-free; infinite when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Summary as a JSON object (`count`/`mean`/`std_dev`/`min`/`max`).
    ///
    /// An empty tally's infinite extrema serialize as `null` (JSON has no
    /// infinities).
    pub fn to_json(&self) -> crate::json::Json {
        crate::json::obj([
            ("count", self.count().into()),
            ("mean", self.mean().into()),
            ("std_dev", self.std_dev().into()),
            ("min", self.min().into()),
            ("max", self.max().into()),
        ])
    }
}

/// Fixed-width-bin histogram that also retains samples for exact quantiles.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    samples: Vec<f64>,
}

impl Histogram {
    /// Histogram over `[lo, hi)` with `nbins` equal bins.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Histogram {
        assert!(hi > lo && nbins > 0, "bad histogram bounds");
        Histogram {
            lo,
            width: (hi - lo) / nbins as f64,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            samples: Vec::new(),
        }
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        if x < self.lo {
            self.underflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width) as usize;
            if idx >= self.bins.len() {
                self.overflow += 1;
            } else {
                self.bins[idx] += 1;
            }
        }
    }

    /// Count in bin `i`.
    pub fn bin(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `(lo, hi)` bounds of bin `i`.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        let lo = self.lo + self.width * i as f64;
        (lo, lo + self.width)
    }

    /// Samples below range / above range.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Exact q-quantile (0 ≤ q ≤ 1) using nearest-rank on retained samples.
    /// Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let rank = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        Some(sorted[rank])
    }

    /// Sample mean. Returns `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Summary as a JSON object (`count`/`mean`/`p50`/`p90`/`p99`/`max`);
    /// statistics of an empty histogram serialize as `null`.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        crate::json::obj([
            ("count", self.count().into()),
            ("mean", opt(self.mean())),
            ("p50", opt(self.quantile(0.5))),
            ("p90", opt(self.quantile(0.9))),
            ("p99", opt(self.quantile(0.99))),
            ("max", opt(self.quantile(1.0))),
        ])
    }
}

/// Time-average of a piecewise-constant signal.
///
/// Call [`set`](TimeWeighted::set) whenever the tracked value changes; the
/// collector integrates value × elapsed-time between changes.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    value: f64,
    last_change: Time,
    integral: f64,
    start: Time,
    max: f64,
}

impl TimeWeighted {
    /// Start tracking at `start` with an initial value.
    pub fn new(start: Time, initial: f64) -> TimeWeighted {
        TimeWeighted {
            value: initial,
            last_change: start,
            integral: 0.0,
            start,
            max: initial,
        }
    }

    /// Record that the signal changed to `value` at time `now`.
    pub fn set(&mut self, now: Time, value: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        self.integral += self.value * now.since(self.last_change).as_secs_f64();
        self.last_change = now;
        self.value = value;
        self.max = self.max.max(value);
    }

    /// Add `delta` to the current value at time `now`.
    pub fn adjust(&mut self, now: Time, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Largest value seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-average of the signal from start to `now`.
    pub fn average(&self, now: Time) -> f64 {
        let total = now.since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.value;
        }
        let integral = self.integral + self.value * now.since(self.last_change).as_secs_f64();
        integral / total
    }
}

/// Time-weighted histogram of a piecewise-constant signal.
///
/// Where [`TimeWeighted`] reduces the signal to its average and peak, this
/// collector keeps the full *dwell-time distribution*: how long the signal
/// spent at each integer level (queue depths, outstanding transmissions).
/// Levels at or above the bin count accumulate in a shared overflow bin,
/// so memory stays bounded however deep a saturated queue grows.
///
/// Quantiles are over **time**, not samples: `quantile(0.95)` is the
/// smallest level the signal stayed at-or-below for 95% of the observed
/// span. Call [`freeze`](TimeWeightedHist::freeze) once at the end of the
/// run to fold in the final dwell before reading statistics.
#[derive(Clone, Debug)]
pub struct TimeWeightedHist {
    value: f64,
    last_change: Time,
    max: f64,
    /// Seconds spent at level `i` (the signal floored to an integer).
    dwell_s: Vec<f64>,
    /// Seconds spent at levels `>= dwell_s.len()`.
    overflow_s: f64,
    /// Time-weighted integral of the signal (for the mean).
    integral: f64,
    total_s: f64,
}

impl TimeWeightedHist {
    /// Start tracking at `start` with an initial value, binning levels
    /// `0..levels` individually (higher levels pool in overflow).
    pub fn new(start: Time, initial: f64, levels: usize) -> TimeWeightedHist {
        assert!(levels > 0, "need at least one level bin");
        TimeWeightedHist {
            value: initial,
            last_change: start,
            max: initial,
            dwell_s: vec![0.0; levels],
            overflow_s: 0.0,
            integral: 0.0,
            total_s: 0.0,
        }
    }

    fn accumulate(&mut self, now: Time) {
        debug_assert!(now >= self.last_change, "time went backwards");
        let dt = now.since(self.last_change).as_secs_f64();
        if dt > 0.0 {
            let level = self.value.max(0.0).floor() as usize;
            match self.dwell_s.get_mut(level) {
                Some(slot) => *slot += dt,
                None => self.overflow_s += dt,
            }
            self.integral += self.value * dt;
            self.total_s += dt;
        }
        self.last_change = now;
    }

    /// Record that the signal changed to `value` at time `now`.
    pub fn set(&mut self, now: Time, value: f64) {
        self.accumulate(now);
        self.value = value;
        self.max = self.max.max(value);
    }

    /// Add `delta` to the current value at time `now`.
    pub fn adjust(&mut self, now: Time, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Fold the dwell since the last change into the books, up to `now`.
    /// Statistics read after this reflect the whole `[start, now]` span.
    pub fn freeze(&mut self, now: Time) {
        self.accumulate(now);
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Largest value seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Total observed span in seconds (through the last `set`/`freeze`).
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Time-weighted mean of the signal (0 before any time has passed).
    pub fn mean(&self) -> f64 {
        if self.total_s <= 0.0 {
            0.0
        } else {
            self.integral / self.total_s
        }
    }

    /// Seconds the signal spent at integer level `i`.
    pub fn dwell_at(&self, i: usize) -> f64 {
        self.dwell_s.get(i).copied().unwrap_or(0.0)
    }

    /// Seconds spent at levels beyond the last tracked bin.
    pub fn overflow_s(&self) -> f64 {
        self.overflow_s
    }

    /// Time-weighted q-quantile: the smallest level such that the signal
    /// was at-or-below it for at least fraction `q` of the span. Levels in
    /// the overflow pool report as the first untracked level. `None`
    /// before any time has passed.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total_s <= 0.0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.total_s;
        let mut cum = 0.0;
        for (level, &dt) in self.dwell_s.iter().enumerate() {
            cum += dt;
            // Tolerate last-bit rounding so quantile(1.0) lands on the
            // deepest occupied bin instead of spilling to overflow.
            if cum + 1e-12 >= target {
                return Some(level as f64);
            }
        }
        Some(self.dwell_s.len() as f64)
    }

    /// Summary as a JSON object (`mean`/`p50`/`p95`/`p99`/`max`, plus the
    /// observed span and overflow dwell); quantiles of an unobserved
    /// signal serialize as `null`.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        crate::json::obj([
            ("mean", self.mean().into()),
            ("p50", opt(self.quantile(0.5))),
            ("p95", opt(self.quantile(0.95))),
            ("p99", opt(self.quantile(0.99))),
            ("max", self.max().into()),
            ("span_s", self.total_s.into()),
            ("overflow_s", self.overflow_s.into()),
        ])
    }
}

/// A labelled monotonic counter, convenient for loss/cause accounting.
#[derive(Clone, Debug, Default)]
pub struct Counter(u64);

impl Counter {
    /// Zero.
    pub fn new() -> Counter {
        Counter(0)
    }
    /// Add one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }
    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn tally_moments() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.add(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert!((t.variance() - 4.0).abs() < 1e-12);
        assert!((t.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
    }

    #[test]
    fn tally_empty() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9, -1.0, 10.0, 25.0] {
            h.add(x);
        }
        assert_eq!(h.bin(0), 1);
        assert_eq!(h.bin(1), 2);
        assert_eq!(h.bin(9), 1);
        assert_eq!(h.out_of_range(), (1, 2));
        assert_eq!(h.count(), 7);
        assert_eq!(h.bin_bounds(1), (1.0, 2.0));
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.add(i as f64);
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(99.0));
        let med = h.quantile(0.5).unwrap();
        assert!((49.0..=50.0).contains(&med));
        assert!((h.mean().unwrap() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_quantile() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn time_weighted_average() {
        let mut w = TimeWeighted::new(Time::ZERO, 0.0);
        w.set(Time::from_secs(1), 10.0); // 0 for 1s
        w.set(Time::from_secs(3), 20.0); // 10 for 2s
                                         // value 20 for 1s, queried at t=4: integral = 0 + 20 + 20 = 40
        let avg = w.average(Time::from_secs(4));
        assert!((avg - 10.0).abs() < 1e-12, "avg {avg}");
        assert_eq!(w.current(), 20.0);
        assert_eq!(w.max(), 20.0);
    }

    #[test]
    fn time_weighted_adjust() {
        let mut w = TimeWeighted::new(Time::ZERO, 5.0);
        w.adjust(Time::from_secs(2), -3.0);
        assert_eq!(w.current(), 2.0);
        let avg = w.average(Time::from_secs(4));
        // 5 for 2s, 2 for 2s => 14/4
        assert!((avg - 3.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_zero_span() {
        let w = TimeWeighted::new(Time::from_secs(5), 7.0);
        assert_eq!(w.average(Time::from_secs(5)), 7.0);
        let _ = Duration::ZERO;
    }

    #[test]
    fn time_weighted_hist_dwell_and_quantiles() {
        let mut h = TimeWeightedHist::new(Time::ZERO, 0.0, 8);
        h.set(Time::from_secs(5), 1.0); // level 0 for 5 s
        h.set(Time::from_secs(9), 3.0); // level 1 for 4 s
        h.freeze(Time::from_secs(10)); // level 3 for 1 s
        assert!((h.dwell_at(0) - 5.0).abs() < 1e-12);
        assert!((h.dwell_at(1) - 4.0).abs() < 1e-12);
        assert!((h.dwell_at(3) - 1.0).abs() < 1e-12);
        assert!((h.total_s() - 10.0).abs() < 1e-12);
        // integral = 0*5 + 1*4 + 3*1 = 7 over 10 s.
        assert!((h.mean() - 0.7).abs() < 1e-12);
        assert_eq!(h.quantile(0.5), Some(0.0));
        assert_eq!(h.quantile(0.9), Some(1.0));
        assert_eq!(h.quantile(0.95), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(3.0));
        assert_eq!(h.max(), 3.0);
    }

    #[test]
    fn time_weighted_hist_overflow_and_adjust() {
        let mut h = TimeWeightedHist::new(Time::ZERO, 0.0, 2);
        h.adjust(Time::from_secs(1), 5.0); // level 0 for 1 s
        h.adjust(Time::from_secs(3), -5.0); // level 5 (overflow) for 2 s
        h.freeze(Time::from_secs(4)); // level 0 for 1 s
        assert!((h.overflow_s() - 2.0).abs() < 1e-12);
        assert!((h.dwell_at(0) - 2.0).abs() < 1e-12);
        // Half the span sits in overflow: p99 reports the first untracked
        // level.
        assert_eq!(h.quantile(0.99), Some(2.0));
        let s = h.to_json().to_string();
        assert!(s.contains("\"p95\""), "{s}");
        assert!(s.contains("\"overflow_s\":2"), "{s}");
    }

    #[test]
    fn time_weighted_hist_empty() {
        let h = TimeWeightedHist::new(Time::ZERO, 0.0, 4);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
        assert!(h.to_json().to_string().contains("\"p50\":null"));
    }

    #[test]
    fn counter_ops() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }
}
