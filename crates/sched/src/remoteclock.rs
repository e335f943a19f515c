//! Modelling a neighbour's clock from exchanged readings.
//!
//! §7: "stations occasionally rendezvous and exchange clock readings.
//! Differences between clocks and small differences in clock rates can be
//! mutually modeled, and the resulting models ... can be used by neighbors
//! to predict when a station will be transmitting."
//!
//! [`RemoteClockModel`] fits `theirs ≈ a + b·mine` to a sliding window of
//! exchanged sample pairs — a linear model exactly as the cited
//! NTP-style drift modelling does — and predicts the neighbour's reading at
//! any local reading, with a conservative error bound used as a guard band.

use crate::clock::round_u64;

/// One rendezvous: simultaneous readings of my clock and theirs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockSample {
    /// My clock's reading at the exchange.
    pub mine: u64,
    /// Their clock's reading at the (same) instant.
    pub theirs: u64,
}

/// A fitted affine model of a neighbour's clock.
///
/// A station holds one per tracked neighbour, about a dozen, so the model
/// is kept small (24 B): a first exchange inline, then the fitted rate
/// and an exact-size window of samples, whose last entry is the base
/// point predictions extrapolate from.
#[derive(Clone, Debug)]
pub struct RemoteClockModel {
    fit: Fit,
}

#[derive(Clone, Debug)]
enum Fit {
    /// One exchange: rate 1.0, nothing on the heap.
    One(ClockSample),
    /// Two or more exchanges.
    Fitted {
        /// Estimated rate ratio d(theirs)/d(mine).
        rate: f64,
        /// Samples retained for refitting, oldest first: at least two,
        /// at most [`RemoteClockModel::DEFAULT_WINDOW`], and the
        /// allocation holds exactly these.
        samples: Box<[ClockSample]>,
    },
}

impl RemoteClockModel {
    /// Maximum retained samples by default.
    pub const DEFAULT_WINDOW: usize = 8;

    /// Start a model from a first exchange (rate assumed 1.0 until a
    /// second sample arrives).
    pub fn from_first_sample(s: ClockSample) -> RemoteClockModel {
        RemoteClockModel { fit: Fit::One(s) }
    }

    /// Record another exchange and refit. Until the window is full the
    /// samples move to an allocation one larger; a full window drops its
    /// oldest sample in place.
    pub fn add_sample(&mut self, s: ClockSample) {
        match &mut self.fit {
            Fit::Fitted { samples, .. } if samples.len() == Self::DEFAULT_WINDOW => {
                samples.copy_within(1.., 0);
                samples[Self::DEFAULT_WINDOW - 1] = s;
            }
            _ => {
                let held = self.samples();
                let mut grown = Vec::with_capacity(held.len() + 1);
                grown.extend_from_slice(held);
                grown.push(s);
                self.fit = Fit::Fitted {
                    rate: 1.0,
                    samples: grown.into_boxed_slice(),
                };
            }
        }
        self.refit();
    }

    /// Shift the *local* axis of every retained sample by `delta` ticks:
    /// my own clock just jumped by a known amount, so the exchanged
    /// history stays valid once re-expressed in the new local timescale.
    pub fn rebase_mine(&mut self, delta: i64) {
        let samples = match &mut self.fit {
            Fit::One(s) => std::slice::from_mut(s),
            Fit::Fitted { samples, .. } => &mut samples[..],
        };
        for s in samples {
            s.mine = s.mine.wrapping_add_signed(delta);
        }
        self.refit();
    }

    /// The fitted rate ratio d(theirs)/d(mine).
    pub fn rate(&self) -> f64 {
        match self.fit {
            Fit::One(_) => 1.0,
            Fit::Fitted { rate, .. } => rate,
        }
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> &[ClockSample] {
        match &self.fit {
            Fit::One(s) => std::slice::from_ref(s),
            Fit::Fitted { samples, .. } => samples,
        }
    }

    /// The base point: (my reading, their reading) at the last sample.
    fn base(&self) -> (f64, f64) {
        let samples = self.samples();
        let last = samples[samples.len() - 1];
        (last.mine as f64, last.theirs as f64)
    }

    fn refit(&mut self) {
        let (x0, y0) = self.base();
        let Fit::Fitted { rate, samples } = &mut self.fit else {
            return;
        };
        let n = samples.len();
        // Least-squares slope on (mine, theirs), computed around the base
        // point to keep the arithmetic well-conditioned despite the large
        // absolute offsets.
        let mx: f64 = samples.iter().map(|s| s.mine as f64 - x0).sum::<f64>() / n as f64;
        let my: f64 = samples.iter().map(|s| s.theirs as f64 - y0).sum::<f64>() / n as f64;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for s in samples.iter() {
            let dx = (s.mine as f64 - x0) - mx;
            let dy = (s.theirs as f64 - y0) - my;
            sxx += dx * dx;
            sxy += dx * dy;
        }
        *rate = 1.0;
        // A quartz clock is within a few hundred ppm of nominal; a fit
        // outside that is noise (e.g. two samples at ~the same time).
        if sxx > 0.0 && (0.99..=1.01).contains(&(sxy / sxx)) {
            *rate = sxy / sxx;
        }
    }

    /// Predict their clock's reading at my reading `mine`.
    pub fn predict(&self, mine: u64) -> u64 {
        let (x0, y0) = self.base();
        round_u64(y0 + self.rate() * (mine as f64 - x0))
    }

    /// Invert: my reading when their clock will show `theirs`.
    pub fn predict_inverse(&self, theirs: u64) -> u64 {
        let (x0, y0) = self.base();
        round_u64(x0 + (theirs as f64 - y0) / self.rate())
    }

    /// A conservative bound on prediction error (ticks) at my reading
    /// `mine`: residual rate uncertainty × extrapolation distance plus a
    /// fixed quantization floor.
    ///
    /// `residual_ppm` should bound the *unmodelled* rate error — with a
    /// two-point fit over a long baseline this is far below the raw drift.
    pub fn error_bound(&self, mine: u64, residual_ppm: f64) -> u64 {
        let dist = (mine as f64 - self.base().0).abs();
        (dist * residual_ppm * 1e-6).ceil() as u64 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::StationClock;
    use parn_sim::{Rng, Time};

    /// The `Vec`-backed model `RemoteClockModel` replaced, kept as the
    /// reference its predictions must match bit for bit.
    struct VecModel {
        rate: f64,
        samples: Vec<ClockSample>,
    }

    impl VecModel {
        fn from_first_sample(s: ClockSample) -> VecModel {
            VecModel {
                rate: 1.0,
                samples: vec![s],
            }
        }

        fn add_sample(&mut self, s: ClockSample) {
            if self.samples.len() == RemoteClockModel::DEFAULT_WINDOW {
                self.samples.remove(0);
            }
            self.samples.push(s);
            self.refit();
        }

        fn rebase_mine(&mut self, delta: i64) {
            for s in &mut self.samples {
                s.mine = s.mine.wrapping_add_signed(delta);
            }
            self.refit();
        }

        fn base(&self) -> (f64, f64) {
            let last = self.samples[self.samples.len() - 1];
            (last.mine as f64, last.theirs as f64)
        }

        fn refit(&mut self) {
            let n = self.samples.len();
            let (x0, y0) = self.base();
            if n < 2 {
                self.rate = 1.0;
                return;
            }
            let mx: f64 = self.samples.iter().map(|s| s.mine as f64 - x0).sum::<f64>() / n as f64;
            let my: f64 = self
                .samples
                .iter()
                .map(|s| s.theirs as f64 - y0)
                .sum::<f64>()
                / n as f64;
            let mut sxx = 0.0;
            let mut sxy = 0.0;
            for s in &self.samples {
                let dx = (s.mine as f64 - x0) - mx;
                let dy = (s.theirs as f64 - y0) - my;
                sxx += dx * dx;
                sxy += dx * dy;
            }
            if sxx > 0.0 {
                self.rate = sxy / sxx;
                if !(0.99..=1.01).contains(&self.rate) {
                    self.rate = 1.0;
                }
            } else {
                self.rate = 1.0;
            }
        }

        fn predict(&self, mine: u64) -> u64 {
            let (x0, y0) = self.base();
            let y = y0 + self.rate * (mine as f64 - x0);
            y.round().max(0.0) as u64
        }

        fn predict_inverse(&self, theirs: u64) -> u64 {
            let (x0, y0) = self.base();
            let x = x0 + (theirs as f64 - y0) / self.rate;
            x.round().max(0.0) as u64
        }

        fn error_bound(&self, mine: u64, residual_ppm: f64) -> u64 {
            let dist = (mine as f64 - self.base().0).abs();
            (dist * residual_ppm * 1e-6).ceil() as u64 + 2
        }
    }

    /// Every query answers as the reference's does, bit for bit.
    fn assert_same(m: &RemoteClockModel, r: &VecModel, rng: &mut Rng) {
        assert_eq!(m.samples(), &r.samples[..]);
        assert_eq!(m.rate().to_bits(), r.rate.to_bits());
        let (x0, y0) = r.base();
        for _ in 0..8 {
            // Readings around the base point, up to ~2 h away on either
            // side, and near zero (where predictions saturate).
            let off = rng.below(1 << 37);
            let near = rng.below(1 << 20);
            for mine in [
                (x0 as u64).wrapping_add(off),
                (x0 as u64).saturating_sub(off),
                near,
            ] {
                assert_eq!(m.predict(mine), r.predict(mine));
                let ppm = rng.range_f64(0.0, 200.0);
                assert_eq!(m.error_bound(mine, ppm), r.error_bound(mine, ppm));
            }
            for theirs in [
                (y0 as u64).wrapping_add(off),
                (y0 as u64).saturating_sub(off),
                near,
            ] {
                assert_eq!(m.predict_inverse(theirs), r.predict_inverse(theirs));
            }
        }
    }

    #[test]
    fn matches_the_vec_model_bit_for_bit() {
        let mut rng = Rng::new(3);
        // Adds to a full window, and wild fits the clamp rejected.
        let (mut rotations, mut clamps) = (0, 0);
        for _ in 0..400 {
            let ppm = rng.range_f64(-150.0, 150.0);
            let mut mine = rng.below(1 << 40);
            let mut theirs = rng.below(1 << 40);
            let first = ClockSample { mine, theirs };
            let mut m = RemoteClockModel::from_first_sample(first);
            let mut r = VecModel::from_first_sample(first);
            assert_same(&m, &r, &mut rng);
            // Long enough to overflow the window several times.
            for _ in 0..rng.below(30) {
                match rng.below(10) {
                    // A clock jump of my own.
                    0 => {
                        let delta = rng.below(2_000_000) as i64 - 1_000_000;
                        mine = mine.wrapping_add_signed(delta);
                        m.rebase_mine(delta);
                        r.rebase_mine(delta);
                    }
                    // A same-instant repeat of the last exchange.
                    1 => {
                        m.add_sample(ClockSample { mine, theirs });
                        r.add_sample(ClockSample { mine, theirs });
                    }
                    // A wild reading: a fitted rate outside the clamp.
                    2 => {
                        let step = rng.below(10_000_000);
                        mine += step;
                        theirs += step + step / 10;
                        m.add_sample(ClockSample { mine, theirs });
                        r.add_sample(ClockSample { mine, theirs });
                        clamps += usize::from(r.rate == 1.0);
                    }
                    // A jittered exchange with a drifting clock.
                    _ => {
                        rotations +=
                            usize::from(r.samples.len() == RemoteClockModel::DEFAULT_WINDOW);
                        let step = rng.below(20_000_000);
                        mine += step;
                        theirs += (step as f64 * (1.0 + ppm * 1e-6)) as u64 + rng.below(30);
                        m.add_sample(ClockSample { mine, theirs });
                        r.add_sample(ClockSample { mine, theirs });
                    }
                }
                assert_same(&m, &r, &mut rng);
            }
        }
        assert!(
            rotations > 100 && clamps > 100,
            "{rotations} rotations, {clamps} clamps"
        );
    }

    #[test]
    fn a_model_takes_24_bytes() {
        // A first exchange inline, or the rate and a boxed window.
        assert_eq!(std::mem::size_of::<RemoteClockModel>(), 24);
    }

    fn exchange(a: &StationClock, b: &StationClock, t: Time) -> ClockSample {
        ClockSample {
            mine: a.reading(t),
            theirs: b.reading(t),
        }
    }

    #[test]
    fn single_sample_assumes_unit_rate() {
        let m = RemoteClockModel::from_first_sample(ClockSample {
            mine: 1000,
            theirs: 5000,
        });
        assert_eq!(m.predict(1000), 5000);
        assert_eq!(m.predict(1500), 5500);
        assert_eq!(m.predict_inverse(5500), 1500);
    }

    #[test]
    fn two_samples_capture_drift() {
        let a = StationClock {
            offset: 7_000,
            ppm: 0.0,
        };
        let b = StationClock {
            offset: 3_000_000,
            ppm: 120.0,
        };
        let mut m = RemoteClockModel::from_first_sample(exchange(&a, &b, Time::ZERO));
        m.add_sample(exchange(&a, &b, Time::from_secs(10)));
        assert!((m.rate() - 1.00012).abs() < 1e-6, "rate {}", m.rate());
        // Predict 100 s ahead: error should be sub-tick-scale.
        let t = Time::from_secs(110);
        let predicted = m.predict(a.reading(t));
        let actual = b.reading(t);
        assert!(
            predicted.abs_diff(actual) <= 2,
            "pred {predicted} vs {actual}"
        );
    }

    #[test]
    fn unmodelled_drift_error_grows() {
        let a = StationClock::ideal();
        let b = StationClock {
            offset: 500_000,
            ppm: 80.0,
        };
        // Model from one sample only: rate 1.0, so error grows at 80 ppm.
        let m = RemoteClockModel::from_first_sample(exchange(&a, &b, Time::ZERO));
        let t = Time::from_secs(100);
        let err = m.predict(a.reading(t)).abs_diff(b.reading(t));
        assert!((7000..9000).contains(&err), "err {err}");
        // The bound with the true ppm covers it.
        assert!(m.error_bound(a.reading(t), 80.0) >= err);
    }

    #[test]
    fn sliding_window_caps_samples() {
        let mut m = RemoteClockModel::from_first_sample(ClockSample { mine: 0, theirs: 0 });
        for i in 1..20u64 {
            m.add_sample(ClockSample {
                mine: i * 1000,
                theirs: i * 1000,
            });
        }
        assert_eq!(m.samples().len(), RemoteClockModel::DEFAULT_WINDOW);
        // The window is a boxed slice: its capacity is its length (the
        // bytes it holds are checked in `tests/model_alloc.rs`).
        assert_eq!(m.samples()[0].mine, 12_000);
        assert!((m.rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_long_history_predicts_like_its_last_window() {
        // Jittered exchanges with a drifting clock: a non-trivial fit.
        let mut rng = parn_sim::Rng::new(11);
        let samples: Vec<ClockSample> = (0..20u64)
            .map(|i| {
                let mine = 5_000 + i * 1_000_000 + rng.below(50);
                let theirs = 9_000_000 + (mine as f64 * 1.000_137) as u64 + rng.below(50);
                ClockSample { mine, theirs }
            })
            .collect();
        let w = RemoteClockModel::DEFAULT_WINDOW;
        let mut long = RemoteClockModel::from_first_sample(samples[0]);
        for &s in &samples[1..] {
            long.add_sample(s);
        }
        let tail = &samples[samples.len() - w..];
        let mut short = RemoteClockModel::from_first_sample(tail[0]);
        for &s in &tail[1..] {
            short.add_sample(s);
        }
        assert_ne!(long.rate(), 1.0, "the fit should see the drift");
        assert_eq!(long.rate().to_bits(), short.rate().to_bits());
        for mine in (0..40u64).map(|k| k * 777_777) {
            assert_eq!(long.predict(mine), short.predict(mine));
            assert_eq!(long.predict_inverse(mine), short.predict_inverse(mine));
            assert_eq!(long.error_bound(mine, 5.0), short.error_bound(mine, 5.0));
        }
    }

    #[test]
    fn inverse_round_trip() {
        let a = StationClock::ideal();
        let b = StationClock {
            offset: 123_456,
            ppm: -60.0,
        };
        let mut m = RemoteClockModel::from_first_sample(exchange(&a, &b, Time::ZERO));
        m.add_sample(exchange(&a, &b, Time::from_secs(5)));
        let mine = a.reading(Time::from_secs(42));
        let theirs = m.predict(mine);
        assert!(m.predict_inverse(theirs).abs_diff(mine) <= 2);
    }

    #[test]
    fn degenerate_same_instant_samples() {
        let mut m = RemoteClockModel::from_first_sample(ClockSample {
            mine: 100,
            theirs: 900,
        });
        m.add_sample(ClockSample {
            mine: 100,
            theirs: 900,
        });
        assert_eq!(m.rate(), 1.0);
        assert_eq!(m.predict(200), 1000);
    }

    #[test]
    fn rebase_mine_preserves_predictions_after_own_jump() {
        let a = StationClock::ideal();
        let b = StationClock {
            offset: 42_000,
            ppm: 90.0,
        };
        let mut m = RemoteClockModel::from_first_sample(exchange(&a, &b, Time::ZERO));
        m.add_sample(exchange(&a, &b, Time::from_secs(10)));
        let t = Time::from_secs(20);
        let before = m.predict(a.reading(t));
        // My clock jumps forward by 5000 ticks; rebasing keeps the model
        // pointing at the same *their*-clock instants.
        let jump = 5000i64;
        m.rebase_mine(jump);
        let after = m.predict(a.reading(t).wrapping_add_signed(jump));
        assert!(before.abs_diff(after) <= 2, "{before} vs {after}");
    }

    #[test]
    fn wild_fit_rejected() {
        // Two samples implying a 5% rate difference: impossible for quartz,
        // treated as noise.
        let mut m = RemoteClockModel::from_first_sample(ClockSample { mine: 0, theirs: 0 });
        m.add_sample(ClockSample {
            mine: 1000,
            theirs: 1050,
        });
        assert_eq!(m.rate(), 1.0);
    }
}
