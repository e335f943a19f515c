//! Station clocks.
//!
//! §7: "Global clock synchronization is not required. Only the ability to
//! relate one station's clock with another's is required." A station clock
//! is a free-running counter with a large random offset (so no two
//! neighbours' schedules align) and a small rate error (quartz drift,
//! parts-per-million).
//!
//! The paper (§7.1) randomizes the *high-order bits* of each clock so the
//! chance of two neighbours landing within one slot of each other is
//! negligible; [`StationClock::random`] reproduces that.

use parn_sim::{Rng, Time};

/// Below this magnitude an `f64` may have a fraction; at and above it,
/// every `f64` is an integer.
const EXACT_INTEGERS: f64 = (1u64 << 52) as f64;

/// `x.round() as i64` for every `x`, ties away from zero, in integer
/// arithmetic. On the x86-64 baseline `f64::round` is a library call;
/// this is a truncating conversion and one exact subtraction.
#[inline]
pub(crate) fn round_i64(x: f64) -> i64 {
    if x.abs() < EXACT_INTEGERS {
        let t = x as i64;
        // Exact: `x` and its truncation share their integer bits.
        let frac = x - t as f64;
        t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64
    } else {
        // Already an integer, or NaN or infinite: `as` saturates exactly
        // as it does after `round`.
        x as i64
    }
}

/// `x.round().max(0.0) as u64` for every `x` (see [`round_i64`]).
#[inline]
pub(crate) fn round_u64(x: f64) -> u64 {
    if x < EXACT_INTEGERS {
        round_i64(x).max(0) as u64
    } else {
        // An integer at or above 2⁵², or NaN.
        x as u64
    }
}

/// A station's local clock: `reading(t) = offset + t·(1 + ppm·10⁻⁶)`.
#[derive(Clone, Copy, Debug)]
pub struct StationClock {
    /// Fixed offset (ticks). Randomized at boot.
    pub offset: u64,
    /// Rate error in parts per million (can be negative).
    pub ppm: f64,
}

impl StationClock {
    /// An ideal clock aligned with simulation time.
    pub fn ideal() -> StationClock {
        StationClock {
            offset: 0,
            ppm: 0.0,
        }
    }

    /// A clock with the given offset and no drift.
    pub fn with_offset(offset: u64) -> StationClock {
        StationClock { offset, ppm: 0.0 }
    }

    /// A random clock: offset uniform in `[0, 2⁴⁰)` ticks (≈ 12.7 days —
    /// vastly more than a slot, so neighbour offsets collide with
    /// negligible probability) and drift uniform in `[-max_ppm, max_ppm]`.
    pub fn random(rng: &mut Rng, max_ppm: f64) -> StationClock {
        StationClock {
            offset: rng.below(1 << 40),
            ppm: if max_ppm > 0.0 {
                rng.range_f64(-max_ppm, max_ppm)
            } else {
                0.0
            },
        }
    }

    /// The drift accumulated by simulation time `t`, in ticks (signed).
    #[inline]
    fn drift_ticks(&self, t: Time) -> i64 {
        round_i64(t.ticks() as f64 * self.ppm * 1e-6)
    }

    /// Local clock reading at simulation time `t`.
    #[inline]
    pub fn reading(&self, t: Time) -> u64 {
        let base = self.offset.wrapping_add(t.ticks());
        base.wrapping_add_signed(self.drift_ticks(t))
    }

    /// Invert the clock: the simulation time at which this clock shows
    /// `reading`. Returns `None` for readings before the clock's epoch.
    ///
    /// Exact up to rounding: solves `reading = offset + t + t·ppm·10⁻⁶`.
    pub fn time_of_reading(&self, reading: u64) -> Option<Time> {
        let elapsed_local = reading.wrapping_sub(self.offset);
        // Readings queried in practice are near current simulation time, so
        // elapsed_local fits comfortably in f64's exact-integer range.
        if elapsed_local > (1 << 60) {
            return None; // wrapped: reading precedes the epoch
        }
        let t = elapsed_local as f64 / (1.0 + self.ppm * 1e-6);
        Some(Time(round_u64(t)))
    }

    /// Offset difference to another clock at time `t`, in ticks (signed):
    /// how far ahead `self` reads compared to `other`.
    pub fn lead_over(&self, other: &StationClock, t: Time) -> i64 {
        self.reading(t).wrapping_sub(other.reading(t)) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parn_sim::Duration;

    #[test]
    fn ideal_clock_tracks_time() {
        let c = StationClock::ideal();
        assert_eq!(c.reading(Time(12345)), 12345);
        assert_eq!(c.time_of_reading(12345), Some(Time(12345)));
    }

    #[test]
    fn offset_shifts_reading() {
        let c = StationClock::with_offset(1000);
        assert_eq!(c.reading(Time(5)), 1005);
    }

    #[test]
    fn drift_accumulates() {
        let c = StationClock {
            offset: 0,
            ppm: 100.0,
        };
        // After 10 s (1e7 ticks), +100 ppm has gained 1000 ticks.
        assert_eq!(c.reading(Time::from_secs(10)), 10_000_000 + 1000);
        let c2 = StationClock {
            offset: 0,
            ppm: -50.0,
        };
        assert_eq!(c2.reading(Time::from_secs(10)), 10_000_000 - 500);
    }

    #[test]
    fn inverse_round_trips() {
        for ppm in [-200.0, -3.0, 0.0, 7.5, 150.0] {
            let c = StationClock { offset: 999, ppm };
            for secs in [0u64, 1, 60, 3600] {
                let t = Time::from_secs(secs);
                let r = c.reading(t);
                let back = c.time_of_reading(r).unwrap();
                let err = back.ticks().abs_diff(t.ticks());
                assert!(err <= 1, "ppm {ppm} t {t}: err {err}");
            }
        }
    }

    #[test]
    fn reading_before_epoch_rejected() {
        let c = StationClock::with_offset(1_000_000);
        assert_eq!(c.time_of_reading(999), None);
    }

    #[test]
    fn random_clocks_distinct() {
        let mut rng = Rng::new(5);
        let a = StationClock::random(&mut rng, 100.0);
        let b = StationClock::random(&mut rng, 100.0);
        // With 2^40 possible offsets, any collision means a broken RNG.
        assert_ne!(a.offset, b.offset);
        assert!(a.ppm.abs() <= 100.0 && b.ppm.abs() <= 100.0);
    }

    #[test]
    fn random_offsets_exceed_slot_spacing() {
        // Paper §7.1: neighbour clocks must differ by more than one slot.
        let slot = Duration::from_millis(10).ticks();
        let mut rng = Rng::new(17);
        let clocks: Vec<_> = (0..100)
            .map(|_| StationClock::random(&mut rng, 0.0))
            .collect();
        let mut close_pairs = 0;
        for i in 0..clocks.len() {
            for j in (i + 1)..clocks.len() {
                let d = clocks[i].lead_over(&clocks[j], Time::ZERO).unsigned_abs();
                if d < slot {
                    close_pairs += 1;
                }
            }
        }
        assert_eq!(close_pairs, 0, "{close_pairs} pairs within one slot");
    }

    #[test]
    fn integer_rounding_matches_round_everywhere() {
        let check = |x: f64| {
            assert_eq!(round_i64(x), x.round() as i64, "i64 at {x:e}");
            assert_eq!(round_u64(x), x.round().max(0.0) as u64, "u64 at {x:e}");
        };
        // A positive finite value and its two neighbouring floats.
        let around = |x: f64| {
            let b = x.to_bits();
            [f64::from_bits(b - 1), x, f64::from_bits(b + 1)]
        };
        let mut values = vec![
            0.0,
            f64::INFINITY,
            f64::NAN,
            f64::MAX,
            i64::MAX as f64,
            u64::MAX as f64,
        ];
        values.extend(around(f64::MIN_POSITIVE));
        values.extend(around(EXACT_INTEGERS));
        values.extend(around((1u64 << 63) as f64));
        // Ties (k + ½) near zero, near the clock readings the simulator
        // rounds, and just below 2⁵².
        for k in (0u64..40).chain([1 << 40, (1 << 51) - 1]) {
            values.extend(around(k as f64 + 0.5));
        }
        let mut rng = Rng::new(29);
        for _ in 0..100_000 {
            // Random bit patterns cover every exponent and NaN payloads.
            values.push(f64::from_bits(rng.next_u64()));
            // Uniform values of a random magnitude up to 2⁶⁴.
            let scale = (1u64 << rng.below(64)) as f64;
            values.push(rng.range_f64(0.0, scale));
        }
        values.extend((0..64).map(|e| (1u64 << e) as f64));
        for x in values {
            // Each value with both signs: negatives, -0.0 and -inf too.
            check(x);
            check(-x);
        }
    }

    #[test]
    fn lead_over_signs() {
        let a = StationClock::with_offset(500);
        let b = StationClock::with_offset(200);
        assert_eq!(a.lead_over(&b, Time(77)), 300);
        assert_eq!(b.lead_over(&a, Time(77)), -300);
    }
}
