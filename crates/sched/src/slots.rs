//! The pseudo-random slot schedule (§7.1).
//!
//! Time (by a station's own clock) is divided into equal slots; each slot
//! is designated *receive* or *transmit* by hashing the slot index: "if the
//! hash value is less than a threshold, then the slot is a receive slot".
//! All stations share one schedule function; they differ only by their
//! (randomized, unaligned) clocks. A published schedule is a commitment to
//! *listen* during receive slots; transmit slots are merely permission to
//! transmit.

use parn_sim::rng::mix64;
use parn_sim::Duration;

/// What a slot is designated for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SlotKind {
    /// Committed to listening (the published receive window).
    Receive,
    /// Allowed to transmit.
    Transmit,
}

/// The global schedule function: slot length, receive duty cycle, and a
/// hash salt (one per network).
///
/// ```
/// use parn_sched::{SchedParams, SlotKind};
/// let p = SchedParams::paper_default();
/// // Deterministic designation per slot index; ~30% of slots receive.
/// let rx = (0..10_000)
///     .filter(|&i| p.kind_of_slot(i) == SlotKind::Receive)
///     .count();
/// assert!((2_800..3_200).contains(&rx));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SchedParams {
    /// Slot length.
    pub slot: Duration,
    /// Receive duty cycle `p`: the probability a slot is a receive slot.
    /// §7.2 finds `p ≈ 0.3` near-optimal.
    pub rx_prob: f64,
    /// Network-wide hash salt.
    pub salt: u64,
}

impl SchedParams {
    /// The paper's defaults: 10 ms slots, `p = 0.3`.
    pub fn paper_default() -> SchedParams {
        SchedParams {
            slot: Duration::from_millis(10),
            rx_prob: 0.3,
            salt: 0x5EED_CA57,
        }
    }

    /// Construct with explicit values.
    pub fn new(slot: Duration, rx_prob: f64, salt: u64) -> SchedParams {
        assert!(
            (0.0..=1.0).contains(&rx_prob),
            "rx_prob must be a probability"
        );
        assert!(!slot.is_zero(), "zero slot length");
        SchedParams {
            slot,
            rx_prob,
            salt,
        }
    }

    /// Slot index containing a local clock reading.
    #[inline]
    pub fn slot_index(&self, local: u64) -> u64 {
        local / self.slot.ticks()
    }

    /// Local reading at which slot `idx` begins.
    #[inline]
    pub fn slot_start(&self, idx: u64) -> u64 {
        idx * self.slot.ticks()
    }

    /// Designation of slot `idx`: hash the slot's start time (the paper
    /// hashes "the value of time at the beginning of the slot").
    #[inline]
    pub fn kind_of_slot(&self, idx: u64) -> SlotKind {
        let h = mix64(idx ^ self.salt);
        // Threshold comparison in the full 64-bit hash space.
        let threshold = (self.rx_prob * u64::MAX as f64) as u64;
        if h < threshold {
            SlotKind::Receive
        } else {
            SlotKind::Transmit
        }
    }

    /// Designation at a local clock reading.
    #[inline]
    pub fn kind_at(&self, local: u64) -> SlotKind {
        self.kind_of_slot(self.slot_index(local))
    }

    /// Measure the empirical receive duty cycle over `n` slots starting at
    /// slot `start_idx`.
    pub fn empirical_rx_fraction(&self, start_idx: u64, n: u64) -> f64 {
        let rx = (start_idx..start_idx + n)
            .filter(|&i| self.kind_of_slot(i) == SlotKind::Receive)
            .count();
        rx as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(p: f64) -> SchedParams {
        SchedParams::new(Duration::from_millis(10), p, 0xABCD)
    }

    #[test]
    fn deterministic_designation() {
        let s = params(0.3);
        for idx in 0..1000 {
            assert_eq!(s.kind_of_slot(idx), s.kind_of_slot(idx));
        }
    }

    #[test]
    fn duty_cycle_converges_to_p() {
        for p in [0.1, 0.3, 0.5, 0.7] {
            let s = params(p);
            let frac = s.empirical_rx_fraction(0, 100_000);
            assert!((frac - p).abs() < 0.01, "p={p} frac={frac}");
        }
    }

    #[test]
    fn extremes() {
        let all_tx = params(0.0);
        let all_rx = params(1.0);
        for idx in 0..100 {
            assert_eq!(all_tx.kind_of_slot(idx), SlotKind::Transmit);
            assert_eq!(all_rx.kind_of_slot(idx), SlotKind::Receive);
        }
    }

    #[test]
    fn slot_indexing() {
        let s = params(0.3); // 10 ms slots = 10_000 ticks
        assert_eq!(s.slot_index(0), 0);
        assert_eq!(s.slot_index(9_999), 0);
        assert_eq!(s.slot_index(10_000), 1);
        assert_eq!(s.slot_start(3), 30_000);
    }

    #[test]
    fn different_salts_differ() {
        let a = SchedParams::new(Duration::from_millis(10), 0.3, 1);
        let b = SchedParams::new(Duration::from_millis(10), 0.3, 2);
        let same = (0..1000)
            .filter(|&i| a.kind_of_slot(i) == b.kind_of_slot(i))
            .count();
        // Agreement should be ~ p² + (1-p)² = 0.58, not ~1.0.
        assert!((400..750).contains(&same), "same = {same}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_prob_rejected() {
        SchedParams::new(Duration::from_millis(1), 1.5, 0);
    }

    #[test]
    fn runs_of_slots_look_random() {
        // No long deterministic runs: with p = 0.5, the longest same-kind
        // run in 10k slots should be well under 40.
        let s = params(0.5);
        let mut longest = 0;
        let mut run = 0;
        let mut prev = None;
        for i in 0..10_000 {
            let k = s.kind_of_slot(i);
            if Some(k) == prev {
                run += 1;
            } else {
                run = 1;
                prev = Some(k);
            }
            longest = longest.max(run);
        }
        assert!((5..40).contains(&longest), "longest run {longest}");
    }
}
