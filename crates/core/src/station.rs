//! Per-station protocol state.
//!
//! A station owns its clock/schedule, its models of neighbours' clocks,
//! per-next-hop packet queues, and its transmitter commitments. The MAC
//! logic that manipulates this state lives in
//! [`network`](crate::network), which has the global view (gain matrix,
//! SINR tracker) a simulator needs; nothing in here lets a station peek at
//! state a real station could not hold.

use crate::packet::Packet;
use parn_phys::StationId;
use parn_sched::{RemoteClockModel, StationSchedule, Window};
use parn_sim::Time;
use std::collections::{BTreeMap, VecDeque};

/// Local liveness estimate of one neighbour (`HealMode::Local`): built
/// entirely from this station's own hop outcomes (implicit acks), never
/// from global state.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeighborHealth {
    /// Consecutive failed hop attempts to this neighbour (reset on any
    /// success).
    pub consecutive_failures: u32,
    /// When suspicion started (the failure that crossed the suspect
    /// threshold). `None` while the neighbour is in good standing.
    pub suspected_at: Option<Time>,
    /// Whether this station has evicted the neighbour from its routing
    /// view (cleared on re-admission).
    pub evicted: bool,
    /// Flap-damping penalty accrued by this neighbour: each eviction adds
    /// one point, and the score decays exponentially with the configured
    /// half-life. Readmission is suppressed while the decayed score stays
    /// at or above `HealConfig::flap_suppress`. Meaningful only when
    /// `HealConfig::flap_damping` is on (stays 0.0 otherwise).
    pub flap_penalty: f64,
    /// When `flap_penalty` was last updated (the decay reference point).
    pub flap_updated: Option<Time>,
}

/// A transmission the MAC has committed to.
#[derive(Clone, Debug)]
pub struct PlannedTx {
    /// Scheduled air start.
    pub start: Time,
    /// The neighbour addressed.
    pub next_hop: StationId,
    /// The packet to carry.
    pub packet: Packet,
}

/// One station's mutable protocol state.
#[derive(Debug)]
pub struct Station {
    /// Station id.
    pub id: StationId,
    /// Own schedule: the shared slot function reckoned by this station's
    /// clock.
    pub schedule: StationSchedule,
    /// Models of tracked neighbours' clocks (routing neighbours plus
    /// §7.3-protected close stations). BTreeMap for deterministic
    /// iteration.
    pub models: BTreeMap<StationId, RemoteClockModel>,
    /// Per-next-hop FIFO queues (no head-of-line blocking across
    /// neighbours: the MAC picks whichever queue can go earliest).
    pub queues: BTreeMap<StationId, VecDeque<Packet>>,
    /// Outstanding planned transmissions, keyed by start tick. Multiple
    /// plans let the transmitter stay busy across its transmit windows —
    /// the "no head-of-line blocking" behaviour behind §7.2's duty cycles.
    pub pending_tx: BTreeMap<u64, PlannedTx>,
    /// Future/ongoing transmitter commitments `[start, end)`, pruned as
    /// time passes. Used to keep plans from overlapping.
    pub reservations: Vec<(Time, Time)>,
    /// Despreading channels currently occupied by in-flight receptions.
    pub active_rx: usize,
    /// Routing neighbours (next hops this station uses).
    pub routing_neighbors: Vec<StationId>,
    /// Close stations whose receive windows this station must respect when
    /// transmitting at significant power (§7.3).
    pub protected: Vec<StationId>,
    /// Whether a MAC retry event is already scheduled (dedupes retries).
    pub retry_pending: bool,
    /// Per-packet transmit attempts for the head entries, keyed by packet
    /// id (cleared on success/drop).
    pub attempts: BTreeMap<u64, u32>,
    /// Per-neighbour liveness tracking for local failure detection
    /// (`HealMode::Local`). BTreeMap for deterministic iteration.
    pub liveness: BTreeMap<StationId, NeighborHealth>,
    /// Whether a triggered distance-vector update round is already
    /// scheduled (dedupes bursts of table changes into one round).
    pub update_pending: bool,
    /// When this station last heard each other station — directly (any
    /// reception or implicit ack) or through hello gossip. BTreeMap for
    /// deterministic iteration.
    pub last_heard: BTreeMap<StationId, Time>,
}

impl Station {
    /// Fresh station state.
    pub fn new(id: StationId, schedule: StationSchedule) -> Station {
        Station {
            id,
            schedule,
            models: BTreeMap::new(),
            queues: BTreeMap::new(),
            pending_tx: BTreeMap::new(),
            reservations: Vec::new(),
            active_rx: 0,
            routing_neighbors: Vec::new(),
            protected: Vec::new(),
            retry_pending: false,
            attempts: BTreeMap::new(),
            liveness: BTreeMap::new(),
            update_pending: false,
            last_heard: BTreeMap::new(),
        }
    }

    /// Enqueue a packet for a next hop.
    pub fn enqueue(&mut self, next_hop: StationId, mut packet: Packet, now: Time) {
        packet.enqueued = now;
        self.queues.entry(next_hop).or_default().push_back(packet);
    }

    /// Total queued packets (excluding any pending transmission).
    pub fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// True when there is nothing to send and nothing planned.
    pub fn idle(&self) -> bool {
        self.pending_tx.is_empty() && self.queued() == 0
    }

    /// Drop reservations that ended at or before `now`.
    pub fn prune_reservations(&mut self, now: Time) {
        self.reservations.retain(|&(_, end)| end > now);
    }

    /// Remove reserved intervals from a sorted window list (both lists in
    /// global time). Returns the usable remainder.
    pub fn subtract_reservations(&self, windows: &[Window]) -> Vec<Window> {
        let mut out = Vec::new();
        for &w in windows {
            let mut cur = w;
            // Reservations are few; scan them all.
            let mut cuts: Vec<(Time, Time)> = self
                .reservations
                .iter()
                .copied()
                .filter(|&(s, e)| s < cur.end && cur.start < e)
                .collect();
            cuts.sort();
            for (s, e) in cuts {
                if s > cur.start {
                    out.push(Window::new(cur.start, s.min(cur.end)));
                }
                if e >= cur.end {
                    cur = Window::new(cur.end, cur.end); // fully consumed
                    break;
                }
                cur = Window::new(e.max(cur.start), cur.end);
            }
            if !cur.is_empty() {
                out.push(cur);
            }
        }
        out.retain(|w| !w.is_empty());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parn_sched::{SchedParams, StationClock};

    fn station() -> Station {
        Station::new(
            0,
            StationSchedule::new(SchedParams::paper_default(), StationClock::ideal()),
        )
    }

    fn pkt(id: u64) -> Packet {
        Packet::new(id, 0, 5, Time::ZERO)
    }

    #[test]
    fn enqueue_and_count() {
        let mut s = station();
        assert!(s.idle());
        s.enqueue(1, pkt(1), Time(5));
        s.enqueue(1, pkt(2), Time(6));
        s.enqueue(2, pkt(3), Time(7));
        assert_eq!(s.queued(), 3);
        assert!(!s.idle());
        assert_eq!(s.queues[&1].len(), 2);
        assert_eq!(s.queues[&1][0].enqueued, Time(5));
    }

    #[test]
    fn reservation_pruning() {
        let mut s = station();
        s.reservations.push((Time(10), Time(20)));
        s.reservations.push((Time(30), Time(40)));
        s.prune_reservations(Time(25));
        assert_eq!(s.reservations, vec![(Time(30), Time(40))]);
        s.prune_reservations(Time(40));
        assert!(s.reservations.is_empty());
    }

    #[test]
    fn subtract_reservations_cuts_windows() {
        let mut s = station();
        s.reservations.push((Time(10), Time(20)));
        let ws = vec![Window::new(Time(0), Time(30))];
        let out = s.subtract_reservations(&ws);
        assert_eq!(
            out,
            vec![
                Window::new(Time(0), Time(10)),
                Window::new(Time(20), Time(30))
            ]
        );
    }

    #[test]
    fn subtract_reservations_edge_cases() {
        let mut s = station();
        // Reservation covering a whole window.
        s.reservations.push((Time(0), Time(50)));
        let out = s.subtract_reservations(&[Window::new(Time(10), Time(40))]);
        assert!(out.is_empty());
        // Reservation overlapping only the start.
        s.reservations = vec![(Time(0), Time(15))];
        let out = s.subtract_reservations(&[Window::new(Time(10), Time(40))]);
        assert_eq!(out, vec![Window::new(Time(15), Time(40))]);
        // Two reservations inside one window.
        s.reservations = vec![(Time(12), Time(14)), (Time(20), Time(22))];
        let out = s.subtract_reservations(&[Window::new(Time(10), Time(30))]);
        assert_eq!(
            out,
            vec![
                Window::new(Time(10), Time(12)),
                Window::new(Time(14), Time(20)),
                Window::new(Time(22), Time(30))
            ]
        );
    }

    #[test]
    fn no_reservations_passthrough() {
        let s = station();
        let ws = vec![Window::new(Time(5), Time(9))];
        assert_eq!(s.subtract_reservations(&ws), ws);
    }
}
