//! Per-station protocol state.
//!
//! A station owns its models of neighbours' clocks, per-next-hop packet
//! queues, and its transmitter commitments. Its schedule is not stored:
//! it is the shared slot function reckoned by the station's clock. The MAC
//! logic that manipulates this state lives in
//! [`network`](crate::network), which has the global view (gain matrix,
//! SINR tracker) a simulator needs; nothing in here lets a station peek at
//! state a real station could not hold.

use crate::packet::Packet;
use crate::vecmap::VecMap;
use parn_phys::StationId;
use parn_sched::{RemoteClockModel, Window};
use parn_sim::Time;
use std::collections::VecDeque;

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
///
/// Its keyed state lives in [`VecMap`]s: they iterate in ascending key
/// order, so runs are deterministic, and hold no storage beyond their
/// entries, none at all once emptied.
#[derive(Debug)]
pub struct Station {
    /// Station id.
    pub id: StationId,
    /// Models of tracked neighbours' clocks (routing neighbours plus
    /// §7.3-protected close stations).
    pub models: VecMap<StationId, RemoteClockModel>,
    /// Per-next-hop FIFO queues (no head-of-line blocking across
    /// neighbours: the MAC picks whichever queue can go earliest). A
    /// queue is removed when it drains, so every queue here is non-empty.
    pub queues: VecMap<StationId, VecDeque<Packet>>,
    /// Outstanding planned transmissions, keyed by start tick. Multiple
    /// plans let the transmitter stay busy across its transmit windows —
    /// the "no head-of-line blocking" behaviour behind §7.2's duty cycles.
    pub pending_tx: VecMap<u64, PlannedTx>,
    /// Future/ongoing transmitter commitments, sorted and disjoint,
    /// pruned as time passes. Used to keep plans from overlapping.
    pub reservations: Vec<Window>,
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
    pub attempts: VecMap<u64, u32>,
}

impl Station {
    /// Fresh station state.
    pub fn new(id: StationId) -> Station {
        Station {
            id,
            models: VecMap::new(),
            queues: VecMap::new(),
            pending_tx: VecMap::new(),
            reservations: Vec::new(),
            active_rx: 0,
            routing_neighbors: Vec::new(),
            protected: Vec::new(),
            retry_pending: false,
            attempts: VecMap::new(),
        }
    }

    /// Enqueue a packet for a next hop.
    pub fn enqueue(&mut self, next_hop: StationId, mut packet: Packet, now: Time) {
        packet.enqueued = now;
        self.queues.entry(next_hop).or_default().push_back(packet);
    }

    /// Take the head packet of the queue for `next_hop`, removing the
    /// queue (and freeing its storage) when that empties it.
    pub fn dequeue(&mut self, next_hop: StationId) -> Option<Packet> {
        let queue = self.queues.get_mut(&next_hop)?;
        let packet = queue.pop_front();
        if queue.is_empty() {
            self.queues.remove(&next_hop);
        }
        packet
    }

    /// Total queued packets (excluding any pending transmission).
    pub fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Drop reservations that ended at or before `now`.
    pub fn prune_reservations(&mut self, now: Time) {
        self.reservations.retain(|w| w.end > now);
    }

    /// Reserve the transmitter for `w`, at its sorted position.
    pub fn reserve(&mut self, w: Window) {
        let i = self.reservations.partition_point(|r| r.start < w.start);
        debug_assert!(
            (i == 0 || self.reservations[i - 1].end <= w.start)
                && self.reservations.get(i).is_none_or(|r| w.end <= r.start),
            "station {}: plan {w:?} overlaps a reservation",
            self.id
        );
        self.reservations.insert(i, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn station() -> Station {
        Station::new(0)
    }

    fn pkt(id: u64) -> Packet {
        Packet::new(id, 0, 5, Time::ZERO)
    }

    #[test]
    fn enqueue_and_count() {
        let mut s = station();
        assert_eq!(s.queued(), 0);
        s.enqueue(1, pkt(1), Time(5));
        s.enqueue(1, pkt(2), Time(6));
        s.enqueue(2, pkt(3), Time(7));
        assert_eq!(s.queued(), 3);
        let q1 = s.queues.get(&1).expect("queue for next hop 1");
        assert_eq!(q1.len(), 2);
        assert_eq!(q1[0].enqueued, Time(5));
    }

    #[test]
    fn dequeue_is_fifo_and_drops_drained_queues() {
        let mut s = station();
        s.enqueue(1, pkt(1), Time(5));
        s.enqueue(2, pkt(2), Time(6));
        s.enqueue(1, pkt(3), Time(7));
        assert_eq!(s.dequeue(1).map(|p| p.id), Some(1));
        assert_eq!(s.dequeue(2).map(|p| p.id), Some(2));
        assert_eq!(s.queues.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.dequeue(1).map(|p| p.id), Some(3));
        assert!(s.dequeue(1).is_none());
        assert_eq!(s.queued(), 0);
        assert_eq!(s.queues.capacity(), 0);
    }

    #[test]
    fn reservation_pruning() {
        let mut s = station();
        s.reserve(Window::new(Time(30), Time(40)));
        s.reserve(Window::new(Time(10), Time(20)));
        assert_eq!(
            s.reservations,
            vec![
                Window::new(Time(10), Time(20)),
                Window::new(Time(30), Time(40))
            ]
        );
        s.prune_reservations(Time(25));
        assert_eq!(s.reservations, vec![Window::new(Time(30), Time(40))]);
        s.prune_reservations(Time(40));
        assert!(s.reservations.is_empty());
    }
}
