//! Packets.
//!
//! The scheme fixes the air-time of every packet to a quarter slot
//! (§7.2); a "packet" here is the unit the MAC schedules, forwarded
//! hop-by-hop along minimum-energy routes.

use parn_phys::StationId;
use parn_sim::Time;
use std::sync::Arc;

/// Unique packet identifier.
pub type PacketId = u64;

/// What a packet carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// Application payload, forwarded end-to-end.
    Data,
    /// A single-hop hello beacon carrying the sender's clock reading
    /// (schedule maintenance under piggyback synchronization). Best
    /// effort: never retried, not counted as traffic.
    Hello,
    /// A single-hop distance-vector advertisement (`RouteMode::Distributed`
    /// §6.2): the sender's routing vector with split horizon / poisoned
    /// reverse applied for the addressee. Same ledger treatment as hellos:
    /// best effort, never retried, outside the traffic books.
    RouteUpdate,
}

/// Control-plane payload attached to a hello or route-update packet.
///
/// The bits are snapshotted when the transmission *starts* (like the
/// clock reading a hello carries) and delivered intact on success; the
/// PHY never examines them.
#[derive(Clone, Debug, Default)]
pub struct ControlPayload {
    /// Distance-vector advertisement: `(total route energy, hop count)`
    /// per destination, poisoned for routes through the addressee.
    pub route_vector: Option<Vec<(f64, u32)>>,
    /// Liveness gossip: when the sender last heard each tracked station
    /// (directly or through earlier gossip). Lets idle neighbours be
    /// ruled alive without any data traffic.
    pub last_heard: Option<Vec<(StationId, Time)>>,
}

/// A packet in flight through the network.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Payload kind.
    pub kind: PacketKind,
    /// Originating station.
    pub src: StationId,
    /// Final destination.
    pub dst: StationId,
    /// Creation (arrival at source) time.
    pub created: Time,
    /// Hops traversed so far.
    pub hops: u32,
    /// Failed attempts at the current hop; a successful hop resets it.
    pub attempts: u32,
    /// Time the packet was enqueued at the current holder (for per-hop
    /// queueing-delay statistics).
    pub enqueued: Time,
    /// Stations this packet has been held by, source first. Forwarding
    /// back into this set is refused (the per-packet loop-freedom
    /// invariant for distributed routing). A clone copies it.
    pub visited: Vec<StationId>,
    /// Control payload (hello gossip / distance-vector advertisement),
    /// snapshotted at transmission start. `None` for data packets and for
    /// queued control packets that have not gone on the air yet.
    pub payload: Option<Arc<ControlPayload>>,
}

impl Packet {
    /// A fresh packet at its source.
    pub fn new(id: PacketId, src: StationId, dst: StationId, now: Time) -> Packet {
        Packet {
            id,
            kind: PacketKind::Data,
            src,
            dst,
            created: now,
            hops: 0,
            attempts: 0,
            enqueued: now,
            visited: vec![src],
            payload: None,
        }
    }

    /// Age since creation.
    pub fn age(&self, now: Time) -> parn_sim::Duration {
        now.since(self.created)
    }
}

/// Why a packet (or one reception of it) was lost.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LossCause {
    /// SINR dipped below threshold: unrelated transmitter(s) (Type 1).
    CollisionType1,
    /// SINR dipped below threshold: another sender to the same receiver
    /// (Type 2).
    CollisionType2,
    /// The receiver was itself transmitting (Type 3).
    CollisionType3,
    /// All despreading channels at the receiver were busy.
    DespreaderExhausted,
    /// SINR below threshold with no significant local interferer (the
    /// ambient din alone was too high — a link-budget failure, not a
    /// collision).
    Din,
    /// A station the packet depended on was down. As a hop loss: the
    /// receiver crashed, rebooted or left before the transmission ended.
    /// As a drop: the packet was queued or planned at a station when it
    /// crashed, or its holder crashed, rebooted or left while the packet
    /// was on the air or backing off.
    StationFailed,
    /// The destination became unreachable after a topology change and the
    /// packet was dropped at rerouting time.
    Unroutable,
    /// SINR below threshold with a deliberate jammer as a significant
    /// interferer — adversarial interference, not a protocol collision.
    Jammed,
    /// The packet exhausted its per-hop retransmission budget and was
    /// dropped by its holder.
    RetriesExhausted,
    /// Forwarding the packet would have revisited a station it already
    /// passed through (a transient distance-vector loop); dropped at the
    /// holder instead of cycling.
    RoutingLoop,
    /// SINR below threshold with a Byzantine schedule violator as a
    /// significant interferer — a station transmitting outside its
    /// published §7.3 windows, not a protocol collision and not a plain
    /// jammer.
    Violation,
    /// The packet was queued or planned at a station when it cleanly left
    /// the network (a churn departure, not a crash). Only that backlog is
    /// recorded so: a hop to a departed receiver, and a packet the
    /// departure catches on the air or backing off, are `StationFailed`.
    Departed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_lifecycle_fields() {
        let p = Packet::new(7, 1, 5, Time::from_secs(2));
        assert_eq!(p.id, 7);
        assert_eq!(p.kind, PacketKind::Data);
        assert_eq!((p.src, p.dst), (1, 5));
        assert_eq!((p.hops, p.attempts), (0, 0));
        assert_eq!(p.visited, vec![1]);
        assert!(p.payload.is_none());
        assert_eq!(p.age(Time::from_secs(5)).as_secs_f64(), 3.0);
    }
}
