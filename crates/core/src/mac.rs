//! The §7 channel access: a station sends a packet to a neighbour only
//! where its own transmit window overlaps the neighbour's predicted
//! receive window, quarter-slot aligned, at the power §6.1 sets, and
//! outside the receive windows of the close stations §7.3 protects.
//!
//! The simulator runs it through a crate-private [`Mac`]. It owns what §7
//! keeps per station: the station's clock and its models of neighbours'
//! clocks, the next-hop queues with the network-wide occupancy they add
//! up to, the committed plans and the armed retry, and the routing view
//! (routing neighbours and the §7.3 protected set). The simulator asks it
//! for plans, powers and schedules and acts on what its hooks return: a
//! plan's start and packet, a retry time, the packets a power-down drops,
//! the stations to re-plan at a power-up. Events, reception, routing,
//! healing, metrics and traces stay with the simulator.

use crate::config::{ClockConfig, NetConfig, SyncMode};
use crate::metrics::Metrics;
use crate::packet::{Packet, PacketId, PacketKind};
use crate::power::PowerPolicy;
use crate::vecmap::VecMap;
use parn_phys::{GainModel, PowerW, StationId};
use parn_sched::{
    intersect_lists, subtract_lists, ClockSample, PredictedSchedule, QuarterSlot, RemoteClockModel,
    SlotKind, StationClock, StationSchedule, Window,
};
use parn_sim::stats::{TimeWeighted, TimeWeightedHist};
use parn_sim::{Duration, Rng, Time};
use std::collections::VecDeque;
use std::sync::Arc;

/// The MAC's first look-ahead span, in slots. At p = 0.3 a sender's
/// transmit window overlaps a given neighbour's receive window about once
/// every 1/(p(1−p)) ≈ 4.8 slots (§7.2), so most plans settle in the first
/// span. First spans of 4 to 16 slots walked within a third of the same
/// number of slots on the benchmark workloads.
const LOOKAHEAD_FIRST_SLOTS: u64 = 8;

/// Factor by which each MAC look-ahead span grows over the last
/// (8 → 32 → 128 → the horizon). Doubling walked up to 15 % fewer slots
/// but takes six passes to reach the default 200-slot horizon, not four.
const LOOKAHEAD_GROWTH: u64 = 4;

/// What one planning step asks the event loop to do.
#[derive(Debug, PartialEq)]
pub(crate) enum Step {
    /// A plan is committed: `(start, next hop, packet)` — the packet goes
    /// on the air at `start`, addressed to the next hop.
    Planned(Time, StationId, PacketId),
    /// Nothing fits within the horizon and nothing is planned: plan again
    /// at this time.
    Retry(Time),
    /// Nothing more to plan now.
    Idle,
}

/// One station's MAC state.
///
/// Its keyed state lives in [`VecMap`]s: they iterate in ascending key
/// order, so runs are deterministic, and hold no storage beyond their
/// entries, none at all once emptied.
#[derive(Debug, Default)]
struct Station {
    /// Models of tracked neighbours' clocks (routing neighbours plus
    /// §7.3-protected close stations).
    models: VecMap<StationId, RemoteClockModel>,
    /// Per-next-hop FIFO queues (no head-of-line blocking across
    /// neighbours: the MAC picks whichever queue can go earliest). A
    /// queue is removed when it drains, so every queue here is non-empty.
    queues: VecMap<StationId, VecDeque<Packet>>,
    /// Outstanding planned transmissions, `start → (next hop, packet)`.
    /// Multiple plans let the transmitter stay busy across its transmit
    /// windows — the "no head-of-line blocking" behaviour behind §7.2's
    /// duty cycles. They overlap neither each other nor the transmission
    /// on the air.
    pending_tx: VecMap<Time, (StationId, Packet)>,
    /// When the transmission on the air ends; in the past when none is.
    busy_until: Time,
    /// Routing neighbours (next hops this station uses).
    routing_neighbors: Vec<StationId>,
    /// Close stations whose receive windows this station must respect when
    /// transmitting at significant power (§7.3).
    protected: Vec<StationId>,
    /// Whether a MAC retry is already armed (dedupes retries).
    retry_pending: bool,
}

impl Station {
    /// Take the head packet of the queue for `next_hop`, removing the
    /// queue (and freeing its storage) when that empties it.
    fn dequeue(&mut self, next_hop: StationId) -> Option<Packet> {
        let queue = self.queues.get_mut(&next_hop)?;
        let packet = queue.pop_front();
        if queue.is_empty() {
            self.queues.remove(&next_hop);
        }
        packet
    }

    /// Total queued packets (excluding any pending transmission).
    fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }
}

/// The channel access of one run.
pub(crate) struct Mac {
    /// The shared slot function and the packets that fit in a slot.
    packing: QuarterSlot,
    /// How far ahead a plan may start, in slots.
    horizon_slots: u64,
    /// The most plans a station keeps outstanding.
    max_plans: usize,
    /// The guard band around a predicted window, the drift bound of a
    /// clock drawn at power-up, and how clock models are kept fresh.
    clock: ClockConfig,
    /// §6.1 power control.
    power: PowerPolicy,
    /// The power a transmission must land on a close station for §7.3 to
    /// protect that station's receive windows from it: the significance
    /// fraction of the interference budget, delivered/θ. `None` with
    /// protection off.
    significant: Option<f64>,
    /// The gain backend powers and protected sets come from.
    gains: Arc<dyn GainModel>,
    /// Each station's clock.
    clocks: Vec<StationClock>,
    /// Each station's state.
    stations: Vec<Station>,
    /// Queued packets across stations: time average and peak.
    queue_depth: TimeWeighted,
    /// Queued packets across stations: dwell time at each depth.
    queue_hist: TimeWeightedHist,
    /// The cut list of the station being planned, kept for its buffer: the
    /// rest of the transmission on the air and the windows of the plans.
    cuts: Vec<Window>,
}

impl Mac {
    /// The channel access of the stations of `gains` under `cfg`, with
    /// clocks drawn from `rng`. It tracks queue depth in the histogram of
    /// `metrics`, which it holds until [`finish`](Mac::finish) hands it
    /// back.
    pub(crate) fn new(
        cfg: &NetConfig,
        gains: Arc<dyn GainModel>,
        rng: &mut Rng,
        metrics: &mut Metrics,
    ) -> Mac {
        let n = gains.len();
        let budget = cfg.delivered_power.value() / cfg.sinr_threshold();
        let significant = cfg.protection.significance_fraction * budget;
        Mac {
            packing: QuarterSlot::with_divisor(cfg.sched, cfg.packet_divisor),
            horizon_slots: cfg.mac_horizon_slots,
            max_plans: cfg.max_outstanding_plans,
            clock: cfg.clock.clone(),
            power: cfg.power_policy(),
            significant: cfg.protection.enabled.then_some(significant),
            gains,
            clocks: (0..n)
                .map(|_| StationClock::random(rng, cfg.clock.max_ppm))
                .collect(),
            stations: (0..n).map(|_| Station::default()).collect(),
            queue_depth: TimeWeighted::new(Time::ZERO, 0.0),
            queue_hist: std::mem::replace(
                &mut metrics.queue_depth_hist,
                TimeWeightedHist::new(Time::ZERO, 0.0, 1),
            ),
            cuts: Vec::new(),
        }
    }

    /// Hand the queue occupancy over at run end: its mean, its peak and
    /// its dwell-time histogram, frozen at `end`.
    pub(crate) fn finish(mut self, end: Time, metrics: &mut Metrics) {
        metrics.mean_queue_depth = self.queue_depth.average(end);
        metrics.peak_queue_depth = self.queue_depth.max();
        self.queue_hist.freeze(end);
        metrics.queue_depth_hist = self.queue_hist;
    }

    /// Adjust the network-wide queued-packet count: the running
    /// time-average/peak and the dwell-time histogram the saturation
    /// sweep reads percentiles from.
    fn track_queue(&mut self, now: Time, delta: f64) {
        self.queue_depth.adjust(now, delta);
        self.queue_hist.adjust(now, delta);
    }

    /// Queue `packet` at `s` for next hop `nh`, stamped with `now`.
    pub(crate) fn enqueue(&mut self, s: StationId, nh: StationId, mut packet: Packet, now: Time) {
        packet.enqueued = now;
        let queue = self.stations[s].queues.entry(nh).or_default();
        queue.push_back(packet);
        self.track_queue(now, 1.0);
    }

    /// Empty every queue at `s`, in next-hop order.
    pub(crate) fn take_queued(&mut self, s: StationId, now: Time) -> Vec<Packet> {
        let queued: Vec<Packet> = std::mem::take(&mut self.stations[s].queues)
            .into_values()
            .flatten()
            .collect();
        self.track_queue(now, -(queued.len() as f64));
        queued
    }

    /// Empty `s`'s queue for next hop `nh`.
    pub(crate) fn take_queue(&mut self, s: StationId, nh: StationId, now: Time) -> Vec<Packet> {
        let queue = Vec::from(self.stations[s].queues.remove(&nh).unwrap_or_default());
        self.track_queue(now, -(queue.len() as f64));
        queue
    }

    /// Whether `s` has a `kind` packet queued for `next_hop`.
    pub(crate) fn has_queued(&self, s: StationId, next_hop: StationId, kind: PacketKind) -> bool {
        let queue = self.stations[s].queues.get(&next_hop);
        queue.is_some_and(|q| q.iter().any(|p| p.kind == kind))
    }

    /// The next hops `s` routes through.
    pub(crate) fn routing_neighbors(&self, s: StationId) -> &[StationId] {
        &self.stations[s].routing_neighbors
    }

    /// The power `s` sends to `nh` with (§6.1).
    pub(crate) fn tx_power(&self, s: StationId, nh: StationId) -> PowerW {
        self.power.tx_power(self.gains.gain(nh, s))
    }

    /// The most power `s` sends to any of its routing neighbours with
    /// (zero with none).
    pub(crate) fn worst_case_power(&self, s: StationId) -> f64 {
        self.stations[s]
            .routing_neighbors
            .iter()
            .map(|&nb| self.tx_power(s, nb).value())
            .fold(0.0f64, f64::max)
    }

    /// Install `rn` as station `s`'s routing neighbours and derive the
    /// rest of its routing view from them and from `links`, the usable
    /// links it may address advertisements over: the worst-case transmit
    /// power, the §7.3 protected set among the `alive` stations, and clock
    /// models (bootstrapped with a rendezvous at `now`) for any routing
    /// neighbour or protected station it has none for yet. The one place
    /// a station's view is derived — at build, after a distance-vector
    /// change or motion, and after an oracle route rebuild.
    pub(crate) fn set_routing_view(
        &mut self,
        s: StationId,
        rn: Vec<StationId>,
        links: &[(StationId, f64)],
        alive: &[bool],
        now: Time,
    ) {
        // Under distributed routing the worst case includes the physical
        // link set: the station addresses advertisements over every
        // usable link, not just its current next hops.
        let max_power_used = rn
            .iter()
            .chain(links.iter().map(|(nb, _)| nb))
            .map(|&nb| self.tx_power(s, nb).value())
            .fold(0.0f64, f64::max);
        let mut protected = Vec::new();
        if let Some(significant) = self.significant.filter(|_| max_power_used > 0.0) {
            // §7.3 in threshold form: `other` is protected when this
            // station's worst-case power would land at least the
            // significance fraction of the interference budget on it,
            // i.e. gain(other, s) ≥ frac·budget / max_power. Phrased as a
            // gain threshold it runs through the (range-bounded)
            // hearable_by query, identical on both backends. The set is
            // recomputed in full, not filtered from the old one: a
            // recovered station must be re-protected, not stay forgotten.
            let thr = parn_phys::Gain(significant / max_power_used);
            // Held for the whole run, so allocated at its exact size
            // rather than kept in the range query's larger buffer.
            let near = self.gains.hearable_by(s, thr);
            let keep = |&p: &StationId| p != s && alive[p];
            protected = Vec::with_capacity(near.iter().filter(|p| keep(p)).count());
            protected.extend(near.into_iter().filter(keep));
        }
        for &nb in rn.iter().chain(protected.iter()) {
            self.rendezvous(s, nb, now, false);
        }
        let st = &mut self.stations[s];
        st.routing_neighbors = rn;
        st.protected = protected;
    }

    /// A rendezvous at `at` (§7): `s` reads `nb`'s clock against its own
    /// and starts a model of `nb` from that one sample where it holds
    /// none, or with `restart` in place of the one it holds (one of the
    /// two clocks restarted, so the old samples would poison the fit).
    pub(crate) fn rendezvous(&mut self, s: StationId, nb: StationId, at: Time, restart: bool) {
        if restart || self.stations[s].models.get(&nb).is_none() {
            let model = RemoteClockModel::from_first_sample(self.sample(s, nb, at));
            self.stations[s].models.insert(nb, model);
        }
    }

    /// `s`'s clock reading against `nb`'s at `at`.
    fn sample(&self, s: StationId, nb: StationId, at: Time) -> ClockSample {
        let (mine, theirs) = (self.clocks[s].reading(at), self.clocks[nb].reading(at));
        ClockSample { mine, theirs }
    }

    /// Piggyback learning: a successful reception carries the sender's
    /// clock reading sampled at transmission `start`; the receiver refines
    /// its model of the sender, or starts one. Nothing happens under the
    /// other synchronization modes.
    pub(crate) fn learn(&mut self, rx: StationId, sender: StationId, start: Time) {
        if !matches!(self.clock.sync, SyncMode::Piggyback { .. }) {
            return;
        }
        let sample = self.sample(rx, sender, start);
        match self.stations[rx].models.get_mut(&sender) {
            Some(m) => m.add_sample(sample),
            None => self.rendezvous(rx, sender, start, false),
        }
    }

    /// A network-wide clock-sample exchange at `now`: every live station
    /// samples every live station it tracks.
    pub(crate) fn resync(&mut self, now: Time, alive: &[bool]) {
        let clocks = &self.clocks;
        for (s, st) in self.stations.iter_mut().enumerate() {
            if !alive[s] {
                continue;
            }
            let mine = clocks[s].reading(now);
            for (&nb, model) in st.models.iter_mut().filter(|(&nb, _)| alive[nb]) {
                let theirs = clocks[nb].reading(now);
                model.add_sample(ClockSample { mine, theirs });
            }
        }
    }

    /// An instantaneous discontinuity of `ticks` in `s`'s clock. The
    /// station notices its own jump: its schedule moves with its clock, so
    /// it cancels its plans (the caller re-plans), and it shifts the
    /// "mine" axis of every clock model it holds.
    pub(crate) fn clock_jump(&mut self, s: StationId, ticks: i64, now: Time) {
        self.clocks[s].offset = self.clocks[s].offset.wrapping_add_signed(ticks);
        self.cancel_plans(s, now);
        for m in self.stations[s].models.values_mut() {
            m.rebase_mine(ticks);
        }
    }

    /// `s` powers down: it forgets its plans, the transmission on the air
    /// and any armed retry, and returns every packet it held in a queue
    /// or a plan.
    pub(crate) fn power_down(&mut self, s: StationId, now: Time) -> Vec<Packet> {
        let mut lost = self.take_queued(s, now);
        let st = &mut self.stations[s];
        let plans = std::mem::take(&mut st.pending_tx).into_values();
        lost.extend(plans.map(|(_, packet)| packet));
        st.busy_until = Time::ZERO;
        st.retry_pending = false;
        lost
    }

    /// `s` powers back up at `now` with a fresh clock drawn from `rng`,
    /// and the rejoin handshake runs both ways among the `alive` stations:
    /// `s` restarts its models of everything it tracks, and every station
    /// tracking `s` restarts its model of `s` (the old one predicts a
    /// schedule that no longer exists). Returns those trackers: each must
    /// cancel the plans it computed with the old model and re-plan.
    pub(crate) fn power_up(
        &mut self,
        s: StationId,
        now: Time,
        alive: &[bool],
        rng: &mut Rng,
    ) -> Vec<StationId> {
        self.clocks[s] = StationClock::random(rng, self.clock.max_ppm);
        let models = self.stations[s].models.keys();
        let tracked: Vec<StationId> = models.copied().filter(|&nb| alive[nb]).collect();
        for nb in tracked {
            self.rendezvous(s, nb, now, true);
        }
        let trackers: Vec<StationId> = (0..self.stations.len())
            .filter(|&o| o != s && alive[o] && self.stations[o].models.get(&s).is_some())
            .collect();
        for &o in &trackers {
            self.rendezvous(o, s, now, true);
        }
        trackers
    }

    /// Cancel every outstanding plan at `o` and put the packets back at
    /// the ends of their next hops' queues; the transmission on the air
    /// stays. The caller re-runs the MAC with refreshed clock state; a
    /// cancelled plan's start finds nothing in [`start_tx`](Mac::start_tx).
    pub(crate) fn cancel_plans(&mut self, o: StationId, now: Time) {
        for (_, (nh, packet)) in std::mem::take(&mut self.stations[o].pending_tx) {
            self.enqueue(o, nh, packet, now);
        }
    }

    /// An armed retry of `s` fires; the caller re-plans.
    pub(crate) fn retry_fired(&mut self, s: StationId) {
        self.stations[s].retry_pending = false;
    }

    /// `s`'s plan that starts at `now` goes on the air: returns its next
    /// hop and packet, or `None` when the plan was cancelled.
    pub(crate) fn start_tx(&mut self, s: StationId, now: Time) -> Option<(StationId, Packet)> {
        let st = &mut self.stations[s];
        let plan = st.pending_tx.remove(&now)?;
        st.busy_until = now + self.packing.packet_len();
        Some(plan)
    }

    /// Whether `s`'s actual schedule has it listening at both ends of
    /// `[start, end)`.
    pub(crate) fn listens(&self, s: StationId, start: Time, end: Time) -> bool {
        let sched = StationSchedule::new(self.packing.params, self.clocks[s]);
        sched.kind_at(start) == SlotKind::Receive
            && sched.kind_at(end - Duration(1)) == SlotKind::Receive
    }

    /// One step of planning `s`'s transmissions at `now` (§7 MAC): commit
    /// one packet to an admissible quarter-slot start, unless the station
    /// already holds its outstanding-plan limit or has nothing queued.
    ///
    /// The plan is the earliest `(start, next hop)` within the horizon of
    /// `mac_horizon_slots` slots. The search runs over look-ahead spans
    /// that grow from `LOOKAHEAD_FIRST_SLOTS` by `LOOKAHEAD_GROWTH` up to
    /// the horizon, so its cost follows the distance to the first
    /// usable window, not the horizon. A shorter span's result is kept
    /// only when the packet ends at least `guard + slot` before the span
    /// does: a §7.3 protected window that begins past the span reaches
    /// back into it by `guard` once expanded, and clock inversion can move
    /// a window edge by a tick. A kept result is therefore exactly the
    /// full-horizon result. When nothing fits within the horizon and
    /// nothing is planned, a retry is armed at the horizon.
    pub(crate) fn try_schedule_one(&mut self, s: StationId, now: Time) -> Step {
        let st = &self.stations[s];
        if st.pending_tx.len() >= self.max_plans || st.queued() == 0 {
            return Step::Idle;
        }
        // The transmitter is committed for the rest of the transmission on
        // the air and for every plan. Own transmit windows are clipped to
        // `[now, end)`, so nothing that ended earlier can cut them.
        let airtime = self.packing.packet_len();
        self.cuts.clear();
        let on_air = (st.busy_until > now).then(|| Window::new(now, st.busy_until));
        self.cuts.extend(on_air);
        let plans = st.pending_tx.keys().map(|&t| Window::new(t, t + airtime));
        self.cuts.extend(plans);

        let slot = self.packing.params.slot;
        let horizon = now + slot * self.horizon_slots;
        let margin = airtime + self.clock.guard + slot;
        let mut span = LOOKAHEAD_FIRST_SLOTS;
        let best = loop {
            if span >= self.horizon_slots {
                break self.earliest_plan(s, now, horizon, &self.cuts);
            }
            let end = now + slot * span;
            match self.earliest_plan(s, now, end, &self.cuts) {
                Some((start, nh)) if start + margin <= end => break Some((start, nh)),
                _ => span = span.saturating_mul(LOOKAHEAD_GROWTH),
            }
        };
        debug_assert_eq!(
            best,
            self.earliest_plan(s, now, horizon, &self.cuts),
            "station {s} at {now:?}: look-ahead plan differs from the full-horizon plan"
        );
        let Some((start, nh)) = best else {
            let st = &mut self.stations[s];
            if st.pending_tx.is_empty() && !st.retry_pending {
                st.retry_pending = true;
                return Step::Retry(horizon);
            }
            return Step::Idle;
        };
        debug_assert!(
            self.cuts
                .iter()
                .all(|c| c.end <= start || start + airtime <= c.start),
            "station {s}: plan at {start:?} overlaps a commitment"
        );
        let st = &mut self.stations[s];
        let packet = st.dequeue(nh).expect("queue emptied unexpectedly");
        let id = packet.id;
        st.pending_tx.insert(start, (nh, packet));
        self.track_queue(now, -1.0);
        Step::Planned(start, nh, id)
    }

    /// The earliest `(start, next hop)` at which `s` can send the head of
    /// one of its non-empty queues, over windows in `[now, end)` (§7 MAC:
    /// own transmit window ∩ the next hop's predicted receive window,
    /// minus the `cuts` it is committed for and §7.3 protected windows).
    /// Changes no state.
    fn earliest_plan(
        &self,
        s: StationId,
        now: Time,
        end: Time,
        cuts: &[Window],
    ) -> Option<(Time, StationId)> {
        let qs = self.packing;
        let params = qs.params;
        let guard = self.clock.guard;
        let my_clock = self.clocks[s];

        // My own transmit windows, minus existing commitments, shaved by
        // a transmitter-turnaround epsilon: window boundaries are computed
        // through the clock inverse (±1 tick of rounding), and a 1-tick
        // overhang into the station's own receive slot is enough to kill
        // an incoming reception (Type 3) under the hold-for-the-whole-
        // packet criterion. Real radios need TX/RX turnaround time anyway.
        let my_tx: Vec<Window> = StationSchedule::new(params, my_clock)
            .windows(now, end, SlotKind::Transmit)
            .into_iter()
            .map(|w| w.shrunk(Duration(2)))
            .filter(|w| !w.is_empty())
            .collect();
        let my_free = subtract_lists(&my_tx, cuts);

        // Pre-compute §7.3 cut lists lazily per candidate power level: the
        // protected windows only depend on the neighbour being protected,
        // so gather their expanded predicted receive windows once. (With
        // protection off the protected set is empty.)
        let st = &self.stations[s];
        let mut protected_rx: Vec<(StationId, f64, Vec<Window>)> = Vec::new();
        for &pn in &st.protected {
            let gain_to_pn = self.gains.gain(pn, s).value();
            if let Some(model) = st.models.get(&pn) {
                let pred = PredictedSchedule {
                    params,
                    my_clock,
                    model,
                    guard: Duration::ZERO,
                };
                let ws: Vec<Window> = pred
                    .windows(now, end, SlotKind::Receive)
                    .into_iter()
                    .map(|w| w.expanded(guard))
                    .collect();
                protected_rx.push((pn, gain_to_pn, ws));
            }
        }

        let mut best: Option<(Time, StationId)> = None;
        for &nh in st.queues.keys() {
            let Some(model) = st.models.get(&nh) else {
                continue;
            };
            let pred = PredictedSchedule {
                params,
                my_clock,
                model,
                guard,
            };
            let their_rx = pred.windows(now, end, SlotKind::Receive);
            let mut usable = intersect_lists(&my_free, &their_rx);
            if let Some(significant) = self.significant.filter(|_| !usable.is_empty()) {
                let p_tx = self.tx_power(s, nh).value();
                for (pn, gain_to_pn, ws) in &protected_rx {
                    if *pn == nh {
                        continue;
                    }
                    if p_tx * gain_to_pn >= significant {
                        usable = subtract_lists(&usable, ws);
                    }
                }
            }
            let found = qs.first_admissible(
                &usable,
                now,
                |t| my_clock.reading(t),
                |local| my_clock.time_of_reading(local),
            );
            if let Some(start) = found {
                if best.map(|(b, _)| start < b).unwrap_or(true) {
                    best = Some((start, nh));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::faults::FaultPlan;
    use crate::network::Network;
    use parn_phys::propagation::FreeSpace;
    use parn_phys::{GainMatrix, Point};

    fn pkt(id: u64) -> Packet {
        Packet::new(id, 0, 5, Time::ZERO)
    }

    #[test]
    fn enqueue_and_count() {
        let (mut mac, _) = line(&[0.0, 1.0, 2.0], 1);
        assert_eq!(mac.stations[0].queued(), 0);
        mac.enqueue(0, 1, pkt(1), Time(5));
        mac.enqueue(0, 1, pkt(2), Time(6));
        mac.enqueue(0, 2, pkt(3), Time(7));
        assert_eq!(mac.stations[0].queued(), 3);
        let q1 = mac.stations[0]
            .queues
            .get(&1)
            .expect("queue for next hop 1");
        assert_eq!(q1.len(), 2);
        assert_eq!(q1[0].enqueued, Time(5));
        assert_eq!(mac.queue_depth.max(), 3.0);
    }

    #[test]
    fn dequeue_is_fifo_and_drops_drained_queues() {
        let (mut mac, _) = line(&[0.0, 1.0, 2.0], 1);
        mac.enqueue(0, 1, pkt(1), Time(5));
        mac.enqueue(0, 2, pkt(2), Time(6));
        mac.enqueue(0, 1, pkt(3), Time(7));
        let s = &mut mac.stations[0];
        assert_eq!(s.dequeue(1).map(|p| p.id), Some(1));
        assert_eq!(s.dequeue(2).map(|p| p.id), Some(2));
        assert_eq!(s.queues.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.dequeue(1).map(|p| p.id), Some(3));
        assert!(s.dequeue(1).is_none());
        assert_eq!(s.queued(), 0);
        assert_eq!(s.queues.capacity(), 0);
    }

    /// The MAC of stations at `xs` metres along a line, with drift-free
    /// random clocks, every station alive.
    fn line(xs: &[f64], seed: u64) -> (Mac, Vec<bool>) {
        let positions: Vec<Point> = xs.iter().map(|&x| Point::new(x, 0.0)).collect();
        let gains = Arc::new(GainMatrix::build_shared(
            &positions,
            Arc::new(FreeSpace::unit()),
        ));
        let mut cfg = NetConfig::paper_default(xs.len(), seed);
        cfg.clock.max_ppm = 0.0;
        let mac = Mac::new(
            &cfg,
            gains,
            &mut Rng::new(seed),
            &mut Metrics::new(xs.len()),
        );
        (mac, vec![true; xs.len()])
    }

    /// Plan at `s` until it stops: the plans' starts and next hops.
    fn plan_all(mac: &mut Mac, s: StationId, now: Time) -> Vec<(Time, StationId)> {
        let mut plans = Vec::new();
        while let Step::Planned(start, next_hop, _) = mac.try_schedule_one(s, now) {
            plans.push((start, next_hop));
        }
        plans
    }

    fn overlaps(a: Time, b: Time, airtime: Duration) -> bool {
        a < b + airtime && b < a + airtime
    }

    #[test]
    fn plans_overlap_neither_each_other_nor_the_transmission_on_the_air() {
        let starts = |plans: Vec<(Time, StationId)>| plans.iter().map(|p| p.0).collect::<Vec<_>>();
        let disjoint = |plans: &[Time], air: Duration| {
            for (i, &a) in plans.iter().enumerate() {
                for &b in &plans[i + 1..] {
                    assert!(!overlaps(a, b, air), "plans at {a:?} and {b:?} overlap");
                }
            }
        };
        for seed in 1..=12 {
            let (mut mac, alive) = line(&[0.0, 10.0], seed);
            let air = mac.packing.packet_len();
            mac.set_routing_view(0, vec![1], &[], &alive, Time::ZERO);
            for id in 0..6 {
                mac.enqueue(0, 1, pkt(id), Time::ZERO);
            }
            let plans = starts(plan_all(&mut mac, 0, Time::ZERO));
            assert_eq!(plans.len(), 6, "every packet planned");
            disjoint(&plans, air);
            // Cancelling frees the plans' windows: the same packets plan
            // into the same starts again.
            mac.cancel_plans(0, Time::ZERO);
            assert_eq!(mac.stations[0].queued(), 6);
            assert_eq!(starts(plan_all(&mut mac, 0, Time::ZERO)), plans);
            // The first plan goes on the air and the clock jumps, which
            // cancels the other plans but not that transmission. Quarter
            // points are one air time apart, so only a jump off the old
            // quarter grid lets a new plan reach into the air time.
            let first = plans[0];
            assert!(mac.start_tx(0, first).is_some());
            let jump = air.ticks() / 3 * (1 + seed % 2);
            mac.clock_jump(0, jump as i64, first);
            let replanned = starts(plan_all(&mut mac, 0, first));
            assert_eq!(replanned.len(), 5, "seed {seed}");
            disjoint(&replanned, air);
            for t in replanned {
                assert!(
                    t >= first + air,
                    "seed {seed}: plan at {t:?} inside the on-air window"
                );
            }
        }
    }

    #[test]
    fn a_plan_starts_on_a_quarter_point_inside_both_windows() {
        for seed in 1..6 {
            let (mut mac, alive) = line(&[0.0, 9.0, 21.0, 30.0], seed);
            let now = Time::ZERO + Duration::from_millis(7 * seed);
            mac.set_routing_view(1, vec![0, 2, 3], &[], &alive, now);
            for id in 0..8 {
                mac.enqueue(1, [0, 2, 3][id as usize % 3], pkt(id), now);
            }
            let (params, air) = (mac.packing.params, mac.packing.packet_len());
            let horizon = now + params.slot * mac.horizon_slots;
            let quarter = air.ticks();
            let clock = mac.clocks[1];
            let mine = StationSchedule::new(params, clock);
            for (start, nh) in plan_all(&mut mac, 1, now) {
                let end = start + air;
                let rem = clock.reading(start) % quarter;
                assert!(
                    rem <= 1 || rem >= quarter - 1,
                    "{start:?} off a quarter point"
                );
                let tx = mine.windows(now, horizon, SlotKind::Transmit);
                assert!(tx.iter().any(|w| w.fits(start, air)), "{start:?}");
                let pred = PredictedSchedule {
                    params,
                    my_clock: clock,
                    model: mac.stations[1].models.get(&nh).expect("model of next hop"),
                    guard: mac.clock.guard,
                };
                let rx = pred.windows(now, horizon, SlotKind::Receive);
                assert!(rx.iter().any(|w| w.fits(start, air)), "{start:?}");
                // Drift-free clocks predict exactly: the next hop listens.
                assert!(mac.listens(nh, start, end));
            }
        }
    }

    #[test]
    fn a_power_down_returns_every_packet_and_leaves_nothing_behind() {
        let (mut mac, alive) = line(&[0.0, 10.0, 20.0], 5);
        mac.max_plans = 2;
        mac.set_routing_view(0, vec![1, 2], &[], &alive, Time::ZERO);
        for id in 0..5 {
            mac.enqueue(0, 1 + (id as usize % 2), pkt(id), Time::ZERO);
        }
        let plans = plan_all(&mut mac, 0, Time::ZERO);
        assert_eq!(plans.len(), 2);
        let (first, _) = plans[0];
        let (_, on_air) = mac.start_tx(0, first).expect("the first plan");
        assert_eq!(plan_all(&mut mac, 0, first).len(), 1);
        let mut lost: Vec<u64> = mac.power_down(0, first).iter().map(|p| p.id).collect();
        lost.push(on_air.id);
        lost.sort();
        assert_eq!(lost, vec![0, 1, 2, 3, 4]);
        let st = &mac.stations[0];
        assert_eq!((st.queued(), st.queues.capacity()), (0, 0));
        assert_eq!((st.pending_tx.len(), st.pending_tx.capacity()), (0, 0));
        assert!(
            st.busy_until <= first,
            "the on-air window outlived the power-down"
        );
        assert!(!st.retry_pending);
        assert_eq!(mac.queue_depth.max(), 5.0);
    }

    #[test]
    fn the_protected_set_leaves_out_the_station_itself_and_dark_stations() {
        // Station 0 routes to station 3, 10 m away, at 100× the delivered
        // power, so §7.3 protects stations within about 3 m of it: 1 and 2.
        let (mut mac, mut alive) = line(&[0.0, 1.0, 2.0, 10.0], 7);
        mac.set_routing_view(0, vec![3], &[], &alive, Time::ZERO);
        assert_eq!(mac.stations[0].protected, vec![1, 2]);
        assert_eq!(
            mac.stations[0].models.keys().copied().collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        alive[2] = false;
        mac.set_routing_view(0, vec![3], &[], &alive, Time::ZERO);
        assert_eq!(mac.stations[0].protected, vec![1]);
        // Recomputed in full, not filtered from the last set: a returning
        // station is protected again.
        alive[2] = true;
        mac.set_routing_view(0, vec![3], &[], &alive, Time::ZERO);
        assert_eq!(mac.stations[0].protected, vec![1, 2]);
        // A link it may advertise over raises the worst case; nothing but
        // routing neighbours and links does.
        mac.set_routing_view(0, vec![1], &[(3, 0.0)], &alive, Time::ZERO);
        assert_eq!(mac.stations[0].protected, vec![1, 2]);
        assert_eq!(mac.worst_case_power(0), mac.tx_power(0, 1).value());
    }

    #[test]
    fn drained_stations_hold_no_queue_or_plan_storage() {
        // A relay outage drops the packets its neighbours queued for it
        // and makes them plan around it, so queues and plans fill and
        // drain through a power-down and a power-up as well as in steady
        // traffic.
        let mut cfg = NetConfig::paper_default(40, 19);
        cfg.run_for = Duration::from_secs(8);
        cfg.warmup = Duration::from_secs(1);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let relay = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_secs(3), relay, Duration::from_secs(2));
        let end = Time::ZERO + cfg.run_for;
        let mut net = Network::new(cfg);
        let mut q = parn_sim::EventQueue::new();
        net.prime(&mut q);
        let mut planned = vec![false; net.len()];
        let mut drained = 0usize;
        let mut t = Time::ZERO;
        while t < end {
            t += Duration::from_millis(50);
            parn_sim::run(&mut net, &mut q, t);
            for (s, st) in net.mac().stations.iter().enumerate() {
                assert!(
                    st.queues.values().all(|queue| !queue.is_empty()),
                    "station {s} keeps a drained queue at {t:?}"
                );
                planned[s] |= !st.pending_tx.is_empty();
                if st.queued() == 0 && st.pending_tx.is_empty() {
                    assert_eq!(st.queues.capacity(), 0, "station {s} queue storage");
                    assert_eq!(st.pending_tx.capacity(), 0, "station {s} plan storage");
                    drained += usize::from(planned[s]);
                }
            }
        }
        assert!(drained > 0, "no station ever drained after planning");
    }
}
