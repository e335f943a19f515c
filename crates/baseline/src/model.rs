//! The baseline event model: pure ALOHA, slotted ALOHA, CSMA and MACA.
//!
//! Every MAC shares one station model — a FIFO of (next hop, packet,
//! attempts) with exponential retry backoff and bounded retransmission —
//! and one accounting path for data frames. Only the channel-access
//! decision branches on [`MacKind`]:
//!
//! * **pure ALOHA** transmits the moment a packet is ready, the random
//!   access scheme the paper's §2 starts from;
//! * **slotted ALOHA** waits for the next global slot boundary, which
//!   quietly assumes the system-wide synchronization §7 is designed to
//!   avoid;
//! * **CSMA** measures the total received power
//!   ([`SinrTracker::sensed_power`](parn_phys::sinr::SinrTracker::sensed_power))
//!   and backs off while it exceeds a threshold. This shows both classic
//!   failure modes under physical interference: *hidden terminals* (the
//!   interferer is inaudible at the sender but loud at the receiver) and
//!   *exposed terminals* (deferring to a transmission that would not have
//!   harmed the receiver);
//! * **MACA** (the MACA–MACAW–FAMA line, §2, refs \[9]/\[4]/\[7]/\[6])
//!   replaces carrier sense with a control dialogue: a short
//!   Request-To-Send, a Clear-To-Send from the receiver, then data.
//!   Overhearers defer (set a NAV) for the expected remainder of the
//!   dialogue. RTS frames themselves collide, CTS frames can be lost to
//!   interference, and the per-packet control exchanges consume air time
//!   the Shepard scheme never spends ("no per-packet transmissions other
//!   than the single transmission used to convey the packet").
//!
//! All of them run under the same SINR physics as the scheme: a
//! "collision" is not a modelled abstraction but an actual SINR dip below
//! threshold.

use crate::common::{MacKind, Scenario};
use parn_core::packet::LossCause;
use parn_core::{classify, Metrics, Packet};
use parn_phys::sinr::{ReceptionReport, RxId, TxId};
use parn_phys::StationId;
use parn_sim::{Duration, EventQueue, Model, Time};
use std::collections::VecDeque;

/// Receiver turnaround between MACA dialogue phases.
const TURNAROUND: Duration = Duration(100);
/// Slack MACA adds to every NAV and timeout it derives from air times.
const GUARD: Duration = Duration(200);

/// Which MACA control frame a `CtrlEnd` closes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtrlKind {
    /// Request to send.
    Rts,
    /// Clear to send.
    Cts,
}

/// Events of the baseline model. The last four occur only under MACA.
#[derive(Debug)]
pub enum Event {
    /// New traffic at a station.
    Arrival {
        /// Source station.
        station: StationId,
    },
    /// A station should (re)attempt channel access for its queue head.
    Ready {
        /// The station.
        station: StationId,
    },
    /// A data frame finishes.
    TxEnd {
        /// Sender.
        station: StationId,
        /// PHY transmission handle.
        tx: TxId,
        /// PHY reception handle at the addressed neighbour.
        rx: Option<RxId>,
        /// Addressed neighbour.
        next_hop: StationId,
        /// The packet.
        packet: Packet,
        /// Attempts so far (including this one).
        attempts: u32,
    },
    /// A control frame finishes.
    CtrlEnd {
        /// RTS or CTS.
        kind: CtrlKind,
        /// Transmitter of the control frame.
        from: StationId,
        /// Addressed station.
        to: StationId,
        /// PHY handle.
        tx: TxId,
        /// Receptions in progress at the addressed station and overhearers.
        rxs: Vec<(StationId, RxId)>,
        /// Handshake sequence this control frame belongs to.
        seq: u64,
    },
    /// The receiver answers an RTS.
    SendCts {
        /// The receiver (CTS transmitter).
        station: StationId,
        /// The handshake initiator.
        to: StationId,
        /// Handshake sequence.
        seq: u64,
    },
    /// The initiator starts the data transmission.
    DataStart {
        /// The initiator.
        station: StationId,
        /// Handshake sequence.
        seq: u64,
    },
    /// CTS never arrived.
    CtsTimeout {
        /// The initiator.
        station: StationId,
        /// Handshake sequence.
        seq: u64,
    },
}

/// A MACA dialogue in progress at its initiator.
#[derive(Debug)]
struct Handshake {
    nh: StationId,
    packet: Packet,
    attempts: u32,
    seq: u64,
    cts_received: bool,
    data_started: bool,
}

struct Station {
    /// Waiting packets as (next hop, packet, attempts so far).
    queue: VecDeque<(StationId, Packet, u32)>,
    transmitting: bool,
    ready_pending: bool,
    /// MACA: no dialogue may start before this time.
    nav_until: Time,
    /// MACA: the dialogue this station initiated, if any.
    handshake: Option<Handshake>,
}

/// The baseline simulator; the scenario's [`MacKind`] selects the
/// channel-access rule.
pub struct Baseline {
    sc: Scenario,
    stations: Vec<Station>,
    /// Despreaders busy at each station.
    rx_in_use: Vec<usize>,
    next_id: u64,
    next_seq: u64,
}

impl Baseline {
    /// Run a scenario to completion under its configured MAC.
    pub fn run(sc: Scenario) -> Metrics {
        let mut sim = Baseline::new(sc);
        let mut queue = EventQueue::new();
        sim.prime(&mut queue);
        let end = sim.sc.end;
        parn_sim::run(&mut sim, &mut queue, end);
        sim.finish()
    }

    fn new(sc: Scenario) -> Baseline {
        let n = sc.neighbors.len();
        Baseline {
            sc,
            stations: (0..n)
                .map(|_| Station {
                    queue: VecDeque::new(),
                    transmitting: false,
                    ready_pending: false,
                    nav_until: Time::ZERO,
                    handshake: None,
                })
                .collect(),
            rx_in_use: vec![0; n],
            next_id: 0,
            next_seq: 0,
        }
    }

    /// Seed initial arrivals.
    fn prime(&mut self, queue: &mut EventQueue<Event>) {
        for s in 0..self.stations.len() {
            if !self.sc.neighbors[s].is_empty() && self.sc.cfg.arrivals_per_station_per_sec > 0.0 {
                let dt = self.sc.next_interarrival();
                queue.schedule(Time::ZERO + dt, Event::Arrival { station: s });
            }
        }
    }

    fn finish(mut self) -> Metrics {
        let settled = self.sc.metrics.delivered + self.sc.metrics.total_drops();
        self.sc.metrics.in_flight_at_end = self.sc.metrics.generated.saturating_sub(settled);
        self.sc.metrics
    }

    /// MACA's control-frame air time.
    fn ctrl_airtime(&self) -> Duration {
        match self.sc.cfg.mac {
            MacKind::Maca { ctrl_airtime } => ctrl_airtime,
            ref other => unreachable!("control frame under {other:?}"),
        }
    }

    /// Queue a `Ready` for `s` at `at` — under slotted ALOHA at the next
    /// global slot boundary at or after `at` — unless one is pending.
    fn schedule_ready(&mut self, s: StationId, at: Time, queue: &mut EventQueue<Event>) {
        let at = match self.sc.cfg.mac {
            MacKind::SlottedAloha { slot } => {
                let phase = at % slot;
                if phase.is_zero() {
                    at
                } else {
                    at + (slot - phase)
                }
            }
            _ => at,
        };
        if !self.stations[s].ready_pending {
            self.stations[s].ready_pending = true;
            queue.schedule(at, Event::Ready { station: s });
        }
    }

    /// Claim a despreader at `h` and start receiving `tx`, if one is free.
    fn begin_reception(&mut self, h: StationId, tx: TxId) -> Option<RxId> {
        if self.rx_in_use[h] >= self.sc.cfg.despreaders {
            return None;
        }
        self.rx_in_use[h] += 1;
        Some(self.sc.tracker.begin_reception(h, tx, self.sc.threshold))
    }

    /// Finish a reception at `h` and free its despreader.
    fn complete_reception(&mut self, h: StationId, rx: RxId) -> ReceptionReport {
        self.rx_in_use[h] -= 1;
        self.sc.tracker.complete_reception(rx)
    }

    fn on_arrival(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let dt = self.sc.next_interarrival();
        let next = now + dt;
        if next <= self.sc.end {
            queue.schedule(next, Event::Arrival { station: s });
        }
        let Some(nh) = self.sc.random_neighbor(s) else {
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        let packet = Packet::new(id, s, nh, now);
        if self.sc.measured(now) {
            self.sc.metrics.generated += 1;
        }
        self.stations[s].queue.push_back((nh, packet, 0));
        self.schedule_ready(s, now, queue);
    }

    /// The channel-access decision for the queue head of `s`.
    fn on_ready(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let st = &mut self.stations[s];
        st.ready_pending = false;
        if st.transmitting || st.handshake.is_some() || st.queue.is_empty() {
            return;
        }
        let defer_until = match self.sc.cfg.mac {
            MacKind::Csma { sense_threshold }
                if self.sc.tracker.sensed_power(s) > sense_threshold =>
            {
                Some(now + self.sc.backoff())
            }
            MacKind::Maca { .. } if now < self.stations[s].nav_until => {
                Some(self.stations[s].nav_until)
            }
            _ => None,
        };
        if let Some(at) = defer_until {
            self.schedule_ready(s, at, queue);
            return;
        }
        let (nh, packet, attempts) = self.stations[s].queue.pop_front().expect("queue");
        match self.sc.cfg.mac {
            MacKind::Maca { .. } => self.send_rts(s, nh, packet, attempts, now, queue),
            _ => self.start_data(s, nh, packet, attempts, now, queue),
        }
    }

    /// Put a data frame on the air toward `nh`.
    fn start_data(
        &mut self,
        s: StationId,
        nh: StationId,
        packet: Packet,
        attempts: u32,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let p_tx = self.sc.tx_power(s, nh);
        let tx = self.sc.tracker.start_transmission(s, p_tx, Some(nh));
        self.stations[s].transmitting = true;
        // A MACA receiver ignores frames while its own transmitter is on;
        // the ALOHA and CSMA receivers try and lose to self-interference.
        let deaf =
            matches!(self.sc.cfg.mac, MacKind::Maca { .. }) && self.stations[nh].transmitting;
        let rx = if deaf {
            None
        } else {
            self.begin_reception(nh, tx)
        };
        if self.sc.measured(now) {
            let airtime = self.sc.cfg.airtime;
            self.sc.metrics.tx_airtime[s] += airtime.as_secs_f64();
            let wait = now.since(packet.enqueued).ticks() as f64 / airtime.ticks() as f64;
            self.sc.metrics.hop_wait_slots.add(wait.min(99.0));
        }
        queue.schedule(
            now + self.sc.cfg.airtime,
            Event::TxEnd {
                station: s,
                tx,
                rx,
                next_hop: nh,
                packet,
                attempts: attempts + 1,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_tx_end(
        &mut self,
        s: StationId,
        tx: TxId,
        rx: Option<RxId>,
        nh: StationId,
        packet: Packet,
        attempts: u32,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let report = rx.map(|r| self.complete_reception(nh, r));
        self.sc.tracker.end_transmission(tx);
        self.stations[s].transmitting = false;
        self.stations[s].handshake = None;
        let measured = self.sc.measured(packet.created);
        if measured {
            self.sc.metrics.hop_attempts += 1;
        }
        let success = report.as_ref().map(|r| r.success).unwrap_or(false);
        if success {
            if measured {
                self.sc.metrics.hop_successes += 1;
                self.sc.metrics.delivered += 1;
                self.sc.metrics.e2e_delay.add(packet.age(now).as_secs_f64());
                self.sc.metrics.hops_per_packet.add(1.0);
                self.sc.metrics.bits_delivered +=
                    self.sc.cfg.criterion.rate_bps * self.sc.cfg.airtime.as_secs_f64();
            }
        } else {
            if measured {
                let cause = match &report {
                    Some(rep) => classify(rep).1,
                    None => LossCause::DespreaderExhausted,
                };
                self.sc.metrics.record_loss(cause);
            }
            self.requeue_or_drop(s, nh, packet, attempts, now, queue);
        }
        if !self.stations[s].queue.is_empty() {
            self.schedule_ready(s, now, queue);
        }
    }

    /// Back off and retry a failed packet, or drop it once its retries
    /// are spent.
    fn requeue_or_drop(
        &mut self,
        s: StationId,
        nh: StationId,
        packet: Packet,
        attempts: u32,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let measured = self.sc.measured(packet.created);
        if attempts <= self.sc.cfg.max_retries {
            if measured {
                self.sc.metrics.retransmissions += 1;
            }
            self.stations[s].queue.push_front((nh, packet, attempts));
            let at = now + self.sc.backoff();
            self.schedule_ready(s, at, queue);
        } else if measured {
            self.sc.metrics.record_drop(LossCause::RetriesExhausted);
        }
    }

    /// Start receptions of a control frame at every idle in-range station
    /// (the addressee included).
    fn open_receptions(&mut self, from: StationId, tx: TxId) -> Vec<(StationId, RxId)> {
        let mut rxs = Vec::new();
        for i in 0..self.sc.neighbors[from].len() {
            let h = self.sc.neighbors[from][i];
            if self.stations[h].transmitting {
                continue; // its own transmitter deafens it anyway
            }
            if let Some(rx) = self.begin_reception(h, tx) {
                rxs.push((h, rx));
            }
        }
        rxs
    }

    /// MACA: open a dialogue for the queue head with an RTS.
    fn send_rts(
        &mut self,
        s: StationId,
        nh: StationId,
        packet: Packet,
        attempts: u32,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stations[s].handshake = Some(Handshake {
            nh,
            packet,
            attempts,
            seq,
            cts_received: false,
            data_started: false,
        });
        let ctrl = self.ctrl_airtime();
        let tx = self.start_ctrl(s, nh, now);
        let rxs = self.open_receptions(s, tx);
        queue.schedule(
            now + ctrl,
            Event::CtrlEnd {
                kind: CtrlKind::Rts,
                from: s,
                to: nh,
                tx,
                rxs,
                seq,
            },
        );
        let cts_timeout = TURNAROUND + ctrl + TURNAROUND + GUARD;
        queue.schedule(
            now + ctrl + cts_timeout,
            Event::CtsTimeout { station: s, seq },
        );
    }

    /// Put a control frame from `s` to `to` on the air.
    fn start_ctrl(&mut self, s: StationId, to: StationId, now: Time) -> TxId {
        let p_tx = self.sc.tx_power(s, to);
        let tx = self.sc.tracker.start_transmission(s, p_tx, Some(to));
        self.stations[s].transmitting = true;
        if self.sc.measured(now) {
            self.sc.metrics.tx_airtime[s] += self.ctrl_airtime().as_secs_f64();
        }
        tx
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ctrl_end(
        &mut self,
        kind: CtrlKind,
        from: StationId,
        to: StationId,
        tx: TxId,
        rxs: Vec<(StationId, RxId)>,
        seq: u64,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        self.stations[from].transmitting = false;
        let mut addressed_ok = false;
        let mut overheard_ok = Vec::new();
        for (h, rx) in rxs {
            let rep = self.complete_reception(h, rx);
            if h == to {
                addressed_ok = rep.success;
                if !rep.success && self.sc.measured(now) {
                    self.sc.metrics.record_loss(classify(&rep).1);
                }
            } else if rep.success {
                overheard_ok.push(h);
            }
        }
        self.sc.tracker.end_transmission(tx);
        // Overhearers defer through the dialogue's next phase: the CTS
        // after an RTS, the data frame after a CTS.
        let next_phase = match kind {
            CtrlKind::Rts => self.ctrl_airtime(),
            CtrlKind::Cts => self.sc.cfg.airtime,
        };
        let nav = now + TURNAROUND + next_phase + GUARD;
        for h in overheard_ok {
            let st = &mut self.stations[h];
            st.nav_until = st.nav_until.max(nav);
        }
        match kind {
            CtrlKind::Rts => {
                if addressed_ok && !self.stations[to].transmitting {
                    queue.schedule(
                        now + TURNAROUND,
                        Event::SendCts {
                            station: to,
                            to: from,
                            seq,
                        },
                    );
                }
            }
            CtrlKind::Cts => {
                // The CTS sender holds off initiating until the data is in.
                let st = &mut self.stations[from];
                st.nav_until = st.nav_until.max(nav);
                let waiting = self.stations[to]
                    .handshake
                    .as_mut()
                    .filter(|h| addressed_ok && h.seq == seq);
                if let Some(h) = waiting {
                    h.cts_received = true;
                    queue.schedule(now + TURNAROUND, Event::DataStart { station: to, seq });
                }
            }
        }
    }

    fn on_send_cts(
        &mut self,
        s: StationId,
        to: StationId,
        seq: u64,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if self.stations[s].transmitting {
            return; // busy; initiator will time out
        }
        let tx = self.start_ctrl(s, to, now);
        let rxs = self.open_receptions(s, tx);
        queue.schedule(
            now + self.ctrl_airtime(),
            Event::CtrlEnd {
                kind: CtrlKind::Cts,
                from: s,
                to,
                tx,
                rxs,
                seq,
            },
        );
    }

    fn on_data_start(&mut self, s: StationId, seq: u64, now: Time, queue: &mut EventQueue<Event>) {
        let Some(hs) = self.stations[s].handshake.as_mut() else {
            return;
        };
        if hs.seq != seq || !hs.cts_received || hs.data_started {
            return;
        }
        hs.data_started = true;
        let (nh, packet, attempts) = (hs.nh, hs.packet.clone(), hs.attempts);
        self.start_data(s, nh, packet, attempts, now, queue);
    }

    fn on_cts_timeout(&mut self, s: StationId, seq: u64, now: Time, queue: &mut EventQueue<Event>) {
        let timed_out = self.stations[s]
            .handshake
            .as_ref()
            .is_some_and(|h| h.seq == seq && !h.cts_received);
        if !timed_out {
            return;
        }
        let hs = self.stations[s].handshake.take().expect("handshake");
        self.requeue_or_drop(s, hs.nh, hs.packet, hs.attempts + 1, now, queue);
        if !self.stations[s].queue.is_empty() {
            self.schedule_ready(s, now, queue);
        }
    }
}

impl Model for Baseline {
    type Event = Event;
    fn handle(&mut self, now: Time, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::Arrival { station } => self.on_arrival(station, now, queue),
            Event::Ready { station } => self.on_ready(station, now, queue),
            Event::TxEnd {
                station,
                tx,
                rx,
                next_hop,
                packet,
                attempts,
            } => self.on_tx_end(station, tx, rx, next_hop, packet, attempts, now, queue),
            Event::CtrlEnd {
                kind,
                from,
                to,
                tx,
                rxs,
                seq,
            } => self.on_ctrl_end(kind, from, to, tx, rxs, seq, now, queue),
            Event::SendCts { station, to, seq } => self.on_send_cts(station, to, seq, now, queue),
            Event::DataStart { station, seq } => self.on_data_start(station, seq, now, queue),
            Event::CtsTimeout { station, seq } => self.on_cts_timeout(station, seq, now, queue),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::BaselineConfig;
    use parn_phys::PowerW;

    fn slotted() -> MacKind {
        MacKind::SlottedAloha {
            slot: Duration::from_micros(2500),
        }
    }

    fn csma(sense: f64) -> MacKind {
        MacKind::Csma {
            sense_threshold: PowerW(sense),
        }
    }

    fn maca() -> MacKind {
        MacKind::Maca {
            ctrl_airtime: Duration::from_micros(250),
        }
    }

    fn cfg(mac: MacKind, rate: f64, seed: u64) -> BaselineConfig {
        let mut c = BaselineConfig::matched(30, seed, mac);
        c.arrivals_per_station_per_sec = rate;
        c.run_for = Duration::from_secs(8);
        c.warmup = Duration::from_secs(1);
        c
    }

    fn run(mac: MacKind, rate: f64, seed: u64) -> Metrics {
        Baseline::run(Scenario::new(cfg(mac, rate, seed)))
    }

    #[test]
    fn deterministic() {
        for mac in [MacKind::PureAloha, slotted(), csma(1e-9), maca()] {
            let a = run(mac.clone(), 5.0, 9);
            let b = run(mac.clone(), 5.0, 9);
            assert_eq!(a.to_json().to_string(), b.to_json().to_string(), "{mac:?}");
        }
    }

    #[test]
    fn slotted_transmissions_start_on_slot_boundaries() {
        // Drive the model event by event: first attempts and retries alike
        // must go on the air exactly at a global slot boundary.
        let slot = Duration::from_micros(2500);
        let mut sim = Baseline::new(Scenario::new(cfg(slotted(), 30.0, 3)));
        let mut queue = EventQueue::new();
        sim.prime(&mut queue);
        let (mut first, mut retries) = (0, 0);
        while let Some((now, event)) = queue.pop() {
            if now > sim.sc.end {
                break;
            }
            if let Event::TxEnd { attempts, .. } = event {
                let start = now - sim.sc.cfg.airtime;
                assert!(
                    (start % slot).is_zero(),
                    "attempt {attempts} started off the slot grid at {start}"
                );
                if attempts == 1 {
                    first += 1;
                } else {
                    retries += 1;
                }
            }
            sim.handle(now, event, &mut queue);
        }
        assert!(
            first > 0 && retries > 0,
            "{first} first attempts, {retries} retries"
        );
    }

    #[test]
    fn aloha_light_load_mostly_delivers() {
        let m = run(MacKind::PureAloha, 0.5, 1);
        assert!(m.generated > 20);
        assert!(m.delivery_rate() > 0.8, "{}", m.summary());
    }

    #[test]
    fn aloha_heavy_load_collides() {
        // Push pure ALOHA well past its ~18% capacity: collisions appear.
        let m = run(MacKind::PureAloha, 40.0, 2);
        assert!(
            m.collision_losses() > 0,
            "expected collisions: {}",
            m.summary()
        );
    }

    #[test]
    fn slotted_beats_pure_at_equal_load() {
        let pure = run(MacKind::PureAloha, 30.0, 3);
        let slotted = run(slotted(), 30.0, 3);
        // The classic 2× capacity edge shows up as a better hop success
        // rate under stress.
        assert!(
            slotted.hop_success_rate() > pure.hop_success_rate(),
            "slotted {} vs pure {}",
            slotted.hop_success_rate(),
            pure.hop_success_rate()
        );
    }

    #[test]
    fn csma_light_load_delivers() {
        let m = run(csma(1e-9), 0.5, 1);
        assert!(m.generated > 20);
        assert!(m.delivery_rate() > 0.85, "{}", m.summary());
    }

    #[test]
    fn csma_sensing_defers_under_load() {
        // A threshold no sensed power reaches never defers; a cautious one
        // holds packets back while neighbours are on the air.
        let eager = run(csma(1e3), 30.0, 2);
        let cautious = run(csma(1e-10), 30.0, 2);
        assert!(
            cautious.hop_wait_slots.mean() > eager.hop_wait_slots.mean(),
            "no deferral wait at heavy load"
        );
        assert!(cautious.hop_attempts < eager.hop_attempts);
    }

    #[test]
    fn csma_hidden_terminals_still_collide() {
        // With a *lenient* sense threshold the sender rarely defers and
        // concurrent neighbours can still destroy receptions.
        let m = run(csma(1e-3), 40.0, 3);
        assert!(
            m.collision_losses() > 0,
            "expected hidden-terminal collisions: {}",
            m.summary()
        );
    }

    #[test]
    fn maca_light_load_delivers_via_handshake() {
        // MACA sends data only after a completed RTS/CTS dialogue.
        let m = run(maca(), 0.5, 1);
        assert!(m.delivered > 10, "no dialogues completed");
        assert!(m.delivery_rate() > 0.8, "{}", m.summary());
    }

    #[test]
    fn maca_heavy_load_times_out_handshakes() {
        // A failed data frame is retried at most once; every retry beyond
        // those is a dialogue whose CTS never came back.
        let m = run(maca(), 40.0, 2);
        assert!(
            m.retransmissions > m.hop_attempts - m.hop_successes,
            "expected RTS/CTS failures under load: {}",
            m.summary()
        );
    }

    #[test]
    fn maca_control_overhead_consumes_airtime() {
        // Every delivered packet cost at least RTS+CTS+DATA of air time.
        let m = run(maca(), 1.0, 3);
        let data_air = m.delivered as f64 * 2500e-6;
        let total_air: f64 = m.tx_airtime.iter().sum();
        assert!(
            total_air > data_air * 1.15,
            "air {total_air} vs data-only {data_air}"
        );
    }
}
