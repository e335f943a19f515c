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

use parn_core::packet::LossCause;
use parn_core::power::PowerPolicy;
use parn_core::{classify, Metrics, NetConfig, Packet, World};
use parn_phys::sinr::{ReceptionReport, RxId, SinrTracker, TxId};
use parn_phys::{GainModel, PowerW, StationId};
use parn_sim::json::{obj, Json};
use parn_sim::{Duration, EventQueue, Model, Rng, Time};
use std::collections::VecDeque;
use std::sync::Arc;

/// Air time of a MACA RTS or CTS frame.
const CTRL_AIRTIME: Duration = Duration(250);
/// Receiver turnaround between MACA dialogue phases.
const TURNAROUND: Duration = Duration(100);
/// Slack MACA adds to every NAV and timeout it derives from air times.
const GUARD: Duration = Duration(200);
/// Mean of the exponential backoff after a deferral or a failed attempt.
const MEAN_BACKOFF: Duration = Duration(20_000);

/// Which baseline MAC to run.
#[derive(Clone, Debug)]
pub enum MacKind {
    /// Transmit the moment a packet is ready (classic ALOHA).
    PureAloha,
    /// Transmit at the next global slot boundary, one slot per packet air
    /// time (slotted ALOHA — note this baseline *assumes* the
    /// network-wide synchronization the paper argues is impractical at
    /// scale).
    SlottedAloha,
    /// Carrier sense: defer while total sensed power exceeds a threshold,
    /// then transmit.
    Csma {
        /// Sensed-power level above which the channel is "busy".
        sense_threshold: PowerW,
    },
    /// MACA-style RTS/CTS handshake with NAV deferral on overheard
    /// control packets.
    Maca,
}

impl MacKind {
    /// Provenance serialization: the kind and its parameters.
    fn to_json(&self) -> Json {
        match self {
            MacKind::PureAloha => obj([("kind", "pure_aloha".into())]),
            MacKind::SlottedAloha => obj([("kind", "slotted_aloha".into())]),
            MacKind::Csma { sense_threshold } => obj([
                ("kind", "csma".into()),
                ("sense_threshold_w", sense_threshold.value().into()),
            ]),
            MacKind::Maca => obj([("kind", "maca".into())]),
        }
    }
}

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

/// One baseline run: the physical world of a [`NetConfig`] under the
/// channel access [`MacKind`] selects.
///
/// It reads from the config the seed, placement, criterion, the power and
/// noise fields (`delivered_power`, `fixed_power`, `max_power`,
/// `thermal_noise`, `external_din`), `self_gain`, `despreaders`,
/// `reach_factor`, shadowing, the PHY backend, `threads`, the packet air
/// time, the arrival rate, `max_retries`, `run_for` and `warmup`. Its
/// traffic is Poisson at that rate, each packet addressed to a random
/// in-range neighbour (single hop, the regime where every MAC is
/// comparable). Routing, schedules, faults, healing, mobility, churn and
/// `traffic.dest`/`source` belong to the scheme alone.
pub struct Baseline {
    cfg: NetConfig,
    mac: MacKind,
    /// SIC depth of every receiver (provenance; the tracker applies it).
    sic_depth: usize,
    gains: Arc<dyn GainModel>,
    tracker: SinrTracker,
    /// In-range neighbours of each station.
    neighbors: Vec<Vec<StationId>>,
    /// Reception SINR threshold.
    threshold: f64,
    power: PowerPolicy,
    airtime: Duration,
    /// Traffic randomness: arrivals, destinations and backoff.
    rng: Rng,
    metrics: Metrics,
    warm_at: Time,
    end: Time,
    stations: Vec<Station>,
    /// Despreaders busy at each station.
    rx_in_use: Vec<usize>,
    next_id: u64,
    next_seq: u64,
}

impl Baseline {
    /// Build the world of `cfg` under `mac`. Deterministic in `cfg.seed`.
    pub fn new(cfg: NetConfig, mac: MacKind) -> Baseline {
        let world = World::new(&cfg);
        let n = world.positions.len();
        let neighbors = (0..n)
            .map(|s| world.gains.hearable_by(s, world.usable_gain))
            .collect();
        let tracker = world.tracker(&cfg);
        let mut metrics = Metrics::new(n);
        metrics.measured_span = cfg.run_for.saturating_sub(cfg.warmup);
        Baseline {
            threshold: cfg.sinr_threshold(),
            power: cfg.power_policy(),
            airtime: cfg.packet_airtime(),
            rng: Rng::new(cfg.seed).substream("traffic"),
            warm_at: Time::ZERO + cfg.warmup,
            end: Time::ZERO + cfg.run_for,
            cfg,
            mac,
            sic_depth: 0,
            gains: world.gains,
            tracker,
            neighbors,
            metrics,
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

    /// Give every receiver successive interference cancellation of up to
    /// `depth` interferers (§3.4 footnote 2; ablation A6).
    pub fn with_sic(mut self, depth: usize) -> Baseline {
        self.tracker = self.tracker.with_sic(depth);
        self.sic_depth = depth;
        self
    }

    /// The run's provenance for `BENCH_*.json` lines:
    /// [`NetConfig::to_json`] with a `baseline` block naming the MAC, its
    /// parameters and the SIC depth.
    pub fn to_json(&self) -> Json {
        let mut config = self.cfg.to_json();
        if let Json::Obj(entries) = &mut config {
            let block = obj([
                ("mac", self.mac.to_json()),
                ("sic_depth", self.sic_depth.into()),
            ]);
            entries.push(("baseline".into(), block));
        }
        config
    }

    /// Run to completion and return the metrics.
    pub fn run(mut self) -> Metrics {
        let mut queue = EventQueue::new();
        self.prime(&mut queue);
        let end = self.end;
        parn_sim::run(&mut self, &mut queue, end);
        self.finish()
    }

    /// Seed initial arrivals.
    fn prime(&mut self, queue: &mut EventQueue<Event>) {
        for s in 0..self.stations.len() {
            if !self.neighbors[s].is_empty() && self.cfg.traffic.arrivals_per_station_per_sec > 0.0
            {
                let dt = self.next_interarrival();
                queue.schedule(Time::ZERO + dt, Event::Arrival { station: s });
            }
        }
    }

    fn finish(mut self) -> Metrics {
        let settled = self.metrics.delivered + self.metrics.total_drops();
        self.metrics.in_flight_at_end = self.metrics.generated.saturating_sub(settled);
        self.metrics
    }

    /// Whether a time falls in the measured region.
    fn measured(&self, t: Time) -> bool {
        t >= self.warm_at
    }

    /// Exponential interarrival for the configured rate.
    fn next_interarrival(&mut self) -> Duration {
        let mean = 1.0 / self.cfg.traffic.arrivals_per_station_per_sec;
        Duration::from_secs_f64(self.rng.exp(mean))
    }

    /// Exponential random backoff.
    fn backoff(&mut self) -> Duration {
        Duration::from_secs_f64(self.rng.exp(MEAN_BACKOFF.as_secs_f64()))
    }

    /// Random in-range neighbour of `s`, if any.
    fn random_neighbor(&mut self, s: StationId) -> Option<StationId> {
        if self.neighbors[s].is_empty() {
            None
        } else {
            Some(*self.rng.choose(&self.neighbors[s]))
        }
    }

    /// Transmit power toward a neighbour under the configured policy.
    fn tx_power(&self, s: StationId, nh: StationId) -> PowerW {
        self.power.tx_power(self.gains.gain(nh, s))
    }

    /// Queue a `Ready` for `s` at `at` — under slotted ALOHA at the next
    /// global slot boundary at or after `at` — unless one is pending.
    fn schedule_ready(&mut self, s: StationId, at: Time, queue: &mut EventQueue<Event>) {
        let at = match self.mac {
            MacKind::SlottedAloha => {
                let phase = at % self.airtime;
                if phase.is_zero() {
                    at
                } else {
                    at + (self.airtime - phase)
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
        if self.rx_in_use[h] >= self.cfg.despreaders {
            return None;
        }
        self.rx_in_use[h] += 1;
        Some(self.tracker.begin_reception(h, tx, self.threshold))
    }

    /// Finish a reception at `h` and free its despreader.
    fn complete_reception(&mut self, h: StationId, rx: RxId) -> ReceptionReport {
        self.rx_in_use[h] -= 1;
        self.tracker.complete_reception(rx)
    }

    fn on_arrival(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let dt = self.next_interarrival();
        let next = now + dt;
        if next <= self.end {
            queue.schedule(next, Event::Arrival { station: s });
        }
        let Some(nh) = self.random_neighbor(s) else {
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        let packet = Packet::new(id, s, nh, now);
        if self.measured(now) {
            self.metrics.generated += 1;
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
        let defer_until = match self.mac {
            MacKind::Csma { sense_threshold } if self.tracker.sensed_power(s) > sense_threshold => {
                Some(now + self.backoff())
            }
            MacKind::Maca if now < self.stations[s].nav_until => Some(self.stations[s].nav_until),
            _ => None,
        };
        if let Some(at) = defer_until {
            self.schedule_ready(s, at, queue);
            return;
        }
        let (nh, packet, attempts) = self.stations[s].queue.pop_front().expect("queue");
        match self.mac {
            MacKind::Maca => self.send_rts(s, nh, packet, attempts, now, queue),
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
        let p_tx = self.tx_power(s, nh);
        let tx = self.tracker.start_transmission(s, p_tx, Some(nh));
        self.stations[s].transmitting = true;
        // A MACA receiver ignores frames while its own transmitter is on;
        // the ALOHA and CSMA receivers try and lose to self-interference.
        let deaf = matches!(self.mac, MacKind::Maca) && self.stations[nh].transmitting;
        let rx = if deaf {
            None
        } else {
            self.begin_reception(nh, tx)
        };
        if self.measured(now) {
            let airtime = self.airtime;
            self.metrics.tx_airtime[s] += airtime.as_secs_f64();
            let wait = now.since(packet.enqueued).ticks() as f64 / airtime.ticks() as f64;
            self.metrics.hop_wait_slots.add(wait.min(99.0));
        }
        queue.schedule(
            now + self.airtime,
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
        self.tracker.end_transmission(tx);
        self.stations[s].transmitting = false;
        self.stations[s].handshake = None;
        let measured = self.measured(packet.created);
        if measured {
            self.metrics.hop_attempts += 1;
        }
        let success = report.as_ref().map(|r| r.success).unwrap_or(false);
        if success {
            if measured {
                self.metrics.hop_successes += 1;
                self.metrics.delivered += 1;
                self.metrics.e2e_delay.add(packet.age(now).as_secs_f64());
                self.metrics.hops_per_packet.add(1.0);
                self.metrics.bits_delivered += self.cfg.packet_bits();
            }
        } else {
            if measured {
                let cause = match &report {
                    Some(rep) => classify(rep).1,
                    None => LossCause::DespreaderExhausted,
                };
                self.metrics.record_loss(cause);
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
        let measured = self.measured(packet.created);
        if attempts <= self.cfg.max_retries {
            if measured {
                self.metrics.retransmissions += 1;
            }
            self.stations[s].queue.push_front((nh, packet, attempts));
            let at = now + self.backoff();
            self.schedule_ready(s, at, queue);
        } else if measured {
            self.metrics.record_drop(LossCause::RetriesExhausted);
        }
    }

    /// Start receptions of a control frame at every idle in-range station
    /// (the addressee included).
    fn open_receptions(&mut self, from: StationId, tx: TxId) -> Vec<(StationId, RxId)> {
        let mut rxs = Vec::new();
        for i in 0..self.neighbors[from].len() {
            let h = self.neighbors[from][i];
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
        let tx = self.start_ctrl(s, nh, now);
        let rxs = self.open_receptions(s, tx);
        queue.schedule(
            now + CTRL_AIRTIME,
            Event::CtrlEnd {
                kind: CtrlKind::Rts,
                from: s,
                to: nh,
                tx,
                rxs,
                seq,
            },
        );
        let cts_timeout = TURNAROUND + CTRL_AIRTIME + TURNAROUND + GUARD;
        queue.schedule(
            now + CTRL_AIRTIME + cts_timeout,
            Event::CtsTimeout { station: s, seq },
        );
    }

    /// Put a control frame from `s` to `to` on the air.
    fn start_ctrl(&mut self, s: StationId, to: StationId, now: Time) -> TxId {
        let p_tx = self.tx_power(s, to);
        let tx = self.tracker.start_transmission(s, p_tx, Some(to));
        self.stations[s].transmitting = true;
        if self.measured(now) {
            self.metrics.tx_airtime[s] += CTRL_AIRTIME.as_secs_f64();
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
                if !rep.success && self.measured(now) {
                    self.metrics.record_loss(classify(&rep).1);
                }
            } else if rep.success {
                overheard_ok.push(h);
            }
        }
        self.tracker.end_transmission(tx);
        // Overhearers defer through the dialogue's next phase: the CTS
        // after an RTS, the data frame after a CTS.
        let next_phase = match kind {
            CtrlKind::Rts => CTRL_AIRTIME,
            CtrlKind::Cts => self.airtime,
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
            now + CTRL_AIRTIME,
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
    use parn_core::{Network, PhyBackend};

    fn csma(sense: f64) -> MacKind {
        MacKind::Csma {
            sense_threshold: PowerW(sense),
        }
    }

    fn cfg(rate: f64, seed: u64) -> NetConfig {
        let mut c = NetConfig::paper_default(30, seed);
        c.traffic.arrivals_per_station_per_sec = rate;
        c.run_for = Duration::from_secs(8);
        c.warmup = Duration::from_secs(1);
        c
    }

    fn run(mac: MacKind, rate: f64, seed: u64) -> Metrics {
        Baseline::new(cfg(rate, seed), mac).run()
    }

    #[test]
    fn matched_scenario_builds() {
        let b = Baseline::new(NetConfig::paper_default(30, 5), MacKind::PureAloha);
        assert_eq!(b.neighbors.len(), 30);
        // Dense enough that most stations have neighbours.
        let with_nb = b.neighbors.iter().filter(|v| !v.is_empty()).count();
        assert!(with_nb > 25, "only {with_nb} stations have neighbours");
        assert!(b.threshold > 0.0 && b.threshold < 1.0);
    }

    #[test]
    fn power_matches_policy() {
        let b = Baseline::new(NetConfig::paper_default(10, 6), MacKind::PureAloha);
        // Find a pair of neighbours and confirm delivered power is target.
        let s = (0..10).find(|&s| !b.neighbors[s].is_empty()).unwrap();
        let nh = b.neighbors[s][0];
        let delivered = b.gains.gain(nh, s).apply(b.tx_power(s, nh));
        assert!((delivered.value() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn measured_gate() {
        let b = Baseline::new(NetConfig::paper_default(5, 1), MacKind::PureAloha);
        assert!(!b.measured(Time::from_secs(1)));
        assert!(b.measured(Time::from_secs(3)));
    }

    #[test]
    fn grid_backend_matches_dense_exactly() {
        // The spatial index without far-field aggregation must be
        // bit-identical to the dense matrix — same neighbours, same
        // sensed power, same outcomes. CSMA exercises the carrier-sense
        // path (`sensed_power`) hardest.
        let mut cfg = NetConfig::paper_default(30, 9);
        cfg.run_for = Duration::from_secs(6);
        cfg.warmup = Duration::from_secs(1);
        let mut grid_cfg = cfg.clone();
        grid_cfg.phy_backend = PhyBackend::Grid { far_field: None };
        let dense = Baseline::new(cfg, csma(1e-9)).run();
        let grid = Baseline::new(grid_cfg, csma(1e-9)).run();
        assert_eq!(dense.generated, grid.generated);
        assert_eq!(dense.delivered, grid.delivered);
        assert_eq!(dense.total_losses(), grid.total_losses());
        assert_eq!(dense.collision_losses(), grid.collision_losses());
    }

    #[test]
    fn scheme_and_every_baseline_see_one_world() {
        // The comparison is honest only if every MAC, the scheme's
        // included, sees the same world: the same gain between every
        // pair, neighbours at the same usable gain, the same threshold.
        for phy_backend in [PhyBackend::Dense, PhyBackend::Grid { far_field: None }] {
            let mut c = NetConfig::paper_default(40, 11);
            c.phy_backend = phy_backend;
            let net = Network::new(c.clone());
            let usable = World::new(&c).usable_gain;
            let n = net.len();
            for mac in [
                MacKind::PureAloha,
                MacKind::SlottedAloha,
                csma(1e-8),
                MacKind::Maca,
            ] {
                let b = Baseline::new(c.clone(), mac);
                assert_eq!(b.neighbors.len(), n);
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(b.gains.gain(i, j), net.gains().gain(i, j));
                    }
                    assert_eq!(b.neighbors[i], net.gains().hearable_by(i, usable));
                }
                assert_eq!(b.threshold, c.sinr_threshold());
            }
        }
    }

    #[test]
    fn deterministic() {
        for mac in [
            MacKind::PureAloha,
            MacKind::SlottedAloha,
            csma(1e-9),
            MacKind::Maca,
        ] {
            let a = run(mac.clone(), 5.0, 9);
            let b = run(mac.clone(), 5.0, 9);
            assert_eq!(a.to_json().to_string(), b.to_json().to_string(), "{mac:?}");
        }
    }

    #[test]
    fn slotted_transmissions_start_on_slot_boundaries() {
        // Drive the model event by event: first attempts and retries alike
        // must go on the air exactly at a global slot boundary, one packet
        // air time (2.5 ms) apart.
        let slot = Duration::from_micros(2500);
        let mut sim = Baseline::new(cfg(30.0, 3), MacKind::SlottedAloha);
        let mut queue = EventQueue::new();
        sim.prime(&mut queue);
        let (mut first, mut retries) = (0, 0);
        while let Some((now, event)) = queue.pop() {
            if now > sim.end {
                break;
            }
            if let Event::TxEnd { attempts, .. } = event {
                let start = now - sim.airtime;
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
        let slotted = run(MacKind::SlottedAloha, 30.0, 3);
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
        let m = run(MacKind::Maca, 0.5, 1);
        assert!(m.delivered > 10, "no dialogues completed");
        assert!(m.delivery_rate() > 0.8, "{}", m.summary());
    }

    #[test]
    fn maca_heavy_load_times_out_handshakes() {
        // A failed data frame is retried at most once; every retry beyond
        // those is a dialogue whose CTS never came back.
        let m = run(MacKind::Maca, 40.0, 2);
        assert!(
            m.retransmissions > m.hop_attempts - m.hop_successes,
            "expected RTS/CTS failures under load: {}",
            m.summary()
        );
    }

    #[test]
    fn maca_control_overhead_consumes_airtime() {
        // Every delivered packet cost at least RTS+CTS+DATA of air time.
        let m = run(MacKind::Maca, 1.0, 3);
        let data_air = m.delivered as f64 * 2500e-6;
        let total_air: f64 = m.tx_airtime.iter().sum();
        assert!(
            total_air > data_air * 1.15,
            "air {total_air} vs data-only {data_air}"
        );
    }
}
