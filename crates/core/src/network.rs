//! The full network simulator: Shepard's channel access scheme end to end.
//!
//! Wires together placement → gain matrix → minimum-energy routes →
//! per-station pseudo-random schedules → the MAC (§7: transmit to a
//! neighbour only where my transmit window overlaps its predicted receive
//! window, quarter-slot aligned, respecting close neighbours' receive
//! windows per §7.3) → the physical SINR reception test (§3.4), with
//! Poisson traffic forwarded hop-by-hop. The MAC and the per-station state
//! it plans from live in the crate-private `mac` module; this one runs the
//! event loop and reception and ties the subsystems together.
//!
//! The headline property this reproduces: **no packet is ever lost to a
//! collision** — every loss cause is accounted, and under the scheme the
//! collision counters stay at zero.

use crate::adversary::Adversary;
use crate::collision::classify;
use crate::config::{NetConfig, PhyBackend, SyncMode};
use crate::faults::{FaultKind, FaultPlan};
use crate::heal::{Heal, HopVerdict};
use crate::mac::{Mac, Step};
use crate::metrics::{Metrics, WarmupGate};
use crate::mobility::{ChurnKind, Motion};
use crate::packet::{ControlPayload, LossCause, Packet, PacketKind};
use crate::routing::{Probe, Relink, Routing};
use crate::traffic::Traffic;
use parn_phys::placement::density;
use parn_phys::propagation::{FreeSpace, Propagation, Shadowed};
use parn_phys::sinr::{RxId, SinrTracker, TxId};
use parn_phys::{GainMatrix, GainModel, GridGainModel, Point, StationId};
use parn_route::RouteTable;
use parn_sim::{Duration, EventQueue, Model, Rng, Time};
use std::sync::Arc;

/// Simulator events.
#[derive(Debug)]
pub enum Event {
    /// Poisson traffic arrival at a station.
    NextArrival {
        /// The source station.
        station: StationId,
    },
    /// Re-attempt MAC scheduling (nothing fit within the search horizon).
    MacRetry {
        /// The station to retry.
        station: StationId,
    },
    /// A planned transmission goes on air.
    TxStart {
        /// The transmitting station.
        station: StationId,
    },
    /// A transmission (and its reception attempt) completes.
    TxEnd {
        /// The transmitting station.
        station: StationId,
        /// What went on the air. A station that reboots can transmit
        /// again before this fires, so each transmission owns its own.
        on_air: Box<OnAir>,
    },
    /// Periodic network-wide clock-sample exchange between neighbours.
    Resync,
    /// A station emits hello beacons to its routing neighbours
    /// (piggyback synchronization mode).
    HelloRound {
        /// The beaconing station.
        station: StationId,
    },
    /// Injection point of one scheduled fault from the run's
    /// [`FaultPlan`] (crash, crash-recover onset, clock jump, or jammer
    /// switch-on).
    Fault {
        /// Index into [`NetConfig::faults`]`.events`.
        index: usize,
    },
    /// A timed fault ends: a crashed station reboots, a jam or Byzantine
    /// window closes, or a partition's shadowing cut lifts.
    FaultEnd {
        /// Index into [`NetConfig::faults`]`.events`.
        index: usize,
    },
    /// One step of a Byzantine schedule violator's rogue cadence: `on`
    /// starts an out-of-window burst, `!on` ends it and schedules the
    /// next one.
    ByzStep {
        /// Index into [`NetConfig::faults`]`.events` of the Byzantine
        /// fault.
        index: usize,
        /// Whether this step starts (true) or ends (false) a burst.
        on: bool,
    },
    /// A reactive-jam burst ends (the adversary's transmitter goes
    /// quiet until it senses the next reception).
    RJamOff {
        /// The burst's PHY transmission handle.
        tx: TxId,
    },
    /// A backed-off retransmission becomes eligible again
    /// ([`HealMode::Local`](crate::faults::HealMode::Local)).
    RetryRelease {
        /// The station holding the packet.
        station: StationId,
        /// The packet awaiting retransmission.
        packet: Box<Packet>,
        /// The holder's boot epoch when the backoff began.
        epoch: u64,
    },
    /// Oracle-mode routing repair after a failure or recovery
    /// ([`HealMode::Oracle`](crate::faults::HealMode::Oracle) with
    /// table-based routing). Never scheduled under distributed routing,
    /// where reconvergence emerges from the per-station distance-vector
    /// exchange instead.
    Reroute,
    /// A station advertises its distance vector to its direct link
    /// neighbours (distributed routing): periodic rounds keep the
    /// exchange alive, triggered rounds propagate table changes.
    RouteUpdateRound {
        /// The advertising station.
        station: StationId,
        /// Whether this is a periodic round (reschedules itself) or a
        /// triggered one-shot.
        periodic: bool,
    },
    /// Quiescence probe for the distributed exchange: if no station's
    /// table changed for a full quiet window, the open convergence
    /// episode closes.
    ConvergenceCheck,
    /// A motion epoch: every alive station advances along the configured
    /// mobility model and is relocated in the PHY (dynamic topology).
    MotionEpoch,
    /// Injection point of one scheduled churn event from the run's
    /// [`crate::mobility::ChurnPlan`] — a clean departure or a
    /// re-admission at a new position.
    ChurnStep {
        /// Index into [`NetConfig::churn`]`.events`.
        index: usize,
    },
    /// A timed-outage departure ends: the station powers back up at the
    /// position it left from.
    ChurnReturn {
        /// The returning station.
        station: StationId,
    },
}

/// One transmission in flight: what its [`Event::TxEnd`] needs, behind
/// one pointer so that the pending events, one per station and more,
/// stay small (an [`Event`] is 32 B).
#[derive(Debug)]
pub struct OnAir {
    /// PHY transmission handle.
    tx: TxId,
    /// PHY reception handle, if the receiver had a despreader free.
    rx: Option<RxId>,
    /// The packet carried.
    packet: Packet,
    /// The addressed neighbour.
    next_hop: StationId,
    /// Sender's boot epoch at transmission start (a reboot in flight
    /// invalidates the sender's claim to the packet).
    tx_epoch: u64,
    /// Receiver's boot epoch at transmission start (a reboot in flight
    /// invalidates the reception).
    rx_epoch: u64,
}

/// How a dark station comes back ([`Network::power_up`]).
#[derive(Clone, Copy)]
enum PowerUp {
    /// A crashed station reboots where it was.
    Reboot,
    /// A timed-outage departure ends at the position it left from.
    Return,
    /// A departed station is readmitted at a new position.
    Join(Point),
}

/// The assembled simulation.
pub struct Network {
    cfg: NetConfig,
    gains: Arc<dyn GainModel>,
    tracker: SinrTracker,
    /// The shared table, or each station's own under distributed routing.
    routing: Routing,
    /// Clocks, clock models, queues, plans and routing views (§7).
    mac: Mac,
    /// Despreading channels occupied by in-flight receptions, per station.
    active_rx: Vec<usize>,
    threshold: f64,
    airtime: Duration,
    warm: WarmupGate,
    /// When packets arrive and whom they address.
    traffic: Traffic,
    next_packet_id: u64,
    /// Station motion (`None` without a mobility model). Positions live
    /// in the gain backend, which every relocation writes.
    motion: Option<Motion>,
    end: Time,
    /// Liveness per station (failure injection).
    alive: Vec<bool>,
    /// Results.
    pub metrics: Metrics,
    /// Fault-machinery RNG (reboot clocks, retry-backoff jitter).
    rng_faults: Rng,
    /// The attacks of the fault plan that are on.
    adversary: Adversary,
    /// Neighbour liveness, evictions and the outage marks.
    heal: Heal,
    /// Per-station reboot counter; in-flight PHY activity is judged
    /// against the epoch captured at transmission start.
    boot_epoch: Vec<u64>,
    /// Whether a `NextArrival` chain is live per station (recovery
    /// restarts a chain only if the old one has died out).
    arrivals_live: Vec<bool>,
    tracer: parn_sim::trace::Tracer,
    on_air: parn_sim::stats::TimeWeighted,
}

impl Network {
    /// Build a network from a configuration. Deterministic in `cfg.seed`.
    pub fn new(cfg: NetConfig) -> Network {
        parn_sim::time_scope!("core.build");
        let root = Rng::new(cfg.seed);
        let mut rng_place = root.substream("placement");
        let rng_faults = root.substream("faults");

        let positions = cfg.placement.generate(&mut rng_place);
        let n = positions.len();
        assert!(n >= 2, "need at least two stations");
        let shadow = (cfg.shadowing_sigma_db > 0.0).then(|| Shadowed {
            inner: FreeSpace::unit(),
            sigma_db: cfg.shadowing_sigma_db,
            seed: cfg.seed ^ 0x5AAD_0E5D,
        });
        let gains: Arc<dyn GainModel> = match &cfg.phy_backend {
            // `build_shared` keeps the propagation model alive so dense
            // backends can recompute rows on relocation; the table it
            // builds is bit-identical to `build`'s.
            PhyBackend::Dense => match shadow {
                Some(model) => Arc::new(GainMatrix::build_shared(&positions, Arc::new(model))),
                None => Arc::new(GainMatrix::build_shared(
                    &positions,
                    Arc::new(FreeSpace::unit()),
                )),
            },
            PhyBackend::Grid { .. } => {
                let model: Box<dyn Propagation + Send + Sync> = match shadow {
                    Some(model) => Box::new(model),
                    None => Box::new(FreeSpace::unit()),
                };
                Arc::new(GridGainModel::new(&positions, model))
            }
        };
        let (adversary, gains) = Adversary::new(&cfg.faults, gains);

        // Usable-hop threshold from the reach factor (§6: ~2/√ρ).
        let region = cfg.placement.region();
        let rho = density(&positions, &region);
        let reach = cfg.reach_factor / rho.sqrt();
        let usable_gain = parn_phys::Gain(1.0 / (reach * reach));
        let routing = Routing::new(&cfg, Arc::clone(&gains), usable_gain);
        let mut tracker = SinrTracker::new(
            Arc::clone(&gains),
            cfg.thermal_noise + cfg.external_din,
            cfg.self_gain,
        );
        if let PhyBackend::Grid {
            far_field: Some(ff),
        } = &cfg.phy_backend
        {
            tracker = tracker.with_far_field(ff.near_radius_factor * reach, ff.tolerance);
        }
        if cfg.threads > 1 {
            tracker = tracker.with_threads(cfg.threads);
        }

        let threshold = cfg.sinr_threshold();
        let mut metrics = Metrics::new(n);
        metrics.measured_span = cfg.run_for.saturating_sub(cfg.warmup);
        // Stations with random clocks; a station's schedule is the shared
        // slot function reckoned by its clock.
        let mac = Mac::new(
            &cfg,
            Arc::clone(&gains),
            &mut root.substream("clocks"),
            &mut metrics,
        );
        let traffic = Traffic::new(
            &cfg.traffic,
            root.substream("traffic"),
            &positions,
            reach,
            region.radius,
        );
        let motion = cfg
            .mobility
            .map(|mc| Motion::new(mc, root.substream("mobility"), &positions, region.radius));

        let warm = WarmupGate {
            warm_at: Time::ZERO + cfg.warmup,
        };
        let end = Time::ZERO + cfg.run_for;
        let airtime = cfg.packet_airtime();
        let heal = Heal::new(&cfg, n);

        let mut net = Network {
            cfg,
            gains,
            tracker,
            routing,
            mac,
            active_rx: vec![0; n],
            threshold,
            airtime,
            warm,
            traffic,
            next_packet_id: 0,
            motion,
            end,
            alive: vec![true; n],
            metrics,
            rng_faults,
            adversary,
            heal,
            boot_epoch: vec![0; n],
            arrivals_live: vec![false; n],
            tracer: parn_sim::trace::Tracer::disabled(),
            on_air: parn_sim::stats::TimeWeighted::new(Time::ZERO, 0.0),
        };
        // Each station's routing view. Under distributed routing a station
        // exchanges vectors over every usable link, not just its current
        // next hops, so its link neighbours need clock models from boot.
        for s in 0..n {
            for &(nb, _) in net.routing.links(s) {
                net.mac.rendezvous(s, nb, Time::ZERO, false);
            }
            let rn = net.routing.neighbors(s);
            net.mac
                .set_routing_view(s, rn, net.routing.links(s), &net.alive, Time::ZERO);
        }
        net
    }

    /// Attach a tracer: MAC plans, transmissions and reception outcomes
    /// are recorded (categories `"mac"` and `"phy"`).
    pub fn with_tracer(mut self, tracer: parn_sim::trace::Tracer) -> Network {
        self.tracer = tracer;
        self
    }

    /// Access the trace collected so far.
    pub fn tracer(&self) -> &parn_sim::trace::Tracer {
        &self.tracer
    }

    /// The routing table in use. Under distributed routing this is the
    /// cold-start snapshot; the live per-station tables are in
    /// [`Network::dv_table`].
    pub fn routes(&self) -> &RouteTable {
        self.routing.table()
    }

    /// Snapshot the per-station distance-vector tables as one dense
    /// [`RouteTable`] (`None` outside distributed routing) — the
    /// convergence harness compares this against the centralized
    /// optimum after quiescence.
    pub fn dv_table(&self) -> Option<RouteTable> {
        self.routing.dv_table()
    }

    /// The gain model in use.
    pub fn gains(&self) -> &dyn GainModel {
        &*self.gains
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True when the network has no stations (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Seed the event queue with initial arrivals and the resync cadence.
    pub fn prime(&mut self, queue: &mut EventQueue<Event>) {
        let n = self.alive.len();
        for s in 0..n {
            if self.traffic.has_traffic(s, self.mac.routing_neighbors(s)) {
                let dt = self.traffic.next_interarrival(s, Time::ZERO);
                queue.schedule(Time::ZERO + dt, Event::NextArrival { station: s });
                self.arrivals_live[s] = true;
            }
        }
        // Schedule maintenance. Oracle: periodic out-of-band exchanges,
        // with an early first one (the post-boot rendezvous that captures
        // clock rates). None: models keep their single boot sample — used
        // by staleness experiments. Piggyback: per-station hello rounds,
        // staggered to spread the load.
        match self.cfg.clock.sync {
            SyncMode::None => {}
            SyncMode::Oracle => {
                let first = Duration::from_millis(500).min(self.cfg.clock.resync_interval);
                queue.schedule(Time::ZERO + first, Event::Resync);
            }
            SyncMode::Piggyback { hello_interval } => {
                for s in 0..n {
                    let stagger =
                        Duration((s as u64).wrapping_mul(7919) % hello_interval.ticks().max(1));
                    queue.schedule(Time::ZERO + stagger, Event::HelloRound { station: s });
                }
            }
        }
        // Distributed routing: periodic advertisement rounds per station.
        for (s, at) in self.routing.first_rounds() {
            let round = Event::RouteUpdateRound {
                station: s,
                periodic: true,
            };
            queue.schedule(at, round);
        }
        // Translate the fault plan into injection events, the ends of
        // timed faults, and — under oracle healing with table-based
        // routing — the delayed global route repairs after each change
        // to the link set (distributed routing repairs itself).
        if let Err(e) = self.cfg.faults.validate(n) {
            panic!("invalid fault plan: {e}");
        }
        let oracle = !self.heal.active();
        let delay = self.cfg.heal.oracle_delay;
        for (index, ev) in self.cfg.faults.events.iter().enumerate() {
            let at = Time::ZERO + ev.at;
            queue.schedule(at, Event::Fault { index });
            // A reactive jammer has no scheduled end: it goes quiet when
            // its budget runs dry.
            let window = match ev.kind {
                FaultKind::CrashRecover { down_for } => Some(down_for),
                FaultKind::Jam { for_, .. }
                | FaultKind::Partition { for_, .. }
                | FaultKind::Byzantine { for_, .. } => Some(for_),
                FaultKind::Crash | FaultKind::ClockJump { .. } | FaultKind::ReactiveJam { .. } => {
                    None
                }
            };
            if let Some(d) = window {
                queue.schedule(at + d, Event::FaultEnd { index });
            }
            let severs = matches!(
                ev.kind,
                FaultKind::Crash | FaultKind::CrashRecover { .. } | FaultKind::Partition { .. }
            );
            if oracle && severs {
                // The oracle notices the lost links on its usual delay,
                // and again once they come back.
                queue.schedule(at + delay, Event::Reroute);
                if let Some(d) = window {
                    queue.schedule(at + d + delay, Event::Reroute);
                }
            }
        }
        // Dynamic topology. Motion epochs march on a fixed cadence; churn
        // events inject on the plan's schedule, mirroring the fault
        // translation above (timed departures get a return event, oracle
        // healing gets its delayed global repairs).
        if let Some(mc) = &self.cfg.mobility {
            if let Err(e) = mc.validate() {
                panic!("invalid mobility config: {e}");
            }
            queue.schedule(Time::ZERO + mc.epoch, Event::MotionEpoch);
        }
        if let Err(e) = self.cfg.churn.validate(n) {
            panic!("invalid churn plan: {e}");
        }
        for (index, ev) in self.cfg.churn.events.iter().enumerate() {
            let at = Time::ZERO + ev.at;
            queue.schedule(at, Event::ChurnStep { index });
            if oracle {
                queue.schedule(at + delay, Event::Reroute);
            }
            if let ChurnKind::Leave { for_: Some(d) } = ev.kind {
                queue.schedule(
                    at + d,
                    Event::ChurnReturn {
                        station: ev.station,
                    },
                );
                if oracle {
                    queue.schedule(at + d + delay, Event::Reroute);
                }
            }
        }
    }

    /// Run to completion and return metrics.
    pub fn run(cfg: NetConfig) -> Metrics {
        Network::new(cfg).run_built()
    }

    /// Prime, run to completion, and surrender metrics — the tail of
    /// [`Network::run`] for a network built (and possibly probed)
    /// separately, e.g. to pick fault victims from
    /// [`Network::routing_dependent_counts`] before the run.
    pub fn run_built(mut self) -> Metrics {
        let mut queue = EventQueue::new();
        self.prime(&mut queue);
        let end = self.end;
        {
            parn_sim::time_scope!("core.run");
            parn_sim::run(&mut self, &mut queue, end);
        }
        self.finish()
    }

    /// Replace the fault plan after construction (experiment drivers
    /// probe a built network, then inject faults into the same build).
    ///
    /// Partition faults are the one kind that must already appear in the
    /// construction-time plan: the shadowing-cut overlay is wired into
    /// the gain model (and the SINR tracker holding it) at build.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.adversary.check_plan(&plan);
        self.cfg.faults = plan;
    }

    /// Per-station count of distinct *other* stations whose current
    /// routes pass through each station (delegates to the route table) —
    /// a cheap "who is a load-bearing relay" probe.
    pub fn routing_dependent_counts(&self) -> Vec<usize> {
        self.routing.table().routing_dependent_counts()
    }

    /// Finalize accounting and surrender metrics.
    pub fn finish(mut self) -> Metrics {
        let settled = self.metrics.delivered + self.metrics.total_drops();
        self.metrics.in_flight_at_end = self.metrics.generated.saturating_sub(settled);
        self.metrics.mean_concurrent_tx = self.on_air.average(self.end);
        self.mac.finish(self.end, &mut self.metrics);
        self.metrics
    }

    /// Resolve and enqueue `packet` at `at`, or settle it as dropped.
    fn route_or_drop(
        &mut self,
        at: StationId,
        packet: Packet,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        match self.routing.next_hop(at, &packet) {
            Ok(next) => {
                self.mac.enqueue(at, next, packet, now);
                self.try_schedule(at, now, queue);
            }
            Err(cause) => {
                if cause == LossCause::RoutingLoop {
                    self.metrics.routing_loops += 1;
                }
                self.settle_drop(&packet, cause);
            }
        }
    }

    /// Plan the station's next transmissions (§7 MAC) and put them on
    /// the event queue, or arm a retry when nothing fits in the horizon.
    fn try_schedule(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        if !self.alive[s] {
            return;
        }
        loop {
            match self.mac.try_schedule_one(s, now) {
                Step::Planned(start, next_hop, packet) => {
                    queue.schedule(start, Event::TxStart { station: s });
                    let event = parn_sim::trace::TraceEvent::MacPlanned {
                        station: s,
                        packet,
                        next_hop,
                        start,
                    };
                    parn_sim::trace_event!(self.tracer, now, parn_sim::trace::Level::Debug, event);
                }
                Step::Retry(at) => return queue.schedule(at, Event::MacRetry { station: s }),
                Step::Idle => return,
            }
        }
    }

    /// Snapshot a control payload onto `packet` at transmission start —
    /// the same moment a hello samples the sender's clock. A
    /// `RouteUpdate` carries the sender's split-horizon vector for its
    /// addressee; under piggyback sync a hello carries the vector too
    /// (Distributed) and the sender's last-heard gossip (any local
    /// liveness mode), so idle neighbourhoods still exchange evidence.
    fn attach_payload(&mut self, s: StationId, nh: StationId, packet: &mut Packet, now: Time) {
        if packet.kind == PacketKind::Data {
            return;
        }
        let poisoning = self.adversary.poisoning(&self.cfg.faults, s);
        let hello = packet.kind == PacketKind::Hello;
        let payload = ControlPayload {
            route_vector: self.routing.vector(s, nh, poisoning),
            last_heard: hello.then(|| self.heal.gossip(s)).flatten(),
        };
        if payload.route_vector.is_some() {
            if self.warm.measured(now) {
                self.metrics.route_updates_sent += 1;
            }
            parn_sim::counter_inc!("route.updates_sent");
            parn_sim::trace_event!(
                self.tracer,
                now,
                parn_sim::trace::Level::Debug,
                parn_sim::trace::TraceEvent::RouteUpdateSent {
                    station: s,
                    neighbor: nh,
                    packet: packet.id,
                }
            );
        }
        if payload.route_vector.is_some() || payload.last_heard.is_some() {
            packet.payload = Some(Arc::new(payload));
        }
    }

    fn on_tx_start(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let Some((nh, mut packet)) = self.mac.start_tx(s, now) else {
            // The station failed after planning; the plan was cancelled.
            return;
        };
        self.attach_payload(s, nh, &mut packet, now);
        let p_tx = self.mac.tx_power(s, nh);
        let tx = self.tracker.start_transmission(s, p_tx, Some(nh));
        self.on_air.adjust(now, 1.0);

        // Receiver side: occupy a despreading channel if one is free (a
        // failed station's receiver is dark).
        let rx = if self.alive[nh] && self.active_rx[nh] < self.cfg.despreaders {
            self.active_rx[nh] += 1;
            Some(self.tracker.begin_reception(nh, tx, self.threshold))
        } else {
            None
        };
        // Reactive adversaries sense the transmission going on the air.
        let fired = self
            .adversary
            .react(&self.cfg, &*self.gains, s, p_tx, now, &mut self.metrics);
        for anchor in fired {
            let tx = self.tracker.start_jammer(anchor, self.cfg.max_power);
            queue.schedule(now + self.airtime, Event::RJamOff { tx });
            parn_sim::trace_event!(
                self.tracer,
                now,
                parn_sim::trace::Level::Warn,
                parn_sim::trace::TraceEvent::ReactiveJamBurst {
                    station: anchor,
                    target: nh,
                }
            );
        }

        let measured = self.warm.measured(now);
        if measured {
            match packet.kind {
                PacketKind::Hello => self.metrics.hellos_sent += 1,
                PacketKind::RouteUpdate => {}
                PacketKind::Data => {
                    let wait_slots = now.since(packet.enqueued).ticks() as f64
                        / self.cfg.sched.slot.ticks() as f64;
                    self.metrics.hop_wait_slots.add(wait_slots);
                }
            }
            self.metrics.tx_airtime[s] += self.airtime.as_secs_f64();
            // Scheme self-check: the packet should land inside the
            // receiver's *actual* receive windows.
            if !self.mac.listens(nh, now, now + self.airtime) {
                self.metrics.schedule_violations += 1;
            }
        }

        let on_air = OnAir {
            tx,
            rx,
            packet,
            next_hop: nh,
            tx_epoch: self.boot_epoch[s],
            rx_epoch: self.boot_epoch[nh],
        };
        queue.schedule(
            now + self.airtime,
            Event::TxEnd {
                station: s,
                on_air: Box::new(on_air),
            },
        );
        // Pipeline: plan the next packet while this one is on air.
        self.try_schedule(s, now, queue);
    }

    fn on_tx_end(&mut self, s: StationId, on_air: OnAir, now: Time, queue: &mut EventQueue<Event>) {
        let OnAir {
            tx,
            rx,
            packet,
            next_hop: nh,
            tx_epoch,
            rx_epoch,
        } = on_air;
        let report = rx.map(|r| {
            self.active_rx[nh] -= 1;
            self.tracker.complete_reception(r)
        });
        self.tracker.end_transmission(tx);
        self.on_air.adjust(now, -1.0);
        let measured = self.warm.measured(packet.created);
        let is_ctrl = matches!(packet.kind, PacketKind::Hello | PacketKind::RouteUpdate);
        if measured && !is_ctrl {
            self.metrics.hop_attempts += 1;
        }
        // A reboot in flight voids either end: a rebooted receiver has
        // forgotten the reception, a rebooted sender has forgotten the
        // packet.
        let rx_fresh = self.alive[nh] && self.boot_epoch[nh] == rx_epoch;
        let tx_fresh = self.alive[s] && self.boot_epoch[s] == tx_epoch;
        let success = report.as_ref().map(|r| r.success).unwrap_or(false) && rx_fresh;
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Info,
            parn_sim::trace::TraceEvent::HopOutcome {
                src: s,
                dst: nh,
                packet: packet.id,
                success,
            }
        );
        if success {
            // Every successful reception carries the sender's clock
            // reading, sampled at transmission start.
            self.mac.learn(nh, s, now.saturating_sub(self.airtime));
            // The receiver heard the sender: readmit it if evicted.
            self.observe_alive(nh, s, now, queue);
            // Liveness evidence on both ends (the ack carries it back),
            // feeding the gossip hellos spread.
            self.heal.hop_acked(s, nh, now);
            // Control frames are link-layer acked, data implicitly: the
            // sender learns its addressee is alive.
            self.observe_alive(s, nh, now, queue);
            if is_ctrl {
                if measured && packet.kind == PacketKind::Hello {
                    self.metrics.hellos_received += 1;
                }
                self.consume_payload(nh, s, &packet, now, queue);
            } else {
                if measured {
                    self.metrics.hop_successes += 1;
                    let rep = report.as_ref().expect("successful reception had a report");
                    let margin_db = 10.0 * (rep.min_sinr / self.threshold).log10();
                    self.metrics.sinr_margin_db.add(margin_db);
                }
                self.deliver(nh, packet, now, queue);
            }
        } else if is_ctrl {
            // Best effort: the next round regenerates it. Control losses
            // never feed the hop/loss ledgers, but a failed control hop
            // is still liveness evidence for the sender — this is what
            // detects a crashed neighbour that carries no data traffic.
            if tx_fresh {
                self.observe_hop_failure(s, nh, now, queue);
            }
        } else {
            let cause = if !rx_fresh {
                LossCause::StationFailed
            } else if let Some(rep) = &report {
                classify(rep).1
            } else {
                LossCause::DespreaderExhausted
            };
            if measured {
                self.metrics.record_loss(cause);
                if cause == LossCause::Violation {
                    // A loss pinned on an out-of-window emission is the
                    // receiver *detecting* the schedule violator.
                    self.metrics.violations_detected += 1;
                    parn_sim::counter_inc!("core.violations_detected");
                }
            }
            if tx_fresh {
                self.observe_hop_failure(s, nh, now, queue);
                self.retry_or_drop(s, packet, now, queue);
            } else {
                // The holder rebooted (or died) while the packet was on
                // air: the packet is gone with its pre-reboot state.
                self.settle_drop(&packet, LossCause::StationFailed);
            }
        }
        self.try_schedule(s, now, queue);
    }

    fn deliver(
        &mut self,
        at: StationId,
        mut packet: Packet,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        // A new hop starts with the whole retry budget.
        packet.hops += 1;
        packet.attempts = 0;
        self.routing.assert_loop_free(at, &packet);
        packet.visited.push(at);
        let measured = self.warm.measured(packet.created);
        if packet.dst == at {
            if measured {
                self.metrics.delivered += 1;
                self.metrics.per_station_delivered[at] += 1;
                let delay = packet.age(now).as_secs_f64();
                self.metrics.e2e_delay.add(delay);
                self.metrics.e2e_delay_hist.add(delay);
                self.metrics.hops_per_packet.add(packet.hops as f64);
                self.metrics.hops_hist.add(packet.hops as f64);
                self.metrics.bits_delivered += self.cfg.packet_bits();
            }
            return;
        }
        if measured {
            self.metrics.per_station_forwarded[at] += 1;
        }
        // Forward, or drop accountably: unreachable after a topology
        // change, or (Distributed) a next hop that already held the
        // packet — the transient-loop refusal.
        self.route_or_drop(at, packet, now, queue);
    }

    /// Settle a packet as finally dropped, attributing the cause.
    /// Control packets (hellos, routing updates) are best-effort and
    /// never enter `generated`, so they never count as drops either;
    /// packets created before the warmup gate are likewise outside the
    /// measured ledger.
    fn settle_drop(&mut self, packet: &Packet, cause: LossCause) {
        if packet.kind != PacketKind::Data {
            return;
        }
        if self.warm.measured(packet.created) {
            self.metrics.record_drop(cause);
        }
    }

    fn retry_or_drop(
        &mut self,
        s: StationId,
        mut packet: Packet,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.alive[s] {
            // The packet's holder is gone with it.
            self.settle_drop(&packet, LossCause::StationFailed);
            return;
        }
        packet.attempts += 1;
        let attempt = packet.attempts;
        if attempt > self.cfg.max_retries {
            self.settle_drop(&packet, LossCause::RetriesExhausted);
            return;
        }
        if self.warm.measured(packet.created) {
            self.metrics.retransmissions += 1;
        }
        if self.heal.active() {
            // Capped binary-exponential backoff with ±50 % jitter:
            // gives a suspected neighbour room to come back (or be
            // evicted, or — Distributed — routed around) instead of
            // burning the retry budget instantly.
            let base = self.cfg.heal.backoff_base.ticks();
            let raw = base
                .saturating_mul(1u64 << attempt.saturating_sub(1).min(10))
                .min(self.cfg.heal.backoff_cap.ticks());
            let wait = Duration((raw as f64 * self.rng_faults.range_f64(0.5, 1.5)) as u64);
            queue.schedule(
                now + wait,
                Event::RetryRelease {
                    station: s,
                    packet: Box::new(packet),
                    epoch: self.boot_epoch[s],
                },
            );
        } else {
            // Oracle healing: immediate re-resolve — routes may have
            // healed around a failed neighbour since the packet was
            // first queued.
            self.route_or_drop(s, packet, now, queue);
        }
    }

    /// A backed-off retransmission becomes eligible: re-resolve its next
    /// hop through the (possibly repaired) routes and queue it again.
    fn on_retry_release(
        &mut self,
        s: StationId,
        packet: Packet,
        epoch: u64,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.alive[s] || self.boot_epoch[s] != epoch {
            self.settle_drop(&packet, LossCause::StationFailed);
            return;
        }
        self.route_or_drop(s, packet, now, queue);
    }

    fn on_arrival(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        if !self.alive[s] {
            // The chain dies with the station; recovery restarts it.
            self.arrivals_live[s] = false;
            return;
        }
        // Schedule the next arrival first (keeps the process going even if
        // this packet is unroutable).
        self.chain_arrival(s, now, queue);
        let Some(dst) =
            self.traffic
                .pick_destination(s, self.mac.routing_neighbors(s), self.routing.table())
        else {
            return;
        };
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let packet = Packet::new(id, s, dst, now);
        if self.warm.measured(now) {
            self.metrics.generated += 1;
            self.metrics.per_station_generated[s] += 1;
        }
        // A picked destination can be unroutable: under distributed
        // routing it is drawn from the cold-start table, which goes stale
        // while the distance-vector exchange reconverges, a `Flows`
        // pair may have no route, and the spatial policies sample
        // destinations without a reachability scan (greedy forwarding can
        // dead-end en route anyway). The packet then settles as
        // unroutable, staying on the conservation ledger.
        self.route_or_drop(s, packet, now, queue);
    }

    /// Draw station `s`'s next arrival after `now` and schedule it if it
    /// falls within the run; the chain is live while one is pending.
    fn chain_arrival(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let next = now + self.traffic.next_interarrival(s, now);
        self.arrivals_live[s] = next <= self.end;
        if self.arrivals_live[s] {
            queue.schedule(next, Event::NextArrival { station: s });
        }
    }

    fn on_resync(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        self.mac.resync(now, &self.alive);
        let next = now + self.cfg.clock.resync_interval;
        if next <= self.end {
            queue.schedule(next, Event::Resync);
        }
    }
}

impl Network {
    /// Emit hello beacons: enqueue one single-hop `Hello` to each routing
    /// neighbour (unless one is already queued for it) and reschedule.
    fn on_hello_round(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let SyncMode::Piggyback { hello_interval } = self.cfg.clock.sync else {
            return;
        };
        if self.alive[s] {
            let neighbors = self.mac.routing_neighbors(s).to_vec();
            self.queue_control(s, neighbors, PacketKind::Hello, now, queue);
        }
        let next = now + hello_interval;
        if next <= self.end {
            queue.schedule(next, Event::HelloRound { station: s });
        }
    }

    /// Integrate a received control payload at `rx`: merge liveness
    /// gossip, then fold the advertised distance vector into the
    /// receiver's own state.
    fn consume_payload(
        &mut self,
        rx: StationId,
        sender: StationId,
        packet: &Packet,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(payload) = packet.payload.clone() else {
            return;
        };
        if let Some(gossip) = &payload.last_heard {
            for x in self.heal.merge_gossip(rx, gossip) {
                self.readmit_everywhere(x, now, queue);
            }
        }
        if let Some(vector) = &payload.route_vector {
            if !self.alive[rx] {
                return;
            }
            if self.warm.measured(now) {
                self.metrics.route_updates_received += 1;
            }
            parn_sim::counter_inc!("route.updates_received");
            let integrated = self.routing.integrate(rx, sender, vector, now);
            let (changed, rejected) = integrated.unwrap_or_default();
            if rejected > 0 {
                self.metrics.violations_detected += rejected;
                parn_sim::counter_inc!("core.violations_detected");
                parn_sim::trace_event!(
                    self.tracer,
                    now,
                    parn_sim::trace::Level::Warn,
                    parn_sim::trace::TraceEvent::ViolationDetected {
                        observer: rx,
                        source: sender,
                    }
                );
            }
            if changed {
                self.after_dv_change(rx, now, queue);
            }
        }
    }

    /// A station's distance-vector table changed: re-derive its routing
    /// view where its routing neighbours changed (what `rebuild_routes`
    /// does globally, scoped to the station whose private state moved),
    /// arrange a triggered advertisement, and make sure a quiescence
    /// probe is armed for the network-wide convergence episode.
    fn after_dv_change(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let rn = self.routing.neighbors(s);
        if rn != self.mac.routing_neighbors(s) {
            self.mac
                .set_routing_view(s, rn, self.routing.links(s), &self.alive, now);
        }
        self.trigger_round(s, now, queue);
        if let Some(at) = self.routing.note_change(now) {
            queue.schedule(at, Event::ConvergenceCheck);
        }
    }

    /// Arrange a triggered advertisement round for `s`, one per burst of
    /// table changes. Only a live station's own table changes.
    fn trigger_round(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        if let Some(at) = self.routing.arm_round(s, now) {
            let round = Event::RouteUpdateRound {
                station: s,
                periodic: false,
            };
            queue.schedule(at, round);
        }
    }

    /// Quiescence probe: re-armed while tables still change, else the
    /// episode closes. Its duration is sampled, and any station whose
    /// readmission the episode propagated counts as healed.
    fn on_convergence_check(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        match self.routing.probe(now) {
            None => {}
            Some(Probe::Rearm(at)) => queue.schedule(at, Event::ConvergenceCheck),
            Some(Probe::Converged(start, last)) => {
                let took = last.since(start).as_secs_f64();
                self.metrics.converged_at.add(took);
                parn_sim::counter_inc!("route.convergence_rounds");
                parn_sim::trace_event!(
                    self.tracer,
                    now,
                    parn_sim::trace::Level::Info,
                    parn_sim::trace::TraceEvent::RouteConverged {
                        episode: self.metrics.converged_at.count(),
                        quiesced_at: last,
                    }
                );
                self.heal.converged(&self.alive, last, &mut self.metrics);
            }
        }
    }

    /// An advertisement round: enqueue one `RouteUpdate` to each direct
    /// link neighbour (unless one is already queued for it, like the
    /// hello dedupe). Periodic rounds reschedule themselves.
    fn on_route_update_round(
        &mut self,
        s: StationId,
        periodic: bool,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let next = now + self.cfg.dv.update_interval;
        if periodic && next <= self.end {
            let round = Event::RouteUpdateRound {
                station: s,
                periodic: true,
            };
            queue.schedule(next, round);
        }
        let links = self.routing.round(s, periodic).unwrap_or_default();
        if self.alive[s] {
            self.queue_control(s, links, PacketKind::RouteUpdate, now, queue);
        }
    }

    /// Queue one `kind` control frame from `s` to each station in `to`
    /// that has none waiting yet, then run the MAC.
    fn queue_control(
        &mut self,
        s: StationId,
        to: Vec<StationId>,
        kind: PacketKind,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        for nb in to {
            if self.mac.has_queued(s, nb, kind) {
                continue;
            }
            let id = self.next_packet_id;
            self.next_packet_id += 1;
            let mut frame = Packet::new(id, s, nb, now);
            frame.kind = kind;
            self.mac.enqueue(s, nb, frame, now);
        }
        self.try_schedule(s, now, queue);
    }

    /// Distributed link-failure handling: the observer tears the link
    /// down in its own state (poisoning routes through it), re-points or
    /// drops the traffic it had queued for the lost neighbour, and lets
    /// advertisements carry the change — no global recompute. Nothing
    /// happens under table routing, where stations keep no state of
    /// their own.
    fn on_link_failed(
        &mut self,
        s: StationId,
        nh: StationId,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(changed) = self.routing.fail_link(s, nh, now) else {
            return;
        };
        let orphaned = self.mac.take_queue(s, nh, now);
        // Control frames are pinned to the lost addressee; the next round
        // regenerates them if the link comes back.
        for p in orphaned.into_iter().filter(|p| p.kind == PacketKind::Data) {
            self.route_or_drop(s, p, now, queue);
        }
        if changed {
            self.after_dv_change(s, now, queue);
        } else {
            // Even a routing no-op must be advertised: the peers'
            // vectors through us may still reference the dead link.
            self.trigger_round(s, now, queue);
        }
    }

    /// Injection point of one scheduled fault from the plan.
    fn on_fault(&mut self, index: usize, now: Time, queue: &mut EventQueue<Event>) {
        let ev = self.cfg.faults.events[index];
        self.metrics.faults_injected += 1;
        parn_sim::counter_inc!("core.faults_injected");
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Warn,
            parn_sim::trace::TraceEvent::FaultInjected {
                station: ev.station,
                kind: ev.kind.tag(),
            }
        );
        match ev.kind {
            FaultKind::Crash | FaultKind::CrashRecover { .. } => {
                self.power_down(ev.station, LossCause::StationFailed, now, queue)
            }
            // The station notices its own jump and re-plans. Its
            // neighbours' models of it are now stale: that lingering
            // staleness is the injected fault, healed by resync (oracle
            // sync), packet headers (piggyback), or evict-and-readmit
            // (local healing).
            FaultKind::ClockJump { ticks } if self.alive[ev.station] => {
                self.mac.clock_jump(ev.station, ticks, now);
                self.try_schedule(ev.station, now, queue);
            }
            FaultKind::ClockJump { .. } => {}
            _ => {
                if self.adversary.start(index, &ev, &mut self.tracker) {
                    self.on_byz_step(index, true, now, queue);
                }
            }
        }
    }

    /// A timed fault ends: a crashed station reboots, or a jam,
    /// Byzantine or partition window closes.
    fn on_fault_end(&mut self, index: usize, now: Time, queue: &mut EventQueue<Event>) {
        let ev = self.cfg.faults.events[index];
        if let FaultKind::CrashRecover { .. } = ev.kind {
            self.power_up(ev.station, PowerUp::Reboot, now, queue);
        } else if self
            .adversary
            .end(index, ev.kind, now, &mut self.tracker, &mut self.metrics)
        {
            parn_sim::trace_event!(
                self.tracer,
                now,
                parn_sim::trace::Level::Warn,
                parn_sim::trace::TraceEvent::PartitionHealed { index }
            );
        }
    }

    /// One step of a Byzantine violator's rogue cadence, and the next
    /// one scheduled while its window stays open.
    fn on_byz_step(&mut self, index: usize, on: bool, now: Time, queue: &mut EventQueue<Event>) {
        let s = self.cfg.faults.events[index].station;
        // A live violator emits at its own worst-case protocol power:
        // indistinguishable in strength from honest traffic, wrong only
        // in timing.
        let worst_case = || {
            if !self.alive[s] {
                return 0.0;
            }
            self.mac.worst_case_power(s)
        };
        let next =
            self.adversary
                .violator_step(&self.cfg, index, on, worst_case, &mut self.tracker);
        if let Some(after) = next {
            queue.schedule(now + after, Event::ByzStep { index, on: !on });
        }
    }

    /// A station powers down: it crashes (`cause` is `StationFailed`),
    /// for good or until its reboot, or leaves cleanly (`Departed`). It
    /// leaves the air, its queued and planned packets die with it
    /// (accounted with `cause`), and eviction votes it held lapse.
    /// In-flight PHY activity drains, so the interference bookkeeping
    /// stays exact.
    fn power_down(
        &mut self,
        s: StationId,
        cause: LossCause,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.alive[s] {
            return;
        }
        let event = if cause == LossCause::Departed {
            self.metrics.leaves += 1;
            parn_sim::counter_inc!("core.leaves");
            parn_sim::trace::TraceEvent::StationLeft { station: s }
        } else {
            parn_sim::trace::TraceEvent::StationFailed { station: s }
        };
        parn_sim::trace_event!(self.tracer, now, parn_sim::trace::Level::Warn, event);
        self.alive[s] = false;
        for p in self.mac.power_down(s, now) {
            self.settle_drop(&p, cause);
        }
        // The dead station's own eviction votes lapse with it, and a
        // shared table routes to the stations they held out again.
        if self.heal.power_down(s, now, &mut self.metrics) {
            self.rebuild_routes(now, queue);
        }
    }

    /// A dark station powers back up with a fresh clock (volatile state
    /// is gone). A two-way rejoin handshake restarts clock models on both
    /// sides, and stations that planned transmissions against the old
    /// schedule re-plan them. Routing readmits it per the heal mode, and
    /// its arrival process restarts. A joiner relocates *before* it
    /// re-enters the air (any reception still draining at or from it is
    /// recomputed against the new geometry), and its links come from the
    /// new geometry; so do a rebooting or returning station's under
    /// motion, or when links were measured while it was dark.
    fn power_up(&mut self, s: StationId, how: PowerUp, now: Time, queue: &mut EventQueue<Event>) {
        if self.alive[s] {
            return;
        }
        if let PowerUp::Join(pos) = how {
            self.apply_moves(&[s], &[pos], now);
            if let Some(motion) = &mut self.motion {
                motion.place(s, pos);
            }
        }
        let event = if let PowerUp::Reboot = how {
            self.metrics.stations_recovered += 1;
            parn_sim::trace::TraceEvent::StationRecovered { station: s }
        } else {
            self.metrics.joins += 1;
            parn_sim::counter_inc!("core.joins");
            parn_sim::trace::TraceEvent::StationJoined { station: s }
        };
        parn_sim::trace_event!(self.tracer, now, parn_sim::trace::Level::Warn, event);
        self.alive[s] = true;
        self.boot_epoch[s] += 1;
        // Rejoin handshake, both ways: every live station tracking the
        // rebooted one re-plans the transmissions computed with its old
        // model.
        let trackers = self.mac.power_up(s, now, &self.alive, &mut self.rng_faults);
        for o in trackers {
            self.mac.cancel_plans(o, now);
            self.try_schedule(o, now, queue);
        }
        self.heal.power_up(s, now);
        // Volatile routing state is gone with the reboot: the station's
        // own distance-vector state restarts, or local healing rebuilds a
        // shared table.
        if self.routing.restart(s, &self.alive).is_some() {
            self.after_dv_change(s, now, queue);
        }
        if self.heal.active() {
            self.rebuild_routes(now, queue);
        }
        // Restart the arrival process if the pre-crash chain died out.
        if !self.arrivals_live[s] && self.cfg.traffic.arrivals_per_station_per_sec > 0.0 {
            self.chain_arrival(s, now, queue);
        }
        // A joiner moved. Under motion, so did everyone else while this
        // station was dark. And a relink while it was dark (a motion epoch
        // or another station's join) measured no links to or from it.
        // Either way its links come from today's geometry.
        let joined = matches!(how, PowerUp::Join(_));
        if joined || self.motion.is_some() || self.routing.missed_relink(s) {
            self.relink(now, queue);
        }
        if joined {
            self.traffic.stations_moved(&*self.gains);
        }
    }

    /// Two-phase PHY move: stash the movers' reception state against the
    /// old geometry, relocate them in the gain backend, then re-attach and
    /// recompute only the affected receptions — see
    /// `SinrTracker::begin_moves`. `movers` must be ascending.
    fn apply_moves(&mut self, movers: &[StationId], dests: &[Point], now: Time) {
        self.tracker.begin_moves(movers);
        for (&s, &to) in movers.iter().zip(dests) {
            self.gains.relocate(s, to);
        }
        self.tracker.finish_moves();
        self.metrics.station_moves += movers.len() as u64;
        parn_sim::counter_inc!("core.station_moves", movers.len() as u64);
        for &s in movers {
            parn_sim::trace_event!(
                self.tracer,
                now,
                parn_sim::trace::Level::Debug,
                parn_sim::trace::TraceEvent::StationMoved { station: s }
            );
        }
    }

    /// Distributed routing after stations moved: each live station
    /// measures its usable links again and feeds its own state the
    /// difference. Lost links fail (poisoning the routes through them),
    /// new links restore first-hand (hold-down exempt), and surviving
    /// links re-cost in place without hold-down. Nothing happens under
    /// table routing.
    fn relink(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        for (s, changes) in self.routing.relink(&self.alive, &self.heal) {
            let changed = !changes.is_empty();
            for change in changes {
                match change {
                    Relink::Lost(nb) => self.on_link_failed(s, nb, now, queue),
                    Relink::Recost(..) => self.routing.apply(s, &change),
                    Relink::Found(nb, _) => {
                        self.routing.apply(s, &change);
                        // A brand-new link neighbour needs a clock model
                        // before any advertisement can be planned to it.
                        self.mac.rendezvous(s, nb, now, false);
                    }
                }
            }
            if changed {
                self.after_dv_change(s, now, queue);
            }
            // Even with the link set unchanged, moved geometry re-costs
            // gains: §7.3 protection and worst-case power re-budget.
            let rn = self.routing.neighbors(s);
            self.mac
                .set_routing_view(s, rn, self.routing.links(s), &self.alive, now);
        }
    }

    /// A motion epoch: advance every live station along the configured
    /// model, apply the moves through the two-phase PHY protocol, and
    /// re-derive everything position-dependent (routes, §7.3 protection,
    /// gravity sampling).
    fn on_motion_epoch(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        let Some(motion) = &mut self.motion else {
            return;
        };
        let epoch = motion.epoch();
        let (movers, dests) = motion.step(&*self.gains, &self.alive);
        if !movers.is_empty() {
            self.apply_moves(&movers, &dests, now);
            // Stations re-measure their own links, or the shared table is
            // rebuilt over the moved geometry.
            self.relink(now, queue);
            self.rebuild_routes(now, queue);
            self.traffic.stations_moved(&*self.gains);
        }
        self.metrics.motion_epochs += 1;
        parn_sim::counter_inc!("core.motion_epochs");
        let next = now + epoch;
        if next <= self.end {
            queue.schedule(next, Event::MotionEpoch);
        }
    }

    /// Injection point of one scheduled churn event.
    fn on_churn_step(&mut self, index: usize, now: Time, queue: &mut EventQueue<Event>) {
        let ev = self.cfg.churn.events[index];
        match ev.kind {
            ChurnKind::Leave { .. } => self.power_down(ev.station, LossCause::Departed, now, queue),
            ChurnKind::Join { pos } => self.power_up(ev.station, PowerUp::Join(pos), now, queue),
        }
    }

    /// Local-healing failure observation: another consecutive failed hop
    /// from `s` towards `nh`. An eviction routes around the neighbour:
    /// in the evictor's own distance-vector state, or (first evictor) by
    /// rebuilding the shared table.
    fn observe_hop_failure(
        &mut self,
        s: StationId,
        nh: StationId,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.alive[s] {
            return;
        }
        match self
            .heal
            .hop_failed(s, nh, self.alive[nh], now, &mut self.metrics)
        {
            HopVerdict::Unchanged => {}
            HopVerdict::Suspected => {
                let event = parn_sim::trace::TraceEvent::NeighborSuspected {
                    observer: s,
                    suspect: nh,
                };
                parn_sim::trace_event!(self.tracer, now, parn_sim::trace::Level::Info, event);
            }
            HopVerdict::Evicted { first } => {
                let event = parn_sim::trace::TraceEvent::NeighborEvicted {
                    observer: s,
                    evicted: nh,
                };
                parn_sim::trace_event!(self.tracer, now, parn_sim::trace::Level::Warn, event);
                // The evictor repairs only its own distance-vector state,
                // and poisoned reverse carries the withdrawal outward; a
                // shared table is rebuilt at the first eviction.
                self.on_link_failed(s, nh, now, queue);
                if first {
                    self.rebuild_routes(now, queue);
                }
            }
        }
    }

    /// Local-healing liveness observation: `observer` heard `subject`
    /// (received from it, or got the implicit ack of a successful hop to
    /// it). If the observer held the subject evicted, it is readmitted
    /// everywhere.
    fn observe_alive(
        &mut self,
        observer: StationId,
        subject: StationId,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if self.heal.heard(observer, subject) {
            self.readmit_everywhere(subject, now, queue);
        }
    }

    /// A station heard an evicted neighbour again: every eviction of
    /// `subject` that flap damping does not hold lifts, its former
    /// evictors restart their (possibly reboot-stale) clock models of it,
    /// and routes come back through it. Under distributed routing the
    /// link comes back in each former evictor's own state, the route
    /// change propagates by advertisement, and the subject counts as
    /// healed when the network next reconverges; a shared table is
    /// rebuilt.
    fn readmit_everywhere(&mut self, subject: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let lifted = self
            .heal
            .readmit(subject, &self.alive, now, &mut self.metrics);
        for &o in &lifted {
            self.mac.rendezvous(o, subject, now, true);
            if let Some(measured) = self.routing.readmit(o, subject) {
                // A link measured now may need more power than any `o`
                // budgeted for: its view covers it before it advertises.
                if measured {
                    let rn = self.routing.neighbors(o);
                    self.mac
                        .set_routing_view(o, rn, self.routing.links(o), &self.alive, now);
                }
                self.after_dv_change(o, now, queue);
            }
        }
        // With every standing eviction flap-suppressed nothing changed,
        // so there is nothing to rebuild.
        if !lifted.is_empty() {
            self.rebuild_routes(now, queue);
        }
    }

    /// Rebuild the shared routing table over the currently usable
    /// topology: dead stations drop out entirely; evicted stations
    /// (local healing) stop receiving routed traffic but keep
    /// transmitting their own. Queued packets are re-pointed through the
    /// table; packets whose destinations became unreachable are dropped
    /// (accounted). Nothing happens under distributed routing, which has
    /// no shared table: reconvergence there is genuine, carried hop by
    /// hop through the advertisement exchange.
    fn rebuild_routes(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        let Some(rx_ok) = self.routing.rebuild(&self.alive, &self.heal) else {
            return;
        };
        self.metrics.route_repairs += 1;
        parn_sim::counter_inc!("core.route_repairs");
        self.traffic.routes_changed(&rx_ok);
        for s in 0..self.alive.len() {
            if !self.alive[s] {
                continue;
            }
            let rn = self.routing.neighbors(s);
            self.mac
                .set_routing_view(s, rn, self.routing.links(s), &self.alive, now);
            for p in self.mac.take_queued(s, now) {
                // Hellos are pinned to their addressee: one stays only
                // while the addressee is still a direct neighbour, else
                // the next hello round regenerates it (a control frame
                // settles as nothing).
                match self.routing.table().next_hop(s, p.dst) {
                    Some(nh) if p.kind == PacketKind::Data || nh == p.dst => {
                        self.mac.enqueue(s, nh, p, now)
                    }
                    _ => self.settle_drop(&p, LossCause::Unroutable),
                }
            }
            self.try_schedule(s, now, queue);
        }
    }

    /// Oracle-mode route repair event: sample detect/heal latencies for
    /// the outages this repair notices, then rebuild. Never scheduled
    /// under distributed routing, where stations detect failures
    /// themselves.
    fn on_reroute(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        self.heal.oracle_repair(&self.alive, now, &mut self.metrics);
        self.rebuild_routes(now, queue);
    }
}

impl Model for Network {
    type Event = Event;

    fn handle(&mut self, now: Time, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::NextArrival { station } => self.on_arrival(station, now, queue),
            Event::MacRetry { station } => {
                self.mac.retry_fired(station);
                self.try_schedule(station, now, queue);
            }
            Event::TxStart { station } => self.on_tx_start(station, now, queue),
            Event::TxEnd { station, on_air } => self.on_tx_end(station, *on_air, now, queue),
            Event::Resync => self.on_resync(now, queue),
            Event::HelloRound { station } => self.on_hello_round(station, now, queue),
            Event::Fault { index } => self.on_fault(index, now, queue),
            Event::FaultEnd { index } => self.on_fault_end(index, now, queue),
            Event::ByzStep { index, on } => self.on_byz_step(index, on, now, queue),
            // A reactive-jam burst ends: the adversary's transmitter goes
            // quiet.
            Event::RJamOff { tx } => self.tracker.end_transmission(tx),
            Event::RetryRelease {
                station,
                packet,
                epoch,
            } => self.on_retry_release(station, *packet, epoch, now, queue),
            Event::Reroute => self.on_reroute(now, queue),
            Event::RouteUpdateRound { station, periodic } => {
                self.on_route_update_round(station, periodic, now, queue)
            }
            Event::ConvergenceCheck => self.on_convergence_check(now, queue),
            Event::MotionEpoch => self.on_motion_epoch(now, queue),
            Event::ChurnStep { index } => self.on_churn_step(index, now, queue),
            Event::ChurnReturn { station } => self.power_up(station, PowerUp::Return, now, queue),
        }
    }
}

#[cfg(test)]
impl Network {
    /// The channel access, for tests of its per-station state.
    pub(crate) fn mac(&self) -> &Mac {
        &self.mac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DestPolicy, RouteMode, SourceModel};
    use crate::faults::ByzMode;
    use parn_route::EnergyGraph;

    /// The usable-hop gain threshold `Network::new` derives from the
    /// reach factor (§6: about 2/√ρ).
    fn usable_gain(net: &Network) -> parn_phys::Gain {
        let rho = net.len() as f64 / net.cfg.placement.region().area();
        let reach = net.cfg.reach_factor / rho.sqrt();
        parn_phys::Gain(1.0 / (reach * reach))
    }

    fn small_cfg(n: usize, seed: u64) -> NetConfig {
        let mut cfg = NetConfig::paper_default(n, seed);
        cfg.run_for = Duration::from_secs(6);
        cfg.warmup = Duration::from_secs(1);
        cfg.traffic.arrivals_per_station_per_sec = 1.0;
        cfg
    }

    #[test]
    fn an_event_takes_at_most_32_bytes() {
        // A queue slot is the event plus its time and sequence number; a
        // packet in flight or backing off sits behind a pointer.
        assert!(std::mem::size_of::<Event>() <= 32);
    }

    #[test]
    fn small_network_delivers_without_collisions() {
        let m = Network::run(small_cfg(30, 42));
        assert!(m.generated > 50, "generated {}", m.generated);
        assert!(m.delivered > 0, "nothing delivered");
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0, "{}", m.summary());
        assert!(m.hop_success_rate() > 0.999, "{}", m.summary());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Network::run(small_cfg(20, 7));
        let b = Network::run(small_cfg(20, 7));
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.hop_attempts, b.hop_attempts);
        assert!((a.e2e_delay.mean() - b.e2e_delay.mean()).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Network::run(small_cfg(20, 1));
        let b = Network::run(small_cfg(20, 2));
        assert_ne!(
            (a.generated, a.delivered),
            (b.generated, b.delivered),
            "two seeds produced identical runs"
        );
    }

    #[test]
    fn neighbor_traffic_is_single_hop() {
        let mut cfg = small_cfg(25, 5);
        cfg.traffic.dest = DestPolicy::Neighbors;
        let m = Network::run(cfg);
        assert!(m.delivered > 0);
        assert!((m.hops_per_packet.mean() - 1.0).abs() < 1e-9);
        assert_eq!(m.collision_losses(), 0);
    }

    #[test]
    fn gravity_traffic_is_multihop_and_conserved() {
        let mut cfg = small_cfg(60, 19);
        cfg.traffic.dest = DestPolicy::Gravity { exponent: 2.0 };
        let m = Network::run(cfg);
        assert!(m.generated > 50, "{}", m.summary());
        assert!(m.delivered > 0, "{}", m.summary());
        // Distance-weighted destinations must actually exercise relaying.
        assert!(
            m.hops_per_packet.mean() > 1.2,
            "mean hops {}",
            m.hops_per_packet.mean()
        );
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
    }

    #[test]
    fn gravity_over_greedy_routes_at_scale_shape() {
        // The metro-scale pairing: greedy geographic forwarding carrying
        // gravity traffic, no dense table anywhere.
        let mut cfg = small_cfg(60, 23);
        cfg.traffic.dest = DestPolicy::Gravity { exponent: 2.0 };
        cfg.route_mode = RouteMode::Greedy;
        let m = Network::run(cfg);
        assert!(m.delivered > 0, "{}", m.summary());
        assert!(m.hops_per_packet.mean() > 1.2, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
    }

    #[test]
    fn hotspot_traffic_concentrates_on_sinks() {
        let mut cfg = small_cfg(40, 29);
        cfg.traffic.dest = DestPolicy::Hotspot {
            sinks: 3,
            skew: 1.0,
        };
        let m = Network::run(cfg);
        assert!(m.delivered > 0, "{}", m.summary());
        let sink_rx: u64 = m.per_station_delivered[..3].iter().sum();
        let other_rx: u64 = m.per_station_delivered[3..].iter().sum();
        assert_eq!(other_rx, 0, "non-sink stations received final traffic");
        assert!(sink_rx > 0);
        // Zipf skew: sink 0 is the most popular.
        assert!(
            m.per_station_delivered[0] >= m.per_station_delivered[2],
            "sink 0 {} < sink 2 {}",
            m.per_station_delivered[0],
            m.per_station_delivered[2]
        );
        assert!(m.conservation_holds(), "{}", m.summary());
    }

    #[test]
    fn onoff_source_preserves_mean_rate_but_bursts() {
        let mut steady = small_cfg(30, 31);
        steady.run_for = Duration::from_secs(12);
        let mut bursty = steady.clone();
        bursty.traffic.source = SourceModel::OnOff {
            on_mean_s: 0.3,
            off_mean_s: 0.9,
        };
        let ms = Network::run(steady);
        let mb = Network::run(bursty);
        // Same long-run mean arrival rate (within Poisson noise)...
        let ratio = mb.generated as f64 / ms.generated as f64;
        assert!((0.7..1.3).contains(&ratio), "rate ratio {ratio}");
        // ...but clumped arrivals queue deeper.
        assert!(
            mb.peak_queue_depth >= ms.peak_queue_depth,
            "burst peak {} < steady peak {}",
            mb.peak_queue_depth,
            ms.peak_queue_depth
        );
        assert_eq!(mb.collision_losses(), 0, "{}", mb.summary());
        assert!(mb.conservation_holds(), "{}", mb.summary());
    }

    #[test]
    fn flows_policy_routes_specific_pairs() {
        let mut cfg = small_cfg(12, 9);
        cfg.traffic.dest = DestPolicy::Flows(vec![(0, 5), (3, 8)]);
        let m = Network::run(cfg);
        assert!(m.generated > 0);
        assert!(m.delivered > 0);
    }

    #[test]
    fn delays_exceed_scheduling_wait_floor() {
        // Mean per-hop wait must be ≥ 1 slot-ish; e2e delay at least that.
        let m = Network::run(small_cfg(30, 11));
        let mean_wait = m.hop_wait_slots.mean().expect("no waits recorded");
        assert!(mean_wait > 0.5, "mean wait {mean_wait} slots");
        assert!(m.e2e_delay.mean() > 0.005, "e2e {}", m.e2e_delay.mean());
    }

    #[test]
    fn zero_traffic_runs_clean() {
        let mut cfg = small_cfg(10, 3);
        cfg.traffic.arrivals_per_station_per_sec = 0.0;
        let m = Network::run(cfg);
        assert_eq!(m.generated, 0);
        assert_eq!(m.delivered, 0);
        assert_eq!(m.total_losses(), 0);
    }

    #[test]
    fn clock_drift_tolerated_with_guard() {
        let mut cfg = small_cfg(20, 13);
        cfg.clock.max_ppm = 100.0;
        let m = Network::run(cfg);
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0);
        assert!(m.delivered > 0);
    }

    #[test]
    fn station_failure_is_survived_and_accounted() {
        let mut cfg = small_cfg(40, 17);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.faults =
            FaultPlan::crashes([(Duration::from_secs(4), 3), (Duration::from_secs(4), 11)]);
        let m = Network::run(cfg);
        // Traffic keeps flowing after the heal.
        assert!(m.delivered > 100, "{}", m.summary());
        // The scheme itself stays collision-free throughout.
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0);
        assert_eq!(m.faults_injected, 2);
        assert!(m.time_to_detect.count() == 2, "{}", m.summary());
        // Every undelivered packet is accounted: both ledgers balance
        // exactly.
        assert!(m.conservation_holds(), "{}", m.summary());
        assert!(m.delivered + m.total_drops() <= m.generated);
        assert_eq!(
            m.hop_attempts,
            m.hop_successes + m.total_losses(),
            "{}",
            m.summary()
        );
        // Losses carry failure-related causes only; drops settle as
        // holder-death, unroutability, or an exhausted retry budget.
        for (cause, count) in &m.losses {
            assert!(
                matches!(cause, crate::packet::LossCause::StationFailed) || *count == 0,
                "unexpected loss cause {cause:?} x{count}"
            );
        }
        for (cause, count) in &m.drops {
            assert!(
                matches!(
                    cause,
                    crate::packet::LossCause::StationFailed
                        | crate::packet::LossCause::Unroutable
                        | crate::packet::LossCause::RetriesExhausted
                ) || *count == 0,
                "unexpected drop cause {cause:?} x{count}"
            );
        }
    }

    #[test]
    fn failure_of_a_relay_reroutes_traffic() {
        // Find a heavily-used relay and kill it; deliveries must continue.
        let mut cfg = small_cfg(40, 19);
        cfg.run_for = Duration::from_secs(14);
        let probe = Network::new(cfg.clone());
        // Busiest relay = station with most routing dependents.
        let deps = probe.routing_dependent_counts();
        let relay = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        assert!(deps[relay] > 0, "probe found no relay at all");
        cfg.faults = FaultPlan::none().crash(Duration::from_secs(5), relay);
        let m = Network::run(cfg);
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0);
    }

    #[test]
    fn a_successful_hop_restores_the_retry_budget() {
        // A packet that spent its whole retry budget on one hop reaches a
        // relay on its way: the relay holds it with a fresh budget.
        let mut net = Network::new(small_cfg(30, 7));
        let n = net.len();
        let (src, dst, relay) = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .find_map(|(s, d)| {
                let r = net.routes().next_hop(s, d)?;
                (r != d).then_some((s, d, r))
            })
            .expect("a multi-hop route");
        let mut packet = Packet::new(0, src, dst, Time::ZERO);
        packet.attempts = net.cfg.max_retries;
        let mut q = EventQueue::new();
        net.deliver(relay, packet, Time::ZERO, &mut q);
        let held = net.mac.power_down(relay, Time::ZERO);
        assert_eq!(held.len(), 1, "the relay holds the packet");
        assert_eq!(held[0].attempts, 0);
    }

    #[test]
    fn crash_recover_rejoins_and_heals() {
        let mut cfg = small_cfg(40, 21);
        cfg.run_for = Duration::from_secs(14);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_secs(4), 7, Duration::from_secs(3));
        let m = Network::run(cfg);
        assert_eq!(m.stations_recovered, 1, "{}", m.summary());
        assert!(m.time_to_heal.count() > 0, "{}", m.summary());
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn local_heal_detects_evicts_and_readmits() {
        let mut cfg = small_cfg(40, 19);
        cfg.run_for = Duration::from_secs(16);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.heal = crate::faults::HealConfig::local();
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let relay = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_secs(4), relay, Duration::from_secs(4));
        let m = Network::run(cfg);
        assert!(m.neighbors_evicted > 0, "{}", m.summary());
        assert!(m.neighbors_readmitted > 0, "{}", m.summary());
        assert!(m.time_to_detect.count() > 0, "{}", m.summary());
        assert!(m.time_to_heal.count() > 0, "{}", m.summary());
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn jammer_losses_are_attributed_not_collisions() {
        let mut cfg = small_cfg(40, 23);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let anchor = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults = FaultPlan::none().jam(
            Duration::from_secs(4),
            anchor,
            Duration::from_secs(2),
            parn_phys::PowerW(0.01),
        );
        let m = Network::run(cfg);
        let jammed = m
            .losses
            .get(&crate::packet::LossCause::Jammed)
            .copied()
            .unwrap_or(0);
        assert!(
            jammed > 0,
            "jammer caused no attributed losses: {}",
            m.summary()
        );
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn partition_severs_heals_and_accounts_exactly() {
        let mut cfg = small_cfg(40, 33);
        cfg.run_for = Duration::from_secs(14);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        // A vertical shadowing cut through the middle of the disk from
        // 4 s to 8 s: regions sever without any station dying.
        cfg.faults = FaultPlan::none().partition(
            Duration::from_secs(4),
            crate::faults::CutAxis::Vertical,
            0.0,
            40.0,
            Duration::from_secs(4),
        );
        let m = Network::run(cfg);
        assert_eq!(m.faults_injected, 1, "{}", m.summary());
        assert_eq!(m.partitions_healed, 1, "{}", m.summary());
        assert_eq!(m.partition_healed_at.count(), 1);
        assert!(
            (m.partition_healed_at.mean() - 8.0).abs() < 1e-9,
            "healed at {}",
            m.partition_healed_at.mean()
        );
        assert!(m.delivered > 100, "{}", m.summary());
        // Unlike every static-topology scenario, a shadowing transient can
        // legitimately produce collisions: transmissions planned under one
        // gain field land under another (receptions in flight when the cut
        // activates lose their link budget, and for the reroute-delay
        // window after the heal stations still honour cut-era routes and
        // §7.3 protected sets). The no-collision guarantee is a property
        // of a static field; what must survive a partition is exact
        // accounting, not zero collisions.
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        // No station died: every loss is environmental, none fatal.
        assert_eq!(m.stations_recovered, 0);
    }

    #[test]
    fn partition_plan_must_be_set_before_build() {
        let cfg = small_cfg(20, 3);
        let mut net = Network::new(cfg);
        let plan = FaultPlan::none().partition(
            Duration::from_secs(1),
            crate::faults::CutAxis::Horizontal,
            0.0,
            30.0,
            Duration::from_secs(1),
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.set_fault_plan(plan);
        }));
        assert!(err.is_err(), "late partition plan must be rejected");
    }

    #[test]
    fn violator_losses_are_attributed_not_collisions() {
        let mut cfg = small_cfg(40, 23);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let rogue = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults = FaultPlan::none().byzantine(
            Duration::from_secs(4),
            rogue,
            ByzMode::Violator,
            Duration::from_secs(4),
        );
        let m = Network::run(cfg);
        let violations = m
            .losses
            .get(&crate::packet::LossCause::Violation)
            .copied()
            .unwrap_or(0);
        assert!(
            violations > 0,
            "violator caused no attributed losses: {}",
            m.summary()
        );
        assert!(m.violations_detected > 0);
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn poisoner_is_detected_and_neutralized() {
        let mut cfg = small_cfg(40, 29);
        cfg.run_for = Duration::from_secs(14);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.route_mode = RouteMode::Distributed;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let rogue = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults = FaultPlan::none().byzantine(
            Duration::from_secs(4),
            rogue,
            ByzMode::Poisoner,
            Duration::from_secs(4),
        );
        let m = Network::run(cfg);
        assert!(
            m.violations_detected > 0,
            "no poisoned advertisements rejected: {}",
            m.summary()
        );
        // The defense holds: poisoned claims never enter routing state,
        // so delivery survives and the books stay exact.
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn reactive_jammer_respects_budget_and_is_attributed() {
        let mut cfg = small_cfg(40, 23);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let anchor = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        let budget = Duration::from_millis(250);
        cfg.faults = FaultPlan::none().reactive_jam(Duration::from_secs(3), anchor, budget, 0.5);
        let m = Network::run(cfg);
        assert!(m.reactive_jams > 0, "jammer never fired: {}", m.summary());
        assert!(
            m.jam_budget_spent_s <= budget.as_secs_f64() + 1e-9,
            "budget exceeded: spent {} of {}",
            m.jam_budget_spent_s,
            budget.as_secs_f64()
        );
        let jammed = m
            .losses
            .get(&crate::packet::LossCause::Jammed)
            .copied()
            .unwrap_or(0);
        assert!(jammed > 0, "bursts caused no losses: {}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn flap_damping_suppresses_jammer_driven_oscillation() {
        // A train of short, nearly-saturating reactive-jam bursts with
        // quiet gaps between them: each burst drives the trigger-happy
        // local healer to evict, each gap lets the neighbourhood be heard
        // and readmitted — classic route flapping. Flap damping holds the
        // eviction once the same observer has cycled the same neighbour
        // twice inside the half-life, so the readmission count drops and
        // suppressions appear.
        let run = |damping: bool| {
            let mut cfg = small_cfg(40, 23);
            cfg.run_for = Duration::from_secs(16);
            cfg.traffic.arrivals_per_station_per_sec = 2.0;
            cfg.heal = crate::faults::HealConfig::local();
            // Hello beacons + gossip give evictors a way to hear an
            // evicted neighbour again during the quiet gaps — without
            // them readmission depends on lucky traffic direction.
            cfg.clock.sync = crate::config::SyncMode::Piggyback {
                hello_interval: Duration::from_millis(250),
            };
            cfg.heal.suspect_after = 2;
            cfg.heal.evict_timeout = Duration::from_millis(40);
            cfg.heal.flap_damping = damping;
            // 1.5: a second eviction of the same neighbour within the
            // half-life is enough to hold the door shut (a fresh penalty
            // of 1+decayed tops out at 2.0 and decays from there, so a
            // threshold of 2.0 would demand three rapid-fire evictions).
            cfg.heal.flap_suppress = 1.5;
            cfg.heal.flap_half_life = Duration::from_secs(4);
            let probe = Network::new(cfg.clone());
            let deps = probe.routing_dependent_counts();
            let anchor = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
            let mut plan = FaultPlan::none();
            for burst in 0..4 {
                plan = plan.reactive_jam(
                    Duration::from_secs(2 + 2 * burst),
                    anchor,
                    Duration::from_millis(300),
                    0.95,
                );
            }
            cfg.faults = plan;
            Network::run(cfg)
        };
        let plain = run(false);
        let damped = run(true);
        assert_eq!(plain.readmissions_suppressed, 0);
        assert!(
            plain.neighbors_readmitted > 2,
            "jammer caused no readmission churn to damp: {}",
            plain.summary()
        );
        assert!(
            damped.readmissions_suppressed > 0,
            "damping never suppressed a readmission: {}",
            damped.summary()
        );
        assert!(
            damped.neighbors_readmitted < plain.neighbors_readmitted,
            "readmission churn not reduced: {} -> {}",
            plain.neighbors_readmitted,
            damped.neighbors_readmitted
        );
        for m in [&plain, &damped] {
            assert!(m.conservation_holds(), "{}", m.summary());
            assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        }
    }

    #[test]
    fn clock_jump_survives_with_accounting_intact() {
        let mut cfg = small_cfg(40, 27);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.faults = FaultPlan::none().clock_jump(Duration::from_secs(4), 5, 2_500_000);
        let m = Network::run(cfg);
        assert_eq!(m.faults_injected, 1);
        assert!(m.delivered > 100, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn shadowed_propagation_still_collision_free() {
        let mut cfg = small_cfg(50, 23);
        cfg.shadowing_sigma_db = 8.0;
        // Shadowing can partition the graph; lower the usable bar a bit by
        // reaching farther.
        cfg.reach_factor = 3.0;
        let m = Network::run(cfg);
        assert!(m.delivered > 50, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0);
    }

    #[test]
    fn occupancy_metrics_are_sane() {
        let mut cfg = small_cfg(40, 47);
        cfg.traffic.arrivals_per_station_per_sec = 6.0;
        let m = Network::run(cfg);
        // Under load, queues are nonempty on average and bounded by
        // something sane; concurrency shows spatial reuse (> 1 tx at once
        // on average in a 40-station disk).
        assert!(m.mean_queue_depth > 0.1, "queue {}", m.mean_queue_depth);
        assert!(m.peak_queue_depth >= m.mean_queue_depth);
        assert!(
            m.mean_concurrent_tx > 1.0,
            "no spatial reuse? {}",
            m.mean_concurrent_tx
        );
        // Idle network: both near zero.
        let mut idle = small_cfg(10, 48);
        idle.traffic.arrivals_per_station_per_sec = 0.05;
        let mi = Network::run(idle);
        assert!(
            mi.mean_queue_depth < 0.5,
            "idle queue {}",
            mi.mean_queue_depth
        );
        assert!(mi.mean_concurrent_tx < 0.5);
    }

    #[test]
    fn tracer_records_mac_and_phy_events() {
        let mut cfg = small_cfg(12, 41);
        cfg.run_for = Duration::from_secs(2);
        cfg.warmup = Duration::from_millis(100);
        let mut net = Network::new(cfg).with_tracer(parn_sim::trace::Tracer::new(
            4096,
            parn_sim::trace::Level::Debug,
        ));
        let mut q = parn_sim::EventQueue::new();
        net.prime(&mut q);
        let end = Time::ZERO + Duration::from_secs(2);
        parn_sim::run(&mut net, &mut q, end);
        let mac_events = net.tracer().by_category("mac").len();
        let phy_events = net.tracer().by_category("phy").len();
        assert!(mac_events > 10, "no MAC events traced ({mac_events})");
        assert!(phy_events > 10, "no PHY events traced ({phy_events})");
        // Every PHY record is a typed hop outcome between valid stations.
        let n = net.alive.len();
        for r in net.tracer().by_category("phy") {
            match r.event {
                parn_sim::trace::TraceEvent::HopOutcome { src, dst, .. } => {
                    assert!(src < n && dst < n, "odd phy record: {}", r.event);
                }
                ref other => panic!("odd phy record: {other:?}"),
            }
        }
    }

    #[test]
    fn piggyback_sync_stays_collision_free_under_drift() {
        // The realistic maintenance mode: no oracle exchanges after boot,
        // clock models fed only by packet headers and hello beacons.
        let mut cfg = small_cfg(40, 37);
        cfg.clock.sync = crate::config::SyncMode::Piggyback {
            hello_interval: Duration::from_secs(2),
        };
        cfg.clock.max_ppm = 100.0;
        cfg.run_for = Duration::from_secs(12);
        let m = Network::run(cfg);
        assert!(m.delivered > 100, "{}", m.summary());
        assert!(m.hellos_sent > 100, "hellos {}", m.hellos_sent);
        assert!(m.hellos_received > 0);
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0, "{}", m.summary());
    }

    #[test]
    fn piggyback_hellos_cost_airtime() {
        let mk = |sync| {
            let mut cfg = small_cfg(30, 39);
            cfg.traffic.arrivals_per_station_per_sec = 0.5;
            cfg.clock.sync = sync;
            Network::run(cfg)
        };
        let oracle = mk(crate::config::SyncMode::Oracle);
        let piggy = mk(crate::config::SyncMode::Piggyback {
            hello_interval: Duration::from_millis(500),
        });
        let air = |m: &crate::metrics::Metrics| m.tx_airtime.iter().sum::<f64>();
        assert_eq!(oracle.hellos_sent, 0);
        assert!(piggy.hellos_sent > 0);
        assert!(
            air(&piggy) > air(&oracle) * 1.2,
            "hello overhead invisible: {} vs {}",
            air(&piggy),
            air(&oracle)
        );
        assert_eq!(piggy.collision_losses(), 0);
    }

    #[test]
    fn distributed_routing_runs_clean() {
        let mut cfg = small_cfg(40, 31);
        cfg.route_mode = RouteMode::Distributed;
        let m = Network::run(cfg);
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        // Costs agree with the centralized computation even if tie-broken
        // paths differ.
        let mut c_cfg = small_cfg(40, 31);
        c_cfg.route_mode = RouteMode::Centralized;
        let dist = Network::new({
            let mut c = small_cfg(40, 31);
            c.route_mode = RouteMode::Distributed;
            c
        });
        let cent = Network::new(c_cfg);
        for s in 0..40 {
            for d in 0..40 {
                let (a, b) = (dist.routes().cost(s, d), cent.routes().cost(s, d));
                if a.is_finite() || b.is_finite() {
                    assert!((a - b).abs() < 1e-9, "{s}->{d}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn idle_neighbor_crash_detected_without_data_traffic() {
        // ROADMAP item 2 (piggyback liveness): with zero data traffic,
        // hello beacons and their gossip are the only liveness evidence.
        // A crashed station must still be suspected, evicted, and — once
        // it reboots and beacons again — readmitted.
        let mut cfg = small_cfg(30, 53);
        cfg.run_for = Duration::from_secs(16);
        cfg.traffic.arrivals_per_station_per_sec = 0.0;
        cfg.heal = crate::faults::HealConfig::local();
        cfg.clock.sync = crate::config::SyncMode::Piggyback {
            hello_interval: Duration::from_millis(500),
        };
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let relay = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_secs(4), relay, Duration::from_secs(5));
        let m = Network::run(cfg);
        assert_eq!(m.generated, 0, "test must run without data traffic");
        assert!(m.neighbors_suspected > 0, "{}", m.summary());
        assert!(m.neighbors_evicted > 0, "{}", m.summary());
        assert!(m.time_to_detect.count() > 0, "{}", m.summary());
        assert!(m.neighbors_readmitted > 0, "{}", m.summary());
        assert_eq!(m.stations_recovered, 1);
    }

    #[test]
    fn hello_gossip_spreads_liveness_evidence() {
        // Hellos under local healing carry last-heard gossip; receivers
        // adopt newer timestamps, so second-hand evidence spreads beyond
        // direct hearing range.
        let mut cfg = small_cfg(30, 57);
        cfg.run_for = Duration::from_secs(8);
        cfg.heal = crate::faults::HealConfig::local();
        cfg.clock.sync = crate::config::SyncMode::Piggyback {
            hello_interval: Duration::from_millis(500),
        };
        let mut net = Network::new(cfg);
        let mut q = parn_sim::EventQueue::new();
        net.prime(&mut q);
        let end = net.end;
        parn_sim::run(&mut net, &mut q, end);
        // Some station knows about a station it has no direct link to —
        // knowledge that can only have arrived as gossip.
        let gossiped = (0..net.len()).any(|s| {
            let links: std::collections::BTreeSet<StationId> = net
                .gains
                .hearable_by(s, usable_gain(&net))
                .into_iter()
                .collect();
            net.heal
                .gossip(s)
                .unwrap_or_default()
                .iter()
                .any(|&(x, _)| x != s && !links.contains(&x))
        });
        assert!(gossiped, "no second-hand liveness knowledge spread");
    }

    #[test]
    fn distributed_mode_heals_by_exchange_not_rebuild() {
        // The tentpole acceptance: after a crash and recovery in
        // Distributed mode, no global recompute ever runs — healing is
        // carried entirely by per-station eviction, poisoned reverse,
        // and readmission advertisements. `time_to_heal` then measures
        // genuine propagation + reconvergence and must be nonzero.
        let mut cfg = small_cfg(40, 59);
        cfg.run_for = Duration::from_secs(20);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.route_mode = RouteMode::Distributed;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let relay = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_secs(5), relay, Duration::from_secs(5));
        let m = Network::run(cfg.clone());
        assert_eq!(m.route_repairs, 0, "{}", m.summary());
        assert!(m.route_updates_sent > 0, "{}", m.summary());
        assert!(m.route_updates_received > 0, "{}", m.summary());
        assert!(m.neighbors_evicted > 0, "{}", m.summary());
        assert!(m.converged_at.count() > 0, "no convergence episode closed");
        assert!(m.time_to_detect.count() > 0, "{}", m.summary());
        assert!(m.time_to_heal.count() > 0, "{}", m.summary());
        assert!(
            m.time_to_heal.mean() > 0.0,
            "heal time not positive: {}",
            m.time_to_heal.mean()
        );
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        // Seed-deterministic, including the heal-latency samples.
        let m2 = Network::run(cfg);
        assert_eq!(m.delivered, m2.delivered);
        assert_eq!(m.route_updates_sent, m2.route_updates_sent);
        assert!((m.time_to_heal.mean() - m2.time_to_heal.mean()).abs() < 1e-12);
    }

    #[test]
    fn shadowing_changes_topology_deterministically() {
        let a_cfg = {
            let mut c = small_cfg(30, 29);
            c.shadowing_sigma_db = 8.0;
            c
        };
        let a = Network::new(a_cfg.clone());
        let b = Network::new(a_cfg);
        let c_cfg = small_cfg(30, 29);
        let c = Network::new(c_cfg);
        // Same config => identical gains; shadowing off => different gains.
        assert_eq!(a.gains().gain(0, 1), b.gains().gain(0, 1));
        assert_ne!(a.gains().gain(0, 1), c.gains().gain(0, 1));
    }

    #[test]
    fn mobility_run_moves_stations_and_conserves() {
        use crate::mobility::{MobilityConfig, MobilityModel};
        let mut cfg = small_cfg(30, 83);
        cfg.mobility = Some(MobilityConfig {
            model: MobilityModel::RandomWaypoint { speed: 10.0 },
            epoch: Duration::from_millis(200),
        });
        let m = Network::run(cfg.clone());
        assert!(m.motion_epochs > 10, "{}", m.summary());
        assert!(m.station_moves > 0, "{}", m.summary());
        assert!(m.delivered > 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        // Motion draws come from their own substream, deterministically.
        let m2 = Network::run(cfg);
        assert_eq!(m.delivered, m2.delivered);
        assert_eq!(m.station_moves, m2.station_moves);
    }

    #[test]
    fn mobility_config_absent_means_no_motion() {
        let m = Network::run(small_cfg(20, 3));
        assert_eq!(m.motion_epochs, 0);
        assert_eq!(m.station_moves, 0);
        assert_eq!(m.leaves, 0);
        assert_eq!(m.joins, 0);
    }

    #[test]
    fn churn_departures_account_as_departed_and_conserve() {
        use crate::mobility::ChurnPlan;
        let mut cfg = small_cfg(30, 11);
        cfg.run_for = Duration::from_secs(8);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.churn = ChurnPlan::none()
            .leave_for(Duration::from_secs(2), 3, Duration::from_secs(2))
            .leave(Duration::from_secs(3), 7);
        let m = Network::run(cfg.clone());
        assert_eq!(m.leaves, 2, "{}", m.summary());
        assert_eq!(m.joins, 1, "{}", m.summary());
        assert!(m.delivered > 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        let m2 = Network::run(cfg);
        assert_eq!(m.delivered, m2.delivered);
        assert_eq!(m.total_drops(), m2.total_drops());
    }

    #[test]
    fn churn_join_readmits_at_new_position() {
        use crate::mobility::ChurnPlan;
        let mut cfg = small_cfg(30, 47);
        cfg.run_for = Duration::from_secs(10);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        // Station 5 departs, then is readmitted across the region.
        cfg.churn = ChurnPlan::none().leave(Duration::from_secs(2), 5).join(
            Duration::from_secs(4),
            5,
            Point::new(10.0, -8.0),
        );
        let mut net = Network::new(cfg);
        let end = net.end;
        let mut queue = EventQueue::new();
        net.prime(&mut queue);
        parn_sim::run(&mut net, &mut queue, end);
        assert!(net.alive[5]);
        let p = net.gains.position(5);
        assert!((p.x - 10.0).abs() < 1e-12 && (p.y + 8.0).abs() < 1e-12);
        let m = net.finish();
        assert_eq!(m.leaves, 1, "{}", m.summary());
        assert_eq!(m.joins, 1, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
    }

    #[test]
    fn greedy_rebuild_tracks_moved_positions() {
        use crate::mobility::{MobilityConfig, MobilityModel};
        let mut cfg = small_cfg(40, 77);
        cfg.route_mode = RouteMode::Greedy;
        cfg.mobility = Some(MobilityConfig {
            model: MobilityModel::RandomWaypoint { speed: 40.0 },
            epoch: Duration::from_millis(200),
        });
        let mut net = Network::new(cfg);
        let mut queue = EventQueue::new();
        net.prime(&mut queue);
        let before = net.gains.positions();
        // First epoch draws waypoints; the second produces real moves.
        let t1 = Time::ZERO + Duration::from_millis(200);
        net.on_motion_epoch(t1, &mut queue);
        let t2 = t1 + Duration::from_millis(200);
        net.on_motion_epoch(t2, &mut queue);
        assert_ne!(net.gains.positions(), before, "nobody moved");
        // Greedy forwarding must be computed over the *post-move*
        // geometry: the live table has to agree with one rebuilt from
        // scratch over the current positions.
        let graph = EnergyGraph::from_model(&*net.gains, usable_gain(&net));
        let fresh = RouteTable::greedy(&graph, &net.gains.positions());
        let n = net.len();
        for s in 0..n {
            for d in 0..n {
                assert_eq!(
                    net.routes().next_hop(s, d),
                    fresh.next_hop(s, d),
                    "stale greedy hop at {s}->{d}"
                );
            }
        }
    }

    /// How many stations `s` routes to directly, and how many route to it
    /// directly, in the distributed-routing tables.
    fn direct_links(net: &Network, s: StationId) -> (usize, usize) {
        let t = net.dv_table().expect("distributed routing");
        let from = (0..net.len()).filter(|&x| t.next_hop(s, x) == Some(x));
        let to = (0..net.len()).filter(|&o| t.next_hop(o, s) == Some(s));
        (from.count(), to.count())
    }

    #[test]
    fn a_station_rebooting_after_a_motion_epoch_comes_back_with_its_links() {
        // Under distributed routing with motion, station 5 is dark from
        // 2.05 s to 3.05 s. The epochs at 2.2 … 3.0 s re-measure links over
        // the live topology, which has no row for a dark station, so every
        // live station drops its link to 5 and 5's own measured links are
        // empty. On reboot 5 must measure its links again, both ways, not
        // wait for the 3.2 s epoch.
        use crate::mobility::MobilityConfig;
        let mut cfg = NetConfig::paper_default(30, 21);
        cfg.route_mode = RouteMode::Distributed;
        cfg.heal = crate::faults::HealConfig::local();
        cfg.mobility = Some(MobilityConfig::paper_default());
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_millis(2050), 5, Duration::from_secs(1));
        let mut net = Network::new(cfg);
        let booted = direct_links(&net, 5);
        assert!(booted.0 > 0 && booted.1 > 0, "no links at boot: {booted:?}");
        let mut q = EventQueue::new();
        net.prime(&mut q);
        parn_sim::run(&mut net, &mut q, Time::ZERO + Duration::from_millis(3060));
        assert!(net.alive[5], "station 5 rebooted at 3.05 s");
        let (from, to) = direct_links(&net, 5);
        assert!(from > 0, "station 5 came back with no links");
        assert!(to > 0, "no station links to station 5 after its reboot");
    }

    #[test]
    fn a_station_away_during_a_join_comes_back_with_its_links() {
        // Under distributed routing without motion, station 9 joins at
        // (3, -4) at 2.5 s while station 5 is away from 2 s to 3 s. The
        // join re-measures links over the live topology, which has no row
        // for a dark station, so every live station drops its link to 5
        // and 5's own measured links are empty. No motion epoch measures
        // again, so 5 must measure its links again when it returns.
        let mut cfg = NetConfig::paper_default(30, 21);
        cfg.route_mode = RouteMode::Distributed;
        cfg.heal = crate::faults::HealConfig::local();
        cfg.churn = crate::mobility::ChurnPlan::none()
            .leave(Duration::from_secs(1), 9)
            .leave_for(Duration::from_secs(2), 5, Duration::from_secs(1))
            .join(Duration::from_millis(2500), 9, Point::new(3.0, -4.0));
        let mut net = Network::new(cfg);
        assert_eq!(direct_links(&net, 5), (2, 2), "station 5's links at boot");
        let mut q = EventQueue::new();
        net.prime(&mut q);
        parn_sim::run(&mut net, &mut q, Time::ZERO + Duration::from_secs(6));
        assert!(net.alive[5] && net.alive[9]);
        let (from, to) = direct_links(&net, 5);
        assert!(from > 0, "station 5 came back with no links");
        assert!(to > 0, "no station links to station 5 after its return");
    }
}
