//! End-to-end simulation metrics.
//!
//! Collected by the network simulator and reported by every experiment
//! harness: delivery counts, loss causes (by collision type — the headline
//! result is that the scheme's collision losses are *zero*), delay
//! distributions, per-hop waiting times (to compare with the §7.2
//! Bernoulli model), and transmitter duty cycles.

use crate::packet::LossCause;
use parn_sim::stats::{Histogram, Tally, TimeWeightedHist};
use parn_sim::{Duration, Time};
use std::collections::HashMap;

/// Depths [`Metrics::queue_depth_hist`] bins one by one; deeper backlogs
/// pool in its overflow.
pub(crate) const QUEUE_DEPTH_LEVELS: usize = 4096;

/// Aggregated results of one run.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Packets generated by traffic sources (after warmup).
    pub generated: u64,
    /// Packets delivered end-to-end (after warmup).
    pub delivered: u64,
    /// Packet receptions lost, by cause (a packet is never silently
    /// dropped: every loss has a cause). These are per-*reception*
    /// counts — a packet retried over several failed hops contributes
    /// several losses — so `hop_attempts == hop_successes +
    /// total_losses` exactly.
    pub losses: HashMap<LossCause, u64>,
    /// Packets permanently dropped, by cause — per-*packet* settlement
    /// (each generated packet is delivered once, dropped once, or in
    /// flight at the end), so `generated == delivered + total_drops +
    /// in_flight_at_end` exactly.
    pub drops: HashMap<LossCause, u64>,
    /// Hop transmissions attempted.
    pub hop_attempts: u64,
    /// Hop transmissions received successfully.
    pub hop_successes: u64,
    /// End-to-end delay (seconds).
    pub e2e_delay: Tally,
    /// Per-hop MAC waiting time in *slots* (enqueue → transmission start).
    pub hop_wait_slots: Histogram,
    /// Hop count of delivered packets.
    pub hops_per_packet: Tally,
    /// Minimum SINR margin (dB above threshold) over successful receptions.
    pub sinr_margin_db: Tally,
    /// Per-station transmit air-time (seconds).
    pub tx_airtime: Vec<f64>,
    /// Observed simulated span used for rates (excludes warmup).
    pub measured_span: Duration,
    /// Bits delivered end-to-end (after warmup).
    pub bits_delivered: f64,
    /// Packets re-sent at the MAC layer (failed hop retransmissions).
    pub retransmissions: u64,
    /// Packets still queued/in flight at the end.
    pub in_flight_at_end: u64,
    /// Transmissions that landed (partly) outside the receiver's actual
    /// receive windows — a scheme self-check that must stay zero.
    pub schedule_violations: u64,
    /// Per-station packets generated (after warmup).
    pub per_station_generated: Vec<u64>,
    /// Per-station packets delivered *to* that station as final
    /// destination (after warmup).
    pub per_station_delivered: Vec<u64>,
    /// Per-station hop transmissions forwarded (after warmup) — relay load.
    pub per_station_forwarded: Vec<u64>,
    /// Hello beacons transmitted (piggyback synchronization overhead).
    pub hellos_sent: u64,
    /// Hello beacons received successfully.
    pub hellos_received: u64,
    /// Time-averaged total queued packets across all stations.
    pub mean_queue_depth: f64,
    /// Peak total queued packets.
    pub peak_queue_depth: f64,
    /// Time-averaged concurrent transmissions on the air (spatial reuse:
    /// values above 1 mean the channel is being reused in parallel).
    pub mean_concurrent_tx: f64,
    /// Time from a station going down to its first eviction (local heal)
    /// or to the oracle route rebuild acknowledging it — the
    /// failure-detection latency, in seconds.
    pub time_to_detect: Tally,
    /// Time from a station rebooting to its traffic-carrying re-admission
    /// (local heal: last evictor re-admits it; oracle: the post-recovery
    /// rebuild), in seconds.
    pub time_to_heal: Tally,
    /// Faults injected from the configured plan (crashes, clock jumps,
    /// jammer windows opening).
    pub faults_injected: u64,
    /// Local heal: neighbor suspicions raised (observer × neighbor).
    pub neighbors_suspected: u64,
    /// Local heal: neighbors evicted from an observer's routing view.
    pub neighbors_evicted: u64,
    /// Local heal: evicted neighbors re-admitted after being heard again.
    pub neighbors_readmitted: u64,
    /// Crashed stations that rebooted and rejoined.
    pub stations_recovered: u64,
    /// Route table rebuilds (oracle reroutes + local repairs) — the
    /// control overhead of healing. Stays zero in `RouteMode::Distributed`,
    /// where reconvergence is emergent from message exchange.
    pub route_repairs: u64,
    /// Distance-vector advertisements put on the air (distributed routing
    /// control overhead; also counts hello-piggybacked vectors).
    pub route_updates_sent: u64,
    /// Distance-vector advertisements received and integrated.
    pub route_updates_received: u64,
    /// Duration of each distributed-routing convergence episode, in
    /// seconds: from the first routing-table change after quiescence to
    /// the last change before the network went quiet again.
    pub converged_at: Tally,
    /// Forwards refused because the resolved next hop had already held the
    /// packet (transient distance-vector loops cut at the first revisit).
    pub routing_loops: u64,
    /// Full end-to-end delay distribution (seconds) — same samples as
    /// [`e2e_delay`](Metrics::e2e_delay), retained so the saturation
    /// sweep can report p50/p95/p99 tails, not just the mean.
    pub e2e_delay_hist: Histogram,
    /// Full hop-count distribution of delivered packets (companion to the
    /// [`hops_per_packet`](Metrics::hops_per_packet) tally).
    pub hops_hist: Histogram,
    /// Time-weighted distribution of the total queued-packet count across
    /// all stations: dwell time at each integer depth, so queue-depth
    /// percentiles mean "fraction of simulated time at or below this
    /// backlog" (frozen at run end by the simulator).
    pub queue_depth_hist: TimeWeightedHist,
    /// Geographic partitions that opened and later healed (shadowing
    /// transients ending).
    pub partitions_healed: u64,
    /// Simulation time (seconds) at which each partition healed — the
    /// reference point reconvergence latency is measured against.
    pub partition_healed_at: Tally,
    /// Byzantine misbehavior detected and neutralized: poisoned
    /// distance-vector entries rejected by the receiver-side sanity
    /// check, plus rogue out-of-window emissions observed on the air.
    pub violations_detected: u64,
    /// Reactive-jammer bursts actually fired (each burst targets one
    /// ongoing reception).
    pub reactive_jams: u64,
    /// Jammer air-time budget spent, in seconds, summed over every
    /// reactive-jam adversary in the plan.
    pub jam_budget_spent_s: f64,
    /// Readmissions suppressed by flap damping: the neighbour was heard
    /// again, but its decayed eviction-penalty score still exceeded the
    /// suppression threshold.
    pub readmissions_suppressed: u64,
    /// Motion epochs executed (each advances every alive mobile station
    /// one step and relocates it in the PHY).
    pub motion_epochs: u64,
    /// Individual station relocations applied across all motion epochs
    /// and churn re-admissions.
    pub station_moves: u64,
    /// Stations cleanly departing per the churn plan (permanent leaves
    /// and timed outages both count once at departure).
    pub leaves: u64,
    /// Stations joining: churn re-admissions plus timed-outage returns.
    pub joins: u64,
}

impl Metrics {
    /// Fresh metrics for `n` stations.
    pub fn new(n: usize) -> Metrics {
        Metrics {
            generated: 0,
            delivered: 0,
            losses: HashMap::new(),
            drops: HashMap::new(),
            hop_attempts: 0,
            hop_successes: 0,
            e2e_delay: Tally::new(),
            hop_wait_slots: Histogram::new(0.0, 100.0, 100),
            hops_per_packet: Tally::new(),
            sinr_margin_db: Tally::new(),
            tx_airtime: vec![0.0; n],
            measured_span: Duration::ZERO,
            bits_delivered: 0.0,
            retransmissions: 0,
            in_flight_at_end: 0,
            schedule_violations: 0,
            per_station_generated: vec![0; n],
            per_station_delivered: vec![0; n],
            per_station_forwarded: vec![0; n],
            hellos_sent: 0,
            hellos_received: 0,
            mean_queue_depth: 0.0,
            peak_queue_depth: 0.0,
            mean_concurrent_tx: 0.0,
            time_to_detect: Tally::new(),
            time_to_heal: Tally::new(),
            faults_injected: 0,
            neighbors_suspected: 0,
            neighbors_evicted: 0,
            neighbors_readmitted: 0,
            stations_recovered: 0,
            route_repairs: 0,
            route_updates_sent: 0,
            route_updates_received: 0,
            converged_at: Tally::new(),
            routing_loops: 0,
            // 0–60 s in 10 ms bins covers any delay a 20 s default run can
            // produce; quantiles are exact from retained samples anyway.
            e2e_delay_hist: Histogram::new(0.0, 60.0, 6000),
            hops_hist: Histogram::new(0.0, 64.0, 64),
            queue_depth_hist: TimeWeightedHist::new(Time::ZERO, 0.0, QUEUE_DEPTH_LEVELS),
            partitions_healed: 0,
            partition_healed_at: Tally::new(),
            violations_detected: 0,
            reactive_jams: 0,
            jam_budget_spent_s: 0.0,
            readmissions_suppressed: 0,
            motion_epochs: 0,
            station_moves: 0,
            leaves: 0,
            joins: 0,
        }
    }

    /// Record a loss.
    pub fn record_loss(&mut self, cause: LossCause) {
        *self.losses.entry(cause).or_insert(0) += 1;
    }

    /// Record a permanent packet drop.
    pub fn record_drop(&mut self, cause: LossCause) {
        *self.drops.entry(cause).or_insert(0) += 1;
    }

    /// Total losses across causes.
    pub fn total_losses(&self) -> u64 {
        self.losses.values().sum()
    }

    /// Total permanent packet drops across causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// The packet-settlement conservation invariant: every generated
    /// packet is delivered, permanently dropped, or still in flight.
    pub fn conservation_holds(&self) -> bool {
        self.generated == self.delivered + self.total_drops() + self.in_flight_at_end
    }

    /// Losses attributable to collisions (Types 1–3) — the quantity the
    /// scheme drives to zero.
    pub fn collision_losses(&self) -> u64 {
        [
            LossCause::CollisionType1,
            LossCause::CollisionType2,
            LossCause::CollisionType3,
        ]
        .iter()
        .map(|c| self.losses.get(c).copied().unwrap_or(0))
        .sum()
    }

    /// Fraction of hop attempts that succeeded.
    pub fn hop_success_rate(&self) -> f64 {
        if self.hop_attempts == 0 {
            1.0
        } else {
            self.hop_successes as f64 / self.hop_attempts as f64
        }
    }

    /// End-to-end delivery fraction of generated packets (packets still in
    /// flight at the end count against neither).
    pub fn delivery_rate(&self) -> f64 {
        let settled = self.generated.saturating_sub(self.in_flight_at_end);
        if settled == 0 {
            1.0
        } else {
            self.delivered as f64 / settled as f64
        }
    }

    /// Delivered goodput in bit/s over the measured span.
    pub fn goodput_bps(&self) -> f64 {
        let s = self.measured_span.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.bits_delivered / s
        }
    }

    /// Mean transmit duty cycle over stations.
    pub fn mean_tx_duty(&self) -> f64 {
        let s = self.measured_span.as_secs_f64();
        if s <= 0.0 || self.tx_airtime.is_empty() {
            return 0.0;
        }
        self.tx_airtime.iter().sum::<f64>() / (s * self.tx_airtime.len() as f64)
    }

    /// Machine-readable summary for the run-artifact layer
    /// (`BENCH_*.json`; schema in `docs/OBSERVABILITY.md`).
    ///
    /// Per-station vectors are folded to `{sum, mean, max}` summaries —
    /// at metro scale they hold 10⁵ entries and belong in purpose-built
    /// dumps, not in every artifact line.
    pub fn to_json(&self) -> parn_sim::Json {
        use parn_sim::json::{obj, Json};
        let vec_u64 = |v: &[u64]| {
            let sum: u64 = v.iter().sum();
            let max = v.iter().copied().max().unwrap_or(0);
            let mean = if v.is_empty() {
                0.0
            } else {
                sum as f64 / v.len() as f64
            };
            obj([
                ("sum", sum.into()),
                ("mean", mean.into()),
                ("max", max.into()),
            ])
        };
        let sum_air: f64 = self.tx_airtime.iter().sum();
        let max_air = self.tx_airtime.iter().cloned().fold(0.0, f64::max);
        let mean_air = if self.tx_airtime.is_empty() {
            0.0
        } else {
            sum_air / self.tx_airtime.len() as f64
        };
        let cause_map = |m: &HashMap<LossCause, u64>| {
            let mut entries: Vec<(String, Json)> = m
                .iter()
                .map(|(cause, n)| (format!("{cause:?}"), Json::UInt(*n)))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Obj(entries)
        };
        let losses = cause_map(&self.losses);
        let drops = cause_map(&self.drops);
        let top = obj([
            ("generated", self.generated.into()),
            ("delivered", self.delivered.into()),
            ("delivery_rate", self.delivery_rate().into()),
            ("hop_attempts", self.hop_attempts.into()),
            ("hop_successes", self.hop_successes.into()),
            ("hop_success_rate", self.hop_success_rate().into()),
            ("losses", losses),
            ("total_losses", self.total_losses().into()),
            ("drops", drops),
            ("total_drops", self.total_drops().into()),
            ("collision_losses", self.collision_losses().into()),
            ("schedule_violations", self.schedule_violations.into()),
            ("retransmissions", self.retransmissions.into()),
            ("in_flight_at_end", self.in_flight_at_end.into()),
            ("e2e_delay_s", self.e2e_delay.to_json()),
            ("hop_wait_slots", self.hop_wait_slots.to_json()),
            ("hops_per_packet", self.hops_per_packet.to_json()),
            ("sinr_margin_db", self.sinr_margin_db.to_json()),
            (
                "tx_airtime_s",
                obj([
                    ("sum", sum_air.into()),
                    ("mean", mean_air.into()),
                    ("max", max_air.into()),
                ]),
            ),
            (
                "per_station_generated",
                vec_u64(&self.per_station_generated),
            ),
            (
                "per_station_delivered",
                vec_u64(&self.per_station_delivered),
            ),
            (
                "per_station_forwarded",
                vec_u64(&self.per_station_forwarded),
            ),
            ("hellos_sent", self.hellos_sent.into()),
            ("hellos_received", self.hellos_received.into()),
            ("measured_span_s", self.measured_span.as_secs_f64().into()),
            ("bits_delivered", self.bits_delivered.into()),
            ("goodput_bps", self.goodput_bps().into()),
            ("mean_tx_duty", self.mean_tx_duty().into()),
            ("mean_queue_depth", self.mean_queue_depth.into()),
            ("peak_queue_depth", self.peak_queue_depth.into()),
            ("mean_concurrent_tx", self.mean_concurrent_tx.into()),
            (
                "heal",
                obj([
                    ("faults_injected", self.faults_injected.into()),
                    ("time_to_detect_s", self.time_to_detect.to_json()),
                    ("time_to_heal_s", self.time_to_heal.to_json()),
                    ("neighbors_suspected", self.neighbors_suspected.into()),
                    ("neighbors_evicted", self.neighbors_evicted.into()),
                    ("neighbors_readmitted", self.neighbors_readmitted.into()),
                    ("stations_recovered", self.stations_recovered.into()),
                    ("route_repairs", self.route_repairs.into()),
                ]),
            ),
        ]);
        // Each conditional block exists only when its subsystem left a
        // mark, so runs without it — and the golden fixtures pinning them
        // — stay byte-identical.
        let route_active = self.route_updates_sent > 0
            || self.route_updates_received > 0
            || self.converged_at.count() > 0
            || self.routing_loops > 0;
        let route = route_active.then(|| {
            obj([
                ("updates_sent", self.route_updates_sent.into()),
                ("updates_received", self.route_updates_received.into()),
                ("convergence_s", self.converged_at.to_json()),
                ("routing_loops", self.routing_loops.into()),
            ])
        });
        // A partition, Byzantine station or reactive jammer acted.
        let adversary_active = self.partitions_healed > 0
            || self.partition_healed_at.count() > 0
            || self.violations_detected > 0
            || self.reactive_jams > 0
            || self.jam_budget_spent_s > 0.0
            || self.readmissions_suppressed > 0;
        let adversary = adversary_active.then(|| {
            obj([
                ("partitions_healed", self.partitions_healed.into()),
                ("partition_healed_at_s", self.partition_healed_at.to_json()),
                ("violations_detected", self.violations_detected.into()),
                ("reactive_jams", self.reactive_jams.into()),
                ("jam_budget_spent_s", self.jam_budget_spent_s.into()),
                (
                    "readmissions_suppressed",
                    self.readmissions_suppressed.into(),
                ),
            ])
        });
        // Topology changed: motion epochs ran or churn fired.
        let mobility_active =
            self.motion_epochs > 0 || self.station_moves > 0 || self.leaves > 0 || self.joins > 0;
        let mobility = mobility_active.then(|| {
            obj([
                ("motion_epochs", self.motion_epochs.into()),
                ("station_moves", self.station_moves.into()),
                ("leaves", self.leaves.into()),
                ("joins", self.joins.into()),
            ])
        });
        with_blocks(
            top,
            [
                ("route", route),
                ("adversary", adversary),
                ("mobility", mobility),
            ],
        )
    }

    /// [`to_json`](Metrics::to_json) plus a `"saturation"` block with the
    /// capacity-envelope signals (offered vs carried load, delay and
    /// hop-count percentiles, the time-weighted queue-depth
    /// distribution). A separate method — not extra fields in `to_json` —
    /// so every pre-existing artifact and the golden regression fixtures
    /// pinning `to_json` stay byte-identical; harnesses that sweep to the
    /// knee (E7) opt in. Schema in `docs/OBSERVABILITY.md`.
    pub fn to_json_extended(&self) -> parn_sim::Json {
        use parn_sim::json::{obj, Json};
        let span = self.measured_span.as_secs_f64();
        let pps = |count: u64| {
            if span <= 0.0 {
                0.0
            } else {
                count as f64 / span
            }
        };
        let per_station_pps = |v: &[u64]| {
            let max = v.iter().copied().max().unwrap_or(0);
            let mean = if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<u64>() as f64 / v.len() as f64
            };
            let rate = |c: f64| if span <= 0.0 { 0.0 } else { c / span };
            obj([
                ("mean", rate(mean).into()),
                ("max", rate(max as f64).into()),
            ])
        };
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let percentiles = |h: &Histogram| {
            obj([
                ("count", h.count().into()),
                ("mean", opt(h.mean())),
                ("p50", opt(h.quantile(0.5))),
                ("p95", opt(h.quantile(0.95))),
                ("p99", opt(h.quantile(0.99))),
                ("max", opt(h.quantile(1.0))),
            ])
        };
        let saturation = obj([
            ("offered_pps", pps(self.generated).into()),
            ("carried_pps", pps(self.delivered).into()),
            (
                "per_station_offered_pps",
                per_station_pps(&self.per_station_generated),
            ),
            (
                "per_station_carried_pps",
                per_station_pps(&self.per_station_delivered),
            ),
            ("delay_s", percentiles(&self.e2e_delay_hist)),
            ("hops", percentiles(&self.hops_hist)),
            ("queue_depth", self.queue_depth_hist.to_json()),
        ]);
        with_blocks(self.to_json(), [("saturation", Some(saturation))])
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "generated {} delivered {} ({:.1}%), dropped {}, hop success {:.2}%, \
             collisions {} (t1 {} t2 {} t3 {}), mean delay {:.1} ms, \
             goodput {:.0} bit/s, mean tx duty {:.1}%",
            self.generated,
            self.delivered,
            100.0 * self.delivery_rate(),
            self.total_drops(),
            100.0 * self.hop_success_rate(),
            self.collision_losses(),
            self.losses.get(&LossCause::CollisionType1).unwrap_or(&0),
            self.losses.get(&LossCause::CollisionType2).unwrap_or(&0),
            self.losses.get(&LossCause::CollisionType3).unwrap_or(&0),
            self.e2e_delay.mean() * 1e3,
            self.goodput_bps(),
            100.0 * self.mean_tx_duty(),
        )
    }
}

/// Helper tracking whether a time falls after warmup.
#[derive(Clone, Copy, Debug)]
pub struct WarmupGate {
    /// Warmup end.
    pub warm_at: Time,
}

impl WarmupGate {
    /// True when `t` is in the measured region.
    pub fn measured(&self, t: Time) -> bool {
        t >= self.warm_at
    }
}

/// Append each present `(key, block)` to the top-level object `top`, in
/// order — the one path by which optional blocks join a metrics object.
fn with_blocks<const N: usize>(
    top: parn_sim::Json,
    blocks: [(&str, Option<parn_sim::Json>); N],
) -> parn_sim::Json {
    let parn_sim::Json::Obj(mut entries) = top else {
        unreachable!("metrics serialize to a JSON object");
    };
    entries.extend(
        blocks
            .into_iter()
            .filter_map(|(key, block)| Some((key.to_string(), block?))),
    );
    parn_sim::Json::Obj(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_accounting() {
        let mut m = Metrics::new(3);
        m.record_loss(LossCause::CollisionType1);
        m.record_loss(LossCause::CollisionType1);
        m.record_loss(LossCause::CollisionType3);
        m.record_loss(LossCause::Din);
        assert_eq!(m.total_losses(), 4);
        assert_eq!(m.collision_losses(), 3);
    }

    #[test]
    fn drop_accounting_and_conservation() {
        let mut m = Metrics::new(3);
        m.generated = 10;
        m.delivered = 6;
        m.record_drop(LossCause::StationFailed);
        m.record_drop(LossCause::RetriesExhausted);
        m.record_drop(LossCause::RetriesExhausted);
        m.in_flight_at_end = 1;
        assert_eq!(m.total_drops(), 3);
        assert!(m.conservation_holds());
        m.in_flight_at_end = 2;
        assert!(!m.conservation_holds());
        let s = m.to_json().to_string();
        assert!(s.contains("\"drops\""), "{s}");
        assert!(s.contains("RetriesExhausted"), "{s}");
        assert!(s.contains("time_to_detect_s"), "{s}");
    }

    #[test]
    fn route_block_appears_only_with_distributed_activity() {
        let mut m = Metrics::new(2);
        let s = m.to_json().to_string();
        assert!(!s.contains("\"route\""), "{s}");
        m.route_updates_sent = 3;
        m.route_updates_received = 2;
        m.converged_at.add(0.25);
        let s = m.to_json().to_string();
        assert!(s.contains("\"route\""), "{s}");
        assert!(s.contains("\"updates_sent\":3"), "{s}");
        assert!(s.contains("\"convergence_s\""), "{s}");
    }

    #[test]
    fn adversary_block_appears_only_with_adversarial_activity() {
        let mut m = Metrics::new(2);
        let s = m.to_json().to_string();
        assert!(!s.contains("\"adversary\""), "{s}");
        m.partitions_healed = 1;
        m.partition_healed_at.add(9.0);
        m.violations_detected = 4;
        m.reactive_jams = 3;
        m.jam_budget_spent_s = 0.125;
        m.readmissions_suppressed = 2;
        let s = m.to_json().to_string();
        assert!(s.contains("\"adversary\""), "{s}");
        assert!(s.contains("\"partitions_healed\":1"), "{s}");
        assert!(s.contains("\"violations_detected\":4"), "{s}");
        assert!(s.contains("\"jam_budget_spent_s\":0.125"), "{s}");
        assert!(s.contains("\"readmissions_suppressed\":2"), "{s}");
    }

    #[test]
    fn mobility_block_appears_only_with_dynamic_topology() {
        let mut m = Metrics::new(2);
        let s = m.to_json().to_string();
        assert!(!s.contains("\"mobility\""), "{s}");
        m.motion_epochs = 5;
        m.station_moves = 10;
        m.leaves = 2;
        m.joins = 3;
        let s = m.to_json().to_string();
        assert!(s.contains("\"mobility\""), "{s}");
        assert!(s.contains("\"motion_epochs\":5"), "{s}");
        assert!(s.contains("\"station_moves\":10"), "{s}");
        assert!(s.contains("\"leaves\":2"), "{s}");
        assert!(s.contains("\"joins\":3"), "{s}");
    }

    #[test]
    fn extended_json_adds_saturation_without_touching_base() {
        let mut m = Metrics::new(2);
        m.generated = 20;
        m.delivered = 10;
        m.per_station_generated = vec![12, 8];
        m.per_station_delivered = vec![6, 4];
        m.measured_span = Duration::from_secs(10);
        for d in [0.01, 0.02, 0.03, 0.5] {
            m.e2e_delay_hist.add(d);
        }
        for h in [1.0, 2.0, 3.0, 5.0] {
            m.hops_hist.add(h);
        }
        m.queue_depth_hist.set(Time::from_secs(4), 3.0);
        m.queue_depth_hist.freeze(Time::from_secs(10));

        // Base serialization must be identical with or without the
        // extension existing (golden fixtures depend on this).
        let base = m.to_json().to_string();
        assert!(!base.contains("saturation"), "{base}");
        let ext = m.to_json_extended().to_string();
        assert!(
            ext.starts_with(&base[..base.len() - 1]),
            "extension must append only"
        );
        assert!(ext.contains("\"saturation\""), "{ext}");
        assert!(ext.contains("\"offered_pps\":2"), "{ext}");
        assert!(ext.contains("\"carried_pps\":1"), "{ext}");
        assert!(ext.contains("\"p95\""), "{ext}");
        assert!(ext.contains("\"queue_depth\""), "{ext}");
        // Per-station offered: mean 10/10 s = 1, max 12/10 s = 1.2.
        assert!(ext.contains("\"max\":1.2"), "{ext}");
    }

    #[test]
    fn rates() {
        let mut m = Metrics::new(1);
        m.generated = 10;
        m.delivered = 8;
        m.in_flight_at_end = 2;
        m.hop_attempts = 20;
        m.hop_successes = 20;
        assert!((m.delivery_rate() - 1.0).abs() < 1e-12);
        assert!((m.hop_success_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn goodput_and_duty() {
        let mut m = Metrics::new(2);
        m.measured_span = Duration::from_secs(10);
        m.bits_delivered = 5000.0;
        m.tx_airtime = vec![2.0, 4.0];
        assert!((m.goodput_bps() - 500.0).abs() < 1e-9);
        assert!((m.mean_tx_duty() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_benign() {
        let m = Metrics::new(0);
        assert_eq!(m.goodput_bps(), 0.0);
        assert_eq!(m.mean_tx_duty(), 0.0);
        assert_eq!(m.delivery_rate(), 1.0);
        assert_eq!(m.hop_success_rate(), 1.0);
        assert!(!m.summary().is_empty());
    }

    #[test]
    fn warmup_gate() {
        let g = WarmupGate {
            warm_at: Time::from_secs(2),
        };
        assert!(!g.measured(Time::from_secs(1)));
        assert!(g.measured(Time::from_secs(2)));
    }
}
