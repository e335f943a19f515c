//! Simulation configuration.
//!
//! One [`NetConfig`] describes a complete scenario: placement, radio
//! parameters, the schedule function, power control, routing thresholds,
//! traffic, and run length. Defaults follow the paper's running example
//! (§6–§7): free-space loss, ~20 dB processing gain, 5 dB margin,
//! `p = 0.3`, quarter-slot packets, minimum-energy routing.

use crate::faults::{FaultPlan, HealConfig};
use crate::mobility::{ChurnPlan, MobilityConfig};
use crate::power::PowerPolicy;
use parn_phys::placement::Placement;
use parn_phys::{PowerW, ReceptionCriterion};
use parn_sched::SchedParams;
use parn_sim::Duration;

pub use crate::traffic::{DestPolicy, SourceModel, TrafficConfig};

/// How neighbours keep their clock models fresh after the initial
/// rendezvous.
#[derive(Clone, Debug)]
pub enum SyncMode {
    /// Idealized: every `resync_interval`, each station exchanges clock
    /// readings with every tracked neighbour out of band.
    Oracle,
    /// No maintenance after the boot rendezvous: clock models keep their
    /// single boot sample forever (staleness experiments).
    None,
    /// Realistic (§7): every successful reception carries the sender's
    /// clock reading in its header (the receiver refines its model of the
    /// sender for free), and each station additionally beacons a one-hop
    /// `Hello` to every routing neighbour at this interval, through the
    /// normal MAC, paying real air time.
    Piggyback {
        /// Hello beacon cadence.
        hello_interval: Duration,
    },
}

/// Clock and schedule-maintenance parameters.
#[derive(Clone, Debug)]
pub struct ClockConfig {
    /// Maximum clock rate error magnitude (ppm).
    pub max_ppm: f64,
    /// Interval between clock-sample exchanges with neighbours
    /// (Oracle mode).
    pub resync_interval: Duration,
    /// Guard band shaved off each predicted window edge.
    pub guard: Duration,
    /// Maintenance mechanism.
    pub sync: SyncMode,
}

/// Which PHY gain backend the simulator builds.
#[derive(Clone, Debug)]
pub enum PhyBackend {
    /// The reference dense gain matrix: exact, O(M²) memory. Caps out
    /// near 10⁴ stations.
    Dense,
    /// Spatially indexed gains: O(M) memory, on-demand gain computation,
    /// range-bounded neighbour queries. Without far-field aggregation it
    /// produces bit-identical simulations to `Dense` for deterministic
    /// propagation models.
    Grid {
        /// When set, interference beyond a near radius is aggregated per
        /// grid cell instead of summed per station — required to push
        /// past ~10⁴ stations. Introduces a bounded SINR error on the far
        /// tail (see `parn_phys::sinr::SinrTracker::with_far_field`).
        far_field: Option<FarFieldConfig>,
    },
}

/// Far-field aggregation knobs (Grid backend only).
#[derive(Clone, Copy, Debug)]
pub struct FarFieldConfig {
    /// Near radius as a multiple of the usable reach `reach_factor/√ρ`;
    /// interference from inside is exact, beyond is aggregated. 1.0 keeps
    /// every usable link and every significant interferer exact.
    pub near_radius_factor: f64,
    /// Extra relative staleness the far-tail snapshot cache may accept
    /// before recomputing (0 recomputes on every change).
    pub tolerance: f64,
}

impl FarFieldConfig {
    /// Paper-calibrated default: exact interference out to the usable
    /// reach, 5% cache tolerance — both error terms together stay well
    /// under the 5 dB β margin.
    pub fn default_for_paper() -> FarFieldConfig {
        FarFieldConfig {
            near_radius_factor: 1.0,
            tolerance: 0.05,
        }
    }
}

/// How routing tables are computed.
#[derive(Clone, Debug)]
pub enum RouteMode {
    /// All-pairs Dijkstra from a central view (reference), a source's
    /// row searched only as far as its reads reach.
    Centralized,
    /// Distributed asynchronous Bellman–Ford run as a real protocol (§6.2):
    /// every station keeps a private distance-vector state and learns
    /// routes only from advertisements carried over the scheduled channel.
    /// Converges to the same minimum-energy fixed point as `Centralized`;
    /// tie-breaks may differ. Tuned by [`DvConfig`].
    Distributed,
    /// Direct-edge table only (O(E) memory): valid when traffic is
    /// single-hop (`DestPolicy::Neighbors`), the regime the early
    /// metro-scale experiments ran in.
    OneHop,
    /// Greedy geographic forwarding (O(E) memory): each hop relays to the
    /// usable neighbour strictly closest to the destination's position.
    /// The all-pairs-free option that still routes *multi-hop* — required
    /// for far-destination traffic (`DestPolicy::Gravity`/`Hotspot`) at
    /// metro scale, where a dense table would need M² entries. Packets
    /// that reach a greedy dead end are dropped as `Unroutable` and
    /// accounted.
    Greedy,
}

/// Distance-vector protocol knobs (`RouteMode::Distributed`).
#[derive(Clone, Copy, Debug)]
pub struct DvConfig {
    /// Cadence of each station's periodic full-vector advertisement to
    /// every link neighbour (the loss-recovery net; triggered updates
    /// carry most changes sooner).
    pub update_interval: Duration,
    /// Delay between a routing-table change and the triggered update it
    /// provokes — batches bursts of changes into one advertisement round.
    pub triggered_delay: Duration,
    /// Hold-down: after a station loses its route to a destination, it
    /// ignores third-party claims for that destination for this long
    /// (bounds count-to-infinity; first-hand link restoration is exempt).
    pub holddown: Duration,
    /// A convergence episode is declared over when no routing table
    /// anywhere has changed for this long.
    pub convergence_quiet: Duration,
}

impl DvConfig {
    /// Defaults scaled to the 10 ms slot: triggered updates batch at one
    /// slot, periodic refresh every 40 slots, hold-down just above the
    /// refresh cadence, quiescence after 20 quiet slots.
    pub fn paper_default() -> DvConfig {
        DvConfig {
            update_interval: Duration::from_millis(400),
            triggered_delay: Duration::from_millis(10),
            holddown: Duration::from_millis(500),
            convergence_quiet: Duration::from_millis(200),
        }
    }

    /// Provenance serialization (see [`NetConfig::to_json`]).
    pub fn to_json(&self) -> parn_sim::Json {
        use parn_sim::json::obj;
        obj([
            (
                "update_interval_s",
                self.update_interval.as_secs_f64().into(),
            ),
            (
                "triggered_delay_s",
                self.triggered_delay.as_secs_f64().into(),
            ),
            ("holddown_s", self.holddown.as_secs_f64().into()),
            (
                "convergence_quiet_s",
                self.convergence_quiet.as_secs_f64().into(),
            ),
        ])
    }
}

/// The §7.3 rule for protecting nearby neighbours' receive windows.
#[derive(Clone, Debug)]
pub struct NeighborProtection {
    /// Whether the rule is active.
    pub enabled: bool,
    /// An interferer is "significant" when it would add at least this
    /// fraction of the ambient interference (the paper's ¼ ⇒ ~1 dB).
    pub significance_fraction: f64,
}

/// The complete scenario description.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Root random seed; every run with the same config is identical.
    pub seed: u64,
    /// Station placement.
    pub placement: Placement,
    /// Reception criterion (design rate, bandwidth, margin).
    pub criterion: ReceptionCriterion,
    /// Schedule function (slot length, receive duty cycle, salt).
    pub sched: SchedParams,
    /// Clock behaviour and schedule maintenance.
    pub clock: ClockConfig,
    /// Power delivered to the intended receiver under power control
    /// (§6.1: the absolute level is not critical; it must simply dominate
    /// thermal noise).
    pub delivered_power: PowerW,
    /// When set, disables §6.1 power control: every transmission uses this
    /// fixed power regardless of hop length (ablation A1).
    pub fixed_power: Option<PowerW>,
    /// Transmitter power ceiling.
    pub max_power: PowerW,
    /// Thermal noise floor at each receiver.
    pub thermal_noise: PowerW,
    /// Extra constant interference representing the rest of the metro
    /// beyond the simulated stations (0 for self-contained scenarios).
    pub external_din: PowerW,
    /// Log-normal shadowing standard deviation (dB) applied on top of
    /// free-space loss; 0 disables it. Stations observe the shadowed
    /// gains, so routing and power control adapt (paper §3.5's
    /// "attenuated when there are obstructions" case).
    pub shadowing_sigma_db: f64,
    /// Self-interference power gain (duplexer leakage; effectively ∞).
    pub self_gain: f64,
    /// Despreading channels per receiver (§5: "GPS receivers often have
    /// six or twelve").
    pub despreaders: usize,
    /// Reach factor: a hop is usable when its distance is at most
    /// `reach × 1/√ρ` (the paper doubles the characteristic distance ⇒ 2).
    pub reach_factor: f64,
    /// §7.3 neighbour-protection rule.
    pub protection: NeighborProtection,
    /// Traffic.
    pub traffic: TrafficConfig,
    /// How far ahead the MAC searches for a usable window, in slots. The
    /// horizon bounds the search and sets the retry time: a station that
    /// finds nothing within it tries again at the horizon (`MacRetry`).
    /// The search grows its look-ahead from 8 slots towards the horizon,
    /// so planning cost follows the distance to the first usable window,
    /// not the horizon.
    pub mac_horizon_slots: u64,
    /// Hop retransmission limit before a packet is abandoned.
    pub max_retries: u32,
    /// Packets per slot: packet air time = slot / divisor (thesis: 4).
    pub packet_divisor: u64,
    /// Maximum simultaneously planned (committed, not yet sent)
    /// transmissions per station. More than one keeps the transmitter busy
    /// across its windows — the no-head-of-line-blocking behaviour that
    /// lets §7.2's duty cycles approach 50%.
    pub max_outstanding_plans: usize,
    /// Worker threads for the SINR sweep, exact or far-field (1 = fully
    /// inline). Results are bit-identical at any value — shards merge in
    /// a fixed work-list order — so this is purely a wall-clock knob.
    pub threads: usize,
    /// PHY gain backend (dense reference matrix or spatial index).
    pub phy_backend: PhyBackend,
    /// Routing-table construction mode.
    pub route_mode: RouteMode,
    /// Distance-vector exchange tuning (used by `RouteMode::Distributed`;
    /// inert otherwise).
    pub dv: DvConfig,
    /// Injected faults: a deterministic script of crashes,
    /// crash-recoveries, clock jumps, and jammer windows (see
    /// [`crate::faults`]). Empty by default.
    pub faults: FaultPlan,
    /// How the network heals around the injected faults: oracle route
    /// rebuilds on a timer, or local per-neighbor detection and repair.
    pub heal: HealConfig,
    /// Continuous station motion (see [`crate::mobility`]). `None` (the
    /// default) keeps every position static and every byte of config and
    /// metrics JSON identical to pre-mobility builds.
    pub mobility: Option<MobilityConfig>,
    /// Scripted membership churn: clean departures and re-admissions
    /// (see [`crate::mobility`]). Empty by default.
    pub churn: ChurnPlan,
    /// Simulated run length.
    pub run_for: Duration,
    /// Initial portion excluded from steady-state statistics.
    pub warmup: Duration,
}

impl NetConfig {
    /// The paper-flavoured default scenario: `n` stations uniform in a
    /// disk sized for density ρ = 1 station / 100 m² (characteristic
    /// distance 10 m), 100 kb/s design rate in 10 MHz (20 dB processing
    /// gain), 5 dB margin, 10 ms slots at `p = 0.3`.
    pub fn paper_default(n: usize, seed: u64) -> NetConfig {
        let rho = 0.01; // stations per m²
        let radius = (n as f64 / (std::f64::consts::PI * rho)).sqrt();
        NetConfig {
            seed,
            placement: Placement::UniformDisk { n, radius },
            criterion: ReceptionCriterion::with_5db_margin(1e5, 1e7),
            sched: SchedParams::paper_default(),
            clock: ClockConfig {
                max_ppm: 20.0,
                resync_interval: Duration::from_secs(5),
                guard: Duration::from_micros(200),
                sync: SyncMode::Oracle,
            },
            delivered_power: PowerW(1e-6),
            fixed_power: None,
            max_power: PowerW(1.0),
            thermal_noise: PowerW(1e-13),
            external_din: PowerW::ZERO,
            shadowing_sigma_db: 0.0,
            self_gain: 1e12,
            despreaders: 8,
            reach_factor: 2.0,
            protection: NeighborProtection {
                enabled: true,
                significance_fraction: 0.25,
            },
            traffic: TrafficConfig {
                arrivals_per_station_per_sec: 2.0,
                dest: DestPolicy::UniformAll,
                source: SourceModel::Poisson,
            },
            mac_horizon_slots: 200,
            max_retries: 10,
            packet_divisor: 4,
            max_outstanding_plans: 8,
            threads: 1,
            phy_backend: PhyBackend::Dense,
            route_mode: RouteMode::Centralized,
            dv: DvConfig::paper_default(),
            faults: FaultPlan::none(),
            heal: HealConfig::oracle(),
            mobility: None,
            churn: ChurnPlan::none(),
            run_for: Duration::from_secs(20),
            warmup: Duration::from_secs(2),
        }
    }

    /// Serialize the complete scenario for the provenance manifest in
    /// `BENCH_*.json` artifacts (schema in `docs/OBSERVABILITY.md`).
    ///
    /// Every field that shapes the run is included, so an artifact line is
    /// enough to reconstruct the configuration exactly (modulo code
    /// version, which provenance carries as the git SHA).
    pub fn to_json(&self) -> parn_sim::Json {
        use parn_sim::json::{obj, Json};
        let placement = match &self.placement {
            Placement::UniformDisk { n, radius } => obj([
                ("kind", "uniform_disk".into()),
                ("n", (*n).into()),
                ("radius_m", (*radius).into()),
            ]),
            Placement::PoissonDisk { density, radius } => obj([
                ("kind", "poisson_disk".into()),
                ("density_per_m2", (*density).into()),
                ("radius_m", (*radius).into()),
            ]),
            Placement::Grid {
                nx,
                ny,
                spacing,
                jitter,
            } => obj([
                ("kind", "grid".into()),
                ("nx", (*nx).into()),
                ("ny", (*ny).into()),
                ("spacing_m", (*spacing).into()),
                ("jitter_m", (*jitter).into()),
            ]),
            Placement::Clustered {
                clusters,
                per_cluster,
                sigma,
                radius,
            } => obj([
                ("kind", "clustered".into()),
                ("clusters", (*clusters).into()),
                ("per_cluster", (*per_cluster).into()),
                ("sigma_m", (*sigma).into()),
                ("radius_m", (*radius).into()),
            ]),
        };
        let sync = match &self.clock.sync {
            SyncMode::Oracle => obj([("kind", "oracle".into())]),
            SyncMode::None => obj([("kind", "none".into())]),
            SyncMode::Piggyback { hello_interval } => obj([
                ("kind", "piggyback".into()),
                ("hello_interval_s", hello_interval.as_secs_f64().into()),
            ]),
        };
        let phy_backend = match &self.phy_backend {
            PhyBackend::Dense => obj([("kind", "dense".into())]),
            PhyBackend::Grid { far_field } => obj([
                ("kind", "grid".into()),
                (
                    "far_field",
                    match far_field {
                        None => Json::Null,
                        Some(ff) => obj([
                            ("near_radius_factor", ff.near_radius_factor.into()),
                            ("tolerance", ff.tolerance.into()),
                        ]),
                    },
                ),
            ]),
        };
        let route_mode = match self.route_mode {
            RouteMode::Centralized => "centralized",
            RouteMode::Distributed => "distributed",
            RouteMode::OneHop => "one_hop",
            RouteMode::Greedy => "greedy",
        };
        let mut top = obj([
            ("seed", self.seed.into()),
            ("placement", placement),
            (
                "criterion",
                obj([
                    ("rate_bps", self.criterion.rate_bps.into()),
                    ("bandwidth_hz", self.criterion.bandwidth_hz.into()),
                    ("margin", self.criterion.margin.into()),
                ]),
            ),
            (
                "sched",
                obj([
                    ("slot_s", self.sched.slot.as_secs_f64().into()),
                    ("rx_prob", self.sched.rx_prob.into()),
                    ("salt", self.sched.salt.into()),
                ]),
            ),
            (
                "clock",
                obj([
                    ("max_ppm", self.clock.max_ppm.into()),
                    (
                        "resync_interval_s",
                        self.clock.resync_interval.as_secs_f64().into(),
                    ),
                    ("guard_s", self.clock.guard.as_secs_f64().into()),
                    ("sync", sync),
                ]),
            ),
            ("delivered_power_w", self.delivered_power.value().into()),
            (
                "fixed_power_w",
                match self.fixed_power {
                    None => Json::Null,
                    Some(p) => p.value().into(),
                },
            ),
            ("max_power_w", self.max_power.value().into()),
            ("thermal_noise_w", self.thermal_noise.value().into()),
            ("external_din_w", self.external_din.value().into()),
            ("shadowing_sigma_db", self.shadowing_sigma_db.into()),
            ("self_gain", self.self_gain.into()),
            ("despreaders", self.despreaders.into()),
            ("reach_factor", self.reach_factor.into()),
            (
                "protection",
                obj([
                    ("enabled", self.protection.enabled.into()),
                    (
                        "significance_fraction",
                        self.protection.significance_fraction.into(),
                    ),
                ]),
            ),
            ("traffic", self.traffic.to_json()),
            ("mac_horizon_slots", self.mac_horizon_slots.into()),
            ("max_retries", u64::from(self.max_retries).into()),
            ("packet_divisor", self.packet_divisor.into()),
            ("max_outstanding_plans", self.max_outstanding_plans.into()),
            ("threads", self.threads.into()),
            ("phy_backend", phy_backend),
            ("route_mode", route_mode.into()),
            ("dv", self.dv.to_json()),
            ("faults", self.faults.to_json()),
            ("heal", self.heal.to_json()),
            ("run_for_s", self.run_for.as_secs_f64().into()),
            ("warmup_s", self.warmup.as_secs_f64().into()),
        ]);
        // Dynamic-topology blocks are appended only when in use, keeping
        // static-scenario provenance byte-identical to pre-mobility
        // builds (the golden-metrics guarantee).
        if let Json::Obj(entries) = &mut top {
            if let Some(m) = &self.mobility {
                entries.push(("mobility".into(), m.to_json()));
            }
            if !self.churn.is_empty() {
                entries.push(("churn".into(), self.churn.to_json()));
            }
        }
        top
    }

    /// Air time of one fixed-size packet (slot / divisor).
    pub fn packet_airtime(&self) -> Duration {
        self.sched.slot / self.packet_divisor
    }

    /// Payload carried per packet at the design rate.
    pub fn packet_bits(&self) -> f64 {
        self.criterion.rate_bps * self.packet_airtime().as_secs_f64()
    }

    /// The SINR threshold every reception must hold.
    pub fn sinr_threshold(&self) -> f64 {
        self.criterion.threshold()
    }

    /// The §6.1 power control: `fixed_power` when set, else deliver
    /// `delivered_power` under the `max_power` ceiling.
    pub fn power_policy(&self) -> PowerPolicy {
        match self.fixed_power {
            Some(p) => PowerPolicy::Fixed(p),
            None => PowerPolicy::Controlled {
                target: self.delivered_power,
                max: self.max_power,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_self_consistent() {
        let c = NetConfig::paper_default(100, 1);
        assert_eq!(c.packet_airtime(), Duration::from_micros(2500));
        // 100 kb/s × 2.5 ms = 250 bits per packet.
        assert!((c.packet_bits() - 250.0).abs() < 1e-9);
        // ~20 dB processing gain ⇒ threshold well below 0 dB.
        assert!(c.sinr_threshold() < 0.1);
        assert!(c.sinr_threshold() > 0.001);
    }

    #[test]
    fn default_density_sizing() {
        let c = NetConfig::paper_default(314, 1);
        match c.placement {
            Placement::UniformDisk { n, radius } => {
                assert_eq!(n, 314);
                // ρ = n/(πR²) = 0.01.
                let rho = n as f64 / (std::f64::consts::PI * radius * radius);
                assert!((rho - 0.01).abs() < 1e-6);
            }
            _ => panic!("unexpected placement"),
        }
    }

    #[test]
    fn delivered_power_dominates_thermal() {
        let c = NetConfig::paper_default(100, 1);
        assert!(c.delivered_power.value() > 1e4 * c.thermal_noise.value());
    }

    #[test]
    fn to_json_omits_dynamic_topology_when_unused() {
        let c = NetConfig::paper_default(10, 1);
        let s = c.to_json().to_string();
        assert!(!s.contains("\"mobility\""), "{s}");
        assert!(!s.contains("\"churn\""), "{s}");
    }

    #[test]
    fn to_json_embeds_mobility_and_churn_when_set() {
        use crate::mobility::MobilityConfig;
        let mut c = NetConfig::paper_default(10, 1);
        c.mobility = Some(MobilityConfig::paper_default());
        c.churn = crate::mobility::ChurnPlan::none().leave_for(
            Duration::from_secs(2),
            3,
            Duration::from_secs(1),
        );
        let s = c.to_json().to_string();
        assert!(s.contains("\"mobility\""), "{s}");
        assert!(s.contains("\"model\":\"random_waypoint\""), "{s}");
        assert!(s.contains("\"churn\""), "{s}");
        assert!(s.contains("\"kind\":\"leave\""), "{s}");
    }

    #[test]
    fn to_json_embeds_the_full_fault_plan() {
        // Regression: `failures` used to serialize as a bare count, making
        // artifacts irreproducible from their own provenance.
        let mut c = NetConfig::paper_default(10, 1);
        c.faults = FaultPlan::none()
            .crash(Duration::from_secs(4), 3)
            .crash_recover(Duration::from_secs(5), 7, Duration::from_secs(2));
        let s = c.to_json().to_string();
        assert!(s.contains("\"kind\":\"crash\""), "{s}");
        assert!(s.contains("\"kind\":\"crash_recover\""), "{s}");
        assert!(s.contains("\"down_for_s\""), "{s}");
        assert!(s.contains("\"station\":7"), "{s}");
        assert!(s.contains("\"heal\""), "{s}");
        assert!(s.contains("\"oracle\""), "{s}");
    }
}
