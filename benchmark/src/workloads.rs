//! The four workloads: configuration from a seed, the timed set-up, and the
//! correctness gates each repetition must pass.
//!
//! Every workload is an open loop in simulated time: Poisson arrivals are
//! drawn inside the simulator from the seed, so a slower program does not
//! receive less load.

use parn_core::mobility::uniform_in_disk;
use parn_core::{
    ChurnPlan, DestPolicy, FarFieldConfig, FaultPlan, HealConfig, Metrics, MobilityConfig,
    MobilityModel, NetConfig, Network, PhyBackend, RouteMode,
};
use parn_phys::placement::Placement;
use parn_phys::PowerW;
use parn_sim::{Duration, Rng};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// n = 50,000 single-hop neighbour traffic on the grid with far-field
    /// aggregation: the PHY (far-field sweep, gain cache, worker pool)
    /// does most of the work and routing is trivial.
    MetroFar,
    /// n = 1,024 greedy multi-hop gravity traffic at the E7 knee rate
    /// (4 pps): MAC planning, reception/forwarding and the event queue
    /// dominate.
    GravityKnee,
    /// n = 100 distance-vector routing with local healing over exact dense
    /// SINR, through the E4 relay-crash plan: dv routing and MAC planning.
    DvChurn,
    /// n = 500 random-waypoint mobility plus join/leave churn over the
    /// exact grid with an all-pairs table: the only workload that writes
    /// to the gain index and recomputes routes.
    MobilityReroute,
}

/// Full size (the measured workloads) or toy size (n ≤ 200, ≤ 2 s
/// simulated except dv_churn's 6 s; smoke mode and the
/// loop-equivalence test).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MetroFar,
        Workload::GravityKnee,
        Workload::DvChurn,
        Workload::MobilityReroute,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroFar => "metro_far",
            Workload::GravityKnee => "gravity_knee",
            Workload::DvChurn => "dv_churn",
            Workload::MobilityReroute => "mobility_reroute",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's configuration at `seed`. The dv_churn fault plan is
    /// not part of it: it depends on the built network (see
    /// [`Workload::build`]).
    pub fn config(self, seed: u64, scale: Scale) -> NetConfig {
        let toy = scale == Scale::Toy;
        let (n, run_ms, warm_ms) = match (self, toy) {
            (Workload::MetroFar, false) => (50_000, 2_000, 500),
            (Workload::GravityKnee, false) => (1_000, 5_000, 1_250),
            (Workload::DvChurn, false) => (100, 12_000, 1_000),
            (Workload::MobilityReroute, false) => (500, 2_000, 500),
            (Workload::MetroFar, true) => (200, 1_000, 250),
            (Workload::GravityKnee, true) => (200, 2_000, 500),
            // Shorter outages end before any neighbour evicts the relay.
            (Workload::DvChurn, true) => (60, 6_000, 500),
            (Workload::MobilityReroute, true) => (150, 1_000, 250),
        };
        let mut cfg = NetConfig::paper_default(n, seed);
        cfg.run_for = Duration::from_millis(run_ms);
        cfg.warmup = Duration::from_millis(warm_ms);
        let far = PhyBackend::Grid {
            far_field: Some(FarFieldConfig::default_for_paper()),
        };
        match self {
            Workload::MetroFar => {
                cfg.phy_backend = far;
                cfg.route_mode = RouteMode::OneHop;
                cfg.traffic.dest = DestPolicy::Neighbors;
                cfg.traffic.arrivals_per_station_per_sec = 0.5;
                cfg.threads = sweep_threads();
            }
            Workload::GravityKnee => {
                place_on_lattice(&mut cfg, n);
                cfg.phy_backend = far;
                cfg.route_mode = RouteMode::Greedy;
                cfg.traffic.dest = DestPolicy::Gravity { exponent: 2.0 };
                cfg.traffic.arrivals_per_station_per_sec = 4.0;
            }
            Workload::DvChurn => {
                place_on_lattice(&mut cfg, n);
                cfg.route_mode = RouteMode::Distributed;
                cfg.heal = HealConfig::local();
                cfg.traffic.arrivals_per_station_per_sec = 2.0;
            }
            Workload::MobilityReroute => {
                cfg.phy_backend = PhyBackend::Grid { far_field: None };
                cfg.traffic.arrivals_per_station_per_sec = 0.5;
                cfg.mobility = Some(MobilityConfig {
                    model: MobilityModel::RandomWaypoint { speed: 1.5 },
                    epoch: Duration::from_millis(200),
                });
                cfg.churn = mobility_churn(seed, n, cfg.run_for, cfg.placement.region().radius);
            }
        }
        cfg
    }

    /// The timed set-up: `Network::new`, plus for dv_churn the choice of
    /// fault victims on the built network. Returns the network and the
    /// configuration it now runs (`Network::run` on that configuration
    /// reproduces the run exactly).
    pub fn build(self, mut cfg: NetConfig) -> (Network, NetConfig) {
        let mut net = Network::new(cfg.clone());
        if self == Workload::DvChurn {
            cfg.faults = relay_faults(&net, cfg.run_for);
            net.set_fault_plan(cfg.faults.clone());
        }
        (net, cfg)
    }

    /// Whether stations stay where they were placed.
    pub fn static_topology(self) -> bool {
        self != Workload::MobilityReroute
    }

    /// Workload-specific correctness gates; each failure is described.
    /// `full_invalidations` is the run's `phys.sinr.full_invalidations`.
    pub fn check(self, m: &Metrics, full_invalidations: u64) -> Vec<String> {
        let mut failures = Vec::new();
        match self {
            Workload::MetroFar => {}
            Workload::GravityKnee => {
                if m.hops_per_packet.mean() <= 1.0 {
                    failures.push(format!(
                        "gravity traffic is not multi-hop: mean hops {:.3}",
                        m.hops_per_packet.mean()
                    ));
                }
            }
            Workload::DvChurn => {
                if m.route_repairs != 0 {
                    failures.push(format!(
                        "distributed routing fell back to {} global repairs",
                        m.route_repairs
                    ));
                }
                // A heal sample needs a convergence episode to close, which
                // at some seeds never happens: evictions keep the dv
                // exchange busy. Detection of every crash does not depend
                // on the seed.
                if m.time_to_detect.count() != CRASHES as u64 {
                    failures.push(format!(
                        "{} of {CRASHES} crashed relays were detected",
                        m.time_to_detect.count()
                    ));
                }
            }
            Workload::MobilityReroute => {
                if m.station_moves == 0 {
                    failures.push("no station moved".into());
                }
                if full_invalidations != 0 {
                    failures.push(format!(
                        "motion dropped the gain caches globally {full_invalidations} times"
                    ));
                }
            }
        }
        failures
    }
}

/// Place about `n` stations on a square lattice at the paper's 10 m
/// spacing, each jittered by up to 3 m per axis. With uniform placement
/// the degree spread of a small network moves the run time by up to 1.5×
/// from seed to seed; on the lattice the seed varies clocks, traffic and
/// jitter but not the degree.
///
/// The simulator estimates a lattice's density from its circumscribed
/// disk, which understates it by π/2; the reach factor is scaled so the
/// usable reach stays the paper's 20 m (about 12.6 neighbours).
fn place_on_lattice(cfg: &mut NetConfig, n: usize) {
    let side = (n as f64).sqrt().round() as usize;
    cfg.placement = Placement::Grid {
        nx: side,
        ny: side,
        spacing: 10.0,
        jitter: 3.0,
    };
    cfg.reach_factor *= std::f64::consts::FRAC_2_PI.sqrt();
}

/// Sweep threads for the metro workload: two where the machine has them.
/// Metrics are byte-identical at any thread count.
fn sweep_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

/// Ten churn events: five seeded stations leave at 10/20/30/40/50 % of
/// the run and rejoin at seeded positions 30 % of the run later. Unlike
/// `ChurnPlan::generate`, whose timed returns are a coin flip, the number
/// of oracle reroutes this triggers does not depend on the seed, so the
/// run time varies little from seed to seed.
fn mobility_churn(seed: u64, n: usize, run_for: Duration, radius: f64) -> ChurnPlan {
    let mut rng = Rng::new(seed).substream("benchmark.churn");
    let at = |fraction: f64| Duration::from_secs_f64(run_for.as_secs_f64() * fraction);
    let mut movers: Vec<usize> = Vec::new();
    while movers.len() < 5 {
        let s = rng.below(n as u64) as usize;
        if !movers.contains(&s) {
            movers.push(s);
        }
    }
    let mut plan = ChurnPlan::none();
    for (k, &s) in movers.iter().enumerate() {
        let leave = 0.1 * (k + 1) as f64;
        let pos = uniform_in_disk(&mut rng, radius);
        plan = plan.leave(at(leave), s).join(at(leave + 0.3), s, pos);
    }
    plan
}

/// Relays crashed by the dv_churn fault plan.
const CRASHES: usize = 4;

/// The E4 churn plan, written for a 24 s run and scaled to `run_for`: the
/// four busiest relays crash at 6/10/14/18 s and recover 4 s later, and a
/// 1.5 s jammer lights up the busiest relay's neighbourhood at 12 s. The
/// 12 s workload halves every time.
fn relay_faults(net: &Network, run_for: Duration) -> FaultPlan {
    let at = |secs: f64| Duration::from_secs_f64(run_for.as_secs_f64() * secs / 24.0);
    let mut dependents: Vec<(usize, usize)> = net
        .routing_dependent_counts()
        .into_iter()
        .enumerate()
        .map(|(s, d)| (d, s))
        .collect();
    dependents.sort_by(|a, b| b.cmp(a));
    let victims: Vec<usize> = dependents.iter().take(CRASHES).map(|&(_, s)| s).collect();
    let mut plan = FaultPlan::none();
    for (k, &s) in victims.iter().enumerate() {
        plan = plan.crash_recover(at(6.0 + 4.0 * k as f64), s, at(4.0));
    }
    plan.jam(at(12.0), victims[0], at(1.5), PowerW(0.01))
}
