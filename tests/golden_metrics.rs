//! Golden-JSON regression pins: `RouteMode::Centralized`,
//! `RouteMode::OneHop` and `RouteMode::Distributed` behavior, and the
//! `Metrics::to_json` wire format, must stay byte-identical across
//! refactors of the routing layer. The centralized and one-hop fixtures
//! under `tests/golden/` were captured before the per-station
//! distance-vector exchange landed; any diff here means a change leaked
//! into modes that were supposed to be untouched. The two `distributed_*`
//! fixtures pin the distance-vector exchange under faults and under
//! motion, together with the conditional `route`, `adversary` and
//! `mobility` metrics blocks. `centralized_oracle_adversary` and
//! `greedy_walk_churn` pin oracle healing through every fault kind and
//! greedy routing under motion and churn, `centralized_waypoint_churn`
//! pins the centralized table rebuilt under motion and churn, and
//! `centralized_local_heal_adversary` pins local healing with flap
//! damping under reactive jams, a jam window and a violator. The
//! `baseline_*` fixtures pin each contention MAC of experiment E3 the same
//! way.
//!
//! Regenerate (only when a format change is intentional) with:
//! `GOLDEN_REGEN=1 cargo test --test golden_metrics`

use parn::baseline::{Baseline, MacKind};
use parn::core::{
    ByzMode, ChurnPlan, CutAxis, DestPolicy, FaultPlan, HealConfig, MobilityConfig, MobilityModel,
    NetConfig, Network, PhyBackend, RouteMode, SourceModel, SyncMode,
};
use parn::phys::{Point, PowerW};
use parn::sim::Duration;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        expected, actual,
        "metrics JSON for {name} diverged from the pinned fixture; if the \
         change is intentional, regenerate with GOLDEN_REGEN=1"
    );
}

/// Centralized routing through a crash-recover fault under local healing
/// (oracle clock sync): pins the full heal bookkeeping and loss/drop
/// ledgers byte-for-byte.
#[test]
fn centralized_crash_recover_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(40, 21);
    cfg.run_for = Duration::from_secs(14);
    cfg.warmup = Duration::from_secs(1);
    cfg.traffic.arrivals_per_station_per_sec = 2.0;
    cfg.heal = HealConfig::local();
    cfg.faults = FaultPlan::none().crash_recover(Duration::from_secs(4), 7, Duration::from_secs(4));
    let m = Network::run(cfg);
    check("centralized_crash_recover.json", &m.to_json().to_string());
}

/// Distributed routing with hello-piggybacked clock sync through a
/// crash-recover fault and a route-poisoning Byzantine window: pins the
/// distance-vector exchange, its heal bookkeeping, and the `route` and
/// `adversary` metrics blocks.
#[test]
fn distributed_crash_and_poisoner_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(40, 21);
    cfg.run_for = Duration::from_secs(14);
    cfg.warmup = Duration::from_secs(1);
    cfg.traffic.arrivals_per_station_per_sec = 2.0;
    cfg.route_mode = RouteMode::Distributed;
    cfg.heal = HealConfig::local();
    cfg.clock.sync = SyncMode::Piggyback {
        hello_interval: Duration::from_millis(500),
    };
    cfg.faults = FaultPlan::none()
        .crash_recover(Duration::from_secs(4), 7, Duration::from_secs(4))
        .byzantine(
            Duration::from_secs(9),
            12,
            ByzMode::Poisoner,
            Duration::from_secs(2),
        );
    let json = Network::run(cfg).to_json().to_string();
    assert!(json.contains("\"route\":{"), "{json}");
    assert!(json.contains("\"adversary\":{"), "{json}");
    check("distributed_crash_poisoner.json", &json);
}

/// Distributed routing under random-waypoint motion and join/leave
/// churn: pins link re-costing, new-link clock models and the `route`
/// and `mobility` metrics blocks.
#[test]
fn distributed_mobility_churn_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(30, 21);
    cfg.run_for = Duration::from_secs(6);
    cfg.warmup = Duration::from_secs(1);
    cfg.route_mode = RouteMode::Distributed;
    cfg.mobility = Some(MobilityConfig::paper_default());
    cfg.churn = ChurnPlan::none()
        .leave_for(Duration::from_secs(2), 5, Duration::from_secs(2))
        .leave(Duration::from_secs(3), 9)
        .join(Duration::from_secs(4), 9, Point::new(5.0, 5.0));
    let json = Network::run(cfg).to_json().to_string();
    assert!(json.contains("\"route\":{"), "{json}");
    assert!(json.contains("\"mobility\":{"), "{json}");
    check("distributed_mobility_churn.json", &json);
}

/// Centralized routing under oracle healing through one fault of every
/// kind, with hotspot destinations and on-off sources: pins the oracle
/// reroutes, the end of each timed fault, and an on-off chain that
/// restarts after a reboot. The run records 17 Type-1 collisions, all
/// from the partition's gain transient (the same plan without the
/// partition has none): docs/ROBUSTNESS.md documents that transient as
/// the one exception to collision-freedom.
#[test]
fn centralized_oracle_adversary_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(40, 23);
    cfg.run_for = Duration::from_secs(12);
    cfg.warmup = Duration::from_secs(1);
    cfg.traffic.dest = DestPolicy::Hotspot {
        sinks: 4,
        skew: 1.0,
    };
    cfg.traffic.source = SourceModel::OnOff {
        on_mean_s: 0.5,
        off_mean_s: 0.5,
    };
    cfg.faults = FaultPlan::none()
        .crash(Duration::from_secs(2), 11)
        .crash_recover(Duration::from_secs(3), 7, Duration::from_secs(3))
        .clock_jump(Duration::from_secs(4), 13, 1500)
        .jam(
            Duration::from_secs(5),
            17,
            Duration::from_secs(1),
            PowerW(1e-5),
        )
        .partition(
            Duration::from_secs(6),
            CutAxis::Vertical,
            0.0,
            30.0,
            Duration::from_secs(2),
        )
        .byzantine(
            Duration::from_secs(8),
            19,
            ByzMode::Violator,
            Duration::from_secs(1),
        )
        .reactive_jam(Duration::from_secs(9), 23, Duration::from_millis(300), 0.2);
    let json = Network::run(cfg).to_json().to_string();
    assert!(json.contains("\"adversary\":{"), "{json}");
    check("centralized_oracle_adversary.json", &json);
}

/// Centralized routing under local healing with flap damping, through a
/// train of reactive jams, a crash-recover outage, a jam window and a
/// schedule violator, with hello gossip at 250 ms: pins suspicion,
/// eviction, readmission and suppressed readmission under attack, and
/// the detect/heal marks they set and close.
#[test]
fn centralized_local_heal_adversary_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(40, 23);
    cfg.run_for = Duration::from_secs(12);
    cfg.warmup = Duration::from_secs(1);
    cfg.traffic.arrivals_per_station_per_sec = 2.0;
    cfg.clock.sync = SyncMode::Piggyback {
        hello_interval: Duration::from_millis(250),
    };
    cfg.heal = HealConfig::local();
    cfg.heal.suspect_after = 2;
    cfg.heal.evict_timeout = Duration::from_millis(40);
    cfg.heal.flap_damping = true;
    cfg.heal.flap_suppress = 1.5;
    cfg.heal.flap_half_life = Duration::from_secs(4);
    let mut plan = FaultPlan::none();
    for at in [2, 4, 6] {
        plan = plan.reactive_jam(
            Duration::from_secs(at),
            17,
            Duration::from_millis(300),
            0.95,
        );
    }
    cfg.faults = plan
        .crash_recover(Duration::from_secs(3), 7, Duration::from_secs(2))
        .jam(
            Duration::from_secs(8),
            17,
            Duration::from_millis(500),
            PowerW(1e-5),
        )
        .byzantine(
            Duration::from_secs(9),
            19,
            ByzMode::Violator,
            Duration::from_secs(1),
        );
    let json = Network::run(cfg).to_json().to_string();
    assert!(json.contains("\"adversary\":{"), "{json}");
    check("centralized_local_heal_adversary.json", &json);
}

/// Greedy routing on the grid backend under a bounded random walk and
/// join/leave churn, with gravity destinations and no clock resync: pins
/// the motion step, greedy rebuilds over moved positions, the gravity
/// sampler rebuilt after motion, and a join at a new position.
#[test]
fn greedy_walk_churn_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(60, 29);
    cfg.run_for = Duration::from_secs(6);
    cfg.warmup = Duration::from_secs(1);
    cfg.phy_backend = PhyBackend::Grid { far_field: None };
    cfg.route_mode = RouteMode::Greedy;
    cfg.clock.sync = SyncMode::None;
    cfg.traffic.dest = DestPolicy::Gravity { exponent: 2.0 };
    cfg.mobility = Some(MobilityConfig {
        model: MobilityModel::RandomWalk { speed: 2.0 },
        epoch: Duration::from_millis(200),
    });
    cfg.churn = ChurnPlan::none()
        .leave_for(Duration::from_secs(2), 5, Duration::from_secs(1))
        .leave(Duration::from_secs(3), 9)
        .join(Duration::from_secs(4), 9, Point::new(5.0, 5.0));
    let json = Network::run(cfg).to_json().to_string();
    assert!(json.contains("\"mobility\":{"), "{json}");
    check("greedy_walk_churn.json", &json);
}

/// The centralized table under oracle healing on the grid backend, with
/// random-waypoint motion and join/leave churn: pins the oracle reroutes
/// that motion epochs and churn events trigger, and with them every
/// all-pairs table rebuilt over a moved or changed topology.
#[test]
fn centralized_waypoint_churn_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(60, 31);
    cfg.run_for = Duration::from_secs(6);
    cfg.warmup = Duration::from_secs(1);
    cfg.phy_backend = PhyBackend::Grid { far_field: None };
    cfg.mobility = Some(MobilityConfig::paper_default());
    cfg.churn = ChurnPlan::none()
        .leave_for(Duration::from_millis(1100), 5, Duration::from_millis(1300))
        .leave(Duration::from_millis(2300), 9)
        .join(Duration::from_millis(3700), 9, Point::new(5.0, 5.0));
    let json = Network::run(cfg).to_json().to_string();
    assert!(json.contains("\"mobility\":{"), "{json}");
    check("centralized_waypoint_churn.json", &json);
}

/// One-hop routing with neighbor-only traffic: pins the single-hop mode's
/// delivery statistics and the metrics wire format with empty fault books.
#[test]
fn one_hop_neighbor_traffic_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(25, 5);
    cfg.run_for = Duration::from_secs(6);
    cfg.warmup = Duration::from_secs(1);
    cfg.traffic.arrivals_per_station_per_sec = 1.0;
    cfg.route_mode = RouteMode::OneHop;
    cfg.traffic.dest = DestPolicy::Neighbors;
    let m = Network::run(cfg);
    check("one_hop_neighbors.json", &m.to_json().to_string());
}

/// E3's heaviest row (60 stations, seed 3, 12 s at 40 pps per station):
/// every baseline MAC retransmits here and MACA exhausts retries, so the
/// fixtures pin the retry, drop and in-flight accounting of each MAC.
/// CSMA senses at 1e-6 W rather than E3's 1e-8 W: at 1e-8 W it defers so
/// hard that it never collides, while 1e-6 W exercises both the deferral
/// and the retry path.
fn e3_heavy() -> NetConfig {
    let mut c = NetConfig::paper_default(60, 3);
    c.traffic.arrivals_per_station_per_sec = 40.0;
    c.run_for = Duration::from_secs(12);
    c.warmup = Duration::from_secs(2);
    c
}

#[test]
fn pure_aloha_metrics_are_pinned() {
    let m = Baseline::new(e3_heavy(), MacKind::PureAloha).run();
    check("baseline_pure_aloha.json", &m.to_json().to_string());
}

#[test]
fn slotted_aloha_metrics_are_pinned() {
    let m = Baseline::new(e3_heavy(), MacKind::SlottedAloha).run();
    check("baseline_slotted_aloha.json", &m.to_json().to_string());
}

#[test]
fn csma_metrics_are_pinned() {
    let sense_threshold = PowerW(1e-6);
    let m = Baseline::new(e3_heavy(), MacKind::Csma { sense_threshold }).run();
    check("baseline_csma.json", &m.to_json().to_string());
}

#[test]
fn maca_metrics_are_pinned() {
    let m = Baseline::new(e3_heavy(), MacKind::Maca).run();
    check("baseline_maca.json", &m.to_json().to_string());
}

/// Static-topology runs must not leak any dynamic-topology state into
/// the wire formats: with no mobility model and an empty churn plan,
/// both `NetConfig::to_json` and `Metrics::to_json` stay byte-identical
/// to the pinned fixtures (no `mobility`/`churn` keys anywhere).
#[test]
fn static_runs_emit_no_dynamic_topology_keys() {
    let mut cfg = NetConfig::paper_default(25, 5);
    cfg.run_for = Duration::from_secs(6);
    cfg.warmup = Duration::from_secs(1);
    cfg.traffic.arrivals_per_station_per_sec = 1.0;
    cfg.route_mode = RouteMode::OneHop;
    cfg.traffic.dest = DestPolicy::Neighbors;
    let cfg_json = cfg.to_json().to_string();
    assert!(!cfg_json.contains("\"mobility\""), "{cfg_json}");
    assert!(!cfg_json.contains("\"churn\""), "{cfg_json}");
    let m = Network::run(cfg);
    let m_json = m.to_json().to_string();
    assert!(!m_json.contains("\"mobility\""), "{m_json}");
    assert!(!m_json.contains("motion_epochs"), "{m_json}");
}
