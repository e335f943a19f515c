//! Property tests for the fault-injection subsystem: arbitrary generated
//! fault plans must never break the packet-conservation ledger, runs must
//! stay bit-deterministic through churn, and fault injection must be
//! identical across PHY backends.

use parn::core::{
    ByzMode, CutAxis, FaultPlan, HealConfig, NetConfig, Network, PhyBackend, RouteMode, SourceModel,
};
use parn::sim::{Duration, Rng};
use parn::testkit::cases;

fn churn_config(rng: &mut Rng) -> NetConfig {
    let n = 12 + rng.below(28) as usize;
    let mut cfg = NetConfig::paper_default(n, rng.below(1000));
    cfg.run_for = Duration::from_secs(6);
    cfg.warmup = Duration::from_millis(500);
    cfg.traffic.arrivals_per_station_per_sec = (5 + rng.below(25)) as f64 / 10.0;
    cfg.clock.max_ppm = rng.below(100) as f64;
    let count = 1 + rng.below(5) as usize;
    cfg.faults = FaultPlan::generate(rng.below(1 << 32), n, count, cfg.run_for);
    if rng.chance(0.5) {
        cfg.heal = HealConfig::local();
    }
    // Last draw, so every other parameter of a case stays as it was: an
    // on-off source's arrival chain must restart cleanly after an outage.
    if rng.chance(0.5) {
        cfg.traffic.source = SourceModel::OnOff {
            on_mean_s: 0.5,
            off_mean_s: 0.5,
        };
    }
    cfg
}

#[test]
fn conservation_holds_under_arbitrary_fault_plans() {
    cases(18, "fault_conservation", |_, rng| {
        let cfg = churn_config(rng);
        let m = Network::run(cfg.clone());
        // Per-packet book: everything generated is delivered, in flight,
        // or settled as an attributed drop.
        assert!(
            m.conservation_holds(),
            "conservation broke under {:?}: {}",
            cfg.faults,
            m.summary()
        );
        // Per-reception book: every failed hop attempt has a cause.
        assert_eq!(
            m.hop_attempts - m.hop_successes,
            m.total_losses(),
            "hop ledger broke under {:?}: {}",
            cfg.faults,
            m.summary()
        );
        assert_eq!(m.faults_injected, cfg.faults.events.len() as u64);
    });
}

#[test]
fn churn_runs_are_deterministic() {
    cases(10, "fault_determinism", |_, rng| {
        let mut cfg = churn_config(rng);
        // Force at least one crash-recover so reboots (fresh clocks,
        // epoch bumps, rendezvous re-seeds) are part of what must repeat.
        let n = cfg.faults.events.first().map_or(5, |e| e.station);
        cfg.faults = cfg.faults.clone().crash_recover(
            Duration::from_secs(2),
            n,
            Duration::from_millis(1500),
        );
        let a = Network::run(cfg.clone());
        let b = Network::run(cfg);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.hop_attempts, b.hop_attempts);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.stations_recovered, b.stations_recovered);
        assert_eq!(a.neighbors_evicted, b.neighbors_evicted);
        assert_eq!(a.time_to_detect.count(), b.time_to_detect.count());
        assert!((a.e2e_delay.mean() - b.e2e_delay.mean()).abs() < 1e-12);
    });
}

#[test]
fn fault_injection_is_backend_invariant() {
    cases(8, "fault_backend", |_, rng| {
        // The same seeded plan must produce bit-identical simulations on
        // the dense reference matrix and the exact spatial index.
        let dense = churn_config(rng);
        let mut grid = dense.clone();
        grid.phy_backend = PhyBackend::Grid { far_field: None };
        let a = Network::run(dense);
        let b = Network::run(grid);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.hop_attempts, b.hop_attempts);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.neighbors_evicted, b.neighbors_evicted);
    });
}

fn adversarial_config(rng: &mut Rng) -> NetConfig {
    let n = 16 + rng.below(24) as usize;
    let mut cfg = NetConfig::paper_default(n, rng.below(1000));
    cfg.run_for = Duration::from_secs(8);
    cfg.warmup = Duration::from_millis(500);
    cfg.traffic.arrivals_per_station_per_sec = (5 + rng.below(20)) as f64 / 10.0;
    // One of each adversarial kind, parameters drawn at random: a
    // shadowing cut through populated area, a Byzantine station
    // (violator or poisoner), and a budget-limited reactive jammer.
    let radius = (n as f64 / (std::f64::consts::PI * 0.01)).sqrt();
    let axis = if rng.chance(0.5) {
        CutAxis::Vertical
    } else {
        CutAxis::Horizontal
    };
    let mode = if rng.chance(0.5) {
        ByzMode::Violator
    } else {
        ByzMode::Poisoner
    };
    cfg.faults = FaultPlan::none()
        .partition(
            Duration::from_secs(2),
            axis,
            rng.range_f64(-0.3, 0.3) * radius,
            rng.range_f64(20.0, 50.0),
            Duration::from_millis(1500 + rng.below(1500)),
        )
        .byzantine(
            Duration::from_millis(1000 + rng.below(4000)),
            rng.below(n as u64) as usize,
            mode,
            Duration::from_millis(1000 + rng.below(2000)),
        )
        .reactive_jam(
            Duration::from_millis(1000 + rng.below(4000)),
            rng.below(n as u64) as usize,
            Duration::from_millis(50 + rng.below(300)),
            rng.range_f64(0.2, 0.9),
        );
    if rng.chance(0.5) {
        cfg.heal = HealConfig::local();
    }
    if rng.chance(0.3) {
        cfg.route_mode = RouteMode::Distributed;
    }
    cfg
}

#[test]
fn adversarial_plans_preserve_the_ledger() {
    // Partitions, Byzantine stations, and reactive jammers can reshape
    // the gain field, fake routes, and burn receptions — but every
    // packet and every failed hop must still be accounted for exactly,
    // in both heal modes and both routing modes.
    cases(12, "adversarial_conservation", |_, rng| {
        let cfg = adversarial_config(rng);
        let m = Network::run(cfg.clone());
        assert!(
            m.conservation_holds(),
            "conservation broke under {:?}: {}",
            cfg.faults,
            m.summary()
        );
        assert_eq!(
            m.hop_attempts - m.hop_successes,
            m.total_losses(),
            "hop ledger broke under {:?}: {}",
            cfg.faults,
            m.summary()
        );
        assert_eq!(m.faults_injected, cfg.faults.events.len() as u64);
        // The cut activated before the horizon and lasted at most 3.5 s
        // of an 8 s run: it must also have healed.
        assert_eq!(m.partitions_healed, 1, "{}", m.summary());
    });
}

#[test]
fn adversarial_runs_are_backend_invariant() {
    // The same adversarial plan must produce bit-identical simulations
    // on the dense reference matrix and the exact spatial index — the
    // partition overlay and jam/violation bookkeeping sit above the
    // backend split.
    cases(6, "adversarial_backend", |_, rng| {
        let dense = adversarial_config(rng);
        let mut grid = dense.clone();
        grid.phy_backend = PhyBackend::Grid { far_field: None };
        let a = Network::run(dense);
        let b = Network::run(grid);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.hop_attempts, b.hop_attempts);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.partitions_healed, b.partitions_healed);
        assert_eq!(a.violations_detected, b.violations_detected);
        assert_eq!(a.reactive_jams, b.reactive_jams);
    });
}

#[test]
fn partition_heal_runs_are_bit_deterministic() {
    // Severing and restoring the gain field mid-run rebuilds caches and
    // far-field snapshots; none of that may perturb determinism.
    cases(6, "partition_determinism", |_, rng| {
        let cfg = adversarial_config(rng);
        let a = Network::run(cfg.clone());
        let b = Network::run(cfg);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.hop_attempts, b.hop_attempts);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.partitions_healed, b.partitions_healed);
        assert_eq!(a.violations_detected, b.violations_detected);
        assert_eq!(a.reactive_jams, b.reactive_jams);
        assert_eq!(a.neighbors_evicted, b.neighbors_evicted);
        assert!((a.jam_budget_spent_s - b.jam_budget_spent_s).abs() < 1e-15);
        assert!((a.e2e_delay.mean() - b.e2e_delay.mean()).abs() < 1e-12);
    });
}
