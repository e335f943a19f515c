//! E4 — self-organization under station churn.
//!
//! The paper's motivation is an *anarchic* network: stations "purchased
//! and installed by the users", no infrastructure, no coordination. Such
//! a network must keep working when stations disappear — and, harder,
//! when they come *back* with a cold clock, or when a jammer lights up a
//! neighbourhood. This harness drives both heal modes through the same
//! seeded churn plan (the four busiest relays crash and recover,
//! staggered, plus one jammer window) and a crash-count sweep, and
//! shows: routing heals over the survivors, the scheme stays
//! collision-free outside the jammer window, local detection converges
//! close to the oracle, and every lost packet carries a cause.
//!
//! A third arm runs the same churn in [`RouteMode::Distributed`]: healing
//! there must come entirely from the per-station distance-vector exchange
//! (`route_repairs == 0`) with a nonzero, seed-deterministic time-to-heal.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::{FaultPlan, HealConfig, LossCause, Metrics, NetConfig, Network, RouteMode};
use parn_phys::PowerW;
use parn_sim::Duration;

fn run_with(
    reporter: &Reporter,
    cfg: &NetConfig,
    heal: HealConfig,
    route: RouteMode,
    plan: FaultPlan,
    label: &str,
) -> Metrics {
    let mut c = cfg.clone();
    c.heal = heal;
    c.route_mode = route;
    c.faults = plan;
    let m = reporter.run(label, &c);
    assert!(m.conservation_holds(), "{label}: {}", m.summary());
    assert_eq!(
        m.collision_losses(),
        0,
        "{label} broke collision-freedom: {}",
        m.summary()
    );
    m
}

fn main() {
    println!("# E4: station churn, jamming, and route healing\n");

    let n = 100;
    let mut cfg = NetConfig::paper_default(n, 13);
    cfg.traffic.arrivals_per_station_per_sec = 2.0;
    cfg.run_for = Duration::from_secs(24);
    cfg.warmup = Duration::from_secs(2);

    let reporter = Reporter::new(artifact_dir(), "failures");

    // One build serves both the dependents query and the fault-free
    // baseline run: rank relays, then run the same Network to completion.
    // The baseline line counts the build and the run but times the run.
    let mut run = reporter.start("baseline");
    let probe = Network::new(cfg.clone());
    let mut dependents: Vec<(usize, usize)> = probe
        .routing_dependent_counts()
        .into_iter()
        .enumerate()
        .map(|(s, d)| (d, s))
        .collect();
    dependents.sort_by(|a, b| b.cmp(a));
    let victims: Vec<usize> = dependents.iter().take(8).map(|&(_, s)| s).collect();
    run.restart_clock();
    let baseline = probe.run_built();
    run.record(cfg.to_json(), baseline.to_json());
    assert_eq!(baseline.collision_losses(), 0);
    println!(
        "busiest relays (by routing dependents): {:?}\n",
        &victims[..4]
    );

    // The churn plan: the four busiest relays crash at t = 6/10/14/18 s
    // and each recovers 4 s later, plus a 1.5 s jammer window on top of
    // the busiest relay's neighbourhood mid-run.
    let mut churn = FaultPlan::none();
    for (k, &s) in victims.iter().take(4).enumerate() {
        churn = churn.crash_recover(
            Duration::from_secs(6 + 4 * k as u64),
            s,
            Duration::from_secs(4),
        );
    }
    churn = churn.jam(
        Duration::from_secs(12),
        victims[0],
        Duration::from_secs_f64(1.5),
        PowerW(0.01),
    );

    let oracle = run_with(
        &reporter,
        &cfg,
        HealConfig::oracle(),
        RouteMode::Centralized,
        churn.clone(),
        "churn-oracle",
    );
    let local = run_with(
        &reporter,
        &cfg,
        HealConfig::local(),
        RouteMode::Centralized,
        churn.clone(),
        "churn-local",
    );
    let dist = run_with(
        &reporter,
        &cfg,
        HealConfig::local(),
        RouteMode::Distributed,
        churn.clone(),
        "churn-distributed",
    );

    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>12}",
        "", "baseline", "churn-oracle", "churn-local", "churn-dv"
    );
    let row = |label: &str, f: &dyn Fn(&Metrics) -> String| {
        println!(
            "{:<26} {:>10} {:>12} {:>12} {:>12}",
            label,
            f(&baseline),
            f(&oracle),
            f(&local),
            f(&dist)
        );
    };
    row("generated", &|m| m.generated.to_string());
    row("delivered", &|m| m.delivered.to_string());
    row("delivery rate", &|m| {
        format!("{:.1}%", 100.0 * m.delivery_rate())
    });
    row("collision losses", &|m| m.collision_losses().to_string());
    for (label, cause) in [
        ("lost: station failed", LossCause::StationFailed),
        ("lost: jammed", LossCause::Jammed),
        ("drop: station failed", LossCause::StationFailed),
        ("drop: unroutable", LossCause::Unroutable),
        ("drop: retries exhausted", LossCause::RetriesExhausted),
    ] {
        let book = |m: &Metrics| {
            if label.starts_with("lost") {
                m.losses.get(&cause).copied().unwrap_or(0)
            } else {
                m.drops.get(&cause).copied().unwrap_or(0)
            }
        };
        row(label, &|m| book(m).to_string());
    }
    row("retransmissions", &|m| m.retransmissions.to_string());
    row("route repairs", &|m| m.route_repairs.to_string());
    row("faults injected", &|m| m.faults_injected.to_string());
    row("stations recovered", &|m| m.stations_recovered.to_string());
    row("neighbors evicted", &|m| m.neighbors_evicted.to_string());
    row("neighbors readmitted", &|m| {
        m.neighbors_readmitted.to_string()
    });
    row("time-to-detect ms", &|m| {
        if m.time_to_detect.count() == 0 {
            "-".into()
        } else {
            format!("{:.0}", m.time_to_detect.mean() * 1e3)
        }
    });
    row("time-to-heal ms", &|m| {
        if m.time_to_heal.count() == 0 {
            "-".into()
        } else {
            format!("{:.0}", m.time_to_heal.mean() * 1e3)
        }
    });
    row("route updates sent", &|m| m.route_updates_sent.to_string());
    row("convergence episodes", &|m| {
        m.converged_at.count().to_string()
    });

    // Acceptance for the distance-vector arm: healing must be genuine —
    // no global recompute ever fires, reconvergence episodes close, and
    // the measured heal time is nonzero and repeats bit-for-bit under
    // the same seed.
    assert_eq!(
        dist.route_repairs,
        0,
        "distributed arm fell back to rebuild_routes: {}",
        dist.summary()
    );
    assert!(dist.route_updates_sent > 0 && dist.route_updates_received > 0);
    assert!(
        dist.converged_at.count() > 0,
        "no convergence episode closed: {}",
        dist.summary()
    );
    assert!(
        dist.time_to_heal.count() > 0 && dist.time_to_heal.mean() > 0.0,
        "distributed arm sampled no heals: {}",
        dist.summary()
    );
    {
        let mut c = cfg.clone();
        c.heal = HealConfig::local();
        c.route_mode = RouteMode::Distributed;
        c.faults = churn.clone();
        let again = Network::run(c);
        assert_eq!(dist.delivered, again.delivered);
        assert_eq!(dist.route_updates_sent, again.route_updates_sent);
        assert_eq!(dist.time_to_heal.count(), again.time_to_heal.count());
        assert!((dist.time_to_heal.mean() - again.time_to_heal.mean()).abs() < 1e-12);
    }

    // Acceptance: the local detector must come within 10 points of the
    // oracle's delivery rate under the same churn.
    let gap = 100.0 * (oracle.delivery_rate() - local.delivery_rate());
    println!("\noracle-vs-local delivery gap: {gap:.1} points");
    assert!(
        gap < 10.0,
        "local healing too far behind oracle: {gap:.1} points"
    );
    assert!(oracle.time_to_heal.count() > 0, "oracle sampled no heals");
    assert!(
        local.time_to_detect.count() > 0,
        "local detector never fired"
    );
    assert!(local.time_to_heal.count() > 0, "local sampled no heals");
    assert!(local.neighbors_evicted > 0 && local.neighbors_readmitted > 0);
    assert!(
        oracle.losses.get(&LossCause::Jammed).copied().unwrap_or(0) > 0,
        "jammer window cost nothing"
    );

    // Crash-count sweep: permanent failures, all three repair paths.
    println!("\ncrash sweep (permanent failures, delivery rate):");
    println!(
        "{:>4} {:>10} {:>10} {:>12}",
        "k", "oracle", "local", "distributed"
    );
    for k in [2usize, 4, 8] {
        let plan = FaultPlan::crashes(
            victims
                .iter()
                .take(k)
                .enumerate()
                .map(|(i, &s)| (Duration::from_secs(6 + (12 * i as u64) / k as u64), s)),
        );
        let mo = run_with(
            &reporter,
            &cfg,
            HealConfig::oracle(),
            RouteMode::Centralized,
            plan.clone(),
            &format!("crash-{k}-oracle"),
        );
        let ml = run_with(
            &reporter,
            &cfg,
            HealConfig::local(),
            RouteMode::Centralized,
            plan.clone(),
            &format!("crash-{k}-local"),
        );
        let md = run_with(
            &reporter,
            &cfg,
            HealConfig::local(),
            RouteMode::Distributed,
            plan,
            &format!("crash-{k}-distributed"),
        );
        println!(
            "{:>4} {:>9.1}% {:>9.1}% {:>11.1}%",
            k,
            100.0 * mo.delivery_rate(),
            100.0 * ml.delivery_rate(),
            100.0 * md.delivery_rate()
        );
        assert!(
            ml.delivered as f64 > 0.6 * baseline.delivered as f64,
            "k={k} local healing collapsed: {} vs {}",
            ml.delivered,
            baseline.delivered
        );
        assert_eq!(md.route_repairs, 0, "k={k}: {}", md.summary());
        assert!(
            md.delivered as f64 > 0.6 * baseline.delivered as f64,
            "k={k} distributed healing collapsed: {} vs {}",
            md.delivered,
            baseline.delivered
        );
    }

    println!("\nE4: network heals around churn in all three modes, losses fully accounted. OK");
}
