//! E8 — adversarial fault model: graceful degradation and reconvergence.
//!
//! The paper's deployment story (stations "purchased and installed by the
//! users", nobody in charge) invites adversaries, not just failures. This
//! harness drives the three adversarial fault kinds through all three
//! repair paths (oracle / local / distributed) and shows the scheme's
//! failure mode is *graceful*:
//!
//! * a **budget-limited reactive jammer** parked on the busiest relay
//!   degrades delivery monotonically with its energy budget — no cliff —
//!   and every loss it causes is attributed (`Jammed`), never mislabelled
//!   as a protocol collision;
//! * a **partition** (shadowing transient across a geographic cut) severs
//!   the network without killing a single station, and both local healing
//!   and the distance-vector exchange reconverge after the cut lifts;
//! * a **Byzantine station** — transmitting outside its published windows
//!   or advertising poisoned routes — is detected (`Violation` losses,
//!   rejected advertisements) rather than silently eroding the scheme.
//!
//! The sweep is deterministic: a run reproduces the `metrics` of the last
//! committed `BENCH_adversary.json` line with each label, which CI checks.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::{
    ByzMode, CutAxis, FaultPlan, HealConfig, LossCause, Metrics, NetConfig, Network, RouteMode,
};
use parn_sim::Duration;

#[derive(Clone)]
struct Arm {
    name: &'static str,
    route: RouteMode,
    local_heal: bool,
}

const ARMS: [Arm; 3] = [
    Arm {
        name: "oracle",
        route: RouteMode::Centralized,
        local_heal: false,
    },
    Arm {
        name: "local",
        route: RouteMode::Centralized,
        local_heal: true,
    },
    Arm {
        name: "distributed",
        route: RouteMode::Distributed,
        local_heal: true,
    },
];

fn run_with(
    reporter: &Reporter,
    cfg: &NetConfig,
    arm: &Arm,
    plan: FaultPlan,
    label: &str,
    allow_collisions: bool,
) -> Metrics {
    let mut c = cfg.clone();
    c.heal = if arm.local_heal {
        HealConfig::local()
    } else {
        HealConfig::oracle()
    };
    c.route_mode = arm.route.clone();
    c.faults = plan;
    let m = reporter.run(label, &c);
    assert!(m.conservation_holds(), "{label}: {}", m.summary());
    assert_eq!(
        m.hop_attempts,
        m.hop_successes + m.total_losses(),
        "{label} hop ledger broke: {}",
        m.summary()
    );
    if !allow_collisions {
        // A static gain field keeps the headline guarantee even under
        // jamming and Byzantine emissions (their losses are attributed
        // outside the §5 taxonomy). Partition arms are exempt: a gain
        // transient legitimately breaks assumptions transmissions in
        // flight were planned under.
        assert_eq!(
            m.collision_losses(),
            0,
            "{label} broke collision-freedom: {}",
            m.summary()
        );
    }
    m
}

fn main() {
    println!("# E8: adversarial faults — jammer budget, partitions, Byzantine stations\n");

    let secs = 20;
    let mut cfg = NetConfig::paper_default(80, 17);
    cfg.traffic.arrivals_per_station_per_sec = 2.0;
    cfg.run_for = Duration::from_secs(secs);
    cfg.warmup = Duration::from_secs(2);

    let reporter = Reporter::new(artifact_dir(), "adversary");

    let probe = Network::new(cfg.clone());
    let deps = probe.routing_dependent_counts();
    let anchor = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
    println!(
        "jammer/Byzantine anchor: busiest relay {anchor} ({} dependents)\n",
        deps[anchor]
    );

    // ---- Sweep 1: reactive-jammer energy budget vs delivery. ----------
    let budgets = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0];
    let duty = 0.6;
    let jam_at = Duration::from_secs(secs / 4);
    println!("reactive jammer at relay {anchor} (duty cap {duty}):");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>14}",
        "budget s", "oracle", "local", "distributed", "jams (local)"
    );
    let mut sweep: Vec<Vec<Metrics>> = vec![Vec::new(); ARMS.len()];
    for b in budgets {
        let plan = if b > 0.0 {
            FaultPlan::none().reactive_jam(jam_at, anchor, Duration::from_secs_f64(b), duty)
        } else {
            FaultPlan::none()
        };
        let mut row: Vec<Metrics> = Vec::new();
        for (k, arm) in ARMS.iter().enumerate() {
            let label = format!("jam-b{b:.2}-{}", arm.name);
            let m = run_with(&reporter, &cfg, arm, plan.clone(), &label, false);
            if b > 0.0 {
                assert!(
                    m.jam_budget_spent_s <= b + 1e-9,
                    "{label} overspent its budget: {} > {b}",
                    m.jam_budget_spent_s
                );
            } else {
                assert_eq!(m.reactive_jams, 0);
            }
            sweep[k].push(m.clone());
            row.push(m);
        }
        println!(
            "{:>10.2} {:>11.1}% {:>11.1}% {:>11.1}% {:>14}",
            b,
            100.0 * row[0].delivery_rate(),
            100.0 * row[1].delivery_rate(),
            100.0 * row[2].delivery_rate(),
            row[1].reactive_jams,
        );
    }
    // Headline: graceful degradation. More adversary energy never *helps*
    // (small tolerance: healing dynamics shuffle a fraction of a point),
    // and the largest budget visibly costs delivery in every arm.
    for (k, arm) in ARMS.iter().enumerate() {
        let rates: Vec<f64> = sweep[k].iter().map(Metrics::delivery_rate).collect();
        for w in rates.windows(2) {
            assert!(
                w[1] <= w[0] + 0.02,
                "{}: delivery not monotone in jammer budget: {:?}",
                arm.name,
                rates
            );
        }
        assert!(
            rates[rates.len() - 1] < rates[0],
            "{}: max-budget jammer cost nothing: {:?}",
            arm.name,
            rates
        );
        let last = &sweep[k][rates.len() - 1];
        assert!(
            last.losses.get(&LossCause::Jammed).copied().unwrap_or(0) > 0,
            "{}: jam bursts caused no attributed losses",
            arm.name
        );
    }

    // ---- Sweep 2: partition sever + heal, reconvergence. --------------
    let cut_at = Duration::from_secs(secs / 4);
    let cut_for = Duration::from_secs(secs / 4);
    let plan = FaultPlan::none().partition(cut_at, CutAxis::Vertical, 0.0, 40.0, cut_for);
    println!(
        "\npartition: vertical 40 dB cut at {}s for {}s:",
        secs / 4,
        secs / 4
    );
    println!(
        "{:>12} {:>10} {:>8} {:>12} {:>14}",
        "arm", "delivery", "healed", "evictions", "converged"
    );
    for arm in &ARMS {
        let label = format!("partition-{}", arm.name);
        let m = run_with(&reporter, &cfg, arm, plan.clone(), &label, true);
        assert_eq!(m.partitions_healed, 1, "{label}: {}", m.summary());
        assert_eq!(m.stations_recovered, 0, "partition must not kill stations");
        if matches!(arm.route, RouteMode::Distributed) {
            // Reconvergence after the heal is the distance-vector
            // protocol's own achievement — no global recompute fires.
            assert_eq!(m.route_repairs, 0, "{label}: {}", m.summary());
            assert!(
                m.converged_at.count() > 0,
                "{label} never reconverged: {}",
                m.summary()
            );
        }
        println!(
            "{:>12} {:>9.1}% {:>8} {:>12} {:>14}",
            arm.name,
            100.0 * m.delivery_rate(),
            m.partitions_healed,
            m.neighbors_evicted,
            m.converged_at.count(),
        );
    }

    // ---- Sweep 3: Byzantine stations. ---------------------------------
    let byz_at = Duration::from_secs(secs / 4);
    let byz_for = Duration::from_secs(secs / 4);
    println!("\nByzantine relay {anchor} for {}s:", secs / 4);
    let violator = FaultPlan::none().byzantine(byz_at, anchor, ByzMode::Violator, byz_for);
    let mv = run_with(
        &reporter,
        &cfg,
        &ARMS[1],
        violator,
        "byzantine-violator-local",
        false,
    );
    let v_losses = mv.losses.get(&LossCause::Violation).copied().unwrap_or(0);
    assert!(
        v_losses > 0 && mv.violations_detected > 0,
        "violator went unnoticed: {}",
        mv.summary()
    );
    println!(
        "  violator: {v_losses} Violation losses, delivery {:.1}%",
        100.0 * mv.delivery_rate()
    );

    let poisoner = FaultPlan::none().byzantine(byz_at, anchor, ByzMode::Poisoner, byz_for);
    let mp = run_with(
        &reporter,
        &cfg,
        &ARMS[2],
        poisoner,
        "byzantine-poisoner-distributed",
        false,
    );
    assert!(
        mp.violations_detected > 0,
        "no poisoned advertisements rejected: {}",
        mp.summary()
    );
    println!(
        "  poisoner: {} poisoned advertisements rejected, delivery {:.1}%",
        mp.violations_detected,
        100.0 * mp.delivery_rate()
    );

    println!(
        "\nE8: degradation is graceful and attributed; partitions heal; Byzantium is detected. OK"
    );
}
