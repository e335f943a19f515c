//! E9 — dynamic topology: delivery and reconvergence under station
//! mobility and join/leave churn, at metro scale.
//!
//! Static-topology experiments validate the scheme's steady state; this
//! one measures what motion costs. Every station advances each epoch
//! (random-waypoint), a generated churn plan injects clean departures
//! and re-admissions, and the PHY relocates stations *incrementally* —
//! per-move grid rebucketing, per-station gain-cache epochs, and
//! scoped far-field invalidation, never a global cache rebuild. The
//! committed artifact proves that: the `phys.sinr.scoped_invalidations`
//! counter is nonzero while `phys.sinr.full_invalidations` (the
//! `gains_changed`-style global drop, reserved for partition overlays)
//! stays zero.
//!
//! Modes, mirroring `exp_scale`:
//!
//! * no args — driver: spawns `--one` subprocesses for the speed × churn
//!   sweep at n ∈ {10³, 10⁴, 10⁵}, each appending its line to
//!   `BENCH_mobility.json`;
//! * `--one <n> <speed_mps> <churn_events> [threads]` — one
//!   configuration, one artifact line;
//! * `--smoke` — the n=10³ corner of the sweep only, into
//!   `PARN_BENCH_DIR` or a throwaway directory it prints;
//! * `--determinism <n>` — grid-far mobility runs at 1/2/8 sweep threads
//!   must produce byte-identical metrics JSON.
//!
//! Scale arms use the single-hop regime ([`DestPolicy::Neighbors`] +
//! [`RouteMode::OneHop`]) like E6; the n=10³ arms run the full
//! centralized table so per-epoch reroutes (`route_repairs`) are part of
//! what's measured, and assert that every reroute either re-solved or
//! reused the table (`route.table_solves` + `route.table_reuses`); the
//! summary line prints the row searches started (`route.table_rows`) and
//! the stations they settled (`route.table_settles`).

use parn_bench::report::{self, artifact_dir, peak_rss_kb, smoke_dir, Reporter};
use parn_core::{
    ChurnPlan, DestPolicy, FarFieldConfig, MobilityConfig, MobilityModel, NetConfig, Network,
    PhyBackend, RouteMode,
};
use parn_sim::Duration;
use std::path::PathBuf;

fn mobility_config(n: usize, speed: f64, churn_events: usize, threads: usize) -> NetConfig {
    let mut cfg = NetConfig::paper_default(n, 1996);
    cfg.threads = threads;
    cfg.run_for = Duration::from_secs(2);
    cfg.warmup = Duration::from_millis(500);
    cfg.traffic.arrivals_per_station_per_sec = 0.5;
    cfg.mobility = Some(MobilityConfig {
        model: MobilityModel::RandomWaypoint { speed },
        epoch: Duration::from_millis(200),
    });
    if churn_events > 0 {
        let radius = cfg.placement.region().radius;
        cfg.churn = ChurnPlan::generate(cfg.seed, n, churn_events, cfg.run_for, radius);
    }
    if n >= 10_000 {
        // Metro arms: spatial index + far-field aggregation, single-hop
        // regime (O(E) routing state, like E6).
        cfg.phy_backend = PhyBackend::Grid {
            far_field: Some(FarFieldConfig::default_for_paper()),
        };
        cfg.route_mode = RouteMode::OneHop;
        cfg.traffic.dest = DestPolicy::Neighbors;
    } else {
        // Small arms: exact grid backend, full centralized table — the
        // per-epoch oracle reroute is part of the measurement.
        cfg.phy_backend = PhyBackend::Grid { far_field: None };
    }
    cfg
}

fn run_one(n: usize, speed: f64, churn_events: usize, threads: usize) {
    let cfg = mobility_config(n, speed, churn_events, threads);
    let threads_suffix = if threads > 1 {
        format!(" threads={threads}")
    } else {
        String::new()
    };
    let run = Reporter::new(artifact_dir(), "mobility").start(format!(
        "n={n} speed={speed} churn={churn_events}{threads_suffix}"
    ));
    let m = Network::run(cfg.clone());
    let wall = run.record(cfg.to_json(), m.to_json());
    let rss_mb = peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
    let counters = parn_sim::obs::counters_snapshot();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|&&(cn, _)| cn == name)
            .map_or(0, |&(_, v)| v)
    };
    assert!(
        m.station_moves > 0,
        "mobility run without moves at n={n}: {}",
        m.summary()
    );
    assert!(
        m.conservation_holds(),
        "conservation broke at n={n} speed={speed} churn={churn_events}: {}",
        m.summary()
    );
    assert!(
        m.delivered > 0,
        "nothing delivered at n={n} speed={speed}: {}",
        m.summary()
    );
    // The headline guarantee of the incremental path: every relocation
    // invalidates only its own station's cached state. A nonzero
    // full-invalidation count would mean motion fell back to the global
    // `gains_changed` drop (reserved for partition overlays).
    let scoped = counter("phys.sinr.scoped_invalidations");
    let full = counter("phys.sinr.full_invalidations");
    assert!(
        scoped > 0,
        "no scoped invalidations at n={n}: the incremental move path did not run"
    );
    assert_eq!(
        full, 0,
        "motion triggered {full} global cache rebuilds at n={n}: \
         scoped invalidation regressed to gains_changed"
    );
    // The centralized arms prepare the table at build and then re-solve
    // or reuse it once per oracle reroute, searching a row only as far as
    // it is read. Under churn, a reroute 500 ms after its event usually lands
    // after a motion epoch rebuilt over the same usable graph, so some
    // rebuilds must be reuses.
    let solves = counter("route.table_solves");
    let reuses = counter("route.table_reuses");
    let rows = counter("route.table_rows");
    let settles = counter("route.table_settles");
    if n < 10_000 {
        assert_eq!(
            solves + reuses,
            m.route_repairs + 1,
            "n={n}: {solves} table solves + {reuses} reuses for {} reroutes and the build",
            m.route_repairs
        );
        assert!(
            churn_events == 0 || reuses > 0,
            "n={n} churn={churn_events}: no rebuild reused an unchanged table"
        );
    }
    println!(
        "n={n} speed={speed} churn={churn_events}{threads_suffix} wall_s={wall:.2} \
         peak_rss_mb={rss_mb:.1} delivered={} moves={} leaves={} joins={} \
         relocations={} scoped_inval={scoped} full_inval={full} table_solves={solves} \
         table_reuses={reuses} table_rows={rows} table_settles={settles} collisions={}",
        m.delivered,
        m.station_moves,
        m.leaves,
        m.joins,
        counter("phys.grid.relocations"),
        m.collision_losses()
    );
}

fn drive(sweep: &[(usize, f64, usize)], dir: PathBuf) {
    let reporter = Reporter::new(dir, "mobility");
    println!("# E9: delivery and reconvergence vs speed x churn, with incremental reindexing");
    println!("# artifact: {}", reporter.path().display());
    println!("# (each line is an independent subprocess; RSS is per-configuration)\n");
    for &(n, speed, churn) in sweep {
        reporter.spawn(&format!("--one {n} {speed} {churn} 1"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--one", n, speed, churn] => run_one(
            n.parse().expect("n"),
            speed.parse().expect("speed"),
            churn.parse().expect("churn"),
            1,
        ),
        ["--one", n, speed, churn, threads] => run_one(
            n.parse().expect("n"),
            speed.parse().expect("speed"),
            churn.parse().expect("churn"),
            threads.parse().expect("threads"),
        ),
        // Grid + far field through every move: the moved-reception
        // recompute order must not depend on the thread count.
        ["--determinism", n] => {
            report::determinism("mobility", &format!("{n} 3 8"));
            println!(
                "determinism OK at n={n}: mobility metrics byte-identical across threads 1/2/8"
            );
        }
        ["--smoke"] => drive(&[(1_000, 1.5, 10), (1_000, 6.0, 10)], smoke_dir("mobility")),
        _ => drive(
            &[
                (1_000, 1.5, 0),
                (1_000, 1.5, 10),
                (1_000, 6.0, 10),
                (10_000, 1.5, 30),
                (100_000, 1.5, 100),
            ],
            artifact_dir(),
        ),
    }
}
