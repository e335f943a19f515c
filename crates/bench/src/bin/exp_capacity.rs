//! E7 — saturation capacity envelope: drive each traffic model to its
//! goodput knee and bracket the result with closed-form references.
//!
//! For every network size n ∈ {10³, 10⁴, 10⁵} and traffic model
//! (gravity, hotspot, bursty on-off over gravity), the per-station
//! arrival rate climbs a ladder until carried/offered goodput collapses.
//! Even an unloaded run's carried/offered ratio sits below 1: packets
//! still in flight when the measured window closes are censored (the
//! fraction grows with hop count). The *knee* is therefore relative —
//! the last rate whose ratio stays within 90% of the lowest rung's
//! (the censoring baseline) — with an absolute 0.7 saturation floor;
//! the ladder stops early once the ratio falls under 0.7 (everything
//! beyond is deeper saturation, not information).
//!
//! Every child run records `Metrics::to_json_extended()` (the
//! `saturation` block: offered/carried pps, delay and hop percentiles,
//! time-weighted queue depth) through the shared [`Reporter`], and the
//! driver appends one synthesized `knee n=… model=…` summary line per
//! sweep with the closed-form comparison columns from
//! [`parn_phys::capacity`]:
//!
//! * Błaszczyszyn–Mühlethaler SINR coverage — evaluated at the mean din
//!   of a finite disk (`mean_din_w` + `coverage_at_mean_sinr`), because
//!   the infinite-plane constant `C(β)` diverges at the free-space β = 2
//!   this repo simulates (`c_beta2` is reported as null deliberately);
//! * Mhatre–Rosenberg / Gupta–Kumar relaying bound — measured duty
//!   cycle at the knee converted to per-hop service, divided by the
//!   analytic mean hop count of the traffic model, plus the
//!   `Θ(1/√(n ln n))` per-node scaling envelope.
//!
//! Modes (subprocess pattern as in `exp_scale`, one child per
//! configuration so peak RSS stays per-run):
//!
//! * no args — full sweep driver, appending to `BENCH_capacity.json`;
//! * `--smoke` — tiny sweep (n = 200, truncated ladder) for CI, into
//!   `PARN_BENCH_DIR` or a throwaway directory it prints;
//! * `--one <n> <model> <rate>` — run one configuration and append its
//!   artifact line.
//!
//! The measured-vs-analytic discussion lives in `docs/CAPACITY.md`.

use parn_bench::report::{artifact_dir, read_artifact, smoke_dir, Reporter};
use parn_core::{
    DestPolicy, FarFieldConfig, NetConfig, Network, PhyBackend, RouteMode, SourceModel,
};
use parn_phys::capacity::{
    coverage_at_mean_sinr, gravity_mean_distance, mean_din_w, mean_hops, per_node_capacity_scaling,
    saturation_arrival_bound,
};
use parn_sim::json::{obj, Json};
use parn_sim::Duration;
use std::path::PathBuf;

/// Station density of `NetConfig::paper_default` (stations per m²).
const RHO: f64 = 0.01;
/// Usable hop reach at that density: `reach_factor/√ρ` = 20 m.
const REACH_M: f64 = 20.0;
/// Rate ladder (packets/station/s). Climbed until saturation.
const LADDER: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
/// A run below this carried/offered ratio ends its sweep early — and no
/// rung below it can be the knee (absolute saturation floor).
const STOP_RATIO: f64 = 0.7;
/// The knee is the last rate whose ratio stays within this factor of the
/// lowest rung's ratio (the in-flight-censoring baseline).
const KNEE_FRACTION: f64 = 0.9;

const MODELS: [&str; 3] = ["gravity", "hotspot", "onoff-gravity"];

fn capacity_config(n: usize, model: &str, rate: f64) -> NetConfig {
    let mut cfg = NetConfig::paper_default(n, 42);
    // Multi-hop at metro scale without the O(M²) all-pairs table: greedy
    // geographic forwarding over the spatial index with far-field
    // aggregation — the only pairing that reaches n = 10⁵.
    cfg.phy_backend = PhyBackend::Grid {
        far_field: Some(FarFieldConfig::default_for_paper()),
    };
    cfg.route_mode = RouteMode::Greedy;
    cfg.traffic.arrivals_per_station_per_sec = rate;
    match model {
        "gravity" => cfg.traffic.dest = DestPolicy::Gravity { exponent: 2.0 },
        "hotspot" => {
            cfg.traffic.dest = DestPolicy::Hotspot {
                sinks: 4,
                skew: 1.0,
            }
        }
        "onoff-gravity" => {
            cfg.traffic.dest = DestPolicy::Gravity { exponent: 2.0 };
            // 20% duty bursts: 5× peak rate at the same mean.
            cfg.traffic.source = SourceModel::OnOff {
                on_mean_s: 0.2,
                off_mean_s: 0.8,
            };
        }
        other => panic!("unknown model {other:?} (want gravity|hotspot|onoff-gravity)"),
    }
    // Measured window shrinks with n; the knee shows up within seconds
    // of simulated time once queues stop draining.
    let (run_s, warm_ms) = match n {
        0..=2_000 => (10, 2_500),
        2_001..=20_000 => (4, 1_000),
        _ => (2, 500),
    };
    cfg.run_for = Duration::from_secs(run_s);
    cfg.warmup = Duration::from_millis(warm_ms);
    cfg
}

/// Follow `path` into nested JSON objects and read a number (NaN when
/// absent or non-numeric).
fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for p in path {
        match cur.get(p) {
            Some(next) => cur = next,
            None => return f64::NAN,
        }
    }
    match cur {
        Json::Num(v) => *v,
        Json::UInt(v) => *v as f64,
        Json::Int(v) => *v as f64,
        _ => f64::NAN,
    }
}

fn carried_over_offered(record: &Json) -> f64 {
    let offered = num(record, &["metrics", "saturation", "offered_pps"]);
    let carried = num(record, &["metrics", "saturation", "carried_pps"]);
    if offered > 0.0 {
        carried / offered
    } else {
        0.0
    }
}

fn run_one(n: usize, model: &str, rate: f64) {
    let cfg = capacity_config(n, model, rate);
    let run =
        Reporter::new(artifact_dir(), "capacity").start(format!("n={n} model={model} rate={rate}"));
    let m = Network::run(cfg.clone());
    let wall = run.record(cfg.to_json(), m.to_json_extended());
    assert_eq!(
        m.collision_losses(),
        0,
        "collision-freedom broken at n={n} model={model} rate={rate}: {}",
        m.summary()
    );
    let span = m.measured_span.as_secs_f64().max(1e-9);
    println!(
        "n={n} model={model} rate={rate} wall_s={wall:.2} offered_pps={:.1} carried_pps={:.1} \
         delivered={} hops_mean={:.2}",
        m.generated as f64 / span,
        m.delivered as f64 / span,
        m.delivered,
        m.hops_per_packet.mean(),
    );
}

/// Mean flow distance (m) the traffic model induces at size `n` — the
/// analytic marginal, not a measurement.
fn analytic_flow_distance(n: usize, model: &str) -> f64 {
    let radius = (n as f64 / (std::f64::consts::PI * RHO)).sqrt();
    match model {
        // Matches the sampler's marginal: p(r) ∝ r^(1-α) on
        // [reach, max(2R, 2·reach)] (see `Network::new`).
        "gravity" | "onoff-gravity" => {
            gravity_mean_distance(2.0, REACH_M, (2.0 * radius).max(2.0 * REACH_M))
        }
        // Sinks are uniformly placed stations, so a flow is a uniform
        // random pair: E[r] = 128R/(45π) ≈ 0.905R in a disk of radius R.
        "hotspot" => 128.0 * radius / (45.0 * std::f64::consts::PI),
        other => panic!("unknown model {other:?}"),
    }
}

/// Sweep one (n, model) pair up the ladder, then append the synthesized
/// knee-summary artifact line with the analytic comparison columns.
/// Returns the measured mean hop count at the knee.
fn sweep(reporter: &Reporter, n: usize, model: &str, ladder: &[f64]) -> f64 {
    // The summary line times the whole sweep; the driver process runs
    // no simulation, so its counters stay empty.
    let summary = reporter.start(format!("knee n={n} model={model}"));
    let mut runs: Vec<(f64, Json)> = Vec::new();
    for &rate in ladder {
        reporter.spawn(&format!("--one {n} {model} {rate}"));
        let record = read_artifact(reporter.path())
            .pop()
            .expect("child appended a line");
        let ratio = carried_over_offered(&record);
        runs.push((rate, record));
        if ratio < STOP_RATIO {
            break;
        }
    }
    // The knee: last rate whose ratio holds both the relative bar
    // (within KNEE_FRACTION of the lowest rung, the censoring baseline)
    // and the absolute floor. When even the lowest rung saturates, the
    // knee is below the ladder: report null and use the lowest run for
    // the measured columns.
    let baseline = carried_over_offered(&runs[0].1);
    let knee_bar = (baseline * KNEE_FRACTION).max(STOP_RATIO);
    let knee = if baseline < STOP_RATIO {
        None
    } else {
        runs.iter()
            .rev()
            .find(|(_, r)| carried_over_offered(r) >= knee_bar)
    };
    let (at, knee_rate) = match knee {
        Some((rate, record)) => (record, Some(*rate)),
        None => (&runs[0].1, None),
    };

    let cfg = capacity_config(n, model, 1.0);
    let radius = (n as f64 / (std::f64::consts::PI * RHO)).sqrt();
    let theta = cfg.sinr_threshold();
    let duty = num(at, &["metrics", "mean_tx_duty"]).max(1e-6);
    let airtime_s = cfg.packet_airtime().as_secs_f64();

    // Błaszczyszyn–Mühlethaler at β = 2: finite-disk mean din in place of
    // the divergent infinite-plane constant.
    let din_w = mean_din_w(
        RHO * duty,
        cfg.delivered_power.value(),
        REACH_M,
        REACH_M,
        radius.max(2.0 * REACH_M),
    );
    let mean_sinr = cfg.delivered_power.value() / (din_w + cfg.thermal_noise.value());
    let coverage = coverage_at_mean_sinr(theta, mean_sinr);

    // Mhatre–Rosenberg relaying bound: per-hop service the measured duty
    // cycle sustains, divided by the analytic hop count of a mean flow.
    let flow_m = analytic_flow_distance(n, model);
    let hops_analytic = mean_hops(flow_m, REACH_M);
    let service_pps = duty / airtime_s;
    let relay_bound = saturation_arrival_bound(service_pps, hops_analytic);

    let hops_measured = num(at, &["metrics", "saturation", "hops", "mean"]);
    let carried_per_station = num(
        at,
        &["metrics", "saturation", "per_station_carried_pps", "mean"],
    );
    summary.record(
        obj([
            ("n", n.into()),
            ("model", model.into()),
            (
                "ladder_pps",
                Json::Arr(ladder.iter().map(|&r| r.into()).collect()),
            ),
            ("knee_fraction", KNEE_FRACTION.into()),
            ("stop_ratio", STOP_RATIO.into()),
        ]),
        obj([
            (
                "measured",
                obj([
                    (
                        "knee_rate_pps",
                        knee_rate.map(Json::from).unwrap_or(Json::Null),
                    ),
                    ("ratio_at_knee", carried_over_offered(at).into()),
                    ("ratio_low_load", baseline.into()),
                    ("carried_pps_per_station", carried_per_station.into()),
                    ("hops_mean", hops_measured.into()),
                    (
                        "delay_p95_s",
                        num(at, &["metrics", "saturation", "delay_s", "p95"]).into(),
                    ),
                    ("mean_tx_duty", duty.into()),
                ]),
            ),
            (
                "analytic",
                obj([
                    // C(β) is undefined at the simulated β = 2 — that
                    // divergence is the paper's §4 din argument.
                    ("c_beta2", Json::Null),
                    ("mean_din_w", din_w.into()),
                    ("mean_sinr", mean_sinr.into()),
                    ("coverage_at_mean_sinr", coverage.into()),
                    ("flow_distance_m", flow_m.into()),
                    ("mean_hops", hops_analytic.into()),
                    ("relay_bound_pps", relay_bound.into()),
                    (
                        "scaling_vs_1e3",
                        (per_node_capacity_scaling(n as f64) / per_node_capacity_scaling(1e3))
                            .into(),
                    ),
                ]),
            ),
        ]),
    );
    println!(
        "knee n={n} model={model}: rate={} ratio={:.3} hops_measured={hops_measured:.2} \
         hops_analytic={hops_analytic:.2} relay_bound_pps={relay_bound:.2} coverage={coverage:.3}\n",
        knee_rate.map_or("<ladder".into(), |r| format!("{r}")),
        carried_over_offered(at),
    );
    hops_measured
}

fn drive(sizes: &[usize], ladder: &[f64], assert_multihop: bool, dir: PathBuf) {
    let reporter = Reporter::new(dir, "capacity");
    println!("# E7: saturation capacity envelope (knee sweep per traffic model)");
    println!("# artifact: {}", reporter.path().display());
    println!(
        "# ladder: {ladder:?} pps/station; knee = last ratio within \
         {KNEE_FRACTION} of the low-load baseline (floor {STOP_RATIO})\n"
    );
    for &n in sizes {
        for model in MODELS {
            let hops = sweep(&reporter, n, model, ladder);
            // Gravity traffic must be genuinely multi-hop at its knee.
            assert!(
                !assert_multihop || !model.contains("gravity") || hops > 2.0,
                "knee n={n} model={model}: gravity knee hops_mean={hops:.2} not multi-hop"
            );
        }
    }
    println!("# E7 sweep complete");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--one", n, model, rate] => {
            run_one(n.parse().expect("n"), model, rate.parse().expect("rate"))
        }
        // CI smoke: one small size, two rungs — exercises the child,
        // the artifact schema, and the knee synthesis in seconds.
        ["--smoke"] => drive(&[200], &[0.5, 2.0], false, smoke_dir("capacity")),
        _ => drive(&[1_000, 10_000, 100_000], &LADDER, true, artifact_dir()),
    }
}
