//! The repository benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! benchmark --smoke [--out DIR]
//! ```
//!
//! The first form measures one workload for `--seconds` seconds. Each
//! repetition runs in a fresh subprocess (`--rep`, below), so peak RSS is
//! the workload's own; the benchmark itself runs one process at a time.
//! With `--trace 0` it reports the median of the end-to-end metrics over
//! the repetitions; with `--trace 1` it alternates untraced and traced
//! repetitions and reports the per-layer profile, including the tracing
//! overhead. Every repetition passes the correctness gates or the
//! benchmark exits non-zero. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The full
//! record, with every raw value, goes to `DIR/<workload>-seed<n>-trace<t>.json`
//! (default `DIR`: `$CARGO_TARGET_DIR/benchmark`, else `target/benchmark`).
//!
//! `--smoke` runs all four workloads at toy size, one repetition plus one
//! traced repetition each, in-process.
//!
//! `--rep <workload> <seed> <0|1>` runs one repetition and prints it as
//! one JSON line; the first form spawns it.

mod rep;
mod trace;
mod workloads;

use parn_sim::json::{obj, Json};
use rep::{Metric, Rep};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Scale, Workload};

/// Untraced repetitions a measurement makes at least, however long they
/// take: the median of fewer is one sample.
const MIN_REPS: usize = 3;

/// An end-to-end metric: name, unit, and where a repetition holds it.
type EndToEnd = (&'static str, &'static str, fn(&Rep) -> f64);

const END_TO_END: [EndToEnd; 4] = [
    ("setup_s", "s", |r| r.setup_s),
    ("run_s", "s", |r| r.run_s),
    ("peak_rss_mb", "MB", |r| r.peak_rss_mb),
    ("delivery_rate", "fraction", |r| r.delivery_rate),
];

const USAGE: &str =
    "usage: benchmark --workload <metro_far|gravity_knee|dv_churn|mobility_reroute> \
--seed <n> --seconds <1-3600> --trace <0|1> [--out DIR]\n       benchmark --smoke [--out DIR]";

enum Command {
    Measure {
        workload: Workload,
        seed: u64,
        seconds: u64,
        traced: bool,
        out: PathBuf,
    },
    Smoke {
        out: PathBuf,
    },
    Rep {
        workload: Workload,
        seed: u64,
        traced: bool,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let workload =
        |name: &str| Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"));
    let seed = |s: &str| s.parse::<u64>().map_err(|_| format!("bad seed {s:?}"));
    let flag = |s: &str| match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("--trace takes 0 or 1, not {s:?}")),
    };
    if let [rep, w, s, t] = args {
        if rep == "--rep" {
            return Ok(Command::Rep {
                workload: workload(w)?,
                seed: seed(s)?,
                traced: flag(t)?,
            });
        }
    }
    let mut smoke = false;
    let (mut w, mut s, mut secs, mut t, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--smoke" {
            smoke = true;
            continue;
        }
        let slot = match arg.as_str() {
            "--workload" => &mut w,
            "--seed" => &mut s,
            "--seconds" => &mut secs,
            "--trace" => &mut t,
            "--out" => &mut out,
            other => return Err(format!("unknown argument {other:?}")),
        };
        *slot = Some(
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))?
                .clone(),
        );
    }
    let out = out.map_or_else(default_out, PathBuf::from);
    if smoke {
        return Ok(Command::Smoke { out });
    }
    let missing = |name: &str| format!("missing {name}");
    let seconds = secs.ok_or_else(|| missing("--seconds"))?;
    let seconds = match seconds.parse::<u64>() {
        Ok(n @ 1..=3600) => n,
        _ => return Err(format!("--seconds takes 1 to 3600, not {seconds:?}")),
    };
    Ok(Command::Measure {
        workload: workload(&w.ok_or_else(|| missing("--workload"))?)?,
        seed: seed(&s.ok_or_else(|| missing("--seed"))?)?,
        seconds,
        traced: flag(&t.ok_or_else(|| missing("--trace"))?)?,
        out,
    })
}

fn default_out() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = match command {
        Command::Rep {
            workload,
            seed,
            traced,
        } => {
            println!(
                "{}",
                rep::run(workload, seed, Scale::Full, traced).to_json()
            );
            true
        }
        Command::Measure {
            workload,
            seed,
            seconds,
            traced,
            out,
        } => measure(workload, seed, Duration::from_secs(seconds), traced, &out),
        Command::Smoke { out } => smoke(&out).iter().all(Report::correct),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Repeat the workload in subprocesses until `seconds` have passed (and at
/// least [`MIN_REPS`] untraced repetitions ran), then report.
fn measure(workload: Workload, seed: u64, seconds: Duration, traced: bool, out: &Path) -> bool {
    let started = Instant::now();
    let mut report = Report::new(workload, seed, Scale::Full);
    while report.plain.len() < MIN_REPS || started.elapsed() < seconds {
        let mut step = || -> Result<(), String> {
            report.plain.push(spawn_rep(workload, seed, false)?);
            if traced {
                report.traced.push(spawn_rep(workload, seed, true)?);
            }
            Ok(())
        };
        if let Err(e) = step() {
            report.errors.push(e);
            break;
        }
    }
    let metrics = if traced {
        report.per_layer()
    } else {
        report.end_to_end()
    };
    print_metrics(workload, &metrics);
    let file = out.join(format!(
        "{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(traced)
    ));
    write_record(&file, &report.record());
    let attempted = report.plain.len() + report.traced.len();
    let failed = report.failed_reps();
    let result = obj([
        ("correct", report.correct().into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", rep::metrics_json(&metrics)),
    ]);
    println!("{result}");
    report.correct()
}

/// Run one repetition in a fresh process and read back its line.
fn spawn_rep(workload: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--rep", workload.name(), &seed.to_string()])
        .arg(if traced { "1" } else { "0" })
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!("repetition exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(Rep::from_json)
        .ok_or_else(|| format!("unreadable repetition output {line:?}"))
}

/// All four workloads at toy size, in-process: one untraced and one
/// traced repetition each.
fn smoke(out: &Path) -> Vec<Report> {
    let seed = 1;
    let reports: Vec<Report> = Workload::ALL
        .into_iter()
        .map(|w| {
            let mut report = Report::new(w, seed, Scale::Toy);
            report.plain.push(rep::run(w, seed, Scale::Toy, false));
            report.traced.push(rep::run(w, seed, Scale::Toy, true));
            report
        })
        .collect();
    for r in &reports {
        let mut metrics = r.end_to_end();
        metrics.extend(r.per_layer());
        print_metrics(r.workload, &metrics);
        if !r.correct() {
            println!("{}: FAILED {:?}", r.workload.name(), r.failures());
        }
    }
    let record = Json::Obj(
        reports
            .iter()
            .map(|r| (r.workload.name().to_string(), r.record()))
            .collect(),
    );
    write_record(&out.join("smoke.json"), &record);
    reports
}

/// The repetitions of one workload at one seed.
struct Report {
    workload: Workload,
    seed: u64,
    scale: Scale,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    /// Repetitions that did not complete.
    errors: Vec<String>,
}

impl Report {
    fn new(workload: Workload, seed: u64, scale: Scale) -> Report {
        Report {
            workload,
            seed,
            scale,
            plain: Vec::new(),
            traced: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn reps(&self) -> impl Iterator<Item = &Rep> {
        self.plain.iter().chain(&self.traced)
    }

    fn failed_reps(&self) -> usize {
        self.reps().filter(|r| !r.failures.is_empty()).count() + self.errors.len()
    }

    /// Every failed gate, plus a digest that differs between repetitions.
    fn failures(&self) -> Vec<String> {
        let mut failures = self.errors.clone();
        for (i, r) in self.reps().enumerate() {
            failures.extend(r.failures.iter().map(|f| format!("repetition {i}: {f}")));
        }
        if let Some(first) = self.reps().next() {
            if self.reps().any(|r| r.digest != first.digest) {
                let digests: Vec<&str> = self.reps().map(|r| r.digest.as_str()).collect();
                failures.push(format!(
                    "metrics_digest differs between repetitions: {digests:?}"
                ));
            }
        }
        failures
    }

    fn correct(&self) -> bool {
        !self.plain.is_empty() && self.failures().is_empty()
    }

    /// Medians over the untraced repetitions.
    fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|&(name, unit, get)| Metric {
                name: name.into(),
                unit: unit.into(),
                value: median(self.plain.iter().map(get).collect()),
            })
            .collect()
    }

    /// Medians over the traced repetitions, plus the rates that need the
    /// untraced run time.
    fn per_layer(&self) -> Vec<Metric> {
        let Some(first) = self.traced.first() else {
            return Vec::new();
        };
        let mut metrics: Vec<Metric> = first
            .layers
            .iter()
            .enumerate()
            .map(|(i, m)| Metric {
                value: median(self.traced.iter().map(|r| r.layers[i].value).collect()),
                ..m.clone()
            })
            .collect();
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        let untraced_s = median(self.plain.iter().map(|r| r.run_s).collect());
        let events_per_s = value("sim.events") / untraced_s;
        // Each traced repetition runs right after an untraced one; the
        // median of the pairs' ratios cancels slow drift in machine speed.
        let ratios = self.plain.iter().zip(&self.traced);
        let overhead = median(ratios.map(|(p, t)| t.run_s / p.run_s - 1.0).collect());
        for (name, unit, value) in [
            ("sim.events_per_s", "1/s", events_per_s),
            ("trace_overhead", "fraction", overhead),
        ] {
            metrics.push(Metric {
                name: name.into(),
                unit: unit.into(),
                value,
            });
        }
        metrics
    }

    /// The full record: provenance and every raw value.
    fn record(&self) -> Json {
        let cfg = self.workload.config(self.seed, self.scale);
        let summary = |m: Metric, raw: Vec<f64>| {
            let stats = obj([
                ("unit", m.unit.into()),
                ("median", m.value.into()),
                ("raw", raw.into()),
            ]);
            (m.name, stats)
        };
        let end_to_end = self
            .end_to_end()
            .into_iter()
            .zip(END_TO_END)
            .map(|(m, (_, _, get))| summary(m, self.plain.iter().map(get).collect()))
            .collect();
        // Raw per-layer values exist per traced repetition; the two rates
        // `per_layer` derives from the untraced run time have none.
        let per_layer = self
            .per_layer()
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let raw = self
                    .traced
                    .iter()
                    .filter_map(|r| r.layers.get(i))
                    .map(|l| l.value);
                summary(m, raw.collect())
            })
            .collect();
        let phi = self
            .traced
            .first()
            .map_or(Vec::new(), |r| r.phi_labels.clone());
        obj([
            ("schema", "parn-benchmark/1".into()),
            ("workload", self.workload.name().into()),
            ("seed", self.seed.into()),
            ("git_sha", git_sha().into()),
            ("nproc", nproc().into()),
            ("threads", cfg.threads.into()),
            ("reps", self.plain.len().into()),
            ("traced_reps", self.traced.len().into()),
            ("correct", self.correct().into()),
            ("failures", self.failures().into()),
            (
                "metrics_digest",
                self.reps()
                    .next()
                    .map_or(Json::Null, |r| r.digest.as_str().into()),
            ),
            ("end_to_end", Json::Obj(end_to_end)),
            ("per_layer", Json::Obj(per_layer)),
            (
                "phi_percentiles",
                Json::Obj(phi.into_iter().map(|(k, l)| (k, l.into())).collect()),
            ),
            ("config", cfg.to_json()),
        ])
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn print_metrics(workload: Workload, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<18} {:<36} {:>16.6} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
}

fn write_record(path: &Path, record: &Json) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, format!("{record}\n")));
    match written {
        Ok(()) => println!("record: {}", path.display()),
        Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The checked-out commit. `GIT_DIR` pins git to `./.git`, so outside a
/// git checkout it reports "unknown" without searching parent directories.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parn_core::Network;
    use parn_sim::Time;

    /// The benchmark's loops, traced and untraced, produce the metrics
    /// `Network::run` produces, byte for byte.
    #[test]
    fn benchmark_loops_match_network_run() {
        for w in Workload::ALL {
            let cfg = w.config(7, Scale::Toy);
            let end = Time::ZERO + cfg.run_for;
            let (_, effective) = w.build(cfg.clone());
            let reference = Network::run(effective).to_json().to_string();
            let (net, _) = w.build(cfg.clone());
            let (traced, _) = trace::run_traced(net, end);
            assert_eq!(
                traced.to_json().to_string(),
                reference,
                "{} traced",
                w.name()
            );
            assert_eq!(
                rep::run(w, 7, Scale::Toy, false).digest,
                rep::digest(&traced),
                "{} untraced",
                w.name()
            );
        }
    }

    /// Smoke mode passes every gate and prints exactly the metrics, with
    /// the units, that BENCHMARK.json documents.
    #[test]
    fn smoke_reports_every_documented_metric() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("read BENCHMARK.json");
        let spec = Json::parse(&spec).expect("BENCHMARK.json parses");
        let documented = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = spec.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("malformed {key} entry {m}"),
                })
                .collect()
        };
        let names = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics.into_iter().map(|m| (m.name, m.unit)).collect()
        };
        let out = std::env::temp_dir().join(format!("parn-benchmark-smoke-{}", std::process::id()));
        let started = Instant::now();
        let reports = smoke(&out);
        let _ = std::fs::remove_dir_all(&out);
        if !cfg!(debug_assertions) {
            assert!(
                started.elapsed() < Duration::from_secs(15),
                "smoke took {:?}",
                started.elapsed()
            );
        }
        for r in &reports {
            assert!(r.correct(), "{}: {:?}", r.workload.name(), r.failures());
            assert_eq!(names(r.end_to_end()), documented("end_to_end"));
            assert_eq!(names(r.per_layer()), documented("per_layer"));
        }
    }

    #[test]
    fn rep_round_trips_through_json() {
        let r = rep::run(Workload::MetroFar, 3, Scale::Toy, true);
        assert_eq!(Rep::from_json(&r.to_json()), Some(r));
    }
}
