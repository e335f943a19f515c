//! Run-artifact writer: `BENCH_<name>.json` JSONL files at the repo root.
//!
//! Every experiment binary and bench target funnels its results through
//! [`Reporter`], which appends one self-contained JSON object per run —
//! metrics, the full configuration, the counter/timer registry snapshot,
//! and a provenance manifest (binary, git SHA, seed, peak RSS, wall time)
//! — so each commit adds to a machine-readable perf trajectory. The
//! schema is documented field by field in `docs/OBSERVABILITY.md`.
//!
//! A write only ever appends: no code here rewrites or deletes a line.
//! Readers key lines by `(label, provenance.git_sha)` and take the last
//! line per label. Artifacts land at the repo root ([`artifact_dir`]),
//! overridable with the `PARN_BENCH_DIR` environment variable; smoke,
//! quick and determinism modes write under [`smoke_dir`] or a
//! throwaway directory, never into the checkout.
//!
//! A measured run goes through [`Reporter::start`] (or [`Reporter::run`]
//! for one network): it zeroes the process-global `obs` registry,
//! starts the clock, and [`Measurement::record`] appends the line.
//! Multi-process experiments (one subprocess per configuration, so peak
//! RSS is per configuration) start their children with
//! [`Reporter::spawn`], and [`determinism`] runs one configuration at
//! 1, 2 and 8 sweep threads.

use parn_core::{Metrics, NetConfig, Network};
use parn_sim::json::{obj, Json};
use parn_sim::obs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Artifact schema identifier carried by every line.
pub const SCHEMA: &str = "parn-bench-run/1";

/// Peak resident set size of this process, in kB (Linux `VmHWM`).
/// `None` on platforms without `/proc`.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The workspace this crate was built from (two levels above its
/// manifest).
fn workspace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The commit of the checkout this binary was built from
/// (`git rev-parse HEAD` in that workspace, wherever the artifact goes),
/// or `"unknown"` outside a git checkout or without git.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(workspace_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where committed trajectories are written: `$PARN_BENCH_DIR` when set,
/// else the workspace root.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("PARN_BENCH_DIR").map_or_else(workspace_dir, PathBuf::from)
}

/// Where smoke and quick modes write: `$PARN_BENCH_DIR` when set, else a
/// fresh directory under the system temp dir, so they never touch a
/// committed artifact.
pub fn smoke_dir(tag: &str) -> PathBuf {
    std::env::var_os("PARN_BENCH_DIR").map_or_else(|| throwaway_dir(tag), PathBuf::from)
}

/// A directory under the system temp dir that did not exist before this
/// call.
fn throwaway_dir(tag: &str) -> PathBuf {
    let pid = std::process::id();
    for k in 0u32.. {
        let dir = std::env::temp_dir().join(format!("parn_{tag}_{pid}_{k}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return dir,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => panic!("create {}: {e}", dir.display()),
        }
    }
    unreachable!("every throwaway directory name is taken")
}

/// Parse a JSONL artifact back into its per-run records.
pub fn read_artifact(path: &Path) -> Vec<Json> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("parse artifact line: {e:?}")))
        .collect()
}

/// Appends JSONL run records to `BENCH_<name>.json`.
#[derive(Clone)]
pub struct Reporter {
    name: String,
    path: PathBuf,
}

impl Reporter {
    /// A reporter appending to `<dir>/BENCH_<name>.json`; lines already
    /// there stay. A binary passes [`artifact_dir`], or [`smoke_dir`] in
    /// its smoke and quick modes.
    pub fn new(dir: impl Into<PathBuf>, name: &str) -> Reporter {
        Reporter {
            name: name.to_string(),
            path: dir.into().join(format!("BENCH_{name}.json")),
        }
    }

    /// Path of the artifact file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Start one measured run: zero the process-global counter/timer
    /// registry and start the clock. Its line is written by
    /// [`Measurement::record`].
    pub fn start(&self, label: impl Into<String>) -> Measurement {
        obs::reset();
        Measurement {
            reporter: self.clone(),
            label: label.into(),
            started: Instant::now(),
        }
    }

    /// Run one network as a measured run (build and run timed), record
    /// its config and metrics, and return the metrics.
    pub fn run(&self, label: impl Into<String>, cfg: &NetConfig) -> Metrics {
        let run = self.start(label);
        let m = Network::run(cfg.clone());
        run.record(cfg.to_json(), m.to_json());
        m
    }

    /// Run this binary again with `args` (whitespace-separated), its
    /// lines appended to this reporter's directory; panics when the child
    /// fails.
    pub fn spawn(&self, args: &str) {
        let exe = std::env::current_exe().expect("current_exe");
        let dir = self.path.parent().expect("artifact path has a directory");
        let status = std::process::Command::new(&exe)
            .args(args.split_whitespace())
            .env("PARN_BENCH_DIR", dir)
            .status()
            .expect("spawn subprocess");
        assert!(
            status.success(),
            "{} {args} failed: {status}",
            exe.display()
        );
    }

    /// One JSON line: `label`, the run's config and metrics, the registry
    /// snapshot at call time and the provenance manifest, then `extra`.
    fn render(
        &self,
        label: &str,
        wall_s: f64,
        config: Json,
        metrics: Json,
        extra: Vec<(String, Json)>,
    ) -> String {
        let counters = Json::Obj(
            obs::counters_snapshot()
                .into_iter()
                .map(|(n, v)| (n.to_string(), Json::UInt(v)))
                .collect(),
        );
        let timers = Json::Obj(
            obs::timers_snapshot()
                .into_iter()
                .map(|(n, total_ns, count)| {
                    (
                        n.to_string(),
                        obj([
                            ("total_s", (total_ns as f64 / 1e9).into()),
                            ("count", count.into()),
                        ]),
                    )
                })
                .collect(),
        );
        let binary = std::env::current_exe()
            .ok()
            .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .unwrap_or_else(|| "unknown".to_string());
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let seed = config.get("seed").cloned().unwrap_or(Json::Null);
        let provenance = obj([
            ("binary", binary.into()),
            ("git_sha", git_sha().into()),
            ("seed", seed),
            (
                "peak_rss_kb",
                peak_rss_kb().map(Json::UInt).unwrap_or(Json::Null),
            ),
            ("wall_s", wall_s.into()),
            ("unix_time", unix_time.into()),
        ]);
        let mut line = obj([
            ("schema", SCHEMA.into()),
            ("bench", self.name.as_str().into()),
            ("label", label.into()),
            ("provenance", provenance),
            ("config", config),
            ("metrics", metrics),
            ("counters", counters),
            ("timers", timers),
        ]);
        if let Json::Obj(fields) = &mut line {
            fields.extend(extra);
        }
        line.to_string()
    }
}

/// One measured run, begun by [`Reporter::start`].
pub struct Measurement {
    reporter: Reporter,
    label: String,
    started: Instant,
}

impl Measurement {
    /// Time only what follows; the counters keep what came before.
    pub fn restart_clock(&mut self) {
        self.started = Instant::now();
    }

    /// Append the run's line: its config and metrics, the counters since
    /// [`Reporter::start`], and the wall time until now, which this
    /// returns.
    pub fn record(self, config: Json, metrics: Json) -> f64 {
        self.record_with(config, metrics, Vec::new())
    }

    /// [`record`](Measurement::record) plus extra top-level fields after
    /// `timers`: measurements that are not deterministic metrics, such as
    /// `exp_scale`'s `heap` block, stay out of `metrics`.
    pub fn record_with(self, config: Json, metrics: Json, extra: Vec<(String, Json)>) -> f64 {
        let wall_s = self.started.elapsed().as_secs_f64();
        let path = &self.reporter.path;
        let line = self
            .reporter
            .render(&self.label, wall_s, config, metrics, extra);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
        writeln!(f, "{line}").expect("write artifact line");
        wall_s
    }
}

/// The determinism matrix: run `--one <args> <threads>` at 1, 2 and 8
/// sweep threads, each child into a throwaway directory of its own, and
/// assert that the three `metrics` objects are byte-identical. Returns
/// the threads-1 line, whose counters are not split across per-thread
/// caches.
pub fn determinism(bench: &str, args: &str) -> Json {
    let base = throwaway_dir(&format!("{bench}_determinism"));
    let mut lines: Vec<Json> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let reporter = Reporter::new(base.join(format!("t{threads}")), bench);
            reporter.spawn(&format!("--one {args} {threads}"));
            let mut records = read_artifact(reporter.path());
            assert_eq!(records.len(), 1, "expected one artifact line");
            records.pop().expect("one line")
        })
        .collect();
    let metrics = |line: &Json| line.get("metrics").expect("metrics field").to_string();
    for (threads, line) in [2, 8].into_iter().zip(&lines[1..]) {
        assert_eq!(
            metrics(line),
            metrics(&lines[0]),
            "{bench} metrics diverged between threads=1 and threads={threads}: \
             the result depends on the sweep thread count"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
    lines.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The counter registry is process-global and tests run in parallel:
    /// every test that zeroes or reads it holds this lock.
    static REGISTRY: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn config() -> Json {
        obj([("seed", 7u64.into()), ("n", 10u64.into())])
    }

    fn metrics() -> Json {
        obj([("delivered", 5u64.into())])
    }

    #[test]
    fn rendered_line_is_valid_json_with_schema_fields() {
        let _g = lock();
        parn_sim::counter_inc!("test.report.counter", 3);
        let r = Reporter::new(artifact_dir(), "report_unit_test");
        let line = r.render(
            "unit",
            0.25,
            config(),
            metrics(),
            vec![("extra".into(), 3u64.into())],
        );
        let v = Json::parse(&line).expect("line parses");
        assert_eq!(v.get("schema"), Some(&Json::Str(SCHEMA.into())));
        assert_eq!(v.get("bench"), Some(&Json::Str("report_unit_test".into())));
        assert_eq!(v.get("label"), Some(&Json::Str("unit".into())));
        let prov = v.get("provenance").expect("provenance");
        for field in [
            "binary",
            "git_sha",
            "seed",
            "peak_rss_kb",
            "wall_s",
            "unix_time",
        ] {
            assert!(prov.get(field).is_some(), "missing provenance.{field}");
        }
        assert_eq!(prov.get("seed"), Some(&Json::UInt(7)));
        assert_eq!(v.get("config").unwrap().get("n"), Some(&Json::UInt(10)));
        assert_eq!(
            v.get("metrics").unwrap().get("delivered"),
            Some(&Json::UInt(5))
        );
        let counters = v.get("counters").expect("counters");
        assert!(matches!(counters, Json::Obj(_)));
        assert!(counters.get("test.report.counter").is_some());
        assert!(matches!(v.get("timers"), Some(Json::Obj(_))));
        assert_eq!(v.get("extra"), Some(&Json::UInt(3)));
    }

    #[test]
    fn two_recorders_on_one_file_keep_both_lines_in_order() {
        let _g = lock();
        let dir = throwaway_dir("report_test");
        let first = Reporter::new(&dir, "shared");
        let second = Reporter::new(&dir, "shared");
        first.start("first").record(config(), metrics());
        second.start("second").record(config(), metrics());
        first.start("third").record(config(), metrics());
        let labels: Vec<Json> = read_artifact(first.path())
            .iter()
            .map(|l| l.get("label").expect("label").clone())
            .collect();
        assert_eq!(
            labels,
            ["first", "second", "third"].map(|l| Json::Str(l.into()))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_line_counts_only_its_own_run() {
        let _g = lock();
        parn_sim::counter_inc!("test.report.before", 5);
        let dir = throwaway_dir("report_test");
        let r = Reporter::new(&dir, "counted");
        let run = r.start("run");
        parn_sim::counter_inc!("test.report.inside", 2);
        run.record(config(), metrics());
        let line = read_artifact(r.path()).pop().expect("one line");
        let counters = line.get("counters").expect("counters");
        // The name stays registered, but the bump before the run is gone.
        assert_eq!(counters.get("test.report.before"), Some(&Json::UInt(0)));
        assert_eq!(counters.get("test.report.inside"), Some(&Json::UInt(2)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_line_names_the_checkout_commit_wherever_it_is_written() {
        let _g = lock();
        let missing = std::env::temp_dir()
            .join(format!("parn_missing_{}", std::process::id()))
            .join("bench-artifacts");
        assert!(!missing.exists());
        let line = Reporter::new(&missing, "sha").render("sha", 0.0, config(), metrics(), vec![]);
        let head = std::process::Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8(o.stdout).unwrap().trim().to_string()
            });
        let v = Json::parse(&line).expect("line parses");
        assert_eq!(
            v.get("provenance").and_then(|p| p.get("git_sha")),
            Some(&Json::Str(head))
        );
    }
}
