//! Benchmark and experiment harnesses for the workspace.
//!
//! The `benches/` targets use the zero-dependency timing [`harness`]
//! below (the workspace builds hermetically, so no external bench
//! framework). The `src/bin/` experiments regenerate the paper's
//! figures and tables. Both drop machine-readable `BENCH_*.json` run
//! artifacts at the repo root through [`report::Reporter`]
//! (schema: `docs/OBSERVABILITY.md`).

#![warn(missing_docs)]

pub mod report;

use std::time::{Duration, Instant};

/// Entry point for a `harness = false` bench target.
///
/// Quick mode runs each bench for a single iteration as a smoke test and
/// writes nothing. It is selected by the `PARN_BENCH_QUICK=1` environment
/// variable (`PARN_BENCH_QUICK=1 cargo bench -p parn-bench`) or a `--test`
/// argument. Cargo passes no such argument to `harness = false` targets,
/// so `cargo test --bench <target>` runs the full timing loop. Outside
/// quick mode, results are also written to `BENCH_micro_<target>.json`
/// when the harness is dropped.
pub fn harness(target: &str) -> Harness {
    let quick = std::env::args().any(|a| a == "--test")
        || std::env::var("PARN_BENCH_QUICK").is_ok_and(|v| v == "1");
    // `cargo bench` also passes `--bench` and a filter; accept and use
    // the first non-flag argument as a substring filter.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    println!("# bench target: {target}");
    Harness {
        quick,
        filter,
        target: target.to_string(),
        results: Vec::new(),
        started: Instant::now(),
    }
}

/// A minimal benchmark runner: per-benchmark warmup, auto-scaled
/// iteration counts, and min/mean-of-samples reporting.
pub struct Harness {
    quick: bool,
    filter: Option<String>,
    target: String,
    results: Vec<(String, f64, f64, u64)>, // label, min_s, mean_s, iters
    started: Instant,
}

impl Drop for Harness {
    /// Write the collected results as one `BENCH_micro_<target>.json`
    /// line. Quick mode (smoke runs) writes nothing —
    /// single unwarmed iterations are not trajectory data.
    fn drop(&mut self) {
        if self.quick || self.results.is_empty() {
            return;
        }
        use parn_sim::json::{obj, Json};
        let metrics = Json::Obj(
            self.results
                .iter()
                .map(|(label, min_s, mean_s, iters)| {
                    (
                        label.clone(),
                        obj([
                            ("min_s", (*min_s).into()),
                            ("mean_s", (*mean_s).into()),
                            ("iters", (*iters).into()),
                        ]),
                    )
                })
                .collect(),
        );
        let reporter = report::Reporter::create(&format!("micro_{}", self.target));
        reporter.record(&report::Run {
            label: self.target.clone(),
            config: obj([(
                "filter",
                self.filter
                    .as_deref()
                    .map(|f| Json::Str(f.into()))
                    .unwrap_or(Json::Null),
            )]),
            metrics,
            wall_s: self.started.elapsed().as_secs_f64(),
        });
    }
}

impl Harness {
    /// Open a named group of related benchmarks.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            h: self,
            name: name.to_string(),
        }
    }
}

/// A named group of benchmarks sharing a prefix.
pub struct Group<'a> {
    h: &'a mut Harness,
    name: String,
}

impl Group<'_> {
    /// Time `f`, printing `group/id: <min> .. <mean> per iter`.
    pub fn bench<R>(&mut self, id: impl std::fmt::Display, mut f: impl FnMut() -> R) {
        let label = format!("{}/{}", self.name, id);
        if let Some(fl) = &self.h.filter {
            if !label.contains(fl.as_str()) {
                return;
            }
        }
        if self.h.quick {
            std::hint::black_box(f());
            println!("{label}: ok (quick mode, 1 iter)");
            return;
        }
        // Warmup: estimate per-iteration cost over ~50 ms.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < Duration::from_millis(50) {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        // Target ~200 ms per sample, 5 samples.
        let iters = ((0.2 / per_iter) as u64).clamp(1, 1_000_000);
        let mut samples = Vec::with_capacity(5);
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            samples.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        println!(
            "{label}: {} .. {} per iter ({iters} iters x {} samples)",
            fmt_secs(min),
            fmt_secs(mean),
            samples.len()
        );
        self.h.results.push((label, min, mean, iters));
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fmt_scales() {
        assert_eq!(super::fmt_secs(2.0), "2.000 s");
        assert_eq!(super::fmt_secs(2e-3), "2.000 ms");
        assert_eq!(super::fmt_secs(2e-6), "2.000 µs");
        assert_eq!(super::fmt_secs(2e-9), "2.0 ns");
    }
}
