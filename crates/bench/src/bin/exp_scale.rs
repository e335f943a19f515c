//! E6 — metro scale: dense O(M²) matrix vs the spatial index.
//!
//! The dense [`parn_phys::GainMatrix`] stores M² gains — 8 MB at 10³
//! stations, 800 MB at 10⁴, and ~80 GB at 10⁵, where it stops being a
//! simulation backend and starts being a swap benchmark. The grid
//! backend ([`parn_phys::GridGainModel`] + far-field aggregation in the
//! SINR tracker) keeps memory O(M) and lets the same scheme run at
//! 10⁵–10⁶ stations with the collision-freedom invariant intact.
//!
//! Each configuration runs in its *own subprocess* so peak RSS (VmHWM)
//! is measured per configuration, not accumulated across them:
//!
//! * no args — driver mode: spawns itself with `--one n backend` for
//!   the whole sweep, each child appending its line to
//!   `BENCH_scale.json`;
//! * `--quick` — the n = 10³ corner, every backend, into
//!   `PARN_BENCH_DIR` or a throwaway directory it prints;
//! * `--one <n> <dense|grid|grid-far> [threads]` — run one configuration,
//!   append its line to `BENCH_scale.json` and print a one-line summary;
//! * `--determinism <n>` — run `grid-far` at `n` with 1, 2 and 8 sweep
//!   threads into throwaway artifact dirs, assert the metrics JSON is
//!   byte-identical across thread counts (the stable-reduction-order
//!   guarantee), assert the far-field snapshot cache hit rate stays
//!   ≥ 50% (the per-cell invalidation fix can't silently regress), and
//!   assert MAC planning walks at most 50 slots per window scan (a planner
//!   that walks its whole horizon again shows about 201). At n = 10⁴ it
//!   also asserts that the single-threaded build leaves at most 10 % more
//!   heap per station live than `BUILD_HEAP_PER_STATION_10K`.
//!
//! A counting global allocator (this binary only) measures the heap: each
//! line carries a `heap` block, outside `metrics`, with the live bytes
//! after `Network::new` and the peak bytes of the whole run, in total and
//! per station. It stays out of `metrics` because sweep threads allocate
//! their own gain caches, so with `threads > 1` the peak varies from run
//! to run while the metrics must not.
//!
//! The scale runs use the single-hop regime ([`DestPolicy::Neighbors`]
//! with [`RouteMode::OneHop`]) — O(E) routing state — with a short
//! measured window; the point is memory and wall-clock scaling plus the
//! zero-collision invariant, not long-run throughput statistics.

use parn_bench::report::{self, artifact_dir, peak_rss_kb, smoke_dir, Reporter};
use parn_core::{DestPolicy, FarFieldConfig, NetConfig, Network, PhyBackend, RouteMode};
use parn_sim::json::obj;
use parn_sim::{Duration, Json};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes per station after `Network::new` at n = 10⁴
/// `grid-far`, single-threaded. `--determinism 10000` fails when a build
/// needs more than 10 % above it.
const BUILD_HEAP_PER_STATION_10K: u64 = 1_243;

/// The system allocator, counting live and peak heap bytes. The cost is
/// two relaxed atomic operations per allocation.
struct CountingAlloc;

static HEAP_LIVE: AtomicUsize = AtomicUsize::new(0);
static HEAP_PEAK: AtomicUsize = AtomicUsize::new(0);

fn heap_grew(bytes: usize) {
    let live = HEAP_LIVE.fetch_add(bytes, Relaxed) + bytes;
    HEAP_PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            heap_grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            heap_grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HEAP_LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            HEAP_LIVE.fetch_sub(layout.size(), Relaxed);
            heap_grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn backend_from_name(name: &str) -> PhyBackend {
    match name {
        "dense" => PhyBackend::Dense,
        "grid" => PhyBackend::Grid { far_field: None },
        "grid-far" => PhyBackend::Grid {
            far_field: Some(FarFieldConfig::default_for_paper()),
        },
        other => panic!("unknown backend {other:?} (want dense|grid|grid-far)"),
    }
}

fn scale_config(n: usize, backend: PhyBackend, threads: usize) -> NetConfig {
    let mut cfg = NetConfig::paper_default(n, 42);
    cfg.phy_backend = backend;
    cfg.threads = threads;
    // Single-hop regime: O(E) routing state instead of the O(M²)
    // all-pairs table, and destinations drawn among routing neighbours.
    cfg.route_mode = RouteMode::OneHop;
    cfg.traffic.dest = DestPolicy::Neighbors;
    cfg.traffic.arrivals_per_station_per_sec = 0.5;
    cfg.run_for = Duration::from_secs(2);
    cfg.warmup = Duration::from_millis(500);
    cfg
}

fn run_one(n: usize, backend_name: &str, threads: usize) {
    let cfg = scale_config(n, backend_from_name(backend_name), threads);
    let threads_suffix = if threads > 1 {
        format!(" threads={threads}")
    } else {
        String::new()
    };
    // Each subprocess appends its own line, so peak RSS in provenance is
    // per configuration (the point of the subprocess split).
    let run = Reporter::new(artifact_dir(), "scale")
        .start(format!("n={n} backend={backend_name}{threads_suffix}"));
    let net = Network::new(cfg.clone());
    let build_bytes = HEAP_LIVE.load(Relaxed);
    let m = net.run_built();
    let peak_bytes = HEAP_PEAK.load(Relaxed);
    let per_station = |bytes: usize| bytes / n;
    let heap = obj([
        ("build_bytes", build_bytes.into()),
        ("build_bytes_per_station", per_station(build_bytes).into()),
        ("peak_bytes", peak_bytes.into()),
        ("peak_bytes_per_station", per_station(peak_bytes).into()),
    ]);
    let wall = run.record_with(cfg.to_json(), m.to_json(), vec![("heap".into(), heap)]);
    let rss_mb = peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
    assert_eq!(
        m.collision_losses(),
        0,
        "collision-freedom broken at n={n} backend={backend_name}: {}",
        m.summary()
    );
    assert!(
        m.delivered > 0,
        "nothing delivered at n={n} backend={backend_name}: {}",
        m.summary()
    );
    println!(
        "n={n} backend={backend_name}{threads_suffix} wall_s={wall:.2} \
         peak_rss_mb={rss_mb:.1} build_heap_b_per_station={} peak_heap_mb={:.1} \
         delivered={} collisions={} violations={}",
        per_station(build_bytes),
        peak_bytes as f64 / (1024.0 * 1024.0),
        m.delivered,
        m.collision_losses(),
        m.schedule_violations
    );
}

fn drive(sweep: &[(usize, &str, usize)], dir: PathBuf) {
    let reporter = Reporter::new(dir, "scale");
    println!("# E6: wall-clock and peak RSS, dense vs spatial index");
    println!("# artifact: {}", reporter.path().display());
    println!("# (each line is an independent subprocess; RSS is per-configuration)\n");
    for &(n, backend, threads) in sweep {
        reporter.spawn(&format!("--one {n} {backend} {threads}"));
    }
    println!("\n# dense at n=10^5 is omitted: the matrix alone is ~80 GB (8 B x 10^10).");
}

/// Counter value from a run record, defaulting to 0 when absent.
fn counter_of(record: &Json, name: &str) -> u64 {
    match record.get("counters").and_then(|c| c.get(name)) {
        Some(Json::UInt(v)) => *v,
        _ => 0,
    }
}

/// The determinism matrix at `grid-far` (same seed, threads 1/2/8, metrics
/// byte-identical), then checks on the threads-1 line: the far cache must
/// hit, MAC planning must not walk its whole horizon on every window
/// scan, and at n = 10⁴ the build must not outgrow its heap figure.
fn determinism(n: usize) {
    let baseline = &report::determinism("scale", &format!("{n} grid-far"));
    // Hit-rate floor, checked on the single-threaded child (its counters
    // are not split across per-thread caches): the per-cell epoch fix
    // must keep the snapshot cache alive under churn.
    let hits = counter_of(baseline, "phys.far_cache.hit");
    let recomputes = counter_of(baseline, "phys.far_cache.recompute");
    let rate = hits as f64 / (hits + recomputes).max(1) as f64;
    assert!(
        rate >= 0.5,
        "far-cache hit rate regressed: {hits} hits / {recomputes} recomputes = {rate:.3} < 0.5"
    );
    // Memory ceiling, on the same child (its heap is deterministic: no
    // sweep thread allocates a cache of its own).
    let build_heap = match baseline
        .get("heap")
        .and_then(|h| h.get("build_bytes_per_station"))
    {
        Some(Json::UInt(v)) => *v,
        other => panic!("heap.build_bytes_per_station missing: {other:?}"),
    };
    if n == 10_000 {
        let ceiling = BUILD_HEAP_PER_STATION_10K + BUILD_HEAP_PER_STATION_10K / 10;
        assert!(
            build_heap <= ceiling,
            "Network::new leaves {build_heap} B per station live at n={n}, more than \
             {ceiling} (10 % above {BUILD_HEAP_PER_STATION_10K})"
        );
    }
    // Planning-work ceiling, on the same child: the MAC searches a growing
    // look-ahead, so a window scan walks a few slots. A planner that walks
    // the whole 200-slot horizon on every scan shows about 201.
    let slots = counter_of(baseline, "sched.window_slots");
    let scans = counter_of(baseline, "sched.window_scans.actual")
        + counter_of(baseline, "sched.window_scans.predicted");
    let per_scan = slots as f64 / scans.max(1) as f64;
    assert!(
        per_scan <= 50.0,
        "MAC planning walks {slots} slots in {scans} window scans = {per_scan:.1} per scan > 50"
    );
    println!(
        "determinism OK at n={n}: metrics byte-identical across threads 1/2/8, \
         far-cache hit rate {rate:.3}, {per_scan:.1} slots per window scan, \
         {build_heap} B heap per station after build"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--one", n, backend] => run_one(n.parse().expect("n"), backend, 1),
        ["--one", n, backend, threads] => run_one(
            n.parse().expect("n"),
            backend,
            threads.parse().expect("threads"),
        ),
        ["--determinism", n] => determinism(n.parse().expect("n")),
        // `cargo test` passes `--test`-style flags to bins it never runs;
        // anything other than `--one` gets the default sweep. A smaller
        // sweep keeps smoke invocations (`--quick`) under a minute.
        ["--quick"] => drive(
            &[
                (1_000, "dense", 1),
                (1_000, "grid", 1),
                (1_000, "grid-far", 1),
            ],
            smoke_dir("scale"),
        ),
        _ => drive(
            &[
                (1_000, "dense", 1),
                (1_000, "grid-far", 1),
                (10_000, "dense", 1),
                (10_000, "grid-far", 1),
                (100_000, "grid-far", 1),
                (1_000_000, "grid-far", 2),
            ],
            artifact_dir(),
        ),
    }
}
