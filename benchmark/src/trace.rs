//! The traced event loop and the per-layer profile it yields.
//!
//! The loop is `Network::run_built` written out from the benchmark's side
//! of the `parn-core` API (`prime`, `EventQueue::peek_time`/`pop`,
//! `Model::handle`, `finish`), with one span per handled event. Spans stay
//! in memory and are folded into per-bucket statistics after the clock
//! stops. The existing `phys.far_sweep` timer runs inside MAC and
//! reception handlers; its time is read around each event and counted as
//! a child span, not as the handler's self time.

use crate::rep::Metric;
use parn_core::{Event, Metrics, Network};
use parn_sim::{EventQueue, Model, Time};
use std::time::Instant;

/// Event groups, one per `parn-core` handler family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Bucket {
    /// `NextArrival`: traffic generation and first-hop routing.
    Arrival,
    /// `TxStart`, `MacRetry`, `RetryRelease`: MAC window planning.
    Mac,
    /// `TxEnd`: reception, the SINR test and forwarding.
    Rx,
    /// `RouteUpdateRound`, `ConvergenceCheck`, `Reroute`: routing.
    Route,
    /// `MotionEpoch`, `ChurnStep`, `ChurnReturn`: dynamic topology.
    Motion,
    /// `Resync`, `HelloRound`: clock synchronization.
    Sync,
    /// Fault injection, recovery and the adversaries; also any variant
    /// added later, so the benchmark keeps building.
    Faults,
}

impl Bucket {
    const ALL: [Bucket; 7] = [
        Bucket::Arrival,
        Bucket::Mac,
        Bucket::Rx,
        Bucket::Route,
        Bucket::Motion,
        Bucket::Sync,
        Bucket::Faults,
    ];

    fn of(event: &Event) -> Bucket {
        match event {
            Event::NextArrival { .. } => Bucket::Arrival,
            Event::TxStart { .. } | Event::MacRetry { .. } | Event::RetryRelease { .. } => {
                Bucket::Mac
            }
            Event::TxEnd { .. } => Bucket::Rx,
            Event::RouteUpdateRound { .. } | Event::ConvergenceCheck | Event::Reroute => {
                Bucket::Route
            }
            Event::MotionEpoch | Event::ChurnStep { .. } | Event::ChurnReturn { .. } => {
                Bucket::Motion
            }
            Event::Resync | Event::HelloRound { .. } => Bucket::Sync,
            _ => Bucket::Faults,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bucket::Arrival => "arrival",
            Bucket::Mac => "mac",
            Bucket::Rx => "rx",
            Bucket::Route => "route",
            Bucket::Motion => "motion",
            Bucket::Sync => "sync",
            Bucket::Faults => "faults",
        }
    }
}

/// One handled event, a child of the run's root span.
struct Span {
    bucket: Bucket,
    /// Wall time of `Model::handle`.
    dur_ns: u64,
    /// Of that, time inside the `phys.far_sweep` timer.
    sweep_ns: u64,
}

/// Spans of one traced run, plus the time spent in `peek_time` + `pop`,
/// `prime` and `finish` (which also drops the network).
pub struct Trace {
    spans: Vec<Span>,
    queue_ns: u64,
    prime_ns: u64,
    finish_ns: u64,
}

/// Run a built network to `end` exactly as `Network::run_built` does,
/// recording one span per handled event.
pub fn run_traced(mut net: Network, end: Time) -> (Metrics, Trace) {
    let sweep = parn_sim::obs::timer("phys.far_sweep");
    let mut queue = EventQueue::new();
    let primed = Instant::now();
    net.prime(&mut queue);
    let mut mark = Instant::now();
    let prime_ns = nanos(mark - primed);
    let mut spans = Vec::new();
    let mut queue_ns = 0;
    while queue.peek_time().is_some_and(|t| t <= end) {
        let (now, event) = queue.pop().expect("peeked event vanished");
        let bucket = Bucket::of(&event);
        let sweep_before = sweep.total_ns();
        let start = Instant::now();
        net.handle(now, event, &mut queue);
        let done = Instant::now();
        queue_ns += nanos(start - mark);
        spans.push(Span {
            bucket,
            dur_ns: nanos(done - start),
            // Saturating: in-process callers (tests) may reset the
            // process-global registry while this run is in flight.
            sweep_ns: sweep.total_ns().saturating_sub(sweep_before),
        });
        mark = done;
    }
    let finishing = Instant::now();
    let m = net.finish();
    let trace = Trace {
        spans,
        queue_ns,
        prime_ns,
        finish_ns: nanos(finishing.elapsed()),
    };
    (m, trace)
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-layer metrics of one traced run. `run_s` is the traced wall time
/// of `prime` + loop + `finish`; counters are the run's registry deltas.
/// Returns the metrics and, per bucket, which percentile `.phi_us` is.
pub fn layer_metrics(
    trace: &Trace,
    m: &Metrics,
    counter: impl Fn(&str) -> u64,
    run_s: f64,
) -> (Vec<Metric>, Vec<(String, String)>) {
    let mut out = Vec::new();
    let mut push = |name: String, unit: &str, value: f64| {
        out.push(Metric {
            name,
            unit: unit.to_string(),
            value,
        })
    };
    let mut phi_labels = Vec::new();
    let mut handled_ns = 0u64;
    for bucket in Bucket::ALL {
        let mut durs: Vec<u64> = Vec::new();
        let mut self_ns = 0u64;
        for s in trace.spans.iter().filter(|s| s.bucket == bucket) {
            durs.push(s.dur_ns);
            self_ns += s.dur_ns.saturating_sub(s.sweep_ns);
        }
        handled_ns += durs.iter().sum::<u64>();
        durs.sort_unstable();
        let (phi_ns, label) = phi(&durs);
        let b = bucket.name();
        push(format!("core.{b}.count"), "count", durs.len() as f64);
        push(format!("core.{b}.self_s"), "s", self_ns as f64 / 1e9);
        let p50 = durs.get(durs.len() / 2).copied().unwrap_or(0);
        push(format!("core.{b}.p50_us"), "us", p50 as f64 / 1e3);
        push(format!("core.{b}.phi_us"), "us", phi_ns as f64 / 1e3);
        phi_labels.push((format!("core.{b}.phi_us"), label));
    }
    let sweep_ns: u64 = trace.spans.iter().map(|s| s.sweep_ns).sum();
    let ratio = |num: u64, base: u64| {
        if base == 0 {
            0.0
        } else {
            num as f64 / base as f64
        }
    };
    let c = |name: &str| counter(name) as f64;
    let far_hits = counter("phys.far_cache.hit");
    let far_lookups = far_hits + counter("phys.far_cache.recompute");
    let gain_hits = counter("phys.gain_cache.hit");
    let gain_lookups = gain_hits + counter("phys.gain_cache.miss");
    let scans = counter("sched.window_scans.predicted");
    // Every transmission, data or control, ends in exactly one `TxEnd`.
    let transmissions = trace
        .spans
        .iter()
        .filter(|s| s.bucket == Bucket::Rx)
        .count() as u64;
    let covered_ns = handled_ns + trace.queue_ns + trace.prime_ns + trace.finish_ns;
    #[rustfmt::skip]
    let rows = [
        ("core.prime_s", "s", trace.prime_ns as f64 / 1e9),
        ("core.finish_s", "s", trace.finish_ns as f64 / 1e9),
        ("sim.queue_s", "s", trace.queue_ns as f64 / 1e9),
        ("sim.events", "count", trace.spans.len() as f64),
        ("sim.pool.parallel_sweeps", "count", c("core.shard.parallel")),
        ("phys.far_sweep.count", "count", c("core.shard.sweeps")),
        ("phys.far_sweep_s", "s", sweep_ns as f64 / 1e9),
        ("phys.far_cache.lookups", "count", far_lookups as f64),
        ("phys.far_cache.hit_rate", "fraction", ratio(far_hits, far_lookups)),
        ("phys.gain_cache.lookups", "count", gain_lookups as f64),
        ("phys.gain_cache.hit_rate", "fraction", ratio(gain_hits, gain_lookups)),
        ("phys.sinr.reevaluations", "count", c("phys.sinr.reevaluations")),
        ("phys.sinr.skipped_reevals", "count", c("phys.sinr.skipped_reevals")),
        ("phys.grid.relocations", "count", c("phys.grid.relocations")),
        ("phys.sinr.scoped_invalidations", "count", c("phys.sinr.scoped_invalidations")),
        ("sched.window_scans.predicted", "count", scans as f64),
        ("sched.scans_per_tx", "ratio", ratio(scans, transmissions)),
        ("route.updates_sent", "count", c("route.updates_sent")),
        ("route.next_hop.lookups", "count", c("route.next_hop.lookups")),
        ("route.repairs", "count", m.route_repairs as f64),
        ("core.hop_success_rate", "fraction", m.hop_success_rate()),
        ("core.tx_per_delivery", "ratio", ratio(m.hop_attempts, m.delivered)),
        ("core.coverage", "fraction", covered_ns as f64 / 1e9 / run_s),
        ("core.run_s", "s", run_s),
    ];
    for (name, unit, value) in rows {
        push(name.into(), unit, value);
    }
    (out, phi_labels)
}

/// The highest percentile of `sorted` that still has at least ten samples
/// above it, and its label; zero and "none" with ten samples or fewer.
fn phi(sorted: &[u64]) -> (u64, String) {
    let n = sorted.len();
    if n <= 10 {
        return (0, "none".into());
    }
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    (sorted[n - 11], format!("p{pct:.3}"))
}

#[cfg(test)]
mod tests {
    use super::phi;

    #[test]
    fn phi_leaves_ten_samples_above() {
        let sorted: Vec<u64> = (1..=1000).collect();
        let (value, label) = phi(&sorted);
        assert_eq!(sorted.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(label, "p99.000");
        assert_eq!(phi(&sorted[..10]), (0, "none".to_string()));
    }
}
