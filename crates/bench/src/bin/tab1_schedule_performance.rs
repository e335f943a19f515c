//! Table 1 (§7.2) — performance of the scheduling scheme.
//!
//! Reproduces every quantitative claim of §7.2:
//!
//! * the per-slot usable probability toward one neighbour is `p(1−p)`
//!   (0.21 at p = 0.3), measured on real schedule pairs;
//! * the expected wait until transmission is possible is `1/(p(1−p))`
//!   (4.76 slots at p = 0.3), measured against a simulated MAC at
//!   near-zero load and compared with the geometric (Bernoulli) model;
//! * quarter-slot packing keeps ≈ 75% of the usable overlap (≈ 15% of all
//!   time);
//! * a sweep of the receive duty cycle p over full network simulations
//!   locates the throughput optimum near p ≈ 0.3;
//! * with several neighbours and no head-of-line blocking, transmit duty
//!   approaches 50%.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::{DestPolicy, NetConfig, Network};
use parn_sched::analysis;
use parn_sched::{QuarterSlot, SchedParams, SlotKind, StationClock, StationSchedule};
use parn_sim::{Duration, Rng, Time};

/// Measured fraction of time one station may send to another (raw overlap
/// and quarter-slot-packed), over a long horizon.
fn measure_pair(params: SchedParams, seed: u64) -> (f64, f64) {
    let mut rng = Rng::new(seed);
    let a = StationSchedule::new(params, StationClock::random(&mut rng, 0.0));
    let b = StationSchedule::new(params, StationClock::random(&mut rng, 0.0));
    let horizon = Time::ZERO + Duration::from_secs(200);
    let a_tx = a.windows(Time::ZERO, horizon, SlotKind::Transmit);
    let b_rx = b.windows(Time::ZERO, horizon, SlotKind::Receive);
    let overlap = parn_sched::intersect_lists(&a_tx, &b_rx);
    let raw: u64 = overlap.iter().map(|w| w.duration().ticks()).sum();

    // Quarter-slot packed: time actually usable for fixed-size packets
    // aligned to a's quarter-points.
    let qs = QuarterSlot::new(params);
    let starts = qs.admissible_starts(
        &overlap,
        |t| a.clock.reading(t),
        |l| a.clock.time_of_reading(l),
        usize::MAX,
    );
    let packed = starts.len() as u64 * qs.packet_len().ticks();
    let total = horizon.since(Time::ZERO).ticks() as f64;
    (raw as f64 / total, packed as f64 / total)
}

fn main() {
    println!("# Sec 7.2 table: pairwise usable time vs receive duty cycle p\n");
    println!(
        "{:>5} | {:>10} {:>10} | {:>10} {:>10} | {:>12}",
        "p", "p(1-p)", "measured", "packed", "pack/raw", "E[wait] slots"
    );
    for &p in &[0.1, 0.2, 0.3, 0.4, 0.5, 0.7] {
        let params = SchedParams::new(Duration::from_millis(10), p, 0xAB);
        let (raw, packed) = measure_pair(params, 42 + (p * 100.0) as u64);
        println!(
            "{:>5} | {:>10.4} {:>10.4} | {:>10.4} {:>10.2} | {:>12.2}",
            p,
            analysis::pairwise_usable_fraction(p),
            raw,
            packed,
            packed / raw,
            analysis::expected_wait_slots(p),
        );
        assert!((raw - analysis::pairwise_usable_fraction(p)).abs() < 0.02);
    }

    // Measured per-hop wait at near-zero load vs the Bernoulli model.
    println!("\n# per-hop MAC wait at near-zero load (single-hop traffic)\n");
    let mut cfg = NetConfig::paper_default(40, 77);
    cfg.traffic.arrivals_per_station_per_sec = 0.2; // essentially no queueing
    cfg.traffic.dest = DestPolicy::Neighbors;
    cfg.run_for = Duration::from_secs(60);
    cfg.warmup = Duration::from_secs(2);
    let reporter = Reporter::new(artifact_dir(), "tab1_schedule_performance");
    let m = reporter.run("near-zero-load wait", &cfg);
    let measured_wait = m.hop_wait_slots.mean().expect("no waits");
    let p50 = m.hop_wait_slots.quantile(0.5).unwrap();
    let p95 = m.hop_wait_slots.quantile(0.95).unwrap();
    println!("  measured mean wait : {measured_wait:.2} slots (p50 {p50:.2}, p95 {p95:.2})");
    println!(
        "  Bernoulli model    : {:.2} slots (geometric, p(1-p) = 0.21)",
        analysis::expected_wait_slots(0.3)
    );
    println!(
        "  geometric p95      : {:.2} slots",
        (0.05f64.ln() / (1.0 - 0.21f64).ln()).ceil()
    );
    assert_eq!(m.collision_losses(), 0);
    // The scheme adds quarter-slot packing overhead; the wait should be
    // the same order as the model (a factor ~[0.7, 2.2] band).
    let model = analysis::expected_wait_slots(0.3);
    assert!(
        measured_wait > 0.7 * model && measured_wait < 2.2 * model,
        "wait {measured_wait} vs model {model}"
    );

    // Duty-cycle sweep: network goodput vs p.
    println!("\n# receive-duty-cycle sweep (30 stations, multihop, heavy load)\n");
    println!(
        "{:>5} | {:>11} {:>11} {:>10} {:>10}",
        "p", "goodput b/s", "tx duty %", "delay ms", "collisions"
    );
    let mut best = (0.0, 0.0);
    for &p in &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7] {
        let mut cfg = NetConfig::paper_default(30, 5);
        cfg.sched.rx_prob = p;
        cfg.traffic.arrivals_per_station_per_sec = 12.0; // saturating
        cfg.run_for = Duration::from_secs(15);
        cfg.warmup = Duration::from_secs(3);
        let m = reporter.run(format!("duty-sweep p={p}"), &cfg);
        println!(
            "{:>5} | {:>11.0} {:>10.1}% {:>10.1} {:>10}",
            p,
            m.goodput_bps(),
            100.0 * m.mean_tx_duty(),
            m.e2e_delay.mean() * 1e3,
            m.collision_losses()
        );
        if m.goodput_bps() > best.1 {
            best = (p, m.goodput_bps());
        }
    }
    println!(
        "\nthroughput optimum at p = {} (paper: ~0.3 is near-optimal)",
        best.0
    );
    assert!(
        (0.2..=0.5).contains(&best.0),
        "optimum p = {} far from the paper's 0.3",
        best.0
    );

    // Multi-neighbour aggregate utilization.
    println!("\n# aggregate usable fraction toward n neighbours (analytic)\n");
    for n in [1u32, 2, 3, 4, 8] {
        println!(
            "  n = {n}: {:.3} of all time (tx duty ceiling {:.0}%)",
            analysis::aggregate_usable_fraction(0.3, n),
            100.0 * (1.0 - 0.3f64)
        );
    }

    // §7.2's "transmit duty cycles approaching 50%": a saturated station
    // fanning traffic out to k neighbours, measured.
    println!("\n# saturated-sender transmit duty vs fan-out (measured)\n");
    println!(
        "{:>10} | {:>10} | {:>20}",
        "neighbours", "tx duty %", "analytic usable %"
    );
    let mut duty8 = 0.0;
    for k in [1usize, 2, 4, 8] {
        // Fan flows out of the best-connected station of a 40-station disk.
        let mut cfg = NetConfig::paper_default(40, 31);
        let probe = Network::new(cfg.clone());
        let (center, nbs) = (0..40)
            .map(|s| (s, probe.routes().routing_neighbors(s)))
            .max_by_key(|(_, nb)| nb.len())
            .expect("no stations");
        let fan: Vec<(usize, usize)> = nbs.iter().take(k).map(|&nb| (center, nb)).collect();
        let have = fan.len();
        cfg.traffic.dest = DestPolicy::Flows(fan);
        cfg.traffic.arrivals_per_station_per_sec = 400.0; // saturate center
        cfg.run_for = Duration::from_secs(12);
        cfg.warmup = Duration::from_secs(2);
        cfg.protection.enabled = false; // isolate the scheduling effect
        let m = reporter.run(format!("fan-out k={k}"), &cfg);
        let duty = m.tx_airtime[center] / m.measured_span.as_secs_f64();
        if k == 8 {
            duty8 = duty;
        }
        println!(
            "{:>10} | {:>9.1}% | {:>19.1}%",
            have,
            100.0 * duty,
            100.0 * analysis::aggregate_usable_fraction(0.3, have as u32)
        );
    }
    assert!(
        duty8 > 0.35,
        "saturated fan-out duty {duty8} nowhere near the paper's ~50%"
    );
    println!("\nsec 7.2 table reproduced: OK");
}
