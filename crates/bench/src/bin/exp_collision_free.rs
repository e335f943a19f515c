//! E1 — collision-free operation at the paper's simulated scales.
//!
//! "Simulations of small networks (consisting of only 100 or 1000
//! stations) were used to demonstrate the effectiveness of the channel
//! access scheme" (§1). This harness runs both sizes with multihop
//! Poisson traffic and reports the full loss ledger. The acceptance
//! criterion is *literal*: zero losses of every collision type, zero
//! schedule violations, and a per-hop wait distribution consistent with
//! the §7.2 Bernoulli model.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::{LossCause, NetConfig};
use parn_sim::Duration;

fn run(reporter: &Reporter, n: usize, seed: u64, secs: u64, rate: f64) {
    let mut cfg = NetConfig::paper_default(n, seed);
    cfg.traffic.arrivals_per_station_per_sec = rate;
    cfg.run_for = Duration::from_secs(secs);
    cfg.warmup = Duration::from_secs(2);
    let m = reporter.run(format!("n={n} seed={seed} rate={rate}"), &cfg);

    println!("## n = {n}, seed {seed}, {rate} pkt/s/station, {secs} s");
    println!(
        "  generated / delivered : {} / {}",
        m.generated, m.delivered
    );
    println!("  hop attempts          : {}", m.hop_attempts);
    println!(
        "  hop success rate      : {:.4}%",
        100.0 * m.hop_success_rate()
    );
    println!(
        "  per-hop wait          : mean {:.2} slots, p95 {:.2}",
        m.hop_wait_slots.mean().unwrap_or(0.0),
        m.hop_wait_slots.quantile(0.95).unwrap_or(0.0)
    );
    println!(
        "  e2e delay             : mean {:.1} ms over {:.1} hops",
        m.e2e_delay.mean() * 1e3,
        m.hops_per_packet.mean()
    );
    println!(
        "  min SINR margin       : {:.1} dB above threshold (worst successful rx)",
        m.sinr_margin_db.min()
    );
    println!("  losses:");
    for (label, c) in [
        ("type 1", LossCause::CollisionType1),
        ("type 2", LossCause::CollisionType2),
        ("type 3", LossCause::CollisionType3),
        ("despreader", LossCause::DespreaderExhausted),
        ("din", LossCause::Din),
    ] {
        println!("    {label:<11} {}", m.losses.get(&c).copied().unwrap_or(0));
    }
    println!("  schedule violations   : {}", m.schedule_violations);
    println!(
        "  spatial reuse         : {:.2} concurrent transmissions on average",
        m.mean_concurrent_tx
    );
    assert_eq!(m.collision_losses(), 0, "collision-free property FAILED");
    assert_eq!(m.schedule_violations, 0, "schedule violation");
    assert_eq!(m.total_losses(), 0, "unexpected losses: {}", m.summary());
    assert!(m.delivered > 0);
    println!("  => collision-free: OK\n");
}

fn main() {
    println!("# E1: collision-free operation (paper Sec. 1/Sec. 7, thesis ch. 5)\n");
    let reporter = Reporter::new(artifact_dir(), "collision_free");
    // The paper's 100-station scale, three seeds.
    for seed in [1, 2, 3] {
        run(&reporter, 100, seed, 20, 2.0);
    }
    // Heavier offered load at 100 stations.
    run(&reporter, 100, 4, 20, 6.0);
    // The paper's 1000-station scale.
    run(&reporter, 1000, 5, 10, 1.0);
    println!("E1 reproduced: zero collision losses at every scale. OK");
}
