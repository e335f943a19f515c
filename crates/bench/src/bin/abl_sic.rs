//! A6 — successive interference cancellation (§3.4 footnote 2).
//!
//! The paper's receivers treat all interference as noise; the footnote
//! observes that subtracting "a few of the strongest interfering signals"
//! can beat the Shannon-with-noise bound when interferers are few. This
//! ablation gives the *baseline* MACs SIC receivers (capture effect) and
//! measures how much of ALOHA's collision loss it recovers — and how far
//! that still falls short of the scheme's zero, at zero receiver
//! complexity.

use parn_baseline::{Baseline, MacKind};
use parn_bench::report::{artifact_dir, Reporter};
use parn_core::{DestPolicy, Metrics, NetConfig};
use parn_sim::Duration;

/// The scenario every arm runs at `rate`: 50 stations, single-hop
/// neighbour traffic.
fn scenario(rate: f64) -> NetConfig {
    let mut cfg = NetConfig::paper_default(50, 8);
    cfg.traffic.arrivals_per_station_per_sec = rate;
    cfg.traffic.dest = DestPolicy::Neighbors;
    cfg.run_for = Duration::from_secs(10);
    cfg.warmup = Duration::from_secs(2);
    cfg
}

fn aloha_with_sic(reporter: &Reporter, depth: usize, rate: f64, narrowband: bool) -> Metrics {
    let mut c = scenario(rate);
    if narrowband {
        c.criterion = parn_phys::ReceptionCriterion {
            rate_bps: 1e6,
            bandwidth_hz: 1e6,
            margin: 2.0,
        };
    }
    let band = if narrowband { "narrowband" } else { "spread" };
    let run = reporter.start(format!("aloha sic_depth={depth} rate={rate} {band}"));
    let b = Baseline::new(c, MacKind::PureAloha).with_sic(depth);
    let config = b.to_json();
    let m = b.run();
    run.record(config, m.to_json());
    m
}

fn main() {
    println!("# A6: SIC receivers under contention MACs\n");
    let reporter = Reporter::new(artifact_dir(), "abl_sic");

    println!("## narrowband ALOHA (threshold ~2), 8 pkt/s, 50 stations");
    println!(
        "{:<10} {:>11} {:>11} {:>12}",
        "SIC depth", "hop succ%", "collisions", "delivered"
    );
    let mut base = None;
    let mut best_delivered = 0;
    for depth in [0usize, 1, 2, 4] {
        let m = aloha_with_sic(&reporter, depth, 8.0, true);
        println!(
            "{:<10} {:>10.2}% {:>11} {:>12}",
            depth,
            100.0 * m.hop_success_rate(),
            m.collision_losses(),
            m.delivered
        );
        if depth == 0 {
            base = Some((m.hop_success_rate(), m.delivered));
        }
        best_delivered = best_delivered.max(m.delivered);
    }
    let (base_rate, base_delivered) = base.unwrap();
    // Note: raw collision *counts* are confounded by the retransmission
    // feedback loop (higher success => more admitted traffic); the capture
    // effect shows in the success rate and goodput.
    assert!(base_rate < 0.99, "narrowband ALOHA should collide");
    assert!(
        best_delivered as f64 > 1.2 * base_delivered as f64,
        "SIC bought nothing: {base_delivered} -> {best_delivered}"
    );

    println!("\n## spread-spectrum ALOHA (20 dB gain), 40 pkt/s");
    println!(
        "{:<10} {:>11} {:>11}",
        "SIC depth", "hop succ%", "collisions"
    );
    for depth in [0usize, 2] {
        let m = aloha_with_sic(&reporter, depth, 40.0, false);
        println!(
            "{:<10} {:>10.2}% {:>11}",
            depth,
            100.0 * m.hop_success_rate(),
            m.collision_losses()
        );
    }

    // The reference point: the scheme needs no cancellation at all.
    let scheme = reporter.run("scheme rate=8", &scenario(8.0));
    println!(
        "\nscheme (no SIC, plain receivers): {} collisions, {:.2}% hop success",
        scheme.collision_losses(),
        100.0 * scheme.hop_success_rate()
    );
    assert_eq!(scheme.collision_losses(), 0);
    println!(
        "\nNarrowband: SIC recovers some of ALOHA's losses (capture effect)\n\
         but comparable-power collisions stay undecodable. Spread spectrum:\n\
         the low threshold makes power-controlled interferers mutually\n\
         decodable, so deep-enough SIC can rescue ALOHA here — at receiver\n\
         complexity Verdu warns is exponential in interferer count. The\n\
         scheme gets the same zero with plain receivers and no per-packet\n\
         control traffic."
    );
    println!("\nA6 reproduced: OK");
}
