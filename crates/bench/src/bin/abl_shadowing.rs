//! A3 — robustness to non-free-space propagation (paper §3.5's
//! calibration caveat).
//!
//! §3.5 argues the free-space model overestimates distant interference
//! (real obstructed paths are *weaker*), so the analysis errs safe. Here
//! we stop assuming: log-normal shadowing of increasing σ perturbs every
//! path. Because stations *observe* path gains (routing and power control
//! run on the shadowed matrix), the scheme should adapt: stay
//! collision-free, route around shadowed links, and only gradually spend
//! more hops. Connectivity at a fixed reach eventually suffers — that is
//! the honest cost of obstructions.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::NetConfig;
use parn_sim::Duration;

fn main() {
    let reporter = Reporter::new(artifact_dir(), "abl_shadowing");
    println!("# A3: log-normal shadowing sweep (60 stations, 3 pkt/s)\n");
    println!(
        "{:<10} {:>10} {:>11} {:>11} {:>10} {:>11} {:>10}",
        "sigma dB", "delivered", "hop succ%", "collisions", "avg hops", "delay ms", "reach"
    );
    let mut hops_free = 0.0;
    let mut hops_heavy = 0.0;
    for &sigma in &[0.0, 4.0, 8.0, 12.0] {
        // Give the graph more reach as shadowing grows so it stays
        // connected; this mirrors §6's "doubling the distance should
        // suffice in most situations" reasoning.
        let reach = if sigma >= 8.0 { 3.0 } else { 2.0 };
        let mut cfg = NetConfig::paper_default(60, 33);
        cfg.shadowing_sigma_db = sigma;
        cfg.reach_factor = reach;
        cfg.traffic.arrivals_per_station_per_sec = 3.0;
        cfg.run_for = Duration::from_secs(14);
        cfg.warmup = Duration::from_secs(2);
        let m = reporter.run(format!("sigma_db={sigma}"), &cfg);
        println!(
            "{:<10} {:>10} {:>10.2}% {:>11} {:>10.2} {:>11.1} {:>10}",
            sigma,
            m.delivered,
            100.0 * m.hop_success_rate(),
            m.collision_losses(),
            m.hops_per_packet.mean(),
            m.e2e_delay.mean() * 1e3,
            reach
        );
        assert_eq!(
            m.collision_losses(),
            0,
            "shadowing sigma {sigma} broke collision-freedom"
        );
        assert!(m.delivered > 100, "sigma {sigma}: too few deliveries");
        if sigma == 0.0 {
            hops_free = m.hops_per_packet.mean();
        }
        if sigma == 12.0 {
            hops_heavy = m.hops_per_packet.mean();
        }
    }
    println!(
        "\nmean hops move from {hops_free:.2} (free space) to {hops_heavy:.2} (12 dB shadowing):\n\
         log-normal shadowing cuts both ways — half the links come out\n\
         *stronger* than free space and minimum-energy routing exploits\n\
         them, while obstructed links are simply routed around. Either\n\
         way every hop stays collision-free: the schedules don't care\n\
         what the gains are, only that stations observe them."
    );
    assert!(hops_free > 0.0 && hops_heavy > 0.0);
    println!("\nA3 reproduced: OK");
}
