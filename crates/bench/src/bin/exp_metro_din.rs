//! E5 — a simulated patch embedded in a metro-scale din.
//!
//! The paper's analysis covers millions of stations; the simulation covers
//! hundreds. This harness bridges them: a constant external interference
//! term stands in for the rest of the metro (the §4 din), swept from
//! nothing up past the link budget. Expected shape: the scheme stays
//! collision-free at every level; once the external din exceeds what the
//! delivered power can clear, losses appear — but as properly-classified
//! **link-budget (Din) losses**, never as collisions, and never silently.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::{LossCause, NetConfig};
use parn_phys::PowerW;
use parn_sim::Duration;

fn main() {
    println!("# E5: external metro din sweep (60 stations, 3 pkt/s)\n");
    let delivered = 1e-6;
    let mut cfg0 = NetConfig::paper_default(60, 71);
    let threshold = cfg0.sinr_threshold();
    let budget = delivered / threshold;
    println!("delivered power {delivered:.1e} W, SINR threshold {threshold:.4}");
    println!("=> total interference budget per reception: {budget:.2e} W\n");
    println!(
        "{:>12} {:>14} {:>11} {:>11} {:>10} {:>11}",
        "ext din W", "frac of budget", "hop succ%", "collisions", "din loss", "delivered"
    );
    cfg0.traffic.arrivals_per_station_per_sec = 3.0;
    cfg0.run_for = Duration::from_secs(12);
    cfg0.warmup = Duration::from_secs(2);

    let mut clean_frac: f64 = 0.0;
    let mut first_din_frac = f64::INFINITY;
    let reporter = Reporter::new(artifact_dir(), "metro_din");
    for &ext in &[0.0, 1e-6, 5e-6, 1e-5, 3e-5, 6e-5, 1e-4] {
        let mut cfg = cfg0.clone();
        cfg.external_din = PowerW(ext);
        let m = reporter.run(format!("external_din_w={ext:.1e}"), &cfg);
        let din = m.losses.get(&LossCause::Din).copied().unwrap_or(0);
        let frac = ext / budget;
        println!(
            "{:>12.1e} {:>13.2} {:>10.2}% {:>11} {:>10} {:>11}",
            ext,
            frac,
            100.0 * m.hop_success_rate(),
            m.collision_losses(),
            din,
            m.delivered
        );
        assert_eq!(
            m.collision_losses(),
            0,
            "external din must never look like a collision"
        );
        if din == 0 && m.hop_success_rate() > 0.999 {
            clean_frac = clean_frac.max(frac);
        }
        if din > 0 {
            first_din_frac = first_din_frac.min(frac);
        }
    }
    println!(
        "\nclean up to {clean_frac:.2}x of the interference budget; link-budget\n\
         (Din) losses appear at {first_din_frac:.2}x — the internal traffic's own\n\
         interference plus the margin account for the gap to 1.0."
    );
    assert!(
        clean_frac > 0.1,
        "should tolerate a substantial external din"
    );
    assert!(
        first_din_frac <= 1.5,
        "losses should appear near the budget boundary"
    );
    println!("\nE5 reproduced: OK");
}
