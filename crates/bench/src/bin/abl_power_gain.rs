//! A1 — ablations of the §6 design choices: power control and processing
//! gain.
//!
//! 1. **Power control on/off.** With §6.1 control every hop delivers the
//!    same power; without it (fixed transmit power sized for the longest
//!    usable hop) nearby receivers are blasted far above necessity,
//!    raising everyone's interference floor. The expected shape: SINR
//!    margins tighten or collapse, and collision losses can appear.
//! 2. **Processing gain sweep.** The paper budgets 20–25 dB. Sweeping the
//!    spread ratio W/C shows the cliff: with too little gain the scheme's
//!    schedules alone cannot protect receptions from the din of parallel
//!    transmissions.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::NetConfig;
use parn_phys::{PowerW, ReceptionCriterion};
use parn_sim::Duration;

fn base(n: usize, seed: u64) -> NetConfig {
    let mut cfg = NetConfig::paper_default(n, seed);
    cfg.traffic.arrivals_per_station_per_sec = 4.0;
    cfg.run_for = Duration::from_secs(12);
    cfg.warmup = Duration::from_secs(2);
    cfg
}

fn main() {
    println!("# A1: power control and processing gain ablations\n");

    println!("## power control (100 stations, 4 pkt/s)");
    println!(
        "{:<22} {:>11} {:>11} {:>13} {:>13}",
        "policy", "hop succ%", "collisions", "margin mean", "margin worst"
    );
    let reporter = Reporter::new(artifact_dir(), "abl_power_gain");
    let full = reporter.run("full scheme", &base(100, 21));
    // Isolate power control from the §7.3 rule: compare controlled vs
    // fixed with protection disabled in both. (With protection left on, a
    // fixed-power network freezes solid: every station becomes a protected
    // neighbour of every other and no window survives — §7.3 doing its
    // job, but uninformative here.)
    let mut cfg_ctl = base(100, 21);
    cfg_ctl.protection.enabled = false;
    let ctl = reporter.run("controlled no-7.3", &cfg_ctl);
    // Fixed power sized to reach the longest usable hop (2/sqrt(rho) =
    // 200 m at the default density): P = target * d^2.
    let mut cfg_off = base(100, 21);
    cfg_off.protection.enabled = false;
    cfg_off.fixed_power = Some(PowerW(1e-6 * 200.0f64 * 200.0));
    let off = reporter.run("fixed no-7.3", &cfg_off);
    for (name, m) in [
        ("full scheme", &full),
        ("controlled, no 7.3", &ctl),
        ("fixed, no 7.3", &off),
    ] {
        println!(
            "{:<22} {:>10.2}% {:>11} {:>11.1}dB {:>11.1}dB",
            name,
            100.0 * m.hop_success_rate(),
            m.collision_losses(),
            m.sinr_margin_db.mean(),
            m.sinr_margin_db.min()
        );
        assert!(m.delivered > 0, "{name}: nothing delivered");
    }
    assert_eq!(full.collision_losses(), 0);
    // Fixed power must measurably tighten the worst-case margin (or lose
    // packets outright).
    assert!(
        off.sinr_margin_db.min() < ctl.sinr_margin_db.min() - 1.0 || off.collision_losses() > 0,
        "removing power control had no effect: ctl {:.1} dB vs fixed {:.1} dB",
        ctl.sinr_margin_db.min(),
        off.sinr_margin_db.min()
    );

    println!("\n## processing gain sweep (60 stations, 4 pkt/s)");
    println!(
        "{:<12} {:>12} {:>11} {:>11} {:>13}",
        "gain (dB)", "threshold dB", "hop succ%", "losses", "margin worst"
    );
    let mut losses_at = Vec::new();
    for &pg_db in &[6.0, 8.0, 10.0, 13.0, 16.0, 20.0, 25.0] {
        let spread = 10f64.powf(pg_db / 10.0);
        let mut cfg = base(60, 22);
        cfg.criterion = ReceptionCriterion::with_5db_margin(1e5, 1e5 * spread);
        let th = cfg.sinr_threshold();
        let m = reporter.run(format!("processing-gain db={pg_db}"), &cfg);
        println!(
            "{:<12} {:>12.1} {:>10.2}% {:>11} {:>11.1}dB",
            pg_db,
            10.0 * th.log10(),
            100.0 * m.hop_success_rate(),
            m.total_losses(),
            m.sinr_margin_db.min()
        );
        losses_at.push((pg_db, m.total_losses(), m.hop_success_rate()));
    }
    // The paper's 20-25 dB regime must be clean; a much smaller spread
    // must degrade (losses of any cause, or reduced hop success).
    let at20 = losses_at.iter().find(|(g, _, _)| *g == 20.0).unwrap();
    let low = losses_at.iter().find(|(g, _, _)| *g <= 8.0).unwrap();
    assert_eq!(at20.1, 0, "20 dB regime should be loss-free");
    assert!(
        low.1 > 0 || low.2 < at20.2,
        "{} dB of gain should visibly degrade the scheme",
        low.0
    );
    println!("\nA1 reproduced: OK");
}
