//! E2 — capacity at scale: the §4 arithmetic plus measured link SINR.
//!
//! Reproduces the paper's quantitative capacity chain:
//!
//! * C/W ≈ 0.0144 bit/s/Hz (≈ 14 bit/s/kHz) at the −20 dB din SNR
//!   (η = 1, M → 10¹²);
//! * ≈ 56 bit/s/kHz at η = 0.25 (−14 dB);
//! * halving the duty cycle is throughput-neutral in the din;
//! * each doubling of hop range costs 6 dB → 4× in raw rate;
//! * the metro projection: 10⁶ stations at hundreds of Mb/s raw with a
//!   modest slice of spectrum;
//!
//! and cross-checks the *simulated* SINR margins in a dense network
//! against the analytic din level.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::NetConfig;
use parn_phys::linkbudget::{rate_factor_for_range, SystemDesign};
use parn_phys::noise::{relative_net_throughput, snr_vs_scale_db};
use parn_phys::shannon::spectral_efficiency;
use parn_phys::units::snr_from_db;
use parn_sim::Duration;

fn main() {
    println!("# E2: capacity at scale (paper Sec. 4 and conclusion)\n");

    println!("## Shannon capacity at din-limited SNR");
    let c20 = spectral_efficiency(snr_from_db(-20.0)) * 1e3;
    let c14 = spectral_efficiency(0.04) * 1e3;
    println!("  -20 dB: {c20:.1} bit/s/kHz (paper: ~14)");
    println!("  -14 dB: {c14:.1} bit/s/kHz (paper: ~56)");
    assert!((c20 - 14.35).abs() < 0.1);
    assert!((c14 - 56.6).abs() < 0.2);

    println!("\n## duty-cycle neutrality at M = 10^12 (relative net throughput)");
    for eta in [1.0, 0.5, 0.25, 0.125] {
        let t = relative_net_throughput(eta, 1e12);
        println!("  eta = {eta:<6} -> {t:.3}");
    }
    let t_half = relative_net_throughput(0.5, 1e12);
    let t_quarter = relative_net_throughput(0.25, 1e12);
    assert!((t_quarter / t_half - 1.0).abs() < 0.05, "not neutral");

    println!("\n## range vs rate (6 dB per doubling, Sec. 6)");
    for rf in [1.0, 2.0, 4.0] {
        println!(
            "  range x{rf}: rate x{:.3}",
            rate_factor_for_range(0.05, rf)
        );
    }
    let quartered = rate_factor_for_range(0.01, 2.0);
    assert!((quartered - 0.25).abs() < 0.01);

    println!("\n## metro projection (10^6 stations, eta = 0.25)");
    for w in [100e6, 500e6, 1.5e9] {
        let d = SystemDesign::metro(1e6, w);
        println!(
            "  W = {:>6.0} MHz: din SNR {:>6.1} dB, projected raw {:>7.1} Mb/s, engineered {:>6.2} Mb/s",
            w / 1e6,
            10.0 * d.din_snr().log10(),
            d.projection_rate_bps() / 1e6,
            d.raw_rate_bps() / 1e6
        );
    }
    let d = SystemDesign::metro(1e6, 1.5e9);
    assert!(
        d.projection_rate_bps() > 1e8,
        "metro projection under 100 Mb/s"
    );

    println!("\n## simulated link SINR vs analytic din (100-station network)");
    // Run the full scheme and compare the worst observed SINR margin with
    // what the Eq. 15 din level predicts for the in-simulation duty cycle.
    let mut cfg = NetConfig::paper_default(100, 11);
    cfg.traffic.arrivals_per_station_per_sec = 4.0;
    cfg.run_for = Duration::from_secs(15);
    cfg.warmup = Duration::from_secs(3);
    let threshold = cfg.sinr_threshold();
    let m = Reporter::new(artifact_dir(), "capacity_arith").run("n=100 sinr-vs-din", &cfg);
    let eta = m.mean_tx_duty().max(1e-4);
    let predicted_snr_db = snr_vs_scale_db(eta, 100.0);
    println!(
        "  measured duty cycle eta = {:.3}; Eq.15 din SNR at that eta: {:.1} dB",
        eta, predicted_snr_db
    );
    println!(
        "  SINR margin over threshold ({:.1} dB): mean {:.1} dB, worst {:.1} dB",
        10.0 * threshold.log10(),
        m.sinr_margin_db.mean(),
        m.sinr_margin_db.min()
    );
    // The scheme must hold every reception above threshold, with the
    // worst-case margin positive but finite (the din is real).
    assert!(m.sinr_margin_db.min() > 0.0);
    assert!(
        m.sinr_margin_db.min() < 40.0,
        "din absent? margin implausibly large"
    );
    assert_eq!(m.collision_losses(), 0);
    println!("\nE2 reproduced: OK");
}
