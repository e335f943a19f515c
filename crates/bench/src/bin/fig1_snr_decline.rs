//! Figure 1 — decline of signal-to-noise ratio as the system scales.
//!
//! Regenerates the paper's family of curves: SNR (dB) of a
//! characteristic-distance neighbour vs log10(station count), one curve
//! per duty cycle η ∈ {0.05, 0.1, 0.2, 0.5, 1}. The analytic curves are
//! Eq. 15 (`S/N = 1/(π·η·ln M)`); a Monte-Carlo column cross-checks the
//! closed form against actual random uniform-disk placements with every
//! station transmitting at unit power with probability η.
//!
//! Paper anchors: ≈ −20 dB at M = 10¹², η = 1; η = 0.25 sits 6 dB above
//! η = 1 everywhere.

use parn_bench::report::{artifact_dir, Reporter};
use parn_phys::noise::{exclusion_radius, figure1, snr_vs_scale, snr_vs_scale_db};
use parn_phys::placement::Placement;
use parn_phys::Point;
use parn_sim::json::obj;
use parn_sim::Rng;

/// Monte-Carlo estimate of the SNR at the disk center: `m` stations in a
/// disk, duty cycle `eta`, signal from a neighbour at the characteristic
/// distance `1/√ρ`, interferers outside the exclusion radius `1/(2√ρ)`.
fn monte_carlo_snr(m: usize, eta: f64, trials: usize, rng: &mut Rng) -> f64 {
    let rho = 0.01; // scale-free: any density gives the same answer
    let radius = (m as f64 / (std::f64::consts::PI * rho)).sqrt();
    let d_sig = 1.0 / rho.sqrt();
    let r0 = exclusion_radius(rho);
    let signal = 1.0 / (d_sig * d_sig);
    let mut snr_sum = 0.0;
    for _ in 0..trials {
        let placement = Placement::UniformDisk { n: m, radius };
        let pts = placement.generate(rng);
        let mut interference = 0.0;
        for p in &pts {
            let r = p.distance(Point::ORIGIN).max(1.0);
            if r < r0 {
                continue; // local sources are managed by the scheme, §4 fn.7
            }
            if rng.chance(eta) {
                interference += 1.0 / (r * r);
            }
        }
        if interference > 0.0 {
            snr_sum += signal / interference;
        }
    }
    snr_sum / trials as f64
}

fn main() {
    let etas = [0.05, 0.1, 0.2, 0.5, 1.0];
    println!("# Figure 1: SNR vs number of stations (analytic, Eq. 15)");
    println!(
        "{:>8} | {:>9} {:>9} {:>9} {:>9} {:>9}",
        "log10 M", "eta=0.05", "0.1", "0.2", "0.5", "1.0"
    );
    for row in figure1(&etas, 1, 12) {
        let cells: Vec<String> = row.snr_db.iter().map(|db| format!("{:>8.2}", db)).collect();
        println!("{:>8} | {}", row.log10_m as u32, cells.join("  "));
    }

    // Anchors from the paper's prose.
    let a1 = snr_vs_scale_db(1.0, 1e12);
    let a2 = snr_vs_scale_db(0.25, 1e12) - snr_vs_scale_db(1.0, 1e12);
    println!("\n# anchors");
    println!("  eta=1, M=1e12: {a1:.1} dB   (paper: approaching -20 dB)");
    println!("  eta=0.25 vs eta=1: +{a2:.1} dB (paper: +6 dB)");

    println!("\n# Monte-Carlo cross-check (random placements, unit powers)");
    println!(
        "{:>8} {:>6} | {:>12} {:>12} {:>8}",
        "M", "eta", "analytic dB", "measured dB", "diff"
    );
    let mut rng = Rng::new(0xF16);
    let mut worst: f64 = 0.0;
    let run = Reporter::new(artifact_dir(), "fig1_snr_decline").start("eq15 vs monte-carlo");
    let mut rows: Vec<(String, parn_sim::Json)> = Vec::new();
    for &m in &[1_000usize, 10_000, 100_000] {
        for &eta in &[0.2, 0.5, 1.0] {
            let analytic = snr_vs_scale(eta, m as f64);
            let measured = monte_carlo_snr(m, eta, 8, &mut rng);
            let a_db = 10.0 * analytic.log10();
            let m_db = 10.0 * measured.log10();
            worst = worst.max((a_db - m_db).abs());
            rows.push((
                format!("m={m} eta={eta}"),
                obj([("analytic_db", a_db.into()), ("measured_db", m_db.into())]),
            ));
            println!(
                "{:>8} {:>6} | {:>12.2} {:>12.2} {:>7.2}",
                m,
                eta,
                a_db,
                m_db,
                (a_db - m_db).abs()
            );
        }
    }
    run.record(
        obj([("seed", 0xF16u64.into()), ("trials_per_point", 8u64.into())]),
        obj([
            ("anchor_eta1_m1e12_db", a1.into()),
            ("anchor_eta025_gain_db", a2.into()),
            ("worst_gap_db", worst.into()),
            ("points", parn_sim::Json::Obj(rows)),
        ]),
    );
    println!("\nworst analytic-vs-measured gap: {worst:.2} dB");
    assert!(
        worst < 2.0,
        "Monte-Carlo diverged from Eq. 15 by more than 2 dB"
    );
    println!("figure 1 reproduced: OK");
}
