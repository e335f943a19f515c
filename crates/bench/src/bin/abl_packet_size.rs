//! A5 — packet size vs slot size (the thesis's quarter-slot choice).
//!
//! The thesis fixes packets to one quarter of a slot: small enough that a
//! typical transmit/receive overlap fits several, large enough that
//! per-packet overheads stay reasonable. Sweeping the divisor shows the
//! trade: half-slot packets waste partial overlaps (lower goodput under
//! saturation), eighth-slot packets squeeze more payload into the same
//! overlaps but send many more packets for the same bits. Collision
//! freedom must hold at every size.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::NetConfig;
use parn_sim::Duration;

fn main() {
    let reporter = Reporter::new(artifact_dir(), "abl_packet_size");
    println!("# A5: packets-per-slot sweep (30 stations, saturating load)\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>11} {:>11}",
        "pkts/slot", "airtime us", "goodput b/s", "pkts deliv", "collisions", "delay ms"
    );
    let mut goodputs = Vec::new();
    for &div in &[1u64, 2, 4, 8] {
        let mut cfg = NetConfig::paper_default(30, 61);
        cfg.packet_divisor = div;
        // Saturating offered load in *bits*: packet count scales with the
        // divisor so the offered bit-rate stays constant.
        cfg.traffic.arrivals_per_station_per_sec = 3.0 * div as f64;
        cfg.run_for = Duration::from_secs(14);
        cfg.warmup = Duration::from_secs(2);
        let airtime_us = cfg.packet_airtime().ticks();
        let m = reporter.run(format!("pkts_per_slot={div}"), &cfg);
        println!(
            "{:>10} {:>12} {:>12.0} {:>12} {:>11} {:>11.1}",
            div,
            airtime_us,
            m.goodput_bps(),
            m.delivered,
            m.collision_losses(),
            m.e2e_delay.mean() * 1e3
        );
        assert_eq!(m.collision_losses(), 0, "divisor {div} broke the scheme");
        goodputs.push((div, m.goodput_bps()));
    }
    // Whole-slot packets must be visibly worse than quarter-slot: a packet
    // only fits where a *full* slot of overlap exists.
    let g1 = goodputs.iter().find(|(d, _)| *d == 1).unwrap().1;
    let g4 = goodputs.iter().find(|(d, _)| *d == 4).unwrap().1;
    assert!(
        g4 > g1,
        "quarter-slot should beat whole-slot under saturation: {g4} vs {g1}"
    );
    println!(
        "\nwhole-slot packets fit only where a full slot of overlap exists;\n\
         smaller packets harvest the partial overlaps — the thesis's\n\
         quarter-slot choice sits on the flat part of the curve."
    );
    println!("\nA5 reproduced: OK");
}
