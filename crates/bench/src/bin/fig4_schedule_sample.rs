//! Figure 4 — a sample pseudo-random schedule for 20 stations.
//!
//! Regenerates the paper's figure as data: for each of 20 stations with
//! independently random clocks, the transmit windows over 0.5 s of 10 ms
//! slots at receive duty cycle 0.3, printed both as segments (start/end
//! pairs, the figure's line segments) and as an ASCII strip. Also verifies
//! the figure's caption properties: unaligned slot boundaries and a ~30%
//! receive fraction.

use parn_bench::report::{artifact_dir, Reporter};
use parn_sched::{SchedParams, SlotKind, StationClock, StationSchedule};
use parn_sim::json::obj;
use parn_sim::{Duration, Rng, Time};

fn main() {
    let run = Reporter::new(artifact_dir(), "fig4_schedule_sample").start("20 stations p=0.3");
    let params = SchedParams::new(Duration::from_millis(10), 0.3, 0x1996);
    let mut rng = Rng::new(0xF164);
    let stations: Vec<StationSchedule> = (0..20)
        .map(|_| StationSchedule::new(params, StationClock::random(&mut rng, 0.0)))
        .collect();

    let from = Time::ZERO;
    let to = Time::ZERO + Duration::from_millis(500);

    println!("# Figure 4: transmit windows (seconds) for 20 stations, p = 0.3");
    for (i, st) in stations.iter().enumerate() {
        let segs: Vec<String> = st
            .windows(from, to, SlotKind::Transmit)
            .iter()
            .map(|w| format!("{:.3}-{:.3}", w.start.as_secs_f64(), w.end.as_secs_f64()))
            .collect();
        println!("station {i:>2}: {}", segs.join(" "));
    }

    println!("\n# ASCII strip (5 ms columns; '#' transmit, '.' receive)");
    for (i, st) in stations.iter().enumerate() {
        let mut row = String::new();
        let mut t = from;
        while t < to {
            row.push(match st.kind_at(t) {
                SlotKind::Transmit => '#',
                SlotKind::Receive => '.',
            });
            t += Duration::from_micros(5000);
        }
        println!("{i:>2} {row}");
    }

    // Caption checks.
    // (a) receive fraction ≈ 0.3 over a long horizon.
    let long = Time::ZERO + Duration::from_secs(100);
    let mut rx_time = 0u64;
    for st in &stations {
        rx_time += st
            .windows(Time::ZERO, long, SlotKind::Receive)
            .iter()
            .map(|w| w.duration().ticks())
            .sum::<u64>();
    }
    let frac = rx_time as f64 / (100.0 * 1e6 * 20.0);
    println!("\nreceive fraction over 100 s x 20 stations: {frac:.4} (target 0.3)");
    assert!((frac - 0.3).abs() < 0.01);

    // (b) slot boundaries are unaligned between stations.
    let mut aligned_pairs = 0;
    for i in 0..stations.len() {
        for j in (i + 1)..stations.len() {
            let phase_i = stations[i].clock.reading(Time::ZERO) % params.slot.ticks();
            let phase_j = stations[j].clock.reading(Time::ZERO) % params.slot.ticks();
            if phase_i == phase_j {
                aligned_pairs += 1;
            }
        }
    }
    println!("pairs with aligned slot phase: {aligned_pairs} (expected 0)");
    assert_eq!(aligned_pairs, 0);

    // (c) the paper's caption example: at any instant, each station can
    // reach some neighbours and not others. Count reachable pairs at one
    // instant.
    let t = Time::ZERO + Duration::from_millis(123);
    let mut sendable = 0;
    for i in 0..stations.len() {
        for j in 0..stations.len() {
            if i != j
                && stations[i].kind_at(t) == SlotKind::Transmit
                && stations[j].kind_at(t) == SlotKind::Receive
            {
                sendable += 1;
            }
        }
    }
    let frac_pairs = sendable as f64 / (20.0 * 19.0);
    println!(
        "sendable ordered pairs at t=0.123 s: {sendable}/380 ({frac_pairs:.2}; expect ~p(1-p)=0.21)"
    );
    assert!((frac_pairs - 0.21).abs() < 0.15);
    run.record(
        obj([
            ("stations", 20u64.into()),
            ("slot_s", 0.01.into()),
            ("rx_prob", 0.3.into()),
            ("seed", 0x1996u64.into()),
        ]),
        obj([
            ("receive_fraction", frac.into()),
            ("aligned_slot_pairs", (aligned_pairs as u64).into()),
            ("sendable_pair_fraction", frac_pairs.into()),
        ]),
    );
    println!("\nfigure 4 reproduced: OK");
}
