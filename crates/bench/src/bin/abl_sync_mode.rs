//! A4 — schedule maintenance: idealized oracle vs the realistic
//! piggyback/hello machinery of §7.
//!
//! §7 expects stations to "occasionally rendezvous and exchange clock
//! readings". Two implementations are compared over identical traffic:
//!
//! * **Oracle** — out-of-band periodic exchanges with every tracked
//!   neighbour (free and perfectly reliable);
//! * **Piggyback** — every successful reception carries the sender's
//!   clock reading, plus per-neighbour `Hello` beacons through the normal
//!   MAC, paying real air time and subject to real interference.
//!
//! Expected shape: both stay collision-free; piggyback pays a visible
//! air-time overhead that shrinks as the hello interval grows; overly
//! lazy hellos + high drift eventually show up as schedule violations.

use parn_bench::report::{artifact_dir, Reporter};
use parn_core::{NetConfig, SyncMode};
use parn_sim::Duration;

fn run(reporter: &Reporter, label: &str, sync: SyncMode, max_ppm: f64) -> parn_core::Metrics {
    let mut cfg = NetConfig::paper_default(60, 51);
    cfg.clock.sync = sync;
    cfg.clock.max_ppm = max_ppm;
    cfg.traffic.arrivals_per_station_per_sec = 2.0;
    cfg.run_for = Duration::from_secs(16);
    cfg.warmup = Duration::from_secs(2);
    reporter.run(label, &cfg)
}

fn main() {
    println!("# A4: oracle vs piggyback schedule maintenance (60 stations, 100 ppm)\n");
    let reporter = Reporter::new(artifact_dir(), "abl_sync_mode");
    println!(
        "{:<22} {:>10} {:>9} {:>11} {:>12} {:>11}",
        "mode", "delivered", "hellos", "collisions", "violations", "air s"
    );
    let rows: Vec<(String, parn_core::Metrics)> = vec![
        (
            "oracle 5s".into(),
            run(&reporter, "oracle 5s", SyncMode::Oracle, 100.0),
        ),
        (
            "piggyback 1s".into(),
            run(
                &reporter,
                "piggyback 1s",
                SyncMode::Piggyback {
                    hello_interval: Duration::from_secs(1),
                },
                100.0,
            ),
        ),
        (
            "piggyback 3s".into(),
            run(
                &reporter,
                "piggyback 3s",
                SyncMode::Piggyback {
                    hello_interval: Duration::from_secs(3),
                },
                100.0,
            ),
        ),
        (
            "piggyback 8s".into(),
            run(
                &reporter,
                "piggyback 8s",
                SyncMode::Piggyback {
                    hello_interval: Duration::from_secs(8),
                },
                100.0,
            ),
        ),
    ];
    for (name, m) in &rows {
        println!(
            "{:<22} {:>10} {:>9} {:>11} {:>12} {:>11.2}",
            name,
            m.delivered,
            m.hellos_sent,
            m.collision_losses(),
            m.schedule_violations,
            m.tx_airtime.iter().sum::<f64>()
        );
    }
    // Acceptance: oracle and the 1 s piggyback are clean; overhead
    // decreases with the hello interval.
    assert_eq!(rows[0].1.collision_losses(), 0);
    assert_eq!(rows[1].1.collision_losses(), 0, "piggyback 1 s not clean");
    assert_eq!(rows[1].1.schedule_violations, 0);
    let air1 = rows[1].1.tx_airtime.iter().sum::<f64>();
    let air8 = rows[3].1.tx_airtime.iter().sum::<f64>();
    assert!(air1 > air8, "hello overhead should shrink with interval");
    assert!(rows[1].1.hellos_sent > rows[3].1.hellos_sent);
    // Every mode delivers comparably.
    for (name, m) in &rows {
        assert!(
            m.delivered as f64 > 0.9 * rows[0].1.delivered as f64,
            "{name} delivered only {}",
            m.delivered
        );
    }
    println!("\nA4 reproduced: realistic maintenance works and its cost is visible. OK");
}
