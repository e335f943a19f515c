//! Property-based tests over the *whole* simulator: random small
//! scenarios must uphold the global invariants regardless of parameters.

use parn::core::{DestPolicy, NetConfig, Network, RouteMode};
use parn::sim::{Duration, Rng};
use parn::testkit::cases;

fn random_config(rng: &mut Rng) -> NetConfig {
    let n = 5 + rng.below(20) as usize;
    let seed = rng.below(1000);
    let mut cfg = NetConfig::paper_default(n, seed);
    cfg.run_for = Duration::from_secs(3);
    cfg.warmup = Duration::from_millis(500);
    cfg.traffic.arrivals_per_station_per_sec = (1 + rng.below(39)) as f64 / 10.0;
    if rng.chance(0.5) {
        cfg.traffic.dest = DestPolicy::Neighbors;
    }
    cfg.clock.max_ppm = rng.below(200) as f64;
    cfg.protection.enabled = rng.chance(0.5);
    let shadow = rng.below(3);
    cfg.shadowing_sigma_db = shadow as f64 * 4.0;
    if shadow > 0 {
        cfg.reach_factor = 3.0;
    }
    cfg
}

#[test]
fn ledger_always_balances() {
    cases(24, "ledger", |_, rng| {
        let cfg = random_config(rng);
        let m = Network::run(cfg);
        // Conservation: every generated packet is delivered, in flight, or
        // settled as a drop; never double counted, never lost silently.
        assert!(m.delivered + m.in_flight_at_end <= m.generated);
        assert!(m.hop_successes <= m.hop_attempts);
        // Failed hop attempts are exactly the recorded losses.
        assert_eq!(
            m.hop_attempts - m.hop_successes,
            m.total_losses(),
            "loss ledger mismatch: {}",
            m.summary()
        );
    });
}

#[test]
fn scheme_is_collision_free_across_parameter_space() {
    cases(24, "collision_free", |_, rng| {
        // The guarantee belongs to the *full* scheme: §7.3 neighbour
        // protection is part of it. (The generator randomizes the flag for
        // the other properties because the ledger/reproducibility
        // invariants must hold even for ablated configurations; this
        // property once caught a hyper-dense 6-station disk where
        // disabling §7.3 produces a Type-1 collision, exactly as ablation
        // A1 predicts.)
        let mut cfg = random_config(rng);
        cfg.protection.enabled = true;
        let m = Network::run(cfg.clone());
        assert_eq!(
            m.collision_losses(),
            0,
            "collisions under cfg {:?}: {}",
            cfg,
            m.summary()
        );
        assert_eq!(m.schedule_violations, 0);
    });
}

#[test]
fn runs_are_reproducible() {
    cases(24, "reproducible", |_, rng| {
        let cfg = random_config(rng);
        let a = Network::run(cfg.clone());
        let b = Network::run(cfg);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.hop_attempts, b.hop_attempts);
        assert_eq!(a.retransmissions, b.retransmissions);
        assert_eq!(a.hellos_sent, b.hellos_sent);
        assert!((a.e2e_delay.mean() - b.e2e_delay.mean()).abs() < 1e-12);
    });
}

#[test]
fn delays_are_physical() {
    cases(24, "physical_delay", |_, rng| {
        // Any delivered packet took at least one packet air time per hop.
        let cfg = random_config(rng);
        let airtime = cfg.packet_airtime().as_secs_f64();
        let m = Network::run(cfg);
        if m.delivered > 0 {
            assert!(m.e2e_delay.min() >= airtime * 0.99);
            assert!(m.hops_per_packet.min() >= 1.0);
        }
    });
}

/// The MAC searches growing look-ahead spans and keeps a shorter span's
/// plan only when the packet ends at least `guard + slot` before the span
/// does. In debug builds every plan asserts that this plan equals the
/// search over the whole horizon, so this test drives small loaded
/// networks through that assertion over each knob the margin depends on:
/// horizons below, at and just past the first span (1, 8, 9 slots) and the
/// default 200; packets of a whole, a quarter and an eighth of a slot;
/// guard bands from 200 µs to 5 ms; §7.3 protection on; table and
/// distance-vector routing. (In release builds only the ledger is checked.)
#[test]
fn lookahead_plans_match_the_full_horizon() {
    let mut seed = 0;
    for horizon in [1, 8, 9, 200] {
        for divisor in [1, 4, 8] {
            for guard_us in [200, 1_000, 5_000] {
                for route in [RouteMode::Centralized, RouteMode::Distributed] {
                    seed += 1;
                    let mut cfg = NetConfig::paper_default(16, seed);
                    cfg.run_for = Duration::from_secs(2);
                    cfg.warmup = Duration::from_millis(250);
                    cfg.traffic.arrivals_per_station_per_sec = 8.0;
                    cfg.protection.enabled = true;
                    cfg.mac_horizon_slots = horizon;
                    cfg.packet_divisor = divisor;
                    cfg.clock.guard = Duration::from_micros(guard_us);
                    cfg.route_mode = route;
                    let m = Network::run(cfg);
                    assert_eq!(
                        m.hop_attempts - m.hop_successes,
                        m.total_losses(),
                        "horizon {horizon}, divisor {divisor}, guard {guard_us} µs: {}",
                        m.summary()
                    );
                    assert!(
                        horizon == 1 || m.hop_attempts > 0,
                        "horizon {horizon}, divisor {divisor}, guard {guard_us} µs planned nothing"
                    );
                }
            }
        }
    }
}
