//! Integration tests contrasting the scheme with the baseline MACs over
//! identical physics (experiment E3's acceptance criteria).

use parn::baseline::{Baseline, BaselineConfig, MacKind, Scenario};
use parn::core::{DestPolicy, NetConfig, Network};
use parn::phys::PowerW;
use parn::sim::Duration;

const N: usize = 40;
const SEED: u64 = 11;

fn baseline_cfg(mac: MacKind, rate: f64) -> BaselineConfig {
    let mut c = BaselineConfig::matched(N, SEED, mac);
    c.arrivals_per_station_per_sec = rate;
    c.run_for = Duration::from_secs(8);
    c.warmup = Duration::from_secs(1);
    c
}

fn scheme(rate: f64) -> parn::core::Metrics {
    let mut c = NetConfig::paper_default(N, SEED);
    c.traffic.arrivals_per_station_per_sec = rate;
    c.traffic.dest = DestPolicy::Neighbors;
    c.run_for = Duration::from_secs(8);
    c.warmup = Duration::from_secs(1);
    Network::run(c)
}

#[test]
fn scheme_beats_aloha_on_loss_at_heavy_load() {
    let rate = 30.0;
    let s = scheme(rate);
    let a = Baseline::run(Scenario::new(baseline_cfg(MacKind::PureAloha, rate)));
    assert_eq!(s.collision_losses(), 0);
    assert!(a.collision_losses() > 0, "{}", a.summary());
    assert!(s.hop_success_rate() > a.hop_success_rate());
}

#[test]
fn slotted_aloha_sits_between_pure_and_scheme() {
    let rate = 30.0;
    let pure = Baseline::run(Scenario::new(baseline_cfg(MacKind::PureAloha, rate)));
    let slotted = Baseline::run(Scenario::new(baseline_cfg(
        MacKind::SlottedAloha {
            slot: Duration::from_micros(2500),
        },
        rate,
    )));
    assert!(slotted.hop_success_rate() >= pure.hop_success_rate());
    assert!(slotted.collision_losses() > 0);
}

#[test]
fn aloha_collisions_grow_with_load() {
    let low = Baseline::run(Scenario::new(baseline_cfg(MacKind::PureAloha, 2.0)));
    let high = Baseline::run(Scenario::new(baseline_cfg(MacKind::PureAloha, 30.0)));
    assert!(high.collision_losses() > low.collision_losses());
}

#[test]
fn csma_trades_collisions_for_delay() {
    let rate = 20.0;
    let aggressive = Baseline::run(Scenario::new(baseline_cfg(
        MacKind::Csma {
            sense_threshold: PowerW(1e-3), // barely ever defers
        },
        rate,
    )));
    let cautious = Baseline::run(Scenario::new(baseline_cfg(
        MacKind::Csma {
            sense_threshold: PowerW(1e-10), // defers at a whisper
        },
        rate,
    )));
    assert!(
        cautious.collision_losses() <= aggressive.collision_losses(),
        "cautious {} vs aggressive {}",
        cautious.collision_losses(),
        aggressive.collision_losses()
    );
    assert!(
        cautious.e2e_delay.mean() > aggressive.e2e_delay.mean(),
        "deferral should cost delay"
    );
}

#[test]
fn maca_control_overhead_is_visible() {
    let rate = 3.0;
    let m = Baseline::run(Scenario::new(baseline_cfg(
        MacKind::Maca {
            ctrl_airtime: Duration::from_micros(250),
        },
        rate,
    )));
    let s = scheme(rate);
    assert!(m.delivered > 0 && s.delivered > 0);
    // Air time per delivered packet: MACA pays RTS+CTS on top of data.
    let maca_air = m.tx_airtime.iter().sum::<f64>() / m.delivered as f64;
    let scheme_air = s.tx_airtime.iter().sum::<f64>() / s.delivered as f64;
    assert!(
        maca_air > scheme_air * 1.1,
        "maca {maca_air} vs scheme {scheme_air}"
    );
}

#[test]
fn all_macs_deliver_at_light_load() {
    let rate = 0.5;
    let s = scheme(rate);
    let a = Baseline::run(Scenario::new(baseline_cfg(MacKind::PureAloha, rate)));
    let c = Baseline::run(Scenario::new(baseline_cfg(
        MacKind::Csma {
            sense_threshold: PowerW(1e-8),
        },
        rate,
    )));
    let m = Baseline::run(Scenario::new(baseline_cfg(
        MacKind::Maca {
            ctrl_airtime: Duration::from_micros(250),
        },
        rate,
    )));
    for (name, x) in [("scheme", &s), ("aloha", &a), ("csma", &c), ("maca", &m)] {
        assert!(
            x.delivery_rate() > 0.8,
            "{name} delivered only {:.1}%",
            100.0 * x.delivery_rate()
        );
    }
}

#[test]
fn identical_physics_across_macs() {
    // The comparison is honest only if every MAC sees the same world: the
    // gain matrices derived from the shared seed must be identical.
    let sc_a = Scenario::new(baseline_cfg(MacKind::PureAloha, 1.0));
    let sc_b = Scenario::new(baseline_cfg(
        MacKind::Csma {
            sense_threshold: PowerW(1e-8),
        },
        1.0,
    ));
    for i in 0..N {
        for j in 0..N {
            assert_eq!(sc_a.gains.gain(i, j), sc_b.gains.gain(i, j));
        }
    }
    assert_eq!(sc_a.neighbors, sc_b.neighbors);
    assert_eq!(sc_a.threshold, sc_b.threshold);
}

#[test]
fn every_mac_conserves_packets_at_heavy_load() {
    // One retry makes retry exhaustion common, so the drop ledger carries
    // real weight: generated = delivered + dropped + in flight.
    let macs = [
        MacKind::PureAloha,
        MacKind::SlottedAloha {
            slot: Duration::from_micros(2500),
        },
        MacKind::Csma {
            sense_threshold: PowerW(1e-8),
        },
        MacKind::Maca {
            ctrl_airtime: Duration::from_micros(250),
        },
    ];
    for mac in macs {
        let mut c = baseline_cfg(mac.clone(), 40.0);
        c.max_retries = 1;
        let m = Baseline::run(Scenario::new(c));
        assert!(m.conservation_holds(), "{mac:?}: {}", m.summary());
        // CSMA at 1e-8 W defers instead of colliding: nothing to drop.
        if !matches!(mac, MacKind::Csma { .. }) {
            assert!(m.total_drops() > 0, "{mac:?} never exhausted its retries");
        }
    }
}
