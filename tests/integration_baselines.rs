//! Integration tests contrasting the scheme with the baseline MACs over
//! identical physics (experiment E3's acceptance criteria).

use parn::baseline::{Baseline, MacKind};
use parn::core::{DestPolicy, Metrics, NetConfig, Network};
use parn::phys::placement::Placement;
use parn::phys::PowerW;
use parn::sim::Duration;

const N: usize = 40;
const SEED: u64 = 11;

/// The one scenario the scheme and every baseline run at `rate`.
fn cfg(rate: f64) -> NetConfig {
    let mut c = NetConfig::paper_default(N, SEED);
    c.traffic.arrivals_per_station_per_sec = rate;
    c.traffic.dest = DestPolicy::Neighbors;
    c.run_for = Duration::from_secs(8);
    c.warmup = Duration::from_secs(1);
    c
}

fn scheme(rate: f64) -> Metrics {
    Network::run(cfg(rate))
}

fn baseline(mac: MacKind, rate: f64) -> Metrics {
    Baseline::new(cfg(rate), mac).run()
}

fn csma(sense: f64) -> MacKind {
    MacKind::Csma {
        sense_threshold: PowerW(sense),
    }
}

#[test]
fn scheme_beats_aloha_on_loss_at_heavy_load() {
    let rate = 30.0;
    let s = scheme(rate);
    let a = baseline(MacKind::PureAloha, rate);
    assert_eq!(s.collision_losses(), 0);
    assert!(a.collision_losses() > 0, "{}", a.summary());
    assert!(s.hop_success_rate() > a.hop_success_rate());
}

#[test]
fn slotted_aloha_sits_between_pure_and_scheme() {
    let rate = 30.0;
    let pure = baseline(MacKind::PureAloha, rate);
    let slotted = baseline(MacKind::SlottedAloha, rate);
    assert!(slotted.hop_success_rate() >= pure.hop_success_rate());
    assert!(slotted.collision_losses() > 0);
}

#[test]
fn aloha_collisions_grow_with_load() {
    let low = baseline(MacKind::PureAloha, 2.0);
    let high = baseline(MacKind::PureAloha, 30.0);
    assert!(high.collision_losses() > low.collision_losses());
}

#[test]
fn csma_trades_collisions_for_delay() {
    let rate = 20.0;
    let aggressive = baseline(csma(1e-3), rate); // barely ever defers
    let cautious = baseline(csma(1e-10), rate); // defers at a whisper
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
    let m = baseline(MacKind::Maca, rate);
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
    let a = baseline(MacKind::PureAloha, rate);
    let c = baseline(csma(1e-8), rate);
    let m = baseline(MacKind::Maca, rate);
    for (name, x) in [("scheme", &s), ("aloha", &a), ("csma", &c), ("maca", &m)] {
        assert!(
            x.delivery_rate() > 0.8,
            "{name} delivered only {:.1}%",
            100.0 * x.delivery_rate()
        );
    }
}

#[test]
fn every_mac_conserves_packets_at_heavy_load() {
    // One retry makes retry exhaustion common, so the drop ledger carries
    // real weight: generated = delivered + dropped + in flight.
    let macs = [
        MacKind::PureAloha,
        MacKind::SlottedAloha,
        csma(1e-8),
        MacKind::Maca,
    ];
    for mac in macs {
        let mut c = cfg(40.0);
        c.max_retries = 1;
        let m = Baseline::new(c, mac.clone()).run();
        assert!(m.conservation_holds(), "{mac:?}: {}", m.summary());
        // CSMA at 1e-8 W defers instead of colliding: nothing to drop.
        if !matches!(mac, MacKind::Csma { .. }) {
            assert!(m.total_drops() > 0, "{mac:?} never exhausted its retries");
        }
    }
}

#[test]
fn provenance_recreates_a_clustered_scenario() {
    // dense_city's placement: a baseline line's config names every
    // parameter of it, not a Debug string, plus the MAC and SIC depth.
    let mut c = cfg(6.0);
    c.placement = Placement::Clustered {
        clusters: 8,
        per_cluster: 12,
        sigma: 18.0,
        radius: 160.0,
    };
    let json = Baseline::new(c, csma(1e-8))
        .with_sic(2)
        .to_json()
        .to_string();
    for key in [
        r#""placement":{"kind":"clustered","clusters":8,"per_cluster":12,"sigma_m":18.0,"radius_m":160.0}"#,
        r#""baseline":{"mac":{"kind":"csma","sense_threshold_w":1e-8},"sic_depth":2}"#,
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
}
