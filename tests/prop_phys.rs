//! Property-based tests of the physics substrate: unit conversions, the
//! SINR tracker's conservation laws, and the relay-circle geometry.

use parn::phys::geom::{relay_saves_energy, Disk};
use parn::phys::placement::Placement;
use parn::phys::propagation::{FreeSpace, Propagation};
use parn::phys::sinr::{ReceptionReport, RxId, SinrTracker, TxId};
use parn::phys::{Db, GainMatrix, GainModel, GridGainModel, Point, PowerW};
use parn::sim::Rng;
use parn::testkit::cases;
use std::sync::Arc;

#[test]
fn db_round_trip() {
    cases(256, "db_round_trip", |_, rng| {
        let ratio = 10f64.powf(rng.range_f64(-12.0, 12.0));
        let back = Db::from_ratio(ratio).to_ratio();
        assert!((back - ratio).abs() / ratio < 1e-9);
    });
}

#[test]
fn db_addition_is_ratio_multiplication() {
    cases(256, "db_add", |_, rng| {
        let a = rng.range_f64(-100.0, 100.0);
        let b = rng.range_f64(-100.0, 100.0);
        let lhs = (Db(a) + Db(b)).to_ratio();
        let rhs = Db(a).to_ratio() * Db(b).to_ratio();
        assert!((lhs - rhs).abs() / rhs < 1e-9);
    });
}

#[test]
fn free_space_monotone_in_distance() {
    cases(256, "fs_monotone", |_, rng| {
        let m = FreeSpace::unit();
        let d1 = rng.range_f64(1.0, 1e5);
        let d2 = rng.range_f64(1.0, 1e5);
        let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        assert!(m.gain_at_distance(near) >= m.gain_at_distance(far));
    });
}

#[test]
fn relay_circle_equivalence() {
    // For alpha = 2 the energy predicate equals the diameter circle,
    // except within float noise of the boundary.
    cases(512, "relay_circle", |_, rng| {
        let a = Point::new(rng.range_f64(-50.0, 50.0), rng.range_f64(-50.0, 50.0));
        let c = Point::new(rng.range_f64(-50.0, 50.0), rng.range_f64(-50.0, 50.0));
        let b = Point::new(rng.range_f64(-60.0, 60.0), rng.range_f64(-60.0, 60.0));
        let disk = Disk::on_diameter(a, c);
        let margin = (a.distance_sq(c) - (a.distance_sq(b) + b.distance_sq(c))).abs();
        if margin <= 1e-6 {
            return; // boundary case: float noise decides, skip
        }
        assert_eq!(relay_saves_energy(a, b, c, 2.0), disk.contains(b));
    });
}

#[test]
fn tracker_interference_is_sum_of_contributions() {
    // interference_at(rx) must equal thermal + Σ power·gain exactly
    // (same summation order as the tracker's own bookkeeping).
    cases(64, "tracker_sum", |_, rng| {
        let k = 1 + (rng.below(11) as usize);
        let pts = Placement::UniformDisk {
            n: 20,
            radius: 100.0,
        }
        .generate(rng);
        let gm = Arc::new(GainMatrix::build(&pts, &FreeSpace::unit()));
        let thermal = PowerW(1e-12);
        let mut t = SinrTracker::new(Arc::clone(&gm) as _, thermal, 1e12);
        let mut txs = Vec::new();
        for i in 0..k {
            let p = PowerW(rng.range_f64(1e-6, 1e-2));
            txs.push((i, p, t.start_transmission(i, p, None)));
        }
        let rx = 19;
        let measured = t.interference_at(rx, None).value();
        let expected: f64 = thermal.value()
            + txs
                .iter()
                .map(|&(s, p, _)| gm.gain(rx, s).value() * p.value())
                .sum::<f64>();
        assert!((measured - expected).abs() <= 1e-12 * expected.max(1.0));
        // Ending everything returns to the floor.
        for (_, _, id) in txs {
            t.end_transmission(id);
        }
        assert!((t.interference_at(rx, None).value() - thermal.value()).abs() < 1e-15);
    });
}

#[test]
fn tracker_min_sinr_never_exceeds_final() {
    // min_sinr is a running minimum: it can only be <= any point
    // sample, in particular the SINR at completion.
    cases(64, "tracker_min", |_, rng| {
        let pts = Placement::UniformDisk {
            n: 10,
            radius: 80.0,
        }
        .generate(rng);
        let gm = Arc::new(GainMatrix::build(&pts, &FreeSpace::unit()));
        let mut t = SinrTracker::new(gm as _, PowerW(1e-12), 1e12);
        let tx = t.start_transmission(0, PowerW(1e-3), Some(1));
        let rx = t.begin_reception(1, tx, 1e-9);
        // Random interference comes and goes.
        let mut live = Vec::new();
        for i in 2..8 {
            if rng.chance(0.6) {
                live.push(t.start_transmission(i, PowerW(rng.range_f64(1e-5, 1e-2)), None));
            }
            if rng.chance(0.3) {
                if let Some(id) = live.pop() {
                    t.end_transmission(id);
                }
            }
        }
        let current = t.current_sinr(rx);
        let rep = t.complete_reception(rx);
        assert!(rep.min_sinr <= current * (1.0 + 1e-12));
        for id in live {
            t.end_transmission(id);
        }
        t.end_transmission(tx);
    });
}

#[test]
fn tracker_matches_a_from_scratch_oracle() {
    // Random TX starts and ends, reception begins and completions, and
    // one-station moves in exact mode on both backends. After every step
    // the oracle recomputes each live reception's SINR from the active
    // set and keeps the running minimum the tracker must report.
    const THERMAL: f64 = 1e-9;
    const SELF_GAIN: f64 = 1e12;
    cases(64, "tracker_oracle", |_, rng| {
        let pts = Placement::UniformDisk {
            n: 20,
            radius: 100.0,
        }
        .generate(rng);
        let seed = rng.next_u64();
        let dense = GainMatrix::build_shared(&pts, Arc::new(FreeSpace::unit()));
        let grid = GridGainModel::new(&pts, Box::new(FreeSpace::unit()));
        for gm in [Arc::new(dense) as Arc<dyn GainModel>, Arc::new(grid)] {
            let mut rng = Rng::new(seed);
            let mut t = SinrTracker::new(Arc::clone(&gm), PowerW(THERMAL), SELF_GAIN);
            // (handle, station, power) per live transmission.
            let mut txs: Vec<(TxId, usize, f64)> = Vec::new();
            // (handle, receiver, source, threshold, oracle minimum) per
            // live reception.
            let mut rxs: Vec<(RxId, usize, TxId, f64, f64)> = Vec::new();
            let oracle_sinr = |txs: &[(TxId, usize, f64)], rx: usize, src: TxId| {
                let (mut signal, mut noise) = (0.0, THERMAL);
                for &(id, s, p) in txs {
                    let received = if s == rx {
                        p * SELF_GAIN
                    } else {
                        gm.gain(rx, s).value() * p
                    };
                    if id == src {
                        signal = received;
                    } else {
                        noise += received;
                    }
                }
                signal / noise
            };
            let check = |rep: ReceptionReport, threshold: f64, min: f64| {
                assert!(
                    (rep.min_sinr - min).abs() <= 1e-9 * min,
                    "min_sinr {} vs oracle {min}",
                    rep.min_sinr
                );
                if (min - threshold).abs() > 1e-9 * threshold {
                    assert_eq!(rep.success, min >= threshold, "oracle min {min}");
                }
            };
            for _ in 0..300 {
                match rng.below(5) {
                    0 => {
                        let s = rng.below(20) as usize;
                        let p = rng.range_f64(1e-3, 1e-2);
                        txs.push((t.start_transmission(s, PowerW(p), None), s, p));
                    }
                    1 => {
                        let idle: Vec<usize> = (0..txs.len())
                            .filter(|&k| rxs.iter().all(|r| r.2 != txs[k].0))
                            .collect();
                        if !idle.is_empty() {
                            let k = idle[rng.below(idle.len() as u64) as usize];
                            t.end_transmission(txs.swap_remove(k).0);
                        }
                    }
                    2 if !txs.is_empty() => {
                        let (src, s, _) = txs[rng.below(txs.len() as u64) as usize];
                        let rx = (s + 1 + rng.below(19) as usize) % 20;
                        let threshold = 10f64.powf(rng.range_f64(-2.0, 1.0));
                        let id = t.begin_reception(rx, src, threshold);
                        rxs.push((id, rx, src, threshold, f64::INFINITY));
                    }
                    3 if !rxs.is_empty() => {
                        let k = rng.below(rxs.len() as u64) as usize;
                        let (id, _, _, threshold, min) = rxs.swap_remove(k);
                        check(t.complete_reception(id), threshold, min);
                    }
                    4 => {
                        let s = rng.below(20) as usize;
                        t.begin_moves(&[s]);
                        let to =
                            Point::new(rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0));
                        gm.relocate(s, to);
                        t.finish_moves();
                    }
                    _ => {}
                }
                for r in rxs.iter_mut() {
                    r.4 = r.4.min(oracle_sinr(&txs, r.1, r.2));
                }
            }
            for (id, _, _, threshold, min) in rxs {
                check(t.complete_reception(id), threshold, min);
            }
        }
    });
}

#[test]
fn gain_matrix_symmetric_and_positive() {
    cases(64, "gm_symmetric", |_, rng| {
        let n = 2 + (rng.below(28) as usize);
        let pts = Placement::UniformDisk { n, radius: 200.0 }.generate(rng);
        let gm = GainMatrix::build(&pts, &FreeSpace::unit());
        for i in 0..n {
            assert_eq!(gm.gain(i, i).value(), 0.0);
            for j in 0..n {
                if i != j {
                    assert!(gm.gain(i, j).value() > 0.0);
                    assert_eq!(gm.gain(i, j), gm.gain(j, i));
                }
            }
        }
    });
}

#[test]
fn uniform_disk_points_stay_inside() {
    cases(256, "disk_bounds", |_, rng| {
        let n = 1 + (rng.below(99) as usize);
        let r = rng.range_f64(1.0, 1e4);
        let pts = Placement::UniformDisk { n, radius: r }.generate(rng);
        assert_eq!(pts.len(), n);
        for p in pts {
            assert!(p.distance(Point::ORIGIN) <= r * (1.0 + 1e-12));
        }
    });
}
