//! Geometric properties of minimum-energy routes (§6.2, Figure 3).
//!
//! With `1/r²` loss and power control, "minimum-energy routing will always
//! take the intermediate hop if it lies within the circle which has a
//! diameter with endpoints at Station A and Station C". The contrapositive
//! is checkable on any computed route: no station may sit strictly inside
//! the diameter-circle of a hop the route chose to take directly.

use crate::table::RouteTable;
use parn_phys::geom::Disk;
use parn_phys::Point;
use std::collections::HashSet;

/// Check the diameter-circle property for every hop of every route in the
/// table: returns the first violation `(src, dst, hop_from, hop_to,
/// violator)` if any station strictly beats the direct hop as a relay
/// (which would mean minimum-energy routing skipped a cheaper relay).
///
/// For `1/r²` loss without a near-field clamp this is exactly "no station
/// strictly inside the circle whose diameter is the hop"; `r_min` applies
/// the same near-field clamp the propagation model uses (energies saturate
/// below that distance), and `slack` is the relative margin by which a
/// violator must win, absorbing float noise.
///
/// Routes share their hops, so each distinct hop is checked once, where
/// the scan first meets it: a hop met again passed when first met.
pub fn find_skipped_relay(
    table: &RouteTable,
    positions: &[Point],
    r_min: f64,
    slack: f64,
) -> Option<(usize, usize, usize, usize, usize)> {
    let n = positions.len();
    let energy = |a: Point, b: Point| -> f64 {
        let d = a.distance(b).max(r_min);
        d * d
    };
    let mut checked = HashSet::new();
    for src in 0..n {
        for dst in 0..n {
            let Some(path) = table.path(src, dst) else {
                continue;
            };
            for hop in path.windows(2) {
                let (a, c) = (hop[0], hop[1]);
                if !checked.insert((a, c)) {
                    continue;
                }
                let direct = energy(positions[a], positions[c]);
                // Cheap pre-filter: a winning relay must lie inside the
                // diameter circle (clamping only ever *raises* relay cost).
                let disk = Disk::on_diameter(positions[a], positions[c]);
                for (b, &p) in positions.iter().enumerate() {
                    if b == a || b == c || !disk.contains(p) {
                        continue;
                    }
                    let via = energy(positions[a], p) + energy(p, positions[c]);
                    if via < direct * (1.0 - slack) {
                        return Some((src, dst, a, c, b));
                    }
                }
            }
        }
    }
    None
}

/// Energy of the direct single hop `src → dst` under `1/r²` loss with
/// power control (∝ squared distance).
pub fn direct_energy(positions: &[Point], src: usize, dst: usize) -> f64 {
    positions[src].distance_sq(positions[dst])
}

/// Energy of the routed path from the table (sum of squared hop
/// distances). `None` when unreachable.
pub fn route_energy(
    table: &RouteTable,
    positions: &[Point],
    src: usize,
    dst: usize,
) -> Option<f64> {
    let p = table.path(src, dst)?;
    Some(
        p.windows(2)
            .map(|h| positions[h[0]].distance_sq(positions[h[1]]))
            .sum(),
    )
}

/// Summary statistics of a route table's geometry.
#[derive(Clone, Debug, Default)]
pub struct RouteGeometry {
    /// Mean hops over all reachable ordered pairs.
    pub mean_hops: f64,
    /// Maximum hops.
    pub max_hops: usize,
    /// Mean ratio (direct energy) / (routed energy) over multi-hop pairs —
    /// ≥ 1 whenever relaying pays.
    pub mean_energy_saving: f64,
    /// Number of reachable ordered pairs.
    pub pairs: usize,
}

/// Compute [`RouteGeometry`] for a table over the given positions.
pub fn route_geometry(table: &RouteTable, positions: &[Point]) -> RouteGeometry {
    let n = positions.len();
    let mut hops_sum = 0usize;
    let mut max_hops = 0usize;
    let mut saving_sum = 0.0;
    let mut saving_n = 0usize;
    let mut pairs = 0usize;
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let Some(h) = table.hops(src, dst) else {
                continue;
            };
            pairs += 1;
            hops_sum += h;
            max_hops = max_hops.max(h);
            if h > 1 {
                let direct = direct_energy(positions, src, dst);
                if let Some(routed) = route_energy(table, positions, src, dst) {
                    if routed > 0.0 {
                        saving_sum += direct / routed;
                        saving_n += 1;
                    }
                }
            }
        }
    }
    RouteGeometry {
        mean_hops: if pairs > 0 {
            hops_sum as f64 / pairs as f64
        } else {
            0.0
        },
        max_hops,
        mean_energy_saving: if saving_n > 0 {
            saving_sum / saving_n as f64
        } else {
            1.0
        },
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EnergyGraph;
    use parn_phys::placement::Placement;
    use parn_phys::propagation::FreeSpace;
    use parn_phys::{Gain, GainMatrix};
    use parn_sim::Rng;

    fn scenario(n: usize, radius: f64, seed: u64) -> (Vec<Point>, RouteTable) {
        let pos = Placement::UniformDisk { n, radius }.generate(&mut Rng::new(seed));
        let gm = GainMatrix::build(&pos, &FreeSpace::unit());
        // Usable-link threshold: everything (dense graph) so min-energy
        // routing is free to choose any relay.
        let g = EnergyGraph::from_model(&gm, Gain(0.0));
        let t = RouteTable::centralized(&g);
        (pos, t)
    }

    #[test]
    fn no_skipped_relays_on_random_placements() {
        // The paper's circle property must hold on every computed route.
        for seed in [1, 2, 3] {
            let (pos, t) = scenario(40, 200.0, seed);
            assert_eq!(
                find_skipped_relay(&t, &pos, 1.0, 1e-9),
                None,
                "seed {seed} skipped a relay"
            );
        }
    }

    /// The scan `find_skipped_relay` replaced: every hop of every route
    /// against every station, however many routes share the hop.
    fn every_route_scan(
        table: &RouteTable,
        positions: &[Point],
        r_min: f64,
        slack: f64,
    ) -> Option<(usize, usize, usize, usize, usize)> {
        let energy = |a: Point, b: Point| -> f64 {
            let d = a.distance(b).max(r_min);
            d * d
        };
        for src in 0..positions.len() {
            for dst in 0..positions.len() {
                let Some(path) = table.path(src, dst) else {
                    continue;
                };
                for hop in path.windows(2) {
                    let (a, c) = (hop[0], hop[1]);
                    let direct = energy(positions[a], positions[c]);
                    let disk = Disk::on_diameter(positions[a], positions[c]);
                    for (b, &p) in positions.iter().enumerate() {
                        if b == a || b == c || !disk.contains(p) {
                            continue;
                        }
                        let via = energy(positions[a], p) + energy(p, positions[c]);
                        if via < direct * (1.0 - slack) {
                            return Some((src, dst, a, c, b));
                        }
                    }
                }
            }
        }
        None
    }

    #[test]
    fn each_hop_once_finds_what_every_route_finds() {
        let mut rng = Rng::new(5);
        for seed in 0..12 {
            // Sparse usable links, as F3 draws them, for multi-hop routes.
            let n = 50;
            let pos = Placement::UniformDisk { n, radius: 150.0 }.generate(&mut Rng::new(seed));
            let gm = GainMatrix::build(&pos, &FreeSpace::unit());
            let usable = Gain(1.0 / 60.0f64.powi(2));
            let t = RouteTable::centralized(&EnergyGraph::from_model(&gm, usable));
            assert_eq!(find_skipped_relay(&t, &pos, 1.0, 1e-9), None, "seed {seed}");
            assert_eq!(every_route_scan(&t, &pos, 1.0, 1e-9), None, "seed {seed}");
            // Plant a violator: a station the routes leave out, moved to
            // the middle of a random hop they take. The scan meets that
            // hop after it has met many others more than once.
            let v = rng.below(n as u64) as usize;
            let mut live = vec![true; n];
            live[v] = false;
            let t =
                RouteTable::centralized(&EnergyGraph::from_model_masked(&gm, usable, &live, &live));
            let hops: Vec<(usize, usize)> = (0..n)
                .flat_map(|s| t.routing_neighbors(s).into_iter().map(move |nb| (s, nb)))
                .collect();
            let (a, c) = *rng.choose(&hops);
            let mut moved = pos.clone();
            moved[v] = Point::new((pos[a].x + pos[c].x) / 2.0, (pos[a].y + pos[c].y) / 2.0);
            let found = find_skipped_relay(&t, &moved, 1.0, 1e-9);
            assert!(
                found.is_some(),
                "seed {seed}: the planted violator went unseen"
            );
            assert_eq!(
                found,
                every_route_scan(&t, &moved, 1.0, 1e-9),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn relaying_saves_energy_on_average() {
        let (pos, t) = scenario(60, 300.0, 11);
        let geom = route_geometry(&t, &pos);
        assert!(geom.pairs > 0);
        assert!(
            geom.mean_energy_saving >= 1.0,
            "saving {}",
            geom.mean_energy_saving
        );
        assert!(geom.mean_hops > 1.0, "routes should be multi-hop");
    }

    #[test]
    fn direct_vs_route_energy() {
        // Collinear chain 0-1-2 at 10 m spacing.
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
        ];
        let gm = GainMatrix::build(&pos, &FreeSpace::unit());
        let g = EnergyGraph::from_model(&gm, Gain(0.0));
        let t = RouteTable::centralized(&g);
        // Direct 0->2: 400. Routed via 1: 100 + 100 = 200 (halved, as the
        // paper's centered-relay example says).
        assert_eq!(direct_energy(&pos, 0, 2), 400.0);
        assert_eq!(route_energy(&t, &pos, 0, 2), Some(200.0));
        assert_eq!(t.hops(0, 2), Some(2));
    }

    #[test]
    fn route_geometry_of_trivial_pair() {
        let pos = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let gm = GainMatrix::build(&pos, &FreeSpace::unit());
        let g = EnergyGraph::from_model(&gm, Gain(0.0));
        let t = RouteTable::centralized(&g);
        let geom = route_geometry(&t, &pos);
        assert_eq!(geom.pairs, 2);
        assert_eq!(geom.max_hops, 1);
        assert_eq!(geom.mean_energy_saving, 1.0);
    }
}
