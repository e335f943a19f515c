//! The energy-cost graph derived from the propagation matrix.
//!
//! §6.2: "stations ... will be able to observe the path gains between
//! themselves and construct entries in the propagation matrix H for the
//! hops that are usable. ... The common algorithms for computing min-cost
//! paths can be used to find the least-cost paths in the propagation
//! matrix H, where the costs are the reciprocal of the path gains" —
//! i.e. the cost of a hop is proportional to the transmit *energy* needed
//! to deliver a fixed received power over it.

use parn_phys::{Gain, GainModel, StationId};

/// A directed graph whose edge weights are hop energies (`1/gain`).
#[derive(Clone, Debug)]
pub struct EnergyGraph {
    n: usize,
    adj: Vec<Vec<(StationId, f64)>>,
}

impl EnergyGraph {
    /// Build through the [`GainModel`] trait, keeping only hops whose
    /// power gain is at least `usable_gain` (hops below that cannot
    /// sustain the design rate over the din and are not "usable" links).
    /// For spatially indexed backends the per-receiver
    /// [`GainModel::hearable_by`] query is range-bounded, so construction
    /// is O(M·deg) instead of O(M²); every backend yields the same edges
    /// in the same order (ascending receiver within each adjacency list)
    /// with the same float costs. It is
    /// [`from_model_masked`](EnergyGraph::from_model_masked) with nothing
    /// masked.
    pub fn from_model(gains: &dyn GainModel, usable_gain: Gain) -> EnergyGraph {
        let all = vec![true; gains.len()];
        EnergyGraph::from_model_masked(gains, usable_gain, &all, &all)
    }

    /// Like [`from_model`](EnergyGraph::from_model), with *independent*
    /// transmit and receive eligibility masks: the edge `i → j` exists
    /// when `tx_ok[i]`, `rx_ok[j]`, and the hop is usable. Route repair
    /// clears both masks for dead stations, and routes *around* evicted
    /// stations (`rx_ok` false — no traffic is forwarded to them) while
    /// still letting them originate and forward their own queued traffic
    /// (`tx_ok` true).
    pub fn from_model_masked(
        gains: &dyn GainModel,
        usable_gain: Gain,
        tx_ok: &[bool],
        rx_ok: &[bool],
    ) -> EnergyGraph {
        let n = gains.len();
        assert_eq!(tx_ok.len(), n, "tx mask size mismatch");
        assert_eq!(rx_ok.len(), n, "rx mask size mismatch");
        let mut adj = vec![Vec::new(); n];
        // Iterating receivers in ascending order and appending to each
        // transmitter's list keeps every adjacency list sorted by
        // receiver.
        for (j, _) in rx_ok.iter().enumerate().filter(|&(_, &ok)| ok) {
            for i in gains.hearable_by(j, usable_gain) {
                if !tx_ok[i] {
                    continue;
                }
                let g = gains.gain(j, i);
                if g.value() > 0.0 {
                    adj[i].push((j, g.energy_cost()));
                }
            }
        }
        EnergyGraph { n, adj }
    }

    /// Build from an explicit edge list `(from, to, cost)`.
    pub fn from_edges(n: usize, edges: &[(StationId, StationId, f64)]) -> EnergyGraph {
        let mut adj = vec![Vec::new(); n];
        for &(a, b, c) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            assert!(c >= 0.0, "negative cost");
            adj[a].push((b, c));
        }
        EnergyGraph { n, adj }
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no stations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Outgoing usable hops from `s`.
    pub fn neighbors(&self, s: StationId) -> &[(StationId, f64)] {
        &self.adj[s]
    }

    /// Cost of the direct hop `a → b`, if usable.
    pub fn edge_cost(&self, a: StationId, b: StationId) -> Option<f64> {
        self.adj[a].iter().find(|&&(t, _)| t == b).map(|&(_, c)| c)
    }

    /// Whether `other` has the same stations and the same links, in the
    /// same order, with the same cost bits.
    pub(crate) fn same_links(&self, other: &EnergyGraph) -> bool {
        self.n == other.n
            && self.adj.iter().zip(&other.adj).all(|(a, b)| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(&(s, x), &(t, y))| s == t && x.to_bits() == y.to_bits())
            })
    }

    /// This graph minus every *dominated* link: `u → v` goes when some
    /// station `w` with links `u → w` and `w → v` gives
    /// `c(u,w) + c(w,v) < c(u,v) − 8ε·(C + c(u,v))`, where `C` is the sum
    /// of all link costs (a bound on any route cost). §6.2's diameter
    /// circle is the geometric case: a relay inside it always wins.
    ///
    /// Dijkstra over the result settles the same stations in the same
    /// `(dist, id)` order with the same distance bits and first hops as
    /// over the full graph. A dominated link's relaxation lands strictly
    /// above the float distance its detour delivers, and the detour's
    /// middle station settles first, so that relaxation never sets a
    /// final distance or first hop and never reaches the top of the heap.
    /// The margin covers float rounding, which can make the detour
    /// costlier than the direct link although it is cheaper in exact
    /// arithmetic. An equal-cost detour is kept: the strict `<`
    /// relaxation can pick the direct link in a tie.
    pub(crate) fn undominated(&self) -> EnergyGraph {
        let total: f64 = self.adj.iter().flatten().map(|&(_, c)| c).sum();
        let margin = 8.0 * f64::EPSILON;
        // Per source `u`: the cheapest two-link detour to each `v`, reset
        // before the next `u`.
        let mut detour = vec![f64::INFINITY; self.n];
        let adj = self
            .adj
            .iter()
            .map(|out| {
                for &(w, a) in out {
                    for &(v, b) in &self.adj[w] {
                        detour[v] = detour[v].min(a + b);
                    }
                }
                // An infinite cost makes the threshold -∞ or NaN: nothing
                // is pruned.
                let dominated = |v: StationId, c: f64| detour[v] < c - margin * (total + c);
                let kept: Vec<(StationId, f64)> = out
                    .iter()
                    .copied()
                    .filter(|&(v, c)| !dominated(v, c))
                    .collect();
                for &(w, _) in out {
                    for &(v, _) in &self.adj[w] {
                        detour[v] = f64::INFINITY;
                    }
                }
                kept
            })
            .collect();
        EnergyGraph { n: self.n, adj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parn_phys::placement::{characteristic_length, Placement};
    use parn_phys::propagation::FreeSpace;
    use parn_phys::{GainMatrix, GridGainModel, Point};
    use parn_sim::Rng;

    /// Total number of directed usable hops.
    fn edges(g: &EnergyGraph) -> usize {
        (0..g.len()).map(|s| g.neighbors(s).len()).sum()
    }

    fn line_gains() -> GainMatrix {
        // 0 --10m-- 1 --10m-- 2 : gains 0.01 adjacent, 0.0025 end-to-end.
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
        ];
        GainMatrix::build(&pos, &FreeSpace::unit())
    }

    #[test]
    fn costs_are_reciprocal_gains() {
        let g = EnergyGraph::from_model(&line_gains(), Gain(1e-6));
        assert!((g.edge_cost(0, 1).unwrap() - 100.0).abs() < 1e-9);
        assert!((g.edge_cost(0, 2).unwrap() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_prunes_weak_links() {
        let g = EnergyGraph::from_model(&line_gains(), Gain(0.005));
        assert!(g.edge_cost(0, 1).is_some());
        assert!(g.edge_cost(0, 2).is_none(), "end-to-end link pruned");
        assert_eq!(g.neighbors(1).len(), 2);
        assert_eq!(g.neighbors(0).len(), 1);
        assert_eq!(edges(&g), 4);
    }

    #[test]
    fn symmetric_gains_give_symmetric_costs() {
        let g = EnergyGraph::from_model(&line_gains(), Gain(1e-6));
        assert_eq!(g.edge_cost(0, 2), g.edge_cost(2, 0));
    }

    #[test]
    fn from_edges_explicit() {
        let g = EnergyGraph::from_edges(3, &[(0, 1, 5.0), (1, 2, 7.0)]);
        assert_eq!(g.edge_cost(0, 1), Some(5.0));
        assert_eq!(g.edge_cost(1, 0), None, "directed");
        assert_eq!(g.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        EnergyGraph::from_edges(2, &[(0, 5, 1.0)]);
    }

    #[test]
    fn equal_masks_exclude_dead_stations() {
        let gm = line_gains();
        let alive = [true, false, true];
        let g = EnergyGraph::from_model_masked(&gm, Gain(1e-6), &alive, &alive);
        assert!(g.edge_cost(0, 1).is_none(), "dead target kept");
        assert!(g.edge_cost(1, 0).is_none(), "dead source kept");
        assert!(g.edge_cost(0, 2).is_some(), "live link dropped");
        assert!(g.neighbors(1).is_empty());
    }

    #[test]
    fn all_true_masks_equal_unmasked() {
        let gm = line_gains();
        let a = EnergyGraph::from_model(&gm, Gain(0.005));
        let b = EnergyGraph::from_model_masked(&gm, Gain(0.005), &[true; 3], &[true; 3]);
        for i in 0..3 {
            assert_eq!(a.neighbors(i), b.neighbors(i));
        }
    }

    #[test]
    #[should_panic(expected = "tx mask size mismatch")]
    fn masked_checks_tx_mask_len() {
        EnergyGraph::from_model_masked(&line_gains(), Gain(1e-6), &[true], &[true; 3]);
    }

    #[test]
    #[should_panic(expected = "rx mask size mismatch")]
    fn masked_checks_rx_mask_len() {
        EnergyGraph::from_model_masked(&line_gains(), Gain(1e-6), &[true; 3], &[true]);
    }

    #[test]
    fn from_model_matches_dense_scan_on_every_backend() {
        let pts = Placement::UniformDisk {
            n: 80,
            radius: 400.0,
        }
        .generate(&mut Rng::new(13));
        let gm = GainMatrix::build(&pts, &FreeSpace::unit());
        let grid = GridGainModel::new(&pts, Box::new(FreeSpace::unit()));
        let usable = Gain(1.0 / (200.0 * 200.0));
        // Reference: every transmitter scans every receiver in ascending
        // order and keeps the usable hops.
        let n = gm.len();
        let reference: Vec<Vec<(StationId, f64)>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i && gm.gain(j, i) >= usable && gm.gain(j, i).value() > 0.0)
                    .map(|j| (j, gm.gain(j, i).energy_cost()))
                    .collect()
            })
            .collect();
        for model in [&gm as &dyn GainModel, &grid] {
            let g = EnergyGraph::from_model(model, usable);
            assert_eq!(g.len(), n);
            for (s, want) in reference.iter().enumerate() {
                assert_eq!(g.neighbors(s), &want[..], "station {s}");
            }
        }
    }

    #[test]
    fn masked_separates_tx_and_rx_eligibility() {
        let gm = line_gains();
        // Station 1 may transmit but not receive (evicted from routing
        // views while still flushing its own queue).
        let g = EnergyGraph::from_model_masked(
            &gm,
            Gain(1e-6),
            &[true, true, true],
            &[true, false, true],
        );
        assert!(g.edge_cost(0, 1).is_none(), "edge into evicted rx kept");
        assert!(g.edge_cost(1, 0).is_some(), "evicted station lost tx");
        assert!(g.edge_cost(1, 2).is_some());
    }

    #[test]
    fn undominated_drops_links_a_relay_beats_and_keeps_ties() {
        // 0→2 (400) against the relay 0→1→2 (200) goes; the one-hop
        // links stay.
        let g = EnergyGraph::from_model(&line_gains(), Gain(1e-6)).undominated();
        assert_eq!(g.edge_cost(0, 2), None);
        assert_eq!(g.edge_cost(2, 0), None);
        assert_eq!(edges(&g), 4);
        // A detour that only ties the direct link keeps it.
        let tie = EnergyGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)]);
        assert_eq!(edges(&tie.undominated()), 3);
    }

    #[test]
    fn same_links_compares_targets_order_and_cost_bits() {
        let g = EnergyGraph::from_edges(3, &[(0, 1, 1.0), (0, 2, 2.0)]);
        assert!(g.same_links(&g.clone()));
        let reordered = EnergyGraph::from_edges(3, &[(0, 2, 2.0), (0, 1, 1.0)]);
        assert!(!g.same_links(&reordered));
        let nudged = EnergyGraph::from_edges(
            3,
            &[(0, 1, 1.0), (0, 2, f64::from_bits(2.0f64.to_bits() + 1))],
        );
        assert!(!g.same_links(&nudged));
        let bigger = EnergyGraph::from_edges(4, &[(0, 1, 1.0), (0, 2, 2.0)]);
        assert!(!g.same_links(&bigger));
    }

    #[test]
    fn expected_neighbors_at_characteristic_distances() {
        // §6: within 1/√ρ expect π ≈ 3 others; within 2/√ρ expect 4π ≈ 12.
        let n = 2000;
        let radius = 1000.0;
        let rho = n as f64 / (std::f64::consts::PI * radius * radius);
        let pos = Placement::UniformDisk { n, radius }.generate(&mut Rng::new(42));
        let gm = GainMatrix::build(&pos, &FreeSpace::unit());
        let l = characteristic_length(rho);
        let mean_degree = |reach: f64| {
            let g = EnergyGraph::from_model(&gm, Gain(1.0 / (reach * reach)));
            edges(&g) as f64 / n as f64
        };
        let (near, far) = (mean_degree(l), mean_degree(2.0 * l));
        // Edge stations see fewer, so means sit slightly below π and 4π.
        assert!((2.0..=3.5).contains(&near), "near mean {near}");
        assert!((9.0..=13.0).contains(&far), "far mean {far}");
        assert!(far > 3.0 * near, "quadrupling range ~4x degree");
    }
}
