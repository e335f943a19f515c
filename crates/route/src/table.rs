//! Network-wide routing tables.
//!
//! A [`RouteTable`] holds, for every (source, destination) pair, the next
//! hop and the total route energy — exactly the per-station state §6.2
//! prescribes ("each station need only remember the next hop for each
//! potential destination and the total energy along that route"),
//! assembled network-wide for the simulator.

use crate::bellman_ford::DistributedBellmanFord;
use crate::dijkstra::{decode_hop, encode_hop, Solver};
use crate::graph::EnergyGraph;
use parn_phys::{Point, StationId};
use parn_sim::Rng;

/// Immutable all-pairs next-hop table.
///
/// ```
/// use parn_route::{EnergyGraph, RouteTable};
/// // 0 -1- 1 -1- 2 with an expensive direct 0-2 edge: min-energy routing
/// // relays through 1.
/// let g = EnergyGraph::from_edges(3, &[
///     (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0),
///     (0, 2, 3.0), (2, 0, 3.0),
/// ]);
/// let t = RouteTable::centralized(&g);
/// assert_eq!(t.path(0, 2), Some(vec![0, 1, 2]));
/// assert_eq!(t.cost(0, 2), 2.0);
/// ```
#[derive(Clone, Debug)]
pub struct RouteTable {
    n: usize,
    repr: Repr,
}

/// Internal storage. `Dense` is the classic O(M²) all-pairs table: 12 B
/// per pair, a `u32` next hop ([`NO_HOP`](crate::dijkstra::NO_HOP) for
/// none) and an `f64` cost;
/// `OneHop` stores only the direct usable edges (O(E)) for workloads
/// whose destinations are always one hop away (`DestPolicy::Neighbors`
/// traffic at metro scale), where an all-pairs table would dwarf the
/// rest of the simulation's memory. `Greedy` is the other O(E) option
/// that still routes *multi-hop*: next hops are computed on demand by
/// strict-progress geographic forwarding over the stored adjacency plus
/// station positions.
#[derive(Clone, Debug)]
enum Repr {
    Dense {
        next_hop: Vec<u32>, // row-major [src][dst]
        cost: Vec<f64>,
    },
    OneHop {
        adj: Vec<Vec<(StationId, f64)>>,
    },
    Greedy {
        adj: Vec<Vec<(StationId, f64)>>,
        positions: Vec<Point>,
    },
}

impl RouteTable {
    /// Build centrally by running Dijkstra from every source: one solver,
    /// reused for all n runs, whose distance and first-hop buffers are
    /// copied straight into each row.
    pub fn centralized(graph: &EnergyGraph) -> RouteTable {
        let n = graph.len();
        let mut next_hop = Vec::with_capacity(n * n);
        let mut cost = Vec::with_capacity(n * n);
        let mut solver = Solver::default();
        for src in 0..n {
            solver.run(graph, src);
            next_hop.extend_from_slice(solver.first());
            cost.extend_from_slice(solver.dist());
        }
        RouteTable::from_dense(n, next_hop, cost)
    }

    /// Build by running the distributed asynchronous Bellman–Ford to
    /// convergence (the decentralized computation real stations would do).
    pub fn distributed(graph: &EnergyGraph, rng: &mut Rng) -> RouteTable {
        let n = graph.len();
        let mut bf = DistributedBellmanFord::new(graph.clone());
        bf.run_async(rng, 4 * n.max(16));
        let mut next_hop = Vec::with_capacity(n * n);
        let mut cost = Vec::with_capacity(n * n);
        for src in 0..n {
            let st = bf.node(src);
            next_hop.extend(st.next_hop.iter().map(|&h| encode_hop(h)));
            cost.extend_from_slice(&st.dist);
        }
        RouteTable::from_dense(n, next_hop, cost)
    }

    /// Assemble a dense table from row-major `[src][dst]` compact next
    /// hops ([`encode_hop`]) and route costs — the one constructor
    /// behind [`centralized`](RouteTable::centralized),
    /// [`distributed`](RouteTable::distributed) and
    /// [`DvCluster::to_table`](crate::dv::DvCluster::to_table).
    pub(crate) fn from_dense(n: usize, next_hop: Vec<u32>, cost: Vec<f64>) -> RouteTable {
        assert_eq!(next_hop.len(), n * n);
        assert_eq!(cost.len(), n * n);
        RouteTable {
            n,
            repr: Repr::Dense { next_hop, cost },
        }
    }

    /// Build a single-hop table: `next_hop(s, d)` is `Some(d)` exactly
    /// when the direct edge `s → d` is usable, and multi-hop destinations
    /// are unreachable. O(E) memory — the only all-pairs-free option, for
    /// metro-scale neighbour traffic.
    pub fn one_hop(graph: &EnergyGraph) -> RouteTable {
        let n = graph.len();
        let adj = (0..n).map(|s| graph.neighbors(s).to_vec()).collect();
        RouteTable {
            n,
            repr: Repr::OneHop { adj },
        }
    }

    /// Build a greedy geographic table: `next_hop(s, d)` is the usable
    /// neighbour of `s` strictly closer to `d`'s position than `s` is
    /// (nearest-to-destination, lower id on ties), computed on demand.
    /// O(E) memory like [`one_hop`](RouteTable::one_hop), but routes
    /// multi-hop — the only all-pairs-free option for far-destination
    /// traffic at metro scale. Greedy forwarding can dead-end at a local
    /// minimum (a station with no neighbour closer to the destination);
    /// such packets surface as `Unroutable` drops in the simulator, and
    /// the capacity envelope (E7) reports them rather than hiding them.
    pub fn greedy(graph: &EnergyGraph, positions: &[Point]) -> RouteTable {
        let n = graph.len();
        assert_eq!(positions.len(), n, "one position per station");
        let adj = (0..n).map(|s| graph.neighbors(s).to_vec()).collect();
        RouteTable {
            n,
            repr: Repr::Greedy {
                adj,
                positions: positions.to_vec(),
            },
        }
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Next hop from `src` toward `dst` (None when `src == dst` or
    /// unreachable): the forwarding decision for a packet, counted as
    /// `route.next_hop.lookups`. The table's own scans (reachability,
    /// paths, routing neighbours) read it without counting.
    pub fn next_hop(&self, src: StationId, dst: StationId) -> Option<StationId> {
        parn_sim::counter_inc!("route.next_hop.lookups");
        self.hop(src, dst)
    }

    /// [`next_hop`](RouteTable::next_hop) without the lookup counter.
    fn hop(&self, src: StationId, dst: StationId) -> Option<StationId> {
        match &self.repr {
            Repr::Dense { next_hop, .. } => decode_hop(next_hop[src * self.n + dst]),
            Repr::OneHop { adj } => {
                if src == dst {
                    None
                } else {
                    adj[src].iter().any(|&(t, _)| t == dst).then_some(dst)
                }
            }
            Repr::Greedy { adj, positions } => {
                if src == dst {
                    return None;
                }
                let here = positions[src].distance_sq(positions[dst]);
                let mut best: Option<(f64, StationId)> = None;
                for &(h, _) in &adj[src] {
                    if h == dst {
                        // Distance zero — nothing can beat the destination
                        // itself, so adjacent destinations always route
                        // direct (keeps Neighbors-style traffic exact).
                        return Some(dst);
                    }
                    let d2 = positions[h].distance_sq(positions[dst]);
                    if d2 < here {
                        let better = match best {
                            None => true,
                            Some((bd2, bh)) => d2 < bd2 || (d2 == bd2 && h < bh),
                        };
                        if better {
                            best = Some((d2, h));
                        }
                    }
                }
                best.map(|(_, h)| h)
            }
        }
    }

    /// Total route energy from `src` to `dst`.
    pub fn cost(&self, src: StationId, dst: StationId) -> f64 {
        match &self.repr {
            Repr::Dense { cost, .. } => cost[src * self.n + dst],
            Repr::OneHop { adj } => {
                if src == dst {
                    0.0
                } else {
                    adj[src]
                        .iter()
                        .find(|&&(t, _)| t == dst)
                        .map_or(f64::INFINITY, |&(_, c)| c)
                }
            }
            Repr::Greedy { adj, .. } => {
                // No stored cost: walk the greedy path and sum edge
                // energies. Strict progress bounds the walk; a dead end
                // is unreachable (∞), matching `next_hop`.
                if src == dst {
                    return 0.0;
                }
                let mut total = 0.0;
                let mut cur = src;
                let mut steps = 0usize;
                while cur != dst {
                    let Some(h) = self.hop(cur, dst) else {
                        return f64::INFINITY;
                    };
                    let Some(&(_, c)) = adj[cur].iter().find(|&&(t, _)| t == h) else {
                        return f64::INFINITY;
                    };
                    total += c;
                    cur = h;
                    steps += 1;
                    if steps > self.n {
                        return f64::INFINITY;
                    }
                }
                total
            }
        }
    }

    /// Whether `dst` is reachable from `src`.
    pub fn reachable(&self, src: StationId, dst: StationId) -> bool {
        src == dst || self.hop(src, dst).is_some()
    }

    /// Every destination `src` can route to, itself excluded, ascending
    /// (on a dense table, one uncounted scan of `src`'s row).
    pub fn reachable_from(&self, src: StationId) -> Vec<StationId> {
        (0..self.n)
            .filter(|&d| d != src && self.hop(src, d).is_some())
            .collect()
    }

    /// Whether every station can reach every other.
    pub fn fully_connected(&self) -> bool {
        (0..self.n).all(|s| (0..self.n).all(|d| self.reachable(s, d)))
    }

    /// The full hop-by-hop path, or None if unreachable/looping.
    pub fn path(&self, src: StationId, dst: StationId) -> Option<Vec<StationId>> {
        let mut p = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.hop(cur, dst)?;
            p.push(cur);
            if p.len() > self.n {
                return None;
            }
        }
        Some(p)
    }

    /// Hop count of the route (None when unreachable).
    pub fn hops(&self, src: StationId, dst: StationId) -> Option<usize> {
        self.path(src, dst).map(|p| p.len() - 1)
    }

    /// The distinct next-hop neighbours `src` actually uses — the paper's
    /// "routing neighbors", observed in its simulations never to exceed
    /// eight.
    pub fn routing_neighbors(&self, src: StationId) -> Vec<StationId> {
        match &self.repr {
            Repr::Dense { next_hop, .. } => {
                let mut v: Vec<StationId> = next_hop[src * self.n..(src + 1) * self.n]
                    .iter()
                    .filter_map(|&h| decode_hop(h))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            Repr::OneHop { adj } | Repr::Greedy { adj, .. } => {
                // For greedy this is the candidate set: every usable edge
                // can be the argmin for destinations clustered behind it.
                let mut v: Vec<StationId> = adj[src].iter().map(|&(t, _)| t).collect();
                v.sort();
                v.dedup();
                v
            }
        }
    }

    /// For every station `h`: how many *other* stations currently use `h`
    /// as a routing neighbour (their next hop toward at least one
    /// destination) — the dependents a failure of `h` would strand.
    ///
    /// One pass over the stored table (O(M²) on the dense repr, O(E) on
    /// one-hop), so experiment harnesses ranking relays by blast radius
    /// don't need a per-candidate [`routing_neighbors`]
    /// (O(M³)) scan — or a second `Network` build — to get the counts.
    ///
    /// [`routing_neighbors`]: RouteTable::routing_neighbors
    pub fn routing_dependent_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n];
        match &self.repr {
            Repr::Dense { next_hop, .. } => {
                let mut seen = vec![usize::MAX; self.n]; // last src using h
                for src in 0..self.n {
                    let row = &next_hop[src * self.n..(src + 1) * self.n];
                    for h in row.iter().filter_map(|&h| decode_hop(h)) {
                        if seen[h] != src {
                            seen[h] = src;
                            counts[h] += 1;
                        }
                    }
                }
            }
            Repr::OneHop { adj } | Repr::Greedy { adj, .. } => {
                let mut seen = vec![usize::MAX; self.n];
                for (src, out) in adj.iter().enumerate() {
                    for &(h, _) in out {
                        if seen[h] != src {
                            seen[h] = src;
                            counts[h] += 1;
                        }
                    }
                }
            }
        }
        counts
    }

    /// Maximum routing-neighbour count over all stations.
    pub fn max_routing_degree(&self) -> usize {
        (0..self.n)
            .map(|s| self.routing_neighbors(s).len())
            .max()
            .unwrap_or(0)
    }

    /// Verify hop-by-hop consistency: for every reachable pair, following
    /// next hops terminates and the accumulated edge costs equal the
    /// stored route cost (within tolerance). Returns the first violation.
    pub fn check_consistency(&self, graph: &EnergyGraph) -> Result<(), String> {
        for src in 0..self.n {
            for dst in 0..self.n {
                if !self.cost(src, dst).is_finite() {
                    continue;
                }
                let Some(p) = self.path(src, dst) else {
                    return Err(format!("route {src}->{dst} loops or dead-ends"));
                };
                let mut total = 0.0;
                for pair in p.windows(2) {
                    let Some(c) = graph.edge_cost(pair[0], pair[1]) else {
                        return Err(format!("route {src}->{dst} uses missing edge {pair:?}"));
                    };
                    total += c;
                }
                let stored = self.cost(src, dst);
                if (total - stored).abs() > 1e-6 * (1.0 + stored.abs()) {
                    return Err(format!(
                        "route {src}->{dst}: path cost {total} != stored {stored}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> EnergyGraph {
        EnergyGraph::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (0, 2, 3.0),
                (2, 0, 3.0),
            ],
        )
    }

    #[test]
    fn centralized_table_routes() {
        let t = RouteTable::centralized(&chain());
        assert_eq!(t.next_hop(0, 3), Some(1));
        assert_eq!(t.path(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(t.hops(0, 3), Some(3));
        assert_eq!(t.cost(0, 3), 3.0);
        assert!(t.fully_connected());
        assert!(t.check_consistency(&chain()).is_ok());
    }

    #[test]
    fn distributed_matches_centralized() {
        let g = chain();
        let c = RouteTable::centralized(&g);
        let d = RouteTable::distributed(&g, &mut Rng::new(3));
        for s in 0..4 {
            for t in 0..4 {
                assert!((c.cost(s, t) - d.cost(s, t)).abs() < 1e-9);
            }
        }
        assert!(d.check_consistency(&g).is_ok());
    }

    #[test]
    fn self_route() {
        let t = RouteTable::centralized(&chain());
        assert_eq!(t.next_hop(2, 2), None);
        assert_eq!(t.cost(2, 2), 0.0);
        assert_eq!(t.path(2, 2), Some(vec![2]));
        assert!(t.reachable(2, 2));
    }

    #[test]
    fn disconnected_detected() {
        let g = EnergyGraph::from_edges(3, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let t = RouteTable::centralized(&g);
        assert!(!t.fully_connected());
        assert!(!t.reachable(0, 2));
        assert_eq!(t.path(0, 2), None);
    }

    #[test]
    fn routing_neighbors_deduplicate() {
        let t = RouteTable::centralized(&chain());
        // Station 0 reaches everyone through station 1 only.
        assert_eq!(t.routing_neighbors(0), vec![1]);
        // Station 1 uses 0 and 2.
        assert_eq!(t.routing_neighbors(1), vec![0, 2]);
        assert_eq!(t.max_routing_degree(), 2);
    }

    #[test]
    fn dependent_counts_match_routing_neighbors_scan() {
        for t in [
            RouteTable::centralized(&chain()),
            RouteTable::one_hop(&chain()),
        ] {
            let counts = t.routing_dependent_counts();
            let mut expected = vec![0usize; t.len()];
            for src in 0..t.len() {
                for h in t.routing_neighbors(src) {
                    expected[h] += 1;
                }
            }
            assert_eq!(counts, expected);
        }
    }

    #[test]
    fn consistency_catches_corruption() {
        let g = chain();
        let t = RouteTable::centralized(&g);
        // A table built for `chain()` is inconsistent against a graph
        // missing the 1→2 edge every long route relies on...
        let missing = EnergyGraph::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (0, 2, 3.0),
                (2, 0, 3.0),
            ],
        );
        assert!(t.check_consistency(&missing).is_err());
        // ...and against one whose edge costs disagree with the stored
        // route energies.
        let repriced = EnergyGraph::from_edges(
            4,
            &[
                (0, 1, 9.0),
                (1, 0, 9.0),
                (1, 2, 9.0),
                (2, 1, 9.0),
                (2, 3, 9.0),
                (3, 2, 9.0),
                (0, 2, 9.0),
                (2, 0, 9.0),
            ],
        );
        assert!(t.check_consistency(&repriced).is_err());
    }

    #[test]
    fn one_hop_table_is_direct_edges_only() {
        let g = chain();
        let t = RouteTable::one_hop(&g);
        assert_eq!(t.next_hop(0, 1), Some(1));
        assert_eq!(t.next_hop(0, 2), Some(2), "direct 0-2 edge exists");
        assert_eq!(t.next_hop(0, 3), None, "multi-hop not represented");
        assert_eq!(t.next_hop(1, 1), None);
        assert_eq!(t.cost(0, 1), 1.0);
        assert_eq!(t.cost(0, 2), 3.0);
        assert_eq!(t.cost(0, 3), f64::INFINITY);
        assert_eq!(t.cost(2, 2), 0.0);
        assert_eq!(t.path(0, 2), Some(vec![0, 2]));
        assert!(t.reachable(0, 0));
        assert!(!t.reachable(0, 3));
        assert!(t.check_consistency(&g).is_ok());
    }

    /// Four stations on a line at x = 0, 10, 20, 30, edges between
    /// consecutive pairs plus a 0–2 shortcut (cost-irrelevant here —
    /// greedy steers by geometry, not energy).
    fn line() -> (EnergyGraph, Vec<Point>) {
        let g = chain();
        let positions = (0..4).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        (g, positions)
    }

    #[test]
    fn greedy_makes_strict_progress_to_multi_hop_destinations() {
        let (g, pos) = line();
        let t = RouteTable::greedy(&g, &pos);
        // From 0 toward 3: the 0–2 shortcut is geometrically closest.
        assert_eq!(t.next_hop(0, 3), Some(2));
        assert_eq!(t.path(0, 3), Some(vec![0, 2, 3]));
        assert_eq!(t.hops(0, 3), Some(2));
        // Adjacent destination routes direct even when a relay is nearer
        // the straight line.
        assert_eq!(t.next_hop(0, 2), Some(2));
        assert_eq!(t.next_hop(1, 1), None);
        // Cost is the summed edge energy of the walked path: 0-2 (3.0)
        // then 2-3 (1.0).
        assert_eq!(t.cost(0, 3), 4.0);
        assert_eq!(t.cost(2, 2), 0.0);
        assert!(t.fully_connected());
        assert!(t.check_consistency(&g).is_ok());
    }

    #[test]
    fn greedy_dead_end_is_unreachable() {
        // 0 at the origin wants to reach 2 far to the left, but its only
        // neighbour 1 sits to the *right* — no strict progress exists.
        let g = EnergyGraph::from_edges(3, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(-50.0, 0.0),
        ];
        let t = RouteTable::greedy(&g, &pos);
        assert_eq!(t.next_hop(0, 2), None);
        assert!(!t.reachable(0, 2));
        assert_eq!(t.cost(0, 2), f64::INFINITY);
        assert!(!t.fully_connected());
    }

    #[test]
    fn greedy_ties_break_toward_lower_id() {
        // 1 and 2 are mirror images across the 0→3 axis: equal progress.
        let g = EnergyGraph::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (1, 0, 1.0),
                (2, 0, 1.0),
                (3, 1, 1.0),
                (3, 2, 1.0),
            ],
        );
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 5.0),
            Point::new(10.0, -5.0),
            Point::new(20.0, 0.0),
        ];
        let t = RouteTable::greedy(&g, &pos);
        assert_eq!(t.next_hop(0, 3), Some(1));
        assert_eq!(t.path(0, 3), Some(vec![0, 1, 3]));
    }

    #[test]
    fn one_hop_routing_neighbors_match_graph_degree() {
        let g = chain();
        let t = RouteTable::one_hop(&g);
        assert_eq!(t.routing_neighbors(0), vec![1, 2]);
        assert_eq!(t.routing_neighbors(1), vec![0, 2]);
        assert_eq!(t.max_routing_degree(), 3, "station 2 reaches 0, 1, 3");
    }
}
