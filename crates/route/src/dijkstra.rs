//! Centralized minimum-energy shortest paths (Dijkstra).
//!
//! The reference the distance-vector exchange in [`dv`](crate::dv) — the
//! distributed Bellman–Ford of §6.2, ref \[3] — is validated against.
//! Costs are non-negative energies, so Dijkstra applies directly.
//!
//! One crate-internal solver does all the work: [`dijkstra`] runs it
//! once, and a [`RouteTable::centralized`](crate::RouteTable::centralized)
//! table reuses one solver for every row it solves, copying its distance
//! and first-hop buffers straight into the row, and for every routing
//! neighbour set, which needs only the settles up to the source's last
//! link target.

use crate::graph::EnergyGraph;
use parn_phys::StationId;

/// Next-hop code for "no hop" (the source itself, or unreachable) in the
/// compact `u32` hop arrays.
pub(crate) const NO_HOP: u32 = u32::MAX;

/// Decode a compact hop.
pub(crate) fn decode_hop(h: u32) -> Option<StationId> {
    (h != NO_HOP).then_some(h as StationId)
}

/// Encode a hop into its compact form.
pub(crate) fn encode_hop(h: Option<StationId>) -> u32 {
    h.map_or(NO_HOP, |h| {
        u32::try_from(h)
            .ok()
            .filter(|&c| c != NO_HOP)
            .expect("station id does not fit a u32 hop")
    })
}

/// Result of a single-source run: distance, predecessor and first-hop
/// arrays.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// Source station.
    pub source: StationId,
    /// Minimum energy from the source to each station (∞ if unreachable).
    pub dist: Vec<f64>,
    /// Predecessor of each station on its min-energy path from the source.
    pub prev: Vec<Option<StationId>>,
    /// First hop from the source toward each station (None for the source
    /// itself and for unreachable stations).
    pub first: Vec<Option<StationId>>,
}

impl ShortestPaths {
    /// Whether `dst` is reachable from the source.
    pub fn reachable(&self, dst: StationId) -> bool {
        self.dist[dst].is_finite()
    }

    /// The full path source → … → `dst`, or `None` if unreachable.
    pub fn path_to(&self, dst: StationId) -> Option<Vec<StationId>> {
        if !self.reachable(dst) {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while let Some(p) = self.prev[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }

    /// The *first hop* on the path to `dst` (None when `dst` is the source
    /// or unreachable).
    pub fn first_hop_to(&self, dst: StationId) -> Option<StationId> {
        self.first[dst]
    }
}

/// A reusable single-source Dijkstra solver.
///
/// The frontier is an indexed binary min-heap keyed on `(dist, id)`, so a
/// station sits in it at most once and a cheaper route is a decrease-key.
/// The key is one integer, the distance's bits above the id: costs are
/// non-negative, and the bits of non-negative floats order like the
/// floats. Relaxation is strict (`<`) and equal distances settle the
/// lower id first, so the settle order — and with it every tie between
/// equal-cost routes — is fixed by the graph alone. The first hop toward
/// each station is carried along when an edge is relaxed, so it is known
/// the moment a station settles, without walking predecessors back.
///
/// The buffers are sized on the first run and reused by later ones.
#[derive(Clone, Debug, Default)]
pub(crate) struct Solver {
    dist: Vec<f64>,
    first: Vec<u32>,
    prev: Vec<u32>,
    /// Binary heap of [`key`](Solver::key)s.
    heap: Vec<u128>,
    /// Index of each queued station in `heap` (stale for the others).
    pos: Vec<u32>,
    /// The source's link targets a [`run_to_links`](Solver::run_to_links)
    /// still waits on.
    waiting: Vec<bool>,
}

impl Solver {
    /// Solve from `source`; the results stay readable until the next run.
    pub(crate) fn run(&mut self, graph: &EnergyGraph, source: StationId) {
        self.solve(graph, source, false);
    }

    /// Solve from `source` only until every target of its links has
    /// settled. A settled station's distance and first hop are final, so
    /// this is enough to tell which link targets are the source's
    /// children in its shortest-path tree (`first[v] == v`). The other
    /// results are partial.
    pub(crate) fn run_to_links(&mut self, graph: &EnergyGraph, source: StationId) {
        self.solve(graph, source, true);
    }

    fn solve(&mut self, graph: &EnergyGraph, source: StationId, to_links: bool) {
        let n = graph.len();
        assert!(n < NO_HOP as usize, "station ids must fit a u32 hop");
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.first.clear();
        self.first.resize(n, NO_HOP);
        self.prev.clear();
        self.prev.resize(n, NO_HOP);
        self.pos.resize(n, 0);
        self.waiting.resize(n, false);
        self.heap.clear();
        let mut waits = 0usize;
        if to_links {
            for &(v, _) in graph.neighbors(source) {
                waits += usize::from(!std::mem::replace(&mut self.waiting[v], true));
            }
        }
        self.dist[source] = 0.0;
        self.push(0.0, source as u32);
        while let Some(node) = self.pop() {
            let node = node as usize;
            if to_links && std::mem::take(&mut self.waiting[node]) {
                waits -= 1;
                if waits == 0 {
                    break;
                }
            }
            let d = self.dist[node];
            let via = if node == source {
                None
            } else {
                Some(self.first[node])
            };
            for &(next, cost) in graph.neighbors(node) {
                let nd = d + cost;
                let old = self.dist[next];
                if nd < old {
                    // Costs are non-negative, so a settled station is
                    // never improved: `next` is new or still queued.
                    self.dist[next] = nd;
                    self.prev[next] = node as u32;
                    self.first[next] = via.unwrap_or(next as u32);
                    if old == f64::INFINITY {
                        self.push(nd, next as u32);
                    } else {
                        let i = self.pos[next] as usize;
                        self.heap[i] = Self::key(nd, next as u32);
                        self.sift_up(i);
                    }
                }
            }
        }
        if to_links {
            // A link of infinite cost never reaches its target.
            for &(v, _) in graph.neighbors(source) {
                self.waiting[v] = false;
            }
        }
    }

    /// Distances from the last run's source.
    pub(crate) fn dist(&self) -> &[f64] {
        &self.dist
    }

    /// First hops ([`NO_HOP`] for the source and unreachable stations).
    pub(crate) fn first(&self) -> &[u32] {
        &self.first
    }

    /// The heap key of `node` at distance `dist`: smaller distance first,
    /// lower id on ties. Distances are sums of non-negative costs from
    /// `+0.0`, so never negative, NaN or `-0.0`.
    fn key(dist: f64, node: u32) -> u128 {
        debug_assert!(dist.is_sign_positive(), "negative distance {dist}");
        (u128::from(dist.to_bits()) << 32) | u128::from(node)
    }

    fn place(&mut self, i: usize, key: u128) {
        self.heap[i] = key;
        self.pos[key as u32 as usize] = i as u32;
    }

    fn push(&mut self, dist: f64, node: u32) {
        self.heap.push(Self::key(dist, node));
        self.sift_up(self.heap.len() - 1);
    }

    fn pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()? as u32;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.place(0, last);
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if key >= p {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        let len = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            let c = self.heap[child];
            if c >= key {
                break;
            }
            self.place(i, c);
            i = child;
        }
        self.place(i, key);
    }
}

/// Single-source Dijkstra over the energy graph.
pub fn dijkstra(graph: &EnergyGraph, source: StationId) -> ShortestPaths {
    let mut solver = Solver::default();
    solver.run(graph, source);
    ShortestPaths {
        source,
        prev: solver.prev.iter().map(|&h| decode_hop(h)).collect(),
        first: solver.first.iter().map(|&h| decode_hop(h)).collect(),
        dist: solver.dist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -1- 1 -1- 2, plus a direct 0-2 edge of cost 3: two hops win.
    fn diamond() -> EnergyGraph {
        EnergyGraph::from_edges(
            3,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (0, 2, 3.0),
                (2, 0, 3.0),
            ],
        )
    }

    #[test]
    fn prefers_cheaper_two_hop() {
        let sp = dijkstra(&diamond(), 0);
        assert_eq!(sp.dist[2], 2.0);
        assert_eq!(sp.path_to(2), Some(vec![0, 1, 2]));
        assert_eq!(sp.first_hop_to(2), Some(1));
    }

    #[test]
    fn direct_when_cheaper() {
        let g = EnergyGraph::from_edges(3, &[(0, 1, 5.0), (1, 2, 5.0), (0, 2, 3.0)]);
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.path_to(2), Some(vec![0, 2]));
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = EnergyGraph::from_edges(3, &[(0, 1, 1.0)]);
        let sp = dijkstra(&g, 0);
        assert!(!sp.reachable(2));
        assert_eq!(sp.path_to(2), None);
        assert_eq!(sp.first_hop_to(2), None);
    }

    #[test]
    fn source_is_trivial() {
        let sp = dijkstra(&diamond(), 1);
        assert_eq!(sp.dist[1], 0.0);
        assert_eq!(sp.path_to(1), Some(vec![1]));
        assert_eq!(sp.first_hop_to(1), None);
    }

    #[test]
    fn optimal_substructure() {
        // §6.2: "a minimum-energy route from A to C that goes through B
        // will use the same route from B to C as any other route through
        // B" — suffixes of optimal paths are optimal.
        let g = EnergyGraph::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (0, 2, 3.0),
                (1, 3, 3.0),
                (2, 4, 3.0),
            ],
        );
        let from0 = dijkstra(&g, 0);
        let p = from0.path_to(4).unwrap();
        for (k, &mid) in p.iter().enumerate() {
            let from_mid = dijkstra(&g, mid);
            assert_eq!(
                from_mid.path_to(4).unwrap(),
                p[k..].to_vec(),
                "suffix from {mid} diverges"
            );
        }
    }

    #[test]
    fn equal_costs_settle_the_lower_id_first() {
        // 0→1 and 0→2 both cost 1, and both reach 3 at total 2. Station 1
        // settles first and claims 3; 2's equal offer is not strictly
        // better, so the lower-id relay wins the tie.
        let g = EnergyGraph::from_edges(4, &[(0, 2, 1.0), (0, 1, 1.0), (2, 3, 1.0), (1, 3, 1.0)]);
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.path_to(3), Some(vec![0, 1, 3]));
        assert_eq!(sp.first_hop_to(3), Some(1));
    }

    #[test]
    fn first_hops_agree_with_paths() {
        let sp = dijkstra(&diamond(), 2);
        for dst in 0..3 {
            let via_path = sp.path_to(dst).and_then(|p| p.get(1).copied());
            assert_eq!(sp.first_hop_to(dst), via_path, "dst {dst}");
        }
    }

    #[test]
    fn decrease_key_reorders_a_queued_station() {
        // Station 3 is queued at 10, then lowered to 3 and to 2 while
        // queued; it settles at 2 with the first hop of the last offer.
        let g = EnergyGraph::from_edges(
            4,
            &[
                (0, 3, 10.0),
                (0, 1, 1.0),
                (0, 2, 1.5),
                (1, 3, 2.0),
                (2, 3, 0.5),
            ],
        );
        let mut s = Solver::default();
        s.run(&g, 0);
        assert_eq!(s.dist(), &[0.0, 1.0, 1.5, 2.0]);
        assert_eq!(s.first(), &[NO_HOP, 1, 2, 2]);
    }

    #[test]
    fn solver_reuse_matches_fresh_runs() {
        let mut s = Solver::default();
        let g = diamond();
        for src in [2, 0, 1, 0] {
            s.run(&g, src);
            let fresh = dijkstra(&g, src);
            assert_eq!(s.dist(), &fresh.dist[..]);
            let first: Vec<Option<StationId>> = s.first().iter().map(|&h| decode_hop(h)).collect();
            assert_eq!(first, fresh.first);
        }
    }

    #[test]
    fn hop_codes_round_trip() {
        for h in [None, Some(0), Some(7), Some(u32::MAX as usize - 1)] {
            assert_eq!(decode_hop(encode_hop(h)), h);
        }
    }
}
