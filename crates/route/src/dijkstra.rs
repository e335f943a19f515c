//! Centralized minimum-energy shortest paths (Dijkstra).
//!
//! The reference the distance-vector exchange in [`dv`](crate::dv) — the
//! distributed Bellman–Ford of §6.2, ref \[3] — is validated against.
//! Costs are non-negative energies, so Dijkstra applies directly.
//!
//! [`dijkstra`] solves a whole graph from one source with an indexed
//! heap. A [`RouteTable::centralized`](crate::RouteTable::centralized)
//! table holds one crate-internal search per source row instead, which
//! settles stations in the same order but only as far as the row's reads
//! reach, and resumes on the next read; a routing-neighbour query runs one
//! until the source's link targets have settled.

use crate::graph::EnergyGraph;
use parn_phys::StationId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// The heap key of `node` at distance `dist`: smaller distance first,
/// lower id on ties. The key is one integer, the distance's bits above the
/// id: distances are sums of non-negative costs from `+0.0`, so never
/// negative, NaN or `-0.0`, and the bits of non-negative floats order like
/// the floats.
fn key(dist: f64, node: u32) -> u128 {
    debug_assert!(dist.is_sign_positive(), "negative distance {dist}");
    (u128::from(dist.to_bits()) << 32) | u128::from(node)
}

/// A set of station ids, one bit each.
#[derive(Clone, Debug, Default)]
pub(crate) struct StationSet(Vec<u64>);

impl StationSet {
    /// The empty set over `n` stations, keeping the buffer.
    pub(crate) fn clear(&mut self, n: usize) {
        self.0.clear();
        self.0.resize(n.div_ceil(64), 0);
    }

    pub(crate) fn contains(&self, v: StationId) -> bool {
        self.0[v / 64] >> (v % 64) & 1 == 1
    }

    /// Add `v`; false when it was already in.
    pub(crate) fn insert(&mut self, v: StationId) -> bool {
        let word = &mut self.0[v / 64];
        let bit = 1 << (v % 64);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// A single-source search that settles stations only as far as its reads
/// reach, and resumes from its frontier on the next read.
///
/// It settles in [`dijkstra`]'s order, by `(distance, id)` with strict
/// (`<`) relaxation, so a station it has settled has the distance and
/// first hop a whole run gives it. The first hop toward each station is
/// carried along when an edge is relaxed, so it is known the moment the
/// station settles. The frontier is a binary heap with lazy deletion: a
/// cheaper route pushes a second key, which pops before the first, and a
/// key popped for a settled station is skipped. Settledness is a mark of
/// its own, not read off the heap top: a zero-cost link to a lower id
/// pushes a key below the last one popped.
#[derive(Clone, Debug, Default)]
pub(crate) struct Search {
    source: u32,
    /// First hops ([`NO_HOP`] for the source and stations not reached).
    hop: Vec<u32>,
    dist: Vec<f64>,
    settled: StationSet,
    frontier: BinaryHeap<Reverse<u128>>,
}

impl Search {
    /// Start over from `source` in a graph of `n` stations, keeping the
    /// buffers.
    pub(crate) fn start(&mut self, n: usize, source: StationId) {
        assert!(n < NO_HOP as usize, "station ids must fit a u32 hop");
        self.source = source as u32;
        self.hop.clear();
        self.hop.resize(n, NO_HOP);
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.settled.clear(n);
        self.frontier.clear();
        self.dist[source] = 0.0;
        self.frontier.push(Reverse(key(0.0, self.source)));
    }

    /// Whether `dst`'s entry is final: it has settled, or the search has
    /// settled every station it reaches.
    pub(crate) fn knows(&self, dst: StationId) -> bool {
        self.frontier.is_empty() || self.settled.contains(dst)
    }

    /// Settle stations until `dst` has settled or none is left to settle,
    /// and return how many settled. A search that runs out frees its
    /// frontier.
    pub(crate) fn settle_to(&mut self, graph: &EnergyGraph, dst: StationId) -> u64 {
        let mut settles = 0;
        while !self.settled.contains(dst) {
            let Some(Reverse(top)) = self.frontier.pop() else {
                break;
            };
            let node = top as u32;
            if !self.settled.insert(node as usize) {
                continue;
            }
            settles += 1;
            let d = self.dist[node as usize];
            let via = (node != self.source).then(|| self.hop[node as usize]);
            for &(next, cost) in graph.neighbors(node as usize) {
                let nd = d + cost;
                // Costs are non-negative, so a settled station is never
                // improved.
                if nd < self.dist[next] {
                    self.dist[next] = nd;
                    self.hop[next] = via.unwrap_or(next as u32);
                    self.frontier.push(Reverse(key(nd, next as u32)));
                }
            }
        }
        if self.frontier.is_empty() {
            self.frontier = BinaryHeap::new();
        }
        settles
    }

    /// The first hop toward `dst` ([`NO_HOP`] for none); final once the
    /// search [`knows`](Search::knows) `dst`.
    pub(crate) fn hop(&self, dst: StationId) -> u32 {
        self.hop[dst]
    }

    /// The route cost to `dst`; final once the search
    /// [`knows`](Search::knows) `dst`.
    pub(crate) fn dist(&self, dst: StationId) -> f64 {
        self.dist[dst]
    }

    /// How many stations have settled.
    #[cfg(test)]
    pub(crate) fn settled(&self) -> usize {
        self.settled.len()
    }
}

/// The whole-graph Dijkstra behind [`dijkstra`], independent of
/// [`Search`]: the reference the searches are checked against.
///
/// The frontier is an indexed binary min-heap on the same `(dist, id)`
/// keys, so a station sits in it at most once and a cheaper route is a
/// decrease-key.
struct Solver {
    dist: Vec<f64>,
    first: Vec<u32>,
    prev: Vec<u32>,
    /// Binary heap of [`key`]s.
    heap: Vec<u128>,
    /// Index of each queued station in `heap` (stale for the others).
    pos: Vec<u32>,
}

impl Solver {
    /// Solve `graph` from `source`.
    fn run(graph: &EnergyGraph, source: StationId) -> Solver {
        let n = graph.len();
        assert!(n < NO_HOP as usize, "station ids must fit a u32 hop");
        let mut s = Solver {
            dist: vec![f64::INFINITY; n],
            first: vec![NO_HOP; n],
            prev: vec![NO_HOP; n],
            heap: Vec::new(),
            pos: vec![0; n],
        };
        s.dist[source] = 0.0;
        s.push(0.0, source as u32);
        while let Some(node) = s.pop() {
            let node = node as usize;
            let d = s.dist[node];
            let via = (node != source).then(|| s.first[node]);
            for &(next, cost) in graph.neighbors(node) {
                let nd = d + cost;
                let old = s.dist[next];
                if nd < old {
                    // Costs are non-negative, so a settled station is
                    // never improved: `next` is new or still queued.
                    s.dist[next] = nd;
                    s.prev[next] = node as u32;
                    s.first[next] = via.unwrap_or(next as u32);
                    if old == f64::INFINITY {
                        s.push(nd, next as u32);
                    } else {
                        let i = s.pos[next] as usize;
                        s.heap[i] = key(nd, next as u32);
                        s.sift_up(i);
                    }
                }
            }
        }
        s
    }

    fn place(&mut self, i: usize, key: u128) {
        self.heap[i] = key;
        self.pos[key as u32 as usize] = i as u32;
    }

    fn push(&mut self, dist: f64, node: u32) {
        self.heap.push(key(dist, node));
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
    let solver = Solver::run(graph, source);
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
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist, [0.0, 1.0, 1.5, 2.0]);
        assert_eq!(sp.first, [None, Some(1), Some(2), Some(2)]);
        assert_eq!(sp.path_to(3), Some(vec![0, 2, 3]));
    }

    /// A search from `src` over `g`, with every station settled.
    fn settled_search(g: &EnergyGraph, src: StationId) -> Search {
        let mut s = Search::default();
        s.start(g.len(), src);
        for v in 0..g.len() {
            s.settle_to(g, v);
        }
        s
    }

    #[test]
    fn a_paused_search_resumes_where_it_stopped() {
        // A line 0 - 1 - 2 - 3 - 4: reading 1 settles 0 and 1 only, and
        // reading 3 then settles 2 and 3 without starting over.
        let edges: Vec<_> = (0..4)
            .flat_map(|i| [(i, i + 1, 1.0), (i + 1, i, 1.0)])
            .collect();
        let g = EnergyGraph::from_edges(5, &edges);
        let mut s = Search::default();
        s.start(5, 0);
        assert_eq!(s.settle_to(&g, 1), 2);
        assert!(s.knows(1) && !s.knows(2));
        assert_eq!((s.hop(1), s.dist(1)), (1, 1.0));
        assert_eq!(s.settle_to(&g, 3), 2);
        assert_eq!((s.hop(3), s.dist(3)), (1, 3.0));
        assert_eq!(s.settle_to(&g, 3), 0, "a settled station costs nothing");
        assert_eq!(s.settled(), 4);
    }

    #[test]
    fn settledness_is_marked_not_read_off_the_heap() {
        // 0 → 2 costs 1 and 2 → 1 costs 0: station 1 is pushed at (1, 1)
        // after (1, 2) popped, below the last key popped. Reading 2 must
        // not count 1 as settled, and reading 1 then finds it at cost 1
        // through 2.
        let g = EnergyGraph::from_edges(3, &[(0, 2, 1.0), (2, 1, 0.0)]);
        let mut s = Search::default();
        s.start(3, 0);
        s.settle_to(&g, 2);
        assert!(!s.knows(1));
        assert_eq!(s.settle_to(&g, 1), 1);
        assert_eq!((s.hop(1), s.dist(1)), (2, 1.0));
    }

    #[test]
    fn a_search_that_runs_out_knows_the_unreachable() {
        // 0 → 1, and an infinite-cost link 1 → 2 that never reaches 2.
        let g = EnergyGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, f64::INFINITY)]);
        let mut s = Search::default();
        s.start(3, 0);
        assert_eq!(s.settle_to(&g, 2), 2);
        assert!(s.knows(2));
        assert_eq!((s.hop(2), s.dist(2)), (NO_HOP, f64::INFINITY));
    }

    #[test]
    fn restarted_searches_match_dijkstra() {
        let g = diamond();
        let mut s = Search::default();
        for src in [2, 0, 1, 0] {
            // Read far stations first, so reads pause and resume.
            s.start(3, src);
            for dst in [2, 0, 1] {
                s.settle_to(&g, dst);
            }
            let fresh = dijkstra(&g, src);
            let whole = settled_search(&g, src);
            for dst in 0..3 {
                assert_eq!(s.dist(dst).to_bits(), fresh.dist[dst].to_bits());
                assert_eq!(decode_hop(s.hop(dst)), fresh.first[dst]);
                assert_eq!(whole.dist(dst).to_bits(), fresh.dist[dst].to_bits());
            }
        }
    }

    #[test]
    fn station_sets_hold_what_was_inserted() {
        let mut set = StationSet::default();
        set.clear(130);
        assert!(set.insert(0) && set.insert(64) && set.insert(129));
        assert!(!set.insert(64), "already in");
        assert!(set.contains(129) && !set.contains(128));
        assert_eq!(set.len(), 3);
        set.clear(130);
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn hop_codes_round_trip() {
        for h in [None, Some(0), Some(7), Some(u32::MAX as usize - 1)] {
            assert_eq!(decode_hop(encode_hop(h)), h);
        }
    }
}
