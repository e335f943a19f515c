//! Property-based tests of minimum-energy routing: the distance-vector
//! exchange always lands on Dijkstra's route costs, whatever the delivery
//! order, and heals to the survivor optimum when a station dies; route
//! costs obey metric sanity, tables are internally consistent, and the
//! centralized table, whose rows are searches over the undominated links
//! that settle only as far as their reads reach, matches an independent
//! reference Dijkstra over every link bit for bit, in any read order,
//! after a rebuild re-solves it and after one reuses it: on masked,
//! unsorted, tied, float-boundary and infinite-cost graphs too. Its
//! reachable sets, found without costing routes, are the reference's
//! finite entries, and its routing neighbours, found without reading a
//! row, are the reference's distinct first hops.

use parn::phys::placement::Placement;
use parn::phys::propagation::FreeSpace;
use parn::phys::{Gain, GainMatrix};
use parn::route::{dijkstra, DvCluster, EnergyGraph, RouteTable};
use parn::sim::{Duration, Rng, Time};
use parn::testkit::cases;

fn random_graph(seed: u64, n: usize, p_edge: f64) -> EnergyGraph {
    let mut rng = Rng::new(seed);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.chance(p_edge) {
                let c = rng.range_f64(0.1, 100.0);
                edges.push((a, b, c));
                edges.push((b, a, c));
            }
        }
    }
    EnergyGraph::from_edges(n, &edges)
}

/// Usable hops out to 2/sqrt(rho) = 20 m at `geometric_graph`'s density:
/// ~12 neighbours, the sparse graphs the simulator routes on.
const USABLE: Gain = Gain(1.0 / (20.0 * 20.0));

fn geometric_graph(seed: u64, n: usize) -> (EnergyGraph, GainMatrix) {
    let mut rng = Rng::new(seed);
    let pts = Placement::UniformDisk {
        n,
        radius: (n as f64 / (std::f64::consts::PI * 0.01)).sqrt(),
    }
    .generate(&mut rng);
    let gm = GainMatrix::build(&pts, &FreeSpace::unit());
    let g = EnergyGraph::from_model(&gm, USABLE);
    (g, gm)
}

/// Cold-start `g`'s distance-vector exchange and deliver vectors in
/// `seed`-shuffled order until quiescent.
fn converge_async(g: &EnergyGraph, seed: u64) -> DvCluster {
    let mut cluster = DvCluster::new(g);
    cluster
        .converge_async(&mut Rng::new(seed), 50 * g.len())
        .expect("distance-vector exchange converges");
    cluster
}

#[test]
fn bellman_ford_matches_dijkstra() {
    cases(32, "bf_vs_dijkstra", |_, rng| {
        let seed = rng.below(10_000);
        let n = 3 + rng.below(22) as usize;
        let g = random_graph(seed, n, 0.3);
        let dv = converge_async(&g, seed ^ 0xABCD);
        for src in 0..n {
            let sp = dijkstra(&g, src);
            for dst in 0..n {
                let (a, b) = (sp.dist[dst], dv.state(src).cost(dst));
                if a.is_finite() {
                    assert!((a - b).abs() < 1e-9, "{src}->{dst}: {a} vs {b}");
                } else {
                    assert!(b.is_infinite());
                }
            }
        }
    });
}

#[test]
fn route_costs_obey_triangle_inequality() {
    cases(32, "triangle", |_, rng| {
        let (g, _) = geometric_graph(rng.below(10_000), 30);
        let t = RouteTable::centralized(&g);
        for a in 0..30 {
            for b in 0..30 {
                for c in [0usize, 7, 14, 21, 29] {
                    let (ab, ac, cb) = (t.cost(a, b), t.cost(a, c), t.cost(c, b));
                    if ac.is_finite() && cb.is_finite() {
                        assert!(ab <= ac + cb + 1e-9, "triangle violated {a}->{b} via {c}");
                    }
                }
            }
        }
    });
}

#[test]
fn table_is_internally_consistent() {
    cases(32, "consistent", |_, rng| {
        let seed = rng.below(10_000);
        let (g, _) = geometric_graph(seed, 25);
        let t = RouteTable::centralized(&g);
        assert!(t.check_consistency(&g).is_ok());
        let d = converge_async(&g, seed).to_table();
        assert!(d.check_consistency(&g).is_ok());
    });
}

#[test]
fn next_hops_are_usable_edges() {
    cases(32, "usable_hops", |_, rng| {
        let (g, gm) = geometric_graph(rng.below(10_000), 25);
        let t = RouteTable::centralized(&g);
        for s in 0..25 {
            for d in 0..25 {
                if let Some(h) = t.next_hop(s, d) {
                    assert!(g.edge_cost(s, h).is_some(), "{s}->{h} not a usable hop");
                    assert!(gm.gain(h, s).value() > 0.0);
                }
            }
        }
    });
}

#[test]
fn route_cost_monotone_along_path() {
    // Walking a route toward the destination strictly decreases the
    // remaining cost (the loop-freedom argument for hop-by-hop
    // forwarding).
    cases(32, "monotone_path", |_, rng| {
        let (g, _) = geometric_graph(rng.below(10_000), 25);
        let t = RouteTable::centralized(&g);
        for s in 0..25 {
            for d in 0..25 {
                if let Some(p) = t.path(s, d) {
                    for w in p.windows(2) {
                        assert!(
                            t.cost(w[1], d) < t.cost(w[0], d) + 1e-12
                                || (w[1] == d && t.cost(w[1], d) == 0.0)
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn activation_order_is_irrelevant() {
    cases(32, "order_free", |_, rng| {
        let g = random_graph(rng.below(5_000), 15, 0.35);
        let (a, b) = (converge_async(&g, 1), converge_async(&g, 2));
        for s in 0..15 {
            let (x, y) = (a.state(s), b.state(s));
            for d in 0..15 {
                assert_eq!(x.cost(d).to_bits(), y.cost(d).to_bits(), "{s}->{d}");
                assert_eq!(x.next_hop(d), y.next_hop(d), "{s}->{d}");
            }
        }
    });
}

/// A station dies: its neighbours fail every link to it (and it fails
/// every link of its own), poisoning the routes through it. After
/// reconvergence every survivor pair's cost matches a fresh centralized
/// table over the survivor graph, partitions included, no route transits
/// the dead station, and the dead station routes nowhere.
#[test]
fn station_loss_reconverges_to_survivor_optimum() {
    cases(16, "station_loss", |_, rng| {
        let n = 10 + rng.below(30) as usize;
        let (g, _) = geometric_graph(rng.below(10_000), n);
        let dead = rng.below(n as u64) as usize;
        let mut dv = converge_async(&g, rng.below(10_000));
        for &(nb, _) in g.neighbors(dead) {
            dv.state_mut(dead).fail_link(nb, Time::ZERO, Duration::ZERO);
        }
        for s in 0..n {
            if g.edge_cost(s, dead).is_some() {
                dv.state_mut(s).fail_link(dead, Time::ZERO, Duration::ZERO);
            }
        }
        dv.converge_sync(4 * n + 64)
            .expect("reconverges after a station loss");

        let mut survivor_edges = Vec::new();
        for a in (0..n).filter(|&a| a != dead) {
            for &(b, c) in g.neighbors(a) {
                if b != dead {
                    survivor_edges.push((a, b, c));
                }
            }
        }
        let fresh = RouteTable::centralized(&EnergyGraph::from_edges(n, &survivor_edges));
        let healed = dv.to_table();
        for s in (0..n).filter(|&s| s != dead) {
            for d in (0..n).filter(|&d| d != dead) {
                let (a, b) = (healed.cost(s, d), fresh.cost(s, d));
                if b.is_finite() {
                    assert!(
                        (a - b).abs() <= 1e-9 * b.max(1.0),
                        "dead {dead}: {s}->{d}: healed {a} vs fresh {b}"
                    );
                } else {
                    assert!(a.is_infinite(), "dead {dead}: {s}->{d} crosses a partition");
                }
                if let Some(p) = healed.path(s, d) {
                    assert!(!p.contains(&dead), "route {s}->{d} transits {dead}: {p:?}");
                }
            }
            assert!(
                healed.cost(dead, s).is_infinite(),
                "dead {dead} routes to {s}"
            );
        }
    });
}

/// Directed graph with small-integer costs (0–3), so equal-cost routes —
/// and with them the tie-breaking rules — are everywhere. Stations split
/// into `parts` blocks with no edge between blocks: disconnected
/// components.
fn tie_graph(rng: &mut Rng, n: usize, parts: usize, p_edge: f64) -> EnergyGraph {
    let mut edges = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b && a % parts == b % parts && rng.chance(p_edge) {
                edges.push((a, b, rng.below(4) as f64));
            }
        }
    }
    EnergyGraph::from_edges(n, &edges)
}

/// Independent reference: O(n²) array-scan Dijkstra. Each step settles
/// the unsettled station with the least `(dist, id)`, relaxes its edges
/// with strict `<`, and first hops are found afterwards by walking `prev`
/// back to the source.
fn reference_routes(g: &EnergyGraph, src: usize) -> (Vec<f64>, Vec<Option<usize>>) {
    let n = g.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut done = vec![false; n];
    dist[src] = 0.0;
    loop {
        let mut best: Option<usize> = None;
        for v in 0..n {
            if !done[v] && dist[v].is_finite() && best.is_none_or(|b| dist[v] < dist[b]) {
                best = Some(v);
            }
        }
        let Some(u) = best else { break };
        done[u] = true;
        for &(v, c) in g.neighbors(u) {
            if dist[u] + c < dist[v] {
                dist[v] = dist[u] + c;
                prev[v] = Some(u);
            }
        }
    }
    let first = (0..n)
        .map(|dst| {
            if dst == src || !dist[dst].is_finite() {
                return None;
            }
            let mut cur = dst;
            while prev[cur] != Some(src) {
                cur = prev[cur].expect("reachable station has a predecessor");
            }
            Some(cur)
        })
        .collect();
    (dist, first)
}

/// The sorted distinct hops of a reference first-hop row: the routing
/// neighbours.
fn distinct_hops(first: &[Option<usize>]) -> Vec<usize> {
    let mut hops: Vec<usize> = first.iter().flatten().copied().collect();
    hops.sort();
    hops.dedup();
    hops
}

/// A centralized table of `g` matches the reference in every entry,
/// every reachable set and every routing-neighbour set. The table starts
/// from `g`'s stations with no links, every reachable set and neighbour
/// set read, then a rebuild over `g` re-solves it and a second one reuses
/// it. After each, every `(src, dst)` pair is read in one `rng`-shuffled
/// order across all sources, so row searches pause mid-row and resume; a
/// reuse halfway through keeps the paused searches. Then reachable sets
/// and neighbour sets are read, sources in shuffled orders. `dijkstra`
/// matches the reference too.
fn assert_matches_reference(g: &EnergyGraph, label: &str, rng: &mut Rng) {
    let n = g.len();
    let reference: Vec<_> = (0..n).map(|src| reference_routes(g, src)).collect();
    let mut t = RouteTable::centralized(&EnergyGraph::from_edges(n, &[]));
    for src in 0..n {
        assert_eq!(t.reachable_from(src).count(), 0);
        assert!(t.routing_neighbors(src).is_empty());
    }
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|src| (0..n).map(move |dst| (src, dst)))
        .collect();
    for step in ["re-solved", "reused"] {
        t.rebuild_centralized(g.clone());
        rng.shuffle(&mut pairs);
        for (k, &(src, dst)) in pairs.iter().enumerate() {
            if k == pairs.len() / 2 {
                t.rebuild_centralized(g.clone());
            }
            let (dist, first) = &reference[src];
            assert_eq!(
                t.cost(src, dst).to_bits(),
                dist[dst].to_bits(),
                "{label}, {step}: cost {src}->{dst}"
            );
            assert_eq!(
                t.next_hop(src, dst),
                first[dst],
                "{label}, {step}: hop {src}->{dst}"
            );
        }
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for &src in &order {
            let finite: Vec<usize> = (0..n)
                .filter(|&d| d != src && reference[src].0[d].is_finite())
                .collect();
            assert_eq!(
                t.reachable_from(src).collect::<Vec<_>>(),
                finite,
                "{label}, {step}: reachable from {src}"
            );
        }
        rng.shuffle(&mut order);
        for &src in &order {
            assert_eq!(
                t.routing_neighbors(src),
                distinct_hops(&reference[src].1),
                "{label}, {step}: routing neighbours of {src}"
            );
        }
    }
    for (src, (dist, first)) in reference.iter().enumerate() {
        let sp = dijkstra(g, src);
        for dst in 0..n {
            assert_eq!(sp.dist[dst].to_bits(), dist[dst].to_bits());
            assert_eq!(sp.first_hop_to(dst), first[dst]);
        }
    }
}

/// On a fresh table too, whose routing neighbours are asked before any
/// row is read, on geometric graphs of up to 300 stations.
#[test]
fn routing_neighbors_are_the_reference_first_hops() {
    cases(6, "reference_neighbors", |case, rng| {
        let n = if case == 0 {
            300
        } else {
            20 + rng.below(100) as usize
        };
        let (g, _) = geometric_graph(rng.below(10_000), n);
        let t = RouteTable::centralized(&g);
        for src in 0..n {
            assert_eq!(
                t.routing_neighbors(src),
                distinct_hops(&reference_routes(&g, src).1),
                "geometric n={n}: routing neighbours of {src}"
            );
        }
    });
}

#[test]
fn centralized_matches_reference_dijkstra_with_ties() {
    cases(48, "reference_ties", |_, rng| {
        let n = 2 + rng.below(30) as usize;
        let parts = 1 + rng.below(3) as usize;
        let p_edge = rng.range_f64(0.05, 0.5);
        let g = tie_graph(rng, n, parts, p_edge);
        assert_matches_reference(&g, &format!("n={n} parts={parts}"), rng);
    });
}

/// A link of infinite cost never carries a route: strict `<` relaxation
/// never crosses it, so neither may reachability. One fixed graph whose
/// only way on is such a link, then tie graphs with some links made
/// infinite.
#[test]
fn centralized_matches_reference_dijkstra_over_infinite_cost_links() {
    let inf = f64::INFINITY;
    let g = EnergyGraph::from_edges(
        5,
        &[
            (0, 1, 1.0),
            (1, 2, inf),
            (2, 0, 1.0),
            (0, 3, inf),
            (3, 4, 0.0),
        ],
    );
    assert_matches_reference(&g, "infinite links", &mut Rng::new(2));
    let t = RouteTable::centralized(&g);
    assert_eq!(t.reachable_from(0).collect::<Vec<_>>(), vec![1]);
    assert_eq!(t.reachable_from(2).collect::<Vec<_>>(), vec![0, 1]);
    cases(24, "reference_infinite", |_, rng| {
        let n = 2 + rng.below(20) as usize;
        let p_edge = rng.range_f64(0.1, 0.4);
        let tied = tie_graph(rng, n, 1, p_edge);
        let mut edges = Vec::new();
        for a in 0..n {
            for &(b, c) in tied.neighbors(a) {
                edges.push((a, b, if rng.chance(0.3) { inf } else { c }));
            }
        }
        let g = EnergyGraph::from_edges(n, &edges);
        assert_matches_reference(&g, &format!("infinite links n={n}"), rng);
    });
}

#[test]
fn centralized_matches_reference_dijkstra_on_geometric_graphs() {
    cases(12, "reference_geometric", |_, rng| {
        let n = 20 + rng.below(100) as usize;
        let (g, _) = geometric_graph(rng.below(10_000), n);
        assert_matches_reference(&g, &format!("geometric n={n}"), rng);
    });
}

/// Route repair's graphs: a dead station neither sends nor receives, and
/// an evicted one may send but not receive, so some links are one-way.
#[test]
fn centralized_matches_reference_dijkstra_on_masked_graphs() {
    cases(16, "reference_masked", |_, rng| {
        let n = 10 + rng.below(60) as usize;
        let (_, gm) = geometric_graph(rng.below(10_000), n);
        let tx_ok: Vec<bool> = (0..n).map(|_| rng.chance(0.9)).collect();
        let rx_ok: Vec<bool> = tx_ok.iter().map(|&tx| tx && rng.chance(0.7)).collect();
        let g = EnergyGraph::from_model_masked(&gm, USABLE, &tx_ok, &rx_ok);
        assert_matches_reference(&g, &format!("masked n={n}"), rng);
    });
}

/// `from_edges` keeps links in the order given, so an adjacency list need
/// not be sorted by target, and it may hold parallel links. Costs are
/// squared distances, so most long links have a cheaper relay.
#[test]
fn centralized_matches_reference_dijkstra_on_unsorted_adjacency() {
    cases(24, "reference_unsorted", |_, rng| {
        let n = 5 + rng.below(40) as usize;
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.range_f64(0.0, 50.0), rng.range_f64(0.0, 50.0)))
            .collect();
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (0..n).filter(|&b| b != a) {
                let d2 = (pts[a].0 - pts[b].0).powi(2) + (pts[a].1 - pts[b].1).powi(2);
                if d2 < 400.0 {
                    edges.push((a, b, d2));
                    if rng.chance(0.1) {
                        edges.push((a, b, d2 * rng.range_f64(0.5, 2.0)));
                    }
                }
            }
        }
        rng.shuffle(&mut edges);
        let g = EnergyGraph::from_edges(n, &edges);
        assert_matches_reference(&g, &format!("unsorted n={n}"), rng);
    });
}

/// Detours that tie the direct link exactly (`c(u,w) + c(w,v) = c(u,v)`).
/// Ties settle by `(dist, id)`, so the strict `<` relaxation can keep the
/// direct link. With every cost zero, or a small multiple of the least
/// subnormal, the float margin is zero, and only a strict `<` in the
/// pruning rule keeps a tied direct link.
#[test]
fn centralized_matches_reference_dijkstra_when_detours_tie() {
    cases(48, "reference_exact_ties", |case, rng| {
        let unit = [1.0, 0.0, f64::from_bits(1)][case as usize % 3];
        let n = 3 + rng.below(20) as usize;
        let mut edges = Vec::new();
        for _ in 0..2 * n {
            let mut station = || rng.below(n as u64) as usize;
            let (u, w, v) = (station(), station(), station());
            if u == w || w == v || u == v {
                continue;
            }
            let (a, b) = (rng.below(3) as f64, rng.below(3) as f64);
            edges.push((u, w, a * unit));
            edges.push((w, v, b * unit));
            edges.push((u, v, (a + b) * unit));
        }
        rng.shuffle(&mut edges);
        let g = EnergyGraph::from_edges(n, &edges);
        assert_matches_reference(&g, &format!("ties n={n} unit={unit:e}"), rng);
    });
}

/// A detour cheaper in exact arithmetic but dearer in floats. Behind a
/// 2⁵³ + 2 link, where floats are 2 apart, the direct link 1 → 3 (2.6)
/// gives station 3 the distance 2⁵³ + 4, and the detour through 2
/// (1 + 1.5 = 2.5) gives 2⁵³ + 6: the pruning margin must keep the
/// direct link.
#[test]
fn centralized_keeps_a_direct_link_its_detour_beats_only_in_exact_arithmetic() {
    let big = 2f64.powi(53);
    let g = EnergyGraph::from_edges(
        4,
        &[(0, 1, big + 2.0), (1, 2, 1.0), (2, 3, 1.5), (1, 3, 2.6)],
    );
    assert_matches_reference(&g, "float boundary", &mut Rng::new(1));
    let t = RouteTable::centralized(&g);
    assert_eq!(t.cost(0, 3), big + 4.0);
    assert_eq!(t.path(1, 3), Some(vec![1, 2, 3]));
}

/// The same boundary at random: one link of about 2⁵³ into triangles
/// whose two-link detour beats the direct link by a tenth or two, where
/// float sums behind the large link round unlike exact ones.
#[test]
fn centralized_matches_reference_dijkstra_behind_a_large_link() {
    cases(32, "reference_large_link", |_, rng| {
        let n = 4 + rng.below(16) as usize;
        let mut edges = vec![(0, 1, 2f64.powi(53) + 2.0 * rng.below(8) as f64)];
        let mut station = || 1 + rng.below(n as u64 - 1) as usize;
        let picks: Vec<(usize, usize, usize)> = (0..2 * n)
            .map(|_| (station(), station(), station()))
            .collect();
        for (u, w, v) in picks {
            if u == w || w == v || u == v {
                continue;
            }
            let a = (1 + rng.below(20)) as f64 / 10.0;
            let b = (1 + rng.below(20)) as f64 / 10.0;
            let slack = (1 + rng.below(2)) as f64 / 10.0;
            edges.extend([(u, w, a), (w, v, b), (u, v, a + b + slack)]);
        }
        let g = EnergyGraph::from_edges(n, &edges);
        assert_matches_reference(&g, &format!("large link n={n}"), rng);
    });
}

/// `routing_neighbors` and `routing_dependent_counts` agree with a plain
/// per-destination `next_hop` scan.
fn assert_neighbor_views_match_scan(t: &RouteTable) {
    let n = t.len();
    let mut dependents = vec![0usize; n];
    for src in 0..n {
        let mut scan: Vec<usize> = (0..n).filter_map(|dst| t.next_hop(src, dst)).collect();
        scan.sort();
        scan.dedup();
        for &h in &scan {
            dependents[h] += 1;
        }
        assert_eq!(
            t.routing_neighbors(src),
            scan,
            "routing neighbours of {src}"
        );
    }
    assert_eq!(t.routing_dependent_counts(), dependents);
}

#[test]
fn dense_neighbor_views_match_next_hop_scan() {
    cases(24, "neighbor_views", |_, rng| {
        let n = 5 + rng.below(40) as usize;
        let (g, _) = geometric_graph(rng.below(10_000), n);
        assert_neighbor_views_match_scan(&RouteTable::centralized(&g));
        let mut cluster = DvCluster::new(&g);
        cluster
            .converge_sync(2 * n + 16)
            .expect("distance-vector exchange converges");
        assert_neighbor_views_match_scan(&cluster.to_table());
        let ties = tie_graph(rng, n, 2, 0.2);
        assert_neighbor_views_match_scan(&RouteTable::centralized(&ties));
    });
}
