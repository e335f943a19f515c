//! Property-based tests of minimum-energy routing: the distributed
//! computation always lands on Dijkstra's fixed point, route costs obey
//! metric sanity, tables are internally consistent, and the centralized
//! table matches an independent reference Dijkstra bit for bit.

use parn::phys::placement::Placement;
use parn::phys::propagation::FreeSpace;
use parn::phys::{Gain, GainMatrix};
use parn::route::{dijkstra, DistributedBellmanFord, DvCluster, EnergyGraph, RouteTable};
use parn::sim::Rng;
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

fn geometric_graph(seed: u64, n: usize) -> (EnergyGraph, GainMatrix) {
    let mut rng = Rng::new(seed);
    let pts = Placement::UniformDisk {
        n,
        radius: (n as f64 / (std::f64::consts::PI * 0.01)).sqrt(),
    }
    .generate(&mut rng);
    let gm = GainMatrix::build(&pts, &FreeSpace::unit());
    // Usable hops out to 2/sqrt(rho) = 20 m at this density: ~12
    // neighbours, the sparse graphs the simulator routes on.
    let g = EnergyGraph::from_gains(&gm, Gain(1.0 / (20.0f64 * 20.0)));
    (g, gm)
}

#[test]
fn bellman_ford_matches_dijkstra() {
    cases(32, "bf_vs_dijkstra", |_, rng| {
        let seed = rng.below(10_000);
        let n = 3 + rng.below(22) as usize;
        let g = random_graph(seed, n, 0.3);
        let mut bf = DistributedBellmanFord::new(g.clone());
        bf.run_async(&mut Rng::new(seed ^ 0xABCD), 50 * n);
        for src in 0..n {
            let sp = dijkstra(&g, src);
            for dst in 0..n {
                let (a, b) = (sp.dist[dst], bf.node(src).dist[dst]);
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
        let mut rng2 = Rng::new(seed);
        let d = RouteTable::distributed(&g, &mut rng2);
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
        let mut a = DistributedBellmanFord::new(g.clone());
        let mut b = DistributedBellmanFord::new(g);
        a.run_async(&mut Rng::new(1), 500);
        b.run_async(&mut Rng::new(2), 500);
        for s in 0..15 {
            assert_eq!(&a.node(s).dist, &b.node(s).dist);
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

fn assert_matches_reference(g: &EnergyGraph, label: &str) {
    let t = RouteTable::centralized(g);
    for src in 0..g.len() {
        let (dist, first) = reference_routes(g, src);
        let sp = dijkstra(g, src);
        for dst in 0..g.len() {
            assert_eq!(
                t.cost(src, dst).to_bits(),
                dist[dst].to_bits(),
                "{label}: cost {src}->{dst}"
            );
            assert_eq!(
                t.next_hop(src, dst),
                first[dst],
                "{label}: hop {src}->{dst}"
            );
            assert_eq!(sp.dist[dst].to_bits(), dist[dst].to_bits());
            assert_eq!(sp.first_hop_to(dst), first[dst]);
        }
    }
}

#[test]
fn centralized_matches_reference_dijkstra_with_ties() {
    cases(48, "reference_ties", |_, rng| {
        let n = 2 + rng.below(30) as usize;
        let parts = 1 + rng.below(3) as usize;
        let p_edge = rng.range_f64(0.05, 0.5);
        let g = tie_graph(rng, n, parts, p_edge);
        assert_matches_reference(&g, &format!("n={n} parts={parts}"));
    });
}

#[test]
fn centralized_matches_reference_dijkstra_on_geometric_graphs() {
    cases(12, "reference_geometric", |_, rng| {
        let n = 20 + rng.below(100) as usize;
        let (g, _) = geometric_graph(rng.below(10_000), n);
        assert_matches_reference(&g, &format!("geometric n={n}"));
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
