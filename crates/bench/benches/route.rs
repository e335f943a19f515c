//! Micro-benchmarks for minimum-energy routing: single-source Dijkstra,
//! a centralized table read whole and read one entry per row, and the
//! cold-start distance-vector exchange that real stations would run.

use parn_bench::harness;
use parn_phys::placement::Placement;
use parn_phys::propagation::FreeSpace;
use parn_phys::{Gain, GainMatrix};
use parn_route::{dijkstra, DvCluster, EnergyGraph, RouteTable};
use parn_sim::Rng;

fn graph(n: usize) -> EnergyGraph {
    let pts = Placement::UniformDisk {
        n,
        radius: (n as f64 / (std::f64::consts::PI * 0.01)).sqrt(),
    }
    .generate(&mut Rng::new(3));
    let gm = GainMatrix::build(&pts, &FreeSpace::unit());
    // Usable hops out to 2/sqrt(rho) = 20 m at this density (~12
    // neighbours, as in the simulator).
    EnergyGraph::from_model(&gm, Gain(1.0 / (20.0f64 * 20.0)))
}

fn main() {
    let mut h = harness("route");

    let mut group = h.group("dijkstra_single_source");
    for &n in &[100usize, 300, 1000] {
        let g = graph(n);
        group.bench(n, || dijkstra(&g, 0));
    }

    // Every entry read: each row search runs to the end, a full table.
    let mut group = h.group("route_table_centralized");
    for &n in &[100usize, 300, 500, 1000] {
        let g = graph(n);
        group.bench(n, || {
            let t = RouteTable::centralized(&g);
            (0..n)
                .flat_map(|s| (0..n).map(move |d| (s, d)))
                .map(|(s, d)| t.cost(s, d))
                .filter(|c| c.is_finite())
                .sum::<f64>()
        });
    }

    // One seeded random destination per row, a relay's pattern: each row
    // search stops once that destination has settled.
    let mut group = h.group("route_table_one_per_row");
    for &n in &[100usize, 300, 500, 1000] {
        let g = graph(n);
        let mut rng = Rng::new(7);
        let dsts: Vec<usize> = (0..n).map(|_| rng.below(n as u64) as usize).collect();
        group.bench(n, || {
            let t = RouteTable::centralized(&g);
            dsts.iter()
                .enumerate()
                .filter_map(|(s, &d)| t.next_hop(s, d))
                .count()
        });
    }

    // The same cold start `Network::new` runs in distributed mode.
    let mut group = h.group("dv_converge");
    for &n in &[50usize, 100] {
        let g = graph(n);
        group.bench(n, || DvCluster::new(&g).converge_sync(2 * n + 16));
    }
}
