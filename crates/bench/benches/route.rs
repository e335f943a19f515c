//! Micro-benchmarks for minimum-energy routing: single-source Dijkstra,
//! all-pairs table construction, and the distributed Bellman–Ford
//! convergence that real stations would run.

use parn_bench::harness;
use parn_phys::placement::Placement;
use parn_phys::propagation::FreeSpace;
use parn_phys::{Gain, GainMatrix};
use parn_route::{dijkstra, DistributedBellmanFord, EnergyGraph, RouteTable};
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
    EnergyGraph::from_gains(&gm, Gain(1.0 / (20.0f64 * 20.0)))
}

fn main() {
    let mut h = harness("route");

    let mut group = h.group("dijkstra_single_source");
    for &n in &[100usize, 300, 1000] {
        let g = graph(n);
        group.bench(n, || dijkstra(&g, 0));
    }

    let mut group = h.group("route_table_centralized");
    for &n in &[100usize, 300, 500, 1000] {
        let g = graph(n);
        group.bench(n, || RouteTable::centralized(&g));
    }

    let mut group = h.group("bellman_ford_converge");
    for &n in &[50usize, 100] {
        let g = graph(n);
        group.bench(n, || {
            let mut bf = DistributedBellmanFord::new(g.clone());
            bf.run_async(&mut Rng::new(9), 10 * n)
        });
    }
}
