//! Figure 3 / §6.2 — minimum-energy routing geometry.
//!
//! Checks on random uniform-disk placements (100 and 1000 stations):
//!
//! 1. the diameter-circle property: no computed route ever takes a hop
//!    directly when a relay strictly inside the hop's diameter circle
//!    exists;
//! 2. relaying saves energy vs direct transmission (a centered relay
//!    halves it);
//! 3. the paper's observation that "the number of routing neighbors never
//!    exceeded eight";
//! 4. centralized Dijkstra and the distributed asynchronous Bellman–Ford
//!    (the per-station distance-vector exchange) agree on route costs.

use parn_bench::report::{artifact_dir, Reporter};
use parn_phys::placement::{density, Placement};
use parn_phys::propagation::FreeSpace;
use parn_phys::{Gain, GainMatrix};
use parn_route::relay::{find_skipped_relay, route_geometry};
use parn_route::{DvCluster, EnergyGraph, RouteTable};
use parn_sim::json::obj;
use parn_sim::Rng;

fn run_size(reporter: &Reporter, n: usize, seed: u64) {
    let run = reporter.start(format!("n={n} seed={seed}"));
    let mut rng = Rng::new(seed);
    let placement = Placement::UniformDisk {
        n,
        radius: (n as f64 / (std::f64::consts::PI * 0.01)).sqrt(),
    };
    let pos = placement.generate(&mut rng);
    let gm = GainMatrix::build(&pos, &FreeSpace::unit());
    let rho = density(&pos, &placement.region());
    // Usable hops: twice the characteristic distance (§6).
    let reach = 2.0 / rho.sqrt();
    let usable = Gain(1.0 / (reach * reach));
    let graph = EnergyGraph::from_model(&gm, usable);
    let table = RouteTable::centralized(&graph);

    let connected = table.fully_connected();
    let geom = route_geometry(&table, &pos);
    let max_deg = table.max_routing_degree();
    let mean_deg: f64 = (0..n)
        .map(|s| table.routing_neighbors(s).len() as f64)
        .sum::<f64>()
        / n as f64;

    // Relay-circle property restricted to *usable* relays (stations the
    // sender can actually reach): slack 1e-9 for numerics.
    let skipped = find_skipped_relay(&table, &pos, 1.0, 1e-9);

    println!("## n = {n} (seed {seed})");
    println!("  fully connected:        {connected}");
    println!(
        "  mean / max hops:        {:.2} / {}",
        geom.mean_hops, geom.max_hops
    );
    println!(
        "  mean energy saving:     {:.2}x vs direct (multi-hop pairs)",
        geom.mean_energy_saving
    );
    println!("  routing neighbours:     mean {mean_deg:.2}, max {max_deg}");
    match &skipped {
        None => println!("  relay-circle property:  holds on every hop of every route"),
        Some(v) => println!("  relay-circle property:  VIOLATED {v:?}"),
    }
    assert!(
        skipped.is_none(),
        "a min-energy route skipped a cheaper relay"
    );
    assert!(
        max_deg <= 8,
        "paper's observation violated: max routing degree {max_deg}"
    );
    assert!(geom.mean_energy_saving >= 1.0);

    // Distributed = centralized on route costs (on the smaller instance;
    // O(n³)-ish work), from the same cold start `Network::new` runs.
    if n <= 150 {
        let mut cluster = DvCluster::new(&graph);
        cluster
            .converge_sync(2 * n + 16)
            .expect("distance-vector exchange did not converge");
        let distributed = cluster.to_table();
        let mut worst = 0.0f64;
        for s in 0..n {
            for d in 0..n {
                let (a, b) = (table.cost(s, d), distributed.cost(s, d));
                if a.is_finite() && b.is_finite() {
                    worst = worst.max((a - b).abs() / (1.0 + a.abs()));
                } else {
                    assert_eq!(a.is_finite(), b.is_finite(), "reachability differs");
                }
            }
        }
        println!("  distance vector agrees: worst relative cost gap {worst:.2e}");
        assert!(worst < 1e-9);
    }
    run.record(
        obj([("n", n.into()), ("seed", seed.into())]),
        obj([
            ("fully_connected", connected.into()),
            ("mean_hops", geom.mean_hops.into()),
            ("max_hops", (geom.max_hops as u64).into()),
            ("mean_energy_saving", geom.mean_energy_saving.into()),
            ("mean_routing_degree", mean_deg.into()),
            ("max_routing_degree", (max_deg as u64).into()),
            ("relay_circle_holds", skipped.is_none().into()),
        ]),
    );
    println!();
}

fn main() {
    println!("# Figure 3 / Sec 6.2: minimum-energy routing geometry\n");
    let reporter = Reporter::new(artifact_dir(), "fig3_min_energy_routing");
    // The paper's simulated sizes: 100 and 1000 stations.
    for (n, seed) in [(100, 1u64), (100, 2), (100, 3), (1000, 4)] {
        run_size(&reporter, n, seed);
    }
    println!("figure 3 / Sec 6.2 reproduced: OK");
}
