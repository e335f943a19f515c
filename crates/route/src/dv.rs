//! Per-station distance-vector state for the distributed asynchronous
//! Bellman–Ford exchange (paper §6.2).
//!
//! Where [`bellman_ford`](crate::bellman_ford) models the *algorithm* as a
//! pull-based oracle over a shared graph, this module models the
//! *protocol*: each [`DvState`] is the private state one station owns, and
//! the only way information moves between stations is an explicit
//! [`advertisement`](DvState::advertisement) handed to
//! [`integrate`](DvState::integrate) — exactly the payloads the network
//! layer carries inside scheduled TX/RX window overlaps. Divergence
//! control is the classic trio:
//!
//! * **split horizon with poisoned reverse** — a vector sent to neighbour
//!   `v` advertises infinite cost for every destination currently routed
//!   *through* `v`;
//! * **hold-down** — after a route is lost, cheaper third-party claims for
//!   it are ignored for a configurable window (first-hand link knowledge
//!   is exempt);
//! * **hop-count cap** — routes of `n` or more hops are treated as
//!   unreachable. A minimum-cost path visits no station twice, so the cap
//!   excludes no optimal route while bounding count-to-infinity.
//!
//! [`DvCluster`] wires `n` states together over an [`EnergyGraph`] and
//! drives them to quiescence — the convergence harness used by the
//! simulator at cold start and by the property suite.

use crate::dijkstra::encode_hop;
use crate::graph::EnergyGraph;
use crate::table::RouteTable;
use parn_phys::StationId;
use parn_sim::{Duration, Rng, Time};
use std::collections::BTreeMap;

/// Strict-improvement tolerance, matching the pull-based oracle in
/// [`bellman_ford`](crate::bellman_ford) so both fixpoints agree with
/// Dijkstra bit-for-bit on ties.
const EPS: f64 = 1e-15;

/// One entry of an advertised distance vector: (total route energy,
/// route hop count). Unreachable entries are `(f64::INFINITY, u32::MAX)`.
pub type DvEntry = (f64, u32);

/// The distance-vector routing state a single station owns.
#[derive(Clone, Debug)]
pub struct DvState {
    me: StationId,
    n: usize,
    /// Direct usable links (first-hand knowledge): neighbour → hop energy.
    links: BTreeMap<StationId, f64>,
    dist: Vec<f64>,
    hops: Vec<u32>,
    next_hop: Vec<Option<StationId>>,
    holddown_until: Vec<Time>,
    /// Which peer's withdrawal (or link failure) started each running
    /// hold-down. Readmitting that peer clears the hold-downs it caused:
    /// its withdrawal-era poison is stale the moment it is back, and the
    /// readmission flood must not lose the race against one last poisoned
    /// advertisement still in flight.
    holddown_by: Vec<Option<StationId>>,
    /// Advertised entries rejected as provably bogus (see
    /// [`integrate`](DvState::integrate)): a third party claiming a
    /// zero-hop or non-positive-energy route to a destination other than
    /// itself. Drained by [`take_poison_rejections`](DvState::take_poison_rejections).
    poison_rejections: u64,
    dirty: bool,
}

impl DvState {
    /// Fresh state for station `me` in an `n`-station network with the
    /// given direct links: self at cost 0, each neighbour at its link
    /// cost, everything else unreachable.
    pub fn new(me: StationId, n: usize, links: BTreeMap<StationId, f64>) -> DvState {
        let mut s = DvState {
            me,
            n,
            links: BTreeMap::new(),
            dist: vec![f64::INFINITY; n],
            hops: vec![u32::MAX; n],
            next_hop: vec![None; n],
            holddown_until: vec![Time::ZERO; n],
            holddown_by: vec![None; n],
            poison_rejections: 0,
            dirty: true,
        };
        s.dist[me] = 0.0;
        s.hops[me] = 0;
        for (nb, c) in links {
            s.restore_link(nb, c);
        }
        s
    }

    /// The station this state belongs to.
    pub fn station(&self) -> StationId {
        self.me
    }

    /// Direct links currently believed usable.
    pub fn links(&self) -> &BTreeMap<StationId, f64> {
        &self.links
    }

    /// Current next hop toward `dst` (None when `dst == me` or
    /// unreachable).
    pub fn next_hop(&self, dst: StationId) -> Option<StationId> {
        self.next_hop[dst]
    }

    /// Current total route energy toward `dst`.
    pub fn cost(&self, dst: StationId) -> f64 {
        self.dist[dst]
    }

    /// Current route hop count toward `dst` (`u32::MAX` when
    /// unreachable).
    pub fn route_hops(&self, dst: StationId) -> u32 {
        self.hops[dst]
    }

    /// The distinct next hops in use, sorted — the station's routing
    /// neighbours under its *current* (possibly transient) table.
    pub fn routing_neighbors(&self) -> Vec<StationId> {
        let mut v: Vec<StationId> = self.next_hop.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// True when the state changed since the last
    /// [`take_dirty`](DvState::take_dirty) — i.e. neighbours have not yet
    /// heard the latest vector.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Read and clear the dirty flag (called when an update round is
    /// scheduled for this station).
    pub fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// The vector to advertise to neighbour `to`, with split horizon and
    /// poisoned reverse applied: destinations routed through `to` are
    /// reported unreachable so `to` can never bounce them back.
    pub fn advertisement(&self, to: StationId) -> Vec<DvEntry> {
        (0..self.n)
            .map(|dst| {
                if self.next_hop[dst] == Some(to) {
                    (f64::INFINITY, u32::MAX)
                } else {
                    (self.dist[dst], self.hops[dst])
                }
            })
            .collect()
    }

    /// Advertised entries rejected as provably poisoned since the last
    /// call, draining the counter. Only `dst` itself may advertise `dst`
    /// at zero hops or zero energy, so a third-party claim of either is
    /// Byzantine with no false-positive risk — legitimate route energies
    /// are sums of strictly positive hop energies.
    pub fn take_poison_rejections(&mut self) -> u64 {
        std::mem::take(&mut self.poison_rejections)
    }

    /// Consume a vector advertised by direct neighbour `from`. Returns
    /// true when any route changed (the caller should schedule a
    /// triggered update). Vectors from stations not currently linked are
    /// ignored — they are stale transmissions from an evicted peer.
    ///
    /// Byzantine defense: an entry claiming a route to `dst != from` with
    /// zero hops or non-positive total energy is impossible (only `dst`
    /// itself is at zero hops / zero energy), so it is rejected and
    /// counted rather than integrated — a poisoner cannot black-hole
    /// traffic by underbidding every route.
    pub fn integrate(
        &mut self,
        from: StationId,
        adv: &[DvEntry],
        now: Time,
        holddown: Duration,
    ) -> bool {
        let Some(&link) = self.links.get(&from) else {
            return false;
        };
        debug_assert_eq!(adv.len(), self.n, "vector length mismatch");
        let mut changed = false;
        for (dst, &(their_cost, their_hops)) in adv.iter().enumerate() {
            if dst == self.me {
                continue;
            }
            if dst != from && their_cost.is_finite() && (their_hops == 0 || their_cost <= 0.0) {
                self.poison_rejections += 1;
                continue;
            }
            let via = link + their_cost;
            let via_hops = their_hops.saturating_add(1);
            // Hop-count cap: a path of n or more hops repeats a station
            // and can never be minimum-cost.
            let usable = via.is_finite() && (via_hops as usize) < self.n;
            if self.next_hop[dst] == Some(from) {
                // The current next hop's word is gospel: adopt worsening
                // and withdrawal too, not just improvements. Losing the
                // route starts the hold-down clock.
                if usable {
                    if self.dist[dst] != via || self.hops[dst] != via_hops {
                        self.dist[dst] = via;
                        self.hops[dst] = via_hops;
                        changed = true;
                    }
                } else {
                    self.dist[dst] = f64::INFINITY;
                    self.hops[dst] = u32::MAX;
                    self.next_hop[dst] = None;
                    self.holddown_until[dst] = now + holddown;
                    self.holddown_by[dst] = Some(from);
                    changed = true;
                }
            } else if usable && now >= self.holddown_until[dst] && via + EPS < self.dist[dst] {
                self.dist[dst] = via;
                self.hops[dst] = via_hops;
                self.next_hop[dst] = Some(from);
                changed = true;
            }
        }
        // First-hand link knowledge is exempt from hold-down: a poisoned
        // route to a direct neighbour resurrects from the link itself.
        changed |= self.refresh_direct();
        self.dirty |= changed;
        changed
    }

    /// Declare the direct link to `peer` dead (local-heal eviction or a
    /// withdrawn link): every route through it is poisoned and held down.
    /// Returns true when any route was using the link.
    pub fn fail_link(&mut self, peer: StationId, now: Time, holddown: Duration) -> bool {
        if self.links.remove(&peer).is_none() {
            return false;
        }
        let mut changed = false;
        for dst in 0..self.n {
            if self.next_hop[dst] == Some(peer) {
                self.dist[dst] = f64::INFINITY;
                self.hops[dst] = u32::MAX;
                self.next_hop[dst] = None;
                self.holddown_until[dst] = now + holddown;
                self.holddown_by[dst] = Some(peer);
                changed = true;
            }
        }
        changed |= self.refresh_direct();
        self.dirty = true;
        changed
    }

    /// (Re-)establish the direct link to `peer` at `cost` — readmission
    /// after an eviction lifts, or a rebooted neighbour heard again.
    /// First-hand knowledge: clears any hold-down on the peer itself
    /// *and* every hold-down that peer's withdrawals caused — otherwise a
    /// last poisoned advertisement still in flight when the readmission
    /// flood lands would leave those destinations deaf to the peer's
    /// fresh (correct) vector for a full hold-down window.
    pub fn restore_link(&mut self, peer: StationId, cost: f64) {
        self.links.insert(peer, cost);
        self.holddown_until[peer] = Time::ZERO;
        self.holddown_by[peer] = None;
        for dst in 0..self.n {
            if self.holddown_by[dst] == Some(peer) {
                self.holddown_until[dst] = Time::ZERO;
                self.holddown_by[dst] = None;
            }
        }
        self.refresh_direct();
        self.dirty = true;
    }

    /// The direct link to `peer` stays up but its cost changed — the peer
    /// moved. Unlike [`fail_link`](Self::fail_link)/
    /// [`restore_link`](Self::restore_link), no poisoning or hold-down
    /// machinery runs: the link never went away, so routes via the peer
    /// stay usable and just re-cost. Routes that used the old (cheaper)
    /// direct cost converge to alternatives through normal advertisement
    /// exchange.
    pub fn update_link_cost(&mut self, peer: StationId, cost: f64) {
        self.links.insert(peer, cost);
        if self.next_hop[peer] == Some(peer) {
            // The route to the peer itself was the direct hop: re-cost it
            // in place rather than waiting for the next flood.
            self.dist[peer] = cost;
            self.hops[peer] = 1;
        }
        self.refresh_direct();
        self.dirty = true;
    }

    /// Re-assert every direct link: a link is always at least as good as
    /// its own cost, whatever third parties claim.
    fn refresh_direct(&mut self) -> bool {
        let mut changed = false;
        for (&nb, &c) in &self.links {
            if c + EPS < self.dist[nb] {
                self.dist[nb] = c;
                self.hops[nb] = 1;
                self.next_hop[nb] = Some(nb);
                changed = true;
            }
        }
        changed
    }
}

/// `n` [`DvState`]s wired over an [`EnergyGraph`]: the convergence
/// harness. The simulator uses [`converge_sync`](DvCluster::converge_sync)
/// for the cold-start exchange (stations boot with hello-learned links and
/// trade vectors until quiescent); the property suite drives the same
/// states through lossy, shuffled, and faulted schedules.
#[derive(Clone, Debug)]
pub struct DvCluster {
    states: Vec<DvState>,
}

impl DvCluster {
    /// One fresh state per station, linked per the graph's usable hops.
    pub fn new(graph: &EnergyGraph) -> DvCluster {
        let n = graph.len();
        let states = (0..n)
            .map(|s| DvState::new(s, n, graph.neighbors(s).iter().copied().collect()))
            .collect();
        DvCluster { states }
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the cluster has no stations.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// One station's state.
    pub fn state(&self, s: StationId) -> &DvState {
        &self.states[s]
    }

    /// One station's state, mutably.
    pub fn state_mut(&mut self, s: StationId) -> &mut DvState {
        &mut self.states[s]
    }

    /// Take ownership of the per-station states (handed to the network
    /// simulator, which owns them per-station from then on).
    pub fn into_states(self) -> Vec<DvState> {
        self.states
    }

    /// Rewrap per-station states (the inverse of
    /// [`into_states`](DvCluster::into_states)) — used to snapshot a
    /// running simulation's private tables as one dense view.
    pub fn from_states(states: Vec<DvState>) -> DvCluster {
        DvCluster { states }
    }

    /// Deliver `sender`'s current vector to `receiver` (lossless,
    /// instantaneous). Returns true when the receiver changed.
    pub fn exchange(&mut self, sender: StationId, receiver: StationId, now: Time) -> bool {
        let adv = self.states[sender].advertisement(receiver);
        self.states[receiver].integrate(sender, &adv, now, Duration::ZERO)
    }

    /// Deterministic round-robin exchange to quiescence: in each round
    /// every station sends its vector to every direct neighbour. Returns
    /// the number of rounds taken, or None if `max_rounds` passed without
    /// quiescence.
    pub fn converge_sync(&mut self, max_rounds: usize) -> Option<usize> {
        for round in 1..=max_rounds {
            let mut changed = false;
            for s in 0..self.states.len() {
                let nbs: Vec<StationId> = self.states[s].links.keys().copied().collect();
                for nb in nbs {
                    changed |= self.exchange(s, nb, Time::ZERO);
                }
            }
            if !changed {
                return Some(round);
            }
        }
        None
    }

    /// Shuffled asynchronous exchange to quiescence: each round delivers
    /// every (sender → neighbour) vector once, in seeded-random order.
    /// The fixpoint must be order-independent; property tests exploit
    /// that.
    pub fn converge_async(&mut self, rng: &mut Rng, max_rounds: usize) -> Option<usize> {
        let mut pairs: Vec<(StationId, StationId)> = Vec::new();
        for (s, st) in self.states.iter().enumerate() {
            for &nb in st.links.keys() {
                pairs.push((s, nb));
            }
        }
        for round in 1..=max_rounds {
            rng.shuffle(&mut pairs);
            let mut changed = false;
            for &(s, nb) in &pairs {
                changed |= self.exchange(s, nb, Time::ZERO);
            }
            if !changed {
                return Some(round);
            }
        }
        None
    }

    /// Snapshot the cluster as a dense [`RouteTable`] (for comparison
    /// against [`RouteTable::centralized`] and for seeding the
    /// simulator's global view).
    pub fn to_table(&self) -> RouteTable {
        let n = self.states.len();
        let mut next_hop = Vec::with_capacity(n * n);
        let mut cost = Vec::with_capacity(n * n);
        for st in &self.states {
            next_hop.extend(st.next_hop.iter().map(|&h| encode_hop(h)));
            cost.extend_from_slice(&st.dist);
        }
        RouteTable::from_dense(n, next_hop, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;

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

    fn assert_matches_dijkstra(cluster: &DvCluster, graph: &EnergyGraph) {
        for src in 0..graph.len() {
            let sp = dijkstra(graph, src);
            for dst in 0..graph.len() {
                if src == dst {
                    continue;
                }
                let got = cluster.state(src).cost(dst);
                assert!(
                    (got - sp.dist[dst]).abs() < 1e-12
                        || (got.is_infinite() && sp.dist[dst].is_infinite()),
                    "{src}->{dst}: dv {got} vs dijkstra {}",
                    sp.dist[dst]
                );
            }
        }
    }

    #[test]
    fn sync_convergence_matches_dijkstra() {
        let g = chain();
        let mut c = DvCluster::new(&g);
        let rounds = c.converge_sync(64).expect("did not converge");
        assert!(rounds <= g.len() + 2, "took {rounds} rounds");
        assert_matches_dijkstra(&c, &g);
        assert!(c.to_table().check_consistency(&g).is_ok());
    }

    #[test]
    fn async_order_does_not_change_fixpoint() {
        let g = chain();
        for seed in 0..8 {
            let mut c = DvCluster::new(&g);
            c.converge_async(&mut Rng::new(seed), 256)
                .expect("did not converge");
            assert_matches_dijkstra(&c, &g);
        }
    }

    #[test]
    fn poisoned_reverse_hides_routes_through_the_listener() {
        let g = chain();
        let mut c = DvCluster::new(&g);
        c.converge_sync(64).unwrap();
        // Station 0 routes to 3 via 1; the vector it sends *to* 1 must
        // poison destination 3 (and 1 itself, and 2).
        let adv = c.state(0).advertisement(1);
        assert!(adv[3].0.is_infinite());
        assert!(adv[1].0.is_infinite());
        // Sent the other way (to nobody relevant), the entries are live.
        let adv2 = c.state(0).advertisement(2);
        assert!((adv2[3].0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fail_link_poisons_and_reconverges() {
        let g = chain();
        let mut c = DvCluster::new(&g);
        c.converge_sync(64).unwrap();
        // Kill the 1<->2 link on both sides: traffic 0->3 must fall back
        // to the expensive 0-2 edge.
        c.state_mut(1).fail_link(2, Time::ZERO, Duration::ZERO);
        c.state_mut(2).fail_link(1, Time::ZERO, Duration::ZERO);
        c.converge_sync(256).expect("did not reconverge");
        assert_eq!(c.state(0).next_hop(3), Some(2));
        assert!((c.state(0).cost(3) - 4.0).abs() < 1e-12);
        // And restoring the link converges back to the optimum.
        c.state_mut(1).restore_link(2, 1.0);
        c.state_mut(2).restore_link(1, 1.0);
        c.converge_sync(256).expect("did not reconverge");
        assert_matches_dijkstra(&c, &g);
    }

    #[test]
    fn partition_is_detected_as_unreachable() {
        let g = chain();
        let mut c = DvCluster::new(&g);
        c.converge_sync(64).unwrap();
        // Cut every link into {3}: the cap + poison must drive 3's cost
        // to infinity everywhere instead of counting forever.
        c.state_mut(2).fail_link(3, Time::ZERO, Duration::ZERO);
        c.state_mut(3).fail_link(2, Time::ZERO, Duration::ZERO);
        c.converge_sync(1024).expect("count-to-infinity unbounded");
        for s in 0..3 {
            assert!(
                c.state(s).cost(3).is_infinite(),
                "station {s} still routes to 3"
            );
            assert_eq!(c.state(s).next_hop(3), None);
        }
    }

    #[test]
    fn holddown_delays_third_party_claims_but_not_first_hand_links() {
        let mut s = DvState::new(0, 3, [(1usize, 1.0f64)].into_iter().collect());
        let hold = Duration::from_secs(1);
        // Learn a route to 2 via 1, then lose it with hold-down.
        s.integrate(1, &[(1.0, 1), (0.0, 0), (1.0, 1)], Time::ZERO, hold);
        assert_eq!(s.next_hop(2), Some(1));
        s.integrate(
            1,
            &[(1.0, 1), (0.0, 0), (f64::INFINITY, u32::MAX)],
            Time::ZERO,
            hold,
        );
        assert_eq!(s.next_hop(2), None);
        // During hold-down, a re-advertised claim for the lost route is
        // ignored...
        let mut t = s.clone();
        t.integrate(1, &[(1.0, 1), (0.0, 0), (1.0, 1)], Time::ZERO, hold);
        assert_eq!(t.next_hop(2), None, "hold-down ignored");
        // ...but expires: the same claim lands after the window.
        t.integrate(1, &[(1.0, 1), (0.0, 0), (1.0, 1)], Time::ZERO + hold, hold);
        assert_eq!(t.next_hop(2), Some(1));
        // First-hand link knowledge bypasses the hold-down entirely.
        s.restore_link(2, 5.0);
        assert_eq!(s.next_hop(2), Some(2), "direct link held down");
        assert!((s.cost(2) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn readmission_clears_the_holddowns_the_peer_caused() {
        // Station 0 routes to 2 via 1. Peer 1 withdraws the route (its
        // poisoned advertisement), starting a hold-down attributed to 1.
        let mut s = DvState::new(0, 3, [(1usize, 1.0f64)].into_iter().collect());
        let hold = Duration::from_secs(10);
        s.integrate(1, &[(1.0, 1), (0.0, 0), (1.0, 1)], Time::ZERO, hold);
        assert_eq!(s.next_hop(2), Some(1));
        s.fail_link(1, Time::ZERO, hold);
        assert_eq!(s.next_hop(2), None);
        // Readmission: the link to 1 comes back. Without clearing 1's
        // hold-downs, 1's first fresh advertisement (well inside the
        // 10 s window) would be ignored for destination 2 — the
        // readmission flood losing the race against the stale poison.
        s.restore_link(1, 1.0);
        let changed = s.integrate(
            1,
            &[(1.0, 1), (0.0, 0), (1.0, 1)],
            Time::ZERO + Duration::from_millis(1),
            hold,
        );
        assert!(changed, "fresh vector ignored during stale hold-down");
        assert_eq!(s.next_hop(2), Some(1), "route not relearned");
    }

    #[test]
    fn third_party_holddowns_survive_an_unrelated_readmission() {
        // Two links: 1 and 3. Peer 1 withdraws the route to 2; readmitting
        // *3* must not lift the hold-down 1 caused.
        let mut s = DvState::new(
            0,
            4,
            [(1usize, 1.0f64), (3usize, 1.0f64)].into_iter().collect(),
        );
        let hold = Duration::from_secs(10);
        s.integrate(
            1,
            &[(1.0, 1), (0.0, 0), (1.0, 1), (f64::INFINITY, u32::MAX)],
            Time::ZERO,
            hold,
        );
        assert_eq!(s.next_hop(2), Some(1));
        s.integrate(
            1,
            &[
                (1.0, 1),
                (0.0, 0),
                (f64::INFINITY, u32::MAX),
                (f64::INFINITY, u32::MAX),
            ],
            Time::ZERO,
            hold,
        );
        assert_eq!(s.next_hop(2), None);
        s.restore_link(3, 1.0);
        // A third-party claim from 3 for the held-down destination is
        // still ignored: the hold-down belongs to 1, not 3.
        s.integrate(
            3,
            &[(1.0, 1), (2.0, 2), (1.0, 1), (0.0, 0)],
            Time::ZERO + Duration::from_millis(1),
            hold,
        );
        assert_eq!(
            s.next_hop(2),
            None,
            "unrelated readmission lifted hold-down"
        );
    }

    #[test]
    fn poisoned_zero_cost_claims_are_rejected_and_counted() {
        let mut s = DvState::new(0, 4, [(1usize, 1.0f64)].into_iter().collect());
        // A Byzantine poisoner at 1 underbids every destination: zero
        // energy, zero hops. Only its self-entry is legitimate.
        let changed = s.integrate(
            1,
            &[(0.0, 0), (0.0, 0), (0.0, 0), (0.0, 0)],
            Time::ZERO,
            Duration::ZERO,
        );
        assert_eq!(s.take_poison_rejections(), 2, "dst 2 and 3 are bogus");
        assert_eq!(s.next_hop(2), None);
        assert_eq!(s.next_hop(3), None);
        // The direct link to the poisoner itself still stands (first-hand
        // knowledge), so the integrate may legitimately report change.
        let _ = changed;
        // An honest vector integrates cleanly and counts nothing.
        s.integrate(
            1,
            &[(1.0, 1), (0.0, 0), (1.0, 1), (2.0, 2)],
            Time::ZERO,
            Duration::ZERO,
        );
        assert_eq!(s.take_poison_rejections(), 0);
        assert_eq!(s.next_hop(2), Some(1));
    }

    #[test]
    fn hop_cap_rejects_overlong_routes() {
        let mut s = DvState::new(0, 3, [(1usize, 1.0f64)].into_iter().collect());
        // A 3-hop route in a 3-station network repeats a station: reject.
        let changed = s.integrate(
            1,
            &[(1.0, 1), (0.0, 0), (1.0, 2)],
            Time::ZERO,
            Duration::ZERO,
        );
        assert_eq!(s.next_hop(2), None);
        // The same vector with a legal hop count is accepted.
        s.integrate(
            1,
            &[(1.0, 1), (0.0, 0), (1.0, 1)],
            Time::ZERO,
            Duration::ZERO,
        );
        assert_eq!(s.next_hop(2), Some(1));
        let _ = changed;
    }

    #[test]
    fn stale_vectors_from_unlinked_peers_are_ignored() {
        let mut s = DvState::new(0, 3, [(1usize, 1.0f64)].into_iter().collect());
        let changed = s.integrate(
            2,
            &[(1.0, 1), (1.0, 1), (0.0, 0)],
            Time::ZERO,
            Duration::ZERO,
        );
        assert!(!changed);
        assert_eq!(s.next_hop(2), None);
    }

    #[test]
    fn update_link_cost_recosts_without_holddown() {
        // 0 has links to 1 and 3; route to 2 goes via 1.
        let mut s = DvState::new(
            0,
            4,
            [(1usize, 1.0f64), (3usize, 1.0f64)].into_iter().collect(),
        );
        let hold = Duration::from_secs(10);
        s.integrate(
            1,
            &[(1.0, 1), (0.0, 0), (1.0, 1), (f64::INFINITY, u32::MAX)],
            Time::ZERO,
            hold,
        );
        assert_eq!(s.next_hop(2), Some(1));
        // Peer 1 drifts away: the direct hop re-costs in place, no
        // hold-down starts, and the transit route via 1 stays usable.
        s.update_link_cost(1, 2.5);
        assert_eq!(s.next_hop(1), Some(1));
        assert!((s.cost(1) - 2.5).abs() < 1e-12);
        assert_eq!(s.next_hop(2), Some(1));
        // A third-party claim for 2 is NOT suppressed (no hold-down ran):
        // peer 3 now underbids and wins immediately.
        let changed = s.integrate(
            3,
            &[(1.0, 1), (f64::INFINITY, u32::MAX), (0.5, 1), (0.0, 0)],
            Time::ZERO,
            hold,
        );
        assert!(changed);
        assert_eq!(s.next_hop(2), Some(3));
        // Drifting closer again re-cheapens the direct hop.
        s.update_link_cost(1, 0.25);
        assert!((s.cost(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cluster_table_matches_centralized_table() {
        let g = chain();
        let mut c = DvCluster::new(&g);
        c.converge_sync(64).unwrap();
        let dv = c.to_table();
        let cen = RouteTable::centralized(&g);
        for s in 0..4 {
            for d in 0..4 {
                let (a, b) = (dv.cost(s, d), cen.cost(s, d));
                if a.is_finite() || b.is_finite() {
                    assert!((a - b).abs() < 1e-12, "{s}->{d}: {a} vs {b}");
                }
            }
        }
    }
}
