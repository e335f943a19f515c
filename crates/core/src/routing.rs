//! Routing (§6.2): a shared minimum-energy table, or a per-station
//! distance-vector exchange in which "each station need only remember
//! the next hop for each potential destination and the total energy
//! along that route".
//!
//! The simulator runs both through a crate-private [`Routing`]. It owns
//! the usable-hop threshold, the shared table and the table step of an
//! oracle rebuild over the usable graph. Under
//! [`RouteMode::Distributed`] it also owns the exchange: each station's
//! private [`DvState`], the links each station last measured, the
//! per-station triggered-update dedupe and the open convergence episode.
//! The simulator asks it for next hops and routing neighbours and acts on
//! what its hooks return: the link changes a station sees after a move,
//! whether a station keeps state of its own and its table changed, when
//! to run a round or a convergence probe.
//! Queues, routing views, clock models, events, metrics and traces stay
//! with the simulator.

use crate::config::{DvConfig, NetConfig, RouteMode};
use crate::heal::Heal;
use crate::packet::{LossCause, Packet};
use parn_phys::{Gain, GainModel, StationId};
use parn_route::{DvCluster, DvEntry, DvState, EnergyGraph, RouteTable};
use parn_sim::{Duration, Time};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One change in a station's usable links after stations moved, in the
/// order its own state takes them in.
#[derive(Debug, PartialEq)]
pub(crate) enum Relink {
    /// The link is gone.
    Lost(StationId),
    /// The link stays, at a new hop energy.
    Recost(StationId, f64),
    /// A new link, at this hop energy.
    Found(StationId, f64),
}

/// What a convergence probe found.
#[derive(Debug, PartialEq)]
pub(crate) enum Probe {
    /// A table changed within the quiet window: probe again at this time.
    Rearm(Time),
    /// No table changed for a full quiet window, so the episode closed:
    /// the times of its first and last table changes.
    Converged(Time, Time),
}

/// The distance-vector exchange of a run under
/// [`RouteMode::Distributed`].
struct Exchange {
    /// Hold-down, the triggered-round delay, the periodic interval and
    /// the quiet window that closes an episode.
    cfg: DvConfig,
    /// Per-station protocol state. Station `s`'s state is private to it:
    /// the only way information enters it is a received advertisement.
    cluster: DvCluster,
    /// The usable links each station last measured: `(neighbour, hop
    /// energy)`, ascending. A power-up restores links to live stations
    /// from here (the rejoin handshake re-measures them), and so does a
    /// readmission, which measures a link missing here: a relink leaves
    /// out links to dark and evicted stations.
    links: Vec<Vec<(StationId, f64)>>,
    /// Whether the last relink found the station dark, per station: it
    /// measured no links of it then, and every live station failed its
    /// link to it.
    missed: Vec<bool>,
    /// Whether a triggered round is already armed, per station.
    round_armed: Vec<bool>,
    /// The open convergence episode: its first and its latest table
    /// change. A probe is armed exactly while one is open.
    episode: Option<(Time, Time)>,
}

/// The routes of one run.
pub(crate) struct Routing {
    /// How the shared table is solved, and rebuilt.
    mode: RouteMode,
    /// The gain backend links are measured from.
    gains: Arc<dyn GainModel>,
    /// Gain threshold for usable hops.
    usable_gain: Gain,
    /// The shared table. Under distributed routing, the cold-start
    /// snapshot.
    table: RouteTable,
    /// The exchange, under distributed routing only.
    exchange: Option<Exchange>,
}

impl Routing {
    /// The routes of a network under `cfg` over `gains`, using hops with
    /// at least `usable_gain`. Distributed routing starts from a
    /// cold-start exchange: every station trades vectors with its link
    /// neighbours until quiescent, the fixpoint the runtime exchange
    /// maintains.
    pub(crate) fn new(cfg: &NetConfig, gains: Arc<dyn GainModel>, usable_gain: Gain) -> Routing {
        let graph = EnergyGraph::from_model(&*gains, usable_gain);
        let n = graph.len();
        let mut exchange = None;
        let table = match cfg.route_mode {
            RouteMode::Centralized => RouteTable::centralized(&graph),
            RouteMode::OneHop => RouteTable::one_hop(&graph),
            RouteMode::Greedy => RouteTable::greedy(&graph, &gains.positions()),
            RouteMode::Distributed => {
                let mut cluster = DvCluster::new(&graph);
                cluster
                    .converge_sync(2 * n + 16)
                    .expect("cold-start distance-vector exchange did not converge");
                let table = cluster.to_table();
                exchange = Some(Exchange {
                    cfg: cfg.dv,
                    cluster,
                    links: (0..n).map(|s| graph.neighbors(s).to_vec()).collect(),
                    missed: vec![false; n],
                    round_armed: vec![false; n],
                    episode: None,
                });
                table
            }
        };
        Routing {
            mode: cfg.route_mode.clone(),
            gains,
            usable_gain,
            table,
            exchange,
        }
    }

    /// The shared table; under distributed routing, the cold-start
    /// snapshot.
    pub(crate) fn table(&self) -> &RouteTable {
        &self.table
    }

    /// The per-station distance-vector tables as one dense table (`None`
    /// under table routing).
    pub(crate) fn dv_table(&self) -> Option<RouteTable> {
        self.exchange.as_ref().map(|x| x.cluster.to_table())
    }

    /// The usable-link graph over the live topology: dead stations drop
    /// out, and evicted ones (local healing) still send but receive no
    /// routed traffic. Also returns that receive mask.
    fn usable_graph(&self, alive: &[bool], heal: &Heal) -> (EnergyGraph, Vec<bool>) {
        let rx_ok: Vec<bool> = (0..alive.len())
            .map(|j| alive[j] && !heal.evicted(j))
            .collect();
        let graph = EnergyGraph::from_model_masked(&*self.gains, self.usable_gain, alive, &rx_ok);
        (graph, rx_ok)
    }

    /// Where `at` forwards `packet`: its own table's next hop, or the
    /// shared table's. `Err` carries the drop cause: unroutable, or (under
    /// distributed routing) a next hop that already held the packet, a
    /// transient loop refused per packet.
    pub(crate) fn next_hop(&self, at: StationId, packet: &Packet) -> Result<StationId, LossCause> {
        let next = match &self.exchange {
            Some(x) => x.cluster.state(at).next_hop(packet.dst),
            None => self.table.next_hop(at, packet.dst),
        };
        let nh = next.ok_or(LossCause::Unroutable)?;
        if self.exchange.is_some() && packet.visited.contains(&nh) {
            return Err(LossCause::RoutingLoop);
        }
        Ok(nh)
    }

    /// `packet` reached `at`. Under distributed routing the loop refusal
    /// must keep a packet from ever reaching a station twice, whatever
    /// transient the exchange is in, so a revisit panics. A shared table
    /// may legitimately send a packet back after a rebuild.
    pub(crate) fn assert_loop_free(&self, at: StationId, packet: &Packet) {
        assert!(
            self.exchange.is_none() || !packet.visited.contains(&at),
            "loop-freedom violated: packet {} revisited station {at}",
            packet.id
        );
    }

    /// The distinct next hops `s` uses, sorted: from its own table under
    /// distributed routing, else from the shared one.
    pub(crate) fn neighbors(&self, s: StationId) -> Vec<StationId> {
        match &self.exchange {
            Some(x) => x.cluster.state(s).routing_neighbors(),
            None => self.table.routing_neighbors(s),
        }
    }

    /// The usable links `s` last measured (none under table routing). A
    /// station under distributed routing may address an advertisement
    /// over any of them.
    pub(crate) fn links(&self, s: StationId) -> &[(StationId, f64)] {
        self.exchange.as_ref().map_or(&[], |x| &x.links[s])
    }

    /// The first periodic advertisement round of each station (none
    /// under table routing), staggered like hellos with a different
    /// prime, so the two cadences do not align systematically.
    pub(crate) fn first_rounds(&self) -> impl Iterator<Item = (StationId, Time)> {
        let (n, iv) = self.exchange.as_ref().map_or((0, 1), |x| {
            (x.links.len(), x.cfg.update_interval.ticks().max(1))
        });
        (0..n).map(move |s| (s, Time::ZERO + Duration((s as u64).wrapping_mul(6007) % iv)))
    }

    /// A round of `s` fires: the stations it advertises to, the links its
    /// own state believes usable (`None` under table routing). A triggered
    /// round disarms, so the next table change arms another.
    pub(crate) fn round(&mut self, s: StationId, periodic: bool) -> Option<Vec<StationId>> {
        let x = self.exchange.as_mut()?;
        x.round_armed[s] &= periodic;
        Some(x.cluster.state(s).links().keys().copied().collect())
    }

    /// The distance vector `s` advertises to `nh` (`None` under table
    /// routing): its own, with split horizon and poisoned reverse, unless
    /// a Byzantine `poison`er, when it underbids every destination (zero
    /// energy, zero hops) to black-hole traffic through itself. The
    /// receiver's sanity check in [`DvState::integrate`] rejects exactly
    /// those claims.
    pub(crate) fn vector(&self, s: StationId, nh: StationId, poison: bool) -> Option<Vec<DvEntry>> {
        let x = self.exchange.as_ref()?;
        if poison {
            return Some(vec![(0.0, 0); x.links.len()]);
        }
        Some(x.cluster.state(s).advertisement(nh))
    }

    /// `rx` takes in the vector `sender` advertised. Returns whether its
    /// table changed, and how many entries it rejected as poisoned.
    pub(crate) fn integrate(
        &mut self,
        rx: StationId,
        sender: StationId,
        vector: &[DvEntry],
        now: Time,
    ) -> Option<(bool, u64)> {
        let x = self.exchange.as_mut()?;
        let state = x.cluster.state_mut(rx);
        let changed = state.integrate(sender, vector, now, x.cfg.holddown);
        Some((changed, state.take_poison_rejections()))
    }

    /// `s` declares its link to `nb` dead, poisoning the routes through
    /// it. Returns whether its table changed, or `None` when it keeps no
    /// state of its own (table routing).
    pub(crate) fn fail_link(&mut self, s: StationId, nb: StationId, now: Time) -> Option<bool> {
        let x = self.exchange.as_mut()?;
        Some(x.cluster.state_mut(s).fail_link(nb, now, x.cfg.holddown))
    }

    /// `s` readmits `nb`, which it has just heard: the link comes back in
    /// its own state, first-hand and exempt from hold-down, at the energy
    /// `s` measured, or measures now if it has none. Returns whether it
    /// measured the link now, or `None` when it did not readmit (table
    /// routing, or a link that is not usable).
    pub(crate) fn readmit(&mut self, s: StationId, nb: StationId) -> Option<bool> {
        let x = self.exchange.as_mut()?;
        let (cost, measured) = match x.links[s].binary_search_by_key(&nb, |&(l, _)| l) {
            Ok(i) => (x.links[s][i].1, false),
            Err(i) => {
                let g = self.gains.gain(nb, s);
                if g < self.usable_gain || g.value() <= 0.0 {
                    return None;
                }
                x.links[s].insert(i, (nb, g.energy_cost()));
                (g.energy_cost(), true)
            }
        };
        x.cluster.state_mut(s).restore_link(nb, cost);
        Some(measured)
    }

    /// `s` powered back up with its volatile state gone: its own state
    /// restarts from its measured links to live stations, and everything
    /// beyond one hop is learned again from advertisements. `None` under
    /// table routing, where stations keep no state of their own.
    pub(crate) fn restart(&mut self, s: StationId, alive: &[bool]) -> Option<()> {
        let x = self.exchange.as_mut()?;
        let live = x.links[s].iter().filter(|&&(nb, _)| alive[nb]);
        *x.cluster.state_mut(s) = DvState::new(s, alive.len(), live.copied().collect());
        Some(())
    }

    /// Stations moved: every station measures its usable links again
    /// over the live topology. Returns each live station's changes
    /// against the links its own state holds, in ascending station order
    /// (nothing under table routing). A dark station's row of the masked
    /// graph is empty, so its measured links are too until it is measured
    /// again at its power-up (see [`missed_relink`](Routing::missed_relink)).
    pub(crate) fn relink(&mut self, alive: &[bool], heal: &Heal) -> Vec<(StationId, Vec<Relink>)> {
        if self.exchange.is_none() {
            return Vec::new();
        }
        let (graph, _) = self.usable_graph(alive, heal);
        let x = self.exchange.as_mut().expect("checked above");
        let mut moved = Vec::new();
        for (s, &up) in alive.iter().enumerate() {
            x.links[s] = graph.neighbors(s).to_vec();
            x.missed[s] = !up;
            if !up {
                continue;
            }
            let fresh: BTreeMap<StationId, f64> = graph.neighbors(s).iter().copied().collect();
            let old = x.cluster.state(s).links();
            let mut changes: Vec<Relink> = old
                .iter()
                .filter_map(|(&nb, &c)| match fresh.get(&nb) {
                    None => Some(Relink::Lost(nb)),
                    Some(&nc) if nc != c => Some(Relink::Recost(nb, nc)),
                    Some(_) => None,
                })
                .collect();
            let found = fresh.iter().filter(|(nb, _)| !old.contains_key(nb));
            changes.extend(found.map(|(&nb, &c)| Relink::Found(nb, c)));
            moved.push((s, changes));
        }
        moved
    }

    /// Whether `s` was dark at the last relink, so its links must be
    /// measured again when it powers up (never under table routing).
    pub(crate) fn missed_relink(&self, s: StationId) -> bool {
        self.exchange.as_ref().is_some_and(|x| x.missed[s])
    }

    /// `s` applies a [`Relink::Recost`] or [`Relink::Found`] to its own
    /// state: a surviving link re-costs in place without hold-down (it
    /// never went away), and a new one is restored first-hand. A lost
    /// link goes through [`fail_link`](Routing::fail_link).
    pub(crate) fn apply(&mut self, s: StationId, change: &Relink) {
        let x = self
            .exchange
            .as_mut()
            .expect("only stations with own state relink");
        let state = x.cluster.state_mut(s);
        match *change {
            Relink::Lost(_) => {}
            Relink::Recost(nb, cost) => state.update_link_cost(nb, cost),
            Relink::Found(nb, cost) => state.restore_link(nb, cost),
        }
    }

    /// Arm a triggered advertisement round for `s`, deduping a burst of
    /// table changes into one round: returns when the round fires, or
    /// `None` when one is already armed.
    pub(crate) fn arm_round(&mut self, s: StationId, now: Time) -> Option<Time> {
        let x = self.exchange.as_mut()?;
        let armed = std::mem::replace(&mut x.round_armed[s], true);
        (!armed).then(|| now + x.cfg.triggered_delay)
    }

    /// Some station's table changed at `now`. The open convergence
    /// episode extends to it, or one opens: returns when to probe a newly
    /// opened episode for quiescence.
    pub(crate) fn note_change(&mut self, now: Time) -> Option<Time> {
        let x = self.exchange.as_mut()?;
        let start = x.episode.map_or(now, |(start, _)| start);
        let opens = x.episode.replace((start, now)).is_none();
        opens.then(|| now + x.cfg.convergence_quiet)
    }

    /// A convergence probe at `now`: the open episode closes once no
    /// table has changed for a full quiet window; otherwise the probe
    /// re-arms from the latest change.
    pub(crate) fn probe(&mut self, now: Time) -> Option<Probe> {
        let x = self.exchange.as_mut()?;
        let (start, last) = x.episode?;
        let quiet = x.cfg.convergence_quiet;
        if now.since(last) < quiet {
            return Some(Probe::Rearm(last + quiet));
        }
        x.episode = None;
        Some(Probe::Converged(start, last))
    }

    /// The table step of an oracle rebuild: re-solve the shared table
    /// over the usable graph. A centralized table is kept when that graph
    /// has not changed since its last solve, and is otherwise re-solved
    /// in its own buffers. Returns the receive mask of the graph, or
    /// `None` under distributed routing, which has no shared table to
    /// rebuild: there reconvergence is carried hop by hop through the
    /// exchange.
    pub(crate) fn rebuild(&mut self, alive: &[bool], heal: &Heal) -> Option<Vec<bool>> {
        if self.exchange.is_some() {
            return None;
        }
        let (graph, rx_ok) = self.usable_graph(alive, heal);
        match self.mode {
            RouteMode::OneHop => self.table = RouteTable::one_hop(&graph),
            RouteMode::Greedy => self.table = RouteTable::greedy(&graph, &self.gains.positions()),
            _ => self.table.rebuild_centralized(graph),
        }
        Some(rx_ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parn_phys::propagation::FreeSpace;
    use parn_phys::{GainMatrix, Point};
    use std::sync::Arc;

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    /// Four stations 10 m apart on a line, with only the 10 m hops
    /// usable: every route runs along the line.
    fn line(mode: RouteMode) -> (Routing, Arc<GainMatrix>, NetConfig) {
        let positions: Vec<Point> = (0..4).map(|i| Point::new(10.0 * i as f64, 0.0)).collect();
        let gains = Arc::new(GainMatrix::build_shared(
            &positions,
            Arc::new(FreeSpace::unit()),
        ));
        let mut cfg = NetConfig::paper_default(4, 1);
        cfg.route_mode = mode;
        let routing = Routing::new(&cfg, gains.clone(), Gain(0.005));
        (routing, gains, cfg)
    }

    #[test]
    fn one_probe_per_episode_rearms_from_the_latest_change() {
        let (mut r, ..) = line(RouteMode::Distributed);
        // The first change opens an episode and arms its one probe a
        // quiet window (200 ms) later; later changes only extend it.
        assert_eq!(r.note_change(at(0)), Some(at(200)));
        assert_eq!(r.note_change(at(50)), None);
        assert_eq!(r.note_change(at(120)), None);
        assert_eq!(r.probe(at(200)), Some(Probe::Rearm(at(320))));
        assert_eq!(r.note_change(at(300)), None, "a probe is still armed");
        assert_eq!(r.probe(at(320)), Some(Probe::Rearm(at(500))));
        assert_eq!(r.probe(at(500)), Some(Probe::Converged(at(0), at(300))));
        // Closed: the next change opens a new episode with its own probe.
        assert_eq!(r.note_change(at(700)), Some(at(900)));
        let (mut table, ..) = line(RouteMode::Centralized);
        assert_eq!(table.note_change(at(0)), None);
        assert_eq!(table.probe(at(200)), None);
    }

    #[test]
    fn triggered_rounds_are_deduped_per_station() {
        let (mut r, ..) = line(RouteMode::Distributed);
        assert_eq!(r.arm_round(1, at(0)), Some(at(10)));
        assert_eq!(r.arm_round(1, at(5)), None, "station 1 has one armed");
        assert_eq!(r.arm_round(2, at(5)), Some(at(15)));
        // A periodic round leaves the armed triggered one in place.
        r.round(1, true);
        assert_eq!(r.arm_round(1, at(6)), None);
        r.round(1, false);
        assert_eq!(r.arm_round(1, at(20)), Some(at(30)));
        assert_eq!(r.arm_round(2, at(20)), None);
        let (mut table, ..) = line(RouteMode::Centralized);
        assert_eq!(table.arm_round(1, at(0)), None);
    }

    #[test]
    fn the_loop_refusal_applies_only_under_distributed_routing() {
        // A packet from 1 to 3 that went back to 0: 0's next hop towards
        // 3 is 1 again.
        let mut bounced = Packet::new(0, 1, 3, Time::ZERO);
        bounced.visited.push(0);
        let fresh = Packet::new(1, 0, 3, Time::ZERO);
        let (dv, ..) = line(RouteMode::Distributed);
        assert_eq!(dv.next_hop(0, &bounced), Err(LossCause::RoutingLoop));
        assert_eq!(dv.next_hop(0, &fresh), Ok(1));
        for mode in [RouteMode::Centralized, RouteMode::OneHop, RouteMode::Greedy] {
            let (table, ..) = line(mode.clone());
            let want = if matches!(mode, RouteMode::OneHop) {
                Err(LossCause::Unroutable)
            } else {
                Ok(1)
            };
            assert_eq!(table.next_hop(0, &bounced), want, "{mode:?}");
            table.assert_loop_free(1, &bounced);
        }
        let revisit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dv.assert_loop_free(1, &bounced)
        }));
        assert!(
            revisit.is_err(),
            "a revisit must panic under distributed routing"
        );
    }

    #[test]
    fn relink_reports_each_live_station_s_changes_in_order() {
        let (mut r, gains, cfg) = line(RouteMode::Distributed);
        let heal = Heal::new(&cfg, 4);
        // Station 0 is dark; station 3 moves between 1 and 2, 5 m from
        // each.
        gains.relocate(3, Point::new(15.0, 0.0));
        let cost = |a: usize, b: usize| gains.gain(b, a).energy_cost();
        let alive = [false, true, true, true];
        let moved = r.relink(&alive, &heal);
        assert_eq!(
            moved,
            vec![
                (1, vec![Relink::Lost(0), Relink::Found(3, cost(1, 3))]),
                (2, vec![Relink::Recost(3, cost(2, 3))]),
                (
                    3,
                    vec![Relink::Recost(2, cost(3, 2)), Relink::Found(1, cost(3, 1))]
                ),
            ]
        );
        // A dark station's row of the masked graph is empty.
        assert!(r.links(0).is_empty());
        assert_eq!(r.links(1), &[(2, cost(1, 2)), (3, cost(1, 3))]);
        for (s, changes) in &moved {
            for change in changes {
                match change {
                    Relink::Lost(nb) => {
                        r.fail_link(*s, *nb, at(0));
                    }
                    _ => r.apply(*s, change),
                }
            }
        }
        assert_eq!(r.round(1, true), Some(vec![2, 3]));
        assert_eq!(r.neighbors(3), vec![1, 2]);
        assert!(r.missed_relink(0) && !r.missed_relink(1));
        // A readmission restores a measured link, measures one the relink
        // left out while its far end was dark, and restores no unusable
        // one.
        assert_eq!(r.fail_link(1, 2, at(50)), Some(true));
        assert_eq!(r.round(1, true), Some(vec![3]));
        assert_eq!(r.readmit(1, 2), Some(false));
        assert_eq!(r.round(1, true), Some(vec![2, 3]));
        assert_eq!(r.readmit(1, 0), Some(true), "1 measures its link to 0");
        assert_eq!(
            r.links(1),
            &[(0, cost(1, 0)), (2, cost(1, 2)), (3, cost(1, 3))]
        );
        assert_eq!(r.round(1, true), Some(vec![0, 2, 3]));
        assert!(r.readmit(2, 0).is_none(), "0 is 20 m from 2");
        // A restart keeps only the measured links to live stations.
        assert!(r.restart(3, &[true, true, false, true]).is_some());
        assert_eq!(r.round(3, true), Some(vec![1]));
        let (mut table, ..) = line(RouteMode::Centralized);
        assert!(table.relink(&alive, &heal).is_empty());
        assert!(!table.missed_relink(0));
        assert!(table.restart(3, &alive).is_none());
    }
}
