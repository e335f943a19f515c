//! Local failure detection: per-neighbour liveness, flap damping, the
//! eviction counts, and the outage marks behind the time-to-detect and
//! time-to-heal samples.
//!
//! Under [`HealMode::Local`], and always under distributed routing, each
//! station judges its neighbours from its own hop outcomes (implicit
//! acks) and from the last-heard gossip that hellos carry. Enough
//! consecutive failed hops make a neighbour *suspected*; staying
//! suspected past the eviction timeout *evicts* it from the observer's
//! routing view; hearing it again readmits it everywhere, unless flap
//! damping holds an observer's eviction. Under oracle healing no station
//! tracks liveness, and only the outage marks are kept, for the delayed
//! global repair to close.
//!
//! The simulator runs this through a crate-private [`Heal`] that owns all
//! of that state. Its hooks return verdicts: a neighbour suspected, a
//! neighbour evicted (and whether by its first evictor), the observers a
//! readmission lifts, whether a power-down lapsed some station's last
//! eviction. The simulator takes the routing action: a distance-vector
//! link change, a rebuild of the shared table, a clock-model rendezvous.

use crate::config::{NetConfig, RouteMode};
use crate::faults::{HealConfig, HealMode};
use crate::metrics::Metrics;
use crate::vecmap::VecMap;
use parn_phys::StationId;
use parn_sim::stats::Tally;
use parn_sim::{Duration, Time};

/// One station's liveness estimate of one neighbour, built from its own
/// hop outcomes and the gossip it received, never from global state.
#[derive(Clone, Copy, Debug, Default)]
struct NeighborHealth {
    /// Consecutive failed hop attempts to this neighbour (reset when it
    /// is heard).
    consecutive_failures: u32,
    /// When suspicion started (the failure that crossed the suspect
    /// threshold). `None` while the neighbour is in good standing.
    suspected_at: Option<Time>,
    /// Whether the observer has evicted the neighbour from its routing
    /// view (cleared on readmission).
    evicted: bool,
    /// Flap-damping penalty: each eviction adds one point, and the score
    /// halves every `HealConfig::flap_half_life`. Stays 0.0 unless
    /// `HealConfig::flap_damping` is on.
    flap_penalty: f64,
    /// When `flap_penalty` was last updated (the decay reference point).
    flap_updated: Option<Time>,
}

impl NeighborHealth {
    /// The flap penalty decayed to `now`. A zero or negative half-life
    /// disables decay bookkeeping entirely (score 0).
    fn penalty(&self, now: Time, half_life: Duration) -> f64 {
        let Some(t0) = self.flap_updated else {
            return 0.0;
        };
        let hl = half_life.as_secs_f64();
        if hl <= 0.0 {
            return 0.0;
        }
        self.flap_penalty * 0.5f64.powf(now.since(t0).as_secs_f64() / hl)
    }
}

/// Who notices an outage and repairs routes around it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Repair {
    /// A global route rebuild a fixed delay after each change; no
    /// station tracks liveness.
    Oracle,
    /// Stations evict and readmit neighbours, and each change of who
    /// receives routed traffic rebuilds the shared table.
    Local,
    /// Stations evict and readmit neighbours in their own
    /// distance-vector state.
    Distributed,
}

/// What one more failed hop did to the sender's view of its next hop.
pub(crate) enum HopVerdict {
    /// Nothing to act on.
    Unchanged,
    /// The next hop just became suspected.
    Suspected,
    /// The sender evicted its next hop. `first` when no other live
    /// station held it evicted: the network's detection moment.
    Evicted {
        /// Whether this is the next hop's only standing eviction.
        first: bool,
    },
}

/// Liveness tracking, eviction and the outage marks of one run.
pub(crate) struct Heal {
    cfg: HealConfig,
    repair: Repair,
    /// Per observer: its estimate of each neighbour it has judged. Empty,
    /// with no entry per station, when liveness is not tracked.
    health: Vec<VecMap<StationId, NeighborHealth>>,
    /// Per observer: when it last heard each other station, directly
    /// (any reception or implicit ack) or through hello gossip. Empty like
    /// `health` when liveness is not tracked.
    last_heard: Vec<VecMap<StationId, Time>>,
    /// How many live stations hold each station evicted. A station with
    /// a nonzero count receives no routed traffic.
    evicted_by: Vec<u32>,
    /// When each currently dark station went dark (time to detect).
    down_since: Vec<Option<Time>>,
    /// When each recovered station came back (time to heal).
    recover_mark: Vec<Option<Time>>,
}

/// Close an open outage or recovery mark at `at`, sampling its age (a
/// time to detect or to heal) into `tally`.
fn close_mark(mark: &mut Option<Time>, at: Time, tally: &mut Tally) {
    if let Some(t0) = mark.take() {
        tally.add(at.since(t0).as_secs_f64());
    }
}

impl Heal {
    /// Healing for the `n` stations of a network under `cfg`.
    pub(crate) fn new(cfg: &NetConfig, n: usize) -> Heal {
        let repair = if matches!(cfg.route_mode, RouteMode::Distributed) {
            Repair::Distributed
        } else if cfg.heal.mode == HealMode::Local {
            Repair::Local
        } else {
            Repair::Oracle
        };
        // Under oracle healing no station judges its neighbours, so the
        // per-observer maps are never filled.
        let observers = if repair == Repair::Oracle { 0 } else { n };
        Heal {
            cfg: cfg.heal,
            repair,
            health: vec![VecMap::new(); observers],
            last_heard: vec![VecMap::new(); observers],
            evicted_by: vec![0; n],
            down_since: vec![None; n],
            recover_mark: vec![None; n],
        }
    }

    /// Whether stations track their neighbours' liveness: local healing
    /// asked for it, or distributed routing needs link-failure detection
    /// whatever the heal mode.
    pub(crate) fn active(&self) -> bool {
        self.repair != Repair::Oracle
    }

    /// Whether some live station holds `s` evicted.
    pub(crate) fn evicted(&self, s: StationId) -> bool {
        self.evicted_by[s] > 0
    }

    /// A hop between `a` and `b` succeeded and was acked: each heard the
    /// other at `now`.
    pub(crate) fn hop_acked(&mut self, a: StationId, b: StationId, now: Time) {
        if self.active() {
            self.last_heard[b].insert(a, now);
            self.last_heard[a].insert(b, now);
        }
    }

    /// The last-heard gossip a hello from `s` carries: everything `s` has
    /// heard, or `None` when it has heard nothing, as always when liveness
    /// is not tracked.
    pub(crate) fn gossip(&self, s: StationId) -> Option<Vec<(StationId, Time)>> {
        let heard = self.last_heard.get(s)?;
        (!heard.is_empty()).then(|| heard.iter().map(|(&x, &t)| (x, t)).collect())
    }

    /// `observer` heard `subject`: a reception, or the implicit ack of a
    /// hop to it. Good standing is restored. Returns whether `observer`
    /// held `subject` evicted, in which case it must be readmitted.
    pub(crate) fn heard(&mut self, observer: StationId, subject: StationId) -> bool {
        let health = self.health.get_mut(observer);
        let Some(h) = health.and_then(|m| m.get_mut(&subject)) else {
            return false;
        };
        h.consecutive_failures = 0;
        h.suspected_at = None;
        h.evicted
    }

    /// Fold gossip `items` into `rx`'s own view. Adopting a newer
    /// timestamp for a suspected station counts as hearing it, but only
    /// when the evidence postdates the suspicion, so pre-crash gossip
    /// cannot resurrect a dead neighbour. Returns the stations so heard
    /// that `rx` held evicted, in gossip order.
    pub(crate) fn merge_gossip(
        &mut self,
        rx: StationId,
        items: &[(StationId, Time)],
    ) -> Vec<StationId> {
        let mut readmit = Vec::new();
        for &(x, heard) in items {
            if x == rx {
                continue;
            }
            let newer = self.last_heard[rx].get(&x).is_none_or(|&cur| heard > cur);
            if !newer {
                continue;
            }
            self.last_heard[rx].insert(x, heard);
            let clears = self.health[rx]
                .get(&x)
                .and_then(|h| h.suspected_at)
                .is_some_and(|t0| heard > t0);
            if clears && self.heard(rx, x) {
                readmit.push(x);
            }
        }
        readmit
    }

    /// One more consecutive failed hop from `s` to `nh`. Crossing
    /// `suspect_after` starts suspicion, and staying suspected past
    /// `evict_timeout` evicts the neighbour. The first eviction of a dark
    /// station closes its time-to-detect mark.
    pub(crate) fn hop_failed(
        &mut self,
        s: StationId,
        nh: StationId,
        nh_alive: bool,
        now: Time,
        metrics: &mut Metrics,
    ) -> HopVerdict {
        if !self.active() {
            return HopVerdict::Unchanged;
        }
        let cfg = self.cfg;
        let h = self.health[s].entry(nh).or_default();
        if h.evicted {
            return HopVerdict::Unchanged;
        }
        h.consecutive_failures += 1;
        if h.consecutive_failures < cfg.suspect_after {
            return HopVerdict::Unchanged;
        }
        match h.suspected_at {
            None => {
                h.suspected_at = Some(now);
                metrics.neighbors_suspected += 1;
                HopVerdict::Suspected
            }
            Some(t0) if now.since(t0) >= cfg.evict_timeout => {
                h.evicted = true;
                if cfg.flap_damping {
                    // Each eviction adds a penalty point to the decaying
                    // flap score; crossing the suppression threshold
                    // keeps the neighbour out until the score cools off.
                    h.flap_penalty = h.penalty(now, cfg.flap_half_life) + 1.0;
                    h.flap_updated = Some(now);
                }
                metrics.neighbors_evicted += 1;
                parn_sim::counter_inc!("core.neighbors_evicted");
                self.evicted_by[nh] += 1;
                let first = self.evicted_by[nh] == 1;
                if first && !nh_alive {
                    close_mark(&mut self.down_since[nh], now, &mut metrics.time_to_detect);
                }
                HopVerdict::Evicted { first }
            }
            Some(_) => HopVerdict::Unchanged,
        }
    }

    /// `subject` was heard again: the reachability update floods
    /// (modelled instantly), lifting every live station's eviction of it
    /// except those flap damping holds. Returns the observers whose
    /// eviction lifted, ascending. Under local healing, lifting the last
    /// eviction closes the subject's time-to-heal mark; under distributed
    /// routing the network's next reconvergence does.
    pub(crate) fn readmit(
        &mut self,
        subject: StationId,
        alive: &[bool],
        now: Time,
        metrics: &mut Metrics,
    ) -> Vec<StationId> {
        let cfg = self.cfg;
        let mut lifted = Vec::new();
        let mut held: u32 = 0;
        for (o, health) in self.health.iter_mut().enumerate() {
            if o == subject || !alive[o] {
                continue;
            }
            let Some(h) = health.get_mut(&subject).filter(|h| h.evicted) else {
                continue;
            };
            if cfg.flap_damping && h.penalty(now, cfg.flap_half_life) >= cfg.flap_suppress {
                // Flap damping: the neighbour was heard, but its
                // suspect→evict→readmit churn has not cooled off yet, so
                // this observer's eviction stands until the penalty
                // decays below the threshold.
                held += 1;
                continue;
            }
            h.evicted = false;
            h.consecutive_failures = 0;
            h.suspected_at = None;
            lifted.push(o);
        }
        metrics.neighbors_readmitted += lifted.len() as u64;
        metrics.readmissions_suppressed += u64::from(held);
        self.evicted_by[subject] = held;
        if held == 0 && !lifted.is_empty() && self.repair == Repair::Local {
            close_mark(
                &mut self.recover_mark[subject],
                now,
                &mut metrics.time_to_heal,
            );
        }
        lifted
    }

    /// `s` goes dark at `now`: its time-to-detect mark opens, and the
    /// evictions it held lapse with it. A station whose last eviction
    /// lapses counts as healed. Returns whether any did.
    pub(crate) fn power_down(&mut self, s: StationId, now: Time, metrics: &mut Metrics) -> bool {
        self.down_since[s] = Some(now);
        let mut lapsed = false;
        let held = self.health.get_mut(s).map(std::mem::take);
        for (nb, h) in held.into_iter().flatten() {
            if !h.evicted {
                continue;
            }
            self.evicted_by[nb] -= 1;
            if self.evicted_by[nb] == 0 {
                lapsed = true;
                close_mark(&mut self.recover_mark[nb], now, &mut metrics.time_to_heal);
            }
        }
        lapsed
    }

    /// `s` is back at `now`: its outage is over, and its time-to-heal
    /// mark opens. An oracle repair always heals it; local and
    /// distributed healing only heal what some station noticed was
    /// broken.
    pub(crate) fn power_up(&mut self, s: StationId, now: Time) {
        self.down_since[s] = None;
        self.recover_mark[s] =
            (self.repair == Repair::Oracle || self.evicted_by[s] > 0).then_some(now);
    }

    /// An oracle route repair at `now` notices every outage so far: live
    /// stations count as healed, dark ones as detected.
    pub(crate) fn oracle_repair(&mut self, alive: &[bool], now: Time, metrics: &mut Metrics) {
        for (s, &up) in alive.iter().enumerate() {
            if up {
                close_mark(&mut self.recover_mark[s], now, &mut metrics.time_to_heal);
            } else {
                close_mark(&mut self.down_since[s], now, &mut metrics.time_to_detect);
            }
        }
    }

    /// The distance-vector exchange went quiet after its last change at
    /// `at`: every live station that no one holds evicted counts as
    /// healed.
    pub(crate) fn converged(&mut self, alive: &[bool], at: Time, metrics: &mut Metrics) {
        for (s, &up) in alive.iter().enumerate() {
            if up && self.evicted_by[s] == 0 {
                close_mark(&mut self.recover_mark[s], at, &mut metrics.time_to_heal);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heal(n: usize, cfg: HealConfig, route_mode: RouteMode) -> Heal {
        let mut net = NetConfig::paper_default(n, 1);
        net.heal = cfg;
        net.route_mode = route_mode;
        Heal::new(&net, n)
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    /// `s` fails hops to `nh` at each of `times`; the last verdict.
    fn fail(h: &mut Heal, s: usize, nh: usize, times: &[u64], m: &mut Metrics) -> HopVerdict {
        let mut last = HopVerdict::Unchanged;
        for &t in times {
            last = h.hop_failed(s, nh, false, at(t), m);
        }
        last
    }

    #[test]
    fn failures_suspect_then_evict_and_the_first_eviction_detects() {
        // Local defaults: suspect after 3 failures, evict 150 ms later.
        let mut h = heal(4, HealConfig::local(), RouteMode::Centralized);
        let mut m = Metrics::new(4);
        h.power_down(2, at(0), &mut m);
        assert!(matches!(
            fail(&mut h, 0, 2, &[10, 20], &mut m),
            HopVerdict::Unchanged
        ));
        assert!(matches!(
            fail(&mut h, 0, 2, &[30], &mut m),
            HopVerdict::Suspected
        ));
        assert!(matches!(
            fail(&mut h, 0, 2, &[170], &mut m),
            HopVerdict::Unchanged
        ));
        let v = fail(&mut h, 0, 2, &[180], &mut m);
        assert!(matches!(v, HopVerdict::Evicted { first: true }));
        assert!(h.evicted(2));
        assert_eq!(m.time_to_detect.count(), 1);
        assert!((m.time_to_detect.mean() - 0.18).abs() < 1e-12);
        let v = fail(&mut h, 1, 2, &[200, 210, 220, 400], &mut m);
        assert!(matches!(v, HopVerdict::Evicted { first: false }));
        assert_eq!(
            m.time_to_detect.count(),
            1,
            "only the first eviction detects"
        );
        assert_eq!((m.neighbors_suspected, m.neighbors_evicted), (2, 2));
    }

    #[test]
    fn hearing_an_evicted_station_readmits_it_everywhere() {
        for route_mode in [RouteMode::Centralized, RouteMode::Distributed] {
            let mut h = heal(3, HealConfig::local(), route_mode.clone());
            let mut m = Metrics::new(3);
            h.power_down(2, at(0), &mut m);
            fail(&mut h, 0, 2, &[10, 20, 30, 200], &mut m);
            fail(&mut h, 1, 2, &[10, 20, 30, 200], &mut m);
            h.power_up(2, at(300));
            assert!(h.heard(1, 2), "station 1 held 2 evicted");
            assert_eq!(h.readmit(2, &[true; 3], at(400), &mut m), vec![0, 1]);
            assert!(!h.evicted(2));
            assert_eq!(m.neighbors_readmitted, 2);
            // Local healing heals at the readmission; distributed routing
            // when the exchange next goes quiet.
            let local = matches!(route_mode, RouteMode::Centralized);
            assert_eq!(m.time_to_heal.count(), u64::from(local));
            h.converged(&[true; 3], at(900), &mut m);
            assert_eq!(m.time_to_heal.count(), 1);
            let heal_s = if local { 0.1 } else { 0.6 };
            assert!((m.time_to_heal.mean() - heal_s).abs() < 1e-12);
        }
    }

    #[test]
    fn flap_damping_holds_a_quick_second_eviction() {
        let mut cfg = HealConfig::local();
        cfg.suspect_after = 1;
        cfg.evict_timeout = Duration::ZERO;
        cfg.flap_damping = true;
        cfg.flap_suppress = 1.5;
        cfg.flap_half_life = Duration::from_secs(4);
        let mut h = heal(3, cfg, RouteMode::Centralized);
        let mut m = Metrics::new(3);
        fail(&mut h, 0, 1, &[0, 0], &mut m);
        assert_eq!(h.readmit(1, &[true; 3], at(10), &mut m), vec![0]);
        // Station 0's second eviction 10 ms later scores nearly 2 points,
        // station 2's first scores 1. Station 1 reboots while evicted.
        fail(&mut h, 0, 1, &[20, 20], &mut m);
        fail(&mut h, 2, 1, &[20, 20], &mut m);
        h.power_down(1, at(25), &mut m);
        h.power_up(1, at(28));
        assert_eq!(h.readmit(1, &[true; 3], at(30), &mut m), vec![2]);
        assert!(h.evicted(1), "station 0's eviction stands");
        assert_eq!((m.neighbors_readmitted, m.readmissions_suppressed), (2, 1));
        assert_eq!(m.time_to_heal.count(), 0, "not healed while held evicted");
        // Two half-lives later the score is below 0.5 and the door opens.
        assert_eq!(h.readmit(1, &[true; 3], at(8_030), &mut m), vec![0]);
        assert!((m.time_to_heal.mean() - 8.002).abs() < 1e-9);
    }

    #[test]
    fn a_power_down_lapses_the_evictions_it_held() {
        let mut h = heal(4, HealConfig::local(), RouteMode::Centralized);
        let mut m = Metrics::new(4);
        for s in [0, 3] {
            fail(&mut h, s, 2, &[10, 20, 30, 200], &mut m);
        }
        fail(&mut h, 0, 1, &[10, 20, 30, 200], &mut m);
        assert!(
            h.power_down(0, at(300), &mut m),
            "station 1's only eviction lapses"
        );
        assert!(!h.evicted(1));
        assert!(h.evicted(2), "station 3 still holds 2 evicted");
        assert!(h.power_down(3, at(400), &mut m));
        assert!(!h.evicted(2));
    }

    #[test]
    fn oracle_healing_tracks_no_liveness_but_marks_outages() {
        let mut h = heal(2, HealConfig::oracle(), RouteMode::Centralized);
        let mut m = Metrics::new(2);
        assert!(!h.active());
        assert!(h.health.is_empty() && h.last_heard.is_empty());
        assert!(matches!(
            fail(&mut h, 0, 1, &[0, 0, 0, 500], &mut m),
            HopVerdict::Unchanged
        ));
        h.hop_acked(0, 1, at(0));
        assert!(h.gossip(0).is_none());
        h.power_down(1, at(1_000), &mut m);
        h.oracle_repair(&[true, false], at(1_500), &mut m);
        h.power_up(1, at(2_000));
        h.oracle_repair(&[true, true], at(2_250), &mut m);
        assert!((m.time_to_detect.mean() - 0.5).abs() < 1e-12);
        assert!((m.time_to_heal.mean() - 0.25).abs() < 1e-12);
    }
}
