//! The adversary runtime: the E8 attacks of a [`FaultPlan`] while they
//! are on — jam windows, geographic partitions, Byzantine stations and
//! budget-limited reactive jammers.
//!
//! The simulator runs them through a crate-private [`Adversary`] that
//! owns their runtime state: the partition's shadowing-cut overlay
//! (wired into the gain model at build), the emissions on the air, the
//! open Byzantine windows, and the air time each armed reactive jammer
//! has spent. Everything else about an attack (its station, arm time,
//! power, budget, duty cap or Byzantine mode) is read from its plan
//! entry, the one copy. The simulator calls the hooks as attacks start
//! and end, as a violator's cadence steps, as a distance vector goes on
//! the air and as each transmission starts; they report what the event
//! loop must do next.

use crate::config::NetConfig;
use crate::faults::{ByzMode, FaultEvent, FaultKind, FaultPlan};
use crate::metrics::Metrics;
use parn_phys::partition::{GeoCut, PartitionOverlay};
use parn_phys::sinr::{SinrTracker, TxId};
use parn_phys::{GainModel, PowerW, StationId};
use parn_sim::{Duration, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The attacks of one run that are on.
#[derive(Default)]
pub(crate) struct Adversary {
    /// Shadowing-cut overlay over the gain model: present only when the
    /// construction-time plan contains a partition fault, and transparent
    /// until a cut activates, so plans without partitions run on the bare
    /// model bit for bit.
    partition: Option<Arc<PartitionOverlay>>,
    /// Adversarial emissions on the air, keyed by plan index: jam windows
    /// and violators' rogue bursts.
    emissions: BTreeMap<usize, TxId>,
    /// Open Byzantine windows, by plan index.
    byzantine: BTreeSet<usize>,
    /// Armed reactive jammers, by plan index: the jam air time each has
    /// spent. Its budget left is its plan budget minus this.
    reactive: BTreeMap<usize, Duration>,
}

fn has_partition(plan: &FaultPlan) -> bool {
    plan.events
        .iter()
        .any(|e| matches!(e.kind, FaultKind::Partition { .. }))
}

impl Adversary {
    /// The runtime for `plan` over `gains`, with the gain model the rest
    /// of the network must use: a plan containing a partition wraps
    /// `gains` in the shadowing-cut overlay.
    pub(crate) fn new(
        plan: &FaultPlan,
        gains: Arc<dyn GainModel>,
    ) -> (Adversary, Arc<dyn GainModel>) {
        let partition =
            has_partition(plan).then(|| Arc::new(PartitionOverlay::new(Arc::clone(&gains))));
        let gains = match &partition {
            Some(p) => Arc::clone(p) as Arc<dyn GainModel>,
            None => gains,
        };
        let adversary = Adversary {
            partition,
            ..Adversary::default()
        };
        (adversary, gains)
    }

    /// Panics unless `plan` may replace the construction-time plan:
    /// partition faults must already have been in that one, because the
    /// overlay is wired into the gain model (and the SINR tracker holding
    /// it) at build.
    pub(crate) fn check_plan(&self, plan: &FaultPlan) {
        assert!(
            self.partition.is_some() || !has_partition(plan),
            "partition faults must be present in the plan at Network::new \
             (the gain overlay is wired at build time)"
        );
    }

    /// Plan entry `ev`, at `index`, starts. Attacks go on the air, cut
    /// the gain field or arm; other kinds are not the adversary's.
    /// Returns whether a violator window opened, whose cadence the caller
    /// starts.
    pub(crate) fn start(
        &mut self,
        index: usize,
        ev: &FaultEvent,
        tracker: &mut SinrTracker,
    ) -> bool {
        match ev.kind {
            FaultKind::Jam { power, .. } => {
                self.emissions
                    .insert(index, tracker.start_jammer(ev.station, power));
            }
            FaultKind::Partition {
                axis,
                offset,
                atten_db,
                ..
            } => {
                let overlay = self
                    .partition
                    .as_ref()
                    .expect("partition fault without overlay (set_fault_plan checks this)");
                overlay.activate(index, GeoCut { axis, offset }, 10f64.powf(-atten_db / 10.0));
                // Gains changed under live receptions and far-field
                // snapshots: re-derive everything gain-dependent.
                tracker.gains_changed();
            }
            FaultKind::Byzantine { mode, .. } => {
                self.byzantine.insert(index);
                return mode == ByzMode::Violator;
            }
            FaultKind::ReactiveJam { .. } => {
                self.reactive.insert(index, Duration::ZERO);
            }
            FaultKind::Crash | FaultKind::CrashRecover { .. } | FaultKind::ClockJump { .. } => {}
        }
        false
    }

    /// Timed attack `index` ends at `now`: a jam or Byzantine window
    /// closes, silencing whatever it still has on the air (the station
    /// reverts to honest behaviour), or a partition's cut lifts and the
    /// severed gains return. Returns whether a partition healed. Healing
    /// the routes is the protocols' job from there: the oracle reroute was
    /// scheduled at prime, and local or distributed healing readmits by
    /// hearing across the restored links.
    pub(crate) fn end(
        &mut self,
        index: usize,
        kind: FaultKind,
        now: Time,
        tracker: &mut SinrTracker,
        metrics: &mut Metrics,
    ) -> bool {
        if let FaultKind::Partition { .. } = kind {
            let Some(overlay) = &self.partition else {
                return false;
            };
            overlay.deactivate(index);
            tracker.gains_changed();
            metrics.partitions_healed += 1;
            metrics
                .partition_healed_at
                .add(now.since(Time::ZERO).as_secs_f64());
            parn_sim::counter_inc!("core.partitions_healed");
            return true;
        }
        self.byzantine.remove(&index);
        if let Some(tx) = self.emissions.remove(&index) {
            tracker.end_transmission(tx);
        }
        false
    }

    /// Whether station `s` is inside an open poisoner window: it then
    /// underbids every destination in the vectors it advertises.
    pub(crate) fn poisoning(&self, plan: &FaultPlan, s: StationId) -> bool {
        self.byzantine.iter().any(|&i| {
            let ev = &plan.events[i];
            ev.station == s
                && matches!(
                    ev.kind,
                    FaultKind::Byzantine {
                        mode: ByzMode::Poisoner,
                        ..
                    }
                )
        })
    }

    /// One step of violator `index`'s rogue cadence. An `on` step puts an
    /// out-of-window emission at `power()` on the air (none at zero: a
    /// dark station, or one without routing neighbours); an off step
    /// silences it. Returns how long until the next step, or `None` once
    /// the window has closed (its end already silenced any live burst).
    pub(crate) fn violator_step(
        &mut self,
        cfg: &NetConfig,
        index: usize,
        on: bool,
        power: impl FnOnce() -> f64,
        tracker: &mut SinrTracker,
    ) -> Option<Duration> {
        if !self.byzantine.contains(&index) {
            return None;
        }
        if !on {
            if let Some(tx) = self.emissions.remove(&index) {
                tracker.end_transmission(tx);
            }
            // Next rogue burst every fourth slot: frequent enough to
            // collide with scheduled receptions, sparse enough not to
            // degenerate into a plain continuous jammer.
            return Some(Duration(cfg.sched.slot.ticks().max(1) * 4));
        }
        let p = power();
        if p > 0.0 {
            let s = cfg.faults.events[index].station;
            self.emissions
                .insert(index, tracker.start_violator(s, PowerW(p)));
        }
        // The burst lasts one packet air time.
        Some(cfg.packet_airtime())
    }

    /// A transmission from `sender` at `p_tx` goes on the air at `now`.
    /// Every armed reactive jammer whose sensor hears it above the
    /// thermal floor fires one burst of jam air time against it, if its
    /// budget left covers the burst and its duty cap (jam time at most
    /// `duty` × time since arming) permits. Each burst is counted, with
    /// its air time, in `metrics`. Returns the anchor of each jammer that
    /// fires, in plan order, for the caller to put its burst on the air.
    pub(crate) fn react(
        &mut self,
        cfg: &NetConfig,
        gains: &dyn GainModel,
        sender: StationId,
        p_tx: PowerW,
        now: Time,
        metrics: &mut Metrics,
    ) -> Vec<StationId> {
        let mut fired = Vec::new();
        if self.reactive.is_empty() {
            return fired;
        }
        let airtime = cfg.packet_airtime();
        let floor = cfg.thermal_noise.value();
        for (&index, spent) in &mut self.reactive {
            let ev = cfg.faults.events[index];
            let FaultKind::ReactiveJam { budget, duty } = ev.kind else {
                unreachable!("armed jammer {index} is not a reactive jam in the plan");
            };
            if budget.saturating_sub(*spent) < airtime {
                continue; // budget exhausted: the adversary is spent
            }
            let sensed = gains.gain(ev.station, sender).apply(p_tx).value();
            if ev.station == sender || sensed <= floor {
                continue; // can't hear the sender (or it IS the sender)
            }
            let elapsed = now.since(Time::ZERO + ev.at) + airtime;
            let spent_after = *spent + airtime;
            if spent_after.as_secs_f64() > duty * elapsed.as_secs_f64() {
                continue; // duty cap: stay quiet until it amortizes
            }
            *spent = spent_after;
            metrics.reactive_jams += 1;
            metrics.jam_budget_spent_s += airtime.as_secs_f64();
            parn_sim::counter_inc!("core.reactive_jams");
            fired.push(ev.station);
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parn_phys::propagation::FreeSpace;
    use parn_phys::{GainMatrix, Point};

    /// Three stations 5 m apart on a line, and a tracker over them.
    fn air(cfg: &NetConfig) -> (Arc<dyn GainModel>, SinrTracker) {
        let pts = [0.0, 5.0, 10.0].map(|x| Point::new(x, 0.0));
        let gains: Arc<dyn GainModel> = Arc::new(GainMatrix::build(&pts, &FreeSpace::unit()));
        let tracker = SinrTracker::new(Arc::clone(&gains), cfg.thermal_noise, cfg.self_gain);
        (gains, tracker)
    }

    #[test]
    fn a_reactive_jammer_fires_within_its_budget_and_duty_cap() {
        let mut cfg = NetConfig::paper_default(3, 1);
        let airtime = cfg.packet_airtime();
        cfg.faults = FaultPlan::none().reactive_jam(Duration::ZERO, 0, airtime + airtime, 0.5);
        let (gains, mut tracker) = air(&cfg);
        let mut adversary = Adversary::default();
        let mut m = Metrics::new(3);
        assert!(!adversary.start(0, &cfg.faults.events[0], &mut tracker));
        let p = PowerW(1e-3);
        let react = |a: &mut Adversary, sender, now, m: &mut Metrics| {
            a.react(&cfg, &*gains, sender, p, now, m)
        };
        let t = |k: u64| Time::ZERO + airtime * k;
        // The anchor does not jam its own transmission.
        assert!(react(&mut adversary, 0, t(0), &mut m).is_empty());
        // Duty 0.5: one burst per two air times since arming.
        assert_eq!(react(&mut adversary, 1, t(1), &mut m), vec![0]);
        assert!(react(&mut adversary, 2, t(1), &mut m).is_empty());
        assert_eq!(react(&mut adversary, 2, t(3), &mut m), vec![0]);
        // The budget of two bursts is spent.
        assert!(react(&mut adversary, 1, t(9), &mut m).is_empty());
        assert_eq!(m.reactive_jams, 2);
        assert_eq!(m.jam_budget_spent_s, 2.0 * airtime.as_secs_f64());
    }

    #[test]
    fn a_violator_emits_only_while_its_window_is_open() {
        let mut cfg = NetConfig::paper_default(3, 1);
        let for_ = Duration::from_secs(1);
        cfg.faults = FaultPlan::none().byzantine(Duration::ZERO, 1, ByzMode::Violator, for_);
        let (_, mut tracker) = air(&cfg);
        let mut adversary = Adversary::default();
        let ev = cfg.faults.events[0];
        assert!(
            adversary.start(0, &ev, &mut tracker),
            "a violator window opens"
        );
        assert!(!adversary.poisoning(&cfg.faults, 1));
        let on = adversary.violator_step(&cfg, 0, true, || 1e-3, &mut tracker);
        assert_eq!(on, Some(cfg.packet_airtime()));
        assert_eq!(adversary.emissions.len(), 1);
        let gap = adversary.violator_step(&cfg, 0, false, || unreachable!(), &mut tracker);
        assert_eq!(gap, Some(cfg.sched.slot * 4));
        assert!(adversary.emissions.is_empty());
        let mut m = Metrics::new(3);
        assert!(!adversary.end(0, ev.kind, Time::ZERO + for_, &mut tracker, &mut m));
        assert_eq!(
            adversary.violator_step(&cfg, 0, true, || 1e-3, &mut tracker),
            None
        );
        assert!(adversary.emissions.is_empty());
    }
}
