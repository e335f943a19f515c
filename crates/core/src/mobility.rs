//! Station mobility and membership churn.
//!
//! Shepard's network is built from stations that users buy, install,
//! carry around, and unplug — topology is *dynamic*, not a one-shot
//! placement. This module describes that dynamism as configuration, and
//! runs the motion itself through a crate-private runtime that owns the
//! `"mobility"` stream, the waypoint targets and the step rule:
//!
//! * a [`MobilityConfig`] selects a [`MobilityModel`] (random waypoint
//!   or bounded random walk) and the motion-epoch cadence. All motion
//!   randomness comes from a dedicated `"mobility"` RNG substream, so a
//!   run with mobility disabled draws exactly the same numbers from
//!   every other stream as before — the golden byte-identity property.
//! * a [`ChurnPlan`] is a deterministic, fully serializable script of
//!   [`ChurnEvent`]s: stations *leaving* (cleanly powering down, with
//!   an optional timed return at the same position) and *joining* (a
//!   previously departed station reappearing at a new position). Like
//!   [`FaultPlan`](crate::faults::FaultPlan), plans are data — the same
//!   plan produces the same membership trajectory on every PHY backend
//!   and thread count.
//!
//! The station id space is fixed at construction: a join re-admits a
//! departed id rather than growing the network. That keeps every
//! per-station array, the gain backend, and the conservation ledger
//! index-stable through arbitrary churn.

use parn_phys::{GainModel, Point, StationId};
use parn_sim::json::{obj, Json};
use parn_sim::{Duration, Rng};

/// How stations move between motion epochs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MobilityModel {
    /// Random waypoint: each station picks a target uniform in the
    /// deployment disk and moves straight toward it at `speed`;
    /// on arrival it immediately draws the next target.
    RandomWaypoint {
        /// Constant station speed (m/s).
        speed: f64,
    },
    /// Bounded random walk: each epoch the station steps `speed × dt`
    /// in a fresh uniform-random direction; steps that would exit the
    /// deployment disk are clamped back to its boundary.
    RandomWalk {
        /// Constant station speed (m/s).
        speed: f64,
    },
}

impl MobilityModel {
    /// The model's constant speed (m/s).
    pub fn speed(&self) -> f64 {
        match *self {
            MobilityModel::RandomWaypoint { speed } | MobilityModel::RandomWalk { speed } => speed,
        }
    }

    /// Short machine-readable tag (used in traces and JSON).
    pub fn tag(&self) -> &'static str {
        match self {
            MobilityModel::RandomWaypoint { .. } => "random_waypoint",
            MobilityModel::RandomWalk { .. } => "random_walk",
        }
    }
}

/// Continuous station motion, discretized into epochs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MobilityConfig {
    /// The motion model.
    pub model: MobilityModel,
    /// Interval between motion epochs: every `epoch`, each alive
    /// station advances along its model and the PHY relocates it.
    pub epoch: Duration,
}

impl MobilityConfig {
    /// Pedestrian-flavoured default: 1.5 m/s random waypoint, advanced
    /// every 200 ms (0.3 m per epoch — well under the 10 m
    /// characteristic distance, so gains drift smoothly).
    pub fn paper_default() -> MobilityConfig {
        MobilityConfig {
            model: MobilityModel::RandomWaypoint { speed: 1.5 },
            epoch: Duration::from_millis(200),
        }
    }

    /// Basic sanity: positive finite speed, nonzero epoch.
    pub fn validate(&self) -> Result<(), String> {
        let v = self.model.speed();
        if !v.is_finite() || v < 0.0 {
            return Err(format!("mobility: bad speed {v}"));
        }
        if self.epoch == Duration::ZERO {
            return Err("mobility: zero epoch".into());
        }
        Ok(())
    }

    /// Provenance serialization (see `NetConfig::to_json`).
    pub fn to_json(&self) -> Json {
        obj([
            ("model", self.model.tag().into()),
            ("speed_mps", self.model.speed().into()),
            ("epoch_s", self.epoch.as_secs_f64().into()),
        ])
    }
}

/// What happens to a station at a churn event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnKind {
    /// The station cleanly powers down. With `for_ = Some(d)` it powers
    /// back up `d` later *at the same position* (a timed outage); with
    /// `None` it stays gone until (at most) an explicit
    /// [`ChurnKind::Join`] re-admits it elsewhere.
    Leave {
        /// Optional timed return.
        for_: Option<Duration>,
    },
    /// A previously departed station reappears at `pos` with fresh
    /// volatile state (new clock, new schedule), exactly like a reboot
    /// at a new location. Only valid after a permanent `Leave` of the
    /// same station.
    Join {
        /// Where the station comes back up.
        pos: Point,
    },
}

impl ChurnKind {
    /// Short machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            ChurnKind::Leave { .. } => "leave",
            ChurnKind::Join { .. } => "join",
        }
    }
}

/// One scheduled membership change: `kind` applies to `station` at
/// `at` (simulation time, relative to the start of the run).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnEvent {
    /// When the change happens.
    pub at: Duration,
    /// The station joining or leaving.
    pub station: usize,
    /// What happens.
    pub kind: ChurnKind,
}

/// A deterministic script of join/leave events.
///
/// Build one explicitly with the chainable constructors or
/// pseudo-randomly (but reproducibly) via [`ChurnPlan::generate`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnPlan {
    /// The scheduled events, in authored order (the simulator's event
    /// queue orders them by time with deterministic FIFO tie-breaking).
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// The empty plan (no churn — the default).
    pub fn none() -> ChurnPlan {
        ChurnPlan { events: Vec::new() }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Append an arbitrary churn event.
    pub fn with(mut self, at: Duration, station: usize, kind: ChurnKind) -> ChurnPlan {
        self.events.push(ChurnEvent { at, station, kind });
        self
    }

    /// Append a permanent departure.
    pub fn leave(self, at: Duration, station: usize) -> ChurnPlan {
        self.with(at, station, ChurnKind::Leave { for_: None })
    }

    /// Append a timed outage: down at `at`, back `for_` later at the
    /// same position.
    pub fn leave_for(self, at: Duration, station: usize, for_: Duration) -> ChurnPlan {
        self.with(at, station, ChurnKind::Leave { for_: Some(for_) })
    }

    /// Append a re-admission of a departed station at `pos`.
    pub fn join(self, at: Duration, station: usize, pos: Point) -> ChurnPlan {
        self.with(at, station, ChurnKind::Join { pos })
    }

    /// Generate a reproducible pseudo-random plan of `count` events over
    /// `n` stations within `(0.05, 0.95) × horizon`, positions drawn
    /// uniform in the radius-`region_radius` deployment disk.
    ///
    /// The generator walks the drawn times in order and keeps per-station
    /// presence consistent: a present station can leave (half the time
    /// with a timed return), an absent one can be re-admitted at a fresh
    /// position. Deterministic in all four arguments and independent of
    /// every other RNG stream in the simulator.
    pub fn generate(
        seed: u64,
        n: usize,
        count: usize,
        horizon: Duration,
        region_radius: f64,
    ) -> ChurnPlan {
        let mut rng = Rng::new(seed).substream("churnplan");
        let h = horizon.as_secs_f64();
        let mut times: Vec<f64> = (0..count).map(|_| rng.range_f64(0.05, 0.95) * h).collect();
        times.sort_by(f64::total_cmp);
        // present[s]: station is up right now; busy_until[s]: absolute
        // time before which the station is reserved by a pending timed
        // return and must not be touched again.
        let mut present = vec![true; n];
        let mut busy_until = vec![0.0f64; n];
        let mut plan = ChurnPlan::none();
        for t in times {
            // Bounded retry keeps generation O(count): with few stations
            // mid-outage, a free one is found almost immediately.
            let mut chosen = None;
            for _ in 0..32 {
                let s = rng.below(n as u64) as usize;
                if busy_until[s] <= t {
                    chosen = Some(s);
                    break;
                }
            }
            let Some(s) = chosen else { continue };
            let at = Duration::from_secs_f64(t);
            if present[s] {
                if rng.below(2) == 0 {
                    // Timed outage, capped so the return lands in-run.
                    let d = rng.range_f64(0.02, 0.20) * h;
                    let d = d.min(0.98 * h - t).max(0.001 * h);
                    plan = plan.leave_for(at, s, Duration::from_secs_f64(d));
                    busy_until[s] = t + d;
                } else {
                    plan = plan.leave(at, s);
                    present[s] = false;
                }
            } else {
                plan = plan.join(at, s, uniform_in_disk(&mut rng, region_radius));
                present[s] = true;
            }
        }
        plan
    }

    /// Check the plan against a network of `n` stations: indices in
    /// range, durations positive, and per-station event sequences
    /// consistent (time-ordered per station; `Join` only after a
    /// permanent `Leave`; no event touching a station while a timed
    /// outage is still pending).
    pub fn validate(&self, n: usize) -> Result<(), String> {
        // Per-station walk in time order (stable for ties: authored
        // order — the event queue's FIFO tie-break).
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| self.events[a].at.cmp(&self.events[b].at).then(a.cmp(&b)));
        let mut present = vec![true; n];
        let mut busy_until = vec![Duration::ZERO; n];
        for &i in &order {
            let ev = &self.events[i];
            if ev.station >= n {
                return Err(format!(
                    "churn #{i}: station {} out of range (n = {n})",
                    ev.station
                ));
            }
            let s = ev.station;
            if ev.at < busy_until[s] {
                return Err(format!(
                    "churn #{i}: station {s} still mid-outage at {:?}",
                    ev.at
                ));
            }
            match ev.kind {
                ChurnKind::Leave { for_ } => {
                    if !present[s] {
                        return Err(format!("churn #{i}: station {s} left twice"));
                    }
                    match for_ {
                        Some(d) if d == Duration::ZERO => {
                            return Err(format!("churn #{i}: zero outage"));
                        }
                        Some(d) => busy_until[s] = ev.at + d,
                        None => present[s] = false,
                    }
                }
                ChurnKind::Join { pos } => {
                    if present[s] {
                        return Err(format!("churn #{i}: station {s} joined while present"));
                    }
                    if !pos.x.is_finite() || !pos.y.is_finite() {
                        return Err(format!("churn #{i}: non-finite join position"));
                    }
                    present[s] = true;
                }
            }
        }
        Ok(())
    }

    /// Full plan as JSON (array of event objects) — embedded into
    /// `NetConfig::to_json` so artifacts carry their exact churn script.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.events
                .iter()
                .map(|ev| {
                    let mut fields: Vec<(String, Json)> = vec![
                        ("at_s".into(), Json::from(ev.at.as_secs_f64())),
                        ("station".into(), Json::from(ev.station as u64)),
                        ("kind".into(), Json::from(ev.kind.tag())),
                    ];
                    match ev.kind {
                        ChurnKind::Leave { for_ } => {
                            fields.push((
                                "for_s".into(),
                                match for_ {
                                    None => Json::Null,
                                    Some(d) => d.as_secs_f64().into(),
                                },
                            ));
                        }
                        ChurnKind::Join { pos } => {
                            fields.push(("x_m".into(), pos.x.into()));
                            fields.push(("y_m".into(), pos.y.into()));
                        }
                    }
                    Json::Obj(fields)
                })
                .collect(),
        )
    }
}

/// The motion runtime of a run with a mobility model: the `"mobility"`
/// RNG substream, the waypoint targets and the step rule. It is built
/// only when a model is set, so static runs draw nothing from the stream.
pub(crate) struct Motion {
    cfg: MobilityConfig,
    rng: Rng,
    /// Deployment-disk radius: waypoint draws and the walk's rim.
    radius: f64,
    /// Random-waypoint targets. Each station starts "at" its own
    /// position, so the first epoch draws a fresh target.
    targets: Vec<Point>,
}

impl Motion {
    /// Motion under `cfg` for stations starting at `positions` in the
    /// disk of radius `radius`.
    pub(crate) fn new(cfg: MobilityConfig, rng: Rng, positions: &[Point], radius: f64) -> Motion {
        Motion {
            cfg,
            rng,
            radius,
            targets: positions.to_vec(),
        }
    }

    /// Interval between motion epochs.
    pub(crate) fn epoch(&self) -> Duration {
        self.cfg.epoch
    }

    /// One epoch: every `alive` station advances from its position in
    /// `gains` along the model. Returns the stations that moved, in
    /// ascending id order, and where they moved to.
    pub(crate) fn step(
        &mut self,
        gains: &dyn GainModel,
        alive: &[bool],
    ) -> (Vec<StationId>, Vec<Point>) {
        let dt = self.cfg.epoch.as_secs_f64();
        let mut movers = Vec::new();
        let mut dests = Vec::new();
        for s in (0..alive.len()).filter(|&s| alive[s]) {
            let p = gains.position(s);
            let to = match self.cfg.model {
                MobilityModel::RandomWaypoint { speed } => {
                    let step = speed * dt;
                    let target = self.targets[s];
                    let (dx, dy) = (target.x - p.x, target.y - p.y);
                    let dist = dx.hypot(dy);
                    if dist <= step {
                        // Arrived: land on the waypoint (the leftover step
                        // is the model's dwell) and draw the next leg's
                        // target for the following epoch.
                        self.targets[s] = uniform_in_disk(&mut self.rng, self.radius);
                        target
                    } else {
                        Point::new(p.x + dx / dist * step, p.y + dy / dist * step)
                    }
                }
                MobilityModel::RandomWalk { speed } => {
                    let theta = self.rng.next_f64() * std::f64::consts::TAU;
                    let step = speed * dt;
                    let (x, y) = (p.x + step * theta.cos(), p.y + step * theta.sin());
                    let r = x.hypot(y);
                    if r > self.radius {
                        // Bounded walk: radial clamp to the region rim.
                        let f = self.radius / r;
                        Point::new(x * f, y * f)
                    } else {
                        Point::new(x, y)
                    }
                }
            };
            if to != p {
                movers.push(s);
                dests.push(to);
            }
        }
        (movers, dests)
    }

    /// Station `s` (re)appears at `pos`; under random waypoint its next
    /// epoch draws a fresh target from there.
    pub(crate) fn place(&mut self, s: StationId, pos: Point) {
        self.targets[s] = pos;
    }
}

/// Uniform draw in the origin-centered disk of radius `r` (r√u is the
/// correct radial CDF inverse; θ uniform).
pub fn uniform_in_disk(rng: &mut Rng, r: f64) -> Point {
    let rad = r * rng.next_f64().sqrt();
    let theta = rng.next_f64() * std::f64::consts::TAU;
    Point::new(rad * theta.cos(), rad * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_and_serializes() {
        let c = MobilityConfig::paper_default();
        assert!(c.validate().is_ok());
        let s = c.to_json().to_string();
        assert!(s.contains("\"model\":\"random_waypoint\""), "{s}");
        assert!(s.contains("\"speed_mps\":1.5"), "{s}");
        assert!(s.contains("\"epoch_s\":0.2"), "{s}");
        let bad = MobilityConfig {
            model: MobilityModel::RandomWalk { speed: f64::NAN },
            epoch: Duration::from_millis(100),
        };
        assert!(bad.validate().is_err());
        let zero = MobilityConfig {
            model: MobilityModel::RandomWalk { speed: 1.0 },
            epoch: Duration::ZERO,
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn churn_builders_compose_and_validate() {
        let p = ChurnPlan::none()
            .leave_for(Duration::from_secs(1), 2, Duration::from_secs(1))
            .leave(Duration::from_secs(3), 4)
            .join(Duration::from_secs(5), 4, Point::new(3.0, -2.0));
        assert_eq!(p.len(), 3);
        assert!(p.validate(6).is_ok());
        assert!(p.validate(3).is_err()); // station 4 out of range
    }

    #[test]
    fn validate_rejects_inconsistent_sequences() {
        // Join without a prior permanent leave.
        let p = ChurnPlan::none().join(Duration::from_secs(1), 0, Point::new(0.0, 0.0));
        assert!(p.validate(4).is_err());
        // Double permanent leave.
        let p = ChurnPlan::none()
            .leave(Duration::from_secs(1), 0)
            .leave(Duration::from_secs(2), 0);
        assert!(p.validate(4).is_err());
        // Touching a station mid-outage.
        let p = ChurnPlan::none()
            .leave_for(Duration::from_secs(1), 0, Duration::from_secs(5))
            .leave(Duration::from_secs(2), 0);
        assert!(p.validate(4).is_err());
        // Zero outage.
        let p = ChurnPlan::none().leave_for(Duration::from_secs(1), 0, Duration::ZERO);
        assert!(p.validate(4).is_err());
        // Out-of-order authored events are fine as long as the timeline
        // is consistent.
        let p = ChurnPlan::none()
            .join(Duration::from_secs(5), 0, Point::new(1.0, 1.0))
            .leave(Duration::from_secs(1), 0);
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn generate_is_deterministic_and_valid() {
        let a = ChurnPlan::generate(7, 40, 30, Duration::from_secs(10), 35.0);
        let b = ChurnPlan::generate(7, 40, 30, Duration::from_secs(10), 35.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.validate(40).is_ok(), "{:?}", a.validate(40));
        let c = ChurnPlan::generate(8, 40, 30, Duration::from_secs(10), 35.0);
        assert_ne!(a, c);
        // Over enough draws both kinds appear.
        let has = |f: fn(&ChurnKind) -> bool| a.events.iter().any(|ev| f(&ev.kind));
        assert!(has(|k| matches!(k, ChurnKind::Leave { .. })));
    }

    #[test]
    fn generated_joins_land_in_the_disk() {
        let p = ChurnPlan::generate(3, 20, 60, Duration::from_secs(20), 25.0);
        assert!(p.validate(20).is_ok());
        for ev in &p.events {
            if let ChurnKind::Join { pos } = ev.kind {
                assert!(pos.x.hypot(pos.y) <= 25.0 + 1e-9);
            }
        }
    }

    #[test]
    fn plan_json_carries_every_field() {
        let p = ChurnPlan::none()
            .leave_for(Duration::from_secs(1), 2, Duration::from_millis(500))
            .leave(Duration::from_secs(3), 4)
            .join(Duration::from_secs(5), 4, Point::new(3.0, -2.0));
        let s = p.to_json().to_string();
        assert!(s.contains("\"kind\":\"leave\""), "{s}");
        assert!(s.contains("\"for_s\":0.5"), "{s}");
        assert!(s.contains("\"for_s\":null"), "{s}");
        assert!(s.contains("\"kind\":\"join\""), "{s}");
        assert!(s.contains("\"x_m\":3.0"), "{s}");
        assert!(s.contains("\"y_m\":-2.0"), "{s}");
    }

    #[test]
    fn uniform_in_disk_stays_inside_and_fills() {
        let mut rng = Rng::new(1).substream("mobility");
        let r = 10.0;
        let mut far = 0;
        for _ in 0..500 {
            let p = uniform_in_disk(&mut rng, r);
            let d = p.x.hypot(p.y);
            assert!(d <= r + 1e-9);
            if d > 0.7 * r {
                far += 1;
            }
        }
        // Area beyond 0.7r is 51% of the disk; a uniform draw must land
        // there often (a naive r·u draw would concentrate centrally).
        assert!(far > 150, "only {far}/500 draws beyond 0.7r");
    }
}
