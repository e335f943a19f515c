//! Composable traffic models: who sends *when* ([`SourceModel`]) and
//! *to whom* ([`DestPolicy`]).
//!
//! A [`TrafficConfig`] pairs one of each with a mean per-station arrival
//! rate. Every random choice the models imply is drawn from the
//! simulator's dedicated `"traffic"` RNG substream, so two runs that
//! differ only in traffic knobs still place stations, draw clocks, and
//! schedule faults identically — and a run with all knobs at their
//! defaults (`Poisson` + `UniformAll`) is bit-identical to runs from
//! before these models existed.
//!
//! The non-default models exist to stress the network past the polite
//! regime the paper's examples live in:
//!
//! * [`DestPolicy::Gravity`] sends traffic across the metro (mean hop
//!   count well above 1), exercising relaying and the §6.2 routes;
//! * [`DestPolicy::Hotspot`] concentrates load on a few popular sinks,
//!   exercising the queueing and protected-set machinery around them;
//! * [`SourceModel::OnOff`] clumps arrivals into bursts at the same mean
//!   rate, exercising queue depth rather than steady-state throughput.
//!
//! The simulator runs the configured pair through a crate-private
//! generator that owns the RNG stream and every piece of per-policy
//! state: the receive mask, the flow lists, the gravity sampler, the
//! hotspot weights and the on-off phases.

use parn_phys::{GainModel, GravitySampler, Point, StationId};
use parn_route::RouteTable;
use parn_sim::json::obj;
use parn_sim::{Duration, Json, Rng, Time};

/// How packet destinations are drawn for each generated packet.
///
/// ```
/// use parn_core::DestPolicy;
/// // The four shipping policies (plus explicit flow lists):
/// let _uniform = DestPolicy::UniformAll;
/// let _local = DestPolicy::Neighbors;
/// let _metro = DestPolicy::Gravity { exponent: 2.0 };
/// let _sinks = DestPolicy::Hotspot { sinks: 4, skew: 1.0 };
/// let _pinned = DestPolicy::Flows(vec![(0, 9), (3, 7)]);
/// ```
#[derive(Clone, Debug)]
pub enum DestPolicy {
    /// Uniformly among all other stations (multihop traffic).
    UniformAll,
    /// Uniformly among the source's routing neighbours (single-hop).
    Neighbors,
    /// A fixed list of (src, dst) flows, cycled by the generator.
    Flows(Vec<(usize, usize)>),
    /// Distance-weighted destinations: `P(dst) ∝ d(src, dst)^(-exponent)`.
    /// `exponent = 0` is uniform-in-area, `2` the classic gravity model
    /// (most flows local, a heavy tail crossing the metro), larger values
    /// ever more local. Sampled in O(1) per packet against the spatial
    /// index (`parn_phys::GravitySampler`), so it scales to 10⁵ stations.
    Gravity {
        /// Distance-weighting exponent α ≥ 0.
        exponent: f64,
    },
    /// A few popular destinations ("sinks") attract all traffic: sink `k`
    /// (the stations with ids `0..sinks`) is chosen with probability
    /// `∝ (k+1)^(-skew)`. `skew = 0` spreads load evenly over the sinks;
    /// larger values Zipf-concentrate it on the first few.
    Hotspot {
        /// Number of sink stations (ids `0..sinks`); clamped to the
        /// network size at build time. At least 1.
        sinks: usize,
        /// Zipf skew across the sinks, ≥ 0.
        skew: f64,
    },
}

/// How packet arrival *instants* are drawn at each station.
///
/// ```
/// use parn_core::SourceModel;
/// let steady = SourceModel::Poisson;
/// // Bursty on-off: 0.5 s talk spurts separated by 1.5 s of silence.
/// let bursty = SourceModel::OnOff { on_mean_s: 0.5, off_mean_s: 1.5 };
/// // Both models carry the same mean rate; the burst compresses it 4×
/// // into the on-periods.
/// assert_eq!(steady.peak_rate(2.0), 2.0);
/// assert_eq!(bursty.peak_rate(2.0), 8.0);
/// ```
#[derive(Clone, Debug)]
pub enum SourceModel {
    /// Memoryless Poisson arrivals at the configured mean rate — the
    /// default, and the model every pre-existing experiment ran.
    Poisson,
    /// Two-state MMPP (on-off) bursts: each station alternates between
    /// exponentially distributed on- and off-periods, generating Poisson
    /// arrivals only while on, at a rate inflated so the long-run mean
    /// matches the configured rate (see [`peak_rate`](Self::peak_rate)).
    OnOff {
        /// Mean duration of an on (bursting) period, seconds, > 0.
        on_mean_s: f64,
        /// Mean duration of an off (silent) period, seconds, ≥ 0.
        off_mean_s: f64,
    },
}

impl SourceModel {
    /// The within-burst arrival rate that preserves `mean_rate` in the
    /// long run: `λ_on = λ_mean · (on + off) / on` for on-off sources,
    /// `λ_mean` itself for Poisson.
    pub fn peak_rate(&self, mean_rate: f64) -> f64 {
        match self {
            SourceModel::Poisson => mean_rate,
            SourceModel::OnOff {
                on_mean_s,
                off_mean_s,
            } => mean_rate * (on_mean_s + off_mean_s) / on_mean_s,
        }
    }

    /// Provenance serialization (part of `NetConfig::to_json`).
    pub fn to_json(&self) -> Json {
        match self {
            SourceModel::Poisson => obj([("kind", "poisson".into())]),
            SourceModel::OnOff {
                on_mean_s,
                off_mean_s,
            } => obj([
                ("kind", "on_off".into()),
                ("on_mean_s", (*on_mean_s).into()),
                ("off_mean_s", (*off_mean_s).into()),
            ]),
        }
    }
}

/// Traffic generation parameters.
///
/// ```
/// use parn_core::{DestPolicy, SourceModel, TrafficConfig};
/// // Bursty metro-crossing traffic at a mean of 4 pkt/s per station.
/// let t = TrafficConfig {
///     arrivals_per_station_per_sec: 4.0,
///     dest: DestPolicy::Gravity { exponent: 2.0 },
///     source: SourceModel::OnOff { on_mean_s: 0.5, off_mean_s: 0.5 },
/// };
/// assert_eq!(t.source.peak_rate(t.arrivals_per_station_per_sec), 8.0);
/// ```
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Mean packet arrivals per station per second (long-run mean for
    /// every source model).
    pub arrivals_per_station_per_sec: f64,
    /// Destination selection policy.
    pub dest: DestPolicy,
    /// Arrival-process model.
    pub source: SourceModel,
}

impl TrafficConfig {
    /// Provenance serialization (see `NetConfig::to_json`).
    pub fn to_json(&self) -> Json {
        let dest = match &self.dest {
            DestPolicy::UniformAll => obj([("kind", "uniform_all".into())]),
            DestPolicy::Neighbors => obj([("kind", "neighbors".into())]),
            DestPolicy::Flows(flows) => {
                obj([("kind", "flows".into()), ("count", flows.len().into())])
            }
            DestPolicy::Gravity { exponent } => {
                obj([("kind", "gravity".into()), ("exponent", (*exponent).into())])
            }
            DestPolicy::Hotspot { sinks, skew } => obj([
                ("kind", "hotspot".into()),
                ("sinks", (*sinks).into()),
                ("skew", (*skew).into()),
            ]),
        };
        obj([
            (
                "arrivals_per_station_per_sec",
                self.arrivals_per_station_per_sec.into(),
            ),
            ("dest", dest),
            ("source", self.source.to_json()),
        ])
    }
}

/// The traffic generator of one run: when each station's next packet
/// arrives and whom it addresses. It owns the `"traffic"` RNG substream,
/// and every draw comes from it in the order the event loop asks.
pub(crate) struct Traffic {
    rng: Rng,
    /// Mean arrivals per station per second.
    rate: f64,
    source: SourceModel,
    dest: Dest,
    /// Per-station on-off phase (`SourceModel::OnOff` only, else
    /// empty): whether the station is inside a talk spurt, and when the
    /// phase ends. `(false, Time::ZERO)` starts a burst at the first draw.
    phase: Vec<(bool, Time)>,
}

/// A destination policy's runtime state.
enum Dest {
    /// Uniform over the stations the source's routes reach that may
    /// receive routed traffic: the last route rebuild's receive mask,
    /// everyone's before the first.
    Reachable { receivers: Vec<bool> },
    /// Uniform over the source's fixed destinations.
    Flows(Vec<Vec<StationId>>),
    /// Uniform over the source's routing neighbours.
    Neighbors,
    /// Distance-weighted, rebuilt over the moved positions after motion
    /// with the exponent and radii kept here.
    Gravity {
        sampler: GravitySampler,
        exponent: f64,
        hop: f64,
        r_max: f64,
    },
    /// Zipf over the sinks: cumulative weights, sink `k` is station `k`.
    Hotspot(Vec<f64>),
}

impl Traffic {
    /// The generator for `cfg` over stations at `positions`, with
    /// nominal hop length `reach` and deployment-disk radius. A policy's
    /// state is built only when it is selected, so default runs draw
    /// exactly as before.
    pub(crate) fn new(
        cfg: &TrafficConfig,
        rng: Rng,
        positions: &[Point],
        reach: f64,
        region_radius: f64,
    ) -> Traffic {
        let n = positions.len();
        let dest = match &cfg.dest {
            DestPolicy::UniformAll => Dest::Reachable {
                receivers: vec![true; n],
            },
            DestPolicy::Flows(flows) => {
                let mut lists = vec![Vec::new(); n];
                for &(s, d) in flows {
                    assert!(s < n && d < n, "flow endpoint out of range");
                    lists[s].push(d);
                }
                Dest::Flows(lists)
            }
            DestPolicy::Neighbors => Dest::Neighbors,
            DestPolicy::Gravity { exponent } => {
                assert!(*exponent >= 0.0, "gravity exponent must be >= 0");
                // Radius draws span hop length → metro diameter: shorter
                // draws snap to a neighbour anyway, longer ones can't land
                // inside the placement disk.
                let r_max = (2.0 * region_radius).max(2.0 * reach);
                // Rebuilds measure the hop length back from the usable-gain
                // threshold 1/reach², which can differ from `reach` in the
                // last bit.
                let hop = 1.0 / (1.0 / (reach * reach)).sqrt();
                Dest::Gravity {
                    sampler: GravitySampler::new(positions, *exponent, reach, r_max),
                    exponent: *exponent,
                    hop,
                    r_max: (2.0 * region_radius).max(2.0 * hop),
                }
            }
            DestPolicy::Hotspot { sinks, skew } => {
                assert!(*sinks >= 1, "need at least one hotspot sink");
                assert!(*skew >= 0.0, "hotspot skew must be >= 0");
                let k = (*sinks).min(n);
                let w: Vec<f64> = (0..k).map(|i| ((i + 1) as f64).powf(-skew)).collect();
                let total: f64 = w.iter().sum();
                let mut cum = 0.0;
                Dest::Hotspot(
                    w.iter()
                        .map(|x| {
                            cum += x / total;
                            cum
                        })
                        .collect(),
                )
            }
        };
        let phase = match cfg.source {
            SourceModel::Poisson => Vec::new(),
            SourceModel::OnOff {
                on_mean_s,
                off_mean_s,
            } => {
                assert!(on_mean_s > 0.0, "on_mean_s must be > 0");
                assert!(off_mean_s >= 0.0, "off_mean_s must be >= 0");
                vec![(false, Time::ZERO); n]
            }
        };
        Traffic {
            rng,
            rate: cfg.arrivals_per_station_per_sec,
            source: cfg.source.clone(),
            dest,
            phase,
        }
    }

    /// Whether station `s` generates traffic at all, given its routing
    /// neighbours. A station routes to somebody exactly when it has a
    /// routing neighbour, the first hop of every route it has.
    pub(crate) fn has_traffic(&self, s: StationId, routing_neighbors: &[StationId]) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        match &self.dest {
            Dest::Flows(lists) => !lists[s].is_empty(),
            Dest::Reachable { .. } | Dest::Neighbors => !routing_neighbors.is_empty(),
            Dest::Gravity { .. } => true,
            // Every station sends to the sinks, except a lone sink with
            // nobody else to address.
            Dest::Hotspot(cum) => !(cum.is_empty() || (cum.len() == 1 && s == 0)),
        }
    }

    /// Time from `now` until station `s` generates its next packet.
    /// Poisson sources draw one exponential per call. On-off sources walk
    /// the station's two-state phase machine: exponential interarrivals
    /// at the inflated within-burst rate while on, skipping the off
    /// periods entirely.
    pub(crate) fn next_interarrival(&mut self, s: StationId, now: Time) -> Duration {
        let SourceModel::OnOff {
            on_mean_s,
            off_mean_s,
        } = self.source
        else {
            return Duration::from_secs_f64(self.rng.exp(1.0 / self.rate));
        };
        let peak = self.source.peak_rate(self.rate);
        let (on, until) = &mut self.phase[s];
        let mut t = now;
        loop {
            if *on {
                let cand = t + Duration::from_secs_f64(self.rng.exp(1.0 / peak));
                if cand <= *until {
                    return cand - now;
                }
                // Burst over before the draw landed: silence next.
                // After an outage the burst ended in the past, and the
                // silence starts no earlier than `now`.
                t = t.max(*until);
                *on = false;
                *until = t + Duration::from_secs_f64(self.rng.exp(off_mean_s));
            } else {
                // Skip the rest of the off period (for the lazy initial
                // state the phase ends at `Time::ZERO`, so the first
                // burst starts immediately).
                t = t.max(*until);
                *on = true;
                *until = t + Duration::from_secs_f64(self.rng.exp(on_mean_s));
            }
        }
    }

    /// Draw the destination of station `s`'s next packet, given its
    /// routing neighbours and the routes; `None` when it has nobody to
    /// address.
    pub(crate) fn pick_destination(
        &mut self,
        s: StationId,
        routing_neighbors: &[StationId],
        routes: &RouteTable,
    ) -> Option<StationId> {
        let reachable: Vec<StationId>;
        let opts = match &self.dest {
            Dest::Reachable { receivers } => {
                reachable = routes.reachable_from(s).filter(|&d| receivers[d]).collect();
                &reachable
            }
            Dest::Flows(lists) => &lists[s],
            Dest::Neighbors => routing_neighbors,
            Dest::Gravity { sampler, .. } => return sampler.sample(s, &mut self.rng),
            Dest::Hotspot(cum) => {
                if cum.is_empty() {
                    return None;
                }
                let u = self.rng.next_f64();
                let dst = cum.partition_point(|&c| c <= u).min(cum.len() - 1);
                return if dst != s {
                    Some(dst)
                } else if cum.len() > 1 {
                    // A sink never addresses itself: fold onto the next
                    // sink (wrapping), preserving one draw per packet.
                    Some((dst + 1) % cum.len())
                } else {
                    None
                };
            }
        };
        (!opts.is_empty()).then(|| *self.rng.choose(opts))
    }

    /// The routes were rebuilt over a graph whose links reach only the
    /// stations in `rx_ok` and leave only live ones: under `UniformAll`, a
    /// source addresses the stations it reaches that may receive. A
    /// table over that graph reaches no others, except a greedy one,
    /// which steers toward any position.
    pub(crate) fn routes_changed(&mut self, rx_ok: &[bool]) {
        if let Dest::Reachable { receivers } = &mut self.dest {
            receivers.copy_from_slice(rx_ok);
        }
    }

    /// Stations moved: rebuild the gravity sampler over the positions in
    /// `gains`. It is derived state, so the rebuild draws nothing.
    pub(crate) fn stations_moved(&mut self, gains: &dyn GainModel) {
        if let Dest::Gravity {
            sampler,
            exponent,
            hop,
            r_max,
        } = &mut self.dest
        {
            *sampler = GravitySampler::new(&gains.positions(), *exponent, *hop, *r_max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parn_route::{DvCluster, EnergyGraph};

    /// A `UniformAll` draw is `rng.choose` over the source's materialised
    /// reachable list, from the same stream, whatever the table; a source
    /// that reaches nobody draws nothing. A greedy table steers toward a
    /// station the receive mask excludes, which is never drawn.
    #[test]
    fn uniform_draws_choose_over_the_reachable_row() {
        // A 0-1-2-3 line with an expensive 0-2 shortcut; 4 has no link.
        let g = EnergyGraph::from_edges(
            5,
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
        );
        let positions: Vec<Point> = [0.0, 10.0, 20.0, 30.0, 500.0]
            .iter()
            .map(|&x| Point::new(x, 0.0))
            .collect();
        let mut dv = DvCluster::new(&g);
        dv.converge_sync(32).expect("converges");
        let cfg = TrafficConfig {
            arrivals_per_station_per_sec: 1.0,
            dest: DestPolicy::UniformAll,
            source: SourceModel::Poisson,
        };
        let tables = [
            (RouteTable::centralized(&g), [true; 5]),
            (RouteTable::one_hop(&g), [true; 5]),
            (dv.to_table(), [true; 5]),
            (
                RouteTable::greedy(&g, &positions),
                [true, true, true, false, true],
            ),
        ];
        for (k, (table, receivers)) in tables.iter().enumerate() {
            let mut traffic = Traffic::new(&cfg, Rng::new(9), &positions, 10.0, 500.0);
            traffic.routes_changed(receivers);
            let mut reference = Rng::new(9);
            for s in (0..5).cycle().take(200) {
                let list: Vec<StationId> =
                    table.reachable_from(s).filter(|&d| receivers[d]).collect();
                let want = (!list.is_empty()).then(|| *reference.choose(&list));
                assert_eq!(
                    traffic.pick_destination(s, &[], table),
                    want,
                    "table {k}, {s}"
                );
            }
            assert_eq!(traffic.pick_destination(4, &[], table), None);
        }
    }

    #[test]
    fn peak_rate_preserves_mean() {
        // 25% duty: peak must be 4× the mean.
        let s = SourceModel::OnOff {
            on_mean_s: 1.0,
            off_mean_s: 3.0,
        };
        assert!((s.peak_rate(2.0) - 8.0).abs() < 1e-12);
        // Degenerate always-on burst is just Poisson.
        let always_on = SourceModel::OnOff {
            on_mean_s: 1.0,
            off_mean_s: 0.0,
        };
        assert!((always_on.peak_rate(2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips_the_kinds() {
        let t = TrafficConfig {
            arrivals_per_station_per_sec: 1.0,
            dest: DestPolicy::Hotspot {
                sinks: 3,
                skew: 1.5,
            },
            source: SourceModel::OnOff {
                on_mean_s: 0.25,
                off_mean_s: 0.75,
            },
        };
        let s = t.to_json().to_string();
        assert!(s.contains("\"kind\":\"hotspot\""), "{s}");
        assert!(s.contains("\"sinks\":3"), "{s}");
        assert!(s.contains("\"kind\":\"on_off\""), "{s}");
        let g = TrafficConfig {
            arrivals_per_station_per_sec: 1.0,
            dest: DestPolicy::Gravity { exponent: 2.0 },
            source: SourceModel::Poisson,
        }
        .to_json()
        .to_string();
        assert!(g.contains("\"kind\":\"gravity\""), "{g}");
        assert!(g.contains("\"kind\":\"poisson\""), "{g}");
    }
}
