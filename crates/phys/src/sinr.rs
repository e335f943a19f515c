//! Incremental SINR tracking for in-flight receptions.
//!
//! The paper's criterion (§3.4) is that the signal-to-noise ratio must stay
//! above the threshold *for the entire duration* of a reception, where the
//! "noise" is thermal noise plus the power sum of every other concurrent
//! transmission (Eq. 5–6). The tracker maintains the set of active
//! transmissions and, for every in-flight reception, the running
//! interference sum; each transmission start/end re-evaluates every active
//! reception, so a reception is marked failed at the first instant its SINR
//! dips below threshold.
//!
//! A receiver that transmits while receiving is modelled with a huge
//! self-interference gain — "no feasible amount of processing gain ... can
//! achieve reception while the local transmitter is operating" (§5, Type 3).

use crate::gainmodel::{GainModel, GridGainModel};
use crate::gains::StationId;
use crate::geom::Point;
use crate::units::PowerW;
use parn_sim::pool::WorkerPool;
use std::collections::BTreeMap;
use std::num::NonZeroU64;
use std::sync::Arc;

/// Handle to an active transmission.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxId(pub u64);

/// Handle to an active reception. It names the receiver, so the tracker
/// finds the reception in that receiver's work-list entry without a side
/// index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RxId {
    rx: StationId,
    /// Non-zero, so an `Option<RxId>` is no larger than an `RxId`.
    seq: NonZeroU64,
}

/// An on-air transmission.
#[derive(Clone, Debug)]
pub struct ActiveTransmission {
    /// Transmitting station.
    pub station: StationId,
    /// Transmit power.
    pub power: PowerW,
    /// The station this transmission is addressed to (`None` for
    /// broadcast/control emissions).
    pub intended_rx: Option<StationId>,
    /// True for deliberate interference (an injected jammer) rather than
    /// a protocol transmission.
    pub jammer: bool,
    /// True for a Byzantine schedule violator's rogue emission — a
    /// protocol station transmitting outside its published windows.
    pub violator: bool,
}

/// One interferer's contribution at the moment a reception first failed.
#[derive(Clone, Debug)]
pub struct Blame {
    /// Interfering transmitter.
    pub station: StationId,
    /// Its intended receiver.
    pub intended_rx: Option<StationId>,
    /// Received interference power it contributed.
    pub contribution: PowerW,
    /// True when the interferer is a deliberate jammer, so failure
    /// classification can attribute the loss to jamming rather than to a
    /// protocol collision.
    pub jammer: bool,
    /// True when the interferer is a Byzantine schedule violator (see
    /// [`ActiveTransmission::violator`]).
    pub violator: bool,
}

/// Final report for a completed reception.
#[derive(Clone, Debug)]
pub struct ReceptionReport {
    /// Receiving station.
    pub rx: StationId,
    /// Sending station.
    pub src: StationId,
    /// Whether SINR stayed at or above threshold throughout.
    pub success: bool,
    /// The lowest SINR observed during the reception.
    pub min_sinr: f64,
    /// Interferer snapshot at first failure (empty on success).
    pub blame: Vec<Blame>,
    /// Total interference-plus-noise at the failure instant (zero on
    /// success) — the denominator for judging which interferers were
    /// individually significant.
    pub interference_at_failure: PowerW,
}

/// One in-flight reception, stored only in its receiver's [`ActiveRx`]
/// entry.
#[derive(Clone, Debug)]
struct Reception {
    seq: NonZeroU64,
    src_tx: TxId,
    src_station: StationId,
    signal: PowerW,
    /// Thermal plus the exactly tracked interference: every other active
    /// transmission in exact mode, the near ones in far mode.
    interference: PowerW,
    threshold: f64,
    min_sinr: f64,
    failed: bool,
    blame: Vec<Blame>,
    interference_at_failure: PowerW,
}

impl Reception {
    /// Fold one evaluation into the running minimum and failure state.
    fn apply(&mut self, e: Eval) {
        self.min_sinr = self.min_sinr.min(e.sinr);
        if let Some((blame, at)) = e.failure {
            self.failed = true;
            self.blame = blame;
            self.interference_at_failure = at;
        }
    }
}

/// Aggregated far-field interference state (see
/// [`SinrTracker::with_far_field`]).
///
/// In far mode, each reception's running `interference` holds only the
/// *near* part — contributions from transmitters within `near_radius` of
/// the receiver, tracked exactly as in exact mode. Everything beyond
/// is summed per grid cell: one power total per occupied cell, evaluated
/// through the propagation model at the receiver→cell-centre distance.
/// With cell half-diagonal `δ` and near radius `R`, each far transmitter
/// sits within `±δ` of its cell centre, so for an `1/r²`-like monotone
/// model the aggregated far term is within a relative `≈ 2δ/(R−δ)` of the
/// exact sum — with the paper's `R ≈ reach = 2/√ρ` and cell `≈ 1/√ρ`
/// (`δ ≈ 0.71/√ρ`) that is under 1.1 dB on the *far tail only*, far
/// inside the 5 dB β margin (§3.4).
///
/// **Snapshot invalidation is per cell, not global.** A per-receiver
/// snapshot cache avoids recomputing the tail on every event. Validation
/// used to compare against a single network-wide drift scalar times the
/// worst-case far gain `g(R)` — which let a transmission kilometres away
/// invalidate every receiver's tail and drove the cache hit rate to ~1%
/// at 10⁵ stations. Instead, each transmission start/end now *pushes* its
/// exact per-cell far-tail delta, signed, into the snapshot of every
/// receiver with an in-flight reception: the cell-centre aggregate gain
/// for wholly-far cells, the exact pairwise gain for boundary cells, and
/// zero for receivers that see the transmitter as near (their running sums
/// track it exactly). Because the push uses the *same accounting* as the
/// from-scratch tail sum ([`SinrTracker::far_contribution_of`] is shared
/// by both), the snapshot `value` is maintained incrementally — it *is*
/// the current tail, up to floating-point rounding — so a live receiver's
/// snapshot essentially never needs a recompute. What the tolerance budget
/// gates instead is *re-evaluation*: a monotone `rise` accumulator sums
/// the upward pushes since this receiver's receptions last re-evaluated,
/// and while `rise ≤ tolerance · (value + thermal)` the SINR checks are
/// skipped — the per-cell drift epoch algebra
/// (`rise = Σ_cells Δdrift_cell⁺ · bound(rx, cell)`), evaluated
/// incrementally. Receivers with no in-flight reception are not pushed
/// to; the events they miss are bounded by the global-drift gap
/// (`(total_drift − global_at) · g_near`) — the old conservative rule
/// confined to the cold path where it belongs — and a `churn` turnover
/// total guards the incremental value against accumulated rounding. See
/// DESIGN.md §"Far-field invalidation & sharding" for the stale-bound
/// proof.
#[derive(Clone, Debug)]
struct FarField {
    near_radius: f64,
    tolerance: f64,
    /// Worst-case gain of any far transmitter: the model's gain at
    /// exactly `near_radius` (gains decline monotonically with distance).
    g_near: f64,
    /// Per-cell totals of *all* active transmissions (near/far is decided
    /// per receiver at evaluation time).
    cell_power: BTreeMap<usize, CellAgg>,
    /// Sum of |power| of every transmission start/end since construction;
    /// bounds the events a snapshot was not live for (see `FarSnapshot`).
    total_drift: f64,
    /// Active transmission ids per station, for range-bounded near sums.
    tx_of_station: BTreeMap<StationId, Vec<u64>>,
    /// Positions of each active transmission in `cell_power[cell].txs`
    /// and `tx_of_station[station]`, so TX teardown is O(1) swap-removes
    /// instead of O(active) `retain` scans.
    tx_slot: BTreeMap<u64, TxSlot>,
    /// Far-tail snapshots of *dormant* receivers (no reception in
    /// flight). A receiver's snapshot moves into its [`ActiveRx`] slot
    /// while it has receptions and spills back here when the last one
    /// ends, so the sweep hot path never touches this map.
    cache: BTreeMap<StationId, FarSnapshot>,
}

#[derive(Clone, Debug, Default)]
struct CellAgg {
    power: f64,
    txs: Vec<u64>,
}

/// Where an active transmission sits inside the teardown-relevant vectors.
#[derive(Clone, Copy, Debug)]
struct TxSlot {
    cell: usize,
    cell_pos: usize,
    station_pos: usize,
}

/// One receiver with in-flight receptions: an entry in the sweep work
/// list, ordered by `(cell, rx)`. Exact mode has no cells and keys every
/// entry on cell 0.
#[derive(Clone, Debug)]
struct ActiveRx {
    cell: usize,
    rx: StationId,
    /// Receiver position, cached so the sweep's distance tests read it
    /// inline instead of through the gain model.
    pos: Point,
    receptions: Vec<Reception>,
    /// The receiver's far snapshot while it is live (dormant snapshots
    /// live in `FarField::cache`; always `None` in exact mode).
    snap: Option<FarSnapshot>,
}

impl ActiveRx {
    fn key(&self) -> (usize, StationId) {
        (self.cell, self.rx)
    }
}

/// One station mid-move: bookkeeping stashed by [`SinrTracker::begin_moves`]
/// (under the old gain field) for [`SinrTracker::finish_moves`] to restore
/// under the new one.
#[derive(Clone, Debug)]
struct PendingMove {
    station: StationId,
    /// The mover's active transmission ids, detached from the far
    /// aggregates at the old position and re-attached at the new one
    /// (none in exact mode, which keeps no aggregates).
    txs: Vec<u64>,
    /// The mover's work-list entry, removed at the old cell and
    /// re-inserted at the new one.
    entry: Option<ActiveRx>,
}

/// Cached far tail for one receiver.
///
/// `value` is maintained incrementally: every sweep the receiver is live
/// for pushes its exact signed far-tail delta, so `value` tracks a
/// from-scratch recompute up to floating-point rounding. `rise` is the
/// monotone sum of *upward* pushes since this receiver's receptions last
/// re-evaluated — the eval-skip budget. `churn` is the total |delta|
/// turnover since the last full recompute and only guards against
/// accumulated rounding. `global_at` is `total_drift` as of the last push
/// (or recompute), so `(total_drift − global_at) · g_near` bounds
/// everything that happened while the receiver had no reception in flight.
#[derive(Clone, Copy, Debug)]
struct FarSnapshot {
    value: f64,
    rise: f64,
    churn: f64,
    global_at: f64,
}

impl FarSnapshot {
    fn fresh(value: f64, total_drift: f64) -> FarSnapshot {
        FarSnapshot {
            value,
            rise: 0.0,
            churn: 0.0,
            global_at: total_drift,
        }
    }
}

/// Relative epsilon for the teardown clamp: when subtracting a
/// transmission's contribution drives a running interference sum negative
/// by more than this fraction of the subtracted delta, the drift is real
/// (not a last-bit rounding artifact) and the sum is rebuilt exactly from
/// the active set.
const RESUM_REL_EPS: f64 = 1e-12;

/// Turnover guard for incrementally maintained far snapshots: recompute
/// from scratch once accumulated |delta| churn exceeds this multiple of
/// the current value. Each push adds ≤ half-ulp relative rounding error
/// (~1.1e-16 of the operands), so at 10⁹× turnover the worst-case
/// accumulated error is still ~1e-7 of the value — three decades inside
/// the 5% tolerance budget.
const CHURN_REFRESH_FACTOR: f64 = 1e9;

/// Minimum sweep work list (receivers with in-flight receptions) before a
/// sweep is dispatched to the worker pool; below this the per-job channel
/// overhead outweighs the parallelism.
const PAR_MIN_WORK: usize = 96;

/// The interference bookkeeper.
#[derive(Clone, Debug)]
pub struct SinrTracker {
    gains: Arc<dyn GainModel>,
    thermal: PowerW,
    self_gain: f64,
    active_tx: BTreeMap<u64, ActiveTransmission>,
    /// Receivers with in-flight receptions, sorted by `(cell, receiver)`,
    /// holding the receptions themselves. This dense vector is the sweep's
    /// work list and shard partition: walking it in order *is* cell-index
    /// order, so the reduction order is fixed regardless of thread count,
    /// and each touch is pure sequential reads (position, receptions and
    /// snapshot are co-located — no map lookups on the hot path).
    active_rx: Vec<ActiveRx>,
    next_tx: u64,
    next_rx: u64,
    /// Successive-interference-cancellation depth (0 = plain receivers).
    sic_depth: usize,
    /// Far-field aggregation state (`None` = exact mode).
    far: Option<FarField>,
    /// Parallelism for the sweep (1 = inline).
    threads: usize,
    /// Persistent shard workers (`threads − 1` of them); `None` inline.
    pool: Option<Arc<WorkerPool>>,
    /// Movers between [`Self::begin_moves`] and [`Self::finish_moves`].
    pending_moves: Vec<PendingMove>,
    /// The inline sweep's output, kept to reuse its buffers.
    sweep_out: SweepOut,
}

/// Immutable description of one sweep (a TX start or end) handed to the
/// shards.
struct SweepParams {
    is_start: bool,
    tx_id: u64,
    tx_station: StationId,
    power: f64,
    /// Far mode only (exact mode never reads them): the transmitter's
    /// position and the centre of its grid cell, hoisted out of the
    /// per-receiver loop.
    txp: Point,
    tx_cell_center: Point,
    /// Far mode only: `FarField::total_drift` *before* this event's bump,
    /// so shards can bound the events a snapshot was not live for.
    drift_before: f64,
}

/// What a sweep decided, applied by the merge step by work-list index:
/// new far snapshots, and reception updates addressed as `(receiver
/// entry, reception)`.
#[derive(Clone, Debug, Default)]
struct SweepOut {
    snaps: Vec<(usize, FarSnapshot)>,
    receptions: Vec<RxUpdate>,
}

#[derive(Clone, Debug)]
struct RxUpdate {
    at: (usize, usize),
    /// The reception's new running interference sum.
    interference: f64,
    eval: Option<Eval>,
}

/// One evaluation of a reception: its SINR, plus the blame snapshot and
/// the total interference-plus-noise when this is its first failure.
#[derive(Clone, Debug)]
struct Eval {
    sinr: f64,
    failure: Option<(Vec<Blame>, PowerW)>,
}

/// Signal over interference-plus-noise; an empty denominator reads as an
/// infinite SINR.
fn sinr(signal: f64, denom: f64) -> f64 {
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        signal / denom
    }
}

impl SinrTracker {
    /// Create a tracker over a gain model.
    ///
    /// * `thermal` — constant noise floor added at every receiver. The
    ///   paper argues interference dominates it at scale (§3.4), but it
    ///   keeps SINR finite in empty networks.
    /// * `self_gain` — effective power gain of a station's transmitter into
    ///   its own receiver (duplexer leakage); enormous by construction.
    pub fn new(gains: Arc<dyn GainModel>, thermal: PowerW, self_gain: f64) -> SinrTracker {
        SinrTracker {
            gains,
            thermal,
            self_gain,
            active_tx: BTreeMap::new(),
            active_rx: Vec::new(),
            next_tx: 0,
            next_rx: 0,
            sic_depth: 0,
            far: None,
            threads: 1,
            pool: None,
            pending_moves: Vec::new(),
            sweep_out: SweepOut::default(),
        }
    }

    /// Run sweeps on `threads` lanes (the calling thread plus
    /// `threads − 1` persistent workers), in exact and far mode alike.
    /// Results are **bit-identical** at any thread count: shards only read
    /// shared state, every per-receiver decision is independent, and the
    /// merge applies shard outputs in work-list order regardless of how
    /// they were partitioned. A sweep goes to the pool only when enough
    /// receivers have receptions in flight; `threads = 1` (the default)
    /// keeps everything inline.
    /// Lanes are capped at the machine's available parallelism: on an
    /// oversubscribed or single-core host extra lanes only add channel
    /// and wakeup overhead per sweep, and by the guarantee above capping
    /// them cannot change any result.
    pub fn with_threads(self, threads: usize) -> SinrTracker {
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        self.with_lanes(threads.max(1).min(hw))
    }

    /// As [`Self::with_threads`] but without the hardware cap, so tests
    /// exercise the pooled sweep path even on a single-core machine.
    #[cfg(test)]
    fn with_threads_unclamped(self, threads: usize) -> SinrTracker {
        self.with_lanes(threads.max(1))
    }

    fn with_lanes(mut self, lanes: usize) -> SinrTracker {
        self.threads = lanes;
        self.pool = (lanes > 1).then(|| Arc::new(WorkerPool::new(lanes - 1)));
        self
    }

    /// Enable successive interference cancellation: receivers may decode
    /// and subtract up to `depth` of the strongest interferers (§3.4
    /// footnote 2). Costs a full interference recomputation per
    /// re-evaluation, so keep `depth` small.
    pub fn with_sic(mut self, depth: usize) -> SinrTracker {
        self.sic_depth = depth;
        self
    }

    /// Enable far-field aggregation: interference from transmitters
    /// beyond `near_radius` of a receiver is summed per grid cell instead
    /// of per station (see the `FarField` internals for the error
    /// bound). Intended
    /// for metro-scale runs where walking every concurrent transmission
    /// per receiver is the bottleneck.
    ///
    /// The approximation assumes a distance-based propagation model with
    /// monotonically declining gain (free-space and its variants);
    /// `tolerance` bounds the extra staleness the snapshot cache may add
    /// on top of the geometric error.
    ///
    /// Panics unless the gain model is grid-backed
    /// ([`GainModel::as_grid`]) — the dense matrix stays exact.
    pub fn with_far_field(mut self, near_radius: f64, tolerance: f64) -> SinrTracker {
        assert!(
            near_radius > 0.0 && near_radius.is_finite(),
            "near_radius must be positive and finite"
        );
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        let grid_model = self
            .gains
            .as_grid()
            .expect("far-field aggregation requires the grid gain backend");
        // Far aggregates are keyed on cell indices, so station moves must
        // never renumber them: pin the grid's geometry (bbox-escaping
        // movers clamp to border cells, which stays exact).
        grid_model.set_fixed_geometry(true);
        let g_near = grid_model
            .propagation()
            .gain_at_distance(near_radius)
            .value();
        self.far = Some(FarField {
            near_radius,
            tolerance,
            g_near,
            cell_power: BTreeMap::new(),
            total_drift: 0.0,
            tx_of_station: BTreeMap::new(),
            tx_slot: BTreeMap::new(),
            cache: BTreeMap::new(),
        });
        self
    }

    /// The gain model the tracker uses.
    pub fn gains(&self) -> &dyn GainModel {
        &*self.gains
    }

    fn position(&self, id: StationId) -> Point {
        self.gains.position(id)
    }

    fn grid_model(&self) -> &GridGainModel {
        self.gains
            .as_grid()
            .expect("far-field requires grid backend")
    }

    /// Received power at `rx` from a transmission by `tx_station` at `power`.
    fn received_power(&self, rx: StationId, tx_station: StationId, power: PowerW) -> PowerW {
        if tx_station == rx {
            power * self.self_gain
        } else {
            self.gains.gain(rx, tx_station).apply(power)
        }
    }

    /// Total interference-plus-noise currently seen at `rx`, excluding the
    /// transmission `exclude` (if any). This is Eq. 5 evaluated now. In
    /// far-field mode the beyond-`near_radius` tail is the cell-aggregated
    /// approximation.
    pub fn interference_at(&self, rx: StationId, exclude: Option<TxId>) -> PowerW {
        self.near_interference_at(rx, exclude) + PowerW(self.far_term_at(rx, exclude))
    }

    /// Thermal plus the exactly tracked contributions at `rx` — what a
    /// reception's running sum holds: every active transmission in exact
    /// mode, those within `near_radius` (a range-bounded grid query) in
    /// far mode.
    fn near_interference_at(&self, rx: StationId, exclude: Option<TxId>) -> PowerW {
        let mut total = self.thermal;
        let mut add = |id: u64, tx: &ActiveTransmission| {
            if Some(TxId(id)) != exclude {
                total += self.received_power(rx, tx.station, tx.power);
            }
        };
        let Some(far) = &self.far else {
            for (&id, tx) in &self.active_tx {
                add(id, tx);
            }
            return total;
        };
        let rxp = self.position(rx);
        self.grid_model()
            .grid()
            .for_candidates_within(rxp, far.near_radius, |station| {
                let Some(ids) = far.tx_of_station.get(&station) else {
                    return;
                };
                if self.position(station).distance(rxp) > far.near_radius {
                    return; // candidate square corner beyond the disk
                }
                for &id in ids {
                    add(id, &self.active_tx[&id]);
                }
            });
        total
    }

    /// The aggregated far tail at `rx` (zero in exact mode), minus the
    /// contribution of `exclude` when that transmission is itself beyond
    /// the near radius.
    fn far_term_at(&self, rx: StationId, exclude: Option<TxId>) -> f64 {
        let Some(far) = &self.far else {
            return 0.0;
        };
        let snap = match self.rx_idx(rx) {
            Some(i) => self.active_rx[i].snap,
            None => far.cache.get(&rx).copied(),
        };
        self.far_term_from(self.far_value(rx, snap).0, rx, exclude)
    }

    /// Subtract `exclude`'s aggregate-counted contribution from far tail
    /// value `v` (zero subtraction when the excluded source is near). The
    /// subtraction mirrors how the aggregate counted the excluded
    /// transmitter (cell-centre gain for wholly-far cells, exact for
    /// boundary cells), so a dominant excluded source cancels cleanly
    /// instead of dragging the whole tail to the zero clamp. Zero in exact
    /// mode, which has no tail.
    fn far_term_from(&self, v: f64, rx: StationId, exclude: Option<TxId>) -> f64 {
        if self.far.is_none() {
            return 0.0;
        }
        let mut v = v;
        if let Some(tx) = exclude.and_then(|TxId(id)| self.active_tx.get(&id)) {
            v -= self.far_contribution_of(self.position(rx), rx, tx.station, tx.power.value());
        }
        v.max(0.0)
    }

    /// How the far aggregate counts a transmission by `tx_station` at
    /// `power` toward `rx`'s tail: zero when near, the cell-centre
    /// aggregate gain for a wholly-far cell, the exact pairwise gain for a
    /// boundary cell. This one function defines both the exclusion
    /// subtraction and the per-event churn push, so both always mirror the
    /// aggregate's own accounting in `recompute_far`.
    fn far_contribution_of(
        &self,
        rxp: Point,
        rx: StationId,
        tx_station: StationId,
        power: f64,
    ) -> f64 {
        let txp = self.position(tx_station);
        let center = {
            let grid = self.grid_model().grid();
            grid.cell_center(grid.cell_index(txp))
        };
        self.far_contribution_inner(rxp, rx, tx_station, power, txp.distance(rxp), center)
    }

    /// [`Self::far_contribution_of`] with the receiver→transmitter
    /// distance and the transmitter's cell centre precomputed — the sweep
    /// hoists the centre out of its per-receiver loop and reuses the
    /// distance from its own near test.
    fn far_contribution_inner(
        &self,
        rxp: Point,
        rx: StationId,
        tx_station: StationId,
        power: f64,
        dist_to_tx: f64,
        tx_cell_center: Point,
    ) -> f64 {
        let far = self
            .far
            .as_ref()
            .expect("far contribution only in far mode");
        if dist_to_tx <= far.near_radius {
            return 0.0;
        }
        let grid_model = self.grid_model();
        let d = rxp.distance(tx_cell_center);
        let gain = if d - grid_model.grid().half_diagonal() > far.near_radius {
            grid_model.propagation().gain_at_distance(d).value()
        } else {
            self.gains.gain(rx, tx_station).value()
        };
        power * gain
    }

    /// Whether `s.value` still tracks the true far tail within tolerance
    /// when the network-wide drift stands at `drift`: the receiver missed
    /// at most a tolerance-budget's worth of events while dormant (the gap
    /// term), the incremental value hasn't seen enough turnover for
    /// rounding to matter (the churn guard), and the value hasn't been
    /// pushed below zero by cancellation.
    fn snapshot_trusted(far: &FarField, s: &FarSnapshot, thermal: f64, drift: f64) -> bool {
        let budget = s.value + thermal;
        s.value >= 0.0
            && (drift - s.global_at) * far.g_near <= far.tolerance * budget
            && s.churn <= CHURN_REFRESH_FACTOR * budget
    }

    /// `rx`'s work-list sort key: its grid cell in far mode, cell 0 in
    /// exact mode.
    fn rx_key(&self, rx: StationId) -> (usize, StationId) {
        match self.far {
            Some(_) => (self.grid_model().grid().cell_index(self.position(rx)), rx),
            None => (0, rx),
        }
    }

    /// Index of `rx` in the work list, if it has receptions in flight.
    fn rx_idx(&self, rx: StationId) -> Option<usize> {
        self.active_rx
            .binary_search_by_key(&self.rx_key(rx), ActiveRx::key)
            .ok()
    }

    /// Work-list entry and position of reception `id`, if in flight.
    fn find(&self, id: RxId) -> Option<(usize, usize)> {
        let i = self.rx_idx(id.rx)?;
        let j = self.active_rx[i]
            .receptions
            .iter()
            .position(|r| r.seq == id.seq)?;
        Some((i, j))
    }

    /// The far tail at `rx` given its stored snapshot (zero in exact
    /// mode): the snapshot's value while it is trusted, else a recompute,
    /// returned with the fresh snapshot for the caller to store. The fresh
    /// snapshot keeps a pending `rise` (evals owed to this receiver's
    /// receptions): a caller re-evaluates at most one reception, so it
    /// must not swallow the eval budget the sweep owes the others.
    fn far_value(&self, rx: StationId, snap: Option<FarSnapshot>) -> (f64, Option<FarSnapshot>) {
        let Some(far) = &self.far else {
            return (0.0, None);
        };
        let thermal = self.thermal.value();
        if let Some(s) = snap.filter(|s| Self::snapshot_trusted(far, s, thermal, far.total_drift)) {
            parn_sim::counter_inc!("phys.far_cache.hit");
            return (s.value, None);
        }
        parn_sim::counter_inc!("phys.far_cache.recompute");
        let value = self.recompute_far(rx);
        let fresh = FarSnapshot {
            rise: snap.map_or(0.0, |s| s.rise),
            ..FarSnapshot::fresh(value, far.total_drift)
        };
        (value, Some(fresh))
    }

    /// Walk the occupied cells: wholly-far cells contribute their power
    /// total at the centre distance; boundary cells fall back to per-
    /// transmitter exact terms for their far members.
    fn recompute_far(&self, rx: StationId) -> f64 {
        let far = self.far.as_ref().expect("far recompute only in far mode");
        let grid_model = self.grid_model();
        let grid = grid_model.grid();
        let prop = grid_model.propagation();
        let delta = grid.half_diagonal();
        let rxp = self.position(rx);
        let mut sum = 0.0;
        for (&ci, agg) in &far.cell_power {
            let d = rxp.distance(grid.cell_center(ci));
            if d - delta > far.near_radius {
                // Every member is beyond the near radius; aggregate.
                sum += agg.power * prop.gain_at_distance(d).value();
            } else {
                // The cell straddles the near boundary (or contains rx):
                // near members are already in the receptions' exact sums,
                // so count only the far ones, exactly.
                for &id in &agg.txs {
                    let tx = &self.active_tx[&id];
                    let dist = self.position(tx.station).distance(rxp);
                    if dist > far.near_radius {
                        sum += self.received_power(rx, tx.station, tx.power).value();
                    }
                }
            }
        }
        sum
    }

    /// The gain field changed out from under the tracker — e.g. a
    /// partition cut activated or healed on a
    /// [`crate::partition::PartitionOverlay`] wrapping `gains`. Every
    /// cached quantity derived from path gains is rebuilt: far-tail
    /// snapshots are dropped (dormant cache and live slots alike), and
    /// each in-flight reception's signal and running interference sum
    /// are recomputed from the active transmission set under the new
    /// field, then re-evaluated — a reception mid-flight across a cut
    /// that just activated fails immediately, as the physics demands.
    ///
    /// (The far tail's per-cell power aggregates are power-only and stay
    /// valid; only gain-derived values need recomputing.)
    pub fn gains_changed(&mut self) {
        parn_sim::counter_inc!("phys.sinr.full_invalidations");
        if let Some(far) = self.far.as_mut() {
            far.cache.clear();
        }
        for a in self.active_rx.iter_mut() {
            a.snap = None;
        }
        self.recompute_receptions(|_, _| true);
    }

    /// Recompute the signal and running interference sum, from the active
    /// set under the current gain field, of every reception that
    /// `stale(receiver, source station)` selects, and re-evaluate it.
    fn recompute_receptions(&mut self, stale: impl Fn(StationId, StationId) -> bool) {
        for i in 0..self.active_rx.len() {
            let rx = self.active_rx[i].rx;
            for j in 0..self.active_rx[i].receptions.len() {
                let r = &self.active_rx[i].receptions[j];
                if !stale(rx, r.src_station) {
                    continue;
                }
                let signal =
                    self.received_power(rx, r.src_station, self.active_tx[&r.src_tx.0].power);
                let interference = self.near_interference_at(rx, Some(r.src_tx));
                let r = &mut self.active_rx[i].receptions[j];
                r.signal = signal;
                r.interference = interference;
                self.reevaluate(i, j);
            }
        }
    }

    /// First half of a station-move transaction. Call with the movers
    /// (ascending station id) **before** relocating them in the gain
    /// model, so all teardown runs under the old gain field — exactly
    /// matching what was added when their transmissions started. Complete
    /// the move with [`Self::finish_moves`] after relocating; no other
    /// tracker call may land in between.
    ///
    /// This pulls each mover's entry out of the sweep work list at its old
    /// cell. In far mode it first detaches each mover's active
    /// transmissions from the cell aggregates (end-style sweeps at the old
    /// position) and afterwards drops its dormant far snapshot —
    /// invalidation scoped to the movers, not a `gains_changed`-style
    /// global drop.
    pub fn begin_moves(&mut self, movers: &[StationId]) {
        debug_assert!(self.pending_moves.is_empty(), "nested begin_moves");
        debug_assert!(movers.windows(2).all(|w| w[0] < w[1]), "movers unsorted");
        parn_sim::counter_inc!("phys.sinr.scoped_invalidations", movers.len() as u64);
        let mut pending: Vec<PendingMove> = Vec::with_capacity(movers.len());
        for &station in movers {
            let txs = self
                .far
                .as_ref()
                .and_then(|far| far.tx_of_station.get(&station).cloned())
                .unwrap_or_default();
            for &id in &txs {
                let power = self.active_tx[&id].power;
                self.detach_tx(id, station, power);
            }
            pending.push(PendingMove {
                station,
                txs,
                entry: None,
            });
        }
        // The work-list key and the snapshots are both position-derived.
        for pm in pending.iter_mut() {
            pm.entry = self.rx_idx(pm.station).map(|i| self.active_rx.remove(i));
            if let Some(far) = self.far.as_mut() {
                far.cache.remove(&pm.station);
            }
        }
        self.pending_moves = pending;
    }

    /// Second half of a station-move transaction: call **after** the gain
    /// model has relocated every mover passed to [`Self::begin_moves`].
    ///
    /// Far mode re-attaches the movers' transmissions at their new
    /// positions (start-style sweeps under the new field). Moved receivers
    /// rejoin the work list at their new cells with their snapshots
    /// dropped. Then the receptions with stale gain-derived state get
    /// their signal and running sum recomputed and are re-evaluated: in
    /// far mode every reception at a mover or sourced from one, in exact
    /// mode every reception, because its running sum tracks every
    /// transmitter and any of those terms may have changed. Exact mode
    /// runs the same backend-agnostic queries on dense and grid, so
    /// small-n runs stay bit-identical across backends.
    pub fn finish_moves(&mut self) {
        let mut pending = std::mem::take(&mut self.pending_moves);
        if pending.is_empty() {
            return;
        }
        for pm in &pending {
            for &id in &pm.txs {
                let power = self.active_tx[&id].power;
                self.attach_tx(id, pm.station, power);
            }
        }
        for pm in pending.iter_mut() {
            let Some(mut entry) = pm.entry.take() else {
                continue;
            };
            let key = self.rx_key(pm.station);
            entry.cell = key.0;
            entry.pos = self.position(pm.station);
            entry.snap = None;
            let i = self
                .active_rx
                .binary_search_by_key(&key, ActiveRx::key)
                .expect_err("mover already re-admitted");
            self.active_rx.insert(i, entry);
        }
        let exact = self.far.is_none();
        let moved = |s: StationId| pending.binary_search_by_key(&s, |pm| pm.station).is_ok();
        self.recompute_receptions(|rx, src| exact || moved(rx) || moved(src));
    }

    /// Total received power at `rx` from all active transmissions plus
    /// thermal noise (what a CSMA carrier-sense measurement sees).
    pub fn sensed_power(&self, rx: StationId) -> PowerW {
        self.interference_at(rx, None)
    }

    /// Number of active transmissions.
    pub fn active_transmissions(&self) -> usize {
        self.active_tx.len()
    }

    /// Number of in-flight receptions.
    pub fn active_receptions(&self) -> usize {
        self.active_rx.iter().map(|a| a.receptions.len()).sum()
    }

    /// Begin a transmission. All in-flight receptions immediately see the
    /// extra interference.
    pub fn start_transmission(
        &mut self,
        station: StationId,
        power: PowerW,
        intended_rx: Option<StationId>,
    ) -> TxId {
        self.start_tx_inner(station, power, intended_rx, false, false)
    }

    /// Begin a deliberate interference (jammer) emission anchored at
    /// `station`'s position. It raises interference exactly like a
    /// protocol transmission on every backend (dense and grid alike) but
    /// is flagged so blame reports mark it as a jammer. End the window
    /// with [`SinrTracker::end_transmission`].
    pub fn start_jammer(&mut self, station: StationId, power: PowerW) -> TxId {
        self.start_tx_inner(station, power, None, true, false)
    }

    /// Begin a Byzantine schedule violator's rogue emission from
    /// `station`: interference-wise identical to a protocol transmission,
    /// but flagged so blame reports mark it as a violation (losses it
    /// causes classify as `Violation`, not as protocol collisions). End
    /// the burst with [`SinrTracker::end_transmission`].
    pub fn start_violator(&mut self, station: StationId, power: PowerW) -> TxId {
        self.start_tx_inner(station, power, None, false, true)
    }

    fn start_tx_inner(
        &mut self,
        station: StationId,
        power: PowerW,
        intended_rx: Option<StationId>,
        jammer: bool,
        violator: bool,
    ) -> TxId {
        debug_assert!(power.value() > 0.0, "zero-power transmission");
        let id = self.next_tx;
        self.next_tx += 1;
        // Insert first so that blame snapshots taken during re-evaluation
        // include this transmission (a fresh id can never be a reception's
        // own source).
        self.active_tx.insert(
            id,
            ActiveTransmission {
                station,
                power,
                intended_rx,
                jammer,
                violator,
            },
        );
        self.attach_tx(id, station, power);
        TxId(id)
    }

    /// End a transmission. Interference drops for everyone else.
    pub fn end_transmission(&mut self, id: TxId) {
        let tx = self
            .active_tx
            .remove(&id.0)
            .expect("ending unknown transmission");
        self.detach_tx(id.0, tx.station, tx.power);
    }

    /// The sweep for one start or end of transmission `tx_id`, and the
    /// transmitter's grid cell. Only far mode fills in the geometry.
    fn sweep_params(
        &self,
        is_start: bool,
        tx_id: u64,
        tx_station: StationId,
        power: PowerW,
    ) -> (SweepParams, usize) {
        let mut p = SweepParams {
            is_start,
            tx_id,
            tx_station,
            power: power.value(),
            txp: Point::ORIGIN,
            tx_cell_center: Point::ORIGIN,
            drift_before: 0.0,
        };
        let mut cell = 0;
        if let Some(far) = &self.far {
            let grid = self.grid_model().grid();
            p.txp = self.position(tx_station);
            cell = grid.cell_index(p.txp);
            p.tx_cell_center = grid.cell_center(cell);
            p.drift_before = far.total_drift;
        }
        (p, cell)
    }

    /// Add transmission `id` to the far aggregates (far mode) at the
    /// transmitter's *current* position and sweep its start into every
    /// live reception. Shared by TX start and by [`Self::finish_moves`],
    /// which re-attaches a mover's transmissions.
    fn attach_tx(&mut self, id: u64, station: StationId, power: PowerW) {
        let (p, cell) = self.sweep_params(true, id, station, power);
        if let Some(far) = self.far.as_mut() {
            let agg = far.cell_power.entry(cell).or_default();
            let cell_pos = agg.txs.len();
            agg.power += power.value();
            agg.txs.push(id);
            far.total_drift += power.value();
            let per_station = far.tx_of_station.entry(station).or_default();
            let station_pos = per_station.len();
            per_station.push(id);
            far.tx_slot.insert(
                id,
                TxSlot {
                    cell,
                    cell_pos,
                    station_pos,
                },
            );
        }
        self.sweep(p);
    }

    /// Remove transmission `id` from the far aggregates (far mode) and
    /// sweep its end into every live reception, using the transmitter's
    /// *current* position. Shared by [`Self::end_transmission`] (which
    /// removes the tx from `active_tx` first) and [`Self::begin_moves`]
    /// (which keeps it active for re-attachment at the new position).
    fn detach_tx(&mut self, id: u64, station: StationId, power: PowerW) {
        let (p, _) = self.sweep_params(false, id, station, power);
        if let Some(far) = self.far.as_mut() {
            // O(1) teardown: swap-remove at the recorded positions and fix
            // up the slot of whichever transmission got moved into the gap
            // (no O(active) retain scans in dense cells).
            let slot = far.tx_slot.remove(&id).expect("tx slot vanished");
            let agg = far
                .cell_power
                .get_mut(&slot.cell)
                .expect("far cell entry vanished");
            debug_assert_eq!(agg.txs[slot.cell_pos], id);
            agg.power -= power.value();
            let moved = *agg.txs.last().expect("cell tx list empty");
            agg.txs.swap_remove(slot.cell_pos);
            if moved != id {
                far.tx_slot
                    .get_mut(&moved)
                    .expect("moved tx slot vanished")
                    .cell_pos = slot.cell_pos;
            }
            if agg.txs.is_empty() {
                far.cell_power.remove(&slot.cell);
            }
            far.total_drift += power.value();
            let per_station = far
                .tx_of_station
                .get_mut(&station)
                .expect("tx station entry vanished");
            debug_assert_eq!(per_station[slot.station_pos], id);
            let moved = *per_station.last().expect("station tx list empty");
            per_station.swap_remove(slot.station_pos);
            if moved != id {
                far.tx_slot
                    .get_mut(&moved)
                    .expect("moved tx slot vanished")
                    .station_pos = slot.station_pos;
            }
            if per_station.is_empty() {
                far.tx_of_station.remove(&station);
            }
        }
        self.sweep(p);
    }

    /// Begin tracking the reception at `rx` of the signal carried by
    /// transmission `src`. `threshold` is the SINR the reception must keep.
    ///
    /// Panics if `src` is not an active transmission.
    pub fn begin_reception(&mut self, rx: StationId, src: TxId, threshold: f64) -> RxId {
        let tx = self
            .active_tx
            .get(&src.0)
            .expect("receiving from unknown transmission");
        let src_station = tx.station;
        let signal = self.received_power(rx, src_station, tx.power);
        self.next_rx += 1;
        let seq = NonZeroU64::new(self.next_rx).expect("reception counter wrapped");
        let reception = Reception {
            seq,
            src_tx: src,
            src_station,
            signal,
            // In far mode the far tail is re-added at every evaluation.
            interference: self.near_interference_at(rx, Some(src)),
            threshold,
            min_sinr: f64::INFINITY,
            failed: false,
            blame: Vec::new(),
            interference_at_failure: PowerW::ZERO,
        };
        let key = self.rx_key(rx);
        let i = match self.active_rx.binary_search_by_key(&key, ActiveRx::key) {
            Ok(i) => {
                self.active_rx[i].receptions.push(reception);
                i
            }
            Err(i) => {
                // First in-flight reception at this receiver: join the
                // sweep work list, adopting any dormant snapshot.
                let entry = ActiveRx {
                    cell: key.0,
                    rx,
                    pos: self.position(rx),
                    receptions: vec![reception],
                    snap: self.far.as_mut().and_then(|far| far.cache.remove(&rx)),
                };
                self.active_rx.insert(i, entry);
                i
            }
        };
        self.reevaluate(i, self.active_rx[i].receptions.len() - 1);
        RxId { rx, seq }
    }

    /// Take reception `j` out of work-list entry `i`. The receiver leaves
    /// the work list with its last reception, and its snapshot spills back
    /// to the dormant cache, so a later reception can adopt it if the
    /// dormancy-gap guard still trusts it.
    fn remove_reception(&mut self, i: usize, j: usize) -> Reception {
        let r = self.active_rx[i].receptions.swap_remove(j);
        if self.active_rx[i].receptions.is_empty() {
            let a = self.active_rx.remove(i);
            if let (Some(far), Some(snap)) = (self.far.as_mut(), a.snap) {
                far.cache.insert(a.rx, snap);
            }
        }
        r
    }

    /// Finish a reception and report its outcome.
    pub fn complete_reception(&mut self, id: RxId) -> ReceptionReport {
        let (i, j) = self.find(id).expect("completing unknown reception");
        // Final re-evaluation so min_sinr reflects the closing state.
        self.reevaluate(i, j);
        let r = self.remove_reception(i, j);
        ReceptionReport {
            rx: id.rx,
            src: r.src_station,
            success: !r.failed,
            min_sinr: r.min_sinr,
            blame: r.blame,
            interference_at_failure: r.interference_at_failure,
        }
    }

    /// Abort a reception without a report (e.g. the simulation is tearing
    /// down).
    pub fn abort_reception(&mut self, id: RxId) {
        if let Some((i, j)) = self.find(id) {
            self.remove_reception(i, j);
        }
    }

    /// Current SINR of a reception.
    pub fn current_sinr(&self, id: RxId) -> f64 {
        let (i, j) = self.find(id).expect("unknown reception");
        let r = &self.active_rx[i].receptions[j];
        sinr(
            r.signal.value(),
            r.interference.value() + self.far_term_at(id.rx, Some(r.src_tx)),
        )
    }

    /// SINR of a reception at `rx` after SIC, recomputed from the full
    /// active set.
    fn sinr_with_sic(&self, rx: StationId, r: &Reception) -> f64 {
        let contributions: Vec<f64> = self
            .active_tx
            .iter()
            .filter(|(&id, _)| TxId(id) != r.src_tx)
            .map(|(_, tx)| self.received_power(rx, tx.station, tx.power).value())
            .collect();
        crate::sic::effective_sinr(
            r.signal.value(),
            self.thermal.value(),
            &contributions,
            self.sic_depth,
            r.threshold,
        )
    }

    /// Re-evaluate reception `j` of work-list entry `i` against its
    /// running sum and the receiver's far tail, storing a recomputed
    /// snapshot.
    fn reevaluate(&mut self, i: usize, j: usize) {
        let a = &self.active_rx[i];
        let (far_v, fresh) = self.far_value(a.rx, a.snap);
        let r = &a.receptions[j];
        let eval = self.eval_reception(a.rx, r, r.interference.value(), far_v);
        let a = &mut self.active_rx[i];
        if fresh.is_some() {
            a.snap = fresh;
        }
        a.receptions[j].apply(eval);
    }

    /// Evaluate reception `r` at `rx` against running sum `interference`
    /// and far tail value `far_v` — the one evaluation behind both
    /// [`Self::reevaluate`] and the sweep. Read-only.
    fn eval_reception(&self, rx: StationId, r: &Reception, interference: f64, far_v: f64) -> Eval {
        parn_sim::counter_inc!("phys.sinr.reevaluations");
        let far_term = self.far_term_from(far_v, rx, Some(r.src_tx));
        let sinr = if self.sic_depth > 0 {
            self.sinr_with_sic(rx, r)
        } else {
            sinr(r.signal.value(), interference + far_term)
        };
        let failure = (!r.failed && sinr < r.threshold).then(|| {
            // In far mode the snapshot only names near interferers — a
            // failure caused purely by the aggregated tail has no single
            // culprit to report, by construction.
            let rxp = self.position(rx);
            let blame = self
                .active_tx
                .iter()
                .filter(|(&id, tx)| {
                    TxId(id) != r.src_tx
                        && self.far.as_ref().is_none_or(|far| {
                            self.position(tx.station).distance(rxp) <= far.near_radius
                        })
                })
                .map(|(_, tx)| Blame {
                    station: tx.station,
                    intended_rx: tx.intended_rx,
                    contribution: self.received_power(rx, tx.station, tx.power),
                    jammer: tx.jammer,
                    violator: tx.violator,
                })
                .filter(|b| b.contribution.value() > 0.0)
                .collect();
            (blame, PowerW(interference + far_term))
        });
        Eval { sinr, failure }
    }

    /// One TX start or end, after the far aggregates were updated. Walks
    /// every receiver with an in-flight reception — in (cell-index,
    /// receiver-id) order — applying the exact delta to the running sums
    /// of receivers that see the transmitter as near, pushing the event's
    /// exact per-cell churn into far receivers' snapshots, and, on a
    /// start, re-evaluating only the receptions whose denominator moved
    /// beyond tolerance. Exact mode is the degenerate case: every
    /// transmitter is near, and there is no tail and no snapshot.
    ///
    /// The walk is partitioned into contiguous shards of that same
    /// work list. Shards read shared state only, every per-receiver
    /// decision is independent of every other receiver, and the merge
    /// applies outputs in work-list order — so results are bit-identical
    /// whether shards run inline or on the worker pool, at any thread
    /// count.
    fn sweep(&mut self, p: SweepParams) {
        if self.active_rx.is_empty() {
            return;
        }
        if self.far.is_none() {
            self.run_sweep(&p);
            return;
        }
        parn_sim::counter_inc!("core.shard.sweeps");
        parn_sim::time_scope!("phys.far_sweep");
        self.run_sweep(&p);
    }

    /// Sweep the work list in shards on the worker pool when it is large
    /// enough, else inline into the reused buffers, and merge the output.
    fn run_sweep(&mut self, p: &SweepParams) {
        match &self.pool {
            Some(pool) if self.active_rx.len() >= PAR_MIN_WORK => {
                parn_sim::counter_inc!("core.shard.parallel");
                let work = self.active_rx.as_slice();
                let chunk = work.len().div_ceil(self.threads.min(work.len()));
                let this = &*self;
                let jobs: Vec<_> = work
                    .chunks(chunk)
                    .enumerate()
                    .map(|(k, shard)| {
                        move || {
                            let mut out = SweepOut::default();
                            this.sweep_shard(k * chunk, shard, p, &mut out);
                            out
                        }
                    })
                    .collect();
                for mut out in pool.run(jobs) {
                    self.apply_sweep(&mut out);
                }
            }
            _ => {
                let mut out = std::mem::take(&mut self.sweep_out);
                self.sweep_shard(0, &self.active_rx, p, &mut out);
                self.apply_sweep(&mut out);
                self.sweep_out = out;
            }
        }
    }

    /// Sweep the work-list entries `shard`, which start at index `base`.
    fn sweep_shard(&self, base: usize, shard: &[ActiveRx], p: &SweepParams, out: &mut SweepOut) {
        for (k, a) in shard.iter().enumerate() {
            self.sweep_receiver(base + k, a, p, out);
        }
    }

    /// Decide one receiver's share of one sweep — its snapshot update, its
    /// receptions' running sums, and any re-evaluations — into `out`.
    /// Pure reads; [`Self::apply_sweep`] applies the result.
    fn sweep_receiver(&self, i: usize, a: &ActiveRx, p: &SweepParams, out: &mut SweepOut) {
        let thermal = self.thermal.value();
        // The exact |delta| this event applied to rx's far tail — zero for
        // near receivers, whose running sums track this transmitter
        // exactly.
        let (near, tail_delta) = match &self.far {
            None => (true, 0.0),
            Some(far) => {
                let dist = a.pos.distance(p.txp);
                let tail = self.far_contribution_inner(
                    a.pos,
                    a.rx,
                    p.tx_station,
                    p.power,
                    dist,
                    p.tx_cell_center,
                );
                (dist <= far.near_radius, tail)
            }
        };
        let near_delta = || {
            self.received_power(a.rx, p.tx_station, PowerW(p.power))
                .value()
        };
        // `total_drift` after this event's bump — both start and end bump
        // by |power|, so shards can stamp `global_at` without mutable
        // access.
        let drift_after = p.drift_before + p.power;
        if p.is_start {
            // Push the signed delta forward, or recompute when the value
            // can't be trusted; decide whether the receptions re-evaluate.
            let (snap, skip) = match (&self.far, a.snap) {
                (None, _) => (None, false),
                (Some(far), Some(s))
                    if Self::snapshot_trusted(far, &s, thermal, p.drift_before) =>
                {
                    parn_sim::counter_inc!("phys.far_cache.hit");
                    let value = s.value + tail_delta;
                    let rise = s.rise + tail_delta;
                    // Near receivers always re-evaluate (their running sums
                    // just gained this transmission's exact contribution);
                    // far receivers skip while the accumulated rise stays
                    // inside the tolerance budget.
                    let skip = !near && rise <= far.tolerance * (value + thermal);
                    let snap = FarSnapshot {
                        value,
                        rise: if skip { rise } else { 0.0 },
                        churn: s.churn + tail_delta,
                        global_at: drift_after,
                    };
                    (Some(snap), skip)
                }
                (Some(_), _) => {
                    parn_sim::counter_inc!("phys.far_cache.recompute");
                    let value = self.recompute_far(a.rx);
                    (Some(FarSnapshot::fresh(value, drift_after)), false)
                }
            };
            if let Some(s) = snap {
                out.snaps.push((i, s));
            }
            if skip {
                parn_sim::counter_inc!("phys.sinr.skipped_reevals", a.receptions.len() as u64);
                return;
            }
            let delta = if near { near_delta() } else { 0.0 };
            let far_v = snap.map_or(0.0, |s| s.value);
            for (j, r) in a.receptions.iter().enumerate() {
                if r.src_tx.0 == p.tx_id {
                    // Its own signal, never its interference. Fresh ids
                    // can't be a source, but a move re-attaching an
                    // existing transmission can sweep past it.
                    continue;
                }
                let interference = r.interference.value() + delta;
                out.receptions.push(RxUpdate {
                    at: (i, j),
                    interference,
                    eval: Some(self.eval_reception(a.rx, r, interference, far_v)),
                });
            }
        } else {
            // TX end: interference only drops, so nothing re-evaluates;
            // near receivers subtract the exact delta, far receivers push
            // the tail value down. Dormant receivers (no snapshot) stay
            // dormant.
            if near {
                let delta = near_delta();
                for (j, r) in a.receptions.iter().enumerate() {
                    if r.src_tx.0 == p.tx_id {
                        continue; // its own signal, never its interference
                    }
                    let mut interference = r.interference.value() - delta;
                    // Numerical guard: the running sum may drift a hair
                    // negative. Drift orders above last-bit rounding is
                    // rebuilt exactly instead of silently absorbed.
                    if interference < 0.0 {
                        parn_sim::counter_inc!("phys.interference.clamped");
                        interference = if -interference > RESUM_REL_EPS * delta {
                            parn_sim::counter_inc!("phys.interference.resummed");
                            self.near_interference_at(a.rx, Some(r.src_tx)).value()
                        } else {
                            0.0
                        };
                    }
                    out.receptions.push(RxUpdate {
                        at: (i, j),
                        interference,
                        eval: None,
                    });
                }
            }
            if let (Some(far), Some(s)) = (&self.far, a.snap) {
                let snap = if Self::snapshot_trusted(far, &s, thermal, p.drift_before)
                    && s.value - tail_delta >= 0.0
                {
                    FarSnapshot {
                        value: s.value - tail_delta,
                        rise: s.rise,
                        churn: s.churn + tail_delta,
                        global_at: drift_after,
                    }
                } else {
                    // The value can't absorb this subtraction (rounding
                    // floor or turnover guard): rebuild it now — the
                    // receptions here stay live and will consume it.
                    parn_sim::counter_inc!("phys.far_cache.recompute");
                    FarSnapshot {
                        rise: s.rise,
                        ..FarSnapshot::fresh(self.recompute_far(a.rx), drift_after)
                    }
                };
                out.snaps.push((i, snap));
            }
        }
    }

    /// Apply sweep output in work-list order — the stable reduction step
    /// that keeps runs bit-identical across thread counts. Drains `out`,
    /// keeping its buffers.
    fn apply_sweep(&mut self, out: &mut SweepOut) {
        for (i, snap) in out.snaps.drain(..) {
            self.active_rx[i].snap = Some(snap);
        }
        for u in out.receptions.drain(..) {
            let r = &mut self.active_rx[u.at.0].receptions[u.at.1];
            r.interference = PowerW(u.interference);
            if let Some(eval) = u.eval {
                r.apply(eval);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gains::GainMatrix;
    use crate::geom::Point;
    use crate::propagation::FreeSpace;

    /// Three stations on a line: 0 --10m-- 1 --20m-- 2.
    fn tracker() -> SinrTracker {
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(30.0, 0.0),
        ];
        let gm = GainMatrix::build(&pos, &FreeSpace::unit());
        SinrTracker::new(Arc::new(gm), PowerW(1e-9), 1e12)
    }

    #[test]
    fn clean_reception_succeeds() {
        let mut t = tracker();
        let tx = t.start_transmission(0, PowerW(1.0), Some(1));
        let rx = t.begin_reception(1, tx, 0.01);
        let rep = t.complete_reception(rx);
        t.end_transmission(tx);
        assert!(rep.success);
        assert!(rep.min_sinr > 1e5); // 0.01 W signal over ~1e-9 W noise
        assert!(rep.blame.is_empty());
        assert_eq!((rep.rx, rep.src), (1, 0));
    }

    #[test]
    fn interference_sums_eq5() {
        let mut t = tracker();
        let _a = t.start_transmission(0, PowerW(1.0), None);
        let _b = t.start_transmission(2, PowerW(4.0), None);
        // At station 1: 1.0/100 + 4.0/400 + thermal.
        let n = t.interference_at(1, None);
        assert!((n.value() - (0.01 + 0.01 + 1e-9)).abs() < 1e-15);
    }

    #[test]
    fn exclusion_removes_source() {
        let mut t = tracker();
        let a = t.start_transmission(0, PowerW(1.0), None);
        let n = t.interference_at(1, Some(a));
        assert!((n.value() - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn strong_interferer_kills_reception() {
        let mut t = tracker();
        let tx = t.start_transmission(2, PowerW(1.0), Some(1));
        // Signal at 1: 1/400 = 0.0025.
        let rx = t.begin_reception(1, tx, 0.1);
        // Station 0 fires up next door: interference 1/100 = 0.01,
        // SINR = 0.25 — still above 0.1. Then it raises power.
        let i1 = t.start_transmission(0, PowerW(1.0), None);
        assert!(t.current_sinr(rx) > 0.1);
        let i2 = t.start_transmission(0, PowerW(10.0), None);
        assert!(t.current_sinr(rx) < 0.1);
        t.end_transmission(i1);
        t.end_transmission(i2);
        // Interference gone, but the dip already doomed the packet.
        let rep = t.complete_reception(rx);
        t.end_transmission(tx);
        assert!(!rep.success);
        assert!(rep.min_sinr < 0.1);
        // Blame snapshot holds both interferers from the failure moment.
        assert_eq!(rep.blame.len(), 2);
        assert!(rep.blame.iter().all(|b| b.station == 0));
    }

    #[test]
    fn late_interferer_after_end_is_harmless() {
        let mut t = tracker();
        let tx = t.start_transmission(0, PowerW(1.0), Some(1));
        let rx = t.begin_reception(1, tx, 0.1);
        let rep = t.complete_reception(rx);
        assert!(rep.success);
        // Interference arriving after completion doesn't matter.
        let i = t.start_transmission(2, PowerW(100.0), None);
        t.end_transmission(i);
        t.end_transmission(tx);
    }

    #[test]
    fn self_transmission_is_fatal_type3() {
        let mut t = tracker();
        let tx = t.start_transmission(0, PowerW(1.0), Some(1));
        let rx = t.begin_reception(1, tx, 0.01);
        // Station 1 transmits while receiving.
        let own = t.start_transmission(1, PowerW(1.0), Some(2));
        assert!(t.current_sinr(rx) < 1e-9);
        t.end_transmission(own);
        let rep = t.complete_reception(rx);
        t.end_transmission(tx);
        assert!(!rep.success);
        let self_blame: Vec<_> = rep.blame.iter().filter(|b| b.station == 1).collect();
        assert_eq!(self_blame.len(), 1);
        assert!(self_blame[0].contribution.value() > 1e6);
    }

    #[test]
    fn two_receptions_at_one_station_type2_with_headroom() {
        // Two senders to one receiver: with spread spectrum both can
        // survive if thresholds are low (multiple despreading channels).
        let mut t = tracker();
        let ta = t.start_transmission(0, PowerW(1.0), Some(1)); // 0.01 at 1
        let tb = t.start_transmission(2, PowerW(4.0), Some(1)); // 0.01 at 1
        let ra = t.begin_reception(1, ta, 0.5);
        let rb = t.begin_reception(1, tb, 0.5);
        // Each sees the other as interference: SINR ≈ 1.0 > 0.5.
        assert!((t.current_sinr(ra) - 1.0).abs() < 1e-3);
        assert!((t.current_sinr(rb) - 1.0).abs() < 1e-3);
        let rep_a = t.complete_reception(ra);
        let rep_b = t.complete_reception(rb);
        t.end_transmission(ta);
        t.end_transmission(tb);
        assert!(rep_a.success && rep_b.success);
    }

    #[test]
    fn two_receptions_fail_with_tight_threshold() {
        let mut t = tracker();
        let ta = t.start_transmission(0, PowerW(1.0), Some(1));
        let tb = t.start_transmission(2, PowerW(4.0), Some(1));
        let ra = t.begin_reception(1, ta, 2.0);
        let rb = t.begin_reception(1, tb, 2.0);
        let rep_a = t.complete_reception(ra);
        let rep_b = t.complete_reception(rb);
        t.end_transmission(ta);
        t.end_transmission(tb);
        assert!(!rep_a.success && !rep_b.success);
        // Each blames the other sender, whose intended_rx is station 1 —
        // the Type 2 signature.
        assert_eq!(rep_a.blame.len(), 1);
        assert_eq!(rep_a.blame[0].intended_rx, Some(1));
        assert_eq!(rep_b.blame[0].station, 0);
    }

    #[test]
    fn min_sinr_tracks_worst_moment() {
        let mut t = tracker();
        let tx = t.start_transmission(0, PowerW(1.0), Some(1));
        let rx = t.begin_reception(1, tx, 1e-6);
        let i = t.start_transmission(2, PowerW(400.0), None); // interference 1.0 at station 1
        t.end_transmission(i);
        let rep = t.complete_reception(rx);
        t.end_transmission(tx);
        assert!(rep.success); // threshold was tiny
                              // Worst moment: signal 0.01 over interference ~1.0.
        assert!((rep.min_sinr - 0.01).abs() < 1e-4, "min {}", rep.min_sinr);
    }

    #[test]
    fn sensed_power_for_carrier_sense() {
        let mut t = tracker();
        assert!((t.sensed_power(1).value() - 1e-9).abs() < 1e-18);
        let tx = t.start_transmission(0, PowerW(1.0), None);
        assert!(t.sensed_power(1).value() > 0.009);
        t.end_transmission(tx);
        assert!((t.sensed_power(1).value() - 1e-9).abs() < 1e-12);
    }

    #[test]
    fn active_counters() {
        let mut t = tracker();
        assert_eq!((t.active_transmissions(), t.active_receptions()), (0, 0));
        let tx = t.start_transmission(0, PowerW(1.0), Some(1));
        let rx = t.begin_reception(1, tx, 0.01);
        assert_eq!((t.active_transmissions(), t.active_receptions()), (1, 1));
        t.abort_reception(rx);
        t.end_transmission(tx);
        assert_eq!((t.active_transmissions(), t.active_receptions()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "ending unknown transmission")]
    fn double_end_panics() {
        let mut t = tracker();
        let tx = t.start_transmission(0, PowerW(1.0), None);
        t.end_transmission(tx);
        t.end_transmission(tx);
    }

    #[test]
    fn clamp_drift_triggers_exact_resummation() {
        use std::sync::atomic::Ordering;
        // Zero thermal floor and a 17-decades dynamic range: a weak
        // contribution is swallowed by rounding when a strong one joins the
        // running sum, so removing strong-then-weak drives the sum negative.
        // The clamp must then resum exactly, not silently zero the drift.
        let pos = vec![
            Point::new(0.0, 0.0),  // src
            Point::new(10.0, 0.0), // rx
            Point::new(20.0, 0.0), // weak interferer (gain 1e-2 at rx)
            Point::new(0.0, 10.0), // strong interferer (gain ~5e-3 at rx)
        ];
        let gm = GainMatrix::build(&pos, &FreeSpace::unit());
        let mut t = SinrTracker::new(Arc::new(gm), PowerW::ZERO, 1e12);
        let clamped = parn_sim::obs::counter("phys.interference.clamped");
        let resummed = parn_sim::obs::counter("phys.interference.resummed");
        let (clamped0, resummed0) = (
            clamped.load(Ordering::Relaxed),
            resummed.load(Ordering::Relaxed),
        );

        let tx = t.start_transmission(0, PowerW(1.0), Some(1));
        let rx = t.begin_reception(1, tx, 1e-9);
        for _ in 0..100 {
            // Weak first (1e-15 W · 1e-2 = 1e-17 W at rx), then strong
            // (200 W · ~5e-3 = 1 W): the weak term is below one ulp of the
            // strong one, so end-strong/end-weak leaves a negative residue.
            let weak = t.start_transmission(2, PowerW(1e-15), None);
            let strong = t.start_transmission(3, PowerW(200.0), None);
            t.end_transmission(strong);
            t.end_transmission(weak);
            // After every cycle the running sum must bit-match a
            // from-scratch recompute of the active set (here: empty).
            let exact = t.interference_at(1, Some(tx));
            let (i, j) = t.find(rx).expect("reception in flight");
            let running = t.active_rx[i].receptions[j].interference;
            assert_eq!(
                running.value().to_bits(),
                exact.value().to_bits(),
                "running {running:?} diverged from exact {exact:?}"
            );
        }
        assert!(
            clamped.load(Ordering::Relaxed) > clamped0,
            "clamp never fired — test geometry no longer exercises drift"
        );
        assert!(
            resummed.load(Ordering::Relaxed) > resummed0,
            "resummation never fired"
        );
        let rep = t.complete_reception(rx);
        t.end_transmission(tx);
        assert!(rep.success);
    }

    #[test]
    fn moves_recompute_exactly_in_exact_mode() {
        // A move transaction in exact mode must leave the tracker in the
        // same state (bit for bit) as a fresh tracker built over the moved
        // positions with the same active set.
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(30.0, 0.0),
            Point::new(-15.0, 20.0),
        ];
        let gm = Arc::new(GainMatrix::build_shared(&pts, Arc::new(FreeSpace::unit())));
        let mut t = SinrTracker::new(Arc::clone(&gm) as _, PowerW(1e-9), 1e12);
        let tx0 = t.start_transmission(0, PowerW(1.0), Some(1));
        let rx0 = t.begin_reception(1, tx0, 0.01);
        let _tx2 = t.start_transmission(2, PowerW(0.5), None);

        let movers = [1usize, 2];
        t.begin_moves(&movers);
        pts[1] = Point::new(12.0, 5.0);
        pts[2] = Point::new(-20.0, 3.0);
        for &m in &movers {
            gm.relocate(m, pts[m]);
        }
        t.finish_moves();

        let fresh_gm = Arc::new(GainMatrix::build(&pts, &FreeSpace::unit()));
        let mut f = SinrTracker::new(fresh_gm as _, PowerW(1e-9), 1e12);
        let ftx0 = f.start_transmission(0, PowerW(1.0), Some(1));
        let frx0 = f.begin_reception(1, ftx0, 0.01);
        let _ftx2 = f.start_transmission(2, PowerW(0.5), None);
        for s in 0..pts.len() {
            assert_eq!(
                t.interference_at(s, None).value().to_bits(),
                f.interference_at(s, None).value().to_bits(),
                "interference diverged at {s}"
            );
        }
        assert_eq!(
            t.current_sinr(rx0).to_bits(),
            f.current_sinr(frx0).to_bits()
        );
    }

    mod far_field {
        use super::*;
        use crate::gainmodel::{GainModel, GridGainModel};
        use crate::placement::Placement;
        use parn_sim::Rng;

        fn grid_model(n: usize, radius: f64, seed: u64) -> Arc<GridGainModel> {
            let pts = Placement::UniformDisk { n, radius }.generate(&mut Rng::new(seed));
            Arc::new(GridGainModel::new(&pts, Box::new(FreeSpace::unit())))
        }

        #[test]
        #[should_panic(expected = "requires the grid gain backend")]
        fn dense_backend_rejects_far_field() {
            let gm = GainMatrix::build(&[Point::ORIGIN, Point::new(10.0, 0.0)], &FreeSpace::unit());
            let _ = SinrTracker::new(Arc::new(gm), PowerW(1e-12), 1e12).with_far_field(50.0, 0.0);
        }

        #[test]
        fn far_tail_stays_within_documented_bound() {
            let gm = grid_model(400, 200.0, 11);
            let thermal = PowerW(1e-13);
            let near_radius = 150.0;
            let tolerance = 0.05;
            let delta = gm.grid().half_diagonal();
            // Documented bound: geometric cell-aggregation error plus the
            // snapshot-cache staleness allowance.
            let bound = 2.0 * delta / (near_radius - delta) + tolerance;
            assert!(bound < 1.0, "test geometry too coarse: {bound}");

            let mut far_t = SinrTracker::new(Arc::clone(&gm) as Arc<dyn GainModel>, thermal, 1e12)
                .with_far_field(near_radius, tolerance);
            let mut rng = Rng::new(21);
            let mut txs = Vec::new();
            for _ in 0..40 {
                let s = rng.below(400) as usize;
                if txs.iter().any(|&(t, _)| t == s) {
                    continue;
                }
                let p = PowerW(rng.range_f64(1e-4, 1e-1));
                far_t.start_transmission(s, p, None);
                txs.push((s, p));
            }
            for rx in (0..400).step_by(37) {
                if txs.iter().any(|&(s, _)| s == rx) {
                    continue; // self-interference would swamp the compare
                }
                let rxp = gm.position(rx);
                let near_exact: f64 = txs
                    .iter()
                    .filter(|&&(s, _)| s != rx && gm.position(s).distance(rxp) <= near_radius)
                    .map(|&(s, p)| gm.gain(rx, s).value() * p.value())
                    .sum();
                let far_exact: f64 = txs
                    .iter()
                    .filter(|&&(s, _)| gm.position(s).distance(rxp) > near_radius)
                    .map(|&(s, p)| gm.gain(rx, s).value() * p.value())
                    .sum();
                let total = far_t.interference_at(rx, None).value();
                let far_approx = total - thermal.value() - near_exact;
                assert!(
                    (far_approx - far_exact).abs() <= bound * far_exact + 1e-18,
                    "rx {rx}: approx {far_approx:e} vs exact {far_exact:e} \
                     (bound {bound})"
                );
            }
        }

        #[test]
        fn far_mode_reception_agrees_with_exact_when_margin_is_wide() {
            // A clean link with scattered weak far interferers: both modes
            // must agree on success and closely on min SINR.
            let gm = grid_model(200, 300.0, 5);
            let thermal = PowerW(1e-13);
            let run = |far: bool| {
                let mut t = SinrTracker::new(Arc::clone(&gm) as Arc<dyn GainModel>, thermal, 1e12);
                if far {
                    t = t.with_far_field(100.0, 0.05);
                }
                let mut rng = Rng::new(77);
                let mut noise = Vec::new();
                for _ in 0..15 {
                    let s = 2 + rng.below(198) as usize;
                    noise.push(t.start_transmission(s, PowerW(1e-3), None));
                }
                let tx = t.start_transmission(0, PowerW(1.0), Some(1));
                let rx = t.begin_reception(1, tx, 1e-3);
                let rep = t.complete_reception(rx);
                for id in noise {
                    t.end_transmission(id);
                }
                t.end_transmission(tx);
                rep
            };
            let exact = run(false);
            let approx = run(true);
            assert_eq!(exact.success, approx.success);
            let rel = (exact.min_sinr - approx.min_sinr).abs() / exact.min_sinr;
            assert!(rel < 0.5, "min_sinr diverged: {rel}");
        }

        #[test]
        fn sweep_results_are_bit_identical_across_thread_counts() {
            // Enough live receivers (> PAR_MIN_WORK) that the pooled path
            // actually engages, then heavy interferer churn so sweeps do
            // real work. Every per-reception outcome must match to the bit
            // regardless of thread count, with far field on and off — the
            // stable-reduction-order guarantee the CI determinism matrix
            // also checks end to end.
            let gm = grid_model(400, 300.0, 13);
            let run = |far: bool, threads: usize| {
                let mut t =
                    SinrTracker::new(Arc::clone(&gm) as Arc<dyn GainModel>, PowerW(1e-13), 1e12);
                if far {
                    t = t.with_far_field(60.0, 0.05);
                }
                let mut t = t.with_threads_unclamped(threads);
                let mut rng = Rng::new(99);
                let mut links = Vec::new();
                for i in 0..120 {
                    let tx = t.start_transmission(2 * i, PowerW(0.1), Some(2 * i + 1));
                    let rx = t.begin_reception(2 * i + 1, tx, 1e-2);
                    links.push((tx, rx));
                }
                let mut churn = Vec::new();
                for k in 0..60 {
                    churn.push(t.start_transmission(
                        240 + k,
                        PowerW(rng.range_f64(1e-4, 1.0)),
                        None,
                    ));
                    if k % 3 == 2 {
                        t.end_transmission(churn.remove(0));
                    }
                }
                for id in churn {
                    t.end_transmission(id);
                }
                let mut out = Vec::new();
                for (tx, rx) in links {
                    let rep = t.complete_reception(rx);
                    t.end_transmission(tx);
                    out.push((rep.success, rep.min_sinr.to_bits(), rep.blame.len()));
                }
                out
            };
            for far in [true, false] {
                let single = run(far, 1);
                for threads in [2, 4] {
                    assert_eq!(
                        single,
                        run(far, threads),
                        "diverged at threads={threads}, far={far}"
                    );
                }
            }
        }

        #[test]
        fn far_aggregates_survive_moves_and_drain_to_floor() {
            // Rounds of station moves while transmissions are on air: the
            // detach/re-attach bookkeeping (slot fix-ups, per-cell totals)
            // must stay exact, so tearing everything down afterwards
            // returns every receiver to the thermal floor.
            let gm = grid_model(300, 250.0, 17);
            let thermal = PowerW(1e-12);
            let mut t = SinrTracker::new(Arc::clone(&gm) as Arc<dyn GainModel>, thermal, 1e12)
                .with_far_field(80.0, 0.02);
            let mut ids = Vec::new();
            for s in (0..300).step_by(7) {
                ids.push(t.start_transmission(s, PowerW(1e-2), None));
            }
            let mut rng = Rng::new(3);
            for round in 0..5 {
                let movers: Vec<usize> = (0..300).filter(|s| s % 50 == round).collect();
                t.begin_moves(&movers);
                for &m in &movers {
                    gm.relocate(
                        m,
                        Point::new(rng.range_f64(-240.0, 240.0), rng.range_f64(-240.0, 240.0)),
                    );
                }
                t.finish_moves();
            }
            for id in ids {
                t.end_transmission(id);
            }
            for rx in [0usize, 150, 299] {
                let floor = t.interference_at(rx, None).value();
                assert!(
                    (floor - thermal.value()).abs() <= 1e-15,
                    "residual {floor:e} at {rx}"
                );
            }
        }

        #[test]
        fn far_mode_move_agrees_with_exact_mid_reception() {
            // Move the source, the receiver, and an active interferer in
            // the middle of a reception; far mode must agree with the
            // exact tracker on the outcome and closely on min SINR.
            let run = |far: bool| {
                let gm = grid_model(200, 300.0, 5);
                let mut t =
                    SinrTracker::new(Arc::clone(&gm) as Arc<dyn GainModel>, PowerW(1e-13), 1e12);
                if far {
                    t = t.with_far_field(100.0, 0.05);
                }
                let mut noise = Vec::new();
                for k in 0..12usize {
                    noise.push(t.start_transmission(50 + 11 * k, PowerW(1e-3), None));
                }
                let tx = t.start_transmission(0, PowerW(1.0), Some(1));
                let rx = t.begin_reception(1, tx, 1e-3);
                let movers = [0usize, 1, 50];
                t.begin_moves(&movers);
                let p0 = gm.position(0);
                gm.relocate(0, Point::new(p0.x + 8.0, p0.y - 3.0));
                let p1 = gm.position(1);
                gm.relocate(1, Point::new(p1.x - 5.0, p1.y + 6.0));
                gm.relocate(50, Point::new(p1.x + 20.0, p1.y));
                t.finish_moves();
                let rep = t.complete_reception(rx);
                for id in noise {
                    t.end_transmission(id);
                }
                t.end_transmission(tx);
                rep
            };
            let exact = run(false);
            let approx = run(true);
            assert_eq!(exact.success, approx.success);
            let rel = (exact.min_sinr - approx.min_sinr).abs() / exact.min_sinr;
            assert!(rel < 0.5, "min_sinr diverged: {rel}");
        }

        #[test]
        fn far_interference_returns_to_floor_after_teardown() {
            let gm = grid_model(300, 250.0, 9);
            let thermal = PowerW(1e-12);
            let mut t = SinrTracker::new(Arc::clone(&gm) as Arc<dyn GainModel>, thermal, 1e12)
                .with_far_field(80.0, 0.02);
            let mut ids = Vec::new();
            for s in (0..300).step_by(11) {
                ids.push(t.start_transmission(s, PowerW(1e-2), None));
            }
            assert!(t.interference_at(150, None).value() > thermal.value());
            for id in ids {
                t.end_transmission(id);
            }
            // All aggregates drained: back to thermal exactly.
            let floor = t.interference_at(150, None).value();
            assert!(
                (floor - thermal.value()).abs() <= 1e-15,
                "residual {floor:e}"
            );
        }
    }
}
