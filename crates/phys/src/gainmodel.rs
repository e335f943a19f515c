//! The [`GainModel`] abstraction: who can hear whom, and how well.
//!
//! The dense [`GainMatrix`] is the reference backend — exact, simple, and
//! O(M²) in memory, which caps it near 10⁴ stations. [`GridGainModel`]
//! answers the same queries from a uniform-grid spatial index
//! ([`GridIndex`]) plus on-demand propagation evaluation with a small
//! direct-mapped cache, at O(M) memory. For deterministic propagation
//! models the two backends return **identical** results (same floats,
//! same orderings), so any simulation is bit-for-bit reproducible across
//! backends; the equivalence proptests in the workspace root enforce
//! this.

use crate::gains::{GainMatrix, StationId};
use crate::geom::Point;
use crate::grid::GridIndex;
use crate::propagation::Propagation;
use crate::units::Gain;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// Pairwise power gains between stations, plus the neighbour queries the
/// rest of the workspace needs. Receiver-first indexing throughout
/// (`gain(rx, tx)` is the paper's `h_ij²` with `i = rx`).
pub trait GainModel: std::fmt::Debug + Send + Sync {
    /// Number of stations.
    fn len(&self) -> usize;

    /// True when there are no stations.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Power gain from transmitter `tx` to receiver `rx`. Self-paths are
    /// zero (a station's own transmitter is handled specially — Type 3
    /// collisions, §5).
    fn gain(&self, rx: StationId, tx: StationId) -> Gain;

    /// Position of one station (current — mobility moves stations).
    fn position(&self, id: StationId) -> Point;

    /// Current positions of all stations, by id.
    fn positions(&self) -> Vec<Point> {
        (0..self.len()).map(|id| self.position(id)).collect()
    }

    /// Move station `id` to `to`, updating whatever derived state the
    /// backend keeps (dense rows/columns, grid buckets, gain caches) so
    /// that subsequent queries answer as if the station had always been
    /// there. Only backends that support mobility implement this; the
    /// default panics so a static backend can never silently ignore a
    /// move.
    fn relocate(&self, id: StationId, to: Point) {
        let _ = (id, to);
        unimplemented!("this gain backend does not support station mobility")
    }

    /// All stations whose path gain *to* `rx` is at least `threshold`,
    /// in ascending id order.
    fn hearable_by(&self, rx: StationId, threshold: Gain) -> Vec<StationId>;

    /// Downcast hook for backends built on a spatial grid; lets the SINR
    /// tracker's far-field mode reach the index. `None` for dense.
    fn as_grid(&self) -> Option<&GridGainModel> {
        None
    }
}

impl GainModel for GainMatrix {
    fn len(&self) -> usize {
        GainMatrix::len(self)
    }

    fn gain(&self, rx: StationId, tx: StationId) -> Gain {
        GainMatrix::gain(self, rx, tx)
    }

    fn position(&self, id: StationId) -> Point {
        GainMatrix::position(self, id)
    }

    fn relocate(&self, id: StationId, to: Point) {
        GainMatrix::relocate(self, id, to)
    }

    fn hearable_by(&self, rx: StationId, threshold: Gain) -> Vec<StationId> {
        GainMatrix::hearable_by(self, rx, threshold)
    }
}

/// Number of slots in the direct-mapped gain cache. At 32 bytes per slot
/// this is 2 MiB **per thread** — small next to the simulator's event
/// state, and enough to keep the hot rx↔neighbour pairs of a 10⁵-station
/// run resident.
const CACHE_SLOTS: usize = 1 << 16;

/// Monotone id disambiguating [`GridGainModel`] instances in the shared
/// per-thread cache (tests build many models per process, and a process may
/// also run several networks back to back).
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread direct-mapped cache of `(instance, key, stamp, gain)`.
    ///
    /// The cache used to be a process-wide `Mutex<Vec<_>>` inside each
    /// `GridGainModel`; that lock sat directly on the SINR hot path and
    /// would serialise the cell-sharded sweep. A thread-local cache needs no
    /// locking, and because every entry stores the *exact* recomputed gain,
    /// hit/miss patterns can never change a returned float — runs stay
    /// bit-identical at any thread count (only the `phys.gain_cache.*`
    /// counters vary). The shard workers live in a persistent
    /// [`parn_sim::pool::WorkerPool`], so their caches stay warm across
    /// sweeps. Allocation is lazy: threads that never query gains pay
    /// nothing.
    ///
    /// `stamp` packs the two stations' move epochs at fill time. Mobility
    /// bumps a station's epoch on every relocation, so a stale entry
    /// mismatches and recomputes — invalidation is scoped to exactly the
    /// pairs involving a mover, with no cross-thread cache walk.
    static GAIN_CACHE: RefCell<Vec<(u64, u64, u64, f64)>> = const { RefCell::new(Vec::new()) };
}

/// Spatially indexed gain backend: O(M) memory, on-demand gains.
///
/// Gains are recomputed from the propagation model on each query (with a
/// direct-mapped cache in front), and neighbour queries are range-bounded
/// through the grid whenever the model can invert gain to distance
/// ([`Propagation::range_for_gain`]); otherwise they fall back to the
/// same full scans the dense backend does.
pub struct GridGainModel {
    positions: RwLock<Vec<Point>>,
    grid: RwLock<GridIndex>,
    model: Box<dyn Propagation + Send + Sync>,
    /// This model's id in the per-thread [`struct@GAIN_CACHE`].
    instance: u64,
    /// Whether `model` is reciprocal; symmetric models share one cache slot
    /// per unordered pair (see [`GainModel::gain`]).
    symmetric: bool,
    /// Per-station move epochs. Bumped by [`relocate`](GainModel::relocate);
    /// cache entries stamp the epochs they were filled under, so moving a
    /// station invalidates exactly its pairs in every thread's cache.
    epochs: Vec<AtomicU32>,
    /// When set (far-field mode keys state on cell indices), moves never
    /// grow the grid extent: escaping stations clamp to border cells,
    /// which stays exact for candidate queries.
    fixed_geometry: AtomicBool,
}

impl std::fmt::Debug for GridGainModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridGainModel")
            .field("n", &self.epochs.len())
            .field("cell", &self.grid().cell_size())
            .finish_non_exhaustive()
    }
}

impl GridGainModel {
    /// Build from station positions and a propagation model, with the
    /// automatic `≈ 1/√ρ` cell size.
    pub fn new(positions: &[Point], model: Box<dyn Propagation + Send + Sync>) -> GridGainModel {
        assert!(
            positions.len() < (1 << 32),
            "gain-cache keys pack two 32-bit station ids"
        );
        let symmetric = model.is_symmetric();
        GridGainModel {
            positions: RwLock::new(positions.to_vec()),
            grid: RwLock::new(GridIndex::build(positions)),
            model,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            symmetric,
            epochs: (0..positions.len()).map(|_| AtomicU32::new(0)).collect(),
            fixed_geometry: AtomicBool::new(false),
        }
    }

    /// The underlying spatial index. The guard is read-only; moves go
    /// through [`relocate`](GainModel::relocate) on the event loop, which
    /// never runs concurrently with readers holding this guard.
    pub fn grid(&self) -> RwLockReadGuard<'_, GridIndex> {
        self.grid.read().unwrap()
    }

    /// Pin the grid's geometry: relocations stop growing the extent for
    /// bbox-escaping moves (they clamp to border cells instead, which
    /// candidate queries handle exactly). The far-field tracker sets this
    /// because its aggregates are keyed on cell indices, which an
    /// expansion would renumber.
    pub fn set_fixed_geometry(&self, fixed: bool) {
        self.fixed_geometry.store(fixed, Ordering::Relaxed);
    }

    /// The underlying propagation model.
    pub fn propagation(&self) -> &(dyn Propagation + Send + Sync) {
        &*self.model
    }

    fn compute_gain(&self, rx: StationId, tx: StationId) -> f64 {
        let positions = self.positions.read().unwrap();
        self.model.power_gain(positions[tx], positions[rx]).value()
    }

    /// Packed move epochs of the two ids in `key` order — the cache
    /// stamp a fresh entry for this pair would carry right now.
    #[inline]
    fn stamp_for(&self, key: u64) -> u64 {
        let a = (key >> 32) as usize;
        let b = (key & 0xFFFF_FFFF) as usize;
        ((self.epochs[a].load(Ordering::Relaxed) as u64) << 32)
            | self.epochs[b].load(Ordering::Relaxed) as u64
    }
}

#[inline]
fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer: cheap, well-distributed slot selection.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl GainModel for GridGainModel {
    fn len(&self) -> usize {
        self.epochs.len()
    }

    fn gain(&self, rx: StationId, tx: StationId) -> Gain {
        if rx == tx {
            return Gain::ZERO; // match the dense diagonal convention
        }
        // Reciprocal models guarantee g(rx, tx) == g(tx, rx) *exactly*
        // (`Propagation::is_symmetric`), so both orderings canonicalize to
        // one key — the same unordered-pair fix `GainMatrix::build` got —
        // instead of computing and caching every pair twice.
        let key = if self.symmetric && tx < rx {
            ((tx as u64) << 32) | rx as u64
        } else {
            ((rx as u64) << 32) | tx as u64
        };
        let stamp = self.stamp_for(key);
        let slot = (mix64(key ^ self.instance.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize)
            & (CACHE_SLOTS - 1);
        GAIN_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if cache.is_empty() {
                cache.resize(CACHE_SLOTS, (0, 0, 0, 0.0));
            }
            let entry = &mut cache[slot];
            if entry.0 == self.instance && entry.1 == key && entry.2 == stamp {
                parn_sim::counter_inc!("phys.gain_cache.hit");
                return Gain(entry.3);
            }
            parn_sim::counter_inc!("phys.gain_cache.miss");
            let v = self.compute_gain(rx, tx);
            *entry = (self.instance, key, stamp, v);
            Gain(v)
        })
    }

    fn position(&self, id: StationId) -> Point {
        self.positions.read().unwrap()[id]
    }

    fn relocate(&self, id: StationId, to: Point) {
        let from;
        {
            let mut positions = self.positions.write().unwrap();
            from = positions[id];
            positions[id] = to;
        }
        {
            let mut grid = self.grid.write().unwrap();
            if !self.fixed_geometry.load(Ordering::Relaxed) && grid.expand_to_include(to) {
                parn_sim::counter_inc!("phys.grid.expansions");
            }
            if grid.relocate(id, from, to) {
                parn_sim::counter_inc!("phys.grid.rebuckets");
            }
        }
        // Stale cache entries for this station now mismatch on the epoch
        // stamp in every thread's cache — a per-pair, per-move
        // invalidation with no global drop.
        self.epochs[id].fetch_add(1, Ordering::Relaxed);
        parn_sim::counter_inc!("phys.grid.relocations");
    }

    fn hearable_by(&self, rx: StationId, threshold: Gain) -> Vec<StationId> {
        match self
            .model
            .range_for_gain(threshold)
            .filter(|r| r.is_finite())
        {
            Some(range) => {
                // Everything with gain ≥ threshold lies within `range`
                // (strictly-below contract), hence inside the bounding
                // square — the exact filter then mirrors the dense scan.
                let mut ids = self.grid().candidates_within(self.position(rx), range);
                ids.retain(|&tx| tx != rx && self.gain(rx, tx) >= threshold);
                ids.sort_unstable();
                ids
            }
            None => (0..self.len())
                .filter(|&tx| tx != rx && self.gain(rx, tx) >= threshold)
                .collect(),
        }
    }

    fn as_grid(&self) -> Option<&GridGainModel> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::propagation::{FreeSpace, HorizonLimited, PowerLaw, Shadowed};
    use parn_sim::Rng;

    fn disk(n: usize, radius: f64, seed: u64) -> Vec<Point> {
        Placement::UniformDisk { n, radius }.generate(&mut Rng::new(seed))
    }

    fn assert_backends_agree(pts: &[Point], model: impl Propagation + Send + Sync + 'static) {
        let dense = GainMatrix::build(pts, &model);
        let grid = GridGainModel::new(pts, Box::new(model));
        let n = pts.len();
        for rx in 0..n {
            for tx in 0..n {
                assert_eq!(
                    GainModel::gain(&dense, rx, tx),
                    grid.gain(rx, tx),
                    "gain mismatch at ({rx}, {tx})"
                );
            }
            for &thr in &[0.0, 1e-8, 1e-5, 1e-3, 1.0] {
                assert_eq!(
                    GainModel::hearable_by(&dense, rx, Gain(thr)),
                    grid.hearable_by(rx, Gain(thr)),
                    "hearable_by mismatch at rx={rx}, thr={thr}"
                );
            }
        }
    }

    #[test]
    fn grid_matches_dense_free_space() {
        assert_backends_agree(&disk(60, 400.0, 1), FreeSpace::unit());
    }

    #[test]
    fn grid_matches_dense_power_law() {
        assert_backends_agree(
            &disk(40, 300.0, 2),
            PowerLaw {
                k: 1.0,
                alpha: 3.0,
                r_min: 1.0,
            },
        );
    }

    #[test]
    fn grid_matches_dense_horizon_limited() {
        assert_backends_agree(
            &disk(40, 500.0, 3),
            HorizonLimited {
                inner: FreeSpace::unit(),
                horizon: 150.0,
            },
        );
    }

    #[test]
    fn grid_matches_dense_shadowed_via_full_scan() {
        // Shadowed has no range bound (range_for_gain = None); the grid
        // backend must fall back to full scans and still agree exactly.
        assert_backends_agree(
            &disk(30, 300.0, 4),
            Shadowed {
                inner: FreeSpace::unit(),
                sigma_db: 8.0,
                seed: 99,
            },
        );
    }

    #[test]
    fn grid_handles_colocated_stations() {
        let pts = vec![Point::ORIGIN, Point::ORIGIN, Point::new(5.0, 0.0)];
        let grid = GridGainModel::new(&pts, Box::new(FreeSpace::unit()));
        // The colocated station is heard at any threshold; the one 5 m
        // away only at a threshold its free-space gain reaches.
        assert_eq!(grid.hearable_by(0, Gain(1.0)), vec![1]);
        assert_eq!(grid.hearable_by(0, Gain(0.0)), vec![1, 2]);
        assert_eq!(grid.gain(0, 0), Gain::ZERO);
    }

    #[test]
    fn symmetric_models_share_one_cache_slot_per_unordered_pair() {
        // Counters are process-global and tests run in parallel, so only
        // lower bounds on deltas are meaningful: other tests add hits but
        // never subtract.
        let pts = disk(64, 300.0, 7);
        let grid = GridGainModel::new(&pts, Box::new(FreeSpace::unit()));
        let hits = parn_sim::obs::counter("phys.gain_cache.hit");
        for rx in 0..pts.len() {
            for tx in 0..pts.len() {
                grid.gain(rx, tx); // warm every ordered pair once
            }
        }
        let before = hits.load(Ordering::Relaxed);
        for rx in 0..pts.len() {
            for tx in 0..rx {
                assert_eq!(grid.gain(rx, tx), grid.gain(tx, rx), "({rx},{tx})");
            }
        }
        let pairs = (pts.len() * (pts.len() - 1)) as u64;
        // Every ordered pair was warmed, the reversed orders canonicalize to
        // the same slots, and 64·63 pairs cannot self-conflict much in 2¹⁶
        // slots — so nearly all of the `pairs` queries above must be hits.
        assert!(
            hits.load(Ordering::Relaxed) - before >= pairs * 9 / 10,
            "symmetric canonicalization is not producing cache hits"
        );
    }

    #[test]
    fn asymmetric_models_keep_ordered_keys() {
        // A directional model must NOT share slots between (rx, tx) and
        // (tx, rx).
        #[derive(Debug)]
        struct EastwardOnly;
        impl Propagation for EastwardOnly {
            fn power_gain(&self, from: Point, to: Point) -> Gain {
                if to.x >= from.x {
                    Gain(1.0)
                } else {
                    Gain(0.25)
                }
            }
            fn gain_at_distance(&self, _r: f64) -> Gain {
                Gain(1.0)
            }
            fn is_symmetric(&self) -> bool {
                false
            }
        }
        let pts = vec![Point::ORIGIN, Point::new(10.0, 0.0)];
        let grid = GridGainModel::new(&pts, Box::new(EastwardOnly));
        for _ in 0..3 {
            assert_eq!(grid.gain(1, 0).value(), 1.0); // 0 → 1 heads east
            assert_eq!(grid.gain(0, 1).value(), 0.25); // 1 → 0 heads west
        }
    }

    #[test]
    fn cache_returns_consistent_values() {
        let pts = disk(50, 200.0, 5);
        let grid = GridGainModel::new(&pts, Box::new(FreeSpace::unit()));
        for _ in 0..3 {
            for rx in 0..pts.len() {
                for tx in 0..pts.len() {
                    let expect = if rx == tx {
                        0.0
                    } else {
                        FreeSpace::unit().power_gain(pts[tx], pts[rx]).value()
                    };
                    assert_eq!(grid.gain(rx, tx).value(), expect);
                }
            }
        }
    }

    #[test]
    fn relocate_matches_fresh_backends_after_moves() {
        // After a sequence of moves (warming the gain cache between them,
        // so stale entries exist to be invalidated), the mutated grid
        // backend must agree bit-for-bit with both a fresh grid build and
        // the dense matrix over the moved positions.
        let mut rng = Rng::new(31);
        let mut pts = disk(48, 300.0, 6);
        let grid = GridGainModel::new(&pts, Box::new(FreeSpace::unit()));
        for step in 0..40 {
            // Warm every pair touching the upcoming mover.
            let id = rng.below(pts.len() as u64) as usize;
            for j in 0..pts.len() {
                grid.gain(id, j);
                grid.gain(j, id);
            }
            let to = Point::new(rng.range_f64(-280.0, 280.0), rng.range_f64(-280.0, 280.0));
            grid.relocate(id, to);
            pts[id] = to;
            if step % 8 != 0 {
                continue; // full cross-check every 8th move
            }
            let dense = GainMatrix::build(&pts, &FreeSpace::unit());
            for rx in 0..pts.len() {
                for tx in 0..pts.len() {
                    assert_eq!(
                        grid.gain(rx, tx),
                        GainModel::gain(&dense, rx, tx),
                        "stale gain at ({rx}, {tx}) after moving {id}"
                    );
                }
                assert_eq!(
                    grid.hearable_by(rx, Gain(1e-5)),
                    GainModel::hearable_by(&dense, rx, Gain(1e-5))
                );
            }
        }
    }

    #[test]
    fn relocate_with_fixed_geometry_clamps_instead_of_expanding() {
        let pts = disk(30, 100.0, 8);
        let grid = GridGainModel::new(&pts, Box::new(FreeSpace::unit()));
        let (_, _, nx, ny) = {
            let g = grid.grid();
            let (min, cell, nx, ny) = g.geometry();
            (min, cell, nx, ny)
        };
        grid.set_fixed_geometry(true);
        grid.relocate(0, Point::new(9000.0, 9000.0));
        {
            let g = grid.grid();
            let (_, _, nx2, ny2) = g.geometry();
            assert_eq!((nx, ny), (nx2, ny2), "fixed geometry must not grow");
        }
        // The escaped station still shows up in covering queries.
        let ids = grid.hearable_by(0, Gain(0.0));
        assert_eq!(ids.len(), pts.len() - 1);
        let dense_pts: Vec<Point> = (0..pts.len()).map(|i| grid.position(i)).collect();
        let dense = GainMatrix::build(&dense_pts, &FreeSpace::unit());
        for rx in 0..pts.len() {
            for tx in 0..pts.len() {
                assert_eq!(grid.gain(rx, tx), GainModel::gain(&dense, rx, tx));
            }
        }
    }
}
