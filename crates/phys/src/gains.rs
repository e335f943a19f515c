//! The propagation matrix `H` (stored as power gains `g_ij = h_ij²`).
//!
//! In a real network "stations may observe the actual propagation between
//! stations that are capable of direct communication" (§3.5); in the
//! simulator we precompute the full matrix from a placement and a
//! propagation model. Routing (§6.2) and neighbour discovery read it.

use std::fmt;
use std::sync::{Arc, RwLock};

use crate::geom::Point;
use crate::propagation::Propagation;
use crate::units::Gain;

/// Index of a station.
pub type StationId = usize;

/// Dense matrix of pairwise power gains.
///
/// `g(i, j)` is the power gain from transmitter `j` to receiver `i`
/// (paper's `h_ij²` indexing: first index is the receiver). For our
/// isotropic models the matrix is symmetric, but the API keeps the
/// receiver-first convention so directional models could drop in.
///
/// Positions are time-varying when the matrix is built with
/// [`build_shared`](Self::build_shared): [`relocate`](Self::relocate)
/// moves one station and recomputes its row and column in place. The
/// table lives behind a lock so the simulator can move stations through
/// a shared handle; all writes happen on the single-threaded event loop
/// (reader threads only ever observe a quiescent table).
pub struct GainMatrix {
    n: usize,
    inner: RwLock<Inner>,
    model: Option<Arc<dyn Propagation + Send + Sync>>,
}

struct Inner {
    g: Vec<f64>,
    positions: Vec<Point>,
}

impl Clone for GainMatrix {
    fn clone(&self) -> GainMatrix {
        let inner = self.inner.read().unwrap();
        GainMatrix {
            n: self.n,
            inner: RwLock::new(Inner {
                g: inner.g.clone(),
                positions: inner.positions.clone(),
            }),
            model: self.model.clone(),
        }
    }
}

impl fmt::Debug for GainMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GainMatrix")
            .field("n", &self.n)
            .field("mobile", &self.model.is_some())
            .finish()
    }
}

fn compute_table(positions: &[Point], model: &dyn Propagation) -> Vec<f64> {
    let n = positions.len();
    let mut g = vec![0.0; n * n];
    if model.is_symmetric() {
        // One propagation evaluation per unordered pair.
        for i in 0..n {
            for j in (i + 1)..n {
                let v = model.power_gain(positions[j], positions[i]).value();
                g[i * n + j] = v;
                g[j * n + i] = v;
            }
        }
    } else {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    g[i * n + j] = model.power_gain(positions[j], positions[i]).value();
                }
            }
        }
    }
    g
}

impl GainMatrix {
    /// Build from station positions and a propagation model.
    /// Self-paths `g(i, i)` are stored as zero: a station's own transmitter
    /// is handled specially (Type 3 collisions, §5).
    ///
    /// The model is not retained, so the matrix is static:
    /// [`relocate`](Self::relocate) panics. Mobility runs use
    /// [`build_shared`](Self::build_shared).
    pub fn build<P: Propagation>(positions: &[Point], model: &P) -> GainMatrix {
        GainMatrix {
            n: positions.len(),
            inner: RwLock::new(Inner {
                g: compute_table(positions, model),
                positions: positions.to_vec(),
            }),
            model: None,
        }
    }

    /// Like [`build`](Self::build), but retains the propagation model so
    /// [`relocate`](Self::relocate) can recompute a moved station's gains.
    pub fn build_shared(
        positions: &[Point],
        model: Arc<dyn Propagation + Send + Sync>,
    ) -> GainMatrix {
        GainMatrix {
            n: positions.len(),
            inner: RwLock::new(Inner {
                g: compute_table(positions, &*model),
                positions: positions.to_vec(),
            }),
            model: Some(model),
        }
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no stations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Power gain from transmitter `tx` to receiver `rx`.
    #[inline]
    pub fn gain(&self, rx: StationId, tx: StationId) -> Gain {
        Gain(self.inner.read().unwrap().g[rx * self.n + tx])
    }

    /// Position of one station (current, i.e. post-move).
    pub fn position(&self, id: StationId) -> Point {
        self.inner.read().unwrap().positions[id]
    }

    /// Move station `id` to `to` and recompute its row (gains *into* it)
    /// and column (gains *from* it) with the retained propagation model.
    /// Entries match what a fresh [`build`](Self::build) over the moved
    /// positions would produce, bit for bit.
    ///
    /// Panics when the matrix was built without a shared model
    /// ([`build`](Self::build)).
    pub fn relocate(&self, id: StationId, to: Point) {
        let model = self
            .model
            .as_ref()
            .expect("GainMatrix::relocate needs a matrix built with build_shared");
        let mut inner = self.inner.write().unwrap();
        let n = self.n;
        inner.positions[id] = to;
        let Inner { g, positions } = &mut *inner;
        for j in 0..n {
            if j == id {
                continue;
            }
            // Receiver-first indexing, power_gain(tx, rx) — exactly the
            // orientation `compute_table` uses for both build paths.
            g[id * n + j] = model.power_gain(positions[j], positions[id]).value();
            g[j * n + id] = model.power_gain(positions[id], positions[j]).value();
        }
    }

    /// All stations whose path gain *to* `rx` is at least `threshold` —
    /// the stations `rx` can plausibly hear directly.
    pub fn hearable_by(&self, rx: StationId, threshold: Gain) -> Vec<StationId> {
        let inner = self.inner.read().unwrap();
        (0..self.n)
            .filter(|&tx| tx != rx && Gain(inner.g[rx * self.n + tx]) >= threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::FreeSpace;

    fn line_positions() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(30.0, 0.0),
        ]
    }

    #[test]
    fn build_and_access() {
        let m = GainMatrix::build(&line_positions(), &FreeSpace::unit());
        assert_eq!(m.len(), 3);
        assert!((m.gain(0, 1).value() - 0.01).abs() < 1e-15);
        assert!((m.gain(0, 2).value() - 1.0 / 900.0).abs() < 1e-15);
        assert_eq!(m.gain(1, 1), Gain::ZERO, "self-path is zero");
    }

    #[test]
    fn symmetry_for_isotropic_model() {
        let m = GainMatrix::build(&line_positions(), &FreeSpace::unit());
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.gain(i, j), m.gain(j, i));
            }
        }
    }

    #[test]
    fn hearable_threshold() {
        let m = GainMatrix::build(&line_positions(), &FreeSpace::unit());
        // Station 0: gain from 1 is 0.01, from 2 is ~0.0011.
        assert_eq!(m.hearable_by(0, Gain(0.005)), vec![1]);
        assert_eq!(m.hearable_by(0, Gain(0.0005)), vec![1, 2]);
        assert!(m.hearable_by(0, Gain(0.5)).is_empty());
    }

    #[test]
    fn asymmetric_models_use_the_ordered_pair_path() {
        #[derive(Debug)]
        struct EastWind;
        impl Propagation for EastWind {
            fn power_gain(&self, tx: Point, rx: Point) -> Gain {
                let r = tx.distance(rx).max(1.0);
                // Links pointing east are 10x stronger: direction-dependent.
                let boost = if rx.x > tx.x { 10.0 } else { 1.0 };
                Gain(boost / (r * r))
            }
            fn is_symmetric(&self) -> bool {
                false
            }
        }
        let pts = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let m = GainMatrix::build(&pts, &EastWind);
        assert!((m.gain(1, 0).value() - 0.1).abs() < 1e-15);
        assert!((m.gain(0, 1).value() - 0.01).abs() < 1e-15);
    }

    #[test]
    fn relocate_matches_fresh_build_bit_for_bit() {
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(30.0, 0.0),
            Point::new(-5.0, 12.0),
        ];
        let m = GainMatrix::build_shared(&pts, Arc::new(FreeSpace::unit()));
        pts[1] = Point::new(4.0, -9.0);
        m.relocate(1, pts[1]);
        pts[3] = Point::new(25.0, 25.0);
        m.relocate(3, pts[3]);
        let fresh = GainMatrix::build(&pts, &FreeSpace::unit());
        for (i, &p) in pts.iter().enumerate() {
            for j in 0..4 {
                assert_eq!(m.gain(i, j), fresh.gain(i, j), "({}, {})", i, j);
            }
            assert_eq!(m.position(i), p);
        }
    }

    #[test]
    #[should_panic(expected = "build_shared")]
    fn relocate_requires_a_shared_model() {
        let m = GainMatrix::build(&line_positions(), &FreeSpace::unit());
        m.relocate(0, Point::new(1.0, 1.0));
    }

    #[test]
    fn symmetric_build_matches_ordered_build() {
        // Force the ordered-pair path via an is_symmetric() = false
        // wrapper around the same model; entries must be identical.
        #[derive(Debug)]
        struct NotSymmetric(FreeSpace);
        impl Propagation for NotSymmetric {
            fn power_gain(&self, tx: Point, rx: Point) -> Gain {
                self.0.power_gain(tx, rx)
            }
            fn is_symmetric(&self) -> bool {
                false
            }
        }
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(-7.0, 2.0),
            Point::new(11.0, -5.0),
        ];
        let fast = GainMatrix::build(&pts, &FreeSpace::unit());
        let slow = GainMatrix::build(&pts, &NotSymmetric(FreeSpace::unit()));
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(fast.gain(i, j), slow.gain(i, j));
            }
        }
    }
}
