//! Geographic partition faults: link-level shadowing transients.
//!
//! A [`GeoCut`] is a straight line (vertical or horizontal) across the
//! deployment area; while a cut is active, every path that *crosses* it
//! is attenuated by a fixed factor — a moving obstruction (weather
//! front, structural shadowing) that severs two regions of the network
//! from each other **without any station dying**. Both sides keep
//! transmitting, clocks keep running, schedules stay published; only
//! the cross-cut links fade.
//!
//! [`PartitionOverlay`] implements [`GainModel`] by composing the cut
//! attenuations *on top of* an inner backend. With no active cuts every
//! query delegates verbatim (identical floats, identical orderings), so
//! wrapping a model in an overlay that never activates is behaviorally
//! invisible — the property the golden-metrics byte-identity tests rely
//! on. Activation and deactivation are explicit; the simulator is
//! responsible for invalidating any SINR caches built over the previous
//! gain field (see `SinrTracker::gains_changed`).

use crate::gainmodel::{GainModel, GridGainModel};
use crate::gains::StationId;
use crate::geom::Point;
use crate::units::Gain;
use std::sync::{Arc, RwLock};

/// Orientation of a partition cut line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutAxis {
    /// The line `x = offset`: severs east from west.
    Vertical,
    /// The line `y = offset`: severs north from south.
    Horizontal,
}

/// A straight cut across the deployment plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoCut {
    /// Orientation of the cut line.
    pub axis: CutAxis,
    /// Position of the line along its perpendicular axis (meters).
    pub offset: f64,
}

impl GeoCut {
    /// True when the segment `a`–`b` crosses the cut line (endpoints
    /// strictly on opposite sides; a station sitting exactly on the line
    /// is attenuated toward both sides).
    pub fn severs(&self, a: Point, b: Point) -> bool {
        let (ca, cb) = match self.axis {
            CutAxis::Vertical => (a.x, b.x),
            CutAxis::Horizontal => (a.y, b.y),
        };
        (ca - self.offset) * (cb - self.offset) < 0.0
    }
}

/// One active attenuation region: the fault index that raised it, the
/// cut geometry, and the linear power attenuation (< 1) applied to every
/// severed path.
#[derive(Clone, Copy, Debug)]
struct ActiveCut {
    index: usize,
    cut: GeoCut,
    atten: f64,
}

/// A [`GainModel`] decorator applying partition-cut attenuations.
///
/// Queries delegate to `inner` and multiply in the attenuation of every
/// active cut the path crosses. The inner backend's own gain cache (the
/// thread-local cache in [`GridGainModel`]) stays correct because it only
/// ever stores *inner* gains — the overlay's attenuation is applied after
/// the cached lookup.
pub struct PartitionOverlay {
    inner: Arc<dyn GainModel>,
    cuts: RwLock<Vec<ActiveCut>>,
}

impl std::fmt::Debug for PartitionOverlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionOverlay")
            .field("inner", &self.inner)
            .field("active_cuts", &self.cuts.read().unwrap().len())
            .finish()
    }
}

impl PartitionOverlay {
    /// Wrap `inner`; no cuts are active initially.
    pub fn new(inner: Arc<dyn GainModel>) -> PartitionOverlay {
        PartitionOverlay {
            inner,
            cuts: RwLock::new(Vec::new()),
        }
    }

    /// Activate a cut raised by fault `index` with linear power
    /// attenuation `atten` (0 < atten < 1) on severed paths.
    pub fn activate(&self, index: usize, cut: GeoCut, atten: f64) {
        debug_assert!(atten > 0.0 && atten < 1.0, "attenuation must be in (0,1)");
        let mut cuts = self.cuts.write().unwrap();
        cuts.retain(|c| c.index != index);
        cuts.push(ActiveCut { index, cut, atten });
    }

    /// Deactivate the cut raised by fault `index` (the partition heals).
    pub fn deactivate(&self, index: usize) {
        self.cuts.write().unwrap().retain(|c| c.index != index);
    }

    /// Number of currently active cuts.
    pub fn active_cuts(&self) -> usize {
        self.cuts.read().unwrap().len()
    }

    /// Combined attenuation of the path `tx → rx` under the active cuts
    /// (1.0 when no cut severs it).
    fn attenuation(&self, a: Point, b: Point) -> f64 {
        let cuts = self.cuts.read().unwrap();
        let mut f = 1.0;
        for c in cuts.iter() {
            if c.cut.severs(a, b) {
                f *= c.atten;
            }
        }
        f
    }
}

impl GainModel for PartitionOverlay {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn gain(&self, rx: StationId, tx: StationId) -> Gain {
        let g = self.inner.gain(rx, tx);
        if self.cuts.read().unwrap().is_empty() || rx == tx {
            return g;
        }
        let f = self.attenuation(self.inner.position(tx), self.inner.position(rx));
        if f == 1.0 {
            g
        } else {
            Gain(g.value() * f)
        }
    }

    fn position(&self, id: StationId) -> Point {
        self.inner.position(id)
    }

    fn relocate(&self, id: StationId, to: Point) {
        // Cuts are pure geometry over current positions, so a move needs
        // no overlay bookkeeping — attenuation re-derives from the new
        // endpoints on the next query.
        self.inner.relocate(id, to)
    }

    fn hearable_by(&self, rx: StationId, threshold: Gain) -> Vec<StationId> {
        // Attenuation only ever *reduces* gains, so the inner model's
        // candidate set is a superset of ours; re-filter it through the
        // overlaid gain.
        if self.cuts.read().unwrap().is_empty() {
            return self.inner.hearable_by(rx, threshold);
        }
        let mut ids = self.inner.hearable_by(rx, threshold);
        ids.retain(|&tx| self.gain(rx, tx) >= threshold);
        ids
    }

    fn as_grid(&self) -> Option<&GridGainModel> {
        // The far-field sweep uses the grid index for cell geometry and
        // the *propagation model* for wholly-far cell aggregates; those
        // aggregates ignore the cut (a bounded, conservative
        // approximation on the far tail — near-field and boundary-cell
        // paths go through `gain()` and see the cut exactly).
        self.inner.as_grid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gains::GainMatrix;
    use crate::propagation::FreeSpace;

    fn line_model() -> Arc<dyn GainModel> {
        // Three stations on the x axis at 0, 10, 20.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
        ];
        Arc::new(GainMatrix::build(&pts, &FreeSpace::unit()))
    }

    #[test]
    fn severs_requires_strict_straddle() {
        let cut = GeoCut {
            axis: CutAxis::Vertical,
            offset: 5.0,
        };
        assert!(cut.severs(Point::new(0.0, 0.0), Point::new(10.0, 0.0)));
        assert!(!cut.severs(Point::new(6.0, 0.0), Point::new(10.0, 0.0)));
        assert!(!cut.severs(Point::new(5.0, 0.0), Point::new(10.0, 0.0)));
        let h = GeoCut {
            axis: CutAxis::Horizontal,
            offset: 0.0,
        };
        assert!(h.severs(Point::new(0.0, -1.0), Point::new(0.0, 1.0)));
        assert!(!h.severs(Point::new(0.0, 1.0), Point::new(3.0, 2.0)));
    }

    #[test]
    fn inactive_overlay_is_transparent() {
        let inner = line_model();
        let ov = PartitionOverlay::new(inner.clone());
        for rx in 0..3 {
            for tx in 0..3 {
                assert_eq!(ov.gain(rx, tx), inner.gain(rx, tx));
            }
            assert_eq!(
                ov.hearable_by(rx, Gain(1e-6)),
                inner.hearable_by(rx, Gain(1e-6))
            );
        }
    }

    #[test]
    fn active_cut_attenuates_only_crossing_paths() {
        let inner = line_model();
        let ov = PartitionOverlay::new(inner.clone());
        let cut = GeoCut {
            axis: CutAxis::Vertical,
            offset: 15.0,
        };
        ov.activate(0, cut, 1e-6);
        // 0↔1 both west of the cut: untouched.
        assert_eq!(ov.gain(1, 0), inner.gain(1, 0));
        // 1↔2 and 0↔2 cross it: attenuated a million-fold.
        assert_eq!(ov.gain(2, 1).value(), inner.gain(2, 1).value() * 1e-6);
        assert_eq!(ov.gain(2, 0).value(), inner.gain(2, 0).value() * 1e-6);
        // Healing restores exact equality.
        ov.deactivate(0);
        assert_eq!(ov.gain(2, 1), inner.gain(2, 1));
        assert_eq!(ov.active_cuts(), 0);
    }

    #[test]
    fn hearable_by_refilters_under_cut() {
        let inner = line_model();
        let ov = PartitionOverlay::new(inner.clone());
        let thr = Gain(inner.gain(2, 1).value() * 0.5); // hears 1 comfortably
        assert!(ov.hearable_by(2, thr).contains(&1));
        ov.activate(
            7,
            GeoCut {
                axis: CutAxis::Vertical,
                offset: 15.0,
            },
            1e-9,
        );
        assert!(!ov.hearable_by(2, thr).contains(&1));
    }

    #[test]
    fn overlapping_cuts_compose_multiplicatively() {
        let inner = line_model();
        let ov = PartitionOverlay::new(inner.clone());
        let cut = GeoCut {
            axis: CutAxis::Vertical,
            offset: 5.0,
        };
        ov.activate(0, cut, 0.1);
        ov.activate(
            1,
            GeoCut {
                axis: CutAxis::Vertical,
                offset: 6.0,
            },
            0.1,
        );
        let g = ov.gain(1, 0).value();
        let want = inner.gain(1, 0).value() * 0.01;
        assert!((g - want).abs() <= 1e-18 + 1e-12 * want, "{g} vs {want}");
    }
}
