//! Distance-weighted destination sampling over the spatial index.
//!
//! The traffic subsystem's `Gravity` destination policy weights candidate
//! destinations by `d(src, dst)^(-α)` — near stations are favoured, but a
//! heavy tail of metro-crossing flows survives, which is what actually
//! exercises multi-hop relaying. Enumerating and weighting all `M`
//! stations per draw would be O(M); at 10⁵ stations that dominates the
//! simulation. This sampler is O(1) per draw instead:
//!
//! 1. draw a **radius** from the exact marginal a uniform-density
//!    placement induces, `p(r) ∝ r · r^(-α) = r^(1-α)` on
//!    `[r_min, r_max]`, by inverse CDF;
//! 2. draw a uniform **angle**;
//! 3. **snap** the resulting target point to the nearest real station
//!    through [`GridIndex`] candidate queries, expanding the search disk
//!    geometrically (bounded) when the target lands in empty space;
//! 4. resample (bounded) when the snap finds only the source itself —
//!    e.g. a tiny radius draw inside the source's own cell.
//!
//! The snap makes the realized weighting approximate — border cells of
//! the placement disk attract draws that landed outside — but the
//! marginal hop-distance distribution it induces is what the capacity
//! envelope (E7) measures and reports, so the approximation is visible,
//! not hidden.

use crate::gains::StationId;
use crate::geom::Point;
use crate::grid::GridIndex;
use parn_sim::Rng;

/// Bounded retry budget: radius/angle redraws when a snap fails.
const MAX_RESAMPLES: usize = 16;
/// Bounded search-disk doublings per snap attempt.
const MAX_EXPANSIONS: usize = 6;

/// O(1)-per-draw sampler of `d^(-α)`-weighted destinations.
///
/// ```
/// use parn_phys::{GravitySampler, Point};
/// use parn_sim::Rng;
/// // A 5×5 grid of stations, 10 m apart.
/// let positions: Vec<Point> = (0..25)
///     .map(|i| Point::new((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0))
///     .collect();
/// let sampler = GravitySampler::new(&positions, 2.0, 5.0, 60.0);
/// let mut rng = Rng::new(7);
/// let dst = sampler.sample(0, &mut rng).expect("grid is dense enough");
/// assert_ne!(dst, 0, "a station never addresses itself");
/// assert!(dst < 25);
/// ```
#[derive(Clone, Debug)]
pub struct GravitySampler {
    index: GridIndex,
    positions: Vec<Point>,
    exponent: f64,
    r_min: f64,
    r_max: f64,
}

impl GravitySampler {
    /// Build a sampler over `positions` with weighting exponent
    /// `exponent` (α): 0 is uniform-in-area, 2 is the classic gravity
    /// model, larger values confine traffic ever more locally. Radius
    /// draws span `[r_min, r_max]`; `r_min` bounds the `r^(1-α)` density
    /// away from its α > 2 singularity at 0 (a natural choice is the
    /// nominal hop length, `r_max` the placement diameter).
    pub fn new(positions: &[Point], exponent: f64, r_min: f64, r_max: f64) -> GravitySampler {
        assert!(positions.len() >= 2, "need at least two stations");
        assert!(
            r_min > 0.0 && r_max > r_min,
            "need 0 < r_min < r_max, got [{r_min}, {r_max}]"
        );
        GravitySampler {
            index: GridIndex::build(positions),
            positions: positions.to_vec(),
            exponent,
            r_min,
            r_max,
        }
    }

    /// Inverse-CDF draw from `p(r) ∝ r^(1-α)` on `[r_min, r_max]`.
    fn draw_radius(&self, rng: &mut Rng) -> f64 {
        let u = rng.next_f64();
        let a = self.exponent;
        if (a - 2.0).abs() < 1e-9 {
            // α = 2: p(r) ∝ 1/r, log-uniform radius.
            self.r_min * (self.r_max / self.r_min).powf(u)
        } else {
            let e = 2.0 - a;
            let lo = self.r_min.powf(e);
            let hi = self.r_max.powf(e);
            (lo + u * (hi - lo)).powf(1.0 / e)
        }
    }

    /// Nearest station to `target`, excluding `src`; ties break toward
    /// the lower id so draws are placement-deterministic.
    fn snap(&self, src: StationId, target: Point) -> Option<StationId> {
        let mut r = self.index.cell_size().max(self.r_min);
        for _ in 0..MAX_EXPANSIONS {
            let mut best: Option<(f64, StationId)> = None;
            self.index.for_candidates_within(target, r, |id| {
                if id == src {
                    return;
                }
                let d2 = self.positions[id].distance_sq(target);
                if d2 <= r * r {
                    let better = match best {
                        None => true,
                        Some((bd2, bid)) => d2 < bd2 || (d2 == bd2 && id < bid),
                    };
                    if better {
                        best = Some((d2, id));
                    }
                }
            });
            if let Some((_, id)) = best {
                return Some(id);
            }
            r *= 2.0;
        }
        None
    }

    /// Draw one destination for `src`. `None` only when every bounded
    /// retry failed — pathological placements (all stations coincident
    /// with the source's cell and nothing else in reach).
    pub fn sample(&self, src: StationId, rng: &mut Rng) -> Option<StationId> {
        let origin = self.positions[src];
        for attempt in 0..MAX_RESAMPLES {
            if attempt > 0 {
                parn_sim::counter_inc!("traffic.gravity.resamples");
            }
            let r = self.draw_radius(rng);
            let phi = rng.next_f64() * std::f64::consts::TAU;
            let target = origin.offset(r * phi.cos(), r * phi.sin());
            if let Some(dst) = self.snap(src, target) {
                return Some(dst);
            }
        }
        None
    }

    /// The weighting exponent α.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::uniform_in_disk;

    fn disk_positions(n: usize, radius: f64, seed: u64) -> Vec<Point> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| uniform_in_disk(radius, &mut rng)).collect()
    }

    #[test]
    fn samples_are_valid_and_never_self() {
        let pos = disk_positions(300, 100.0, 3);
        let s = GravitySampler::new(&pos, 2.0, 10.0, 200.0);
        let mut rng = Rng::new(9);
        for src in [0usize, 7, 150, 299] {
            for _ in 0..200 {
                let dst = s.sample(src, &mut rng).expect("dense disk always snaps");
                assert!(dst < pos.len());
                assert_ne!(dst, src);
            }
        }
    }

    #[test]
    fn deterministic_in_the_rng() {
        let pos = disk_positions(200, 80.0, 5);
        let s = GravitySampler::new(&pos, 1.5, 8.0, 160.0);
        let a: Vec<_> = {
            let mut rng = Rng::new(42);
            (0..100).map(|i| s.sample(i % 200, &mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = Rng::new(42);
            (0..100).map(|i| s.sample(i % 200, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn larger_exponent_means_shorter_flows() {
        let pos = disk_positions(500, 120.0, 11);
        let near = GravitySampler::new(&pos, 3.0, 10.0, 240.0);
        let far = GravitySampler::new(&pos, 0.5, 10.0, 240.0);
        let mean_d = |s: &GravitySampler, seed: u64| {
            let mut rng = Rng::new(seed);
            let mut total = 0.0;
            let mut count = 0;
            for src in 0..200usize {
                if let Some(dst) = s.sample(src, &mut rng) {
                    total += pos[src].distance(pos[dst]);
                    count += 1;
                }
            }
            total / count as f64
        };
        let d_near = mean_d(&near, 1);
        let d_far = mean_d(&far, 1);
        assert!(
            d_near * 1.5 < d_far,
            "α=3 flows ({d_near:.1} m) should be much shorter than α=0.5 ({d_far:.1} m)"
        );
    }

    #[test]
    fn radius_draw_respects_bounds() {
        let pos = disk_positions(50, 50.0, 2);
        for alpha in [0.0, 1.0, 2.0, 3.5] {
            let s = GravitySampler::new(&pos, alpha, 5.0, 100.0);
            let mut rng = Rng::new(13);
            for _ in 0..500 {
                let r = s.draw_radius(&mut rng);
                assert!((5.0..=100.0).contains(&r), "α={alpha}: r={r}");
            }
        }
    }
}
