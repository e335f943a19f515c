//! The physical world a [`NetConfig`] describes: where the stations
//! stand, the gain between every pair, which hops are usable, and the SINR
//! bookkeeping over those gains. The scheme's [`Network`](crate::Network)
//! and the baseline MACs both build it here, so every access scheme they
//! compare runs over one world.

use crate::config::{NetConfig, PhyBackend};
use parn_phys::placement::density;
use parn_phys::propagation::{FreeSpace, Propagation, Shadowed};
use parn_phys::sinr::SinrTracker;
use parn_phys::{Gain, GainMatrix, GainModel, GridGainModel, Point};
use parn_sim::Rng;
use std::sync::Arc;

/// Station positions, pairwise gains and the usable-hop gain of one
/// [`NetConfig`]. Deterministic in `cfg.seed`.
pub struct World {
    /// Station positions, drawn from the seed's `"placement"` stream.
    pub positions: Vec<Point>,
    /// Radius of the placement's region (m).
    pub radius: f64,
    /// Pairwise gains: the dense matrix or the spatial index, shadowed
    /// when `shadowing_sigma_db` is positive.
    pub gains: Arc<dyn GainModel>,
    /// Usable-hop reach, `reach_factor/√ρ` (m).
    pub reach: f64,
    /// Free-space gain at the usable reach: a hop is usable when its gain
    /// is at least this.
    pub usable_gain: Gain,
}

impl World {
    /// Place the stations of `cfg` and build its gain backend.
    pub fn new(cfg: &NetConfig) -> World {
        let mut rng_place = Rng::new(cfg.seed).substream("placement");
        let positions = cfg.placement.generate(&mut rng_place);
        assert!(positions.len() >= 2, "need at least two stations");
        let shadow = (cfg.shadowing_sigma_db > 0.0).then(|| Shadowed {
            inner: FreeSpace::unit(),
            sigma_db: cfg.shadowing_sigma_db,
            seed: cfg.seed ^ 0x5AAD_0E5D,
        });
        let gains: Arc<dyn GainModel> = match &cfg.phy_backend {
            // `build_shared` keeps the propagation model alive so dense
            // backends can recompute rows on relocation; the table it
            // builds is bit-identical to `build`'s.
            PhyBackend::Dense => match shadow {
                Some(model) => Arc::new(GainMatrix::build_shared(&positions, Arc::new(model))),
                None => Arc::new(GainMatrix::build_shared(
                    &positions,
                    Arc::new(FreeSpace::unit()),
                )),
            },
            PhyBackend::Grid { .. } => {
                let model: Box<dyn Propagation + Send + Sync> = match shadow {
                    Some(model) => Box::new(model),
                    None => Box::new(FreeSpace::unit()),
                };
                Arc::new(GridGainModel::new(&positions, model))
            }
        };
        // Usable-hop threshold from the reach factor (§6: ~2/√ρ).
        let region = cfg.placement.region();
        let reach = cfg.reach_factor / density(&positions, &region).sqrt();
        World {
            positions,
            radius: region.radius,
            gains,
            reach,
            usable_gain: Gain(1.0 / (reach * reach)),
        }
    }

    /// The SINR tracker over [`gains`](World::gains): thermal plus
    /// external noise, the self-interference gain, far-field aggregation
    /// when the grid backend asks for it, and `cfg.threads` sweep lanes.
    pub fn tracker(&self, cfg: &NetConfig) -> SinrTracker {
        let mut tracker = SinrTracker::new(
            Arc::clone(&self.gains),
            cfg.thermal_noise + cfg.external_din,
            cfg.self_gain,
        );
        if let PhyBackend::Grid {
            far_field: Some(ff),
        } = &cfg.phy_backend
        {
            tracker = tracker.with_far_field(ff.near_radius_factor * self.reach, ff.tolerance);
        }
        if cfg.threads > 1 {
            tracker = tracker.with_threads(cfg.threads);
        }
        tracker
    }
}
