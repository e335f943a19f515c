//! A uniform-grid spatial index over station placements.
//!
//! The paper's scheme is local: a station only ever cares about the
//! stations within a few multiples of the nominal range `2/√ρ` (§6.1).
//! For a roughly uniform density `ρ` a grid with cell side `≈ 1/√ρ`
//! holds O(1) stations per cell, so a query for "everything within
//! distance `r` of `p`" touches O(r²ρ) stations instead of all `M`.
//!
//! The index answers **candidate** queries: [`GridIndex::candidates_within`]
//! returns every station inside the axis-aligned bounding square of the
//! query disk (a superset of the stations within `r`). Callers apply their
//! own exact gain/distance filter, which keeps the grid free of any float
//! epsilon reasoning — a station at distance exactly `r` is always in the
//! bounding square, so no true member is ever missed.

use crate::gains::StationId;
use crate::geom::Point;

/// Uniform bucket grid over a set of points.
#[derive(Clone, Debug)]
pub struct GridIndex {
    min_x: f64,
    min_y: f64,
    cell: f64,
    nx: usize,
    ny: usize,
    cells: Vec<Vec<StationId>>,
}

impl GridIndex {
    /// Build an index with an automatically chosen cell size of
    /// `√(bbox_area / n)` — about `1/√ρ` for density-`ρ` placements, i.e.
    /// O(1) stations per cell.
    pub fn build(positions: &[Point]) -> GridIndex {
        let n = positions.len().max(1);
        let (min_x, min_y, max_x, max_y) = bbox(positions);
        let w = max_x - min_x;
        let h = max_y - min_y;
        let extent = w.max(h);
        let cell = if w > 0.0 && h > 0.0 {
            (w * h / n as f64).sqrt()
        } else if extent > 0.0 {
            // Collinear placement: bin along the one populated axis.
            extent / n as f64
        } else {
            1.0
        };
        GridIndex::with_cell_size(positions, cell)
    }

    /// Build with an explicit geometry: origin `min`, cell side `cell`,
    /// and `nx × ny` cells. Stations outside the covered rectangle bucket
    /// into the border cells (see [`cell_index`](Self::cell_index)).
    /// Incremental-maintenance tests use this to reproduce a mutated
    /// index's exact geometry from scratch.
    pub fn with_geometry(
        positions: &[Point],
        min: Point,
        cell: f64,
        nx: usize,
        ny: usize,
    ) -> GridIndex {
        assert!(cell.is_finite() && cell > 0.0, "cell side must be positive");
        assert!(nx >= 1 && ny >= 1, "need at least one cell per axis");
        let mut idx = GridIndex {
            min_x: min.x,
            min_y: min.y,
            cell,
            nx,
            ny,
            cells: vec![Vec::new(); nx * ny],
        };
        for (id, &p) in positions.iter().enumerate() {
            let c = idx.cell_index(p);
            idx.cells[c].push(id);
        }
        idx
    }

    /// The grid's geometry as `(origin, cell side, nx, ny)` — everything
    /// [`with_geometry`](Self::with_geometry) needs to rebuild it.
    pub fn geometry(&self) -> (Point, f64, usize, usize) {
        (
            Point::new(self.min_x, self.min_y),
            self.cell,
            self.nx,
            self.ny,
        )
    }

    /// Build with an explicit cell side (clamped to a sane positive value
    /// for degenerate placements such as all-coincident points).
    pub fn with_cell_size(positions: &[Point], cell: f64) -> GridIndex {
        let (min_x, min_y, max_x, max_y) = bbox(positions);
        let mut cell = if cell.is_finite() && cell > 0.0 {
            cell
        } else {
            1.0
        };
        // Cap the grid extent so a pathological cell size can never blow
        // up the cell array; queries stay correct at any cell size.
        const MAX_DIM: f64 = 8192.0;
        cell = cell
            .max((max_x - min_x) / MAX_DIM)
            .max((max_y - min_y) / MAX_DIM);
        let nx = (((max_x - min_x) / cell).floor() as usize + 1).max(1);
        let ny = (((max_y - min_y) / cell).floor() as usize + 1).max(1);
        let mut cells = vec![Vec::new(); nx * ny];
        let mut idx = GridIndex {
            min_x,
            min_y,
            cell,
            nx,
            ny,
            cells: Vec::new(),
        };
        for (id, &p) in positions.iter().enumerate() {
            cells[idx.cell_index(p)].push(id);
        }
        idx.cells = cells;
        idx
    }

    /// Cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Half the diagonal of one cell: the worst-case distance between a
    /// point in a cell and that cell's centre.
    pub fn half_diagonal(&self) -> f64 {
        self.cell * std::f64::consts::SQRT_2 / 2.0
    }

    /// Flat index of the cell containing `p` (points outside the build
    /// bounding box clamp to the border cells).
    pub fn cell_index(&self, p: Point) -> usize {
        let ix = (((p.x - self.min_x) / self.cell).floor().max(0.0) as usize).min(self.nx - 1);
        let iy = (((p.y - self.min_y) / self.cell).floor().max(0.0) as usize).min(self.ny - 1);
        iy * self.nx + ix
    }

    /// Centre of cell `idx`.
    pub fn cell_center(&self, idx: usize) -> Point {
        let ix = idx % self.nx;
        let iy = idx / self.nx;
        Point::new(
            self.min_x + (ix as f64 + 0.5) * self.cell,
            self.min_y + (iy as f64 + 0.5) * self.cell,
        )
    }

    /// Station ids of every occupied cell, with the cell's flat index.
    pub fn occupied_cells(&self) -> impl Iterator<Item = (usize, &[StationId])> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(i, c)| (i, c.as_slice()))
    }

    /// Insert station `id` at `p` (no-op if already present in that
    /// cell). Points outside the covered rectangle bucket into the border
    /// cells — candidate queries stay exact because
    /// [`cell_index`](Self::cell_index) clamps queries the same monotone
    /// way; callers that want the grid to actually cover the new point
    /// call [`expand_to_include`](Self::expand_to_include) first.
    ///
    /// Membership within a cell stays sorted ascending (the order
    /// [`build`](Self::build) produces), so incremental maintenance and a
    /// fresh build yield byte-identical candidate iteration order.
    pub fn insert(&mut self, id: StationId, p: Point) {
        let c = self.cell_index(p);
        let cell = &mut self.cells[c];
        if let Err(pos) = cell.binary_search(&id) {
            cell.insert(pos, id);
        }
    }

    /// Remove station `id`, which was last inserted at `p`. Returns false
    /// when the station was not in the cell `p` maps to (e.g. already
    /// removed, or the caller passed a stale position).
    pub fn remove(&mut self, id: StationId, p: Point) -> bool {
        let c = self.cell_index(p);
        let cell = &mut self.cells[c];
        match cell.binary_search(&id) {
            Ok(pos) => {
                cell.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Move station `id` from `from` to `to`, re-bucketing it if the two
    /// positions map to different cells. Returns true when the station
    /// actually changed cells (the caller's re-bucketing counter).
    pub fn relocate(&mut self, id: StationId, from: Point, to: Point) -> bool {
        let a = self.cell_index(from);
        let b = self.cell_index(to);
        if a == b {
            return false;
        }
        let cell = &mut self.cells[a];
        if let Ok(pos) = cell.binary_search(&id) {
            cell.remove(pos);
        }
        let cell = &mut self.cells[b];
        if let Err(pos) = cell.binary_search(&id) {
            cell.insert(pos, id);
        }
        true
    }

    /// Grow the grid (in whole-cell steps, keeping every existing cell's
    /// geometry and membership intact) until it covers `p`. Returns true
    /// when the extent changed. Growth respects the same dimension cap as
    /// construction: a point so far out that covering it would exceed the
    /// cap is left to border-cell clamping instead.
    ///
    /// Callers holding state keyed on cell indices (the far-field
    /// tracker) must not expand mid-run — cell indices are renumbered.
    pub fn expand_to_include(&mut self, p: Point) -> bool {
        const MAX_DIM: usize = 8192;
        let grow_lo = |min: f64, v: f64, cell: f64| -> usize {
            if v >= min {
                0
            } else {
                ((min - v) / cell).ceil().max(1.0) as usize
            }
        };
        let grow_hi = |min: f64, extent: usize, v: f64, cell: f64| -> usize {
            let max = min + extent as f64 * cell;
            if v < max {
                0
            } else {
                ((v - max) / cell).floor() as usize + 1
            }
        };
        let lo_x = grow_lo(self.min_x, p.x, self.cell);
        let hi_x = grow_hi(self.min_x, self.nx, p.x, self.cell);
        let lo_y = grow_lo(self.min_y, p.y, self.cell);
        let hi_y = grow_hi(self.min_y, self.ny, p.y, self.cell);
        if lo_x + hi_x + lo_y + hi_y == 0 {
            return false;
        }
        let nx = self.nx + lo_x + hi_x;
        let ny = self.ny + lo_y + hi_y;
        if nx > MAX_DIM || ny > MAX_DIM {
            return false;
        }
        let mut cells = vec![Vec::new(); nx * ny];
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let old = std::mem::take(&mut self.cells[iy * self.nx + ix]);
                cells[(iy + lo_y) * nx + (ix + lo_x)] = old;
            }
        }
        self.min_x -= lo_x as f64 * self.cell;
        self.min_y -= lo_y as f64 * self.cell;
        self.nx = nx;
        self.ny = ny;
        self.cells = cells;
        true
    }

    /// Every station inside the bounding square `[cx−r, cx+r] × [cy−r,
    /// cy+r]` of the disk of radius `r` around `center` — a superset of
    /// the stations within distance `r`. Ids are pushed in cell order,
    /// ascending within each cell; callers that need a global order must
    /// sort.
    pub fn candidates_within(&self, center: Point, r: f64) -> Vec<StationId> {
        let mut out = Vec::new();
        self.for_candidates_within(center, r, |id| out.push(id));
        out
    }

    /// Visitor form of [`candidates_within`](Self::candidates_within):
    /// avoids the intermediate `Vec` on hot paths.
    pub fn for_candidates_within(&self, center: Point, r: f64, mut visit: impl FnMut(StationId)) {
        if !r.is_finite() || r < 0.0 {
            // NaN or infinite radius: everything is a candidate.
            for c in &self.cells {
                for &id in c {
                    visit(id);
                }
            }
            return;
        }
        let lo_x = self.clamp_ix(center.x - r);
        let hi_x = self.clamp_ix(center.x + r);
        let lo_y = self.clamp_iy(center.y - r);
        let hi_y = self.clamp_iy(center.y + r);
        for iy in lo_y..=hi_y {
            for ix in lo_x..=hi_x {
                for &id in &self.cells[iy * self.nx + ix] {
                    visit(id);
                }
            }
        }
    }

    fn clamp_ix(&self, x: f64) -> usize {
        (((x - self.min_x) / self.cell).floor().max(0.0) as usize).min(self.nx - 1)
    }

    fn clamp_iy(&self, y: f64) -> usize {
        (((y - self.min_y) / self.cell).floor().max(0.0) as usize).min(self.ny - 1)
    }
}

fn bbox(positions: &[Point]) -> (f64, f64, f64, f64) {
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for p in positions {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    if positions.is_empty() {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        (min_x, min_y, max_x, max_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use parn_sim::Rng;

    #[test]
    fn candidates_cover_the_disk() {
        let mut rng = Rng::new(42);
        let pts = Placement::UniformDisk {
            n: 300,
            radius: 500.0,
        }
        .generate(&mut rng);
        let idx = GridIndex::build(&pts);
        for &r in &[10.0, 50.0, 200.0, 1200.0] {
            for probe in 0..20usize {
                let c = pts[probe * 7 % pts.len()];
                let cand = idx.candidates_within(c, r);
                // Every station truly within r must be among candidates.
                for (id, p) in pts.iter().enumerate() {
                    if p.distance(c) <= r {
                        assert!(cand.contains(&id), "missed {} at r={}", id, r);
                    }
                }
            }
        }
    }

    #[test]
    fn covering_square_returns_everything() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 40.0),
            Point::new(-30.0, 70.0),
        ];
        let idx = GridIndex::build(&pts);
        let mut cand = idx.candidates_within(Point::ORIGIN, 1e9);
        cand.sort_unstable();
        assert_eq!(cand, vec![0, 1, 2]);
    }

    #[test]
    fn degenerate_coincident_points() {
        let pts = vec![Point::ORIGIN; 5];
        let idx = GridIndex::build(&pts);
        assert!(idx.cell_size() > 0.0);
        let cand = idx.candidates_within(Point::ORIGIN, 0.0);
        assert_eq!(cand.len(), 5);
    }

    #[test]
    fn cell_center_and_half_diagonal_bound_members() {
        let mut rng = Rng::new(7);
        let pts = Placement::UniformDisk {
            n: 200,
            radius: 300.0,
        }
        .generate(&mut rng);
        let idx = GridIndex::build(&pts);
        let delta = idx.half_diagonal();
        for (ci, members) in idx.occupied_cells() {
            let center = idx.cell_center(ci);
            for &id in members {
                assert!(
                    pts[id].distance(center) <= delta * (1.0 + 1e-12),
                    "station outside its cell's half-diagonal"
                );
            }
        }
    }

    #[test]
    fn empty_input() {
        let idx = GridIndex::build(&[]);
        assert!(idx.candidates_within(Point::ORIGIN, 10.0).is_empty());
    }

    /// Candidate sets (including iteration order) for a spread of probe
    /// disks, used to compare an incrementally maintained index against a
    /// from-scratch rebuild.
    fn probe_candidates(idx: &GridIndex, pts: &[Point]) -> Vec<Vec<StationId>> {
        let mut out = Vec::new();
        for &r in &[5.0, 25.0, 80.0, 250.0, 1e9] {
            for probe in 0..pts.len().min(25) {
                out.push(idx.candidates_within(pts[probe * 3 % pts.len()], r));
            }
            out.push(idx.candidates_within(Point::ORIGIN, r));
        }
        out
    }

    #[test]
    fn incremental_ops_match_fresh_build_over_mutated_positions() {
        // Randomized insert/remove/relocate sequences: after every batch
        // of mutations the incrementally maintained index must answer
        // candidate queries identically (same ids, same order) to a fresh
        // index built over the mutated positions with the same geometry.
        for seed in 0..12u64 {
            let mut rng = Rng::new(1000 + seed);
            let n = 40 + rng.below(80) as usize;
            let mut pts = Placement::UniformDisk {
                n,
                radius: 200.0 + rng.below(200) as f64,
            }
            .generate(&mut rng);
            let mut idx = GridIndex::build(&pts);
            let mut present: Vec<bool> = vec![true; n];
            for _step in 0..60 {
                let id = rng.below(n as u64) as usize;
                match rng.below(3) {
                    0 => {
                        // Relocate (possibly escaping the original bbox).
                        if present[id] {
                            let to = Point::new(
                                rng.range_f64(-450.0, 450.0),
                                rng.range_f64(-450.0, 450.0),
                            );
                            idx.relocate(id, pts[id], to);
                            pts[id] = to;
                        }
                    }
                    1 => {
                        if present[id] {
                            assert!(idx.remove(id, pts[id]));
                            present[id] = false;
                        }
                    }
                    _ => {
                        if !present[id] {
                            let at = Point::new(
                                rng.range_f64(-450.0, 450.0),
                                rng.range_f64(-450.0, 450.0),
                            );
                            idx.insert(id, at);
                            pts[id] = at;
                            present[id] = true;
                        }
                    }
                }
                let live: Vec<Point> = pts.clone();
                let (min, cell, nx, ny) = idx.geometry();
                let mut fresh = GridIndex::with_geometry(&[], min, cell, nx, ny);
                for (i, &p) in live.iter().enumerate() {
                    if present[i] {
                        fresh.insert(i, p);
                    }
                }
                assert_eq!(
                    probe_candidates(&idx, &live),
                    probe_candidates(&fresh, &live),
                    "divergence at seed {} after mutation of {}",
                    seed,
                    id
                );
            }
        }
    }

    #[test]
    fn incremental_ops_match_plain_build_when_bbox_is_pinned() {
        // Pin the bbox corners with stations that never move; then the
        // auto-geometry of a plain `build` over the mutated positions is
        // identical to the original, and the incremental index must match
        // it exactly — not just a same-geometry reference.
        let mut rng = Rng::new(77);
        let n = 60;
        let mut pts = Placement::UniformDisk { n, radius: 150.0 }.generate(&mut rng);
        pts[0] = Point::new(-200.0, -200.0);
        pts[1] = Point::new(200.0, 200.0);
        let mut idx = GridIndex::build(&pts);
        for _step in 0..80 {
            let id = 2 + rng.below((n - 2) as u64) as usize;
            let to = Point::new(rng.range_f64(-200.0, 200.0), rng.range_f64(-200.0, 200.0));
            idx.relocate(id, pts[id], to);
            pts[id] = to;
            let fresh = GridIndex::build(&pts);
            assert_eq!(idx.geometry(), fresh.geometry());
            assert_eq!(probe_candidates(&idx, &pts), probe_candidates(&fresh, &pts));
        }
    }

    #[test]
    fn relocate_within_one_cell_does_not_rebucket() {
        let pts = vec![Point::ORIGIN, Point::new(100.0, 100.0)];
        let mut idx = GridIndex::build(&pts);
        let eps = idx.cell_size() * 0.25;
        assert!(!idx.relocate(0, pts[0], Point::new(eps, eps)));
        assert!(idx.relocate(0, Point::new(eps, eps), Point::new(100.0, 0.0)));
    }

    #[test]
    fn bbox_escaping_moves_clamp_to_border_cells_and_stay_exact() {
        // A station relocated far outside the built extent buckets into a
        // border cell; candidate queries (which clamp the same way) must
        // still return it for any disk that truly contains it.
        let mut rng = Rng::new(5);
        let pts_orig = Placement::UniformDisk {
            n: 50,
            radius: 100.0,
        }
        .generate(&mut rng);
        let mut pts = pts_orig.clone();
        let mut idx = GridIndex::build(&pts);
        let far = Point::new(5000.0, -7000.0);
        idx.relocate(3, pts[3], far);
        pts[3] = far;
        let r = far.distance(Point::ORIGIN) + 1.0;
        let cand = idx.candidates_within(Point::ORIGIN, r);
        assert!(cand.contains(&3), "escaped station missing from candidates");
        for (id, p) in pts.iter().enumerate() {
            if p.distance(Point::ORIGIN) <= 120.0 {
                assert!(idx.candidates_within(Point::ORIGIN, 120.0).contains(&id));
            }
        }
    }

    #[test]
    fn expand_to_include_preserves_membership_and_covers_new_point() {
        let mut rng = Rng::new(9);
        let pts = Placement::UniformDisk {
            n: 80,
            radius: 100.0,
        }
        .generate(&mut rng);
        let mut idx = GridIndex::build(&pts);
        let before = probe_candidates(&idx, &pts);
        let p = Point::new(350.0, -275.0);
        assert!(idx.expand_to_include(p));
        assert!(
            !idx.expand_to_include(p),
            "second expansion must be a no-op"
        );
        // Existing stations keep their cells' relative geometry: queries
        // answer identically.
        assert_eq!(before, probe_candidates(&idx, &pts));
        // The new point now lands in an interior (unclamped) cell.
        let (min, cell, nx, ny) = idx.geometry();
        assert!(p.x >= min.x && p.x < min.x + nx as f64 * cell);
        assert!(p.y >= min.y && p.y < min.y + ny as f64 * cell);
        // And membership round-trips through it.
        let mut idx2 = idx.clone();
        idx2.insert(80, p);
        assert!(idx2.candidates_within(p, 1.0).contains(&80));
        assert!(idx2.remove(80, p));
    }
}
