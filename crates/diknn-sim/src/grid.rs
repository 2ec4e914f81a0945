//! Uniform spatial grid over the simulation field: the radio hot path.
//!
//! Every transmission, neighbour-oracle lookup, and table warm-up needs
//! "which nodes are within radio range of here?". The naive answer scans
//! all `n` mobility plans — O(n) per transmission, O(n²) per beacon round,
//! the exact cost wall that makes naive PHY neighbourhood computation the
//! bottleneck of packet-level simulators. This module buckets nodes into
//! square cells of edge length = radio range, so a range query touches the
//! 3×3 cell neighbourhood (O(degree)) instead of the whole field.
//!
//! # Determinism contract
//!
//! The grid is a *candidate* index, never an oracle:
//!
//! * Bucket contents are kept sorted ascending by node id, and cells are
//!   visited in row-major order, so candidate enumeration order is a pure
//!   function of the grid state — no hashing, no pointer order.
//! * Queries pad the search radius by `vmax · (now − built_at)`: a node
//!   can have drifted at most that far from the position it was bucketed
//!   at, so the padded query is a guaranteed superset of the true answer.
//! * Callers re-check every candidate against its **true** current
//!   position with the same predicate (`dist_sq <= range²`) the brute
//!   scan uses, and sort the survivors ascending by id. The result is
//!   therefore bit-identical — same membership, same order, hence the
//!   same downstream RNG draw sequence — to the O(n) scan it replaces.
//!   `crates/diknn-sim/tests/grid_equiv.rs` proptests this equivalence.
//!
//! Positions outside the field boundary are clamped into the edge cells.
//! Clamping is monotone per axis, so a clamped position still lands inside
//! the clamped query window — coverage survives out-of-field drift.
//!
//! # Refresh policy
//!
//! Buckets are refreshed *incrementally* (a node moves buckets only when
//! its cell changed) once the accumulated drift bound `vmax · (now −
//! built_at)` exceeds a slack threshold (half the radio range by
//! default). Static scenarios (`vmax = 0`) never refresh and never pad.

use crate::time::SimTime;
use diknn_geom::{Point, Rect};

/// Conservative margin (metres) for anchor triage: anchor distances
/// within `range ± (drift_bound + ANCHOR_EPS)` fall through to the exact
/// check. It absorbs the few-ulp rounding slack between the
/// anchor-distance and exact-distance computations.
pub(crate) const ANCHOR_EPS: f64 = 1e-6;

/// A uniform cell grid over node positions; see the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Cell edge length in metres (the radio range).
    cell: f64,
    /// Field origin; cell (0,0) starts here.
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// Per-cell node ids, each bucket sorted ascending. Indexed
    /// `row * cols + col` (row-major).
    buckets: Vec<Vec<u32>>,
    /// Flat cell index each node currently sits in.
    node_cell: Vec<u32>,
    /// Position each node was bucketed at (as of `built_at`). By the
    /// drift bound, node `i`'s true position at `now` is within
    /// `drift_bound(now)` metres of `anchors[i]` — a dense array callers
    /// can use to triage candidates without touching the mobility plans
    /// (see [`SpatialGrid::anchors`]).
    anchors: Vec<Point>,
    /// Upper bound on any node's speed (m/s); drives query padding.
    vmax: f64,
    /// Time the bucket assignments were last computed.
    built_at: SimTime,
    /// Refresh once drift (`vmax · age`) exceeds this many metres.
    refresh_slack: f64,
    /// Bumped on every [`SpatialGrid::refresh`]. Bucket contents are a pure
    /// function of `(build inputs, epoch)`, so callers caching a query
    /// answer can reuse it for as long as the epoch and the query window
    /// are unchanged (the engine's incremental audible sets do exactly
    /// this).
    epoch: u64,
}

impl SpatialGrid {
    /// Build the grid over `field` with the given cell size, bucketing
    /// every node at its position in `positions` (one entry per node,
    /// indexed by id) as of time `t`.
    pub fn build(
        field: Rect,
        cell: f64,
        positions: &[Point],
        vmax: f64,
        refresh_slack: f64,
        t: SimTime,
    ) -> Self {
        debug_assert!(cell > 0.0, "grid cell size must be positive");
        let cols = ((field.width() / cell).ceil() as usize).max(1);
        let rows = ((field.height() / cell).ceil() as usize).max(1);
        let mut grid = SpatialGrid {
            cell,
            min_x: field.min_x,
            min_y: field.min_y,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
            node_cell: vec![0; positions.len()],
            anchors: positions.to_vec(),
            vmax: vmax.max(0.0),
            built_at: t,
            refresh_slack: refresh_slack.max(0.0),
            epoch: 0,
        };
        for (i, &p) in positions.iter().enumerate() {
            let c = grid.cell_index(p);
            grid.node_cell[i] = c;
            // Ids are inserted in ascending order, so buckets stay sorted.
            grid.buckets[c as usize].push(i as u32);
        }
        grid
    }

    /// Number of nodes indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.node_cell.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_cell.is_empty()
    }

    /// Grid dimensions `(cols, rows)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Column of `x`, clamped into the grid.
    #[inline]
    fn col_of(&self, x: f64) -> usize {
        let c = ((x - self.min_x) / self.cell).floor();
        if c <= 0.0 {
            0
        } else {
            (c as usize).min(self.cols - 1)
        }
    }

    /// Row of `y`, clamped into the grid.
    #[inline]
    fn row_of(&self, y: f64) -> usize {
        let r = ((y - self.min_y) / self.cell).floor();
        if r <= 0.0 {
            0
        } else {
            (r as usize).min(self.rows - 1)
        }
    }

    /// Flat cell index of a position (clamped into the field).
    #[inline]
    fn cell_index(&self, p: Point) -> u32 {
        (self.row_of(p.y) * self.cols + self.col_of(p.x)) as u32
    }

    /// How far any node may have drifted from its bucketed position by
    /// `now`, in metres. Anchor triage against this bound widens it by
    /// [`ANCHOR_EPS`].
    #[inline]
    pub fn drift_bound(&self, now: SimTime) -> f64 {
        if self.vmax == 0.0 || now <= self.built_at {
            return 0.0;
        }
        self.vmax * now.since(self.built_at).as_secs_f64()
    }

    /// Whether the accumulated drift bound warrants an incremental
    /// refresh. Static scenarios never refresh.
    #[inline]
    pub fn needs_refresh(&self, now: SimTime) -> bool {
        self.drift_bound(now) > self.refresh_slack
    }

    /// Re-bucket every node at its current position (`pos_of(i)` must
    /// return node `i`'s position as of `now`). Incremental: a node only
    /// touches its buckets when its cell actually changed, which under
    /// bounded drift is a small fraction of the population.
    pub fn refresh<F: Fn(usize) -> Point>(&mut self, pos_of: F, now: SimTime) {
        for i in 0..self.node_cell.len() {
            let p = pos_of(i);
            self.anchors[i] = p;
            let new_cell = self.cell_index(p);
            let old_cell = self.node_cell[i];
            if new_cell == old_cell {
                continue;
            }
            let id = i as u32;
            let old = &mut self.buckets[old_cell as usize];
            if let Ok(at) = old.binary_search(&id) {
                old.remove(at);
            }
            let new = &mut self.buckets[new_cell as usize];
            if let Err(at) = new.binary_search(&id) {
                new.insert(at, id);
            }
            self.node_cell[i] = new_cell;
        }
        self.built_at = now;
        self.epoch += 1;
    }

    /// Refresh generation: bumped each time [`SpatialGrid::refresh`] runs.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The position every node was last bucketed at (indexed by node id;
    /// valid as of `built_at`). Combined with [`SpatialGrid::drift_bound`]
    /// this bounds each node's true position: `|pos(now) - anchors[i]| <=
    /// drift_bound(now)`, letting range queries resolve most candidates
    /// definitively from this dense array and reserve the exact (and far
    /// more expensive) mobility-plan evaluation for candidates inside the
    /// ambiguity band around the range boundary.
    #[inline]
    pub fn anchors(&self) -> &[Point] {
        &self.anchors
    }

    // lint: hot-path (radio-range queries run once per transmission; the
    // out-parameter API exists so callers can reuse one buffer)
    /// Append to `out` every node whose bucketed position could put it
    /// within `radius` of `center` as of `now` — a superset of the true
    /// in-range set (see module docs). Candidates arrive in row-major
    /// cell order, ascending by id within a cell; callers exact-check and
    /// sort. `out` is not cleared.
    pub fn candidates_near(&self, center: Point, radius: f64, now: SimTime, out: &mut Vec<u32>) {
        let w = self.cover_cells(center, radius, now);
        self.collect_cells(w, out);
    }

    /// The inclusive cell window `(col0, col1, row0, row1)` that a
    /// [`SpatialGrid::candidates_near`] query with the same arguments
    /// visits (drift padding included). Together with [`SpatialGrid::epoch`]
    /// this keys cached query answers: equal window + equal epoch ⇒ the
    /// candidate list is unchanged.
    pub fn cover_cells(&self, center: Point, radius: f64, now: SimTime) -> (u32, u32, u32, u32) {
        let r = radius + self.drift_bound(now);
        (
            self.col_of(center.x - r) as u32,
            self.col_of(center.x + r) as u32,
            self.row_of(center.y - r) as u32,
            self.row_of(center.y + r) as u32,
        )
    }

    /// Append the contents of every cell in `window` (as produced by
    /// [`SpatialGrid::cover_cells`]) to `out`, row-major, ascending by id
    /// within a cell. `out` is not cleared.
    pub fn collect_cells(&self, window: (u32, u32, u32, u32), out: &mut Vec<u32>) {
        let (c0, c1, r0, r1) = window;
        for row in r0..=r1 {
            for col in c0..=c1 {
                out.extend_from_slice(&self.buckets[row as usize * self.cols + col as usize]);
            }
        }
    }

    /// Append to `out` every node whose bucketed position could place it
    /// inside `rect` as of `now` (superset; same contract as
    /// [`SpatialGrid::candidates_near`]).
    pub fn candidates_in_rect(&self, rect: &Rect, now: SimTime, out: &mut Vec<u32>) {
        if rect.is_empty() {
            return;
        }
        let pad = self.drift_bound(now);
        self.candidates_in_window(
            rect.min_x - pad,
            rect.min_y - pad,
            rect.max_x + pad,
            rect.max_y + pad,
            out,
        );
    }

    fn candidates_in_window(&self, x0: f64, y0: f64, x1: f64, y1: f64, out: &mut Vec<u32>) {
        let (c0, c1) = (self.col_of(x0), self.col_of(x1));
        let (r0, r1) = (self.row_of(y0), self.row_of(y1));
        for row in r0..=r1 {
            for col in c0..=c1 {
                out.extend_from_slice(&self.buckets[row * self.cols + col]);
            }
        }
    }
    // lint: end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn grid_of(points: &[(f64, f64)], cell: f64, vmax: f64) -> SpatialGrid {
        let positions: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        SpatialGrid::build(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            cell,
            &positions,
            vmax,
            cell * 0.5,
            SimTime::ZERO,
        )
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn build_buckets_and_dims() {
        let g = grid_of(&[(5.0, 5.0), (25.0, 5.0), (5.0, 25.0)], 20.0, 0.0);
        assert_eq!(g.dims(), (5, 5));
        assert_eq!(g.len(), 3);
        let mut out = Vec::new();
        g.candidates_near(Point::new(5.0, 5.0), 1.0, SimTime::ZERO, &mut out);
        assert_eq!(sorted(out), vec![0]);
    }

    #[test]
    fn boundary_positions_clamp_into_edge_cells() {
        // Exactly on the max corner, and well outside the field: both must
        // land in a valid cell and stay findable.
        let g = grid_of(&[(100.0, 100.0), (150.0, -10.0)], 20.0, 0.0);
        let mut out = Vec::new();
        g.candidates_near(Point::new(100.0, 100.0), 1.0, SimTime::ZERO, &mut out);
        assert!(out.contains(&0));
        out.clear();
        // Query centred outside the field still reaches the clamped cell.
        g.candidates_near(Point::new(150.0, -10.0), 1.0, SimTime::ZERO, &mut out);
        assert!(out.contains(&1));
    }

    #[test]
    fn cell_boundary_point_is_in_the_upper_cell() {
        // x = 20.0 with cell 20 is col 1, not col 0 — and a query window
        // touching x=20 from below must still cover it.
        let g = grid_of(&[(20.0, 0.0)], 20.0, 0.0);
        let mut out = Vec::new();
        g.candidates_near(Point::new(19.0, 0.0), 1.0, SimTime::ZERO, &mut out);
        assert!(out.contains(&0));
    }

    #[test]
    fn drift_padding_keeps_movers_covered() {
        // Node bucketed at (5,5) but allowed to move 2 m/s; after 10 s the
        // query must pad by 20 m and still surface it for a far query.
        let g = grid_of(&[(5.0, 5.0)], 20.0, 2.0);
        let later = SimTime::ZERO + SimDuration::from_secs_f64(10.0);
        assert_eq!(g.drift_bound(later), 20.0);
        assert!(g.needs_refresh(later));
        let mut out = Vec::new();
        // True position could now be up to (25,5); query there with zero
        // radius must still return the candidate thanks to the pad.
        g.candidates_near(Point::new(25.0, 5.0), 0.0, later, &mut out);
        assert!(out.contains(&0));
    }

    #[test]
    fn static_grid_never_refreshes() {
        let g = grid_of(&[(5.0, 5.0)], 20.0, 0.0);
        let much_later = SimTime::ZERO + SimDuration::from_secs_f64(1e6);
        assert_eq!(g.drift_bound(much_later), 0.0);
        assert!(!g.needs_refresh(much_later));
    }

    #[test]
    fn refresh_moves_nodes_between_buckets() {
        let mut g = grid_of(&[(5.0, 5.0), (6.0, 5.0)], 20.0, 2.0);
        let later = SimTime::ZERO + SimDuration::from_secs_f64(30.0);
        // Node 0 moved to (65,5); node 1 stayed.
        let moved = [Point::new(65.0, 5.0), Point::new(6.0, 5.0)];
        g.refresh(|i| moved[i], later);
        assert_eq!(g.drift_bound(later), 0.0);
        let mut out = Vec::new();
        g.candidates_near(Point::new(65.0, 5.0), 1.0, later, &mut out);
        assert_eq!(sorted(out), vec![0]);
        out = Vec::new();
        g.candidates_near(Point::new(5.0, 5.0), 1.0, later, &mut out);
        assert_eq!(sorted(out), vec![1]);
    }

    #[test]
    fn epoch_counts_refreshes_and_cover_cells_matches_candidates_near() {
        let mut g = grid_of(&[(5.0, 5.0), (45.0, 45.0)], 20.0, 2.0);
        assert_eq!(g.epoch(), 0);
        let later = SimTime::ZERO + SimDuration::from_secs_f64(30.0);
        let moved = [Point::new(5.0, 5.0), Point::new(45.0, 45.0)];
        g.refresh(|i| moved[i], later);
        assert_eq!(g.epoch(), 1);
        let center = Point::new(20.0, 20.0);
        let mut direct = Vec::new();
        g.candidates_near(center, 25.0, later, &mut direct);
        let mut via_window = Vec::new();
        g.collect_cells(g.cover_cells(center, 25.0, later), &mut via_window);
        assert_eq!(direct, via_window);
    }

    #[test]
    fn rect_query_covers_contained_nodes() {
        let g = grid_of(&[(10.0, 10.0), (50.0, 50.0), (90.0, 90.0)], 20.0, 0.0);
        let mut out = Vec::new();
        g.candidates_in_rect(&Rect::new(40.0, 40.0, 60.0, 60.0), SimTime::ZERO, &mut out);
        assert!(out.contains(&1));
        assert!(!out.contains(&2));
        out.clear();
        g.candidates_in_rect(&Rect::empty(), SimTime::ZERO, &mut out);
        assert!(out.is_empty());
    }
}
