//! Equivalence of the spatial grid with the brute-force oracle.
//!
//! The grid is only allowed to change *cost*, never behaviour: a range
//! query answered through `SpatialGrid` candidates + exact re-check must
//! produce exactly the set the O(n) scan produces, in the same order, for
//! any placement — including nodes exactly on cell boundaries, pairs at
//! exactly the range² boundary, out-of-field positions (clamped into edge
//! cells), and drifted positions covered by the `vmax · Δt` query pad.
//! Constructed seam cases pin the same claim where cell edges meet:
//! senders and receivers parked on a cell seam, movers crossing one under
//! a stale grid, and a lattice snapped onto cell edges queried from every
//! sender. Full-engine tests then pin the strongest form of the claim: a
//! whole simulation under `NeighborIndex::Grid` is bit-identical to one
//! under `NeighborIndex::BruteForce`.

use diknn_geom::{Point, Rect, Sector};
use diknn_mobility::{Mobility, RandomWaypoint, RwpConfig, StaticMobility, WaypointTrace};
use diknn_sim::{
    Ctx, FaultPlan, FaultRegion, JamZone, NeighborIndex, NodeId, Protocol, SharedMobility,
    SimConfig, SimDuration, SimTime, Simulator, SpatialGrid, TraceConfig,
};
use proptest::prelude::*;
use proptest::ProptestConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const FIELD: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 115.0,
    max_y: 115.0,
};
const RANGE: f64 = 20.0;

/// Brute-force oracle: ids within `radius` of `center`, ascending.
fn brute_in_range(positions: &[Point], center: Point, radius: f64) -> Vec<u32> {
    (0..positions.len() as u32)
        .filter(|&i| center.dist_sq(positions[i as usize]) <= radius * radius)
        .collect()
}

/// Grid path: candidates, exact re-check with the same predicate, sort.
fn grid_in_range(
    grid: &SpatialGrid,
    positions: &[Point],
    center: Point,
    radius: f64,
    now: SimTime,
) -> Vec<u32> {
    let mut cand = Vec::new();
    grid.candidates_near(center, radius, now, &mut cand);
    cand.sort_unstable();
    cand.retain(|&i| center.dist_sq(positions[i as usize]) <= radius * radius);
    cand
}

fn assert_equivalent(positions: &[Point], queries: &[Point]) {
    let grid = SpatialGrid::build(FIELD, RANGE, positions, 0.0, 0.5 * RANGE, SimTime::ZERO);
    for &q in queries {
        let brute = brute_in_range(positions, q, RANGE);
        let fast = grid_in_range(&grid, positions, q, RANGE, SimTime::ZERO);
        assert_eq!(fast, brute, "query at ({}, {})", q.x, q.y);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform random placements, including positions outside the field
    /// (the grid clamps them into edge cells; membership must not care).
    #[test]
    fn random_placements_match_brute_force(
        pts in prop::collection::vec((-10.0..130.0f64, -10.0..130.0f64), 1..150),
        qx in -10.0..130.0f64,
        qy in -10.0..130.0f64,
    ) {
        let positions: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let queries = [Point::new(qx, qy), positions[0]];
        assert_equivalent(&positions, &queries);
    }

    /// Clustered placements: everything piled into a few dense cells plus
    /// points snapped exactly onto cell-boundary coordinates.
    #[test]
    fn clustered_and_boundary_placements_match_brute_force(
        picks in prop::collection::vec((0usize..4, -3.0..3.0f64, -3.0..3.0f64), 1..120),
        snaps in prop::collection::vec((0usize..6, 0usize..6), 0..20),
        qc in 0usize..4,
    ) {
        let centers = [
            Point::new(10.0, 10.0),
            Point::new(60.0, 60.0),
            Point::new(60.0, 61.0),
            Point::new(110.0, 10.0),
        ];
        let mut positions: Vec<Point> = picks
            .iter()
            .map(|&(c, dx, dy)| Point::new(centers[c].x + dx, centers[c].y + dy))
            .collect();
        // Nodes exactly on cell corners (multiples of the cell size = 20):
        // the floor() bucketing must stay consistent with the query window.
        positions.extend(
            snaps
                .iter()
                .map(|&(i, j)| Point::new(i as f64 * RANGE, j as f64 * RANGE)),
        );
        let queries = [centers[qc], Point::new(40.0, 40.0)];
        assert_equivalent(&positions, &queries);
    }

    /// Drift coverage: the grid is built from stale positions, nodes have
    /// since moved at most `vmax · Δt`; the padded query must still agree
    /// with brute force evaluated on the *true* positions.
    #[test]
    fn padded_queries_cover_drifted_nodes(
        pts in prop::collection::vec(
            (0.0..115.0f64, 0.0..115.0f64, 0.0..std::f64::consts::TAU),
            1..100,
        ),
        vmax in 0.0..5.0f64,
        dt in 0.0..8.0f64,
        qx in 0.0..115.0f64,
        qy in 0.0..115.0f64,
    ) {
        let built: Vec<Point> = pts.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
        // Each node drifts the maximum allowed distance in its own direction.
        let moved: Vec<Point> = pts
            .iter()
            .map(|&(x, y, theta)| Point::new(x, y).polar_offset(theta, vmax * dt))
            .collect();
        let grid = SpatialGrid::build(FIELD, RANGE, &built, vmax, 0.5 * RANGE, SimTime::ZERO);
        let now = SimTime::ZERO + SimDuration::from_secs_f64(dt);
        let q = Point::new(qx, qy);
        let brute = brute_in_range(&moved, q, RANGE);
        let fast = grid_in_range(&grid, &moved, q, RANGE, now);
        prop_assert_eq!(fast, brute);
    }

    /// Teleport-style playback jumps: a [`WaypointTrace`] crossing most of
    /// the field in a few milliseconds yields an enormous `max_speed`, and
    /// the grid's `vmax · Δt` pad must absorb exactly that — queries built
    /// from pre-jump buckets still agree with brute force on the true
    /// post-jump positions, with no forced refresh.
    #[test]
    fn trace_playback_jumps_stay_covered_by_the_pad(
        jumps in prop::collection::vec(
            // (start x, start y, landing x, landing y, jump time)
            (0.0..115.0f64, 0.0..115.0f64, 0.0..115.0f64, 0.0..115.0f64, 0.5..6.0f64),
            1..40,
        ),
        dt in 0.0..8.0f64,
        qx in 0.0..115.0f64,
        qy in 0.0..115.0f64,
    ) {
        let plans: Vec<WaypointTrace> = jumps
            .iter()
            .map(|&(x0, y0, x1, y1, at)| {
                WaypointTrace::new(vec![
                    (0.0, Point::new(x0, y0)),
                    (at, Point::new(x0, y0)),
                    // The node crosses to its landing point in 2 ms.
                    (at + 0.002, Point::new(x1, y1)),
                ])
            })
            .collect();
        let built: Vec<Point> = plans.iter().map(|p| p.position_at(0.0)).collect();
        let vmax = plans.iter().map(|p| p.max_speed()).fold(0.0, f64::max);
        let moved: Vec<Point> = plans.iter().map(|p| p.position_at(dt)).collect();
        let grid = SpatialGrid::build(FIELD, RANGE, &built, vmax, 0.5 * RANGE, SimTime::ZERO);
        let now = SimTime::ZERO + SimDuration::from_secs_f64(dt);
        let q = Point::new(qx, qy);
        let brute = brute_in_range(&moved, q, RANGE);
        let fast = grid_in_range(&grid, &moved, q, RANGE, now);
        prop_assert_eq!(fast, brute);
    }
}

/// Two nodes at *exactly* the radio range: `dist_sq <= range²` includes
/// them, and the grid must agree even though they sit in non-adjacent
/// cells' worth of distance.
#[test]
fn range_boundary_pair_is_included() {
    let positions = vec![Point::new(30.0, 30.0), Point::new(30.0 + RANGE, 30.0)];
    let grid = SpatialGrid::build(FIELD, RANGE, &positions, 0.0, 0.5 * RANGE, SimTime::ZERO);
    let fast = grid_in_range(&grid, &positions, positions[0], RANGE, SimTime::ZERO);
    assert_eq!(fast, vec![0, 1]);
    // Nudge epsilon outside: excluded by both paths.
    let positions = vec![
        Point::new(30.0, 30.0),
        Point::new(30.0 + RANGE + 1e-9, 30.0),
    ];
    let grid = SpatialGrid::build(FIELD, RANGE, &positions, 0.0, 0.5 * RANGE, SimTime::ZERO);
    let fast = grid_in_range(&grid, &positions, positions[0], RANGE, SimTime::ZERO);
    assert_eq!(fast, brute_in_range(&positions, positions[0], RANGE));
    assert_eq!(fast, vec![0]);
}

/// A cell seam of the grid: cells are `RANGE` wide, so x = 60 is the edge
/// between columns 2 and 3.
const SEAM: f64 = 3.0 * RANGE;

/// A sender parked exactly on a cell seam, with receivers straddling it,
/// receivers at exactly range² distance, and a receiver on the seam
/// itself: the query window must cover both sides of the seam.
#[test]
fn query_from_a_cell_seam_sees_every_candidate() {
    let positions = vec![
        Point::new(SEAM, 50.0),         // 0: sender, on the seam
        Point::new(SEAM - 19.9, 50.0),  // 1: in range, left column
        Point::new(SEAM + 19.9, 50.0),  // 2: in range, right column
        Point::new(SEAM - RANGE, 50.0), // 3: exactly at range, left
        Point::new(SEAM + RANGE, 50.0), // 4: exactly at range, right
        Point::new(SEAM, 30.1),         // 5: in range, on the seam
        Point::new(SEAM - 20.1, 50.0),  // 6: out of range, left
        Point::new(SEAM + 25.0, 50.0),  // 7: out of range, right
    ];
    let grid = SpatialGrid::build(FIELD, RANGE, &positions, 0.0, 0.5 * RANGE, SimTime::ZERO);
    let fast = grid_in_range(&grid, &positions, positions[0], RANGE, SimTime::ZERO);
    assert_eq!(fast, brute_in_range(&positions, positions[0], RANGE));
    assert_eq!(fast, vec![0, 1, 2, 3, 4, 5]);
}

/// Movers race across cell seams while the grid stays frozen at t = 0.
/// Two of them are bucketed in columns outside the unpadded query window
/// and only the `vmax · Δt` pad brings their cells into view; the padded
/// answer must equal brute force on the true positions.
#[test]
fn drift_padding_covers_movers_crossing_a_cell_seam() {
    let plan = |x0: f64, x1: f64| -> SharedMobility {
        Arc::new(WaypointTrace::new(vec![
            (0.0, Point::new(x0, 50.0)),
            (2.0, Point::new(x1, 50.0)),
        ])) as SharedMobility
    };
    // Sender static just right of the seam (column 3); the unpadded
    // window at radius 20 spans columns 2..=4.
    let mobility: Vec<SharedMobility> = vec![
        Arc::new(StaticMobility::new(Point::new(SEAM + 5.0, 50.0))) as SharedMobility,
        plan(26.0, 46.0),  // column 1 → column 2, ends in range
        plan(52.0, 72.0),  // crosses the seam into the sender's column
        plan(104.0, 84.0), // column 5 → column 4, ends in range
        plan(5.0, 25.0),   // stays out of range
    ];
    let vmax = mobility.iter().map(|m| m.max_speed()).fold(0.0, f64::max);
    let built: Vec<Point> = mobility.iter().map(|m| m.position_at(0.0)).collect();
    let moved: Vec<Point> = mobility.iter().map(|m| m.position_at(2.0)).collect();
    let grid = SpatialGrid::build(FIELD, RANGE, &built, vmax, 0.5 * RANGE, SimTime::ZERO);
    let now = SimTime::from_secs_f64(2.0);
    assert!(
        grid.drift_bound(now) >= 20.0 - 1e-9,
        "stale grid must pad by vmax·Δt"
    );
    let fast = grid_in_range(&grid, &moved, moved[0], RANGE, now);
    assert_eq!(fast, brute_in_range(&moved, moved[0], RANGE));
    assert_eq!(fast, vec![0, 1, 2, 3]);
    // Non-vacuity: without the pad the stale grid misses the far movers.
    let unpadded = grid_in_range(&grid, &moved, moved[0], RANGE, SimTime::ZERO);
    assert_eq!(unpadded, vec![0, 2]);
}

/// Itinerary sectors partition the disk with inclusive borders. With the
/// apex on a cell seam and one border running straight up it, every probe
/// point on the seam (and a hair to either side) must be claimed by at
/// least one sector and at most two (only on a shared border).
#[test]
fn sector_borders_up_a_cell_seam_leave_no_gaps() {
    let apex = Point::new(SEAM, SEAM);
    for sectors in [3usize, 4, 6] {
        // origin = π/2 puts one border exactly on the vertical seam.
        let parts = Sector::partition(apex, RANGE, sectors, std::f64::consts::FRAC_PI_2);
        for &dy in &[1.0, 5.0, RANGE - 1e-9, -1.0, -RANGE + 1e-9] {
            for &dx in &[0.0, 1e-9, -1e-9] {
                let p = Point::new(apex.x + dx, apex.y + dy);
                let claims = parts.iter().filter(|s| s.contains(p)).count();
                assert!(
                    (1..=2).contains(&claims),
                    "{sectors} sectors: point ({}, {}) claimed by {claims}",
                    p.x,
                    p.y
                );
            }
        }
    }
}

/// A lattice snapped onto every cell edge, the field's far edge and the
/// 2-, 4- and 7-way splits of the field width.
fn boundary_lattice() -> Vec<Point> {
    let mut xs: Vec<f64> = (0..=5).map(|c| c as f64 * RANGE).collect();
    xs.push(FIELD.max_x);
    for parts in [2usize, 4, 7] {
        let w = FIELD.width() / parts as f64;
        xs.extend((1..parts).map(|b| FIELD.min_x + b as f64 * w));
    }
    let ys = [0.0, 20.0, 33.0, 40.0, 57.5, 60.0, 100.0, FIELD.max_y];
    xs.iter()
        .flat_map(|&x| ys.iter().map(move |&y| Point::new(x, y)))
        .collect()
}

/// The boundary-heavy lattice, queried from every sender: the grid path
/// must equal the brute-force scan each time.
#[test]
fn boundary_heavy_lattice_matches_brute_force_for_every_sender() {
    let positions = boundary_lattice();
    let grid = SpatialGrid::build(FIELD, RANGE, &positions, 0.0, 0.5 * RANGE, SimTime::ZERO);
    for (from, &p) in positions.iter().enumerate() {
        let fast = grid_in_range(&grid, &positions, p, RANGE, SimTime::ZERO);
        assert_eq!(fast, brute_in_range(&positions, p, RANGE), "sender {from}");
    }
}

/// A chatty protocol exercising every grid-backed engine path: periodic
/// broadcasts (audible sets), oracle/table neighbour reads, and the
/// read-only snapshot (asserted equal to the pruning read en route).
struct Gossip {
    heard: u64,
    neighbor_checksum: u64,
}

impl Protocol for Gossip {
    type Msg = u8;

    fn on_start(&mut self, ctx: &mut Ctx<u8>) {
        for i in 0..ctx.node_count() as u32 {
            ctx.set_timer(NodeId(i), SimDuration::from_millis(200 + i as u64), 1);
        }
    }

    fn on_timer(&mut self, at: NodeId, _key: u64, ctx: &mut Ctx<u8>) {
        let snapshot = ctx.neighbors_snapshot(at);
        let pruned = ctx.neighbors(at);
        assert_eq!(
            snapshot, pruned,
            "read-only snapshot diverged from the pruning read at {at}"
        );
        self.neighbor_checksum = self
            .neighbor_checksum
            .wrapping_mul(31)
            .wrapping_add(pruned.len() as u64);
        ctx.broadcast(at, 24, 7);
        ctx.set_timer(at, SimDuration::from_millis(900), 1);
    }

    fn on_message(&mut self, _at: NodeId, _from: NodeId, _msg: &u8, _ctx: &mut Ctx<u8>) {
        self.heard += 1;
    }
}

fn mobile_nodes(n: usize, max_speed: f64, seed: u64) -> Vec<SharedMobility> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = RwpConfig::new(FIELD, max_speed.max(0.01), 30.0);
    (0..n)
        .map(|_| {
            let start = Point::new(rng.gen_range(0.0..115.0), rng.gen_range(0.0..115.0));
            Arc::new(RandomWaypoint::new(start, &cfg, &mut rng)) as SharedMobility
        })
        .collect()
}

fn run_gossip(index: NeighborIndex, seed: u64, oracle: bool) -> (String, u64, u64, f64) {
    let mut cfg = SimConfig {
        neighbor_index: index,
        oracle_neighbors: oracle,
        time_limit: SimDuration::from_secs_f64(12.0),
        trace: TraceConfig::enabled(),
        ..SimConfig::default()
    };
    if oracle {
        cfg.beacon_interval = SimDuration::ZERO;
        cfg.neighbor_timeout = SimDuration::ZERO;
    }
    // A moving jam zone population check plus churn: every fault path that
    // consults positions runs through the index under test.
    cfg.faults = FaultPlan {
        jam_zones: vec![JamZone {
            region: FaultRegion::Circle {
                center: Point::new(60.0, 60.0),
                radius: 25.0,
            },
            from: SimDuration::from_secs_f64(2.0),
            until: SimDuration::from_secs_f64(9.0),
            loss: 0.6,
        }],
        ..FaultPlan::random_crashes(0.1, 1.0, 8.0)
    };
    let nodes = mobile_nodes(60, 3.0, seed ^ 0xABCD);
    let mut sim = Simulator::new(
        cfg,
        nodes,
        Gossip {
            heard: 0,
            neighbor_checksum: 0,
        },
        seed,
    );
    sim.warm_neighbor_tables();
    sim.run();
    let (proto, ctx) = sim.into_parts();
    (
        ctx.trace().render(),
        proto.heard,
        proto.neighbor_checksum,
        ctx.total_energy_j(),
    )
}

/// The whole-engine claim: grid and brute-force runs are bit-identical —
/// same trace bytes, same delivery counts, same neighbour-read history,
/// same energy — under mobility, crashes, and a jam zone.
#[test]
fn grid_and_brute_force_runs_are_bit_identical() {
    for seed in [3, 17, 2024] {
        let grid = run_gossip(NeighborIndex::Grid, seed, false);
        let brute = run_gossip(NeighborIndex::BruteForce, seed, false);
        assert!(!grid.0.is_empty(), "run recorded no trace events");
        assert_eq!(grid, brute, "seed {seed}: beacon-table runs diverged");
        // Oracle-neighbour mode reads ground truth through the index on
        // every neighbours() call — the hottest read path.
        let grid = run_gossip(NeighborIndex::Grid, seed, true);
        let brute = run_gossip(NeighborIndex::BruteForce, seed, true);
        assert_eq!(grid, brute, "seed {seed}: oracle runs diverged");
    }
}

/// Whole-engine teleport + churn: nodes on playback traces that jump
/// across the field mid-run, with crash/recovery faults layered on top.
/// Crashes never move a node and trace jumps are bounded by the trace's
/// own `max_speed`, so the grid needs no special-case refresh — and the
/// run must stay bit-identical to brute force.
#[test]
fn teleporting_traces_with_churn_run_bit_identical() {
    let mut rng = SmallRng::seed_from_u64(77);
    let nodes: Vec<SharedMobility> = (0..40)
        .map(|_| {
            let a = Point::new(rng.gen_range(0.0..115.0), rng.gen_range(0.0..115.0));
            let b = Point::new(rng.gen_range(0.0..115.0), rng.gen_range(0.0..115.0));
            let at = rng.gen_range(2.0..9.0);
            Arc::new(WaypointTrace::new(vec![
                (0.0, a),
                (at, a),
                (at + 0.002, b), // cross-field teleport in 2 ms
            ])) as SharedMobility
        })
        .collect();
    let run = |index: NeighborIndex| {
        let cfg = SimConfig {
            neighbor_index: index,
            time_limit: SimDuration::from_secs_f64(12.0),
            trace: TraceConfig::enabled(),
            faults: FaultPlan::random_crashes(0.15, 1.0, 8.0),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            cfg,
            nodes.clone(),
            Gossip {
                heard: 0,
                neighbor_checksum: 0,
            },
            13,
        );
        sim.warm_neighbor_tables();
        sim.run();
        let (proto, ctx) = sim.into_parts();
        (
            ctx.trace().render(),
            proto.heard,
            proto.neighbor_checksum,
            ctx.total_energy_j(),
        )
    };
    let grid = run(NeighborIndex::Grid);
    let brute = run(NeighborIndex::BruteForce);
    assert!(!grid.0.is_empty(), "run recorded no trace events");
    assert_eq!(grid, brute, "teleport runs diverged between indexes");
}

/// The boundary-heavy lattice through the engine: every node broadcasts,
/// so every sender's audible set goes through the cached, anchor-triaged
/// grid query, and the run must stay bit-identical to brute force.
#[test]
fn boundary_heavy_lattice_runs_bit_identical() {
    let nodes: Vec<SharedMobility> = boundary_lattice()
        .into_iter()
        .map(|p| Arc::new(StaticMobility::new(p)) as SharedMobility)
        .collect();
    let run = |index: NeighborIndex| {
        let cfg = SimConfig {
            neighbor_index: index,
            time_limit: SimDuration::from_secs_f64(4.0),
            trace: TraceConfig::enabled(),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            cfg,
            nodes.clone(),
            Gossip {
                heard: 0,
                neighbor_checksum: 0,
            },
            5,
        );
        sim.warm_neighbor_tables();
        sim.run();
        let (proto, ctx) = sim.into_parts();
        (ctx.trace().render(), proto.heard, proto.neighbor_checksum)
    };
    let grid = run(NeighborIndex::Grid);
    assert!(grid.1 > 0, "lattice run delivered nothing");
    assert_eq!(grid, run(NeighborIndex::BruteForce));
}

/// Static pathological placement: everyone in one cell (worst case for
/// the grid) — behaviour still identical.
#[test]
fn single_cell_pileup_matches_brute_force() {
    let positions: Vec<SharedMobility> = (0..25)
        .map(|i| {
            Arc::new(StaticMobility::new(Point::new(
                50.0 + (i % 5) as f64,
                50.0 + (i / 5) as f64,
            ))) as SharedMobility
        })
        .collect();
    let run = |index: NeighborIndex| {
        let cfg = SimConfig {
            neighbor_index: index,
            time_limit: SimDuration::from_secs_f64(6.0),
            trace: TraceConfig::enabled(),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            cfg,
            positions.clone(),
            Gossip {
                heard: 0,
                neighbor_checksum: 0,
            },
            9,
        );
        sim.warm_neighbor_tables();
        sim.run();
        let (proto, ctx) = sim.into_parts();
        (ctx.trace().render(), proto.heard, proto.neighbor_checksum)
    };
    assert_eq!(run(NeighborIndex::Grid), run(NeighborIndex::BruteForce));
}
