//! Criterion micro-benchmarks of the engine hot path (PR 9): event
//! scheduling, frame-pool churn, grid candidate queries, SoA node-state
//! access, and whole-engine MAC fan-out cells (a mobile 100-node flood and
//! a dense 500-node static storm whose overlapping frames keep the
//! collision rule busy). These pin the costs the slab/SoA overhaul is
//! accountable for; `profile_bench` measures the same paths in situ with
//! behaviour fingerprints.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;

use diknn_geom::{Point, Rect};
use diknn_mobility::{RandomWaypoint, RwpConfig, StaticMobility};
use diknn_sim::{
    Ctx, EventQueue, FramePool, NeighborIndex, NodeId, NodeSoA, Protocol, SharedMobility,
    SimConfig, SimDuration, SimTime, Simulator, SpatialGrid,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic pseudo-schedule: times jump around like interleaved
/// beacon/MAC/timer traffic does.
fn schedule(n: usize) -> Vec<(SimTime, u64)> {
    let mut rng = SmallRng::seed_from_u64(41);
    (0..n as u64)
        .map(|seq| (SimTime::from_nanos(rng.gen_range(0..1_000_000_000)), seq))
        .collect()
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [256usize, 4096] {
        let keys = schedule(n);
        group.bench_with_input(BenchmarkId::new("slab_push_pop", n), &keys, |b, keys| {
            b.iter(|| {
                let mut q: EventQueue<u32> = EventQueue::with_capacity(keys.len());
                for &(t, s) in keys {
                    q.push(t, s, s as u32);
                }
                let mut acc = 0u64;
                while let Some((_, s, _)) = q.pop() {
                    acc = acc.wrapping_add(s);
                }
                acc
            })
        });
        group.bench_with_input(
            BenchmarkId::new("binary_heap_push_pop", n),
            &keys,
            |b, keys| {
                b.iter(|| {
                    let mut q: BinaryHeap<Reverse<(SimTime, u64, u32)>> =
                        BinaryHeap::with_capacity(keys.len());
                    for &(t, s) in keys {
                        q.push(Reverse((t, s, s as u32)));
                    }
                    let mut acc = 0u64;
                    while let Some(Reverse((_, s, _))) = q.pop() {
                        acc = acc.wrapping_add(s);
                    }
                    acc
                })
            },
        );
        // Steady state: the engine holds a near-constant backlog and
        // alternates push/pop; this is the per-event cost that matters.
        group.bench_with_input(
            BenchmarkId::new("slab_steady_state", n),
            &keys,
            |b, keys| {
                let mut q: EventQueue<u32> = EventQueue::with_capacity(keys.len());
                for &(t, s) in keys {
                    q.push(t, s, s as u32);
                }
                let mut seq = keys.len() as u64;
                b.iter(|| {
                    let (t, _, _) = q.pop().expect("backlog never drains");
                    q.push(t + SimDuration::from_micros(50), seq, 0);
                    seq += 1;
                })
            },
        );
    }
    group.finish();
}

/// Stand-in for `PendingTx`: same order of magnitude of payload bytes.
#[derive(Clone)]
struct FakeFrame {
    _from: u32,
    _dest: u32,
    _bytes: u32,
    _payload: [u64; 4],
}

fn bench_frame_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_pool");
    let frame = FakeFrame {
        _from: 1,
        _dest: 2,
        _bytes: 64,
        _payload: [0; 4],
    };
    // Churn at a realistic in-flight depth: a handful of frames live at
    // once, constant insert/remove — the steady state of a busy MAC.
    group.bench_function("churn_depth_8", |b| {
        let mut pool: FramePool<FakeFrame> = FramePool::new();
        let mut live: Vec<_> = (0..8).map(|_| pool.insert(frame.clone())).collect();
        let mut i = 0usize;
        b.iter(|| {
            let at = i % live.len();
            pool.remove(live[at]).expect("live frame");
            live[at] = pool.insert(frame.clone());
            i += 1;
        })
    });
    group.bench_function("get_hit", |b| {
        let mut pool: FramePool<FakeFrame> = FramePool::new();
        let hs: Vec<_> = (0..64).map(|_| pool.insert(frame.clone())).collect();
        let mut i = 0usize;
        b.iter(|| {
            let h = hs[i % hs.len()];
            i += 1;
            pool.get(black_box(h)).is_some()
        })
    });
    group.finish();
}

const FIELD: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 460.0,
    max_y: 460.0,
};

fn bench_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid");
    let mut rng = SmallRng::seed_from_u64(7);
    for n in [500usize, 4000] {
        let pts = diknn_mobility::placement::uniform(FIELD, n, &mut rng);
        let grid = SpatialGrid::build(FIELD, 20.0, &pts, 5.0, 10.0, SimTime::ZERO);
        let centers: Vec<Point> = (0..64)
            .map(|_| Point::new(rng.gen_range(0.0..460.0), rng.gen_range(0.0..460.0)))
            .collect();
        group.bench_with_input(BenchmarkId::new("candidates_near", n), &grid, |b, grid| {
            let mut out: Vec<u32> = Vec::new();
            let mut i = 0usize;
            b.iter(|| {
                out.clear();
                grid.candidates_near(centers[i % centers.len()], 20.0, SimTime::ZERO, &mut out);
                i += 1;
                out.len()
            })
        });
    }
    group.finish();
}

fn bench_node_soa(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_soa");
    let n = 4096usize;
    let mut nodes = NodeSoA::new(n);
    let mut rng = SmallRng::seed_from_u64(3);
    for i in 0..n {
        nodes.alive[i] = rng.gen_bool(0.9);
        nodes.tx_count[i] = u32::from(rng.gen_bool(0.05));
    }
    let order: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
    // The carrier-sense gate: one flag + one counter read per query.
    group.bench_function("busy_check_4096", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let id = order[i % order.len()];
            i += 1;
            nodes.alive[id] && (nodes.tx_count[id] > 0 || nodes.rx_cover[id] > 0)
        })
    });
    group.bench_function("alive_scan_4096", |b| {
        b.iter(|| nodes.alive.iter().filter(|&&a| a).count())
    });
    group.finish();
}

/// Broadcast-heavy protocol: every node rebroadcasts on a timer so the
/// run is dominated by MAC attempts and delivery fan-out.
struct Flood;

impl Protocol for Flood {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        for i in 0..ctx.node_count() as u32 {
            ctx.set_timer(NodeId(i), SimDuration::from_millis(50 + i as u64), 0);
        }
    }

    fn on_timer(&mut self, at: NodeId, _key: u64, ctx: &mut Ctx<u32>) {
        ctx.broadcast(at, 32, at.0);
        ctx.set_timer(at, SimDuration::from_millis(400), 0);
    }

    fn on_message(&mut self, _at: NodeId, _from: NodeId, _msg: &u32, _ctx: &mut Ctx<u32>) {}
}

fn bench_mac_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("mac_fanout");
    group.sample_size(10);
    let mut rng = SmallRng::seed_from_u64(11);
    let field = Rect::new(0.0, 0.0, 115.0, 115.0);
    let nodes: Vec<SharedMobility> = (0..100)
        .map(|_| {
            let start = Point::new(rng.gen_range(0.0..115.0), rng.gen_range(0.0..115.0));
            let cfg = RwpConfig::new(field, 3.0, 30.0);
            Arc::new(RandomWaypoint::new(start, &cfg, &mut rng)) as SharedMobility
        })
        .collect();
    let run = |nodes: &[SharedMobility], secs: f64| {
        let cfg = SimConfig {
            neighbor_index: NeighborIndex::Grid,
            time_limit: SimDuration::from_secs_f64(secs),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, black_box(nodes.to_vec()), Flood, 17);
        sim.run();
        sim.ctx().stats().events
    };
    group.bench_function("flood_100n_5s", |b| b.iter(|| run(&nodes, 5.0)));
    // Dense contention: 500 static nodes in the same field (degree ~48),
    // so a large share of transmission starts land on receivers another
    // frame already covers and the collision-marking path runs often.
    let storm: Vec<SharedMobility> = (0..500)
        .map(|_| {
            let p = Point::new(rng.gen_range(0.0..115.0), rng.gen_range(0.0..115.0));
            Arc::new(StaticMobility::new(p)) as SharedMobility
        })
        .collect();
    group.bench_function("storm_500n", |b| b.iter(|| run(&storm, 5.0)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_event_queue, bench_frame_pool, bench_grid, bench_node_soa, bench_mac_fanout
}
criterion_main!(benches);
