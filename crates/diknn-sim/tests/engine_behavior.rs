//! Behavioural tests of the simulator engine: delivery, range, collisions,
//! timers, beacons, energy, and determinism.

use std::sync::Arc;

use diknn_geom::{Point, Rect};
use diknn_mobility::{RandomWaypoint, RwpConfig, StaticMobility};
use diknn_sim::{
    CrashSpec, Ctx, FaultPlan, MacMode, NodeId, Protocol, SharedMobility, SimConfig, SimDuration,
    SimTime, Simulator, TraceConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn static_nodes(points: &[(f64, f64)]) -> Vec<SharedMobility> {
    points
        .iter()
        .map(|&(x, y)| Arc::new(StaticMobility::new(Point::new(x, y))) as SharedMobility)
        .collect()
}

/// Records every message each node receives.
#[derive(Default)]
struct Recorder {
    received: Vec<(NodeId, NodeId, u32)>,
    failed: Vec<(NodeId, NodeId)>,
    timers: Vec<(NodeId, u64, SimTime)>,
    start_sends: Vec<(NodeId, NodeId, u32)>,
    start_broadcasts: Vec<(NodeId, u32)>,
}

impl Protocol for Recorder {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        for &(from, to, tag) in &self.start_sends {
            ctx.unicast(from, to, 10, tag);
        }
        for &(from, tag) in &self.start_broadcasts {
            ctx.broadcast(from, 10, tag);
        }
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &u32, _ctx: &mut Ctx<u32>) {
        self.received.push((at, from, *msg));
    }

    fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<u32>) {
        self.timers.push((at, key, ctx.now()));
    }

    fn on_send_failed(&mut self, at: NodeId, to: NodeId, _msg: &u32, _ctx: &mut Ctx<u32>) {
        self.failed.push((at, to));
    }
}

fn quiet_config() -> SimConfig {
    // No beacons: tests drive traffic explicitly.
    SimConfig {
        beacon_interval: SimDuration::ZERO,
        ..SimConfig::default()
    }
}

#[test]
fn unicast_within_range_is_delivered() {
    let nodes = static_nodes(&[(0.0, 0.0), (15.0, 0.0)]);
    let proto = Recorder {
        start_sends: vec![(NodeId(0), NodeId(1), 7)],
        ..Recorder::default()
    };
    let mut sim = Simulator::new(quiet_config(), nodes, proto, 1);
    sim.run();
    assert_eq!(sim.protocol().received, vec![(NodeId(1), NodeId(0), 7)]);
    assert!(sim.protocol().failed.is_empty());
}

#[test]
fn unicast_out_of_range_fails_after_retries() {
    let nodes = static_nodes(&[(0.0, 0.0), (50.0, 0.0)]);
    let proto = Recorder {
        start_sends: vec![(NodeId(0), NodeId(1), 7)],
        ..Recorder::default()
    };
    let mut sim = Simulator::new(quiet_config(), nodes, proto, 1);
    sim.run();
    assert!(sim.protocol().received.is_empty());
    assert_eq!(sim.protocol().failed, vec![(NodeId(0), NodeId(1))]);
    let stats = *sim.ctx().stats();
    assert_eq!(stats.unicast_failures, 1);
    // Original + 3 ARQ retries went on the air.
    assert_eq!(stats.tx_frames, 4);
    assert_eq!(stats.arq_retries, 3);
}

#[test]
fn broadcast_reaches_only_nodes_in_range() {
    // Node 1 at 10 m (in range), node 2 at 19.9 m (in range),
    // node 3 at 25 m (out of range).
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (19.9, 0.0), (25.0, 0.0)]);
    let proto = Recorder {
        start_broadcasts: vec![(NodeId(0), 9)],
        ..Recorder::default()
    };
    let mut sim = Simulator::new(quiet_config(), nodes, proto, 1);
    sim.run();
    let mut got: Vec<u32> = sim.protocol().received.iter().map(|r| r.0 .0).collect();
    got.sort_unstable();
    assert_eq!(got, vec![1, 2]);
}

#[test]
fn timers_fire_in_order_at_requested_times() {
    struct TimerProto {
        fired: Vec<(u64, f64)>,
    }
    impl Protocol for TimerProto {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(NodeId(0), SimDuration::from_millis(500), 2);
            ctx.set_timer(NodeId(0), SimDuration::from_millis(100), 1);
            let cancel_me = ctx.set_timer(NodeId(0), SimDuration::from_millis(300), 99);
            ctx.cancel_timer(cancel_me);
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
        fn on_timer(&mut self, _at: NodeId, key: u64, ctx: &mut Ctx<()>) {
            self.fired.push((key, ctx.now().as_secs_f64()));
        }
    }
    let nodes = static_nodes(&[(0.0, 0.0)]);
    let mut sim = Simulator::new(quiet_config(), nodes, TimerProto { fired: vec![] }, 1);
    sim.run();
    let fired = &sim.protocol().fired;
    assert_eq!(fired.len(), 2);
    assert_eq!(fired[0].0, 1);
    assert!((fired[0].1 - 0.1).abs() < 1e-9);
    assert_eq!(fired[1].0, 2);
    assert!((fired[1].1 - 0.5).abs() < 1e-9);
}

#[test]
fn hidden_terminal_collision_destroys_both_receptions() {
    // A (0,0) and C (30,0) cannot hear each other; B (15,0) hears both.
    // Both transmit "simultaneously" -> B gets nothing in contention mode.
    struct TwoSenders;
    impl Protocol for TwoSenders {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            // Large payloads so the airtimes surely overlap despite jitter.
            ctx.broadcast(NodeId(0), 2000, 0);
            ctx.broadcast(NodeId(2), 2000, 2);
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
            panic!("reception should have been destroyed by the collision");
        }
    }
    let nodes = static_nodes(&[(0.0, 0.0), (15.0, 0.0), (30.0, 0.0)]);
    let mut sim = Simulator::new(quiet_config(), nodes, TwoSenders, 3);
    sim.run();
    assert!(sim.ctx().stats().collisions >= 1);
}

#[test]
fn contention_free_mode_has_no_collisions() {
    struct TwoSenders {
        got: u32,
    }
    impl Protocol for TwoSenders {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            ctx.broadcast(NodeId(0), 2000, 0);
            ctx.broadcast(NodeId(2), 2000, 2);
        }
        fn on_message(&mut self, at: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
            if at == NodeId(1) {
                self.got += 1;
            }
        }
    }
    let cfg = SimConfig {
        mac: MacMode::ContentionFree,
        ..quiet_config()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (15.0, 0.0), (30.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, TwoSenders { got: 0 }, 3);
    sim.run();
    assert_eq!(sim.protocol().got, 2);
    assert_eq!(sim.ctx().stats().collisions, 0);
}

#[test]
fn carrier_sense_serialises_neighbours() {
    // Two mutually audible senders: carrier sense + backoff should let both
    // frames through (no collision at the third node).
    struct TwoSenders {
        got: u32,
    }
    impl Protocol for TwoSenders {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            ctx.broadcast(NodeId(0), 500, 0);
            ctx.broadcast(NodeId(1), 500, 1);
        }
        fn on_message(&mut self, at: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
            if at == NodeId(2) {
                self.got += 1;
            }
        }
    }
    // All three mutually in range.
    let nodes = static_nodes(&[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]);
    let mut got_totals = Vec::new();
    for seed in 0..20 {
        let mut sim = Simulator::new(
            quiet_config(),
            static_nodes_clone(&nodes),
            TwoSenders { got: 0 },
            seed,
        );
        sim.run();
        got_totals.push(sim.protocol().got);
    }
    // Backoff jitter is random; over 20 seeds the vast majority must
    // serialise cleanly.
    let clean = got_totals.iter().filter(|&&g| g == 2).count();
    assert!(
        clean >= 16,
        "only {clean}/20 runs serialised: {got_totals:?}"
    );
}

fn static_nodes_clone(nodes: &[SharedMobility]) -> Vec<SharedMobility> {
    nodes.to_vec()
}

#[test]
fn random_loss_drops_some_receptions() {
    struct Spammer {
        got: u32,
    }
    impl Protocol for Spammer {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            for i in 0..200 {
                ctx.set_timer(NodeId(0), SimDuration::from_millis(20 * i), i);
            }
        }
        fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<u32>) {
            ctx.broadcast(at, 10, key as u32);
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {
            self.got += 1;
        }
    }
    let cfg = SimConfig {
        loss_rate: 0.3,
        ..quiet_config()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Spammer { got: 0 }, 5);
    sim.run();
    let got = sim.protocol().got;
    assert!(got < 190, "loss rate had no visible effect: {got}/200");
    assert!(got > 100, "loss far beyond configured rate: {got}/200");
    assert!(sim.ctx().stats().random_losses > 0);
}

#[test]
fn beacons_fill_neighbor_tables() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let cfg = SimConfig {
        time_limit: SimDuration::from_secs_f64(3.0),
        ..SimConfig::default()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (18.0, 0.0), (60.0, 60.0)]);
    let mut sim = Simulator::new(cfg, nodes, Idle, 7);
    sim.run();
    let nb0: Vec<u32> = {
        let ctx = sim.ctx_mut();
        let mut ids: Vec<u32> = ctx.neighbors(NodeId(0)).iter().map(|n| n.id.0).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(nb0, vec![1, 2]);
    // The far node heard nobody.
    assert!(sim.ctx_mut().neighbors(NodeId(3)).is_empty());
    assert!(sim.ctx().stats().beacons_sent >= 4 * 5);
}

#[test]
fn neighbor_tables_go_stale_under_mobility() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    // Node 1 races away from node 0 at 30 m/s; after it leaves range its
    // entry must eventually expire from node 0's table.
    let trace = diknn_mobility::WaypointTrace::at_constant_speed(
        &[Point::new(10.0, 0.0), Point::new(300.0, 0.0)],
        30.0,
    );
    let nodes: Vec<SharedMobility> = vec![
        Arc::new(StaticMobility::new(Point::new(0.0, 0.0))),
        Arc::new(trace),
    ];
    let cfg = SimConfig {
        field: Rect::new(0.0, 0.0, 300.0, 300.0),
        time_limit: SimDuration::from_secs_f64(10.0),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg, nodes, Idle, 11);
    sim.run();
    assert!(
        sim.ctx_mut().neighbors(NodeId(0)).is_empty(),
        "stale neighbor never expired"
    );
}

#[test]
fn energy_is_charged_for_tx_and_rx() {
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (12.0, 0.0)]);
    let proto = Recorder {
        start_broadcasts: vec![(NodeId(0), 1)],
        ..Recorder::default()
    };
    let mut sim = Simulator::new(quiet_config(), nodes, proto, 1);
    sim.run();
    let e0 = *sim.ctx().energy(NodeId(0));
    let e1 = *sim.ctx().energy(NodeId(1));
    let e2 = *sim.ctx().energy(NodeId(2));
    assert!(e0.tx_protocol_j > 0.0);
    assert_eq!(e0.rx_protocol_j, 0.0);
    assert!(e1.rx_protocol_j > 0.0);
    assert!(e2.rx_protocol_j > 0.0);
    // 26 bytes at 250 kbps = 0.832 ms; tx at 52.2 mW.
    let expected_tx = 0.0522 * (26.0 * 8.0 / 250_000.0);
    assert!((e0.tx_protocol_j - expected_tx).abs() < 1e-9);
    assert!(
        (sim.ctx().total_protocol_energy_j()
            - (e0.protocol_j() + e1.protocol_j() + e2.protocol_j()))
        .abs()
            < 1e-12
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    fn run_once(seed: u64) -> (u64, u64, u64, f64) {
        struct Chatty;
        impl Protocol for Chatty {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                for i in 0..ctx.node_count() {
                    ctx.set_timer(
                        NodeId(i as u32),
                        SimDuration::from_millis(100 * (i as u64 + 1)),
                        0,
                    );
                }
            }
            fn on_timer(&mut self, at: NodeId, _key: u64, ctx: &mut Ctx<u32>) {
                ctx.broadcast(at, 25, at.0);
                if ctx.now() < SimTime::from_secs_f64(8.0) {
                    ctx.set_timer(at, SimDuration::from_millis(700), 0);
                }
            }
            fn on_message(&mut self, _: NodeId, _: NodeId, _: &u32, _: &mut Ctx<u32>) {}
        }
        let field = Rect::new(0.0, 0.0, 115.0, 115.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut placement_rng = SmallRng::seed_from_u64(seed.wrapping_add(1));
        let pts = diknn_mobility::placement::uniform(field, 40, &mut placement_rng);
        let nodes: Vec<SharedMobility> = pts
            .into_iter()
            .map(|p| {
                Arc::new(RandomWaypoint::new(
                    p,
                    &RwpConfig::new(field, 10.0, 20.0),
                    &mut rng,
                )) as SharedMobility
            })
            .collect();
        let cfg = SimConfig {
            time_limit: SimDuration::from_secs_f64(10.0),
            loss_rate: 0.05,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, nodes, Chatty, seed);
        sim.run();
        let s = *sim.ctx().stats();
        (
            s.tx_frames,
            s.rx_deliveries,
            s.collisions,
            sim.ctx().total_energy_j(),
        )
    }
    let a = run_once(42);
    let b = run_once(42);
    let c = run_once(43);
    assert_eq!(a, b, "same seed must give identical runs");
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn stop_halts_the_run() {
    struct Stopper;
    impl Protocol for Stopper {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(NodeId(0), SimDuration::from_secs_f64(1.0), 0);
            ctx.set_timer(NodeId(0), SimDuration::from_secs_f64(50.0), 1);
        }
        fn on_timer(&mut self, _: NodeId, key: u64, ctx: &mut Ctx<()>) {
            assert_eq!(key, 0, "run should have stopped before the second timer");
            ctx.stop();
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let nodes = static_nodes(&[(0.0, 0.0)]);
    let mut sim = Simulator::new(quiet_config(), nodes, Stopper, 1);
    let end = sim.run();
    assert!((end.as_secs_f64() - 1.0).abs() < 1e-9);
}

#[test]
fn warm_neighbor_tables_gives_immediate_neighbors() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0)]);
    let mut sim = Simulator::new(quiet_config(), nodes, Idle, 1);
    sim.warm_neighbor_tables();
    let nb = sim.ctx_mut().neighbors(NodeId(0));
    assert_eq!(nb.len(), 1);
    assert_eq!(nb[0].id, NodeId(1));
}

#[test]
fn oracle_neighbors_track_ground_truth() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: NodeId, _: &(), _: &mut Ctx<()>) {}
    }
    let cfg = SimConfig {
        oracle_neighbors: true,
        ..quiet_config()
    };
    let nodes = static_nodes(&[(0.0, 0.0), (10.0, 0.0), (100.0, 0.0)]);
    let mut sim = Simulator::new(cfg, nodes, Idle, 1);
    let nb = sim.ctx_mut().neighbors(NodeId(0));
    assert_eq!(nb.len(), 1);
    assert_eq!(nb[0].id, NodeId(1));
    assert_eq!(nb[0].position, Point::new(10.0, 0.0));
}

// ---- the MAC collision rule, pinned exactly ----------------------------
//
// Five hand-placed static nodes: R (0) in the middle hears the three
// mutually hidden senders A (1), B (2) and C (3); PA (4) hears only A.
// Payload sizes fix the airtimes (header + payload at 250 kbps: 2000 B →
// 64.5 ms, 500 B → 16.5 ms, 200 B → 6.9 ms), far longer than the ≤0.64 ms
// MAC start jitter, so the overlaps below hold for every seed.

const R: u32 = 0;
const A: u32 = 1;
const B: u32 = 2;
const C: u32 = 3;
const PA: u32 = 4;

fn hidden_star() -> Vec<SharedMobility> {
    static_nodes(&[
        (0.0, 0.0),
        (15.0, 0.0),
        (-15.0, 0.0),
        (0.0, 15.0),
        (30.0, 0.0),
    ])
}

/// R (0), X (1) and Y (2) on a line: X hears both, R and Y are hidden.
fn busy_line() -> Vec<SharedMobility> {
    static_nodes(&[(0.0, 0.0), (15.0, 0.0), (30.0, 0.0)])
}

/// X (1) is down from 1 ms to 40 ms.
fn x_down_early() -> SimConfig {
    SimConfig {
        faults: FaultPlan {
            crashes: vec![CrashSpec {
                node: 1,
                at: SimDuration::from_millis(1),
                recover_after: Some(SimDuration::from_millis(39)),
            }],
            ..FaultPlan::default()
        },
        ..quiet_config()
    }
}

/// Broadcasts on a script: entry `k = (at_s, node, payload_bytes)` fires a
/// timer at `node` after `at_s` seconds that broadcasts `payload_bytes`
/// tagged `k`. Every delivery is recorded as `(receiver, sender, tag)`.
struct Script {
    sends: Vec<(f64, u32, usize)>,
    received: Vec<(u32, u32, u32)>,
}

impl Script {
    fn new(sends: &[(f64, u32, usize)]) -> Self {
        Script {
            sends: sends.to_vec(),
            received: Vec::new(),
        }
    }
}

impl Protocol for Script {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        for (k, &(at, node, _)) in self.sends.iter().enumerate() {
            ctx.set_timer(NodeId(node), SimDuration::from_secs_f64(at), k as u64);
        }
    }

    fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<u32>) {
        let (_, _, bytes) = self.sends[key as usize];
        ctx.broadcast(at, bytes, key as u32);
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &u32, _ctx: &mut Ctx<u32>) {
        self.received.push((at.0, from.0, *msg));
    }
}

impl diknn_snap::SnapState for Script {
    fn snap_state(&self, w: &mut diknn_snap::SnapWriter) {
        diknn_snap::Snap::snap(&self.received, w);
    }
    fn restore_state(
        &mut self,
        r: &mut diknn_snap::SnapReader<'_>,
    ) -> Result<(), diknn_snap::SnapError> {
        self.received = diknn_snap::Snap::unsnap(r)?;
        Ok(())
    }
}

/// Run `sends` over `nodes` to the end for a few seeds; every seed must
/// give the same `(collisions, deliveries)`, which is returned.
fn run_script(
    nodes: &[SharedMobility],
    cfg: &SimConfig,
    sends: &[(f64, u32, usize)],
) -> (u64, Vec<(u32, u32, u32)>) {
    let runs: Vec<_> = (1..=4)
        .map(|seed| {
            let mut sim = Simulator::new(cfg.clone(), nodes.to_vec(), Script::new(sends), seed);
            sim.run();
            let collisions = sim.ctx().stats().collisions;
            (collisions, sim.into_parts().0.received)
        })
        .collect();
    for r in &runs[1..] {
        assert_eq!(r, &runs[0], "outcome depends on the MAC jitter draw");
    }
    runs[0].clone()
}

/// Two overlapping frames at one receiver: both copies at R are lost,
/// one collision is counted, and A's copy at PA (outside B's range) still
/// gets through.
#[test]
fn overlapping_frames_destroy_both_copies_at_the_shared_receiver() {
    let sends = [(0.010, A, 2000), (0.020, B, 500)];
    let (collisions, received) = run_script(&hidden_star(), &quiet_config(), &sends);
    assert_eq!(collisions, 1);
    assert_eq!(received, vec![(PA, A, 0)]);
}

/// A frame starting on top of two frames already on the air at R counts
/// one collision per overlapping pair: one when B lands on A, two when C
/// lands on both.
#[test]
fn collisions_count_every_overlapping_pair_at_a_receiver() {
    let sends = [(0.010, A, 2000), (0.020, B, 2000), (0.030, C, 200)];
    let (collisions, received) = run_script(&hidden_star(), &quiet_config(), &sends);
    assert_eq!(collisions, 3);
    assert_eq!(received, vec![(PA, A, 0)]);
}

/// A chain: B overlaps the middle of A and ends; C starts after B
/// ended while A is still on the air. Coverage of R never drops to zero,
/// so A, B and C are all lost at R (two overlapping starts, two
/// collisions); PA still hears A.
#[test]
fn a_chain_of_overlaps_loses_every_copy_while_coverage_is_continuous() {
    let sends = [(0.010, A, 2000), (0.020, B, 500), (0.045, C, 200)];
    let (collisions, received) = run_script(&hidden_star(), &quiet_config(), &sends);
    assert_eq!(collisions, 2);
    assert_eq!(received, vec![(PA, A, 0)]);
}

/// A receiver that is transmitting when a frame starts cannot hear
/// it. X (1) is down while R (0) starts a long frame, so R's frame does
/// not cover X and X's carrier sense stays idle after it rejoins; X's
/// broadcast then reaches Y (2) but not the busy R. No overlap of two
/// receptions, so no collision is counted.
#[test]
fn a_transmitting_receiver_loses_the_frame_without_a_collision() {
    let sends = [(0.010, 0, 2000), (0.050, 1, 200)];
    let (collisions, received) = run_script(&busy_line(), &x_down_early(), &sends);
    assert_eq!(collisions, 0);
    assert_eq!(received, vec![(2, 1, 1)]);
}

/// A copy that starts only after R's coverage dropped back to zero is
/// delivered cleanly, even though R just lost an overlapped pair.
#[test]
fn a_copy_starting_after_coverage_ends_is_delivered_cleanly() {
    let sends = [(0.010, A, 2000), (0.020, B, 500), (0.100, C, 200)];
    let (collisions, received) = run_script(&hidden_star(), &quiet_config(), &sends);
    assert_eq!(collisions, 1);
    assert_eq!(received, vec![(PA, A, 0), (R, C, 2)]);
}

/// A snapshot cut while a collided copy is still on the air. The cut
/// instants sit inside the overlap chain above (with A and C both on the
/// air, and with A alone on the air after losing its copy at R) and inside
/// the busy-receiver case while X's copy at the transmitting R is on the
/// air. Each snapshot must survive a restore byte for byte, the restored
/// run must finish bit-identical to the uncut run, and the snapshot bytes
/// are pinned: the snapshot format did not change.
#[test]
fn snapshot_mid_overlap_restores_bit_identically() {
    let traced = |cfg: SimConfig| SimConfig {
        trace: TraceConfig::enabled(),
        ..cfg
    };
    // The chain and the busy-receiver scripts, each with a clean late
    // frame: it checks that the losses end with the overlap.
    let chain = (
        hidden_star(),
        traced(quiet_config()),
        vec![
            (0.010, A, 2000),
            (0.020, B, 500),
            (0.045, C, 200),
            (0.150, C, 200),
        ],
        (2, vec![(PA, A, 0), (R, C, 3)]),
    );
    let busy = (
        busy_line(),
        traced(x_down_early()),
        vec![(0.010, 0, 2000), (0.050, 1, 200), (0.200, 1, 200)],
        (0, vec![(2, 1, 1), (0, 1, 2), (2, 1, 2)]),
    );
    let cases = [
        (&chain, 0.050, 0xcc2a_fc1a_3f57_3355_u64),
        (&chain, 0.060, 0x6391_635d_de84_6fb2),
        (&busy, 0.053, 0xea5a_42d7_f698_72bc),
    ];
    let finish = |sim: Simulator<Script>| {
        let stats = *sim.ctx().stats();
        let energy = sim.ctx().total_energy_j().to_bits();
        let (proto, ctx) = sim.into_parts();
        (ctx.trace().render(), stats, energy, proto.received)
    };
    for (k, &((nodes, cfg, sends, expected), cut, pinned)) in cases.iter().enumerate() {
        let mut uncut = Simulator::new(cfg.clone(), nodes.clone(), Script::new(sends), 5);
        uncut.run();
        let uncut = finish(uncut);
        assert_eq!(
            (uncut.1.collisions, uncut.3.clone()),
            *expected,
            "case {k}: uncut outcome"
        );

        let mut sim = Simulator::new(cfg.clone(), nodes.clone(), Script::new(sends), 5);
        sim.run_until(SimTime::from_secs_f64(cut));
        let bytes = sim.snapshot();
        assert_eq!(
            diknn_snap::fingerprint(&bytes),
            pinned,
            "case {k}: snapshot bytes moved"
        );
        let mut restored =
            Simulator::restore(&bytes, cfg.clone(), nodes.clone(), Script::new(sends))
                .expect("restore");
        assert_eq!(
            restored.snapshot(),
            bytes,
            "case {k}: snapshot bytes changed across a restore"
        );
        restored.run();
        assert_eq!(
            finish(restored),
            uncut,
            "case {k}: restored run diverged from the uncut run"
        );
    }
}
