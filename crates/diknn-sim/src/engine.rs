//! The discrete-event engine: event queue, MAC, delivery, timers, beacons.
//!
//! Design notes:
//!
//! * **Determinism.** The clock is integer nanoseconds, ties are broken by a
//!   monotone sequence number, receiver iteration is in `NodeId` order, and
//!   all randomness flows from one seeded PCG-family RNG. Same seed ⇒ same
//!   trace, byte for byte.
//! * **Ownership.** All mutable run state lives in [`Ctx`]; the protocol
//!   under test is a separate field of [`Simulator`], so protocol callbacks
//!   receive `&mut Ctx` without borrow gymnastics.
//! * **Radio model.** Unit-disc propagation evaluated at transmission start;
//!   carrier-sense with binary-exponential backoff; a reception overlapping
//!   any other audible transmission is destroyed (classic ns-2 style
//!   collision rule, which also captures hidden terminals); optional uniform
//!   packet loss on top. Unicast frames get link-layer retries.

use std::collections::BTreeSet;
use std::sync::Arc;

use diknn_geom::Point;
use diknn_mobility::Mobility;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use diknn_snap::{Snap, SnapError, SnapReader, SnapState, SnapWriter};

use crate::config::{MacMode, NeighborIndex, SimConfig};
use crate::energy::{EnergyMeter, TrafficClass};
use crate::faults::LinkLossModel;
use crate::grid::{SpatialGrid, ANCHOR_EPS};
use crate::ids::{NodeId, TimerId};
use crate::lifecycle::NodePhase;
use crate::neighbors::{Neighbor, NeighborTable};
use crate::queue::{EventQueue, FramePool, Handle};
use crate::soa::{FlowLedger, NodeSoA};
use crate::stats::{PerfCounters, SimStats};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, EventTrace, ProtoEvent, TraceKind};

/// Snapshot format version of the simulator's mutable state (see
/// [`Simulator::snapshot`]). The versioning rule: **any** change that
/// alters the snapshot byte stream — a reordered field, a new enum tag, an
/// added piece of state — must bump this constant. Old snapshots are then
/// rejected loudly by [`Simulator::restore`] instead of being quietly
/// misread; there is deliberately no cross-version migration path.
///
/// Version 2: hot-path memory overhaul (DESIGN §14) — frames moved from a
/// `BTreeMap` to a slot/generation [`FramePool`] (handles replace dense tx
/// ids on the wire), per-node state packed into [`NodeSoA`] with the new
/// carrier-sense columns, the flow-energy ledger densified, and per-event-
/// kind counters added to [`SimStats`].
pub const SNAP_VERSION: u32 = 2;

/// A mobility plan shared between the simulator and the ground-truth oracle.
pub type SharedMobility = Arc<dyn Mobility>;

/// Where a frame is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// Link-local broadcast: every node in radio range processes it.
    Broadcast,
    /// Addressed to one node; others overhear (and pay energy) but do not
    /// process it.
    Unicast(NodeId),
}

/// The behaviour under test. One instance drives *all* nodes: per-node
/// protocol state is owned by the implementation, keyed by [`NodeId`].
pub trait Protocol {
    /// Application-level message carried by protocol frames.
    type Msg: Clone;

    /// Called once at time zero, before any event.
    fn on_start(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

    /// A frame addressed to (or broadcast at) `at` arrived from `from`.
    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &Self::Msg, ctx: &mut Ctx<Self::Msg>);

    /// A timer set via [`Ctx::set_timer`] fired at node `at`.
    fn on_timer(&mut self, _at: NodeId, _key: u64, _ctx: &mut Ctx<Self::Msg>) {}

    /// A unicast from `at` to `to` failed after all retries (moved out of
    /// range, collisions, or random loss).
    fn on_send_failed(
        &mut self,
        _at: NodeId,
        _to: NodeId,
        _msg: &Self::Msg,
        _ctx: &mut Ctx<Self::Msg>,
    ) {
    }
}

/// Frame content: engine beacons or protocol messages.
#[derive(Debug, Clone)]
enum Frame<M> {
    Beacon,
    Proto(M),
}

/// A frame waiting for (or undergoing) MAC transmission.
struct PendingTx<M> {
    from: NodeId,
    dest: Destination,
    frame: Frame<M>,
    payload_bytes: usize,
    /// Channel-busy backoff attempts for the current transmission try.
    backoffs: u32,
    /// Link-layer retransmissions already performed (unicast only).
    retries: u32,
    /// Flow label for energy attribution (query id for KNN protocols);
    /// `None` for beacons and untagged traffic. Pure accounting — never
    /// consulted by the MAC or delivery paths.
    flow: Option<u32>,
    /// Set while the frame is on the air (it has a matching `ActiveTx`);
    /// guards against double-starting a transmission.
    on_air: bool,
}

/// A frame currently on the air.
struct ActiveTx {
    id: Handle,
    from: NodeId,
    /// Nodes that were within range at transmission start, with a flag set
    /// when their copy was already lost at start. A copy overlapped later
    /// is lost through the receiver's `Ctx::rx_clobbered` mark instead.
    receivers: Vec<(NodeId, bool)>,
    airtime: SimDuration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    MacAttempt(Handle),
    TxEnd(Handle),
    Timer {
        node: NodeId,
        id: TimerId,
        key: u64,
    },
    Beacon(NodeId),
    /// Fault plan: fail-stop crash of a node.
    Crash(NodeId),
    /// Fault plan: a crashed node reboots.
    Recover(NodeId),
    /// Churn plan: the node leaves the network.
    Leave(NodeId),
    /// Churn plan: a churned-out node rejoins (amnesiac under state loss).
    Rejoin(NodeId),
}

// ----- snapshot encoding of the engine-private state types --------------
//
// These impls are part of the snapshot wire format: changing any of them
// (field order, tags) requires bumping `SNAP_VERSION`.

diknn_snap::snap_enum!(Destination {
    0 => Broadcast,
    1 => Unicast(to),
});

impl<M: Snap> Snap for Frame<M> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            Frame::Beacon => w.put_u8(0),
            Frame::Proto(m) => {
                w.put_u8(1);
                m.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(Frame::Beacon),
            1 => Ok(Frame::Proto(M::unsnap(r)?)),
            tag => Err(SnapError::BadTag { ty: "Frame", tag }),
        }
    }
}

impl<M: Snap> Snap for PendingTx<M> {
    fn snap(&self, w: &mut SnapWriter) {
        self.from.snap(w);
        self.dest.snap(w);
        self.frame.snap(w);
        self.payload_bytes.snap(w);
        self.backoffs.snap(w);
        self.retries.snap(w);
        self.flow.snap(w);
        self.on_air.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PendingTx {
            from: NodeId::unsnap(r)?,
            dest: Destination::unsnap(r)?,
            frame: Frame::unsnap(r)?,
            payload_bytes: usize::unsnap(r)?,
            backoffs: u32::unsnap(r)?,
            retries: u32::unsnap(r)?,
            flow: Option::unsnap(r)?,
            on_air: bool::unsnap(r)?,
        })
    }
}

diknn_snap::snap_struct!(ActiveTx {
    id,
    from,
    receivers,
    airtime
});

diknn_snap::snap_enum!(EventKind {
    0 => MacAttempt(id),
    1 => TxEnd(id),
    2 => Timer { node, id, key },
    3 => Beacon(node),
    4 => Crash(node),
    5 => Recover(node),
    6 => Leave(node),
    7 => Rejoin(node),
});

/// Per-node cached grid-candidate lists for the audible-set query (see
/// `Ctx::fill_receivers`). Derived state: never serialized — a restored
/// run starts cold — and semantically transparent, since a hit returns
/// exactly the list a fresh grid query over the same (epoch, cell-window)
/// would produce. The cache is unconditional: DESIGN §14 records the
/// paired measurement that keeps it.
struct AudCache {
    /// Grid epoch each node's list was filled at; `u64::MAX` = never.
    epoch: Vec<u64>,
    /// Padded query cell-window the list was filled for.
    window: Vec<(u32, u32, u32, u32)>,
    /// Sorted (ascending, unique) grid candidate ids.
    list: Vec<Vec<u32>>,
}

impl AudCache {
    fn new(n: usize) -> Self {
        AudCache {
            epoch: vec![u64::MAX; n],
            window: vec![(0, 0, 0, 0); n],
            list: vec![Vec::new(); n],
        }
    }
}

/// Reusable hot-path scratch buffers. Never serialized: contents are dead
/// between events; only the allocations are recycled.
#[derive(Default)]
struct Scratch {
    /// Free receiver lists for `ActiveTx` (returned at end-of-frame).
    recv: Vec<Vec<(NodeId, bool)>>,
    /// Free delivery lists (returned once callbacks have run).
    succ: Vec<Vec<NodeId>>,
}

/// All mutable run state except the protocol: world, queue, RNG, meters.
///
/// Protocol callbacks receive `&mut Ctx` and use its public API to inspect
/// the world and emit frames/timers.
pub struct Ctx<M> {
    cfg: SimConfig,
    mobility: Vec<SharedMobility>,
    tables: Vec<NeighborTable>,
    energy: Vec<EnergyMeter>,
    now: SimTime,
    rng: SmallRng,
    stats: SimStats,
    /// Inline 4-ary min-heap over `(time, seq)`; see [`crate::queue`].
    queue: EventQueue<EventKind>,
    seq: u64,
    next_timer: u64,
    /// Frames waiting for (or undergoing) MAC transmission, addressed by
    /// generation-checked [`Handle`]s carried inside the queued events.
    frames: FramePool<PendingTx<M>>,
    active: Vec<ActiveTx>,
    cancelled_timers: BTreeSet<u64>,
    stopped: bool,
    /// Whether [`Simulator::start`] has run (beacon phases seeded,
    /// `on_start` delivered). Snapshotted so a restored run never re-runs
    /// its startup sequence.
    started: bool,
    /// Per-node state columns (liveness, lifecycle, Gilbert–Elliott
    /// channel state, carrier-sense counters), indexed by dense node id.
    nodes: NodeSoA,
    /// Spatial index over node positions for the radio hot path; `None`
    /// under [`NeighborIndex::BruteForce`]. Grid answers are candidate
    /// supersets, always exact-checked against true positions, so both
    /// settings produce bit-identical runs (see [`crate::grid`]).
    grid: Option<SpatialGrid>,
    /// The flight recorder (see [`crate::trace`]); disabled unless
    /// `SimConfig::trace.enabled` is set.
    trace: EventTrace,
    /// Per-flow protocol energy ledger (joules), indexed by the flow label
    /// passed to [`Ctx::unicast_flow`]/[`Ctx::broadcast_flow`]. Each frame's
    /// tx charge plus every receiver's rx charge lands on its flow, so the
    /// ledger sums to `total_protocol_energy_j` when all traffic is tagged.
    flow_energy: FlowLedger,
    /// Per-node collision mark (derived, not snapshotted): set when a
    /// transmission starts covering a node some other frame on the air
    /// already covers, cleared when that node's `rx_cover` returns to 0.
    /// Coverage is unbroken in between, so every copy on the air at the
    /// node while it is set overlapped a second frame there and is lost;
    /// `finish_transmission` folds it into the copy's flag.
    rx_clobbered: Vec<bool>,
    /// Incremental audible-set cache (derived, not snapshotted).
    aud: AudCache,
    /// Recycled hot-path buffers (derived, not snapshotted).
    scratch: Scratch,
    /// Implementation performance counters (not snapshotted, not part of
    /// any behavioural fingerprint — see [`PerfCounters`]).
    perf: PerfCounters,
}

impl<M: Clone> Ctx<M> {
    // ----- inspection ---------------------------------------------------

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of nodes in the network.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.mobility.len()
    }

    /// Exact current position of `node` (nodes are location-aware, §3.1).
    #[inline]
    pub fn position(&self, node: NodeId) -> Point {
        self.mobility[node.index()].position_at(self.now.as_secs_f64())
    }

    /// Exact current speed of `node` in m/s.
    #[inline]
    pub fn speed(&self, node: NodeId) -> f64 {
        self.mobility[node.index()].speed_at(self.now.as_secs_f64())
    }

    /// Snapshot of `node`'s neighbour table (stale entries pruned).
    ///
    /// With `oracle_neighbors` the snapshot is computed from ground truth
    /// instead — perfect knowledge, for tests and ablations.
    ///
    /// Takes `&mut self` because pruning is a behavioural side effect: it
    /// decides where a later-re-heard neighbour lands in the table's
    /// insertion order. Protocol decision paths keep calling this; pure
    /// observers can use the read-only [`Ctx::neighbors_snapshot`].
    pub fn neighbors(&mut self, node: NodeId) -> Vec<Neighbor> {
        if self.cfg.oracle_neighbors {
            return self.neighbors_snapshot(node);
        }
        let cutoff = self.neighbor_cutoff();
        let table = &mut self.tables[node.index()];
        if self.now > SimTime::ZERO + self.cfg.neighbor_timeout {
            table.expire(cutoff);
        }
        table.entries().to_vec()
    }

    /// Read-only view of `node`'s neighbourhood: the same entries
    /// [`Ctx::neighbors`] returns, without the table-pruning side effect.
    ///
    /// Under `oracle_neighbors` this is the ground-truth in-range set
    /// (grid-accelerated when the grid index is enabled), ascending by
    /// id. Otherwise it filters the beacon table on the fly.
    pub fn neighbors_snapshot(&self, node: NodeId) -> Vec<Neighbor> {
        if self.cfg.oracle_neighbors {
            let me = self.position(node);
            let range2 = self.cfg.radio_range * self.cfg.radio_range;
            let t = self.now.as_secs_f64();
            let neighbor_of = |i: usize| -> Option<Neighbor> {
                if i == node.index() || !self.nodes.alive[i] {
                    return None;
                }
                let p = self.mobility[i].position_at(t);
                (me.dist_sq(p) <= range2).then(|| Neighbor {
                    id: NodeId(i as u32),
                    position: p,
                    speed: self.mobility[i].speed_at(t),
                    heard_at: self.now,
                })
            };
            if let Some(grid) = &self.grid {
                let mut cand = Vec::new();
                grid.candidates_near(me, self.cfg.radio_range, self.now, &mut cand);
                cand.sort_unstable();
                return cand
                    .into_iter()
                    .filter_map(|i| neighbor_of(i as usize))
                    .collect();
            }
            return (0..self.mobility.len()).filter_map(neighbor_of).collect();
        }
        let table = &self.tables[node.index()];
        if self.now > SimTime::ZERO + self.cfg.neighbor_timeout {
            let cutoff = self.neighbor_cutoff();
            table
                .entries()
                .iter()
                .filter(|e| e.heard_at > cutoff)
                .copied()
                .collect()
        } else {
            table.entries().to_vec()
        }
    }

    /// Beacon entries heard at or before this time are stale.
    fn neighbor_cutoff(&self) -> SimTime {
        if self.now.as_nanos() > self.cfg.neighbor_timeout.as_nanos() {
            SimTime::from_nanos(self.now.as_nanos() - self.cfg.neighbor_timeout.as_nanos())
        } else {
            SimTime::ZERO
        }
    }

    /// Engine counters so far.
    #[inline]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Mutable counters: protocols bump the protocol-level fault counters
    /// (`tokens_reissued`, `query_retries`) through this.
    #[inline]
    pub fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    /// Whether `node` is currently up (fault plan liveness).
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.alive[node.index()]
    }

    /// Lifecycle phase of `node`: up, temporarily down (crash/churn), or
    /// permanently dead (energy exhaustion).
    #[inline]
    pub fn phase(&self, node: NodeId) -> NodePhase {
        self.nodes.phase[node.index()]
    }

    /// Number of currently-live nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.alive.iter().filter(|&&a| a).count()
    }

    /// The recorded event trace; empty unless tracing was enabled via
    /// `SimConfig::trace`.
    #[inline]
    pub fn trace(&self) -> &EventTrace {
        &self.trace
    }

    /// Energy meter of one node.
    #[inline]
    pub fn energy(&self, node: NodeId) -> &EnergyMeter {
        &self.energy[node.index()]
    }

    /// Sum of protocol (non-beacon) radio energy over all nodes, in joules.
    pub fn total_protocol_energy_j(&self) -> f64 {
        self.energy.iter().map(EnergyMeter::protocol_j).sum()
    }

    /// Sum of all radio energy (incl. beacons) over all nodes, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.iter().map(EnergyMeter::total_j).sum()
    }

    /// Per-flow protocol energy ledger: joules attributed to each flow
    /// label (query id) via [`Ctx::unicast_flow`]/[`Ctx::broadcast_flow`].
    /// Untagged traffic (plain `unicast`/`broadcast`, beacons) is charged
    /// to the node meters only and reads as zero here.
    #[inline]
    pub fn flow_energy_j(&self) -> &FlowLedger {
        &self.flow_energy
    }

    /// Implementation-side performance counters (audible-cache hit rate,
    /// grid refreshes). Deliberately outside [`Ctx::stats`]: these describe
    /// *how* the run was computed, differ across index variants, and reset
    /// on restore — see [`PerfCounters`].
    #[inline]
    pub fn perf(&self) -> &PerfCounters {
        &self.perf
    }

    /// Seeded RNG for protocol-level randomness (timer jitter etc.).
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    // ----- actions ------------------------------------------------------

    /// Queue a broadcast frame from `from` carrying `msg`;
    /// `payload_bytes` drives airtime and energy.
    pub fn broadcast(&mut self, from: NodeId, payload_bytes: usize, msg: M) {
        self.broadcast_flow(from, payload_bytes, msg, None);
    }

    /// Queue a unicast frame from `from` to `to`.
    pub fn unicast(&mut self, from: NodeId, to: NodeId, payload_bytes: usize, msg: M) {
        self.unicast_flow(from, to, payload_bytes, msg, None);
    }

    /// [`Ctx::broadcast`] with a flow label for per-query energy
    /// attribution (see [`Ctx::flow_energy_j`]). The label never affects
    /// MAC behaviour or delivery.
    pub fn broadcast_flow(
        &mut self,
        from: NodeId,
        payload_bytes: usize,
        msg: M,
        flow: Option<u32>,
    ) {
        self.enqueue_frame(
            from,
            Destination::Broadcast,
            Frame::Proto(msg),
            payload_bytes,
            flow,
        );
    }

    /// [`Ctx::unicast`] with a flow label for per-query energy attribution.
    pub fn unicast_flow(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: usize,
        msg: M,
        flow: Option<u32>,
    ) {
        debug_assert!(from != to, "unicast to self");
        self.enqueue_frame(
            from,
            Destination::Unicast(to),
            Frame::Proto(msg),
            payload_bytes,
            flow,
        );
    }

    /// Schedule `on_timer(node, key)` after `delay`.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, key: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        let at = self.now + delay;
        self.schedule(at, EventKind::Timer { node, id, key });
        id
    }

    /// Cancel a previously set timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled_timers.insert(id.0);
    }

    /// Request that the run stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    // ----- flight recorder ----------------------------------------------

    /// Record a protocol-level trace event at `node` (no-op while the
    /// flight recorder is disabled). Protocol implementations reach this
    /// through the `TraceSink` trait in `diknn-core`.
    pub fn record_proto(&mut self, node: NodeId, ev: ProtoEvent) {
        self.trace_event(node, TraceKind::Proto(ev));
    }

    #[inline]
    fn trace_event(&mut self, node: NodeId, kind: TraceKind) {
        if self.trace.is_enabled() {
            self.trace.record(self.now, node, kind);
            self.stats.trace_events += 1;
        }
    }

    /// Record a chatty per-reception event (kept only in verbose mode).
    #[inline]
    fn trace_verbose(&mut self, node: NodeId, kind: TraceKind) {
        if self.trace.is_verbose() {
            self.trace.record(self.now, node, kind);
            self.stats.trace_events += 1;
        }
    }

    /// Record the node's running energy total after a charge. Only done
    /// under an energy budget, where the invariant checker needs the
    /// series; unbudgeted runs would drown the ring in meter samples.
    #[inline]
    fn trace_energy(&mut self, node: NodeId) {
        if self.trace.is_enabled() && self.cfg.faults.energy_budget_j.is_some() {
            let spent_j = self.energy[node.index()].total_j();
            self.trace_event(node, TraceKind::Energy { spent_j });
        }
    }

    // ----- internals ----------------------------------------------------

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
    }

    fn enqueue_frame(
        &mut self,
        from: NodeId,
        dest: Destination,
        frame: Frame<M>,
        payload_bytes: usize,
        flow: Option<u32>,
    ) {
        let h = self.frames.insert(PendingTx {
            from,
            dest,
            frame,
            payload_bytes,
            backoffs: 0,
            retries: 0,
            flow,
            on_air: false,
        });
        // Initial desynchronisation jitter.
        let jitter = self.random_backoff(0);
        self.schedule(self.now + jitter, EventKind::MacAttempt(h));
    }

    fn random_backoff(&mut self, exponent: u32) -> SimDuration {
        let window = self.cfg.backoff_window.as_nanos() << exponent.min(6);
        SimDuration::from_nanos(self.rng.gen_range(0..=window.max(1)))
    }

    // lint: hot-path (carrier sense + audibility run once per MAC attempt)
    /// True when `node` senses the channel busy: it is transmitting or is
    /// within range of an ongoing transmission. O(1): the SoA counters are
    /// maintained by `start_transmission`/`finish_transmission` and count
    /// the sender and receiver memberships of every frame on the air.
    #[inline]
    fn channel_busy(&self, node: NodeId) -> bool {
        let i = node.index();
        self.nodes.tx_count[i] > 0 || self.nodes.rx_cover[i] > 0
    }

    /// Append to `out` (which must be empty) the nodes within radio range
    /// of `from` right now, ascending by id.
    ///
    /// With the grid index, the node's grid candidate list is reused
    /// across transmissions until the grid refreshes or the padded query
    /// window moves to different cells. Bucket contents only change on
    /// refresh (= epoch bump), so a cached list over the same (epoch,
    /// window) is byte-identical to a fresh query: same membership, same
    /// order, same downstream RNG draws.
    fn fill_receivers(&mut self, from: NodeId, out: &mut Vec<(NodeId, bool)>) {
        debug_assert!(out.is_empty());
        let origin = self.position(from);
        let range2 = self.cfg.radio_range * self.cfg.radio_range;
        let t = self.now.as_secs_f64();
        let fi = from.index();
        let Ctx {
            cfg,
            mobility,
            nodes,
            grid,
            aud,
            perf,
            now,
            ..
        } = self;
        let in_range = |i: usize| -> bool {
            i != fi && nodes.alive[i] && origin.dist_sq(mobility[i].position_at(t)) <= range2
        };
        let Some(grid) = grid.as_ref() else {
            for i in 0..mobility.len() {
                if in_range(i) {
                    out.push((NodeId(i as u32), false));
                }
            }
            return;
        };
        let window = grid.cover_cells(origin, cfg.radio_range, *now);
        if aud.epoch[fi] == grid.epoch() && aud.window[fi] == window {
            perf.aud_cache_hits += 1;
        } else {
            let list = &mut aud.list[fi];
            list.clear();
            grid.collect_cells(window, list);
            list.sort_unstable();
            aud.epoch[fi] = grid.epoch();
            aud.window[fi] = window;
            perf.aud_cache_misses += 1;
        }
        // Triage candidates against their grid anchors before paying for
        // an exact mobility-plan evaluation. A candidate's true position
        // is within `drift` of its anchor, so anchor distances outside
        // `range ± drift` decide membership outright; only the ambiguity
        // band needs the exact check. `ANCHOR_EPS` absorbs the few-ulp
        // rounding slack between the anchor-distance and exact-distance
        // computations, keeping both shortcuts conservative: any
        // candidate the triage classifies would get the same answer from
        // the exact predicate, so the receiver set — and every RNG draw
        // downstream of it — is bit-identical to the brute-force scan.
        let drift = grid.drift_bound(*now);
        let far = cfg.radio_range + drift + ANCHOR_EPS;
        let far_sq = far * far;
        let near = cfg.radio_range - drift - ANCHOR_EPS;
        let near_sq = if near > 0.0 { near * near } else { -1.0 };
        let anchors = grid.anchors();
        for &i in &aud.list[fi] {
            let ix = i as usize;
            if ix == fi || !nodes.alive[ix] {
                continue;
            }
            let d0 = origin.dist_sq(anchors[ix]);
            if d0 > far_sq {
                continue; // definitely out of range
            }
            if d0 > near_sq && origin.dist_sq(mobility[ix].position_at(t)) > range2 {
                continue; // ambiguity band: exact check says out
            }
            out.push((NodeId(i), false));
        }
    }

    /// Incrementally re-bucket the spatial grid once accumulated node
    /// drift could exceed the refresh slack. Called by the run loop on
    /// every event; a cheap no-op while fresh, and always for static
    /// scenarios (`vmax = 0` never drifts).
    fn refresh_grid_if_stale(&mut self) {
        let now = self.now;
        let Ctx {
            mobility,
            grid,
            perf,
            ..
        } = self;
        if let Some(grid) = grid.as_mut() {
            if grid.needs_refresh(now) {
                let t = now.as_secs_f64();
                grid.refresh(|i| mobility[i].position_at(t), now);
                perf.grid_refreshes += 1;
            }
        }
    }

    /// Begin transmitting pending frame `h`: mark collisions, bump the
    /// carrier-sense counters, and schedule the end-of-frame event.
    fn start_transmission(&mut self, h: Handle) {
        let (from, airtime, dest, beacon) = {
            let p = self.frames.get_mut(h).expect("pending tx");
            p.on_air = true;
            (
                p.from,
                self.cfg.packet_airtime(p.payload_bytes),
                p.dest,
                matches!(p.frame, Frame::Beacon),
            )
        };
        let tx_dest = match dest {
            Destination::Broadcast => None,
            Destination::Unicast(to) => Some(to),
        };
        self.trace_event(
            from,
            TraceKind::TxStart {
                dest: tx_dest,
                beacon,
            },
        );
        let mut receivers = self.scratch.recv.pop().unwrap_or_default();
        self.fill_receivers(from, &mut receivers);
        // Collision rule: a receiver hearing two overlapping transmissions
        // loses every copy; a transmitting node cannot receive. Before my
        // bump, `rx_cover[r]` is the number of other frames on the air at
        // `r`: each overlaps mine there (one collision apiece), my copy is
        // lost, and `rx_clobbered[r]` dooms theirs.
        let contention = self.cfg.mac == MacMode::Contention;
        for (r, corrupted) in receivers.iter_mut() {
            let i = r.index();
            let cover = self.nodes.rx_cover[i];
            if contention {
                if cover > 0 {
                    self.stats.collisions += u64::from(cover);
                    self.rx_clobbered[i] = true;
                }
                *corrupted = cover > 0 || self.nodes.tx_count[i] > 0;
            }
            self.nodes.rx_cover[i] = cover + 1;
        }
        self.nodes.tx_count[from.index()] += 1;
        self.active.push(ActiveTx {
            id: h,
            from,
            receivers,
            airtime,
        });
        self.schedule(self.now + airtime, EventKind::TxEnd(h));
    }
    // lint: end-hot-path
}

/// Outcome handed back to the run loop when an event needs a protocol
/// callback; keeps `Ctx` internals and the protocol object decoupled.
enum Callback<M> {
    None,
    Timer {
        node: NodeId,
        key: u64,
    },
    Deliveries {
        from: NodeId,
        msg: M,
        to: Vec<NodeId>,
    },
    SendFailed {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
}

/// The simulator: a [`Ctx`] plus the protocol under test.
pub struct Simulator<P: Protocol> {
    ctx: Ctx<P::Msg>,
    protocol: P,
}

impl<P: Protocol> Simulator<P> {
    /// Build a simulator over `mobility` plans with the given protocol.
    /// `seed` fixes every random choice of the run.
    pub fn new(cfg: SimConfig, mobility: Vec<SharedMobility>, protocol: P, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        assert!(!mobility.is_empty(), "simulation needs at least one node");
        let n = mobility.len();
        let trace = EventTrace::new(&cfg.trace);
        let mut ctx = Ctx {
            cfg,
            mobility,
            tables: vec![NeighborTable::default(); n],
            energy: vec![EnergyMeter::default(); n],
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            stats: SimStats::default(),
            queue: EventQueue::new(),
            seq: 0,
            next_timer: 0,
            frames: FramePool::new(),
            active: Vec::new(),
            cancelled_timers: BTreeSet::new(),
            stopped: false,
            started: false,
            nodes: NodeSoA::new(n),
            grid: None,
            trace,
            flow_energy: FlowLedger::new(),
            rx_clobbered: vec![false; n],
            aud: AudCache::new(n),
            scratch: Scratch::default(),
            perf: PerfCounters::default(),
        };
        if ctx.cfg.neighbor_index == NeighborIndex::Grid {
            let vmax = ctx
                .mobility
                .iter()
                .map(|m| m.max_speed())
                .fold(0.0_f64, f64::max);
            let positions: Vec<Point> = ctx.mobility.iter().map(|m| m.position_at(0.0)).collect();
            ctx.grid = Some(SpatialGrid::build(
                ctx.cfg.field,
                ctx.cfg.radio_range,
                &positions,
                vmax,
                0.5 * ctx.cfg.radio_range,
                SimTime::ZERO,
            ));
        }
        Self::schedule_faults(&mut ctx, seed);
        Simulator { ctx, protocol }
    }

    /// Turn the fault plan into concrete Crash/Recover events. Random
    /// crashes draw node choices and times from a generator derived from
    /// the run seed but *distinct* from the event RNG, so enabling them
    /// does not perturb MAC backoff draws of the fault-free prefix.
    fn schedule_faults(ctx: &mut Ctx<P::Msg>, seed: u64) {
        let plan = ctx.cfg.faults.clone();
        let n = ctx.mobility.len();
        let schedule_one = |ctx: &mut Ctx<P::Msg>,
                            node: NodeId,
                            at: SimDuration,
                            recover_after: Option<SimDuration>| {
            let at = SimTime::ZERO + at;
            ctx.schedule(at, EventKind::Crash(node));
            if let Some(r) = recover_after {
                ctx.schedule(at + r, EventKind::Recover(node));
            }
        };
        for c in &plan.crashes {
            assert!(
                (c.node as usize) < n,
                "fault plan crashes node {} but the network has {n} nodes",
                c.node
            );
            schedule_one(ctx, NodeId(c.node), c.at, c.recover_after);
        }
        if let Some(rc) = plan.random_crashes {
            let mut frng = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00_5EED_FA17);
            let m = ((n as f64) * rc.fraction).round() as usize;
            let m = m.min(n);
            // Partial Fisher–Yates: the first `m` entries are a uniform
            // sample of distinct nodes.
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for i in 0..m {
                let j = frng.gen_range(i..n);
                ids.swap(i, j);
            }
            let (lo, hi) = (rc.from.as_nanos(), rc.until.as_nanos());
            for &node in &ids[..m] {
                let at = SimDuration::from_nanos(frng.gen_range(lo..=hi.max(lo)));
                schedule_one(ctx, NodeId(node), at, rc.recover_after);
            }
        }
        if let Some(ch) = plan.churn {
            // Churn gets its own generator (distinct from both the event
            // RNG and the random-crash generator), fully consumed here:
            // enabling churn never perturbs any other random draw, and the
            // whole schedule is pre-expanded so snapshots carry it inside
            // the ordinary event queue.
            let mut crng = SmallRng::seed_from_u64(seed ^ 0xCAFE_F00D_5EED_0C42);
            let m = (((n as f64) * ch.fraction).round() as usize).min(n);
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for i in 0..m {
                let j = crng.gen_range(i..n);
                ids.swap(i, j);
            }
            let exp_s = |rng: &mut SmallRng, mean: f64| -> f64 {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -mean * u.ln()
            };
            let until_s = ch.until.as_secs_f64();
            for &node in &ids[..m] {
                let mut t = ch.from.as_secs_f64() + exp_s(&mut crng, ch.mean_up_s);
                while t <= until_s {
                    ctx.schedule(SimTime::from_secs_f64(t), EventKind::Leave(NodeId(node)));
                    // Departures are clipped to the churn window; the
                    // matching rejoin is not, so every node that leaves
                    // comes back and the network heals after the window.
                    let back = t + exp_s(&mut crng, ch.mean_down_s);
                    ctx.schedule(
                        SimTime::from_secs_f64(back),
                        EventKind::Rejoin(NodeId(node)),
                    );
                    t = back + exp_s(&mut crng, ch.mean_up_s);
                }
            }
        }
    }

    /// Immutable view of the run state.
    pub fn ctx(&self) -> &Ctx<P::Msg> {
        &self.ctx
    }

    /// Mutable view (for pre-run setup such as warming neighbour tables).
    pub fn ctx_mut(&mut self) -> &mut Ctx<P::Msg> {
        &mut self.ctx
    }

    /// The protocol instance (carrying its collected results).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Split borrow: mutable protocol alongside the (immutable) context.
    /// Lets post-run accounting (`KnnProtocol::finish`) and trace replay
    /// run without consuming the simulator.
    pub fn split_mut(&mut self) -> (&mut P, &Ctx<P::Msg>) {
        (&mut self.protocol, &self.ctx)
    }

    /// Drive the protocol from outside the event loop: mutable protocol
    /// alongside the mutable context, for between-epoch interventions such
    /// as streaming new requests into a resident run. The closure runs at
    /// the simulator's current time; anything it schedules (timers, sends)
    /// executes on the next `run_until`.
    pub fn drive<R>(&mut self, f: impl FnOnce(&mut P, &mut Ctx<P::Msg>) -> R) -> R {
        f(&mut self.protocol, &mut self.ctx)
    }

    /// Consume the simulator, returning the protocol and final context.
    pub fn into_parts(self) -> (P, Ctx<P::Msg>) {
        (self.protocol, self.ctx)
    }

    /// Seed every neighbour table from ground truth as if one clean beacon
    /// round had already happened. Protocols can then route immediately at
    /// t=0 instead of being blind for the first beacon interval.
    pub fn warm_neighbor_tables(&mut self) {
        let n = self.ctx.node_count();
        let mut cand: Vec<u32> = Vec::new();
        for i in 0..n {
            let entries = {
                let me = self.ctx.position(NodeId(i as u32));
                let range2 = self.ctx.cfg.radio_range * self.ctx.cfg.radio_range;
                let neighbor_of = |j: usize| -> Option<Neighbor> {
                    if j == i {
                        return None;
                    }
                    let p = self.ctx.position(NodeId(j as u32));
                    (me.dist_sq(p) <= range2).then(|| Neighbor {
                        id: NodeId(j as u32),
                        position: p,
                        speed: self.ctx.speed(NodeId(j as u32)),
                        heard_at: SimTime::ZERO,
                    })
                };
                if let Some(grid) = &self.ctx.grid {
                    cand.clear();
                    grid.candidates_near(me, self.ctx.cfg.radio_range, self.ctx.now, &mut cand);
                    cand.sort_unstable();
                    cand.iter()
                        .filter_map(|&j| neighbor_of(j as usize))
                        .collect::<Vec<_>>()
                } else {
                    (0..n).filter_map(neighbor_of).collect::<Vec<_>>()
                }
            };
            let table = &mut self.ctx.tables[i];
            for e in entries {
                table.record(e);
            }
        }
    }

    // lint: hot-path (event loop, dispatch, and frame delivery: every
    // simulated event flows through here)
    /// One-time startup: seed periodic beacons with random phases and
    /// deliver the protocol's `on_start`. Idempotent — the first of
    /// [`Simulator::run`]/[`Simulator::run_until`] triggers it, and a
    /// restored simulator (whose snapshot recorded a completed start)
    /// never re-runs it.
    pub fn start(&mut self) {
        if self.ctx.started {
            return;
        }
        self.ctx.started = true;
        if self.ctx.cfg.beacon_interval > SimDuration::ZERO && !self.ctx.cfg.oracle_neighbors {
            for i in 0..self.ctx.node_count() {
                let phase = SimDuration::from_nanos(
                    self.ctx
                        .rng
                        .gen_range(0..=self.ctx.cfg.beacon_interval.as_nanos()),
                );
                self.ctx
                    .schedule(SimTime::ZERO + phase, EventKind::Beacon(NodeId(i as u32)));
            }
        }
        self.protocol.on_start(&mut self.ctx);
    }

    /// Run until the event queue drains, simulated time would pass
    /// `until`, or the protocol calls [`Ctx::stop`]. Returns the stop
    /// time.
    ///
    /// Events with time beyond `until` stay queued, so the run is
    /// *resumable*: calling `run_until` repeatedly with increasing bounds
    /// produces exactly the run a single larger bound would have — the
    /// property the resident service mode and snapshot/restore build on.
    /// Note the bound is the caller's, not `SimConfig::time_limit`
    /// (which only [`Simulator::run`] applies).
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        self.start();
        loop {
            if self.ctx.stopped {
                break;
            }
            let Some((head_time, _)) = self.ctx.queue.peek_key() else {
                break;
            };
            if head_time > until {
                break;
            }
            let Some((time, _seq, kind)) = self.ctx.queue.pop() else {
                break;
            };
            self.ctx.now = time;
            self.ctx.refresh_grid_if_stale();
            self.ctx.stats.events += 1;
            let cb = self.dispatch(kind);
            self.handle_callback(cb);
        }
        self.ctx.now
    }

    /// Deliver one dispatch outcome to the protocol.
    fn handle_callback(&mut self, cb: Callback<P::Msg>) {
        match cb {
            Callback::None => {}
            Callback::Timer { node, key } => {
                self.protocol.on_timer(node, key, &mut self.ctx);
            }
            Callback::Deliveries { from, msg, to } => {
                for &node in &to {
                    self.protocol.on_message(node, from, &msg, &mut self.ctx);
                    if self.ctx.stopped {
                        break;
                    }
                }
                // Delivery list consumed: recycle the allocation.
                let mut buf = to;
                buf.clear();
                self.ctx.scratch.succ.push(buf);
            }
            Callback::SendFailed { from, to, msg } => {
                self.protocol.on_send_failed(from, to, &msg, &mut self.ctx);
            }
        }
    }

    /// Run until the event queue drains, the configured time limit is
    /// reached, or the protocol calls [`Ctx::stop`]. Returns the stop time.
    pub fn run(&mut self) -> SimTime {
        let limit = SimTime::ZERO + self.ctx.cfg.time_limit;
        self.run_until(limit)
    }

    /// Handle one event inside `Ctx`, returning any required protocol
    /// callback.
    fn dispatch(&mut self, kind: EventKind) -> Callback<P::Msg> {
        let ctx = &mut self.ctx;
        // Per-event-kind breakdown for the profiling harness. The counts
        // are variant-invariant (the event sequence is bit-identical across
        // index variants), so they are safe inside the fingerprinted stats.
        match kind {
            EventKind::MacAttempt(_) => ctx.stats.ev_mac_attempt += 1,
            EventKind::TxEnd(_) => ctx.stats.ev_tx_end += 1,
            EventKind::Timer { .. } => ctx.stats.ev_timer += 1,
            EventKind::Beacon(_) => ctx.stats.ev_beacon += 1,
            EventKind::Crash(_)
            | EventKind::Recover(_)
            | EventKind::Leave(_)
            | EventKind::Rejoin(_) => ctx.stats.ev_lifecycle += 1,
        }
        match kind {
            EventKind::Crash(node) => {
                if ctx.nodes.alive[node.index()] {
                    ctx.nodes.alive[node.index()] = false;
                    ctx.nodes.phase[node.index()] = NodePhase::Down;
                    ctx.stats.nodes_crashed += 1;
                    ctx.trace_event(node, TraceKind::Crash);
                }
                Callback::None
            }
            EventKind::Recover(node) => {
                // Only fail-stop crashes reboot; energy deaths are final
                // (there is no battery left to boot with).
                let exhausted = ctx
                    .cfg
                    .faults
                    .energy_budget_j
                    .is_some_and(|b| ctx.energy[node.index()].total_j() >= b);
                if !ctx.nodes.alive[node.index()] && !exhausted {
                    ctx.nodes.alive[node.index()] = true;
                    ctx.nodes.phase[node.index()] = NodePhase::Up;
                    ctx.stats.nodes_recovered += 1;
                    ctx.trace_event(node, TraceKind::Recover);
                }
                Callback::None
            }
            EventKind::Leave(node) => {
                if ctx.nodes.alive[node.index()] {
                    ctx.nodes.alive[node.index()] = false;
                    ctx.nodes.phase[node.index()] = NodePhase::Down;
                    ctx.stats.nodes_left += 1;
                    ctx.trace_event(node, TraceKind::Leave);
                }
                Callback::None
            }
            EventKind::Rejoin(node) => {
                // Energy deaths are final here too: a churned-out node
                // whose battery crossed the budget stays down for good.
                let exhausted = ctx
                    .cfg
                    .faults
                    .energy_budget_j
                    .is_some_and(|b| ctx.energy[node.index()].total_j() >= b);
                let dead = ctx.nodes.phase[node.index()] == NodePhase::Dead;
                if !ctx.nodes.alive[node.index()] && !exhausted && !dead {
                    if ctx.cfg.faults.churn.is_some_and(|c| c.state_loss) {
                        // Amnesiac rejoin: the node's own neighbour table
                        // is gone; it re-learns from beacons like a
                        // factory-fresh node. Other nodes' tables age its
                        // old entry out on their own.
                        ctx.tables[node.index()].clear();
                    }
                    ctx.nodes.alive[node.index()] = true;
                    ctx.nodes.phase[node.index()] = NodePhase::Up;
                    ctx.stats.nodes_rejoined += 1;
                    ctx.trace_event(node, TraceKind::Rejoin);
                }
                Callback::None
            }
            EventKind::Beacon(node) => {
                // A dead node stays silent but keeps its beacon slot so it
                // resumes advertising right after a recovery.
                if ctx.nodes.alive[node.index()] {
                    ctx.enqueue_frame(
                        node,
                        Destination::Broadcast,
                        Frame::Beacon,
                        ctx.cfg.beacon_bytes,
                        None,
                    );
                    ctx.stats.beacons_sent += 1;
                }
                let next = ctx.now + ctx.cfg.beacon_interval;
                ctx.schedule(next, EventKind::Beacon(node));
                Callback::None
            }
            EventKind::Timer { node, id, key } => {
                if ctx.cancelled_timers.remove(&id.0) {
                    Callback::None
                } else if !ctx.nodes.alive[node.index()] {
                    // A dead node's CPU is off: its timers never fire. (If
                    // it recovers the timers stay lost — protocols must
                    // tolerate that, which is what the token watchdog and
                    // sink retry in diknn-core exist for.)
                    ctx.stats.timers_suppressed += 1;
                    ctx.trace_verbose(node, TraceKind::TimerSuppressed { key });
                    Callback::None
                } else {
                    ctx.trace_verbose(node, TraceKind::TimerFired { key });
                    Callback::Timer { node, key }
                }
            }
            EventKind::MacAttempt(h) => {
                let Some((from, on_air)) = ctx.frames.get(h).map(|p| (p.from, p.on_air)) else {
                    return Callback::None; // frame already resolved; handle is stale
                };
                if !ctx.nodes.alive[from.index()] {
                    // Sender died while the frame sat in the MAC queue: the
                    // frame vanishes. No SendFailed — a dead protocol
                    // instance cannot react, that is the point.
                    ctx.frames.remove(h);
                    ctx.stats.frames_dropped_dead += 1;
                    ctx.trace_verbose(
                        from,
                        TraceKind::Drop {
                            from: None,
                            reason: DropReason::DeadSender,
                        },
                    );
                    return Callback::None;
                }
                if on_air {
                    return Callback::None; // already on the air
                }
                if ctx.channel_busy(from) {
                    let p = ctx.frames.get_mut(h).expect("pending tx");
                    p.backoffs += 1;
                    if p.backoffs > ctx.cfg.max_backoffs {
                        ctx.stats.mac_drops += 1;
                        let p = ctx.frames.remove(h).expect("pending tx");
                        ctx.trace_verbose(
                            p.from,
                            TraceKind::Drop {
                                from: None,
                                reason: DropReason::MacBusy,
                            },
                        );
                        if let (Destination::Unicast(to), Frame::Proto(msg)) = (p.dest, p.frame) {
                            return Callback::SendFailed {
                                from: p.from,
                                to,
                                msg,
                            };
                        }
                        return Callback::None;
                    }
                    let backoffs = p.backoffs;
                    let delay = ctx.random_backoff(backoffs);
                    ctx.schedule(ctx.now + delay, EventKind::MacAttempt(h));
                    Callback::None
                } else {
                    ctx.start_transmission(h);
                    Callback::None
                }
            }
            EventKind::TxEnd(h) => self.finish_transmission(h),
        }
    }

    fn finish_transmission(&mut self, h: Handle) -> Callback<P::Msg> {
        let ctx = &mut self.ctx;
        let pos = ctx
            .active
            .iter()
            .position(|a| a.id == h)
            .expect("active tx");
        let ActiveTx {
            mut receivers,
            airtime,
            ..
        } = ctx.active.swap_remove(pos);
        let PendingTx {
            from,
            dest,
            frame,
            payload_bytes,
            retries,
            flow,
            ..
        } = ctx.frames.remove(h).expect("pending tx");
        // The air went quiet either way: release the carrier-sense
        // counters bumped at transmission start (dead-sender path too).
        // A copy overlapped after it started is lost through the
        // receiver's collision mark, which ends with the coverage.
        ctx.nodes.tx_count[from.index()] -= 1;
        for (r, corrupted) in receivers.iter_mut() {
            let i = r.index();
            *corrupted |= ctx.rx_clobbered[i];
            ctx.nodes.rx_cover[i] -= 1;
            if ctx.nodes.rx_cover[i] == 0 {
                ctx.rx_clobbered[i] = false;
            }
        }
        if !ctx.nodes.alive[from.index()] {
            // Sender crashed mid-air: the frame is truncated garbage. No
            // energy is charged (the crash froze the radio) and nothing is
            // delivered or retried.
            ctx.stats.frames_dropped_dead += 1;
            ctx.trace_verbose(
                from,
                TraceKind::Drop {
                    from: None,
                    reason: DropReason::DeadSender,
                },
            );
            let mut buf = receivers;
            buf.clear();
            ctx.scratch.recv.push(buf);
            return Callback::None;
        }
        let class = match frame {
            Frame::Beacon => TrafficClass::Beacon,
            Frame::Proto(_) => TrafficClass::Protocol,
        };

        // Energy: the sender pays tx airtime; audible nodes pay rx airtime.
        // Receivers that are not the addressee of a unicast frame abort
        // after decoding the MAC header (standard 802.15.4 address
        // filtering), so they pay header airtime only. Broadcasts and
        // corrupted copies are received in full — the radio cannot know.
        let (tx_p, rx_p) = (ctx.cfg.tx_power_w, ctx.cfg.rx_power_w);
        let mut flow_j = ctx.energy[from.index()].charge_tx(tx_p, airtime, class);
        ctx.trace_energy(from);
        let header_airtime =
            SimDuration::airtime(ctx.cfg.header_bytes, ctx.cfg.bits_per_sec).min(airtime);
        for &(r, corrupted) in &receivers {
            if !ctx.nodes.alive[r.index()] {
                continue; // died mid-reception: radio already off
            }
            let rx_time = match dest {
                Destination::Unicast(to) if r != to && !corrupted => header_airtime,
                _ => airtime,
            };
            flow_j += ctx.energy[r.index()].charge_rx(rx_p, rx_time, class);
            ctx.trace_energy(r);
        }
        if let Some(flow) = flow {
            ctx.flow_energy.charge(flow, flow_j);
        }
        ctx.stats.tx_frames += 1;
        ctx.stats.tx_bytes += (ctx.cfg.header_bytes + payload_bytes) as u64;
        if class == TrafficClass::Protocol {
            ctx.stats.tx_protocol_frames += 1;
        }

        // Energy-budget deaths: a node whose battery crossed the budget on
        // this frame (sender or any receiver) dies permanently, before any
        // delivery is processed.
        if let Some(budget) = ctx.cfg.faults.energy_budget_j {
            if ctx.nodes.alive[from.index()] && ctx.energy[from.index()].total_j() >= budget {
                ctx.nodes.alive[from.index()] = false;
                ctx.nodes.phase[from.index()] = NodePhase::Dead;
                ctx.stats.energy_deaths += 1;
                ctx.trace_event(from, TraceKind::EnergyDeath);
            }
            for &(r, _) in &receivers {
                if ctx.nodes.alive[r.index()] && ctx.energy[r.index()].total_j() >= budget {
                    ctx.nodes.alive[r.index()] = false;
                    ctx.nodes.phase[r.index()] = NodePhase::Dead;
                    ctx.stats.energy_deaths += 1;
                    ctx.trace_event(r, TraceKind::EnergyDeath);
                }
            }
        }

        // Work out who actually got a clean copy. Per-receiver drop order:
        // dead radio → collision corruption → jamming zone → link-loss
        // model (uniform or Gilbert–Elliott). Receivers are visited in
        // `receivers` order (ascending id), so every RNG draw is
        // deterministic.
        let t_now = ctx.now.since(SimTime::ZERO);
        let mut successes = ctx.scratch.succ.pop().unwrap_or_default();
        debug_assert!(successes.is_empty());
        for &(r, corrupted) in &receivers {
            if !ctx.nodes.alive[r.index()] {
                continue;
            }
            if corrupted {
                // Already counted in stats.collisions.
                ctx.trace_verbose(r, TraceKind::Collision { from });
                continue;
            }
            if !ctx.cfg.faults.jam_zones.is_empty() {
                // Max loss over the time-active zones containing the
                // receiver, computed inline per receiver (allocation-free).
                // The old grid-prefiltered map produced exactly this value
                // for exactly these receivers — the grid candidate set was
                // a superset sharing the same containment predicate — so
                // the RNG draw sequence is unchanged.
                let pos = ctx.position(r);
                let jam = ctx
                    .cfg
                    .faults
                    .jam_zones
                    .iter()
                    .filter(|z| z.from <= t_now && t_now <= z.until && z.region.contains(pos))
                    .map(|z| z.loss)
                    .fold(0.0_f64, f64::max);
                if jam > 0.0 && ctx.rng.gen::<f64>() < jam {
                    ctx.stats.frames_jammed += 1;
                    ctx.trace_verbose(
                        r,
                        TraceKind::Drop {
                            from: Some(from),
                            reason: DropReason::Jammed,
                        },
                    );
                    continue;
                }
            }
            match ctx.cfg.faults.link_loss {
                LinkLossModel::Uniform => {
                    if ctx.cfg.loss_rate > 0.0 && ctx.rng.gen::<f64>() < ctx.cfg.loss_rate {
                        ctx.stats.random_losses += 1;
                        ctx.trace_verbose(
                            r,
                            TraceKind::Drop {
                                from: Some(from),
                                reason: DropReason::RandomLoss,
                            },
                        );
                        continue;
                    }
                }
                LinkLossModel::GilbertElliott(ge) => {
                    // Step this receiver's two-state chain, then draw the
                    // loss for the resulting state.
                    let bad = &mut ctx.nodes.ge_bad[r.index()];
                    let flip = ctx.rng.gen::<f64>();
                    *bad = if *bad {
                        flip >= ge.p_bg
                    } else {
                        flip < ge.p_gb
                    };
                    let p = if *bad { ge.bad_loss } else { ge.good_loss };
                    if p > 0.0 && ctx.rng.gen::<f64>() < p {
                        ctx.stats.burst_losses += 1;
                        ctx.trace_verbose(
                            r,
                            TraceKind::Drop {
                                from: Some(from),
                                reason: DropReason::BurstLoss,
                            },
                        );
                        continue;
                    }
                }
            }
            successes.push(r);
        }
        successes.sort_unstable();
        // Receiver list fully consumed: recycle the allocation.
        let mut recv_buf = receivers;
        recv_buf.clear();
        ctx.scratch.recv.push(recv_buf);

        match frame {
            Frame::Beacon => {
                // Beacons refresh the receivers' neighbour tables with the
                // sender's position at *transmission end* (≈ start; airtime
                // is sub-millisecond).
                let entry_pos = ctx.position(from);
                let entry_speed = ctx.speed(from);
                for &r in &successes {
                    ctx.stats.rx_deliveries += 1;
                    ctx.trace_verbose(r, TraceKind::RxDeliver { from });
                    ctx.tables[r.index()].record(Neighbor {
                        id: from,
                        position: entry_pos,
                        speed: entry_speed,
                        heard_at: ctx.now,
                    });
                }
                successes.clear();
                ctx.scratch.succ.push(successes);
                Callback::None
            }
            Frame::Proto(msg) => match dest {
                Destination::Broadcast => {
                    ctx.stats.rx_deliveries += successes.len() as u64;
                    for &r in &successes {
                        ctx.trace_verbose(r, TraceKind::RxDeliver { from });
                    }
                    if successes.is_empty() {
                        ctx.scratch.succ.push(successes);
                        Callback::None
                    } else {
                        Callback::Deliveries {
                            from,
                            msg,
                            to: successes,
                        }
                    }
                }
                Destination::Unicast(to) => {
                    if successes.contains(&to) {
                        ctx.stats.rx_deliveries += 1;
                        ctx.trace_verbose(to, TraceKind::RxDeliver { from });
                        // Reuse the successes buffer instead of a fresh
                        // one-element allocation on every clean unicast.
                        successes.clear();
                        successes.push(to);
                        Callback::Deliveries {
                            from,
                            msg,
                            to: successes,
                        }
                    } else if retries < ctx.cfg.unicast_retries {
                        // ARQ: put the frame back (a fresh pool slot) and
                        // try again shortly.
                        ctx.stats.arq_retries += 1;
                        let retries = retries + 1;
                        let new_h = ctx.frames.insert(PendingTx {
                            from,
                            dest,
                            frame: Frame::Proto(msg),
                            payload_bytes,
                            backoffs: 0,
                            retries,
                            flow,
                            on_air: false,
                        });
                        let delay = ctx.random_backoff(retries);
                        ctx.schedule(ctx.now + delay, EventKind::MacAttempt(new_h));
                        successes.clear();
                        ctx.scratch.succ.push(successes);
                        Callback::None
                    } else {
                        ctx.stats.unicast_failures += 1;
                        ctx.trace_verbose(
                            from,
                            TraceKind::Drop {
                                from: None,
                                reason: DropReason::UnicastFailed,
                            },
                        );
                        successes.clear();
                        ctx.scratch.succ.push(successes);
                        Callback::SendFailed { from, to, msg }
                    }
                }
            },
        }
    }
    // lint: end-hot-path
}

// ----- snapshot / restore -----------------------------------------------

impl<M: Clone> Ctx<M> {
    /// FNV-1a fingerprint of the run configuration, via its `Debug`
    /// rendering (every `SimConfig` field derives `Debug`, so any config
    /// difference shows up here). The config itself is *not* serialized:
    /// restore re-supplies it and this check catches a mismatch.
    fn config_fingerprint(&self) -> u64 {
        diknn_snap::fingerprint(format!("{:?}", self.cfg).as_bytes())
    }

    /// Fingerprint of the (unserializable) mobility plans: exact position
    /// bits of every node sampled at t = 0, now, and now + 1 s, plus each
    /// plan's max speed. Restore re-supplies the plans and rejects ones
    /// that disagree at these probes.
    fn mobility_fingerprint(&self) -> u64 {
        let now_s = self.now.as_secs_f64();
        let mut bytes = Vec::with_capacity(self.mobility.len() * 56);
        for m in self.mobility.iter() {
            for t in [0.0, now_s, now_s + 1.0] {
                let p = m.position_at(t);
                bytes.extend_from_slice(&p.x.to_bits().to_le_bytes());
                bytes.extend_from_slice(&p.y.to_bits().to_le_bytes());
            }
            bytes.extend_from_slice(&m.max_speed().to_bits().to_le_bytes());
        }
        diknn_snap::fingerprint(&bytes)
    }

    /// Rebuild the spatial grid from scratch at the current time. Grid
    /// contents are *not* serialized: grid answers are exact-checked
    /// candidate supersets, so a freshly built grid yields bit-identical
    /// behaviour regardless of the original's refresh history.
    fn rebuild_grid(&mut self) {
        if self.cfg.neighbor_index == NeighborIndex::Grid {
            let vmax = self
                .mobility
                .iter()
                .map(|m| m.max_speed())
                .fold(0.0_f64, f64::max);
            let t = self.now.as_secs_f64();
            let positions: Vec<Point> = self.mobility.iter().map(|m| m.position_at(t)).collect();
            self.grid = Some(SpatialGrid::build(
                self.cfg.field,
                self.cfg.radio_range,
                &positions,
                vmax,
                0.5 * self.cfg.radio_range,
                self.now,
            ));
        } else {
            self.grid = None;
        }
    }

    /// Encode every piece of mutable engine state except `now` (written by
    /// [`Simulator::snapshot`] ahead of the mobility fingerprint), `cfg`
    /// and `mobility` (fingerprint-checked), and the grid (rebuilt).
    fn snap_engine_state(&self, w: &mut SnapWriter)
    where
        M: Snap,
    {
        self.tables.snap(w);
        self.energy.snap(w);
        self.rng.state().snap(w);
        self.stats.snap(w);
        // The heap's internal layout is not canonical; serialize events in
        // (time, seq) order so equal states produce equal bytes.
        let mut events: Vec<(SimTime, u64, &EventKind)> = self.queue.iter().collect();
        events.sort_unstable_by_key(|&(t, s, _)| (t, s));
        w.put_u64(events.len() as u64);
        for (t, s, k) in events {
            t.snap(w);
            s.snap(w);
            k.snap(w);
        }
        self.seq.snap(w);
        self.next_timer.snap(w);
        self.frames.snap(w);
        // The `Vec<ActiveTx>` layout, with each copy's collision mark
        // folded into its flag: the flag it will finish with, whatever
        // starts later. Written in place: a resolved clone's many small
        // allocations fragment the heap between the large snapshot buffers.
        w.put_u64(self.active.len() as u64);
        for tx in &self.active {
            tx.id.snap(w);
            tx.from.snap(w);
            w.put_u64(tx.receivers.len() as u64);
            for &(r, lost) in &tx.receivers {
                (r, lost || self.rx_clobbered[r.index()]).snap(w);
            }
            tx.airtime.snap(w);
        }
        self.cancelled_timers.snap(w);
        self.stopped.snap(w);
        self.started.snap(w);
        self.nodes.snap(w);
        self.trace.snap(w);
        self.flow_energy.snap(w);
    }

    /// Overwrite the mutable engine state from a snapshot stream (the
    /// exact inverse of [`Ctx::snap_engine_state`]).
    fn restore_engine_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>
    where
        M: Snap,
    {
        self.tables = Vec::unsnap(r)?;
        self.energy = Vec::unsnap(r)?;
        self.rng = SmallRng::from_state(<[u64; 4]>::unsnap(r)?);
        self.stats = SimStats::unsnap(r)?;
        let n = r.take_len()?;
        let mut queue = EventQueue::with_capacity(n);
        for _ in 0..n {
            let time = SimTime::unsnap(r)?;
            let seq = u64::unsnap(r)?;
            let kind = EventKind::unsnap(r)?;
            queue.push(time, seq, kind);
        }
        self.queue = queue;
        self.seq = u64::unsnap(r)?;
        self.next_timer = u64::unsnap(r)?;
        self.frames = FramePool::unsnap(r)?;
        self.active = Vec::unsnap(r)?;
        self.cancelled_timers = BTreeSet::unsnap(r)?;
        self.stopped = bool::unsnap(r)?;
        self.started = bool::unsnap(r)?;
        self.nodes = NodeSoA::unsnap(r)?;
        self.trace = EventTrace::unsnap(r)?;
        self.flow_energy = FlowLedger::unsnap(r)?;
        let n = self.mobility.len();
        if self.tables.len() != n
            || self.energy.len() != n
            || self.nodes.alive.len() != n
            || self.nodes.phase.len() != n
            || self.nodes.ge_bad.len() != n
            || self.nodes.tx_count.len() != n
            || self.nodes.rx_cover.len() != n
        {
            return Err(SnapError::Corrupt(
                "snapshot node count disagrees with the supplied mobility plans",
            ));
        }
        // Derived state: collision marks start clear (every restored flag
        // already carries its mark, and a later overlap at a node still
        // covered sets the mark again), the audible cache is rebuilt lazily
        // (epoch sentinel never matches a fresh grid) and perf counters
        // restart.
        self.rx_clobbered = vec![false; n];
        self.aud = AudCache::new(n);
        self.perf = PerfCounters::default();
        Ok(())
    }
}

impl<P: Protocol> Simulator<P>
where
    P: SnapState,
    P::Msg: Snap,
{
    /// Serialize the full mutable run state — engine and protocol — into a
    /// self-contained byte stream.
    ///
    /// Static inputs deliberately stay out of the stream and must be
    /// re-supplied to [`Simulator::restore`]: the `SimConfig`, the mobility
    /// plans (both fingerprint-checked) and the protocol's own static
    /// configuration. What *is* captured: clocks, RNG streams, the event
    /// queue (faults, churn, beacons, in-flight frames, timers), neighbour
    /// tables, energy meters, stats, liveness/lifecycle, the flight
    /// recorder, and the protocol's mutable state. The restore-equivalence
    /// law — `run(2T)` is bit-identical to `run(T)` + snapshot + restore +
    /// `run(2T)` — is enforced by tests in `diknn-workloads`.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        diknn_snap::write_header(&mut w, SNAP_VERSION);
        w.put_u64(self.ctx.config_fingerprint());
        self.ctx.now.snap(&mut w);
        w.put_u64(self.ctx.mobility_fingerprint());
        self.ctx.snap_engine_state(&mut w);
        self.protocol.snap_state(&mut w);
        w.into_bytes()
    }

    /// Rebuild a simulator from a [`Simulator::snapshot`] stream.
    ///
    /// `cfg` and `mobility` must be the ones the snapshotted run was built
    /// with (fingerprint-enforced); `protocol` must be a freshly
    /// constructed instance with the same static configuration — its
    /// mutable state is overwritten from the stream. Panics (like
    /// [`Simulator::new`]) if `cfg` is invalid or `mobility` is empty;
    /// all stream problems are reported as errors.
    pub fn restore(
        bytes: &[u8],
        cfg: SimConfig,
        mobility: Vec<SharedMobility>,
        protocol: P,
    ) -> Result<Self, SnapError> {
        let mut sim = Simulator::new(cfg, mobility, protocol, 0);
        let mut r = SnapReader::new(bytes);
        diknn_snap::read_header(&mut r, SNAP_VERSION)?;
        if r.take_u64()? != sim.ctx.config_fingerprint() {
            return Err(SnapError::FingerprintMismatch("SimConfig"));
        }
        sim.ctx.now = SimTime::unsnap(&mut r)?;
        if r.take_u64()? != sim.ctx.mobility_fingerprint() {
            return Err(SnapError::FingerprintMismatch("mobility plans"));
        }
        sim.ctx.restore_engine_state(&mut r)?;
        sim.protocol.restore_state(&mut r)?;
        r.finish()?;
        sim.ctx.rebuild_grid();
        Ok(sim)
    }
}

// Compile-time audit that a whole simulator run can be moved to a worker
// thread: every field of `Ctx` (mobility `Arc<dyn Mobility>` — the trait
// requires `Send + Sync` — RNG, queue, trace ring) is `Send`, so
// `Simulator<P>: Send` whenever the protocol and its messages are. The
// `ParallelSweep` executor in `diknn-workloads` relies on this.
#[allow(dead_code)]
fn assert_simulator_is_send<P>()
where
    P: Protocol + Send,
    P::Msg: Send,
{
    fn is_send<T: Send>() {}
    is_send::<Simulator<P>>();
    is_send::<Ctx<P::Msg>>();
}
