//! Outside-in instrumentation for the traced run.
//!
//! Nothing here reaches inside the library crates. Spans are taken around
//! calls into their public functions; [`TimedProtocol`] and
//! [`CountingMobility`] are delegating wrappers installed through the
//! public `Protocol` and `Mobility` traits. Untraced runs use neither.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use diknn_core::{KnnProtocol, QueryOutcome};
use diknn_geom::Point;
use diknn_mobility::Mobility;
use diknn_sim::{Ctx, NodeId, Protocol, SharedMobility};

/// One timed interval: a call into a library function.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the log's origin.
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span log; written out once, when the benchmark ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let t = self.now_s();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: t,
            end_s: t,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_s = self.now_s();
    }

    /// Time `f` as a span under the innermost open span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Whether any span is called `name`.
    pub fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Summed duration of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.duration_s())
    }

    /// Duration of span `id` minus the durations of its direct children.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_s)
            .sum();
        self.spans[id].duration_s() - children
    }
}

/// Host time of the engine itself inside the `Simulator::run` span: the
/// span minus the protocol callbacks (which include the engine calls they
/// make) and minus the mobility evaluations made outside callbacks.
pub fn engine_self_s(run_s: f64, callback_s: f64, mobility_outside_callbacks_s: f64) -> f64 {
    run_s - callback_s - mobility_outside_callbacks_s
}

/// Every `SAMPLE_EVERY`-th `position_at` call is timed.
const SAMPLE_EVERY: u64 = 64;

/// Counters shared by the wrappers of one traced run. Single-threaded use;
/// the atomics exist because `Mobility` must be `Sync`, and publish no other
/// data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Probe {
    callbacks: AtomicU64,
    callback_ns: AtomicU64,
    in_callback: AtomicBool,
    position_calls: AtomicU64,
    position_calls_in_callbacks: AtomicU64,
    position_sampled: AtomicU64,
    position_sampled_ns: AtomicU64,
    /// Cost of one `Instant` pair, subtracted from each timed sample.
    clock_ns: u64,
}

/// Totals read from a [`Probe`] after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeTotals {
    pub callbacks: u64,
    pub callback_s: f64,
    pub position_calls: u64,
    pub position_calls_in_callbacks: u64,
    /// Estimated total `position_at` time: mean sampled call × calls.
    pub position_s: f64,
}

impl ProbeTotals {
    /// Estimated `position_at` time spent outside protocol callbacks.
    pub fn position_outside_callbacks_s(&self) -> f64 {
        if self.position_calls == 0 {
            return 0.0;
        }
        let outside = self.position_calls - self.position_calls_in_callbacks;
        self.position_s * outside as f64 / self.position_calls as f64
    }
}

impl Probe {
    pub fn new() -> Arc<Self> {
        Arc::new(Probe {
            clock_ns: clock_cost_ns(),
            ..Probe::default()
        })
    }

    pub fn totals(&self) -> ProbeTotals {
        let calls = self.position_calls.load(Relaxed);
        let sampled = self.position_sampled.load(Relaxed);
        let per_call_s = if sampled == 0 {
            0.0
        } else {
            self.position_sampled_ns.load(Relaxed) as f64 * 1e-9 / sampled as f64
        };
        ProbeTotals {
            callbacks: self.callbacks.load(Relaxed),
            callback_s: self.callback_ns.load(Relaxed) as f64 * 1e-9,
            position_calls: calls,
            position_calls_in_callbacks: self.position_calls_in_callbacks.load(Relaxed),
            position_s: per_call_s * calls as f64,
        }
    }

    fn elapsed_ns(&self, t0: Instant) -> u64 {
        (t0.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns)
    }
}

/// Median cost of an empty `Instant::now()` / `elapsed()` pair.
fn clock_cost_ns() -> u64 {
    let mut v: Vec<u64> = (0..255)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(t0).elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// A delegating mobility plan that counts every `position_at` call and
/// times one in [`SAMPLE_EVERY`].
pub struct CountingMobility {
    inner: SharedMobility,
    probe: Arc<Probe>,
}

impl Mobility for CountingMobility {
    fn position_at(&self, t: f64) -> Point {
        let n = self.probe.position_calls.fetch_add(1, Relaxed);
        if self.probe.in_callback.load(Relaxed) {
            self.probe.position_calls_in_callbacks.fetch_add(1, Relaxed);
        }
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.position_at(t);
        }
        let t0 = Instant::now();
        let p = self.inner.position_at(t);
        let ns = self.probe.elapsed_ns(t0);
        self.probe.position_sampled.fetch_add(1, Relaxed);
        self.probe.position_sampled_ns.fetch_add(ns, Relaxed);
        p
    }

    fn speed_at(&self, t: f64) -> f64 {
        self.inner.speed_at(t)
    }

    fn max_speed(&self) -> f64 {
        self.inner.max_speed()
    }
}

/// Wrap every plan so its calls are counted by `probe`.
pub fn counting(plans: &[SharedMobility], probe: &Arc<Probe>) -> Vec<SharedMobility> {
    plans
        .iter()
        .map(|inner| {
            Arc::new(CountingMobility {
                inner: Arc::clone(inner),
                probe: Arc::clone(probe),
            }) as SharedMobility
        })
        .collect()
}

/// A delegating protocol that counts and times every callback. The time is
/// inclusive: it covers the engine calls a callback makes.
pub struct TimedProtocol<P> {
    inner: P,
    probe: Arc<Probe>,
}

impl<P> TimedProtocol<P> {
    pub fn new(inner: P, probe: Arc<Probe>) -> Self {
        TimedProtocol { inner, probe }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        self.probe.in_callback.store(true, Relaxed);
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let ns = self.probe.elapsed_ns(t0);
        self.probe.in_callback.store(false, Relaxed);
        self.probe.callbacks.fetch_add(1, Relaxed);
        self.probe.callback_ns.fetch_add(ns, Relaxed);
        r
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<P::Msg>) {
        self.timed(|p| p.on_start(ctx));
    }

    fn on_message(&mut self, at: NodeId, from: NodeId, msg: &P::Msg, ctx: &mut Ctx<P::Msg>) {
        self.timed(|p| p.on_message(at, from, msg, ctx));
    }

    fn on_timer(&mut self, at: NodeId, key: u64, ctx: &mut Ctx<P::Msg>) {
        self.timed(|p| p.on_timer(at, key, ctx));
    }

    fn on_send_failed(&mut self, at: NodeId, to: NodeId, msg: &P::Msg, ctx: &mut Ctx<P::Msg>) {
        self.timed(|p| p.on_send_failed(at, to, msg, ctx));
    }
}

impl<P: KnnProtocol> KnnProtocol for TimedProtocol<P> {
    fn outcomes(&self) -> &[QueryOutcome] {
        self.inner.outcomes()
    }

    fn outcomes_mut(&mut self) -> &mut [QueryOutcome] {
        self.inner.outcomes_mut()
    }

    fn finish(&mut self, ctx: &Ctx<P::Msg>) {
        self.inner.finish(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start_s, end_s, parent| Span {
            name,
            start_s,
            end_s,
            parent,
        };
        let log = SpanLog {
            origin: Instant::now(),
            spans: vec![
                span("outer", 0.0, 10.0, None),
                span("child", 1.0, 3.0, Some(0)),
                span("grandchild", 1.5, 2.0, Some(1)),
                span("child", 4.0, 6.0, Some(0)),
            ],
            open: Vec::new(),
        };
        // 10 s outer, children 2 s + 2 s; the grandchild is inside a child.
        assert_eq!(log.self_s(0), 6.0);
        assert_eq!(log.self_s(1), 1.5);
        assert_eq!(log.self_s(2), 0.5);
        assert_eq!(log.total_s("child"), 4.0);
    }

    #[test]
    fn live_spans_nest_and_close() {
        let mut log = SpanLog::new();
        let outer = log.enter("outer");
        let v = log.time("inner", || 7);
        log.exit(outer);
        assert_eq!(v, 7);
        let spans = log.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
        assert!(log.self_s(outer) >= 0.0);
    }

    #[test]
    fn engine_self_time_removes_callbacks_and_outside_mobility() {
        let totals = ProbeTotals {
            callbacks: 10,
            callback_s: 2.0,
            position_calls: 1000,
            position_calls_in_callbacks: 250,
            position_s: 0.4,
        };
        // 750 of 1000 calls were outside callbacks: 0.3 s of the 0.4 s.
        assert!((totals.position_outside_callbacks_s() - 0.3).abs() < 1e-12);
        let own = engine_self_s(
            10.0,
            totals.callback_s,
            totals.position_outside_callbacks_s(),
        );
        assert!((own - 7.7).abs() < 1e-12);
        assert_eq!(ProbeTotals::default().position_outside_callbacks_s(), 0.0);
    }

    /// The wrappers must not change the run: same flight-recorder
    /// fingerprint, statistics and energy as an unwrapped run of the seed,
    /// on a mobile network so that `position_at` is on the hot path.
    #[test]
    fn wrappers_are_transparent() {
        use diknn_core::{Diknn, DiknnConfig};
        use diknn_sim::{EventTrace, SimStats, Simulator, TraceConfig};
        use diknn_snap::Snap;
        use diknn_workloads::{QueryLoad, ScenarioConfig};

        let scenario = ScenarioConfig {
            nodes: 150,
            max_speed: 5.0,
            duration: 15.0,
            ..ScenarioConfig::default()
        };
        let load = QueryLoad {
            rate_qps: 2.0,
            k: 5,
            first_at: 1.0,
            last_at: 8.0,
            ..QueryLoad::default()
        };
        let seed = 7;
        let fingerprint = |trace: &EventTrace| {
            let mut w = diknn_snap::SnapWriter::new();
            trace.snap(&mut w);
            diknn_snap::fingerprint(&w.into_bytes())
        };
        let run = |wrapped: bool| -> (u64, SimStats, u64, usize) {
            let plans = scenario.build(seed);
            let mut cfg = scenario.sim_config();
            cfg.trace = TraceConfig::enabled();
            let diknn = Diknn::new(DiknnConfig::default(), load.generate(&scenario, seed));
            if wrapped {
                let probe = Probe::new();
                let plans = counting(&plans, &probe);
                let protocol = TimedProtocol::new(diknn, Arc::clone(&probe));
                let mut sim = Simulator::new(cfg, plans, protocol, seed);
                sim.warm_neighbor_tables();
                sim.run();
                let totals = probe.totals();
                assert!(totals.callbacks > 0 && totals.position_calls > 0);
                let (p, ctx) = sim.into_parts();
                let n = p.outcomes().len();
                (
                    fingerprint(ctx.trace()),
                    *ctx.stats(),
                    ctx.total_energy_j().to_bits(),
                    n,
                )
            } else {
                let mut sim = Simulator::new(cfg, plans, diknn, seed);
                sim.warm_neighbor_tables();
                sim.run();
                let (p, ctx) = sim.into_parts();
                let n = p.outcomes().len();
                (
                    fingerprint(ctx.trace()),
                    *ctx.stats(),
                    ctx.total_energy_j().to_bits(),
                    n,
                )
            }
        };
        let plain = run(false);
        assert!(plain.3 > 0, "no queries issued");
        assert_eq!(run(true), plain);
    }
}
