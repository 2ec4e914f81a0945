//! The three workloads. A run of a workload is a fixed batch of
//! independent simulations, each with its own seed derived from the run's
//! seed; they run one after another on this thread and their queries are
//! pooled. Pooling several networks keeps the per-query metrics from
//! hanging on one random topology.

use std::collections::BTreeMap;
use std::sync::Arc;

use diknn_core::{Diknn, DiknnConfig, KnnProtocol, QueryRequest, QueryStatus, ServingConfig};
use diknn_geom::{Point, Rect};
use diknn_sim::{Ctx, FaultPlan, Protocol, SharedMobility, SimStats, Simulator, TraceConfig};
use diknn_workloads::{
    invariants, status_index, Experiment, GroundTruth, QueryLoad, QueryRecord, RateSchedule,
    RunMetrics, ScenarioConfig, ServiceConfig, ServiceRun,
};

use crate::probe::{counting, engine_self_s, Probe, SpanLog, TimedProtocol};
use crate::reference;
use crate::stats::{self, Tail};

/// Radio range (m) of `SimConfig::default`, used to size constant-degree
/// fields.
const RADIO_RANGE: f64 = 20.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BeaconScale,
    QueryStorm,
    ServiceChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BeaconScale,
        Workload::QueryStorm,
        Workload::ServiceChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BeaconScale => "beacon_scale",
            Workload::QueryStorm => "query_storm",
            Workload::ServiceChurn => "service_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One run: every simulation of the batch, with its output checks.
    pub fn run(self, seed: u64, traced: bool) -> RunOutput {
        self.run_sims(seed, traced, None)
    }

    /// Only the batch's first simulation, untraced: the warm-up before
    /// timing, which must reproduce that simulation of the batch exactly.
    pub fn warm_up(self, seed: u64) -> RunOutput {
        self.run_sims(seed, false, Some(1))
    }

    /// Simulations per batch.
    pub fn sims(self) -> usize {
        match self {
            Workload::BeaconScale => beacon_scale().sims,
            Workload::QueryStorm => query_storm().sims,
            Workload::ServiceChurn => service_churn().sims,
        }
    }

    fn run_sims(self, seed: u64, traced: bool, limit: Option<usize>) -> RunOutput {
        let sims = |n: usize| limit.map_or(n, |l| l.min(n));
        let setup = || self.setup_only(seed);
        match self {
            Workload::BeaconScale => {
                let spec = beacon_scale();
                batch(sims(spec.sims), seed, setup, |s, spans| {
                    run_experiment(&spec, s, traced, spans)
                })
            }
            Workload::QueryStorm => {
                let spec = query_storm();
                batch(sims(spec.sims), seed, setup, |s, spans| {
                    run_experiment(&spec, s, traced, spans)
                })
            }
            Workload::ServiceChurn => {
                let spec = service_churn();
                batch(sims(spec.sims), seed, setup, |s, spans| {
                    run_service(&spec, s, traced, spans)
                })
            }
        }
    }

    /// Host seconds of the set-up of the batch's first simulation alone
    /// (tearing it down is not timed).
    fn setup_only(self, seed: u64) -> f64 {
        fn timed<T>(build: impl FnOnce() -> T) -> f64 {
            let t0 = std::time::Instant::now();
            let built = build();
            let s = t0.elapsed().as_secs_f64();
            drop(built);
            s
        }
        let seed = Experiment::sweep_seed(seed, 0);
        match self {
            Workload::BeaconScale => timed(|| build_experiment(&beacon_scale(), seed)),
            Workload::QueryStorm => timed(|| build_experiment(&query_storm(), seed)),
            Workload::ServiceChurn => timed(|| ServiceRun::new(service_churn().cfg, seed)),
        }
    }
}

/// A batch workload, each simulation run the way `Experiment::run_once`
/// runs DIKNN.
struct ExperimentSpec {
    sims: usize,
    scenario: ScenarioConfig,
    /// Open-loop arrivals, capped at a fixed count so that every seed issues
    /// the same number of queries.
    load: QueryLoad,
    /// When set, each query point is moved into the square of this
    /// half-width around its sink (see [`localize`]).
    local_radius: Option<f64>,
    /// Flight recorder of untraced (timed) runs.
    timed_trace: TraceConfig,
    /// Flight recorder of the traced run; large enough that nothing is
    /// evicted, so the invariant replay sees the whole run.
    traced_trace: TraceConfig,
}

/// The paper's field side (m); it issues one query per 4 s in this field.
const PAPER_FIELD_M: f64 = 115.0;

/// 10 000 nodes at constant degree 20, random waypoint at up to 5 m/s, DIKNN
/// with k = 10, flight recorder off: beacons, neighbour tables, the grid and
/// mobility do nearly all the work. Queries keep the paper's density (one per
/// 4 s per paper-sized field) and are local: each asks about a paper-sized
/// square around its sink, so routing stays short and the query load light.
fn beacon_scale() -> ExperimentSpec {
    let duration = 40.0;
    let scenario = ScenarioConfig {
        nodes: 10_000,
        max_speed: 5.0,
        duration,
        ..ScenarioConfig::default()
    }
    .with_node_degree(20.0, RADIO_RANGE);
    let paper_fields = scenario.field.area() / (PAPER_FIELD_M * PAPER_FIELD_M);
    ExperimentSpec {
        sims: 1,
        scenario,
        load: QueryLoad {
            rate_qps: 0.25 * paper_fields,
            k: 10,
            first_at: 2.0,
            last_at: duration - 8.0,
            max_queries: Some(300),
            ..QueryLoad::default()
        },
        local_radius: Some(PAPER_FIELD_M / 2.0),
        timed_trace: TraceConfig::default(),
        traced_trace: TraceConfig {
            capacity: 1 << 28,
            ..TraceConfig::enabled()
        },
    }
}

/// 500 static nodes in the paper's 115 m field (degree about 48), DIKNN at
/// 10 queries/s with k = 10 and the flight recorder on: the MAC-contention
/// collapse cell.
fn query_storm() -> ExperimentSpec {
    let duration = 45.0;
    // Large enough that the ring never evicts, which the invariant replay
    // requires.
    let trace = TraceConfig {
        capacity: 1 << 24,
        ..TraceConfig::enabled()
    };
    ExperimentSpec {
        sims: 12,
        scenario: ScenarioConfig {
            nodes: 500,
            max_speed: 0.0,
            duration,
            ..ScenarioConfig::default()
        },
        load: QueryLoad {
            rate_qps: 10.0,
            k: 10,
            first_at: 2.0,
            last_at: duration - 10.0,
            max_queries: Some(300),
            ..QueryLoad::default()
        },
        local_radius: None,
        timed_trace: trace.clone(),
        traced_trace: trace,
    }
}

/// A resident service workload.
struct ServiceSpec {
    sims: usize,
    cfg: ServiceConfig,
    epochs: u64,
    /// Epochs between snapshots; the restore happens at the midpoint, which
    /// must be a snapshot epoch.
    snapshot_every: u64,
}

/// 1000 nodes at degree 20, random waypoint at up to 5 m/s, 20% churn with
/// state loss, 2 queries/s, serving layer on.
fn service_churn() -> ServiceSpec {
    let epochs = 16;
    let mut cfg = ServiceConfig::new(
        ScenarioConfig {
            nodes: 1000,
            max_speed: 5.0,
            ..ScenarioConfig::default()
        }
        .with_node_degree(20.0, RADIO_RANGE),
        RateSchedule::constant(2.0),
    );
    let horizon = epochs as f64 * cfg.epoch_s;
    cfg.scenario.duration = horizon;
    cfg.k = 10;
    cfg.diknn.serving = ServingConfig::enabled();
    cfg.faults = FaultPlan::churning(0.2, 60.0, 20.0, 5.0, horizon - 20.0);
    ServiceSpec {
        sims: 20,
        cfg,
        epochs,
        snapshot_every: 4,
    }
}

/// The paper's per-query metrics, pooled over a batch. For a fixed seed
/// they repeat exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryMetrics {
    /// Queries attempted; for the service this includes requests whose
    /// sink was offline and never issued them.
    pub attempted: u64,
    /// Queries the protocol issued (allocated an outcome for).
    pub issued: u64,
    /// Queries answered: completed, merged or cache-hit.
    pub answered: u64,
    /// Latencies of the answered queries, seconds.
    pub latencies: Vec<f64>,
    /// Flow-attributed protocol energy, joules.
    pub flow_energy_j: f64,
    /// Flow-attributed joules of each issued query.
    pub energies: Vec<f64>,
    /// Sum of post-accuracies over issued queries (unanswered score 0).
    pub post_accuracy_sum: f64,
    /// Outcomes per status, in [`STATUS_ORDER`].
    pub status_counts: [u64; 8],
}

/// Statuses in the order of `RunMetrics::status_counts`.
pub const STATUS_ORDER: [QueryStatus; 8] = [
    QueryStatus::Completed,
    QueryStatus::PartialTimeout,
    QueryStatus::TokenLost,
    QueryStatus::SinkUnreachable,
    QueryStatus::Pending,
    QueryStatus::Rejected,
    QueryStatus::Merged,
    QueryStatus::CacheHit,
];

impl QueryMetrics {
    fn new(m: &RunMetrics, attempted: u64, flow_energy_j: f64) -> Self {
        let answered: Vec<&QueryRecord> = m
            .per_query
            .iter()
            .filter(|q| {
                matches!(
                    q.status,
                    QueryStatus::Completed | QueryStatus::Merged | QueryStatus::CacheHit
                )
            })
            .collect();
        let latencies: Vec<f64> = answered
            .iter()
            .map(|q| q.latency_s)
            .filter(|l| l.is_finite())
            .collect();
        QueryMetrics {
            attempted,
            issued: m.queries as u64,
            answered: answered.len() as u64,
            latencies,
            flow_energy_j,
            energies: m.per_query.iter().map(|q| q.energy_j).collect(),
            post_accuracy_sum: m.per_query.iter().map(|q| q.post_accuracy).sum(),
            status_counts: m.status_counts.map(|c| c as u64),
        }
    }

    /// Pool another simulation's queries into these.
    fn absorb(&mut self, other: &QueryMetrics) {
        self.attempted += other.attempted;
        self.issued += other.issued;
        self.answered += other.answered;
        self.latencies.extend_from_slice(&other.latencies);
        self.flow_energy_j += other.flow_energy_j;
        self.energies.extend_from_slice(&other.energies);
        self.post_accuracy_sum += other.post_accuracy_sum;
        for (a, b) in self.status_counts.iter_mut().zip(other.status_counts) {
            *a += b;
        }
    }

    pub fn latency_p50_s(&self) -> f64 {
        stats::median(&self.latencies)
    }

    /// The pooled tail: the highest ladder percentile with at least ten
    /// answered queries beyond it.
    pub fn latency_tail(&self) -> Option<Tail> {
        stats::tail(&self.latencies)
    }

    pub fn energy_j_per_query_p50(&self) -> f64 {
        stats::median(&self.energies)
    }

    pub fn energy_j_per_query(&self) -> f64 {
        self.flow_energy_j / self.issued.max(1) as f64
    }

    pub fn post_accuracy(&self) -> f64 {
        self.post_accuracy_sum / self.attempted.max(1) as f64
    }

    pub fn completion_rate(&self) -> f64 {
        self.answered as f64 / self.attempted.max(1) as f64
    }

    pub fn non_terminal(&self) -> u64 {
        self.status_counts[status_index(QueryStatus::Pending)]
    }
}

/// Additive per-layer quantities of one simulation, by metric name. Keys
/// under `raw.` are denominators, not reported themselves.
type Counters = BTreeMap<&'static str, f64>;

/// One simulation of a batch.
struct Sim {
    sim_s: f64,
    window_s: f64,
    queries: QueryMetrics,
    /// Engine statistics with `trace_events` cleared, so traced and
    /// untraced runs compare equal.
    stats: SimStats,
    /// Total radio energy, as bits.
    energy_bits: u64,
    failures: Vec<String>,
    counters: Counters,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct RunOutput {
    /// Simulated seconds, summed over the batch.
    pub sim_s: f64,
    /// Host seconds from "inputs generated" to "outputs checked", summed
    /// over the batch.
    pub window_s: f64,
    /// Each simulation's window over its simulated seconds.
    pub host_s_per_sim_s: Vec<f64>,
    /// [`reference::time`] before the first simulation and after each one.
    pub reference_s: Vec<f64>,
    /// One set-up of the batch's first simulation after each simulation,
    /// timed just after that simulation's closing reference reading.
    pub setup_s: Vec<f64>,
    pub queries: QueryMetrics,
    /// Per simulation: engine statistics and total-energy bits.
    pub fingerprints: Vec<(SimStats, u64)>,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Per-layer metrics by name; only those this workload measures.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: SpanLog,
}

impl RunOutput {
    /// Each simulation's `host_s_per_sim_s` over the host slowdown read on
    /// either side of it.
    pub fn scaled_host_s_per_sim_s(&self) -> impl Iterator<Item = f64> + '_ {
        let around = self.reference_s.windows(2);
        (self.host_s_per_sim_s.iter())
            .zip(around)
            .map(|(h, r)| h / reference::slowdown(r[0], r[1]))
    }

    /// Each set-up time over the host slowdown read just before it.
    pub fn scaled_setup_s(&self) -> impl Iterator<Item = f64> + '_ {
        (self.setup_s.iter())
            .zip(&self.reference_s[1..])
            .map(|(s, &r)| s / reference::slowdown(r, r))
    }

    pub fn events(&self) -> u64 {
        self.fingerprints.iter().map(|(s, _)| s.events).sum()
    }

    /// What must be identical between runs of one seed.
    pub fn fingerprint(&self) -> (&[(SimStats, u64)], &QueryMetrics) {
        (&self.fingerprints, &self.queries)
    }
}

/// Run `sims` simulations with seeds derived from `seed` the way the
/// repository's seed sweeps derive them, and pool them. After each one, time
/// the reference kernel and `setup`, so that both sample the host over the
/// whole run.
fn batch(
    sims: usize,
    seed: u64,
    setup: impl Fn() -> f64,
    mut one: impl FnMut(u64, &mut SpanLog) -> Sim,
) -> RunOutput {
    let mut spans = SpanLog::new();
    let mut out = RunOutput {
        sim_s: 0.0,
        window_s: 0.0,
        host_s_per_sim_s: Vec::new(),
        reference_s: vec![reference::time()],
        setup_s: Vec::new(),
        queries: QueryMetrics::default(),
        fingerprints: Vec::new(),
        failures: Vec::new(),
        layers: BTreeMap::new(),
        spans: SpanLog::new(),
    };
    let mut counters = Counters::new();
    for i in 0..sims {
        let id = spans.enter("simulation");
        let sim = one(Experiment::sweep_seed(seed, i), &mut spans);
        spans.exit(id);
        out.sim_s += sim.sim_s;
        out.window_s += sim.window_s;
        out.host_s_per_sim_s.push(sim.window_s / sim.sim_s);
        out.reference_s.push(reference::time());
        out.setup_s.push(setup());
        out.queries.absorb(&sim.queries);
        out.fingerprints.push((sim.stats, sim.energy_bits));
        out.failures
            .extend(sim.failures.iter().map(|f| format!("simulation {i}: {f}")));
        for (k, v) in sim.counters {
            *counters.entry(k).or_insert(0.0) += v;
        }
    }
    out.layers = derive_layers(counters, &spans);
    out.spans = spans;
    out
}

/// Per-layer metrics from the pooled counters and the span log. A metric
/// whose spans or counters this workload lacks is left out.
fn derive_layers(mut l: Counters, spans: &SpanLog) -> BTreeMap<&'static str, f64> {
    let timed: [(&'static str, &[&str]); 8] = [
        (
            "diknn-workloads.build_s",
            &[
                "ScenarioConfig::build",
                "QueryLoad::generate",
                "GroundTruth::new",
            ],
        ),
        ("diknn-workloads.invariants_s", &["invariants::check"]),
        ("diknn-workloads.metrics_s", &["RunMetrics::compute"]),
        ("diknn-sim.new_s", &["Simulator::new", "ServiceRun::new"]),
        ("diknn-sim.warm_s", &["Simulator::warm_neighbor_tables"]),
        ("raw.run_s", &["Simulator::run", "ServiceRun::run_epochs"]),
        ("diknn-snap.snapshot_s", &["ServiceRun::snapshot"]),
        ("diknn-snap.restore_s", &["ServiceRun::restore"]),
    ];
    for (metric, names) in timed {
        if names.iter().any(|n| spans.has(n)) {
            l.insert(metric, names.iter().map(|n| spans.total_s(n)).sum());
        }
    }
    let get = |k: &str| l.get(k).copied();
    let run_s = get("raw.run_s").unwrap_or(f64::NAN);
    let events = get("diknn-sim.events").unwrap_or(f64::NAN);
    let receptions =
        get("diknn-sim.rx_deliveries").unwrap_or(0.0) + get("diknn-sim.collisions").unwrap_or(0.0);
    let ratios = [
        ("diknn-sim.events_per_s", get("diknn-sim.events"), run_s),
        (
            "diknn-sim.delivery_ratio",
            get("diknn-sim.rx_deliveries"),
            receptions,
        ),
        (
            "diknn-sim.mac_attempts_per_frame",
            get("diknn-sim.ev_mac_attempt"),
            get("raw.tx_frames").unwrap_or(f64::NAN),
        ),
        (
            "diknn-mobility.position_at_per_event",
            get("diknn-mobility.position_at_calls"),
            events,
        ),
        (
            "diknn-core.callback_share",
            get("diknn-core.callback_s"),
            run_s,
        ),
        (
            "diknn-snap.snapshot_bytes",
            get("raw.snapshot_bytes"),
            get("raw.sims").unwrap_or(f64::NAN),
        ),
    ];
    // Without the wrappers (the service) there is no split, and the engine
    // self time is the whole run span.
    let own = engine_self_s(
        run_s,
        get("diknn-core.callback_s").unwrap_or(0.0),
        get("raw.position_outside_callbacks_s").unwrap_or(0.0),
    );
    for (metric, num, den) in ratios {
        if let Some(num) = num {
            l.insert(metric, num / den);
        }
    }
    l.insert("diknn-sim.run_self_s", own);
    l.retain(|k, _| !k.starts_with("raw."));
    l
}

/// Checks shared by every workload: every query terminal, no invariant
/// violation, and enough answers for a tail.
fn common_checks(q: &QueryMetrics, violations: &[invariants::Violation]) -> Vec<String> {
    let mut failures: Vec<String> = violations
        .iter()
        .take(5)
        .map(|v| format!("invariant violation: {v}"))
        .collect();
    if violations.len() > 5 {
        failures.push(format!("... {} violations in all", violations.len()));
    }
    if q.non_terminal() > 0 {
        failures.push(format!("{} queries not terminal", q.non_terminal()));
    }
    if q.latency_tail().is_none() {
        failures.push(format!(
            "too few answered queries for a tail: {} latencies",
            q.latencies.len()
        ));
    }
    failures
}

/// Engine counters every workload can read after its simulation.
fn sim_counters<M: Clone>(ctx: &Ctx<M>, violations: usize) -> Counters {
    let s = ctx.stats();
    [
        ("diknn-workloads.trace_events", s.trace_events),
        ("diknn-workloads.violations", violations as u64),
        ("diknn-sim.events", s.events),
        ("diknn-sim.ev_beacon", s.ev_beacon),
        ("diknn-sim.ev_mac_attempt", s.ev_mac_attempt),
        ("diknn-sim.ev_tx_end", s.ev_tx_end),
        ("diknn-sim.ev_timer", s.ev_timer),
        ("diknn-sim.ev_lifecycle", s.ev_lifecycle),
        ("diknn-sim.rx_deliveries", s.rx_deliveries),
        ("diknn-sim.collisions", s.collisions),
        ("diknn-sim.mac_drops", s.mac_drops),
        ("diknn-sim.arq_retries", s.arq_retries),
        ("diknn-sim.grid_refreshes", ctx.perf().grid_refreshes),
        ("diknn-core.tokens_reissued", s.tokens_reissued),
        ("diknn-core.query_retries", s.query_retries),
        ("raw.tx_frames", s.tx_frames),
        ("raw.sims", 1),
    ]
    .into_iter()
    .map(|(name, v)| (name, v as f64))
    .collect()
}

fn zero_trace_count(mut stats: SimStats) -> SimStats {
    stats.trace_events = 0;
    stats
}

/// The inputs of one batch simulation, before `Simulator::new`.
struct Inputs {
    plans: Vec<SharedMobility>,
    diknn: Diknn,
    oracle: GroundTruth,
}

/// Generate the inputs of one simulation; with `oracle_probe`, the oracle's
/// plans are counted.
fn generate(
    spec: &ExperimentSpec,
    seed: u64,
    oracle_probe: Option<&Arc<Probe>>,
    spans: &mut SpanLog,
) -> Inputs {
    let plans = spans.time("ScenarioConfig::build", || spec.scenario.build(seed));
    let requests = spans.time("QueryLoad::generate", || {
        let mut requests = spec.load.generate(&spec.scenario, seed);
        if let Some(radius) = spec.local_radius {
            localize(&mut requests, &plans, spec, radius);
        }
        requests
    });
    let oracle_plans = match oracle_probe {
        Some(p) => counting(&plans, p),
        None => plans.clone(),
    };
    let nodes = spec.scenario.nodes;
    let oracle = spans.time("GroundTruth::new", || GroundTruth::new(oracle_plans, nodes));
    Inputs {
        plans,
        diknn: Diknn::new(DiknnConfig::default(), requests),
        oracle,
    }
}

/// Move each query point into the square of half-width `radius` around its
/// sink's position at issue time. The generator's field-wide random point is
/// scaled about the field centre, so the offsets stay uniform and
/// seed-determined; points are kept `edge_margin` inside the field.
fn localize(
    requests: &mut [QueryRequest],
    plans: &[SharedMobility],
    spec: &ExperimentSpec,
    radius: f64,
) {
    let field = spec.scenario.field;
    let margin = spec.load.edge_margin;
    let centre = field.center();
    let scale = radius / (field.width() / 2.0 - margin);
    let inner = Rect::new(
        field.min_x + margin,
        field.min_y + margin,
        field.max_x - margin,
        field.max_y - margin,
    );
    for r in requests {
        let sink = plans[r.sink.index()].position_at(r.at);
        r.q = inner.clamp(Point::new(
            sink.x + (r.q.x - centre.x) * scale,
            sink.y + (r.q.y - centre.y) * scale,
        ));
    }
}

/// The untraced set-up alone: inputs, simulator and warm-up.
fn build_experiment(spec: &ExperimentSpec, seed: u64) -> (Simulator<Diknn>, GroundTruth) {
    let inputs = generate(spec, seed, None, &mut SpanLog::new());
    let mut cfg = spec.scenario.sim_config();
    cfg.trace = spec.timed_trace.clone();
    let mut sim = Simulator::new(cfg, inputs.plans, inputs.diknn, seed);
    sim.warm_neighbor_tables();
    (sim, inputs.oracle)
}

fn run_experiment(spec: &ExperimentSpec, seed: u64, traced: bool, spans: &mut SpanLog) -> Sim {
    let setup = spans.enter("setup");
    let mut cfg = spec.scenario.sim_config();
    if !traced {
        let inputs = generate(spec, seed, None, spans);
        cfg.trace = spec.timed_trace.clone();
        let sim = spans.time("Simulator::new", || {
            Simulator::new(cfg, inputs.plans, inputs.diknn, seed)
        });
        return drive(sim, spec, &inputs.oracle, spans, setup);
    }
    let probe = Probe::new();
    let oracle_probe = Probe::new();
    let inputs = generate(spec, seed, Some(&oracle_probe), spans);
    cfg.trace = spec.traced_trace.clone();
    let plans = counting(&inputs.plans, &probe);
    let protocol = TimedProtocol::new(inputs.diknn, Arc::clone(&probe));
    let sim = spans.time("Simulator::new", || {
        Simulator::new(cfg, plans, protocol, seed)
    });
    let mut out = drive(sim, spec, &inputs.oracle, spans, setup);
    let p = probe.totals();
    out.counters.extend([
        (
            "diknn-workloads.oracle_position_at_calls",
            oracle_probe.totals().position_calls as f64,
        ),
        ("diknn-mobility.position_at_calls", p.position_calls as f64),
        ("diknn-mobility.position_at_s", p.position_s),
        ("diknn-core.callbacks", p.callbacks as f64),
        ("diknn-core.callback_s", p.callback_s),
        (
            "raw.position_outside_callbacks_s",
            p.position_outside_callbacks_s(),
        ),
    ]);
    out
}

/// Warm, run, finish, replay and measure one batch simulation.
fn drive<P: Protocol + KnnProtocol>(
    mut sim: Simulator<P>,
    spec: &ExperimentSpec,
    oracle: &GroundTruth,
    spans: &mut SpanLog,
    setup: usize,
) -> Sim {
    spans.time("Simulator::warm_neighbor_tables", || {
        sim.warm_neighbor_tables()
    });
    spans.exit(setup);

    let window = spans.enter("window");
    spans.time("Simulator::run", || sim.run());
    let (mut protocol, ctx) = sim.into_parts();
    spans.time("KnnProtocol::finish", || protocol.finish(&ctx));
    let violations = if ctx.trace().is_enabled() {
        spans.time("invariants::check", || {
            invariants::check(ctx.trace(), protocol.outcomes())
        })
    } else {
        Vec::new()
    };
    let metrics = spans.time("RunMetrics::compute", || {
        RunMetrics::compute(
            protocol.outcomes(),
            ctx.stats(),
            ctx.total_protocol_energy_j(),
            ctx.flow_energy_j(),
            oracle,
        )
    });
    let queries = QueryMetrics::new(
        &metrics,
        protocol.outcomes().len() as u64,
        ctx.flow_energy_j().total(),
    );
    let failures = common_checks(&queries, &violations);
    spans.exit(window);

    Sim {
        sim_s: spec.scenario.duration,
        window_s: spans.spans()[window].duration_s(),
        queries,
        stats: zero_trace_count(*ctx.stats()),
        energy_bits: ctx.total_energy_j().to_bits(),
        failures,
        counters: sim_counters(&ctx, violations.len()),
    }
}

fn run_service(spec: &ServiceSpec, seed: u64, traced: bool, spans: &mut SpanLog) -> Sim {
    let setup = spans.enter("setup");
    let mut run = spans.time("ServiceRun::new", || {
        ServiceRun::new(spec.cfg.clone(), seed)
    });
    spans.exit(setup);

    let window = spans.enter("window");
    let mut failures = Vec::new();
    let mut counters = Counters::new();
    let midpoint = spec.epochs / 2;
    while run.epoch() < spec.epochs {
        let step = spec.snapshot_every.min(spec.epochs - run.epoch());
        spans.time("ServiceRun::run_epochs", || run.run_epochs(step));
        let bytes = spans.time("ServiceRun::snapshot", || run.snapshot());
        *counters.entry("diknn-snap.snapshots").or_insert(0.0) += 1.0;
        if run.epoch() != midpoint {
            continue;
        }
        counters.insert("raw.snapshot_bytes", bytes.len() as f64);
        let restored = spans.time("ServiceRun::restore", || {
            ServiceRun::restore(&bytes, spec.cfg.clone())
        });
        match restored {
            Ok(copy) => {
                let again = spans.time("ServiceRun::snapshot", || copy.snapshot());
                *counters.entry("diknn-snap.snapshots").or_insert(0.0) += 1.0;
                if again != bytes {
                    failures.push("restore + snapshot did not reproduce the bytes".to_string());
                }
                run = copy;
            }
            Err(e) => failures.push(format!("restore failed: {e:?}")),
        }
    }
    let attempted = run.injected();
    let (protocol, ctx) = spans.time("ServiceRun::finish", || run.finish());
    let violations = spans.time("invariants::check", || {
        invariants::check(ctx.trace(), protocol.outcomes())
    });
    let plans = spans.time("ScenarioConfig::build", || spec.cfg.scenario.build(seed));
    let oracle_probe = traced.then(Probe::new);
    let plans = match &oracle_probe {
        Some(p) => counting(&plans, p),
        None => plans,
    };
    let nodes = spec.cfg.scenario.nodes;
    let oracle = spans.time("GroundTruth::new", || GroundTruth::new(plans, nodes));
    let metrics = spans.time("RunMetrics::compute", || {
        RunMetrics::compute(
            protocol.outcomes(),
            ctx.stats(),
            ctx.total_protocol_energy_j(),
            ctx.flow_energy_j(),
            &oracle,
        )
    });
    let queries = QueryMetrics::new(&metrics, attempted, ctx.flow_energy_j().total());
    failures.extend(common_checks(&queries, &violations));
    spans.exit(window);

    counters.extend(sim_counters(&ctx, violations.len()));
    if let Some(p) = oracle_probe {
        counters.insert(
            "diknn-workloads.oracle_position_at_calls",
            p.totals().position_calls as f64,
        );
    }
    Sim {
        sim_s: spec.epochs as f64 * spec.cfg.epoch_s,
        window_s: spans.spans()[window].duration_s(),
        queries,
        stats: zero_trace_count(*ctx.stats()),
        energy_bits: ctx.total_energy_j().to_bits(),
        failures,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_sample_is_scaled_by_the_readings_around_it() {
        let n = reference::NOMINAL_S;
        let out = RunOutput {
            sim_s: 2.0,
            window_s: 0.3,
            host_s_per_sim_s: vec![0.1, 0.2],
            reference_s: vec![n, 3.0 * n, 2.0 * n],
            setup_s: vec![0.03, 0.04],
            queries: QueryMetrics::default(),
            fingerprints: Vec::new(),
            failures: Vec::new(),
            layers: BTreeMap::new(),
            spans: SpanLog::new(),
        };
        let host: Vec<f64> = out.scaled_host_s_per_sim_s().collect();
        let setup: Vec<f64> = out.scaled_setup_s().collect();
        let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12);
        assert!(close(&host, &[0.1 / 2.0, 0.2 / 2.5]), "{host:?}");
        assert!(close(&setup, &[0.03 / 3.0, 0.04 / 2.0]), "{setup:?}");
    }
}
