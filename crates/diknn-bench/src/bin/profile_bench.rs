//! `profile_bench` — phase-level profiling of the engine hot path with a
//! built-in behaviour oracle (PR 9; workflow documented in PROFILING.md).
//!
//! Runs one DIKNN cell under two engine variants:
//!
//! * `grid+cache` — spatial grid with the incremental audible-set cache,
//! * `brute`      — the O(n²) brute-force index, the sequential oracle.
//!
//! Each variant is measured twice:
//!
//! 1. **Timing pass** (trace off): per-phase wall times — `setup`
//!    (mobility + workload build), `warm` (`Simulator::new` + grid build +
//!    warm beacon round), `run` (the event loop) — plus events/sec, the
//!    per-event-kind breakdown from [`SimStats`] (`ev_*`, which sum to
//!    `events`), and the engine's [`PerfCounters`] (audible-cache
//!    hits/misses, grid refreshes).
//! 2. **Oracle pass** (trace on, shorter): the flight-recorder stream is
//!    serialized and FNV-fingerprinted. All variants must produce the
//!    same trace fingerprint, `SimStats`, and energy bits; any divergence
//!    exits non-zero. CI's perf-smoke job runs a small cell and relies on
//!    that exit code — the cheap, always-on form of the grid/brute
//!    equivalence suites.
//!
//! Output: a table on stdout and machine-readable
//! `results/BENCH_profile.json` (schema 1).
//!
//! Knobs: `DIKNN_PROFILE_NODES` (default 500), `DIKNN_RUNS` (default 3),
//! `DIKNN_DURATION` (default 20 simulated seconds), `DIKNN_SEED`
//! (default 1000), `DIKNN_ORACLE_DURATION` (default `min(duration, 10)`).

// Wall-clock timing is the entire point of this binary; it never feeds
// back into simulation state, so the determinism ban is lifted here (the
// xtask pass is exempted per call site with `// lint: wall-clock-ok`).
#![allow(clippy::disallowed_methods)]

use std::time::Instant; // lint: wall-clock-ok (host-side benchmark timing)

use diknn_bench::base_seed;
use diknn_core::{Diknn, DiknnConfig};
use diknn_sim::{NeighborIndex, PerfCounters, SimStats, Simulator, TraceConfig};
use diknn_snap::Snap;
use diknn_workloads::{workload, Experiment, ScenarioConfig, WorkloadConfig};

/// Radio range (m); matches `SimConfig::default` and sizes the grid cells.
const RADIO_RANGE: f64 = 20.0;
/// Constant node degree, as in `scale_bench`.
const NODE_DEGREE: f64 = 20.0;
/// RWP speed cap (m/s); keeps grid refresh + drift padding on the path.
const MAX_SPEED: f64 = 5.0;

#[derive(Clone, Copy, PartialEq)]
struct Variant {
    name: &'static str,
    index: NeighborIndex,
}

const VARIANTS: [Variant; 2] = [
    Variant {
        name: "grid+cache",
        index: NeighborIndex::Grid,
    },
    Variant {
        name: "brute",
        index: NeighborIndex::BruteForce,
    },
];

/// One timed run: phase walls + stats + perf counters.
struct Timed {
    setup_s: f64,
    warm_s: f64,
    run_s: f64,
    stats: SimStats,
    perf: PerfCounters,
}

/// One oracle run: full behaviour fingerprint.
#[derive(PartialEq, Debug)]
struct Oracle {
    trace_fp: u64,
    stats: SimStats,
    energy_bits: u64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn scenario(nodes: usize, duration: f64) -> ScenarioConfig {
    ScenarioConfig {
        nodes,
        max_speed: MAX_SPEED,
        duration,
        ..ScenarioConfig::default()
    }
    .with_node_degree(NODE_DEGREE, RADIO_RANGE)
}

fn workload_cfg(duration: f64) -> WorkloadConfig {
    WorkloadConfig {
        last_at: (duration - 5.0).max(duration * 0.5),
        ..WorkloadConfig::default()
    }
}

fn build_sim(
    sc: &ScenarioConfig,
    wl: &WorkloadConfig,
    v: Variant,
    seed: u64,
    trace: bool,
) -> (f64, f64, Simulator<Diknn>) {
    let t0 = Instant::now(); // lint: wall-clock-ok
    let plans = sc.build(seed);
    let requests = workload::generate(sc, wl, seed);
    let mut cfg = sc.sim_config();
    cfg.neighbor_index = v.index;
    if trace {
        cfg.trace = TraceConfig::enabled();
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now(); // lint: wall-clock-ok
    let mut sim = Simulator::new(
        cfg,
        plans,
        Diknn::new(DiknnConfig::default(), requests),
        seed,
    );
    sim.warm_neighbor_tables();
    let warm_s = t1.elapsed().as_secs_f64();
    (setup_s, warm_s, sim)
}

fn timed_run(sc: &ScenarioConfig, wl: &WorkloadConfig, v: Variant, seed: u64) -> Timed {
    let (setup_s, warm_s, mut sim) = build_sim(sc, wl, v, seed, false);
    let t = Instant::now(); // lint: wall-clock-ok
    sim.run();
    let run_s = t.elapsed().as_secs_f64();
    let perf = *sim.ctx().perf();
    let (_proto, ctx) = sim.into_parts();
    Timed {
        setup_s,
        warm_s,
        run_s,
        stats: *ctx.stats(),
        perf,
    }
}

fn oracle_run(sc: &ScenarioConfig, wl: &WorkloadConfig, v: Variant, seed: u64) -> Oracle {
    let (_, _, mut sim) = build_sim(sc, wl, v, seed, true);
    sim.run();
    let (_proto, ctx) = sim.into_parts();
    let mut w = diknn_snap::SnapWriter::new();
    ctx.trace().snap(&mut w);
    Oracle {
        trace_fp: diknn_snap::fingerprint(&w.into_bytes()),
        stats: *ctx.stats(),
        energy_bits: ctx.total_energy_j().to_bits(),
    }
}

/// Per-variant aggregate over the timed runs.
struct Row {
    variant: Variant,
    setup_s: f64,
    warm_s: f64,
    run_s: f64,
    stats: SimStats,
    perf: PerfCounters,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        if self.run_s > 0.0 {
            self.stats.events as f64 / self.run_s
        } else {
            0.0
        }
    }
}

fn row_json(r: &Row) -> String {
    let s = &r.stats;
    format!(
        "    {{\"variant\": \"{}\", \"setup_s\": {:.6}, \"warm_s\": {:.6}, \"run_s\": {:.6}, \
         \"events\": {}, \"events_per_sec\": {:.1}, \
         \"event_breakdown\": {{\"mac_attempt\": {}, \"tx_end\": {}, \"timer\": {}, \
         \"beacon\": {}, \"lifecycle\": {}}}, \
         \"perf\": {{\"aud_cache_hits\": {}, \"aud_cache_misses\": {}, \
         \"grid_refreshes\": {}}}}}",
        r.variant.name,
        r.setup_s,
        r.warm_s,
        r.run_s,
        s.events,
        r.events_per_sec(),
        s.ev_mac_attempt,
        s.ev_tx_end,
        s.ev_timer,
        s.ev_beacon,
        s.ev_lifecycle,
        r.perf.aud_cache_hits,
        r.perf.aud_cache_misses,
        r.perf.grid_refreshes,
    )
}

fn main() {
    let nodes = env_usize("DIKNN_PROFILE_NODES", 500).max(10);
    let runs = env_usize("DIKNN_RUNS", 3).max(1);
    let duration = env_f64("DIKNN_DURATION", 20.0).max(1.0);
    let oracle_duration = env_f64("DIKNN_ORACLE_DURATION", duration.min(10.0)).max(1.0);
    let seed = base_seed();

    println!(
        "profile_bench: per-phase engine profile, {} variants",
        VARIANTS.len()
    );
    println!(
        "nodes={nodes} runs={runs} duration={duration}s oracle_duration={oracle_duration}s \
         base_seed={seed} degree={NODE_DEGREE} range={RADIO_RANGE}m max_speed={MAX_SPEED}m/s"
    );

    // ---- timing pass (trace off) ---------------------------------------
    let sc = scenario(nodes, duration);
    let wl = workload_cfg(duration);
    let mut rows: Vec<Row> = Vec::new();
    for v in VARIANTS {
        let mut setup_s = 0.0;
        let mut warm_s = 0.0;
        let mut run_s = 0.0;
        let mut stats = SimStats::default();
        let mut perf = PerfCounters::default();
        for i in 0..runs {
            let t = timed_run(&sc, &wl, v, Experiment::sweep_seed(seed, i));
            setup_s += t.setup_s;
            warm_s += t.warm_s;
            run_s += t.run_s;
            // Event counters sum over runs so `events / run_s` is the
            // true aggregate rate (both numerator and denominator cover
            // every run). Per-seed behaviour identity across variants is
            // asserted separately by the oracle pass.
            stats.events += t.stats.events;
            stats.ev_mac_attempt += t.stats.ev_mac_attempt;
            stats.ev_tx_end += t.stats.ev_tx_end;
            stats.ev_timer += t.stats.ev_timer;
            stats.ev_beacon += t.stats.ev_beacon;
            stats.ev_lifecycle += t.stats.ev_lifecycle;
            perf.aud_cache_hits += t.perf.aud_cache_hits;
            perf.aud_cache_misses += t.perf.aud_cache_misses;
            perf.grid_refreshes += t.perf.grid_refreshes;
        }
        let row = Row {
            variant: v,
            setup_s,
            warm_s,
            run_s,
            stats,
            perf,
        };
        println!(
            "profile variant={:<13} setup={:>7.3}s warm={:>7.3}s run={:>8.3}s \
             events={:>9} ({:>9.0} ev/s) cache hit/miss={}/{} refreshes={}",
            row.variant.name,
            row.setup_s,
            row.warm_s,
            row.run_s,
            row.stats.events,
            row.events_per_sec(),
            row.perf.aud_cache_hits,
            row.perf.aud_cache_misses,
            row.perf.grid_refreshes,
        );
        rows.push(row);
    }

    // ---- oracle pass (trace on, all variants vs sequential brute) ------
    let osc = scenario(nodes, oracle_duration);
    let owl = workload_cfg(oracle_duration);
    let oracles: Vec<(Variant, Oracle)> = VARIANTS
        .iter()
        .map(|&v| (v, oracle_run(&osc, &owl, v, seed)))
        .collect();
    let Some(reference) = oracles
        .iter()
        .find(|(v, _)| v.index == NeighborIndex::BruteForce)
        .map(|(_, o)| o)
    else {
        eprintln!("no brute-force variant configured; nothing to compare against");
        std::process::exit(1);
    };
    let mut equivalent = true;
    for (v, o) in &oracles {
        let ok = o == reference;
        println!(
            "oracle variant={:<13} trace_fp={:016x} events={} {}",
            v.name,
            o.trace_fp,
            o.stats.events,
            if ok { "OK" } else { "DIVERGED" }
        );
        if !ok {
            equivalent = false;
            eprintln!(
                "DIVERGENCE: variant {} disagrees with the sequential brute-force oracle",
                v.name
            );
        }
    }

    // ---- JSON ----------------------------------------------------------
    let row_json: Vec<String> = rows.iter().map(row_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"profile_bench\",\n  \"schema_version\": 1,\n  \"config\": {{\
         \"nodes\": {nodes}, \"runs\": {runs}, \"base_seed\": {seed}, \
         \"duration_s\": {duration:.1}, \"oracle_duration_s\": {oracle_duration:.1}, \
         \"node_degree\": {NODE_DEGREE:.1}, \"radio_range\": {RADIO_RANGE:.1}, \
         \"max_speed\": {MAX_SPEED:.1}}},\n  \"variants\": [\n{}\n  ],\n  \
         \"oracle\": {{\"trace_fingerprint\": \"{:016x}\", \
         \"all_variants_bit_identical\": {equivalent}}}\n}}\n",
        row_json.join(",\n"),
        reference.trace_fp,
    );
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("warning: could not create results/: {e}");
    }
    match std::fs::write("results/BENCH_profile.json", &json) {
        Ok(()) => println!("wrote results/BENCH_profile.json"),
        Err(e) => {
            eprintln!("error: writing results/BENCH_profile.json: {e}");
            std::process::exit(2);
        }
    }
    if equivalent {
        println!("OK: every variant matches the sequential oracle's trace fingerprint");
    } else {
        eprintln!("FAIL: a variant diverged from the sequential oracle — see above");
        std::process::exit(1);
    }
}
