//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <beacon_scale|query_storm|service_churn> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation runs one workload, one simulation at a time on this
//! thread. Inputs are generated from `--seed` (default [`DEFAULT_SEED`];
//! confirm later claims on [`HELD_OUT_SEED`] too). Every metric is printed
//! by name and unit; the last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when an output check fails.
//!
//! * `--trace 0` runs the workload's batch of simulations untraced (after a
//!   warm-up run of its first simulation, when it has several), again while
//!   another batch fits in `--seconds`, and reports the end-to-end metrics:
//!   host time per simulated second (median over simulations), set-up time
//!   (median of one set-up after each simulation), both scaled to the reference host speed of
//!   [`reference`], peak resident memory, and the paper's per-query metrics,
//!   which repeat exactly for a seed and are checked to.
//! * `--trace 1` runs the batch traced between two untraced runs of its
//!   first simulation, and reports the per-layer metrics, the tracing
//!   overhead on that simulation, and the spans. The traced simulation must
//!   reproduce the untraced one's statistics and energy exactly.
//!
//! `benchmark/README.md` lists which end-to-end metric each per-layer
//! metric should move, on which workload.

// Host-side timing is the point of this program; it never feeds back into
// simulation state.
#![allow(clippy::disallowed_methods)]

mod probe;
mod reference;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{MetricDef, END_TO_END};
use workloads::{RunOutput, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Seed held out from tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 9001;

const USAGE: &str = "usage: diknn-benchmark --workload <beacon_scale|query_storm|service_churn> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds out of range: {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "benchmark workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) \
         seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let correct = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: an output check failed (see the check lines above)");
        ExitCode::FAILURE
    }
}

/// Print each failed check; return whether there were none.
fn report_checks(label: &str, failures: &[String]) -> bool {
    for f in failures {
        println!("check FAILED [{label}]: {f}");
    }
    failures.is_empty()
}

/// Untraced runs: the end-to-end metrics.
fn timed(args: &Args) -> bool {
    let w = args.workload;
    // A batch of one long simulation amortises its own cold start, and
    // repeating it would double the run; its repeat check is the traced
    // invocation's.
    let warm = (w.sims() > 1).then(|| w.warm_up(args.seed));
    // Whole batches only, and none that would end past the budget by the
    // longest batch so far, so a slow host shortens the run instead of
    // stretching it.
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut longest = Duration::ZERO;
    let mut runs: Vec<RunOutput> = Vec::new();
    while runs.is_empty() || t0.elapsed() + longest <= budget {
        let t = Instant::now();
        runs.push(w.run(args.seed, false));
        longest = longest.max(t.elapsed());
    }
    let peak_rss_mb = report::peak_rss_mb();

    let first = &runs[0];
    let mut correct = true;
    if let Some(warm) = &warm {
        let mut failures = warm.failures.clone();
        if warm.fingerprints[..] != first.fingerprints[..1] {
            failures.push("warm-up differs from the batch's first simulation".to_string());
        }
        correct &= report_checks("warm-up", &failures);
    }
    for (i, r) in runs.iter().enumerate() {
        let mut failures = r.failures.clone();
        if r.fingerprint() != first.fingerprint() {
            failures.push("simulated results differ from repeat 0 of the same seed".to_string());
        }
        correct &= report_checks(&format!("repeat {i}"), &failures);
    }
    let attempted: u64 = warm.as_ref().map_or(0, |r| r.queries.attempted)
        + runs.iter().map(|r| r.queries.attempted).sum::<u64>();

    let host: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.host_s_per_sim_s.clone())
        .collect();
    // Host times are scaled to the reference host speed (see reference.rs).
    let reference_s: Vec<f64> = runs.iter().flat_map(|r| r.reference_s.clone()).collect();
    let slowdown = stats::median(&reference_s) / reference::NOMINAL_S;
    let setups: Vec<f64> = runs.iter().flat_map(|r| r.setup_s.clone()).collect();
    let scaled_host: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.scaled_host_s_per_sim_s())
        .collect();
    let scaled_setups: Vec<f64> = runs.iter().flat_map(|r| r.scaled_setup_s()).collect();
    let q = &first.queries;
    let tail = q.latency_tail();
    let values = [
        stats::median(&scaled_host),
        stats::median(&scaled_setups),
        peak_rss_mb,
        q.latency_p50_s(),
        q.energy_j_per_query_p50(),
        q.post_accuracy(),
        q.completion_rate(),
    ];
    let metrics: Vec<(MetricDef, f64)> = END_TO_END.iter().copied().zip(values).collect();
    for (d, v) in &metrics {
        println!(
            "metric {:<22} {:>22} {:<5} ({} is better)",
            d.name,
            report::num(*v),
            d.unit,
            d.better.as_str()
        );
    }
    println!(
        "host slowdown x{} against the reference kernel; unscaled: \
         host_s_per_sim_s {} s/s, setup_s {} s",
        report::num(slowdown),
        report::num(stats::median(&host)),
        report::num(stats::median(&setups))
    );
    // Printed and reported, but not in the result line: see README.md.
    if let Some(t) = tail {
        println!(
            "metric {:<22} {:>22} {:<5} (lower is better; p{} of {} answered latencies, {} beyond)",
            "query_latency_tail_s",
            report::num(t.value),
            "s",
            t.percentile * 100.0,
            t.samples,
            t.beyond
        );
    }
    if let Some((d, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        correct = report_checks("metrics", &[format!("{} is not a number", d.name)]);
    }

    let spread = |name: &'static str, values: &[f64]| {
        let qs = stats::quartiles(values);
        (
            name,
            report::object([
                ("n", values.len().to_string()),
                ("median", report::num(qs.median)),
                ("p25", report::num(qs.p25)),
                ("p75", report::num(qs.p75)),
            ]),
        )
    };
    let report_line = report::object([
        ("workload", report::string(w.name())),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("machine", report::machine()),
        ("repeats", runs.len().to_string()),
        (
            "host",
            report::object([
                ("slowdown", report::num(slowdown)),
                spread("host_s_per_sim_s", &host),
                spread("setup_s", &setups),
                spread("reference_s", &reference_s),
                spread(
                    "window_s",
                    &runs.iter().map(|r| r.window_s).collect::<Vec<_>>(),
                ),
            ]),
        ),
        ("sim_s", report::num(first.sim_s)),
        (
            "queries",
            report::object([
                ("attempted", q.attempted.to_string()),
                ("issued", q.issued.to_string()),
                ("answered", q.answered.to_string()),
                ("latencies", q.latencies.len().to_string()),
                (
                    "latency_p90_p95_p99_s",
                    format!(
                        "[{}]",
                        [0.9, 0.95, 0.99]
                            .map(|p| report::num(stats::percentile_of(&q.latencies, p)))
                            .join(", ")
                    ),
                ),
                (
                    "energy_j_per_query_mean",
                    report::num(q.energy_j_per_query()),
                ),
                (
                    "query_latency_tail_s",
                    report::num(tail.map_or(f64::NAN, |t| t.value)),
                ),
                (
                    "tail_percentile",
                    report::num(tail.map_or(f64::NAN, |t| t.percentile)),
                ),
                ("tail_beyond", tail.map_or(0, |t| t.beyond).to_string()),
            ]),
        ),
        ("events", first.events().to_string()),
    ]);
    println!("report {report_line}");
    // A failed check makes every query of the invocation count as failed.
    let failed = if correct { 0 } else { attempted };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    correct
}

/// The traced run: the per-layer metrics. The batch's first simulation also
/// runs untraced before and after it: the first run absorbs the process's
/// cold start, the second is the reference for the tracing overhead, and
/// the traced simulation must reproduce both exactly.
fn traced(args: &Args) -> bool {
    let w = args.workload;
    let cold = w.warm_up(args.seed);
    let run = w.run(args.seed, true);
    let plain = w.warm_up(args.seed);
    let mut correct = report_checks("untraced", &cold.failures);
    correct &= report_checks("traced", &run.failures);
    correct &= report_checks("untraced again", &plain.failures);
    if run.fingerprints[..1] != plain.fingerprints[..] || cold.fingerprints != plain.fingerprints {
        correct = report_checks(
            "traced",
            &["traced simulation's statistics or energy differ from the untraced one".to_string()],
        );
    }
    let untraced_host = plain.host_s_per_sim_s[0];
    let traced_host = run.host_s_per_sim_s[0];
    // Each scaled by the host slowdown read around it, so that drift between
    // the two runs does not pass for overhead.
    let scaled_first = |r: &RunOutput| r.scaled_host_s_per_sim_s().next().unwrap_or(f64::NAN);
    let overhead = scaled_first(&run) / scaled_first(&plain);

    let mut layers = run.layers.clone();
    layers.insert(
        "diknn-sim.flow_energy_j_per_query",
        run.queries.energy_j_per_query(),
    );
    layers.insert("bench.trace_overhead", overhead);
    layers.insert(
        "bench.host_slowdown",
        stats::median(&run.reference_s) / reference::NOMINAL_S,
    );
    layers.insert("bench.traced_host_s_per_sim_s", traced_host);
    if let Some(t) = run.queries.latency_tail() {
        layers.insert("bench.query_latency_tail_s", t.value);
    }
    for (name, count) in report::STATUS_NAMES.iter().zip(run.queries.status_counts) {
        layers.insert(name, count as f64);
    }
    let mut unmeasured = Vec::new();
    let metrics: Vec<(MetricDef, f64)> = report::per_layer()
        .into_iter()
        .map(|d| {
            let v = layers.get(d.name).copied().unwrap_or_else(|| {
                unmeasured.push(d.name);
                0.0
            });
            (d, v)
        })
        .collect();
    println!(
        "first simulation: untraced host_s_per_sim_s {} s/s, traced {} s/s (unscaled), \
         overhead x{} (scaled)",
        report::num(untraced_host),
        report::num(traced_host),
        report::num(overhead)
    );
    for (d, v) in &metrics {
        println!(
            "layer {:<42} {:>22} {:<5} ({} is better)",
            d.name,
            report::num(*v),
            d.unit,
            d.better.as_str()
        );
    }
    if !unmeasured.is_empty() {
        println!(
            "not measured on {} (reported as 0): {}",
            w.name(),
            unmeasured.join(", ")
        );
    }
    for (id, s) in run.spans.spans().iter().enumerate() {
        println!(
            "span {id} {} start={:.6} end={:.6} parent={} self={:.6}",
            s.name,
            s.start_s,
            s.end_s,
            s.parent.map_or("-".to_string(), |p| p.to_string()),
            run.spans.self_s(id)
        );
    }
    if let Some((d, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        correct = report_checks("metrics", &[format!("{} is not a number", d.name)]);
    }
    let report_line = report::object([
        ("workload", report::string(w.name())),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("machine", report::machine()),
        ("repeats", "1".to_string()),
        (
            "unmeasured",
            format!(
                "[{}]",
                unmeasured
                    .iter()
                    .map(|n| report::string(n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ]);
    println!("report {report_line}");
    let attempted = cold.queries.attempted + run.queries.attempted + plain.queries.attempted;
    let failed = if correct { 0 } else { attempted };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    correct
}
