//! Metric catalogue and JSON rendering. `BENCHMARK.json` at the repository
//! root lists the same metrics; a test keeps the two in step.

use std::fmt::Write as _;

use crate::workloads::STATUS_ORDER;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of the untraced runs (`--trace 0`).
pub const END_TO_END: [MetricDef; 7] = [
    def("host_s_per_sim_s", "s/s", Lower),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("query_latency_p50_s", "s", Lower),
    def("energy_j_per_query_p50", "J", Lower),
    def("post_accuracy", "ratio", Higher),
    def("completion_rate", "ratio", Higher),
];

/// Metrics of the traced run (`--trace 1`), other than the per-status
/// counts, which [`per_layer`] appends.
const LAYERS: [MetricDef; 40] = [
    def("bench.trace_overhead", "ratio", Lower),
    def("diknn-workloads.build_s", "s", Lower),
    def("diknn-workloads.invariants_s", "s", Lower),
    def("diknn-workloads.metrics_s", "s", Lower),
    def("diknn-workloads.trace_events", "count", Lower),
    def("diknn-workloads.violations", "count", Lower),
    def("diknn-workloads.oracle_position_at_calls", "count", Lower),
    def("diknn-sim.new_s", "s", Lower),
    def("diknn-sim.warm_s", "s", Lower),
    def("diknn-sim.run_self_s", "s", Lower),
    def("diknn-sim.events", "count", Lower),
    def("diknn-sim.events_per_s", "1/s", Higher),
    def("diknn-sim.ev_beacon", "count", Lower),
    def("diknn-sim.ev_mac_attempt", "count", Lower),
    def("diknn-sim.ev_tx_end", "count", Lower),
    def("diknn-sim.ev_timer", "count", Lower),
    def("diknn-sim.ev_lifecycle", "count", Lower),
    def("diknn-sim.rx_deliveries", "count", Higher),
    def("diknn-sim.collisions", "count", Lower),
    def("diknn-sim.delivery_ratio", "ratio", Higher),
    def("diknn-sim.mac_attempts_per_frame", "ratio", Lower),
    def("diknn-sim.mac_drops", "count", Lower),
    def("diknn-sim.arq_retries", "count", Lower),
    def("diknn-sim.grid_refreshes", "count", Lower),
    def("diknn-sim.flow_energy_j_per_query", "J", Lower),
    def("diknn-mobility.position_at_calls", "count", Lower),
    def("diknn-mobility.position_at_per_event", "ratio", Lower),
    def("diknn-mobility.position_at_s", "s", Lower),
    def("diknn-core.callbacks", "count", Lower),
    def("diknn-core.callback_s", "s", Lower),
    def("diknn-core.callback_share", "ratio", Lower),
    def("diknn-core.tokens_reissued", "count", Lower),
    def("diknn-core.query_retries", "count", Lower),
    def("diknn-snap.snapshot_s", "s", Lower),
    def("diknn-snap.snapshot_bytes", "bytes", Lower),
    def("diknn-snap.restore_s", "s", Lower),
    def("diknn-snap.snapshots", "count", Lower),
    def("bench.traced_host_s_per_sim_s", "s/s", Lower),
    def("bench.host_slowdown", "ratio", Lower),
    def("bench.query_latency_tail_s", "s", Lower),
];

/// Per-status outcome counts, in `STATUS_ORDER`; answered statuses are
/// better higher.
pub const STATUS_NAMES: [&str; 8] = [
    "diknn-core.status.completed",
    "diknn-core.status.partial-timeout",
    "diknn-core.status.token-lost",
    "diknn-core.status.sink-unreachable",
    "diknn-core.status.pending",
    "diknn-core.status.rejected",
    "diknn-core.status.merged",
    "diknn-core.status.cache-hit",
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = LAYERS.to_vec();
    for (name, status) in STATUS_NAMES.iter().zip(STATUS_ORDER) {
        debug_assert!(name.ends_with(status.label()));
        let answered = matches!(status.label(), "completed" | "merged" | "cache-hit");
        v.push(def(name, "count", if answered { Higher } else { Lower }));
    }
    v
}

/// A JSON number, or `null` for a non-finite value.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (names and messages here are plain ASCII, but
/// quotes, backslashes and control characters are escaped anyway).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"k": v, ...}` from pre-rendered values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line automated runs read: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let metrics = object(metrics.iter().map(|(d, v)| {
        (
            d.name,
            object([("value", num(*v)), ("unit", string(d.unit))]),
        )
    }));
    object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics),
    ])
}

/// The machine block: core count and CPU model.
pub fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    object([("nproc", nproc.to_string()), ("cpu_model", string(&cpu))])
}

/// Peak resident memory of this process so far, MiB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[(END_TO_END[1], 0.25)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<MetricDef> = END_TO_END.iter().copied().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for d in &all {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` must name every metric the program prints, with the
    /// same unit and direction, in the right section.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let rest = &json[start..];
            rest[..rest.find(']').expect("section end")].to_string()
        };
        for (key, defs) in [
            ("end_to_end", END_TO_END.to_vec()),
            ("per_layer", per_layer()),
        ] {
            let text = section(key);
            assert_eq!(
                text.matches("\"name\"").count(),
                defs.len(),
                "{key}: metric count differs from the program"
            );
            for d in defs {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name,
                    d.unit,
                    d.better.as_str()
                );
                assert!(text.contains(&entry), "{key}: missing {entry}");
            }
        }
    }
}
