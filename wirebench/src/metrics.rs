//! The metric catalogue — every metric the benchmark emits, with its
//! unit and direction — and the minimal JSON rendering of a result.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write;

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics (printed by the untraced run, `--trace 0`).
pub const END_TO_END: &[Def] = &[
    d("pps", "1/s", "higher"),
    d("latency_p50_us", "us", "lower"),
    d("latency_p99_us", "us", "lower"),
    d("setup_s", "s", "lower"),
    d("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics (printed by the traced run, `--trace 1`).
pub const PER_LAYER: &[Def] = &[
    d("netdev.rx_ns", "ns", "lower"),
    d("netdev.tx_ns", "ns", "lower"),
    d("netdev.rx_batch_mean", "count", "higher"),
    d("packet.mbuf_ns", "ns", "lower"),
    d("packet.parse_ns", "ns", "lower"),
    d("packet.allocs_per_pkt", "count", "lower"),
    d("packet.pool_fresh_per_pkt", "count", "lower"),
    d("core.validate_ns", "ns", "lower"),
    d("core.receive_ns", "ns", "lower"),
    d("core.plugin_call_ns", "ns", "lower"),
    d("core.plugin_calls_per_pkt", "count", "lower"),
    d("core.fragment_ns", "ns", "lower"),
    d("classifier.hit_ns", "ns", "lower"),
    d("classifier.miss_ns", "ns", "lower"),
    d("classifier.dag_lookup_ns", "ns", "lower"),
    d("classifier.dag_accesses", "count", "lower"),
    d("classifier.miss_ratio", "ratio", "lower"),
    d("classifier.evicted_per_kpkt", "1/kpkt", "lower"),
    d("classifier.resize_steps", "count", "lower"),
    d("classifier.flow_mem_mb", "MB", "lower"),
    d("lpm.lookup_cached_ns", "ns", "lower"),
    d("lpm.lookup_trie_ns", "ns", "lower"),
    d("lpm.cache_hit_ratio", "ratio", "higher"),
    d("lpm.route_update_us", "us", "lower"),
    d("lpm.invalidations", "count", "lower"),
    d("control.filter_bind_us", "us", "lower"),
    d("sched.enqueue_ns", "ns", "lower"),
    d("sched.dequeue_ns", "ns", "lower"),
    d("sched.pump_ns", "ns", "lower"),
    d("dataplane.dispatch_ns", "ns", "lower"),
    d("dataplane.flush_us", "us", "lower"),
    d("dataplane.take_tx_ns", "ns", "lower"),
    d("dataplane.shard_depth_max", "count", "lower"),
    d("dataplane.shed", "count", "lower"),
    d("dataplane.sojourn_p99_us", "us", "lower"),
    d("ring.push_ns", "ns", "lower"),
    d("ring.pop_ns", "ns", "lower"),
    d("gen.lag_us_p99", "us", "lower"),
    d("trace.stage_sum_ratio", "ratio", "higher"),
    d("trace.overhead_pct", "%", "lower"),
    d("drop_frac", "ratio", "lower"),
    d("ablation.best_effort_ns", "ns", "lower"),
    d("ablation.framework_ns", "ns", "lower"),
    d("ablation.altq_drr_ns", "ns", "lower"),
    d("ablation.plugin_drr_ns", "ns", "lower"),
    d("ablation.best_effort_cycles", "cycles", "lower"),
    d("ablation.framework_cycles", "cycles", "lower"),
    d("ablation.altq_drr_cycles", "cycles", "lower"),
    d("ablation.plugin_drr_cycles", "cycles", "lower"),
    d("ablation.framework_overhead_pct", "%", "lower"),
    d("ablation.plugin_drr_vs_altq_pct", "%", "lower"),
    d("ablation.drr_overhead_pct", "%", "lower"),
];

/// Metrics the benchmark's specification names but does not emit, with
/// the reason. Empty: every named metric is emitted. (`drop_frac` is a
/// per-layer metric rather than an end-to-end one because it is 0 by
/// design, and a metric that never moves has no spread to bound; every
/// run still carries the same count as its `failed` field.)
#[cfg_attr(not(test), allow(dead_code))]
pub const DROPPED: &[(&str, &str)] = &[];

/// Look a metric up by name.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric values of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    /// Set a metric; panics on a name outside the catalogue (a bug).
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(def(name).is_some(), "metric {name} is not in the catalogue");
        self.0.insert(name, if v.is_finite() { v } else { 0.0 });
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A JSON number: finite values as Rust prints them (every digit), 0
/// otherwise.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `defs`, each with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, defs: &[Def], v: &Values) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(v.get(m.name).unwrap_or(0.0)),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric named in the benchmark's specification (the issue
    /// that defined it), end to end and per layer.
    const SPECIFIED: &[&str] = &[
        "pps",
        "latency_p50_us",
        "latency_p99_us",
        "drop_frac",
        "setup_s",
        "peak_rss_mb",
        "netdev.rx_ns",
        "netdev.tx_ns",
        "netdev.rx_batch_mean",
        "packet.mbuf_ns",
        "packet.parse_ns",
        "packet.allocs_per_pkt",
        "packet.pool_fresh_per_pkt",
        "core.validate_ns",
        "core.receive_ns",
        "core.plugin_call_ns",
        "core.plugin_calls_per_pkt",
        "core.fragment_ns",
        "classifier.hit_ns",
        "classifier.miss_ns",
        "classifier.dag_lookup_ns",
        "classifier.dag_accesses",
        "classifier.miss_ratio",
        "classifier.evicted_per_kpkt",
        "classifier.resize_steps",
        "classifier.flow_mem_mb",
        "lpm.lookup_cached_ns",
        "lpm.lookup_trie_ns",
        "lpm.cache_hit_ratio",
        "lpm.route_update_us",
        "lpm.invalidations",
        "control.filter_bind_us",
        "sched.enqueue_ns",
        "sched.dequeue_ns",
        "sched.pump_ns",
        "dataplane.dispatch_ns",
        "dataplane.flush_us",
        "dataplane.take_tx_ns",
        "dataplane.shard_depth_max",
        "dataplane.shed",
        "dataplane.sojourn_p99_us",
        "ring.push_ns",
        "ring.pop_ns",
        "gen.lag_us_p99",
        "trace.stage_sum_ratio",
        "trace.overhead_pct",
    ];

    #[test]
    fn every_specified_metric_is_emitted_or_dropped_with_a_reason() {
        for name in SPECIFIED {
            let emitted = def(name).is_some_and(|m| !m.unit.is_empty());
            let dropped = DROPPED.iter().any(|(n, why)| n == name && !why.is_empty());
            assert!(emitted || dropped, "{name} is neither emitted nor dropped");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut listed = 0;
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            listed += 1;
        }
        assert_eq!(json.matches("\"better\"").count(), listed);
        let names: std::collections::HashSet<_> =
            END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert_eq!(names.len(), listed, "duplicate metric name");
    }

    #[test]
    fn result_line_shape() {
        let mut v = Values::default();
        v.set("pps", 1234.5);
        let line = result_line(true, 10, 0, &END_TO_END[..1], &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"pps\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }
}
