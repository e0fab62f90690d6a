//! Run metadata: enough to tell two results apart and to redo a run.

use crate::ablation::Ablation;
use crate::bench::{Opts, Phases, Untraced};
use crate::metrics::{num, string};
use crate::stats::quantile;
use crate::workload::Spec;

fn cpuinfo(key: &str) -> Option<String> {
    let s = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    s.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The host CPU's clock in MHz as the kernel reports it (0 if unknown).
pub fn cpu_mhz() -> f64 {
    cpuinfo("cpu MHz")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// The checkout's git revision, read from `.git` in the working
/// directory without running git; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Metadata members for the result file.
pub fn collect(
    opts: &Opts,
    spec: &Spec,
    ph: &Phases,
    a: &Untraced,
    abl: Option<&Ablation>,
    offered: u64,
) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let m = |k: &str, v: String| (k.to_string(), v);
    vec![
        m("workload", string(spec.name)),
        m("seed", opts.seed.to_string()),
        m("trace", (opts.trace as u8).to_string()),
        m("seconds", num(opts.seconds)),
        m("git_rev", string(&git_rev())),
        m("nproc", nproc.to_string()),
        m("cpu_model", string(&cpuinfo("model name").unwrap_or_default())),
        m("cpu_mhz", num(cpu_mhz())),
        m("rustc", string(env!("WIREBENCH_RUSTC"))),
        m(
            "phases_s",
            format!(
                "{{\"warmup\": {}, \"saturation\": {}, \"open_loop\": {}, \"traced\": {}, \"ablation\": {}, \"cross_thread\": {}}}",
                num(ph.warmup),
                num(ph.saturation),
                num(ph.open_loop),
                num(ph.traced),
                num(ph.ablation),
                num(ph.cross)
            ),
        ),
        m(
            "reps",
            format!(
                "{{\"setup\": {}, \"rounds\": {}, \"pps_window_s\": {}, \"latency_window_pkts\": {}, \"ablation_rounds\": {}}}",
                a.setup_s.len(),
                ph.rounds,
                num(crate::bench::PPS_WINDOW_S),
                crate::run::LATENCY_WINDOW,
                abl.map_or(0, |r| r.rounds)
            ),
        ),
        m(
            "samples",
            format!(
                "{{\"offered\": {offered}, \"saturation_packets\": {}, \"pps_windows\": {}, \"latency\": {}, \"latency_windows\": {}, \"latency_windows_voided\": {}, \"host_stalls\": {}, \"gen_lag\": {}}}",
                a.sat.packets,
                a.sat.window_pps.len(),
                a.open.samples,
                a.open.window_p99_us.len(),
                a.open.voided_windows,
                a.open.host_stalls,
                a.open.lag_ns.count()
            ),
        ),
        m("saturation_wall_pps", num(a.sat.wall_pps())),
        m("window_pps_quartiles", quartiles(&a.sat.window_pps)),
        m("window_p50_us_quartiles", quartiles(&a.open.window_p50_us)),
        m("window_p99_us_quartiles", quartiles(&a.open.window_p99_us)),
        m(
            "latency_valid_us",
            format!(
                "{{\"p50\": {}, \"p99\": {}}}",
                num(a.open.valid_ns.quantile(0.5) as f64 / 1e3),
                num(a.open.valid_ns.quantile(0.99) as f64 / 1e3)
            ),
        ),
        m(
            "latency_pooled_us",
            format!(
                "{{\"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                num(a.open.pooled_ns.quantile(0.5) as f64 / 1e3),
                num(a.open.pooled_ns.quantile(0.99) as f64 / 1e3),
                num(a.open.pooled_ns.quantile(0.999) as f64 / 1e3)
            ),
        ),
        m("batch", spec.batch.to_string()),
        m("open_loop_pps", num(spec.open_pps)),
        m("setup_s_quartiles", quartiles(&a.setup_s)),
    ]
}

/// `[q1, median, q3]` of `v`.
fn quartiles(v: &[f64]) -> String {
    let mut v = v.to_vec();
    format!(
        "[{}, {}, {}]",
        num(quantile(&mut v, 0.25)),
        num(quantile(&mut v, 0.5)),
        num(quantile(&mut v, 0.75))
    )
}
