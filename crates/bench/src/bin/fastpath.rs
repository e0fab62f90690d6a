//! E13 — the zero-allocation batched fast path.
//!
//! Measures what the mbuf pool and batched shard dispatch buy, under a
//! counting global allocator so allocator traffic per packet is a
//! first-class result, not a guess:
//!
//! * **Single-threaded plane** — clone-per-packet ingress (the historical
//!   testbench loop) vs the pooled driver loop
//!   ([`Testbench::run_router_pooled`]): ingress buffers from the
//!   router's [`MbufPool`](rp_packet::MbufPool), transmitted buffers
//!   recycled. After warm-up the pooled loop must stay off the allocator
//!   entirely (the `fresh` pool counter is exact) — gated below.
//! * **Parallel plane** — per-packet dispatch (one SPSC ring push per
//!   packet) vs [`ParallelRouter::receive_batch`] at batch sizes 1/8/64
//!   (one push per shard touched, one egress drain per batch). Gated
//!   below: batch-64 ≥ 1.3× batch-1 (batching amortizes), and the
//!   packet ledger (`DataPathStats::ledger_gap() == 0`) holds exactly
//!   on **every** row.
//!
//! Output: text tables on stdout and `BENCH_fastpath.json` (schema:
//! `bench`, `schema_version`, `workload` metadata, acceptance block, and
//! `rows` with `plane`, `variant`, `batch`, `packets`,
//! `wall_ns`, `pps_wall`, `ns_per_packet`, `allocs_per_packet`,
//! `mbuf_fresh_per_packet`, `mbuf_acquired`, `mbuf_recycled`,
//! `mbuf_fresh`, `conserved`). Exits non-zero when an acceptance gate
//! fails, so CI can run it directly.
//!
//! Run: `cargo run --release -p rp-bench --bin fastpath`

use router_core::plugins::register_builtin_factories;
use router_core::pmgr::run_script;
use router_core::{ControlPlane, ParallelRouter, ParallelRouterConfig, Router, RouterConfig};
use rp_bench::report::{write_bench_json, Json, Table};
use rp_netsim::testbench::Testbench;
use rp_netsim::traffic::{v6_host, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

const FLOWS: usize = 64;
const PKTS_PER_FLOW: usize = 200;
const REPS: usize = 40;
const WARMUP_REPS: usize = 2;
const SHARDS: usize = 4;
const BATCH_SIZES: [usize; 3] = [1, 8, 64];

/// Acceptance gates (CI fails when violated).
const MIN_BATCH64_SPEEDUP: f64 = 1.3;
const MAX_FRESH_PER_PKT: f64 = 0.01;
const MAX_ALLOCS_PER_PKT_POOLED: f64 = 0.01;

/// Pass-through allocator counting every allocation and reallocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The per-plane configuration every variant runs: a null plugin on the
/// stats gate, DRR scheduling egress — the same data path the scaling
/// bench prices.
const CONFIG_SCRIPT: &str = "load null\n\
     create null\n\
     bind stats null 0 <*, *, *, *, *, *>\n\
     load drr\n\
     create drr quantum=9180 limit=512\n\
     attach 1 drr 0\n\
     bind sched drr 0 <*, *, UDP, *, *, *>\n";

fn router_config() -> RouterConfig {
    RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    }
}

fn configure<C: ControlPlane>(cp: &mut C) {
    cp.cp_add_route(v6_host(0), 32, 1);
    run_script(cp, CONFIG_SCRIPT).expect("configure data plane");
}

fn single_router() -> Router {
    let mut r = Router::new(router_config());
    register_builtin_factories(&mut r.loader);
    configure(&mut r);
    r
}

fn parallel_router() -> ParallelRouter {
    let mut template = router_core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut pr = ParallelRouter::new(
        ParallelRouterConfig {
            shards: SHARDS,
            router: router_config(),
            ingress_depth: 1024,
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    configure(&mut pr);
    pr
}

/// One measured result, normalized per packet.
struct Row {
    plane: &'static str,
    variant: &'static str,
    batch: Option<usize>,
    conserved: bool,
    packets: u64,
    wall_ns: u64,
    ns_per_packet: f64,
    allocs_per_packet: f64,
    fresh_per_packet: f64,
    mbuf_acquired: u64,
    mbuf_recycled: u64,
    mbuf_fresh: u64,
    /// End-to-end sojourn percentiles (ingress stamp → final
    /// disposition), `None` when the variant stamped no packets.
    sojourn_p50_ns: Option<u64>,
    sojourn_p99_ns: Option<u64>,
}

fn sojourn(m: &router_core::obs::MetricsSnapshot, q: f64) -> Option<u64> {
    (m.sojourn_ns.count > 0).then(|| m.sojourn_ns.quantile(q))
}

impl Row {
    fn pps_wall(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.packets as f64 * 1e9 / self.wall_ns as f64
        }
    }

    fn json(&self) -> Json {
        Json::obj(vec![
            ("plane", Json::from(self.plane)),
            ("variant", Json::from(self.variant)),
            ("batch", self.batch.map(Json::from).unwrap_or(Json::Null)),
            ("conserved", Json::from(self.conserved)),
            ("packets", Json::from(self.packets)),
            ("wall_ns", Json::from(self.wall_ns)),
            ("pps_wall", Json::from(self.pps_wall())),
            ("ns_per_packet", Json::from(self.ns_per_packet)),
            ("allocs_per_packet", Json::from(self.allocs_per_packet)),
            ("mbuf_fresh_per_packet", Json::from(self.fresh_per_packet)),
            ("mbuf_acquired", Json::from(self.mbuf_acquired)),
            ("mbuf_recycled", Json::from(self.mbuf_recycled)),
            ("mbuf_fresh", Json::from(self.mbuf_fresh)),
            (
                "sojourn_p50_ns",
                self.sojourn_p50_ns.map_or(Json::Null, Json::from),
            ),
            (
                "sojourn_p99_ns",
                self.sojourn_p99_ns.map_or(Json::Null, Json::from),
            ),
        ])
    }
}

fn main() {
    let workload = Workload::uniform(FLOWS, PKTS_PER_FLOW, 512);
    let tb = Testbench::new(&workload);
    let per_rep = workload.total_packets() as u64;
    let measured = per_rep * REPS as u64;
    eprintln!(
        "[fastpath] {FLOWS} flows × {PKTS_PER_FLOW} pkts = {per_rep}/rep, \
         {WARMUP_REPS}+{REPS} reps per variant…"
    );

    let mut rows: Vec<Row> = Vec::new();

    // ---- single-threaded plane ------------------------------------
    {
        let mut r = single_router();
        tb.run_router(&mut r, WARMUP_REPS);
        let a0 = allocs();
        let t0 = std::time::Instant::now();
        let s = tb.run_router(&mut r, REPS);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let da = allocs() - a0;
        let m = r.metrics_snapshot();
        let st = r.stats();
        rows.push(Row {
            plane: "single",
            variant: "clone",
            batch: None,
            conserved: st.ledger_gap() == 0,
            packets: s.packets,
            wall_ns,
            ns_per_packet: s.ns_per_packet(),
            allocs_per_packet: da as f64 / s.packets as f64,
            fresh_per_packet: 0.0, // no pool on this path
            mbuf_acquired: m.mbuf_acquired,
            mbuf_recycled: m.mbuf_recycled,
            mbuf_fresh: m.mbuf_fresh,
            sojourn_p50_ns: sojourn(&m, 0.5),
            sojourn_p99_ns: sojourn(&m, 0.99),
        });
    }
    {
        let mut r = single_router();
        tb.run_router_pooled(&mut r, WARMUP_REPS);
        let p0 = r.pool_stats();
        let a0 = allocs();
        let t0 = std::time::Instant::now();
        let s = tb.run_router_pooled(&mut r, REPS);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let da = allocs() - a0;
        let p1 = r.pool_stats();
        let m = r.metrics_snapshot();
        let st = r.stats();
        rows.push(Row {
            plane: "single",
            variant: "pooled",
            batch: None,
            conserved: st.ledger_gap() == 0,
            packets: s.packets,
            wall_ns,
            ns_per_packet: s.ns_per_packet(),
            allocs_per_packet: da as f64 / s.packets as f64,
            fresh_per_packet: (p1.fresh - p0.fresh) as f64 / s.packets as f64,
            mbuf_acquired: m.mbuf_acquired,
            mbuf_recycled: m.mbuf_recycled,
            mbuf_fresh: m.mbuf_fresh,
            sojourn_p50_ns: sojourn(&m, 0.5),
            sojourn_p99_ns: sojourn(&m, 0.99),
        });
    }

    // ---- parallel plane -------------------------------------------
    {
        // One ring push per packet.
        let mut pr = parallel_router();
        tb.run_parallel(&mut pr, WARMUP_REPS);
        let a0 = allocs();
        let s = tb.run_parallel(&mut pr, REPS);
        let da = allocs() - a0;
        let m = pr.metrics_snapshot();
        let st = pr.stats();
        rows.push(Row {
            plane: "parallel",
            variant: "per-packet",
            batch: None,
            conserved: st.ledger_gap() == 0,
            packets: s.packets,
            wall_ns: s.wall_ns,
            ns_per_packet: s.ns_per_packet(),
            allocs_per_packet: da as f64 / s.packets.max(1) as f64,
            fresh_per_packet: 0.0, // clone ingress: dispatcher pool unused
            mbuf_acquired: m.mbuf_acquired,
            mbuf_recycled: m.mbuf_recycled,
            mbuf_fresh: m.mbuf_fresh,
            sojourn_p50_ns: sojourn(&m, 0.5),
            sojourn_p99_ns: sojourn(&m, 0.99),
        });
    }
    for &batch in &BATCH_SIZES {
        let mut pr = parallel_router();
        tb.run_parallel_batched(&mut pr, WARMUP_REPS, batch);
        let p0 = pr.pool_stats();
        let a0 = allocs();
        let s = tb.run_parallel_batched(&mut pr, REPS, batch);
        let da = allocs() - a0;
        let p1 = pr.pool_stats();
        let m = pr.metrics_snapshot();
        let st = pr.stats();
        rows.push(Row {
            plane: "parallel",
            variant: "batched",
            batch: Some(batch),
            conserved: st.ledger_gap() == 0,
            packets: s.packets,
            wall_ns: s.wall_ns,
            ns_per_packet: s.ns_per_packet(),
            allocs_per_packet: da as f64 / s.packets.max(1) as f64,
            fresh_per_packet: (p1.fresh - p0.fresh) as f64 / s.packets.max(1) as f64,
            mbuf_acquired: m.mbuf_acquired,
            mbuf_recycled: m.mbuf_recycled,
            mbuf_fresh: m.mbuf_fresh,
            sojourn_p50_ns: sojourn(&m, 0.5),
            sojourn_p99_ns: sojourn(&m, 0.99),
        });
    }

    // ---- report ---------------------------------------------------
    println!();
    println!("Zero-allocation batched fast path ({FLOWS}-flow UDP/IPv6 workload, {measured} packets/variant)");
    println!("(allocs/pkt counts every heap allocation during the measured phase — control");
    println!("replies, carrier growth, everything — not just mbuf buffers)");
    println!();
    let mut t = Table::new(&[
        "Plane",
        "Variant",
        "Batch",
        "pkt/s (wall)",
        "µs/pkt (CPU)",
        "allocs/pkt",
        "fresh mbufs/pkt",
        "conserved",
    ]);
    for r in &rows {
        t.row(&[
            r.plane.into(),
            r.variant.into(),
            r.batch.map(|b| b.to_string()).unwrap_or_else(|| "—".into()),
            format!("{:.0}", r.pps_wall()),
            format!("{:.2}", r.ns_per_packet / 1000.0),
            format!("{:.4}", r.allocs_per_packet),
            format!("{:.4}", r.fresh_per_packet),
            if r.conserved {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    t.print();

    // ---- acceptance -----------------------------------------------
    let find = |variant: &str, batch: Option<usize>| {
        rows.iter()
            .find(|r| r.variant == variant && r.batch == batch)
            .expect("variant measured")
    };
    let batch1 = find("batched", Some(1));
    let batch64 = find("batched", Some(64));
    let pooled = find("pooled", None);
    let speedup = if batch1.pps_wall() > 0.0 {
        batch64.pps_wall() / batch1.pps_wall()
    } else {
        0.0
    };

    let mut failures = Vec::new();
    if speedup < MIN_BATCH64_SPEEDUP {
        failures.push(format!(
            "batch-64 wall throughput {speedup:.2}× batch-1 (floor {MIN_BATCH64_SPEEDUP}×)"
        ));
    }
    for r in rows.iter().filter(|r| !r.conserved) {
        failures.push(format!(
            "packet ledger violated on {}/{}{}",
            r.plane,
            r.variant,
            r.batch.map(|b| format!("/batch-{b}")).unwrap_or_default(),
        ));
    }
    if pooled.fresh_per_packet >= MAX_FRESH_PER_PKT {
        failures.push(format!(
            "single pooled: {:.4} fresh mbufs/pkt (ceiling {MAX_FRESH_PER_PKT})",
            pooled.fresh_per_packet
        ));
    }
    if pooled.allocs_per_packet >= MAX_ALLOCS_PER_PKT_POOLED {
        failures.push(format!(
            "single pooled: {:.4} allocs/pkt (ceiling {MAX_ALLOCS_PER_PKT_POOLED})",
            pooled.allocs_per_packet
        ));
    }
    if batch64.fresh_per_packet >= MAX_FRESH_PER_PKT {
        failures.push(format!(
            "parallel batch-64: {:.4} fresh mbufs/pkt (ceiling {MAX_FRESH_PER_PKT})",
            batch64.fresh_per_packet
        ));
    }

    println!();
    println!(
        "batch-64 vs batch-1 speedup: {speedup:.2}× (floor {MIN_BATCH64_SPEEDUP}×); \
         pooled single plane: {:.4} allocs/pkt, {:.4} fresh mbufs/pkt",
        pooled.allocs_per_packet, pooled.fresh_per_packet
    );

    let extra = vec![
        (
            "workload",
            Json::obj(vec![
                ("flows", Json::from(FLOWS)),
                ("pkts_per_flow", Json::from(PKTS_PER_FLOW)),
                ("reps", Json::from(REPS)),
                ("payload_len", Json::from(512usize)),
                ("shards", Json::from(SHARDS)),
            ]),
        ),
        (
            "acceptance",
            Json::obj(vec![
                ("batch64_speedup_vs_batch1", Json::from(speedup)),
                ("min_batch64_speedup", Json::from(MIN_BATCH64_SPEEDUP)),
                (
                    "all_rows_conserved",
                    Json::from(rows.iter().all(|r| r.conserved)),
                ),
                (
                    "pooled_allocs_per_packet",
                    Json::from(pooled.allocs_per_packet),
                ),
                (
                    "max_allocs_per_packet_pooled",
                    Json::from(MAX_ALLOCS_PER_PKT_POOLED),
                ),
                (
                    "pooled_fresh_per_packet",
                    Json::from(pooled.fresh_per_packet),
                ),
                ("max_fresh_per_packet", Json::from(MAX_FRESH_PER_PKT)),
                ("pass", Json::from(failures.is_empty())),
            ]),
        ),
        ("host_cores", Json::from(num_cpus())),
    ];
    let rows_json = rows.iter().map(Row::json).collect();
    match write_bench_json("fastpath", rows_json, extra) {
        Ok(p) => eprintln!("[fastpath] wrote {}", p.display()),
        Err(e) => eprintln!("[fastpath] could not write JSON: {e}"),
    }

    if !failures.is_empty() {
        eprintln!("[fastpath] ACCEPTANCE FAILED:");
        for f in &failures {
            eprintln!("[fastpath]   - {f}");
        }
        std::process::exit(1);
    }
}

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
