//! E18 — Internet-scale state: million-flow tables over a ~900K-prefix FIB.
//!
//! The paper's testbed measured three flows against a toy routing table;
//! a default-free-zone deployment holds ~900K prefixes and millions of
//! concurrent flows. This bench drives the full data path (wildcard
//! classification at one gate, hot-prefix-cached FIB routing) across a
//! sweep of live-flow populations and gates the properties that make
//! that scale workable:
//!
//! * **Throughput flatness** — per-packet cost at the largest population
//!   stays within 20% of the 64-flow row (the incremental-resize and
//!   cache-layout work is what buys this).
//! * **Bounded memory** — the flow table's resident bytes stay under a
//!   fixed per-flow budget plus slack; growth is linear, not quadratic.
//! * **Exact conservation** — `DataPathStats::ledger_gap() == 0` on
//!   every row; nothing is lost across resizes, evictions, or cache fills.
//! * **The machinery actually engaged** — rows larger than the initial
//!   bucket array must show `flow_resize_steps > 0`, and the FIB cache
//!   must be absorbing at least half the route lookups.
//!
//! Traffic is heavy-tailed (elephants and mice): 90% of probe packets
//! go to a fixed 64-flow elephant set; the rest belong to flows drawn
//! uniformly over the whole live population, arriving in short packet
//! trains (the paper's flow-cache premise) — the regime flow and FIB
//! caches target. All generators are seeded; the run is deterministic.
//!
//! Output: a text table and `BENCH_scale.json`; any gate failure exits
//! non-zero.
//!
//! Run: `cargo run --release -p rp-bench --bin scale [-- --flows N --prefixes P]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use router_core::plugins::register_builtin_factories;
use router_core::pmgr::run_script;
use router_core::{Router, RouterConfig};
use rp_bench::report::{write_bench_json, Json, Table};
use rp_classifier::FlowTableConfig;
use rp_netsim::traffic::synthetic_fib_v4;
use rp_packet::builder::PacketSpec;
use rp_packet::Mbuf;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

const INTERFACES: u32 = 4;
const HOT_DSTS: usize = 512;
const PROBES: usize = 1 << 19;
const INITIAL_BUCKETS: usize = 1024;
/// Elephants-and-mice traffic model: this many heavy flows carry
/// `1 - MICE_SHARE` of the probe packets; the rest belong to flows drawn
/// uniformly over the whole live population.
const ELEPHANTS: usize = 64;
const MICE_SHARE: f64 = 0.10;
/// Mouse packets arrive in short trains (the paper's flow-cache premise,
/// §3.2: "packet trains"): the train's first packet takes the cold-record
/// miss, the rest ride the warmed cache lines.
const TRAIN: usize = 8;
/// Timed passes per row; the best is reported.
const REPS: usize = 5;
/// Resident flow-table budget: per-flow bytes plus fixed slack for the
/// bucket arrays and free list.
const MEM_PER_FLOW: usize = 1024;
const MEM_SLACK: usize = 64 << 20;
/// Largest row's pps must be ≥ this fraction of the 64-flow row's.
const PPS_GATE: f64 = 0.80;
/// FIB-cache hit-rate floor over a row's measure pass.
const FIB_HIT_GATE: f64 = 0.50;

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One packet template per hot destination; flows patch src/sport in.
fn templates(hot: &[Ipv4Addr]) -> Vec<Vec<u8>> {
    hot.iter()
        .map(|d| {
            PacketSpec::udp(
                IpAddr::V4(Ipv4Addr::new(11, 0, 0, 1)),
                IpAddr::V4(*d),
                1024,
                80,
                64,
            )
            .build()
        })
        .collect()
}

/// The packet of flow `i`: template for its destination with the flow's
/// source address and port patched in (checksum verification is off, so
/// no refill is needed — the paper's kernel trusts its NICs too).
fn flow_packet(tpls: &[Vec<u8>], i: usize) -> Mbuf {
    let mut buf = tpls[i % tpls.len()].clone();
    let src = 0x0B00_0000u32 | (i as u32 & 0x00FF_FFFF);
    buf[12..16].copy_from_slice(&src.to_be_bytes());
    let sport = 1024 + (i % 50_000) as u16;
    buf[20..22].copy_from_slice(&sport.to_be_bytes());
    Mbuf::new(buf, 0)
}

fn drain(r: &mut Router) -> u64 {
    let mut n = 0u64;
    for i in 0..r.interface_count() {
        n += r.take_tx(i as u32).len() as u64;
    }
    n
}

fn build_router(flows: usize) -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        flow_table: FlowTableConfig {
            buckets: INITIAL_BUCKETS,
            max_buckets: 1 << 21,
            initial_records: 4096,
            max_records: flows + 1024,
            gates: 6,
            max_idle_ns: 0,
            lru_evict: true,
        },
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    run_script(
        &mut r,
        "load null\ncreate null\nbind stats null 0 <*, *, *, *, *, *>\n",
    )
    .expect("configure router");
    r
}

struct Row {
    flows: usize,
    pps: f64,
    ns_per_pkt: f64,
    live: usize,
    mem_bytes: usize,
    resize_steps: u64,
    evicted_lru: u64,
    fib_hit_rate: f64,
    conserved: bool,
    resize_ok: bool,
    mem_ok: bool,
    wall_ns: u64,
}

/// A warmed router plus its probe schedule, ready for timed passes.
struct RowState {
    flows: usize,
    r: Router,
    idx: Vec<usize>,
    wall_ns: u64,
}

fn prepare_row(flows: usize, fib: &[(IpAddr, u8, u32)], tpls: &[Vec<u8>]) -> RowState {
    let mut r = build_router(flows);
    for (a, l, tx_if) in fib {
        r.add_route(*a, *l, *tx_if);
    }
    r.optimize_routes();

    // Warm: one packet per flow — every flow ends up live in the table,
    // driving the incremental resize through its full doubling ladder.
    for i in 0..flows {
        r.receive(flow_packet(tpls, i));
        if i % 65_536 == 65_535 {
            drain(&mut r);
        }
    }
    drain(&mut r);

    // Probe schedule: elephants-and-mice — most packets belong to a small
    // fixed set of heavy flows; mouse flows sample the whole population
    // and send TRAIN-packet bursts. The train-draw probability is set so
    // mice carry MICE_SHARE of the *packets*.
    let mut rng = StdRng::seed_from_u64(0x5CA1E + flows as u64);
    let hot_n = flows.min(ELEPHANTS);
    let t = TRAIN as f64;
    let p_train = MICE_SHARE / (t - (t - 1.0) * MICE_SHARE);
    let mut idx = Vec::with_capacity(PROBES);
    while idx.len() < PROBES {
        if rng.gen::<f64>() < p_train {
            let f = rng.gen_range(0..flows);
            for _ in 0..TRAIN.min(PROBES - idx.len()) {
                idx.push(f);
            }
        } else {
            idx.push(rng.gen_range(0..hot_n));
        }
    }
    RowState {
        flows,
        r,
        idx,
        wall_ns: u64::MAX,
    }
}

fn timed_pass(st: &mut RowState, tpls: &[Vec<u8>]) {
    let t0 = Instant::now();
    for (n, &i) in st.idx.iter().enumerate() {
        st.r.receive(flow_packet(tpls, i));
        if n % 65_536 == 65_535 {
            drain(&mut st.r);
        }
    }
    st.wall_ns = st.wall_ns.min(t0.elapsed().as_nanos() as u64);
    drain(&mut st.r);
}

fn finish_row(st: &RowState) -> Row {
    let flows = st.flows;
    let s = st.r.stats();
    let f = st.r.flow_stats();
    let c = st.r.fib_cache_stats();
    let fib_hit_rate = if c.hits + c.misses > 0 {
        c.hits as f64 / (c.hits + c.misses) as f64
    } else {
        0.0
    };
    let offered = (flows + REPS * PROBES) as u64;
    let mem_bytes = st.r.flow_mem_bytes();
    Row {
        flows,
        pps: PROBES as f64 / (st.wall_ns as f64 / 1e9),
        ns_per_pkt: st.wall_ns as f64 / PROBES as f64,
        live: f.live,
        mem_bytes,
        resize_steps: f.resize_steps,
        evicted_lru: f.evicted_lru,
        fib_hit_rate,
        conserved: s.received == offered && s.ledger_gap() == 0,
        resize_ok: flows <= INITIAL_BUCKETS || f.resize_steps > 0,
        mem_ok: mem_bytes <= flows * MEM_PER_FLOW + MEM_SLACK,
        wall_ns: st.wall_ns,
    }
}

fn main() {
    let flows = arg("--flows", 1_000_000).max(64);
    let prefixes = arg("--prefixes", 900_000);

    eprintln!("[scale] generating {prefixes}-prefix FIB…");
    let fib = synthetic_fib_v4(prefixes, INTERFACES, 0xF1B);
    // Hot destinations drawn from installed prefixes (first host in every
    // k-th prefix), so each resolves through the FIB.
    let hot: Vec<Ipv4Addr> = fib
        .iter()
        .step_by((prefixes / HOT_DSTS).max(1))
        .take(HOT_DSTS)
        .map(|(a, l, _)| {
            let IpAddr::V4(v4) = a else { unreachable!() };
            Ipv4Addr::from(u32::from(*v4) | (1u32 << (32 - *l) >> 1).max(1))
        })
        .collect();
    let tpls = templates(&hot);

    let mut counts: Vec<usize> = [64usize, 4096, 65_536, 1 << 20]
        .into_iter()
        .filter(|&c| c < flows)
        .collect();
    counts.push(flows);

    println!("E18: internet-scale state ({prefixes} prefixes, up to {flows} flows)");
    println!("(gates: pps within 20% of the 64-flow row; memory ≤ {MEM_PER_FLOW}B/flow + slack;");
    println!(" conservation exact; resize engaged; FIB-cache hit rate ≥ {FIB_HIT_GATE})");
    println!();

    let mut states = Vec::new();
    for &c in &counts {
        eprintln!("[scale] warming row: {c} flows…");
        states.push(prepare_row(c, &fib, &tpls));
    }
    // Timed passes round-robin across rows (best of REPS per row), so a
    // noisy scheduling window degrades every row alike instead of biasing
    // whichever row it landed on.
    for rep in 0..REPS {
        eprintln!("[scale] timed pass {}/{REPS}…", rep + 1);
        for st in &mut states {
            timed_pass(st, &tpls);
        }
    }
    let rows: Vec<Row> = states.iter().map(finish_row).collect();

    let base_pps = rows[0].pps;
    let mut t = Table::new(&[
        "flows",
        "ns/pkt",
        "Mpps",
        "live",
        "MB",
        "resize steps",
        "fib hit",
        "conserved",
        "gates",
    ]);
    let mut rows_json = Vec::new();
    let mut all_ok = true;
    for r in &rows {
        let pps_ok = r.flows == rows[0].flows || r.pps >= PPS_GATE * base_pps;
        let fib_ok = r.fib_hit_rate >= FIB_HIT_GATE;
        let ok = r.conserved && r.resize_ok && r.mem_ok && pps_ok && fib_ok;
        all_ok &= ok;
        t.row(&[
            r.flows.to_string(),
            format!("{:.0}", r.ns_per_pkt),
            format!("{:.2}", r.pps / 1e6),
            r.live.to_string(),
            format!("{:.1}", r.mem_bytes as f64 / 1e6),
            r.resize_steps.to_string(),
            format!("{:.3}", r.fib_hit_rate),
            if r.conserved {
                "yes".into()
            } else {
                "NO".into()
            },
            if ok { "pass".into() } else { "FAIL".into() },
        ]);
        rows_json.push(Json::obj(vec![
            ("flows", Json::from(r.flows)),
            ("pps", Json::from(r.pps)),
            ("ns_per_pkt", Json::from(r.ns_per_pkt)),
            ("live_flows", Json::from(r.live)),
            ("mem_bytes", Json::from(r.mem_bytes)),
            ("resize_steps", Json::from(r.resize_steps)),
            ("evicted_lru", Json::from(r.evicted_lru)),
            ("fib_hit_rate", Json::from(r.fib_hit_rate)),
            ("pps_vs_base", Json::from(r.pps / base_pps)),
            ("conserved", Json::from(r.conserved)),
            ("gates_ok", Json::from(ok)),
            ("wall_ns", Json::from(r.wall_ns)),
        ]));
    }
    t.print();
    println!();
    let last = rows.last().unwrap();
    println!(
        "largest row: {} live flows at {:.2} Mpps ({:.0}% of 64-flow baseline)",
        last.live,
        last.pps / 1e6,
        100.0 * last.pps / base_pps
    );
    println!("all scale gates: {}", if all_ok { "pass" } else { "FAIL" });

    let extra = vec![
        ("prefixes", Json::from(prefixes)),
        ("target_flows", Json::from(flows)),
        ("hot_dsts", Json::from(HOT_DSTS)),
        ("probes_per_row", Json::from(PROBES)),
        ("pps_gate", Json::from(PPS_GATE)),
        ("fib_hit_gate", Json::from(FIB_HIT_GATE)),
        ("mem_per_flow_budget", Json::from(MEM_PER_FLOW)),
        ("all_gates_pass", Json::from(all_ok)),
    ];
    match write_bench_json("scale", rows_json, extra) {
        Ok(p) => eprintln!("[scale] wrote {}", p.display()),
        Err(e) => eprintln!("[scale] could not write JSON: {e}"),
    }
    if !all_ok {
        std::process::exit(1);
    }
}
