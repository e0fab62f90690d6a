//! E14 — adversarial traffic resilience: heavy-tailed load balancing,
//! flow-table thrash defense, and a compressed chaos soak.
//!
//! Scenarios (each a gated row):
//!
//! 1. **Elephants** — a staggered heavy-tailed workload (few elephants,
//!    many mice) through the single router, the hash-placed parallel
//!    plane, and the load-aware (steered) parallel plane. Gate: the
//!    steered plane's shard imbalance (max/mean packets) stays ≤ 1.5.
//! 2. **SYN flood** — a one-packet-flow flood against a tiny
//!    admission-controlled flow table while 32 established flows keep
//!    talking, on both planes. Gates: zero established-flow loss,
//!    admission denials observed, zero established records recycled.
//! 3. **Fragment flood** — interleaved fragments of many datagrams, on
//!    both planes. Gate: conservation with bounded table occupancy.
//! 4. **Chaos soak** — a compressed multi-phase soak on the steered
//!    parallel plane cycling all three workloads while a chaos plugin
//!    panics/drops/stalls, shards are killed and journal-rebuilt, and
//!    the simulated clock advances past the idle window. Gates:
//!    conservation, bounded flow-table occupancy at every phase
//!    boundary, and the faults actually fired (restarts observed).
//! 5. **Link soak** — the single-threaded plane in a two-node topology
//!    with link down/loss/corruption faults. Gate: end-to-end
//!    conservation including the link-fault counters.
//! 6. **Device chaos** — the full I/O plane (supervised devices under
//!    [`FaultyDev`] wrappers) soaked with flapping devices and a
//!    mid-run shard kill. Gates: exact *wire-level* conservation, at
//!    least one quarantine→reopen cycle, and the hard-error/backpressure
//!    ledger split visible.
//!
//! Rows that stamp ingress also carry the end-to-end p99 sojourn
//! (ingress stamp → shard dequeue), gated against a generous ceiling so
//! a scheduling regression that parks packets in queues fails loudly.
//!
//! Every row also checks the universal ledger
//! `received == forwarded + Σdrops`. Any gate failure exits non-zero.
//!
//! Output: a text table on stdout and `BENCH_adversarial.json`.
//!
//! Run: `cargo run --release -p rp-bench --bin adversarial`

use router_core::dataplane::SteerConfig;
use router_core::plugins::register_builtin_factories;
use router_core::pmgr::{run_command, run_script};
use router_core::supervisor::HealthState;
use router_core::{ControlPlane, ParallelRouter, ParallelRouterConfig, Router, RouterConfig};
use rp_bench::report::{write_bench_json, Json, Table};
use rp_classifier::FlowTableConfig;
use rp_netsim::topology::{Port, Topology};
use rp_netsim::traffic::{fragment_flood, v6_host, Workload};
use rp_packet::{FlowTuple, Mbuf};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const FT_CAP: usize = 64;
const IDLE_NS: u64 = 5_000_000;
const BALANCE_GATE: f64 = 1.5;
/// End-to-end p99 sojourn ceiling (wall ns, ingress stamp → dequeue).
/// Generous — CI machines are noisy — but a plane that parks packets
/// for a quarter second under these loads is broken, not slow.
const SOJOURN_GATE_NS: u64 = 250_000_000;

/// Wildcard-classified, routed rig (classification on every packet).
const RIG_SCRIPT: &str = "load null\n\
     create null\n\
     bind stats null 0 <*, *, *, *, *, *>\n\
     route 2001:db8::/32 1\n\
     route 10.0.0.0/8 1\n";

/// Soak rig: adds a chaos instance on a narrow filter so fault modes can
/// be cycled at runtime without touching the bulk of the traffic.
const SOAK_SCRIPT: &str = "load null\n\
     create null\n\
     bind stats null 0 <*, *, *, *, *, *>\n\
     load chaos\n\
     create chaos mode=none\n\
     bind fw chaos 0 <*, *, UDP, *, 7777, *>\n\
     route 2001:db8::/32 1\n\
     route 10.0.0.0/8 1\n";

fn defended_flow_table() -> FlowTableConfig {
    FlowTableConfig {
        buckets: 256,
        initial_records: 32,
        max_records: FT_CAP,
        max_idle_ns: IDLE_NS,
        ..FlowTableConfig::default()
    }
}

fn defended_router_config() -> RouterConfig {
    RouterConfig {
        // Off so fragment floods exercise the fragment-keyed classifier
        // path instead of the checksum gate (a first fragment's UDP
        // checksum covers the original, unfragmented payload).
        verify_checksums: false,
        flow_table: defended_flow_table(),
        ..RouterConfig::default()
    }
}

fn single_router() -> Router {
    let mut r = Router::new(defended_router_config());
    register_builtin_factories(&mut r.loader);
    run_script(&mut r, RIG_SCRIPT).expect("configure single router");
    r
}

fn parallel_router(steer: Option<SteerConfig>, script: &str) -> ParallelRouter {
    let mut template = router_core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut pr = ParallelRouter::new(
        ParallelRouterConfig {
            shards: SHARDS,
            router: defended_router_config(),
            ingress_depth: 4096,
            steer,
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    run_script(&mut pr, script).expect("configure parallel router");
    pr
}

/// Heavy-tailed workload with *staggered* flow arrivals and heavy-tailed
/// per-flow **rates**: flow `i` is born at round `2i` and then sends a
/// fixed burst every round for `dur` rounds — mice a packet or two per
/// round, elephants up to 32× that. The load picture builds up the way
/// live traffic does, so when a later flow is born the steerer can see
/// which shards currently host elephants.
fn staggered_heavy_tailed(flows: usize, dur: usize, payload: usize, seed: u64) -> Vec<Mbuf> {
    let wl = Workload::heavy_tailed(flows, dur, payload, seed);
    let templates: Vec<Mbuf> = wl
        .flows
        .iter()
        .map(|f| {
            Mbuf::new(
                rp_packet::builder::PacketSpec::udp(f.src, f.dst, f.sport, f.dport, f.payload_len)
                    .build(),
                f.rx_if,
            )
        })
        .collect();
    // Per-round burst: the heavy-tailed totals spread over `dur` rounds,
    // clamped so no single flow can exceed a shard's fair share on its
    // own (a flow cannot be split across shards by any placement).
    let bursts: Vec<usize> = wl
        .flows
        .iter()
        .map(|f| (f.count / dur).clamp(1, 32))
        .collect();
    let spread = 2usize;
    let mut out = Vec::new();
    for round in 0..(flows - 1) * spread + dur {
        for i in 0..flows {
            let start = i * spread;
            if round >= start && round < start + dur {
                for _ in 0..bursts[i] {
                    out.push(templates[i].clone());
                }
            }
        }
    }
    out
}

struct Row {
    scenario: String,
    plane: &'static str,
    offered: u64,
    wire: u64,
    dropped: u64,
    denied: u64,
    balance: Option<f64>,
    occupancy_max: u64,
    occupancy_cap: u64,
    conserved: bool,
    gates_ok: bool,
    /// End-to-end p99 sojourn (None when the scenario does not stamp).
    p99_sojourn_ns: Option<u64>,
    detail: String,
    wall_ns: u64,
}

impl Row {
    fn ok(&self) -> bool {
        self.conserved
            && self.gates_ok
            && self.occupancy_max <= self.occupancy_cap
            && self.p99_sojourn_ns.is_none_or(|p| p <= SOJOURN_GATE_NS)
    }
}

/// Clone a template with a fresh ingress wall-clock stamp, the way the
/// I/O plane stamps frames at `poll_rx`.
fn stamped(m: &Mbuf) -> Mbuf {
    let mut m = m.clone();
    m.timestamp_ns = rp_packet::coarse_now_ns();
    m
}

fn p99_of(m: &router_core::obs::MetricsSnapshot) -> Option<u64> {
    (m.sojourn_ns.count > 0).then(|| m.sojourn_ns.quantile(0.99))
}

fn drain_parallel(pr: &mut ParallelRouter) -> Vec<Mbuf> {
    pr.flush();
    let mut tx = Vec::new();
    for i in 0..pr.interface_count() {
        tx.extend(pr.take_tx(i as u32));
    }
    tx
}

fn drain_single(r: &mut Router) -> Vec<Mbuf> {
    let mut tx = Vec::new();
    for i in 0..r.interface_count() {
        tx.extend(r.take_tx(i as u32));
    }
    tx
}

fn balance_of(shard_packets: &[u64]) -> f64 {
    let total: u64 = shard_packets.iter().sum();
    if total == 0 || shard_packets.is_empty() {
        return 1.0;
    }
    let max = *shard_packets.iter().max().unwrap() as f64;
    max / (total as f64 / shard_packets.len() as f64)
}

// ---------------------------------------------------------------------
// Scenario 1: elephants
// ---------------------------------------------------------------------

fn elephants_single(pkts: &[Mbuf]) -> Row {
    let mut r = single_router();
    let t0 = Instant::now();
    for p in pkts {
        let m = stamped(p);
        let wall = m.timestamp_ns;
        r.receive_stamped(m, wall);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let wire = drain_single(&mut r).len() as u64;
    let s = r.stats();
    let f = r.flow_stats();
    let p99_sojourn_ns = p99_of(&r.metrics_snapshot());
    Row {
        scenario: "elephants".into(),
        plane: "single",
        offered: pkts.len() as u64,
        wire,
        dropped: s.dropped_total(),
        denied: f.denied,
        balance: None,
        occupancy_max: f.live as u64,
        occupancy_cap: FT_CAP as u64,
        conserved: s.received == pkts.len() as u64 && s.received == s.forwarded + s.dropped_total(),
        gates_ok: true,
        p99_sojourn_ns,
        detail: String::new(),
        wall_ns,
    }
}

fn elephants_parallel(pkts: &[Mbuf], steer: Option<SteerConfig>) -> Row {
    let steered = steer.is_some();
    let mut pr = parallel_router(steer, RIG_SCRIPT);
    let before = pr.shard_reports();
    let t0 = Instant::now();
    for (n, p) in pkts.iter().enumerate() {
        pr.receive(stamped(p));
        if n % 1024 == 1023 {
            pr.flush(); // pace: elephants must not overflow a FIFO
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let wire = drain_parallel(&mut pr).len() as u64;
    let after = pr.shard_reports();
    let shard_packets: Vec<u64> = before
        .iter()
        .zip(&after)
        .map(|(b, a)| a.packets.saturating_sub(b.packets))
        .collect();
    let balance = balance_of(&shard_packets);
    let s = pr.stats();
    let f = pr.flow_stats();
    let p99_sojourn_ns = p99_of(&pr.metrics_snapshot());
    let gates_ok = !steered || balance <= BALANCE_GATE;
    let steer_note = pr
        .steer_stats()
        .map(|st| {
            format!(
                ", steered={} untracked={} elephants={}",
                st.steered, st.untracked, st.elephants
            )
        })
        .unwrap_or_default();
    Row {
        scenario: "elephants".into(),
        plane: if steered {
            "parallel steered"
        } else {
            "parallel hash"
        },
        offered: pkts.len() as u64,
        wire,
        dropped: s.dropped_total(),
        denied: f.denied,
        balance: Some(balance),
        occupancy_max: f.live as u64,
        occupancy_cap: (SHARDS * FT_CAP) as u64,
        conserved: s.received == pkts.len() as u64 && s.received == s.forwarded + s.dropped_total(),
        gates_ok,
        p99_sojourn_ns,
        detail: format!("shard packets {shard_packets:?}{steer_note}"),
        wall_ns,
    }
}

// ---------------------------------------------------------------------
// Scenario 2: SYN flood (one-packet flows vs established flows)
// ---------------------------------------------------------------------

fn established_packet(i: u16) -> Mbuf {
    Mbuf::new(
        rp_packet::builder::PacketSpec::udp(v6_host(10 + i), v6_host(200), 4000 + i, 80, 256)
            .build(),
        0,
    )
}

fn count_established(tx: &[Mbuf]) -> u64 {
    tx.iter()
        .filter(|m| {
            FlowTuple::from_mbuf(m)
                .map(|t| {
                    // Flood sports can collide with the established range;
                    // the destination host disambiguates.
                    t.dst == v6_host(200) && t.dport == 80 && (4000..4032).contains(&t.sport)
                })
                .unwrap_or(false)
        })
        .count() as u64
}

/// Drive the flood against either plane through one closure interface.
#[allow(clippy::too_many_arguments)]
fn syn_flood<R>(
    plane: &'static str,
    cap: u64,
    mut receive: impl FnMut(&mut R, Mbuf),
    mut set_time: impl FnMut(&mut R, u64),
    rig: &mut R,
    drain: impl FnOnce(&mut R) -> Vec<Mbuf>,
    stats: impl FnOnce(
        &mut R,
    ) -> (
        router_core::ip_core::DataPathStats,
        rp_classifier::flow_table::FlowTableStats,
    ),
    p99: impl FnOnce(&mut R) -> Option<u64>,
) -> Row {
    let mut sent_established = 0u64;
    set_time(rig, 0);
    for i in 0..32u16 {
        receive(rig, stamped(&established_packet(i)));
        sent_established += 1;
    }
    let flood = Workload::one_packet_flood(4000, 64, 0xF100D).build();
    let offered = 32 + flood.len() as u64 + (flood.len() as u64 / 200) * 32 + 32;
    let mut now = 1_000_000u64;
    let t0 = Instant::now();
    for (n, pkt) in flood.into_iter().enumerate() {
        now += 10_000;
        receive(rig, stamped(&pkt));
        if n % 200 == 199 {
            set_time(rig, now);
            for i in 0..32u16 {
                receive(rig, stamped(&established_packet(i)));
                sent_established += 1;
            }
        }
    }
    set_time(rig, now);
    for i in 0..32u16 {
        receive(rig, stamped(&established_packet(i)));
        sent_established += 1;
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let tx = drain(rig);
    let delivered_established = count_established(&tx);
    let (s, f) = stats(rig);
    let p99_sojourn_ns = p99(rig);
    let zero_loss = delivered_established == sent_established;
    let gates_ok = zero_loss && f.denied > 0 && f.recycled == 0;
    Row {
        scenario: "syn flood".into(),
        plane,
        offered,
        wire: tx.len() as u64,
        dropped: s.dropped_total(),
        denied: f.denied,
        balance: None,
        occupancy_max: f.live as u64,
        occupancy_cap: cap,
        conserved: s.received == offered && s.received == s.forwarded + s.dropped_total(),
        gates_ok,
        p99_sojourn_ns,
        detail: format!(
            "established {delivered_established}/{sent_established}, inline_expired={}",
            f.inline_expired
        ),
        wall_ns,
    }
}

// ---------------------------------------------------------------------
// Scenario 3: fragment flood
// ---------------------------------------------------------------------

fn frag_flood_single(pkts: &[Mbuf]) -> Row {
    let mut r = single_router();
    let t0 = Instant::now();
    for p in pkts {
        r.receive(p.clone());
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let wire = drain_single(&mut r).len() as u64;
    let s = r.stats();
    let f = r.flow_stats();
    Row {
        scenario: "frag flood".into(),
        plane: "single",
        offered: pkts.len() as u64,
        wire,
        dropped: s.dropped_total(),
        denied: f.denied,
        balance: None,
        occupancy_max: f.live as u64,
        occupancy_cap: FT_CAP as u64,
        conserved: s.received == pkts.len() as u64 && s.received == s.forwarded + s.dropped_total(),
        gates_ok: true,
        p99_sojourn_ns: None,
        detail: String::new(),
        wall_ns,
    }
}

fn frag_flood_parallel(pkts: &[Mbuf]) -> Row {
    let mut pr = parallel_router(Some(SteerConfig::default()), RIG_SCRIPT);
    let t0 = Instant::now();
    for (n, p) in pkts.iter().enumerate() {
        pr.receive(p.clone());
        if n % 1024 == 1023 {
            pr.flush();
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let wire = drain_parallel(&mut pr).len() as u64;
    let s = pr.stats();
    let f = pr.flow_stats();
    Row {
        scenario: "frag flood".into(),
        plane: "parallel steered",
        offered: pkts.len() as u64,
        wire,
        dropped: s.dropped_total(),
        denied: f.denied,
        balance: None,
        occupancy_max: f.live as u64,
        occupancy_cap: (SHARDS * FT_CAP) as u64,
        conserved: s.received == pkts.len() as u64 && s.received == s.forwarded + s.dropped_total(),
        gates_ok: true,
        p99_sojourn_ns: None,
        detail: String::new(),
        wall_ns,
    }
}

// ---------------------------------------------------------------------
// Scenario 4: chaos soak (parallel plane)
// ---------------------------------------------------------------------

fn wait_for_restart(pr: &mut ParallelRouter, restarts_before: u32) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = pr.cp_shard_status();
        let restarted = status.iter().map(|s| s.restarts).sum::<u32>() > restarts_before;
        let all_serving = status.iter().all(|s| s.health != HealthState::Quarantined);
        if (restarted && all_serving) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn chaos_soak() -> Row {
    let mut pr = parallel_router(Some(SteerConfig::default()), SOAK_SCRIPT);
    let chaos_modes = ["panic-once", "drop every=7", "stall cost=20000", "none"];
    let mut offered = 0u64;
    let mut occupancy_max = 0u64;
    let mut now = 0u64;
    let mut wire = 0u64;
    let t0 = Instant::now();

    let heavy = staggered_heavy_tailed(64, 8, 256, 0x50AC);
    let flood = Workload::one_packet_flood(1500, 64, 0x50AD).build();
    let frags = fragment_flood(150, 3000, 600, 0x50AE);

    // Probe flow matched by the chaos filter (dport 7777): keeps the
    // fault plugin in the traffic path so its mode actually bites.
    let probe = Mbuf::new(
        rp_packet::builder::PacketSpec::udp(v6_host(50), v6_host(300), 7000, 7777, 64).build(),
        0,
    );
    for cycle in 0..3u32 {
        for (phase, pkts) in [&heavy, &flood, &frags].into_iter().enumerate() {
            // Cycle the chaos instance's fault mode (plugin faults) and
            // kill one shard mid-phase (shard faults + journal rebuild).
            let mode = chaos_modes[(cycle as usize + phase) % chaos_modes.len()];
            let _ = run_command(&mut pr, &format!("msg chaos 0 set mode={mode}"));
            let restarts_before: u32 = pr.cp_shard_status().iter().map(|s| s.restarts).sum();
            let victim = (cycle as usize + phase) % SHARDS;

            for (n, p) in pkts.iter().enumerate() {
                if n == pkts.len() / 2 {
                    let _ = pr.cp_shard_kill(victim);
                }
                pr.receive(stamped(p));
                offered += 1;
                if n % 100 == 99 {
                    pr.receive(stamped(&probe));
                    offered += 1;
                }
                if n % 512 == 511 {
                    pr.flush();
                }
            }
            wait_for_restart(&mut pr, restarts_before);
            // Sample peak occupancy before the idle sweep: the gate is
            // that the table stays bounded *while under attack*.
            pr.flush();
            let f = pr.flow_stats();
            occupancy_max = occupancy_max.max(f.live as u64);
            // Advance the simulated clock past the idle window between
            // phases so admission reclaim and idle expiry both engage.
            now += IDLE_NS + 1;
            pr.set_time_ns(now);
            pr.expire_idle_flows(IDLE_NS);
            wire += drain_parallel(&mut pr).len() as u64;
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let s = pr.stats();
    let f = pr.flow_stats();
    let p99_sojourn_ns = p99_of(&pr.metrics_snapshot());
    let restarts: u32 = pr.cp_shard_status().iter().map(|s| s.restarts).sum();
    // The soak must have genuinely hurt: shards restarted, admission
    // engaged, and the injected plugin/shard faults produced counted
    // (never silent) drops.
    let gates_ok = restarts > 0 && f.denied > 0 && s.dropped_total() > 0;
    Row {
        scenario: "chaos soak".into(),
        plane: "parallel steered",
        offered,
        wire,
        dropped: s.dropped_total(),
        denied: f.denied,
        balance: None,
        occupancy_max,
        occupancy_cap: (SHARDS * FT_CAP) as u64,
        conserved: s.received == offered && s.received == s.forwarded + s.dropped_total(),
        gates_ok,
        p99_sojourn_ns,
        detail: format!("restarts={restarts}, inline_expired={}", f.inline_expired),
        wall_ns,
    }
}

// ---------------------------------------------------------------------
// Scenario 5: link soak (single plane, two-node topology)
// ---------------------------------------------------------------------

fn link_soak() -> Row {
    let mut topo = Topology::new();
    let mk = || {
        let mut r = Router::new(defended_router_config());
        register_builtin_factories(&mut r.loader);
        run_script(
            &mut r,
            "load null\ncreate null\nbind stats null 0 <*, *, *, *, *, *>\n",
        )
        .expect("configure node");
        r
    };
    let a = topo.add_node(mk());
    let b = topo.add_node(mk());
    let a_up = Port { node: a, iface: 1 };
    let b_in = Port { node: b, iface: 0 };
    topo.connect(a_up, b_in);
    topo.attach_network(b_in.node_port(1), v6_host(0), 32);
    topo.install_routes();

    let mut offered = 0u64;
    let t0 = Instant::now();
    let phases: [(&str, u64, u64, bool); 4] = [
        ("clean", 0, 0, false),
        ("loss", 7, 0, false),
        ("corrupt", 0, 11, false),
        ("down+up", 0, 0, true),
    ];
    for (pi, (_, loss, corrupt, down_mid)) in phases.iter().enumerate() {
        topo.set_link_loss(a_up, *loss);
        topo.set_link_corruption(a_up, *corrupt);
        let heavy = staggered_heavy_tailed(32, 6, 256, 0x11A0 + pi as u64);
        for (n, p) in heavy.iter().enumerate() {
            if *down_mid && n == heavy.len() / 3 {
                topo.set_link_down(a_up, true);
            }
            if *down_mid && n == 2 * heavy.len() / 3 {
                topo.set_link_down(a_up, false);
            }
            let _ = topo.inject(Port { node: a, iface: 0 }, p.data().to_vec());
            offered += 1;
            topo.run_until_idle(16);
        }
        topo.set_link_down(a_up, false);
    }
    topo.run_until_idle(64);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let delivered = topo.take_delivered(b).len() as u64;
    let sa = topo.node_mut(a).stats();
    let fa = topo.node_mut(a).flow_stats();
    let sb = topo.node_mut(b).stats();
    // End-to-end ledger: everything injected is delivered, dropped at a
    // node (counted), or eaten by an injected link fault (counted).
    let conserved = offered
        == delivered + sa.dropped_total() + sb.dropped_total() + topo.lost_to_faults
        && sa.received == sa.forwarded + sa.dropped_total()
        && sb.received == sb.forwarded + sb.dropped_total();
    Row {
        scenario: "link soak".into(),
        plane: "single topo",
        offered,
        wire: delivered,
        dropped: sa.dropped_total() + sb.dropped_total() + topo.lost_to_faults,
        denied: fa.denied,
        balance: None,
        occupancy_max: fa.live as u64,
        occupancy_cap: FT_CAP as u64,
        conserved,
        gates_ok: topo.lost_to_faults > 0 && topo.corrupted_by_faults > 0,
        p99_sojourn_ns: None,
        detail: format!(
            "link lost={}, corrupted={}",
            topo.lost_to_faults, topo.corrupted_by_faults
        ),
        wall_ns,
    }
}

// ---------------------------------------------------------------------
// Scenario 6: device chaos (supervised I/O plane, FaultyDev wrappers)
// ---------------------------------------------------------------------

fn device_chaos() -> Row {
    use rp_netdev::loopback::LoopbackDev;
    use rp_netdev::{DeviceSupervisorConfig, FaultProgram, FaultyDev, IoPlane};

    const PACKETS: usize = 8_000;
    const CHUNK: usize = 200;

    let (ingress, _peer_in) = LoopbackDev::pair("lo-in", "peer-in", 1 << 15);
    let (egress, _peer_out) = LoopbackDev::pair("lo-out", "peer-out", 1 << 15);
    let in_handle = ingress.handle();
    let out_handle = egress.handle();
    let (f_in, ctl_in) = FaultyDev::wrap(Box::new(ingress));
    let (f_out, ctl_out) = FaultyDev::wrap(Box::new(egress));

    let mut plane = IoPlane::new(
        parallel_router(Some(SteerConfig::default()), RIG_SCRIPT),
        CHUNK,
    );
    plane.bind(0, Box::new(f_in));
    plane.bind(1, Box::new(f_out));
    plane.supervise(DeviceSupervisorConfig {
        error_threshold: 8,
        error_window_polls: 16,
        rx_stall_polls: u32::MAX,
        quarantine_after: 4,
        recover_after: 2,
        backoff_initial: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
    });

    let wl = Workload::uniform(32, PACKETS / 32, 256);
    let pkts = wl.build();
    let offered = pkts.len() as u64;
    let n_chunks = pkts.len().div_ceil(CHUNK);
    let t0 = Instant::now();
    for (ci, chunk) in pkts.chunks(CHUNK).enumerate() {
        if ci == n_chunks / 8 {
            ctl_in.update(|p| p.drop_rx_every = 5);
        }
        if ci == n_chunks / 4 {
            ctl_in.set(FaultProgram::default());
        }
        if ci == n_chunks / 3 {
            ctl_out.update(|p| {
                p.fail_tx = true;
                p.heal_on_reopen = true;
            });
        }
        if ci == n_chunks / 2 {
            let _ = plane.plane_mut().cp_shard_kill(ci % SHARDS);
        }
        for pkt in chunk {
            let _ = in_handle.inject(pkt.data());
        }
        plane.poll();
        plane.poll();
        while out_handle.drain_tx().is_some() {}
        if plane
            .device_rows()
            .iter()
            .any(|r| r.health == Some(HealthState::Quarantined))
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Heal everything and settle.
    ctl_in.set(FaultProgram::default());
    ctl_out.set(FaultProgram::default());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        plane.poll_until_quiet(4, 200);
        while out_handle.drain_tx().is_some() {}
        let rows = plane.device_rows();
        if rows
            .iter()
            .all(|r| r.health != Some(HealthState::Quarantined))
            || Instant::now() >= deadline
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    plane.poll_until_quiet(4, 1000);
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let rows = plane.device_rows();
    let quarantines: u64 = rows.iter().map(|r| r.quarantines).sum();
    let reopens: u64 = rows.iter().map(|r| r.reopens).sum();
    let led = plane.ledger();
    let conserved =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plane.check_conservation()))
            .is_ok();
    let s = plane.plane().stats_read();
    let f = plane.plane_mut().flow_stats();
    let p99_sojourn_ns = p99_of(&plane.plane_mut().metrics_snapshot());
    let gates_ok = quarantines >= 1 && reopens >= 1 && led.tx_errors + led.tx_dropped > 0;
    Row {
        scenario: "device chaos".into(),
        plane: "ioplane steered",
        offered,
        wire: led.device_tx,
        dropped: s.dropped_total(),
        denied: f.denied,
        balance: None,
        occupancy_max: f.live as u64,
        occupancy_cap: (SHARDS * FT_CAP) as u64,
        conserved,
        gates_ok,
        p99_sojourn_ns,
        detail: format!(
            "quarantines={} reopens={} ledger: rx={} tx={} tx_errors={} tx_dropped={}",
            quarantines, reopens, led.device_rx, led.device_tx, led.tx_errors, led.tx_dropped
        ),
        wall_ns,
    }
}

trait PortExt {
    fn node_port(&self, iface: u32) -> Port;
}
impl PortExt for Port {
    fn node_port(&self, iface: u32) -> Port {
        Port {
            node: self.node,
            iface,
        }
    }
}

// ---------------------------------------------------------------------

fn main() {
    let mut rows = Vec::new();

    eprintln!("[adversarial] elephants…");
    let heavy = staggered_heavy_tailed(96, 16, 512, 0xE1E);
    rows.push(elephants_single(&heavy));
    rows.push(elephants_parallel(&heavy, None));
    rows.push(elephants_parallel(&heavy, Some(SteerConfig::default())));

    eprintln!("[adversarial] syn flood…");
    {
        let mut r = single_router();
        rows.push(syn_flood(
            "single",
            FT_CAP as u64,
            |r: &mut Router, m| {
                let wall = m.timestamp_ns;
                r.receive_stamped(m, wall);
            },
            |r, t| r.set_time_ns(t),
            &mut r,
            drain_single,
            |r| (r.stats(), r.flow_stats()),
            |r| p99_of(&r.metrics_snapshot()),
        ));
    }
    {
        let mut pr = parallel_router(None, RIG_SCRIPT);
        rows.push(syn_flood(
            "parallel",
            (SHARDS * FT_CAP) as u64,
            |pr: &mut ParallelRouter, m| {
                pr.receive(m);
            },
            |pr, t| pr.set_time_ns(t),
            &mut pr,
            drain_parallel,
            |pr| (pr.stats(), pr.flow_stats()),
            |pr| p99_of(&pr.metrics_snapshot()),
        ));
    }

    eprintln!("[adversarial] fragment flood…");
    let frags = fragment_flood(400, 4000, 600, 0xF7A6);
    rows.push(frag_flood_single(&frags));
    rows.push(frag_flood_parallel(&frags));

    eprintln!("[adversarial] chaos soak…");
    rows.push(chaos_soak());

    eprintln!("[adversarial] link soak…");
    rows.push(link_soak());

    eprintln!("[adversarial] device chaos…");
    rows.push(device_chaos());

    println!();
    println!("Adversarial traffic resilience ({SHARDS} shards, flow-table cap {FT_CAP}/shard, idle window {}ms)", IDLE_NS / 1_000_000);
    println!("(every row: received == forwarded + Σdrops; steered elephants: max/mean ≤ {BALANCE_GATE}; flood: zero established loss)");
    println!();
    let mut t = Table::new(&[
        "Scenario",
        "plane",
        "offered",
        "wire",
        "dropped",
        "denied",
        "balance",
        "occupancy",
        "p99 sojourn",
        "conserved",
        "gates",
    ]);
    let mut rows_json = Vec::new();
    let mut all_ok = true;
    for r in &rows {
        let ok = r.ok();
        all_ok &= ok;
        t.row(&[
            r.scenario.clone(),
            r.plane.to_string(),
            r.offered.to_string(),
            r.wire.to_string(),
            r.dropped.to_string(),
            r.denied.to_string(),
            r.balance.map_or("-".into(), |b| format!("{b:.2}")),
            format!("{}/{}", r.occupancy_max, r.occupancy_cap),
            r.p99_sojourn_ns
                .map_or("-".into(), |p| format!("{:.1}ms", p as f64 / 1e6)),
            if r.conserved {
                "yes".into()
            } else {
                "NO".into()
            },
            if ok { "pass".into() } else { "FAIL".into() },
        ]);
        if !r.detail.is_empty() {
            eprintln!("[adversarial] {} ({}): {}", r.scenario, r.plane, r.detail);
        }
        rows_json.push(Json::obj(vec![
            ("scenario", Json::from(r.scenario.clone())),
            ("plane", Json::from(r.plane.to_string())),
            ("offered", Json::from(r.offered)),
            ("wire", Json::from(r.wire)),
            ("dropped", Json::from(r.dropped)),
            ("denied", Json::from(r.denied)),
            ("balance_ratio", r.balance.map_or(Json::Null, Json::from)),
            ("occupancy_max", Json::from(r.occupancy_max)),
            ("occupancy_cap", Json::from(r.occupancy_cap)),
            (
                "p99_sojourn_ns",
                r.p99_sojourn_ns.map_or(Json::Null, Json::from),
            ),
            ("conserved", Json::from(r.conserved)),
            ("gates_ok", Json::from(ok)),
            ("detail", Json::from(r.detail.clone())),
            ("wall_ns", Json::from(r.wall_ns)),
        ]));
    }
    t.print();
    println!();
    println!(
        "all adversarial gates: {}",
        if all_ok { "pass" } else { "FAIL" }
    );

    let extra = vec![
        ("shards", Json::from(SHARDS)),
        ("flow_table_cap", Json::from(FT_CAP)),
        ("idle_window_ns", Json::from(IDLE_NS)),
        ("balance_gate", Json::from(BALANCE_GATE)),
        ("sojourn_gate_ns", Json::from(SOJOURN_GATE_NS)),
        ("all_gates_pass", Json::from(all_ok)),
    ];
    match write_bench_json("adversarial", rows_json, extra) {
        Ok(p) => eprintln!("[adversarial] wrote {}", p.display()),
        Err(e) => eprintln!("[adversarial] could not write JSON: {e}"),
    }
    if !all_ok {
        std::process::exit(1);
    }
}
