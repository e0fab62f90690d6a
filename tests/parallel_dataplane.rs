//! The sharded parallel data plane must be observationally equivalent to
//! the paper-faithful single-threaded router: same per-flow deliveries in
//! the same per-flow order, same drop-reason totals, and one control
//! plane whose commands mean the same thing on both. These tests drive
//! both data planes through identical pmgr scripts and flow-structured
//! workloads and compare everything an outside observer can see.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use router_plugins::classifier::flow_table::flow_hash;
use router_plugins::core::dataplane::{shard_for_tuple, ShardReport};
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::{
    ControlPlane, ParallelRouter, ParallelRouterConfig, Router, RouterConfig,
};
use router_plugins::netsim::traffic::v6_host;
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::{FlowTuple, Mbuf};
use std::collections::HashMap;
use std::net::IpAddr;

// ---------------------------------------------------------------------
// Shard balance: the dispatch hash must spread random five-tuples evenly
// ---------------------------------------------------------------------

fn random_tuple(rng: &mut StdRng) -> FlowTuple {
    let v6: bool = rng.gen_bool(0.5);
    let (src, dst) = if v6 {
        (
            IpAddr::V6(std::net::Ipv6Addr::from(rng.gen::<u128>())),
            IpAddr::V6(std::net::Ipv6Addr::from(rng.gen::<u128>())),
        )
    } else {
        (
            IpAddr::V4(std::net::Ipv4Addr::from(rng.gen::<u32>())),
            IpAddr::V4(std::net::Ipv4Addr::from(rng.gen::<u32>())),
        )
    };
    FlowTuple {
        src,
        dst,
        proto: if rng.gen_bool(0.5) { 6 } else { 17 },
        sport: rng.gen(),
        dport: rng.gen_range(1..1024),
        rx_if: 0,
    }
}

#[test]
fn dispatch_spreads_random_flows_within_15_percent_of_mean() {
    const TUPLES: usize = 20_000;
    let mut rng = StdRng::seed_from_u64(0x5AAD);
    let tuples: Vec<FlowTuple> = (0..TUPLES).map(|_| random_tuple(&mut rng)).collect();
    for shards in [2usize, 4, 8] {
        let mut load = vec![0u64; shards];
        for t in &tuples {
            load[shard_for_tuple(t, shards)] += 1;
        }
        let mean = TUPLES as f64 / shards as f64;
        let max = *load.iter().max().unwrap() as f64;
        let min = *load.iter().min().unwrap() as f64;
        assert!(
            max <= mean * 1.15,
            "{shards} shards: max load {max} above 115% of mean {mean} ({load:?})"
        );
        assert!(
            min >= mean * 0.85,
            "{shards} shards: min load {min} below 85% of mean {mean} ({load:?})"
        );
    }
}

#[test]
fn dispatch_is_flow_affine_and_matches_cache_hash() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..500 {
        let t = random_tuple(&mut rng);
        for shards in [1usize, 2, 4, 8] {
            let s = shard_for_tuple(&t, shards);
            // Multiply-shift range reduction over the same cache hash.
            assert_eq!(s, ((flow_hash(&t) as u64 * shards as u64) >> 32) as usize);
            assert_eq!(s, shard_for_tuple(&t, shards));
        }
    }
}

// ---------------------------------------------------------------------
// Differential: single-threaded Router vs ParallelRouter
// ---------------------------------------------------------------------

/// Flows exercising distinct fates: routed+scheduled UDP, firewall-denied
/// (dport 9999), and unrouted destinations (outside 2001:db8::/32).
struct DiffFlow {
    src: IpAddr,
    dst: IpAddr,
    sport: u16,
    dport: u16,
    count: usize,
}

fn diff_flows() -> Vec<DiffFlow> {
    let mut flows = Vec::new();
    for i in 0..24u16 {
        flows.push(DiffFlow {
            src: v6_host(10 + i),
            dst: v6_host(200 + (i % 5)),
            sport: 4000 + i,
            dport: 80,
            count: 20 + (i as usize % 7),
        });
    }
    // Firewall-denied flows.
    for i in 0..4u16 {
        flows.push(DiffFlow {
            src: v6_host(50 + i),
            dst: v6_host(210),
            sport: 4100 + i,
            dport: 9999,
            count: 10,
        });
    }
    // No-route flows (fc00::/7 ULA space, not covered by the route).
    for i in 0..4u16 {
        flows.push(DiffFlow {
            src: v6_host(60 + i),
            dst: IpAddr::V6(std::net::Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, i)),
            sport: 4200 + i,
            dport: 80,
            count: 8,
        });
    }
    flows
}

/// Interleaved packet sequence with a per-flow sequence number stamped in
/// the last 4 payload bytes (checksum verification is off in this rig).
fn diff_packets() -> Vec<Mbuf> {
    let flows = diff_flows();
    let mut seqs = vec![0u32; flows.len()];
    let mut out = Vec::new();
    let mut round = 0usize;
    loop {
        let mut emitted = false;
        for (fi, f) in flows.iter().enumerate() {
            if round < f.count {
                let mut m = Mbuf::new(
                    PacketSpec::udp(f.src, f.dst, f.sport, f.dport, 128).build(),
                    0,
                );
                let seq = seqs[fi];
                seqs[fi] += 1;
                let data = m.data_mut();
                let n = data.len();
                data[n - 4..].copy_from_slice(&seq.to_be_bytes());
                out.push(m);
                emitted = true;
            }
        }
        if !emitted {
            break;
        }
        round += 1;
    }
    out
}

const DIFF_SCRIPT: &str = "load null\n\
     create null\n\
     bind stats null 0 <*, *, *, *, *, *>\n\
     load firewall\n\
     create firewall action=deny\n\
     bind fw firewall 0 <*, *, UDP, *, 9999, *>\n\
     load drr\n\
     create drr quantum=9180 limit=512\n\
     attach 1 drr 0\n\
     bind sched drr 0 <*, *, UDP, *, *, *>\n\
     route 2001:db8::/32 1\n";

/// Per-flow delivered sequence numbers, grouped by the emitted packet's
/// five-tuple, in emission order.
fn deliveries(tx: &[Mbuf]) -> HashMap<FlowTuple, Vec<u32>> {
    let mut map: HashMap<FlowTuple, Vec<u32>> = HashMap::new();
    for m in tx {
        let mut t = FlowTuple::from_mbuf(m).expect("emitted packet parses");
        // Normalize receive context: arrival interface is not part of the
        // flow identity on the wire.
        t.rx_if = 0;
        let d = m.data();
        let seq = u32::from_be_bytes(d[d.len() - 4..].try_into().unwrap());
        map.entry(t).or_default().push(seq);
    }
    map
}

#[test]
fn parallel_over_rings_matches_single_router_deliveries_order_and_drops() {
    let packets = diff_packets();

    // Single-threaded reference.
    let mut single = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut single.loader);
    run_script(&mut single, DIFF_SCRIPT).unwrap();
    let mut single_tx = Vec::new();
    for pkt in &packets {
        let d = single.receive(pkt.clone());
        if let router_plugins::core::ip_core::Disposition::Queued(i) = d {
            single.pump(i, 1);
        }
    }
    for i in 0..single.interface_count() {
        single_tx.extend(single.take_tx(i as u32));
    }

    // Parallel data plane, 4 shards, identical script.
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut par = ParallelRouter::new(
        ParallelRouterConfig {
            shards: 4,
            router: RouterConfig {
                verify_checksums: false,
                ..RouterConfig::default()
            },
            ingress_depth: 256,
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    run_script(&mut par, DIFF_SCRIPT).unwrap();
    for pkt in &packets {
        par.receive(pkt.clone());
    }
    par.flush();
    let mut par_tx = Vec::new();
    for i in 0..par.interface_count() {
        par_tx.extend(par.take_tx(i as u32));
    }

    // Identical per-flow delivery counts AND per-flow packet order.
    let single_flows = deliveries(&single_tx);
    let par_flows = deliveries(&par_tx);
    assert_eq!(
        single_flows.len(),
        par_flows.len(),
        "delivered flow sets differ"
    );
    for (flow, seqs) in &single_flows {
        let p = par_flows
            .get(flow)
            .unwrap_or_else(|| panic!("flow {flow:?} missing from parallel delivery"));
        assert_eq!(seqs, p, "per-flow order diverged for {flow:?}");
    }
    assert_eq!(
        single_tx.len(),
        par_tx.len(),
        "total delivery count differs"
    );

    // Identical drop-reason totals.
    let s = single.stats();
    let p = par.stats();
    assert_eq!(s.received, p.received);
    assert_eq!(s.forwarded, p.forwarded);
    assert_eq!(s.dropped_plugin, p.dropped_plugin, "firewall drops differ");
    assert_eq!(
        s.dropped_no_route, p.dropped_no_route,
        "no-route drops differ"
    );
    assert_eq!(s.dropped_malformed, p.dropped_malformed);
    assert_eq!(s.dropped_ttl, p.dropped_ttl);
    assert_eq!(s.dropped_queue, p.dropped_queue);
    assert_eq!(s.dropped_total(), p.dropped_total(), "drop totals differ");

    // The flow cache saw every flow exactly once per owning router.
    assert_eq!(single.flow_stats().misses, par.flow_stats().misses);
    assert_eq!(single.flow_stats().hits, par.flow_stats().hits);
}

// ---------------------------------------------------------------------
// Single control plane over many shards
// ---------------------------------------------------------------------

fn parallel(shards: usize) -> ParallelRouter {
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    ParallelRouter::new(
        ParallelRouterConfig {
            shards,
            router: RouterConfig {
                verify_checksums: false,
                ..RouterConfig::default()
            },
            ingress_depth: 64,
            ..ParallelRouterConfig::default()
        },
        &template,
    )
}

#[test]
fn control_fanout_keeps_instance_ids_in_lockstep() {
    let mut pr = parallel(4);
    let out = run_script(
        &mut pr,
        "load stats\ncreate stats\ncreate stats\nbind stats stats 1 <*, *, UDP, *, 53, *>",
    )
    .unwrap();
    // Aggregated replies collapse to the single-router answer: one id,
    // not four.
    assert_eq!(out[1], "stats instance 0");
    assert_eq!(out[2], "stats instance 1");
    assert!(out[3].starts_with("filter "), "{out:?}");

    // The logical view is identical to what any one shard reports.
    let instances = pr.cp_describe_instances();
    assert_eq!(instances.len(), 2, "{instances:?}");
    let filters = run_command(&mut pr, "show filters stats").unwrap();
    assert!(filters.contains("53"), "{filters}");
}

#[test]
fn pmgr_stats_reports_per_shard_breakdown() {
    let mut pr = parallel(2);
    run_script(&mut pr, "route 2001:db8::/32 1").unwrap();
    for i in 0..40u16 {
        pr.receive(Mbuf::new(
            PacketSpec::udp(v6_host(i), v6_host(300), 2000 + i, 80, 64).build(),
            0,
        ));
    }
    pr.flush();
    let out = run_command(&mut pr, "stats").unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "total + 2 shard rows: {out}");
    assert!(lines[0].starts_with("total: rx=40"), "{out}");
    assert!(lines[1].starts_with("shard 0: rx="), "{out}");
    assert!(lines[2].starts_with("shard 1: rx="), "{out}");
    // Shard rows sum to the total row.
    let rx_of = |line: &str| -> u64 {
        line.split("rx=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(rx_of(lines[1]) + rx_of(lines[2]), 40);
}

#[test]
fn force_unload_fans_out_and_frees_all_shards() {
    let mut pr = parallel(3);
    run_script(
        &mut pr,
        "load firewall\ncreate firewall action=deny\n\
         bind fw firewall 0 <*, *, UDP, *, 7, *>",
    )
    .unwrap();
    assert_eq!(pr.cp_describe_instances().len(), 1);
    let out = run_command(&mut pr, "unload firewall force").unwrap();
    assert_eq!(out, "force-unloaded firewall");
    assert!(pr.cp_describe_instances().is_empty());
    assert!(pr.cp_loaded_plugins().is_empty());
    // Reload works afterwards on every shard.
    run_script(&mut pr, "load firewall\ncreate firewall action=deny").unwrap();
    assert_eq!(pr.cp_describe_instances().len(), 1);
}

#[test]
fn divergent_per_shard_text_replies_are_labelled() {
    let mut pr = parallel(2);
    run_script(
        &mut pr,
        "load stats\ncreate stats\n\
         bind stats stats 0 <*, *, UDP, *, *, *>\n\
         route 2001:db8::/32 1",
    )
    .unwrap();
    // One packet of a single flow lands on exactly one shard, so the two
    // shards' per-instance counters diverge.
    pr.receive(Mbuf::new(
        PacketSpec::udp(v6_host(1), v6_host(300), 1234, 80, 64).build(),
        0,
    ));
    pr.flush();
    let out = run_command(&mut pr, "msg stats 0 report").unwrap();
    assert!(out.contains("[shard 0]"), "{out}");
    assert!(out.contains("[shard 1]"), "{out}");
}

#[test]
fn shard_reports_cover_all_shards_and_account_packets() {
    let mut pr = parallel(4);
    run_script(&mut pr, "route 2001:db8::/32 1").unwrap();
    for i in 0..100u16 {
        pr.receive(Mbuf::new(
            PacketSpec::udp(v6_host(i), v6_host(301), 1000 + i, 80, 64).build(),
            0,
        ));
    }
    pr.flush();
    let reports: Vec<ShardReport> = pr.shard_reports();
    assert_eq!(reports.len(), 4);
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.shard, i);
    }
    assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), 100);
    assert_eq!(pr.stats().received, 100);
    assert_eq!(pr.stats().forwarded, 100);
}
