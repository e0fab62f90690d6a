//! The I/O plane, end to end over the in-memory backends: loopback
//! round-trips with exact wire-to-wire conservation on both data
//! planes, L2 decap drops counted (never panicking), the pcap
//! reader/writer golden round-trip plus checked-in fixtures in both
//! byte orders, a replay-vs-direct differential, the pmgr `devices`
//! command, and a proptest feeding arbitrary byte soup through the full
//! receive path.

use proptest::prelude::*;
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::{ParallelRouter, ParallelRouterConfig, Router, RouterConfig};
use router_plugins::netdev::loopback::LoopbackDev;
use router_plugins::netdev::pcap::{
    PcapFile, PcapReplayDev, PcapWriter, LINKTYPE_ETHERNET, LINKTYPE_RAW,
};
use router_plugins::netdev::tap::TapDev;
use router_plugins::netdev::{IoPlane, NetDev, NetDevError};
use router_plugins::netsim::testbench::Testbench;
use router_plugins::netsim::traffic::{v6_host, Workload};
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::ipv4::Ipv4Packet;
use router_plugins::packet::{FlowTuple, Mbuf};
use std::collections::HashMap;

const SCRIPT: &str = "load drr\n\
     create drr quantum=9180 limit=512\n\
     attach 1 drr 0\n\
     bind sched drr 0 <*, *, UDP, *, *, *>\n";

fn single_router() -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    run_script(&mut r, SCRIPT).unwrap();
    r.add_route(v6_host(0), 32, 1);
    r
}

fn parallel_router(shards: usize) -> ParallelRouter {
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut par = ParallelRouter::new(
        ParallelRouterConfig {
            shards,
            router: RouterConfig {
                verify_checksums: false,
                ..RouterConfig::default()
            },
            ingress_depth: 1024,
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    run_script(&mut par, SCRIPT).unwrap();
    run_command(&mut par, "route 2001:db8::/32 1").unwrap();
    par
}

/// Reference run: packets straight through a single router (no I/O
/// plane), collecting interface 1's emissions in order.
fn direct_output(packets: &[Mbuf]) -> Vec<Vec<u8>> {
    let mut r = single_router();
    for pkt in packets {
        if let router_plugins::core::ip_core::Disposition::Queued(i) = r.receive(pkt.clone()) {
            r.pump(i, 1);
        }
    }
    r.take_tx(1).iter().map(|m| m.data().to_vec()).collect()
}

/// Group emitted packets by five-tuple (per-flow byte sequences, in
/// emission order).
fn by_flow(frames: &[Vec<u8>]) -> HashMap<FlowTuple, Vec<Vec<u8>>> {
    let mut map: HashMap<FlowTuple, Vec<Vec<u8>>> = HashMap::new();
    for f in frames {
        let mut t = FlowTuple::extract(f, 0).expect("emitted packet parses");
        t.rx_if = 0;
        map.entry(t).or_default().push(f.clone());
    }
    map
}

// ---------------------------------------------------------------------
// Loopback round-trip + conservation + pmgr devices
// ---------------------------------------------------------------------

#[test]
fn loopback_round_trip_conserves_and_reports_devices() {
    let workload = Workload::uniform(8, 25, 256);
    let tb = Testbench::new(&workload);
    let want = direct_output(tb.packets());
    assert_eq!(want.len(), workload.total_packets());

    let (ingress, _peer_in) = LoopbackDev::pair("lo-in", "peer-in", 4096);
    let (egress, _peer_out) = LoopbackDev::pair("lo-out", "peer-out", 4096);
    let in_handle = ingress.handle();
    let out_handle = egress.handle();

    let mut plane = IoPlane::new(single_router(), 64);
    plane.bind(0, Box::new(ingress));
    plane.bind(1, Box::new(egress));

    for pkt in tb.packets() {
        assert!(in_handle.inject(pkt.data()), "ingress wire overflow");
    }
    plane.poll_until_quiet(2, 10_000);

    let mut got = Vec::new();
    while let Some(f) = out_handle.drain_tx() {
        got.push(f);
    }
    assert_eq!(got, want, "loopback output differs from direct run");

    plane.check_conservation();
    let led = plane.ledger();
    assert_eq!(led.device_rx, workload.total_packets() as u64);
    assert_eq!(led.device_tx, workload.total_packets() as u64);
    assert_eq!(led.decap_dropped + led.tx_errors, 0);

    // The pmgr `devices` command sees both devices with live counters.
    let report = run_command(&mut plane, "devices").unwrap();
    assert!(
        report.contains("lo-in if0"),
        "missing ingress row: {report}"
    );
    assert!(
        report.contains("lo-out if1"),
        "missing egress row: {report}"
    );
    assert!(report.contains(&format!("rx={}pkts", workload.total_packets())));
    // And the rest of the command language still works through the
    // delegated control plane.
    let stats = run_command(&mut plane, "stats").unwrap();
    assert!(
        stats.contains("rx=200 fwd=200 dropped=0"),
        "stats broke under IoPlane: {stats}"
    );
}

#[test]
fn parallel_loopback_round_trip_conserves_per_flow() {
    let workload = Workload::uniform(8, 25, 256);
    let tb = Testbench::new(&workload);
    let want = by_flow(&direct_output(tb.packets()));

    let (ingress, _pi) = LoopbackDev::pair("lo-in", "peer-in", 4096);
    let (egress, _po) = LoopbackDev::pair("lo-out", "peer-out", 4096);
    let in_handle = ingress.handle();
    let out_handle = egress.handle();

    let mut plane = IoPlane::new(parallel_router(4), 64);
    plane.bind(0, Box::new(ingress));
    plane.bind(1, Box::new(egress));

    for pkt in tb.packets() {
        assert!(in_handle.inject(pkt.data()));
    }
    plane.poll_until_quiet(3, 10_000);

    let mut got = Vec::new();
    while let Some(f) = out_handle.drain_tx() {
        got.push(f);
    }
    let got = by_flow(&got);
    assert_eq!(got.len(), want.len(), "delivered flow sets differ");
    for (flow, frames) in &want {
        assert_eq!(
            got.get(flow)
                .unwrap_or_else(|| panic!("flow {flow:?} missing")),
            frames,
            "per-flow bytes/order diverged for {flow:?}"
        );
    }
    plane.check_conservation();
}

// ---------------------------------------------------------------------
// Egress fragmentation: N frames on the wire, one datagram received
// ---------------------------------------------------------------------

const FRAG_MTU: usize = 600;

fn frag_router_config() -> RouterConfig {
    RouterConfig {
        verify_checksums: false,
        mtu: FRAG_MTU,
        ..RouterConfig::default()
    }
}

/// One 1400-byte-payload IPv4/UDP datagram with DF cleared, routed out
/// interface 1 whose MTU forces fragmentation.
fn oversized_v4_datagram() -> Vec<u8> {
    let src = "10.0.0.1".parse().unwrap();
    let dst = "10.0.0.9".parse().unwrap();
    let mut d = PacketSpec::udp(src, dst, 4000, 5000, 1400).build();
    d[6] &= !0x40;
    Ipv4Packet::new_unchecked(&mut d[..]).fill_checksum();
    d
}

#[test]
fn fragmented_datagram_conserves_on_router_parallel_and_ioplane() {
    let datagram = oversized_v4_datagram();

    // Single router.
    let mut r = Router::new(frag_router_config());
    r.add_route("10.0.0.0".parse().unwrap(), 8, 1);
    r.receive(Mbuf::new(datagram.clone(), 0));
    let frames = r.take_tx(1).len();
    assert!(frames >= 3, "got {frames} fragments");
    let s = r.stats();
    assert_eq!((s.received, s.forwarded), (1, frames as u64));
    assert_eq!(s.fragment_extra_frames, frames as u64 - 1);
    assert_eq!(s.ledger_gap(), 0, "single router: {s:?}");

    // Two-shard parallel router.
    let mut par = ParallelRouter::new(
        ParallelRouterConfig {
            shards: 2,
            router: frag_router_config(),
            ..ParallelRouterConfig::default()
        },
        &router_plugins::core::loader::PluginLoader::new(),
    );
    run_command(&mut par, "route 10.0.0.0/8 1").unwrap();
    par.receive(Mbuf::new(datagram.clone(), 0));
    par.flush();
    assert_eq!(par.take_tx(1).len(), frames);
    let s = par.stats();
    assert_eq!(s.ledger_gap(), 0, "parallel router: {s:?}");

    // I/O plane over loopback devices.
    let mut r = Router::new(frag_router_config());
    r.add_route("10.0.0.0".parse().unwrap(), 8, 1);
    let (ingress, _pi) = LoopbackDev::pair("lo-in", "peer-in", 64);
    let (egress, _po) = LoopbackDev::pair("lo-out", "peer-out", 64);
    let in_handle = ingress.handle();
    let out_handle = egress.handle();
    let mut plane = IoPlane::new(r, 64);
    plane.bind(0, Box::new(ingress));
    plane.bind(1, Box::new(egress));
    assert!(in_handle.inject(&datagram));
    plane.poll_until_quiet(2, 1_000);
    let mut wire = Vec::new();
    while let Some(f) = out_handle.drain_tx() {
        assert!(f.len() <= FRAG_MTU);
        wire.push(f);
    }
    assert_eq!(wire.len(), frames);
    assert_eq!(plane.ledger().device_tx, frames as u64);
    let s = plane.plane().stats();
    assert_eq!(s.ledger_gap(), 0, "I/O plane: {s:?}");
    plane.check_conservation();
}

// ---------------------------------------------------------------------
// Malformed wire input: counted drops, exact conservation, no panic
// ---------------------------------------------------------------------

#[test]
fn framed_garbage_becomes_counted_device_rx_drops() {
    let (ingress, _pi) = LoopbackDev::pair_framed("eth-in", "peer-in", 1024);
    let (egress, _po) = LoopbackDev::pair_framed("eth-out", "peer-out", 1024);
    let in_handle = ingress.handle();

    let mut plane = IoPlane::new(single_router(), 64);
    plane.bind(0, Box::new(ingress));
    plane.bind(1, Box::new(egress));

    // Truncated frame, ARP frame, and a valid Ethernet frame whose IP
    // payload is garbage (devices pass it; the IP core drops Malformed).
    in_handle.inject(&[0xde, 0xad]);
    let mut arp = vec![0u8; 42];
    (arp[12], arp[13]) = (0x08, 0x06);
    in_handle.inject(&arp);
    let mut bad_ip = vec![0u8; 30];
    (bad_ip[12], bad_ip[13]) = (0x08, 0x00);
    bad_ip[14] = 0x4f; // version 4, absurd IHL
    in_handle.inject(&bad_ip);

    plane.poll_until_quiet(2, 100);
    plane.check_conservation();

    let led = plane.ledger();
    assert_eq!(led.device_rx, 3);
    assert_eq!(led.decap_dropped, 2, "truncated + ARP dropped at decap");
    let stats = plane.plane_mut().stats();
    assert_eq!(stats.dropped_device_rx, 2);
    assert_eq!(stats.dropped_malformed, 1, "bad IP reaches the IP core");

    // Drop slots surface through the metrics registry by name.
    let metrics = run_command(&mut plane, "metrics").unwrap();
    assert!(
        metrics.contains("device_rx"),
        "device_rx drop slot missing from metrics: {metrics}"
    );
}

// ---------------------------------------------------------------------
// pcap: golden round-trip, fixtures, replay differential
// ---------------------------------------------------------------------

#[test]
fn pcap_write_reparse_rewrite_is_byte_identical() {
    let workload = Workload::uniform(5, 10, 200);
    let tb = Testbench::new(&workload);
    for (linktype, big) in [
        (LINKTYPE_RAW, false),
        (LINKTYPE_RAW, true),
        (LINKTYPE_ETHERNET, false),
        (LINKTYPE_ETHERNET, true),
    ] {
        let bytes = tb.record_pcap(linktype, big);
        let parsed = PcapFile::parse(&bytes).unwrap();
        assert_eq!(parsed.linktype, linktype);
        assert_eq!(parsed.big_endian, big);
        assert_eq!(parsed.records.len(), workload.total_packets());
        // Re-serialize from the parsed form: must reproduce the file
        // byte for byte.
        let mut w = PcapWriter::new(parsed.linktype, parsed.big_endian);
        for r in &parsed.records {
            w.push(r.ts_sec, r.ts_usec, &r.data);
        }
        assert_eq!(
            w.into_bytes(),
            bytes,
            "pcap round-trip not byte-identical (linktype {linktype}, big_endian {big})"
        );
    }
}

/// The records both endianness fixtures must decode to.
fn fixture_records() -> Vec<(u32, u32, Vec<u8>)> {
    vec![
        (0, 1, vec![0x45, 0x00, 0x00, 0x04, 0xaa, 0xbb]),
        (1, 500_000, vec![0x60; 40]),
        (2, 999_999, vec![0x45; 20]),
    ]
}

#[test]
fn endianness_fixtures_parse_identically() {
    let le = include_bytes!("fixtures/replay_le.pcap");
    let be = include_bytes!("fixtures/replay_be.pcap");
    let fle = PcapFile::parse(le).unwrap();
    let fbe = PcapFile::parse(be).unwrap();
    assert!(!fle.big_endian);
    assert!(fbe.big_endian);
    assert_eq!(fle.linktype, LINKTYPE_RAW);
    assert_eq!(fbe.linktype, LINKTYPE_RAW);
    for f in [&fle, &fbe] {
        let got: Vec<(u32, u32, Vec<u8>)> = f
            .records
            .iter()
            .map(|r| (r.ts_sec, r.ts_usec, r.data.clone()))
            .collect();
        assert_eq!(got, fixture_records(), "fixture decoded wrong");
    }
}

/// Regenerates the checked-in fixtures. Run manually after a format
/// change: `cargo test --test netdev -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate_endianness_fixtures() {
    for (name, big) in [("replay_le.pcap", false), ("replay_be.pcap", true)] {
        let mut w = PcapWriter::new(LINKTYPE_RAW, big);
        for (s, us, data) in fixture_records() {
            w.push(s, us, &data);
        }
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, w.into_bytes()).unwrap();
    }
}

#[test]
fn pcap_replay_matches_direct_run_on_both_planes() {
    let workload = Workload::uniform(6, 20, 300);
    let tb = Testbench::new(&workload);
    let trace = tb.record_pcap(LINKTYPE_ETHERNET, false);
    let direct = direct_output(tb.packets());

    // Single router: whole-interface emission order must be identical.
    let (egress, _po) = LoopbackDev::pair("lo-out", "peer", 8192);
    let out_handle = egress.handle();
    let mut plane = IoPlane::new(single_router(), 128);
    plane.bind(
        0,
        Box::new(PcapReplayDev::new("pcap:replay", &trace).unwrap()),
    );
    plane.bind(1, Box::new(egress));
    plane.poll_until_quiet(2, 10_000);
    let mut got = Vec::new();
    while let Some(f) = out_handle.drain_tx() {
        got.push(f);
    }
    assert_eq!(got, direct, "pcap replay output differs from direct run");
    plane.check_conservation();

    // Parallel plane: byte-identical per flow.
    let want = by_flow(&direct);
    let (egress, _po) = LoopbackDev::pair("lo-out", "peer", 8192);
    let out_handle = egress.handle();
    let mut plane = IoPlane::new(parallel_router(4), 128);
    plane.bind(
        0,
        Box::new(PcapReplayDev::new("pcap:replay", &trace).unwrap()),
    );
    plane.bind(1, Box::new(egress));
    plane.poll_until_quiet(3, 10_000);
    let mut got = Vec::new();
    while let Some(f) = out_handle.drain_tx() {
        got.push(f);
    }
    let got = by_flow(&got);
    assert_eq!(got.len(), want.len());
    for (flow, frames) in &want {
        assert_eq!(got.get(flow).expect("flow missing"), frames);
    }
    plane.check_conservation();
}

// ---------------------------------------------------------------------
// TAP: graceful skip without /dev/net/tun or CAP_NET_ADMIN
// ---------------------------------------------------------------------

#[test]
fn tap_unavailable_skips_gracefully() {
    match TapDev::open("rptap-test0") {
        Err(NetDevError::Unavailable(why)) => {
            eprintln!("skipping TAP test: {why}");
        }
        Err(e) => panic!("TAP open failed non-gracefully: {e}"),
        Ok(mut dev) => {
            // Device exists (privileged environment): a poll on the
            // fresh interface must not block or error.
            let r = dev.rx_batch(16, &mut |_p| {});
            assert_eq!(r.frames, r.delivered + r.dropped);
            assert_eq!(dev.stats().rx_errors, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Property: arbitrary wire bytes never panic, conservation stays exact
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_wire_bytes_never_panic_and_conserve(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..40),
        framed in any::<bool>(),
        parallel in any::<bool>(),
    ) {
        let (ingress, _pi) = if framed {
            LoopbackDev::pair_framed("in", "pi", 1024)
        } else {
            LoopbackDev::pair("in", "pi", 1024)
        };
        let (egress, _po) = LoopbackDev::pair("out", "po", 1024);
        let in_handle = ingress.handle();

        let offered = frames.len() as u64;
        if parallel {
            let mut plane = IoPlane::new(parallel_router(2), 32);
            plane.bind(0, Box::new(ingress));
            plane.bind(1, Box::new(egress));
            for f in &frames {
                prop_assert!(in_handle.inject(f));
            }
            plane.poll_until_quiet(3, 1000);
            plane.check_conservation();
            prop_assert_eq!(plane.ledger().device_rx, offered);
        } else {
            let mut plane = IoPlane::new(single_router(), 32);
            plane.bind(0, Box::new(ingress));
            plane.bind(1, Box::new(egress));
            for f in &frames {
                prop_assert!(in_handle.inject(f));
            }
            plane.poll_until_quiet(2, 1000);
            plane.check_conservation();
            prop_assert_eq!(plane.ledger().device_rx, offered);
        }
    }
}
