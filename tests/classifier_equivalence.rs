//! Property-based equivalence: for random filter sets and random packets,
//! the DAG (with either BMP plugin) must return exactly the same
//! most-specific filter as the O(n) linear scan. This is the correctness
//! backbone of the whole classification subsystem.

use proptest::prelude::*;
use router_plugins::classifier::{
    AddrMatch, BmpKind, DagTable, FilterSpec, LinearTable, PortMatch,
};
use router_plugins::netsim::traffic::random_filters;
use router_plugins::packet::FlowTuple;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Clustered v4 addresses so prefixes actually overlap.
fn arb_v4() -> impl Strategy<Value = Ipv4Addr> {
    (0u8..4, 0u8..4, 0u8..8, any::<u8>()).prop_map(|(a, b, c, d)| Ipv4Addr::new(10 + a, b, c, d))
}

fn arb_v6() -> impl Strategy<Value = Ipv6Addr> {
    (0u16..4, 0u16..4, any::<u16>())
        .prop_map(|(a, b, c)| Ipv6Addr::new(0x2001, 0xdb8, a, b, 0, 0, 0, c))
}

fn arb_addr_match() -> impl Strategy<Value = AddrMatch> {
    prop_oneof![
        Just(AddrMatch::Any),
        (arb_v4(), 0u8..=32).prop_map(|(a, l)| AddrMatch::prefix(IpAddr::V4(a), l)),
        (arb_v6(), 0u8..=128).prop_map(|(a, l)| AddrMatch::prefix(IpAddr::V6(a), l)),
    ]
}

/// Exact ports or wildcard (partial range overlaps are rejected by the
/// DAG by design; nested ranges are covered by a dedicated test below).
fn arb_port_match() -> impl Strategy<Value = PortMatch> {
    prop_oneof![Just(PortMatch::Any), (1u16..64).prop_map(PortMatch::eq),]
}

fn arb_filter() -> impl Strategy<Value = FilterSpec> {
    (
        arb_addr_match(),
        arb_addr_match(),
        prop_oneof![Just(None), Just(Some(6u8)), Just(Some(17u8))],
        arb_port_match(),
        arb_port_match(),
        prop_oneof![Just(None), Just(Some(0u32)), Just(Some(1u32))],
    )
        .prop_map(|(src, dst, proto, sport, dport, rx_if)| FilterSpec {
            src,
            dst,
            proto,
            sport,
            dport,
            rx_if,
        })
}

fn arb_tuple() -> impl Strategy<Value = FlowTuple> {
    (
        prop_oneof![arb_v4().prop_map(IpAddr::V4), arb_v6().prop_map(IpAddr::V6)],
        prop_oneof![arb_v4().prop_map(IpAddr::V4), arb_v6().prop_map(IpAddr::V6)],
        prop_oneof![Just(6u8), Just(17u8), Just(1u8)],
        1u16..64,
        1u16..64,
        0u32..2,
    )
        .prop_map(|(src, dst, proto, sport, dport, rx_if)| FlowTuple {
            src,
            dst,
            proto,
            sport,
            dport,
            rx_if,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dag_equals_linear(
        filters in prop::collection::vec(arb_filter(), 1..24),
        tuples in prop::collection::vec(arb_tuple(), 1..48),
        bspl in any::<bool>(),
    ) {
        let kind = if bspl { BmpKind::Bspl } else { BmpKind::Patricia };
        let mut dag = DagTable::new(kind);
        let mut lin = LinearTable::new();
        for (i, f) in filters.into_iter().enumerate() {
            // Ids advance in lockstep (both assign sequentially), so
            // values compare directly.
            dag.insert(f.clone(), i).unwrap();
            lin.insert(f, i);
        }
        for t in tuples {
            let d = dag.lookup(&t).map(|(_, v)| *v);
            let l = lin.lookup(&t).map(|(_, v)| *v);
            prop_assert_eq!(d, l, "diverged on {}", t);
        }
    }

    #[test]
    fn dag_equals_linear_after_removals(
        filters in prop::collection::vec(arb_filter(), 4..16),
        remove_mask in prop::collection::vec(any::<bool>(), 4..16),
        tuples in prop::collection::vec(arb_tuple(), 1..32),
    ) {
        let mut dag = DagTable::new(BmpKind::Bspl);
        let mut lin = LinearTable::new();
        let mut ids = Vec::new();
        for (i, f) in filters.iter().enumerate() {
            let did = dag.insert(f.clone(), i).unwrap();
            let lid = lin.insert(f.clone(), i);
            ids.push((did, lid));
        }
        // The same survivors installed into a fresh table, in order.
        let mut fresh = DagTable::new(BmpKind::Bspl);
        let mut removed = Vec::new();
        for (i, f) in filters.iter().enumerate() {
            if remove_mask.get(i).copied().unwrap_or(false) {
                let (did, lid) = ids[i];
                dag.remove(did).unwrap();
                lin.remove(lid).unwrap();
                removed.push(i);
            } else {
                fresh.insert(f.clone(), i).unwrap();
            }
        }
        // Removal frees what it prunes: the live shape is the shape the
        // survivors alone build.
        prop_assert_eq!(dag.node_count(), fresh.node_count());
        for t in &tuples {
            let d = dag.lookup(t).map(|(_, v)| *v);
            let l = lin.lookup(t).map(|(_, v)| *v);
            prop_assert_eq!(d, l, "diverged after removal on {}", t);
        }
        // Re-installing the removed filters reuses the freed slots.
        for i in removed {
            dag.insert(filters[i].clone(), i).unwrap();
            lin.insert(filters[i].clone(), i);
        }
        for t in &tuples {
            let d = dag.lookup(t).map(|(_, v)| *v);
            let l = lin.lookup(t).map(|(_, v)| *v);
            prop_assert_eq!(d, l, "diverged after re-insert on {}", t);
        }
    }
}

#[test]
fn nested_port_ranges_match_linear() {
    let specs = [
        "*, *, UDP, *, 1000-2000, *",
        "*, *, UDP, *, 1200-1800, *",
        "*, *, UDP, *, 1500, *",
        "*, *, UDP, 100-200, *, *",
        "*, *, *, *, *, *",
    ];
    let mut dag = DagTable::new(BmpKind::Bspl);
    let mut lin = LinearTable::new();
    for (i, s) in specs.iter().enumerate() {
        let f: FilterSpec = s.parse().unwrap();
        dag.insert(f.clone(), i).unwrap();
        lin.insert(f, i);
    }
    for sport in [50u16, 150, 250] {
        for dport in [999u16, 1000, 1199, 1200, 1499, 1500, 1501, 1801, 2000, 2001] {
            let t = FlowTuple {
                src: "10.0.0.1".parse().unwrap(),
                dst: "10.0.0.2".parse().unwrap(),
                proto: 17,
                sport,
                dport,
                rx_if: 0,
            };
            assert_eq!(
                dag.lookup(&t).map(|(_, v)| *v),
                lin.lookup(&t).map(|(_, v)| *v),
                "sport={sport} dport={dport}"
            );
        }
    }
}

/// Filter churn leaves no residue: binding and unbinding a /32 filter
/// (what a pmgr `bind`/`unbind` pair does on a 300-filter firewall table)
/// a thousand times leaves the live node count and every probe's lookup
/// exactly as before.
#[test]
fn bind_unbind_churn_returns_dag_to_baseline() {
    let filters = random_filters(300, false, 0xF17);
    let mut dag = DagTable::new(BmpKind::Bspl);
    for (i, f) in filters.iter().enumerate() {
        dag.insert(f.clone(), i).unwrap();
    }
    // Probes: the first address of each filter's source and destination,
    // under UDP and TCP, plus the churned destinations themselves.
    let churned = |i: u32| IpAddr::V4(Ipv4Addr::from(0xC633_6400 | (i % 256)));
    let first = |m: &AddrMatch, alt: IpAddr| match m {
        AddrMatch::V4(p) => IpAddr::V4(Ipv4Addr::from(p.bits())),
        _ => alt,
    };
    let mut probes = Vec::new();
    for (i, f) in filters.iter().enumerate() {
        let src = first(&f.src, IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)));
        let dst = first(&f.dst, churned(i as u32));
        for (dst, proto) in [(dst, 6), (dst, 17), (churned(i as u32), 17)] {
            probes.push(FlowTuple {
                src,
                dst,
                proto,
                sport: 1024,
                dport: 53,
                rx_if: 0,
            });
        }
    }
    let baseline_nodes = dag.node_count();
    let lookup_all = |dag: &DagTable<usize>| -> Vec<_> {
        probes
            .iter()
            .map(|t| dag.lookup(t).map(|(id, v)| (id, *v)))
            .collect()
    };
    let baseline = lookup_all(&dag);
    let mut grew = false;
    for i in 0..1000u32 {
        let spec: FilterSpec = format!("*, {}/32, UDP, *, *, *", churned(i))
            .parse()
            .unwrap();
        let id = dag.insert(spec, 1_000_000).unwrap();
        grew |= dag.node_count() > baseline_nodes;
        dag.remove(id).unwrap();
        assert_eq!(dag.node_count(), baseline_nodes, "cycle {i}");
    }
    assert!(grew, "the churned filter must replicate into the table");
    assert_eq!(lookup_all(&dag), baseline);
}
