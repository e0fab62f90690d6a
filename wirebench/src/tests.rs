//! The benchmark's own tests: the oracle rejects mutated egress, and a
//! tiny run of every workload passes the oracle with the per-layer split
//! the workloads are designed to show.

use crate::bench::{self, Opts};
use crate::metrics::{self, Values};
use crate::workload::{self, Scale};
use rp_netdev::NetDev;

/// Egress of one real duty cycle of `gates_small`: (interface, frame).
fn real_egress(n: u64) -> (crate::oracle::Oracle, Vec<(u32, Vec<u8>)>) {
    let spec = workload::spec("gates_small", 11, Scale::tiny()).unwrap();
    let oracle = workload::oracle(&spec);
    let mut rig = workload::rig(workload::build_router(&spec).unwrap(), n as usize);
    let mut buf = Vec::new();
    for s in 0..n {
        oracle.traffic().frame(s, &mut buf);
        assert!(rig.ingress.inject(&buf));
    }
    rig.iop.poll();
    let mut out = Vec::new();
    for (i, peer) in rig.peers.iter_mut().enumerate() {
        peer.rx_batch(1024, &mut |b| out.push((i as u32, b.to_vec())));
    }
    assert_eq!(out.len() as u64, n, "the router forwards every packet");
    (oracle, out)
}

fn check(oracle: &mut crate::oracle::Oracle, n: u64, egress: &[(u32, Vec<u8>)]) {
    oracle.tally = Default::default();
    oracle.begin_cycle(0, n);
    for (i, b) in egress {
        oracle.check(*i, b);
    }
    oracle.end_cycle();
}

#[test]
fn oracle_rejects_mutated_egress() {
    let n = 32;
    let (mut oracle, egress) = real_egress(n);
    check(&mut oracle, n, &egress);
    assert_eq!(oracle.tally.failed(), 0, "clean stream: {:?}", oracle.tally);
    assert_eq!(oracle.tally.delivered, n);

    let mut flipped = egress.clone();
    let last = flipped[5].1.len() - 1;
    flipped[5].1[last] ^= 0x40;
    check(&mut oracle, n, &flipped);
    assert_eq!((oracle.tally.corrupt, oracle.tally.failed()), (1, 1));

    let mut misrouted = egress.clone();
    misrouted[7].0 = (misrouted[7].0 + 1) % workload::INTERFACES as u32;
    check(&mut oracle, n, &misrouted);
    assert_eq!((oracle.tally.misrouted, oracle.tally.failed()), (1, 1));

    let mut missing = egress.clone();
    missing.remove(9);
    check(&mut oracle, n, &missing);
    assert_eq!((oracle.tally.missing, oracle.tally.failed()), (1, 1));

    let mut unaged = egress.clone();
    unaged[3].1[7] += 1; // IPv6 hop limit back to its offered value
    check(&mut oracle, n, &unaged);
    assert_eq!((oracle.tally.bad_ttl, oracle.tally.failed()), (1, 1));
}

fn smoke(workload: &str, trace: bool) -> Values {
    let opts = Opts {
        workload: workload.into(),
        seed: 5,
        seconds: 0.6,
        trace,
    };
    let out = bench::run(&opts, Scale::tiny()).unwrap();
    assert!(out.offered > 0);
    assert!(out.correct(), "{workload} trace={trace}: {:?}", out.tally);
    let defs = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for m in defs {
        assert!(
            out.values.get(m.name).is_some(),
            "{workload}: {} missing",
            m.name
        );
    }
    out.values
}

#[test]
fn smoke_gates_small() {
    let e = smoke("gates_small", false);
    assert!(e.get("pps").unwrap() > 0.0 && e.get("latency_p99_us").unwrap() > 0.0);
    let l = smoke("gates_small", true);
    assert!(l.get("core.plugin_calls_per_pkt").unwrap() >= 3.0);
    assert!(l.get("lpm.cache_hit_ratio").unwrap() > 0.99);
    assert!(l.get("sched.enqueue_ns").unwrap() > 0.0);
    assert!(l.get("ablation.best_effort_ns").unwrap() > 0.0);
    // The cross-thread sub-run measures the sharded layers.
    assert!(l.get("dataplane.flush_us").unwrap() > 0.0);
    assert!(l.get("ring.push_ns").unwrap() > 0.0);
    assert!(l.get("core.fragment_ns").unwrap() > 0.0);
    // Writes are timed off the packet path when the workload has none.
    assert!(l.get("lpm.route_update_us").unwrap() > 0.0);
    assert!(l.get("control.filter_bind_us").unwrap() > 0.0);
    every_time_measured("gates_small", &l);
}

/// Every time metric is measured (non-zero) in a traced run of a gated
/// workload, so none reads the same on every run.
fn every_time_measured(workload: &str, l: &Values) {
    for m in metrics::PER_LAYER
        .iter()
        .filter(|m| m.unit == "ns" || m.unit == "us")
    {
        assert!(
            l.get(m.name).unwrap() > 0.0,
            "{workload}: {} reads 0",
            m.name
        );
    }
}

#[test]
fn smoke_churn_fib() {
    smoke("churn_fib", false);
    let l = smoke("churn_fib", true);
    assert!(l.get("classifier.miss_ratio").unwrap() > 0.0);
    assert!(l.get("lpm.cache_hit_ratio").unwrap() < 1.0);
    assert!(l.get("lpm.route_update_us").unwrap() > 0.0);
    assert!(l.get("control.filter_bind_us").unwrap() > 0.0);
    every_time_measured("churn_fib", &l);
}

#[test]
fn smoke_sharded_imix() {
    smoke("sharded_imix", false);
    let l = smoke("sharded_imix", true);
    assert!(l.get("dataplane.flush_us").unwrap() > 0.0);
    assert!(l.get("ring.push_ns").unwrap() > 0.0);
    assert!(l.get("core.fragment_ns").unwrap() > 0.0);
}
