//! The measurement harness: plays a workload through a router
//! configuration and reports per-packet cost — the software analogue of
//! the paper's device-driver cycle-counter timestamps ("we added a time
//! stamp function into the ATM device driver which timestamped every
//! incoming packet … compared to the CPU cycle counter right before the
//! packet was output").

use crate::traffic::Workload;
use router_core::dataplane::ShardReport;
use router_core::ip_core::Disposition;
use router_core::monolithic::{AltqDrrRouter, BestEffortRouter};
use router_core::{ParallelRouter, Router};
use rp_packet::Mbuf;
use std::time::Instant;

/// Results of one measured run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Packets offered.
    pub packets: u64,
    /// Packets forwarded/queued.
    pub forwarded: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Total processing wall time (ns) across all packets.
    pub total_ns: u64,
    /// Flow-cache hits (0 for routers without one).
    pub cache_hits: u64,
    /// Flow-cache misses.
    pub cache_misses: u64,
}

impl RunStats {
    /// Mean per-packet cost in nanoseconds.
    pub fn ns_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.packets as f64
        }
    }

    /// Throughput in packets per second implied by the mean cost.
    pub fn packets_per_sec(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.packets as f64 * 1e9 / self.total_ns as f64
        }
    }

    /// Cycles per packet at a given clock (the paper reports a 233 MHz
    /// P6; pass `233_000_000.0` to convert into its units).
    pub fn cycles_per_packet(&self, clock_hz: f64) -> f64 {
        self.ns_per_packet() * clock_hz / 1e9
    }
}

/// Results of one run through a sharded parallel data plane.
///
/// On a one-core-per-shard deployment each shard's `busy_ns` is the CPU
/// time that core spends, and the shards run concurrently — so the rate
/// the array sustains is bounded by its *critical path*, the busiest
/// shard. [`aggregate_pps`](ParallelRunStats::aggregate_pps) reports
/// exactly that (packets ÷ max shard busy time). Wall-clock time on the
/// measurement host is also recorded, but on a host with fewer cores
/// than shards the threads time-slice one CPU and wall time measures the
/// host, not the architecture.
#[derive(Debug, Clone, Default)]
pub struct ParallelRunStats {
    /// Packets offered.
    pub packets: u64,
    /// Packets forwarded/queued (merged across shards).
    pub forwarded: u64,
    /// Packets dropped (merged across shards, all reasons).
    pub dropped: u64,
    /// Wall-clock time for the whole run on the measurement host (ns).
    pub wall_ns: u64,
    /// Busiest shard's packet-processing CPU time (ns) — the critical
    /// path of a one-core-per-shard array.
    pub max_shard_busy_ns: u64,
    /// Sum of all shards' packet-processing CPU time (ns).
    pub total_busy_ns: u64,
    /// Packets processed per shard (dispatch balance).
    pub shard_packets: Vec<u64>,
    /// Busy time per shard (ns).
    pub shard_busy_ns: Vec<u64>,
}

impl ParallelRunStats {
    /// Aggregate throughput (packets/s) sustained by a one-core-per-shard
    /// array: total packets divided by the busiest shard's CPU time.
    pub fn aggregate_pps(&self) -> f64 {
        if self.max_shard_busy_ns == 0 {
            0.0
        } else {
            self.packets as f64 * 1e9 / self.max_shard_busy_ns as f64
        }
    }

    /// Mean per-packet CPU cost across all shards (ns) — comparable to
    /// [`RunStats::ns_per_packet`] on the single-threaded router.
    pub fn ns_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_busy_ns as f64 / self.packets as f64
        }
    }

    /// Largest shard load divided by the mean shard load (1.0 = perfectly
    /// even dispatch).
    pub fn balance_ratio(&self) -> f64 {
        if self.shard_packets.is_empty() {
            return 1.0;
        }
        let max = self.shard_packets.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.packets as f64 / self.shard_packets.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Take (and reset) a router's observability snapshot after a measured
/// run, so successive runs on one router report per-run metrics rather
/// than cumulative ones. Queue-depth gauges are sampled at the drain
/// point.
pub fn drain_metrics(router: &mut Router) -> router_core::MetricsSnapshot {
    router.take_metrics()
}

/// The testbench: replays workloads and accumulates statistics.
pub struct Testbench {
    /// Prebuilt packet sequence (built once; cloned per repetition).
    packets: Vec<Mbuf>,
}

impl Testbench {
    /// Build from a workload.
    pub fn new(workload: &Workload) -> Self {
        Testbench {
            packets: workload.build(),
        }
    }

    /// The prebuilt packet sequence (one rep of the workload).
    pub fn packets(&self) -> &[Mbuf] {
        &self.packets
    }

    /// Serialize the workload as a classic pcap capture, so any
    /// testbench traffic doubles as a replayable trace for the I/O
    /// plane (`linktype` is `LINKTYPE_RAW` for bare IP records or
    /// `LINKTYPE_ETHERNET` to wrap each packet in a synthetic Ethernet
    /// frame). Record timestamps are synthetic: packet `i` is stamped
    /// `i` microseconds from zero, preserving order.
    pub fn record_pcap(&self, linktype: u32, big_endian: bool) -> Vec<u8> {
        let mut w = rp_netdev::pcap::PcapWriter::new(linktype, big_endian);
        let mut frame = Vec::new();
        for (i, pkt) in self.packets.iter().enumerate() {
            let (ts_sec, ts_usec) = ((i / 1_000_000) as u32, (i % 1_000_000) as u32);
            if linktype == rp_netdev::pcap::LINKTYPE_ETHERNET {
                if rp_netdev::frame::attach_ethernet(
                    &mut frame,
                    &rp_netdev::pcap::CAPTURE_DST_MAC,
                    &rp_netdev::pcap::CAPTURE_SRC_MAC,
                    pkt.data(),
                ) {
                    w.push(ts_sec, ts_usec, &frame);
                }
            } else {
                w.push(ts_sec, ts_usec, pkt.data());
            }
        }
        w.into_bytes()
    }

    /// Replay through the plugin router `reps` times; the scheduling gate
    /// is drained (`pump`) after each packet, mirroring the testbed's
    /// immediate retransmission on the output ATM port.
    pub fn run_router(&self, router: &mut Router, reps: usize) -> RunStats {
        let mut stats = RunStats::default();
        let h0 = router.flow_stats();
        for _ in 0..reps {
            for pkt in &self.packets {
                let m = pkt.clone();
                let t0 = Instant::now();
                let d = router.receive(m);
                let queued_if = match d {
                    Disposition::Queued(i) => Some(i),
                    _ => None,
                };
                if let Some(i) = queued_if {
                    router.pump(i, 1);
                }
                stats.total_ns += t0.elapsed().as_nanos() as u64;
                stats.packets += 1;
                match d {
                    Disposition::Forwarded(_) | Disposition::Queued(_) => stats.forwarded += 1,
                    Disposition::Dropped(_) => stats.dropped += 1,
                    Disposition::Consumed(_) => {}
                }
            }
            // Clear tx logs so memory stays bounded across reps.
            for i in 0..router.interface_count() {
                router.take_tx(i as u32);
            }
        }
        let h1 = router.flow_stats();
        stats.cache_hits = h1.hits - h0.hits;
        stats.cache_misses = h1.misses - h0.misses;
        stats
    }

    /// [`run_router`](Testbench::run_router) on the zero-allocation fast
    /// path: ingress mbufs are built from the router's buffer pool
    /// ([`Router::mbuf_with`]) instead of cloned, and transmitted packets
    /// are handed back to the pool after each repetition — the driver
    /// loop of a real port. After pool warm-up no per-packet heap
    /// allocation remains on this path.
    pub fn run_router_pooled(&self, router: &mut Router, reps: usize) -> RunStats {
        let mut stats = RunStats::default();
        let h0 = router.flow_stats();
        let mut done: Vec<Mbuf> = Vec::new();
        for _ in 0..reps {
            for pkt in &self.packets {
                let m = router.mbuf_with(pkt.data(), pkt.rx_if);
                let t0 = Instant::now();
                let d = router.receive(m);
                if let Disposition::Queued(i) = d {
                    router.pump(i, 1);
                }
                stats.total_ns += t0.elapsed().as_nanos() as u64;
                stats.packets += 1;
                match d {
                    Disposition::Forwarded(_) | Disposition::Queued(_) => stats.forwarded += 1,
                    Disposition::Dropped(_) => stats.dropped += 1,
                    Disposition::Consumed(_) => {}
                }
            }
            // The driver's retransmit-complete step: return transmitted
            // buffers to the pool instead of freeing them.
            for i in 0..router.interface_count() {
                router.take_tx_into(i as u32, &mut done);
                for m in done.drain(..) {
                    router.recycle_mbuf(m);
                }
            }
        }
        let h1 = router.flow_stats();
        stats.cache_hits = h1.hits - h0.hits;
        stats.cache_misses = h1.misses - h0.misses;
        stats
    }

    /// Replay through a sharded parallel data plane `reps` times.
    ///
    /// Dispatch is flow-affine (`flow_hash % shards`) inside
    /// [`ParallelRouter::receive`]; the run is quiesced with a barrier
    /// [`flush`](ParallelRouter::flush) before counters are read, and tx
    /// logs are drained after each rep so memory stays bounded.
    pub fn run_parallel(&self, router: &mut ParallelRouter, reps: usize) -> ParallelRunStats {
        let before = router.shard_reports();
        let t0 = Instant::now();
        for _ in 0..reps {
            for pkt in &self.packets {
                router.receive(pkt.clone());
            }
            router.flush();
            for i in 0..router.interface_count() {
                let _ = router.take_tx(i as u32);
            }
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        shard_diff(&before, &router.shard_reports(), wall_ns)
    }

    /// [`run_parallel`](Testbench::run_parallel) on the batched fast
    /// path: ingress mbufs come from the dispatcher's buffer pool, up to
    /// `batch` packets are handed to [`ParallelRouter::receive_batch`]
    /// per call (one ring push per shard touched instead of one per
    /// packet), and transmitted packets are recycled after each
    /// repetition. `batch == 1` degenerates to per-packet dispatch
    /// through the same entry point.
    pub fn run_parallel_batched(
        &self,
        router: &mut ParallelRouter,
        reps: usize,
        batch: usize,
    ) -> ParallelRunStats {
        let batch = batch.max(1);
        let before = router.shard_reports();
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut carrier = router.batch_carrier();
            for pkt in &self.packets {
                carrier.push(router.mbuf_with(pkt.data(), pkt.rx_if));
                if carrier.len() >= batch {
                    router.receive_batch(carrier);
                    carrier = router.batch_carrier();
                }
            }
            router.receive_batch(carrier);
            router.flush();
            for i in 0..router.interface_count() {
                for m in router.take_tx(i as u32) {
                    router.recycle_mbuf(m);
                }
            }
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        shard_diff(&before, &router.shard_reports(), wall_ns)
    }

    /// Replay through the best-effort baseline.
    pub fn run_best_effort(&self, router: &mut BestEffortRouter, reps: usize) -> RunStats {
        let mut stats = RunStats::default();
        for _ in 0..reps {
            for pkt in &self.packets {
                let m = pkt.clone();
                let t0 = Instant::now();
                let d = router.receive(m);
                stats.total_ns += t0.elapsed().as_nanos() as u64;
                stats.packets += 1;
                match d {
                    Disposition::Forwarded(_) => stats.forwarded += 1,
                    _ => stats.dropped += 1,
                }
            }
            for i in 0..4u32 {
                let _ = router.take_tx(i % 4);
            }
        }
        stats
    }

    /// Replay through the monolithic ALTQ-DRR baseline.
    pub fn run_altq(&self, router: &mut AltqDrrRouter, reps: usize) -> RunStats {
        let mut stats = RunStats::default();
        let mut now = 0u64;
        for _ in 0..reps {
            for pkt in &self.packets {
                let m = pkt.clone();
                now += 1000;
                let t0 = Instant::now();
                let d = router.receive(m, now);
                if let Disposition::Queued(i) = d {
                    router.pump(i, 1, now);
                }
                stats.total_ns += t0.elapsed().as_nanos() as u64;
                stats.packets += 1;
                match d {
                    Disposition::Queued(_) | Disposition::Forwarded(_) => stats.forwarded += 1,
                    _ => stats.dropped += 1,
                }
            }
            for i in 0..4u32 {
                let _ = router.take_tx(i % 4);
            }
        }
        stats
    }
}

/// Per-shard progress between two `shard_reports` snapshots taken
/// around a parallel run of `wall_ns`.
fn shard_diff(before: &[ShardReport], after: &[ShardReport], wall_ns: u64) -> ParallelRunStats {
    let mut stats = ParallelRunStats {
        wall_ns,
        ..ParallelRunStats::default()
    };
    for (b, a) in before.iter().zip(after) {
        // All diffs saturate: a shard restarted by the supervisor
        // mid-run comes back with fresh counters, which must read as
        // "no progress observed", not as an underflow panic.
        let pkts = a.packets.saturating_sub(b.packets);
        // Prefer the thread CPU clock (immune to preemption inflation
        // when shards outnumber host cores); it has ~10 ms granularity,
        // so short runs that round to zero fall back to the fine-grained
        // in-path wall measure.
        let cpu = a.cpu_ns.saturating_sub(b.cpu_ns);
        let busy = if cpu > 0 {
            cpu
        } else {
            a.busy_ns.saturating_sub(b.busy_ns)
        };
        stats.packets += pkts;
        stats.forwarded += a.data.forwarded.saturating_sub(b.data.forwarded);
        stats.dropped += a
            .data
            .dropped_total()
            .saturating_sub(b.data.dropped_total());
        stats.total_busy_ns += busy;
        stats.max_shard_busy_ns = stats.max_shard_busy_ns.max(busy);
        stats.shard_packets.push(pkts);
        stats.shard_busy_ns.push(busy);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{v6_host, Workload};
    use router_core::plugins::register_builtin_factories;
    use router_core::{Router, RouterConfig};

    fn plugin_router(gates: Vec<router_core::Gate>) -> Router {
        let mut r = Router::new(RouterConfig {
            enabled_gates: gates,
            verify_checksums: false,
            ..RouterConfig::default()
        });
        register_builtin_factories(&mut r.loader);
        r.add_route(v6_host(0), 32, 1);
        r
    }

    #[test]
    fn plugin_router_forwards_workload() {
        let mut r = plugin_router(vec![]);
        let tb = Testbench::new(&Workload::paper_table3());
        let stats = tb.run_router(&mut r, 2);
        assert_eq!(stats.packets, 600);
        assert_eq!(stats.forwarded, 600);
        assert_eq!(stats.dropped, 0);
        assert!(stats.total_ns > 0);
        assert!(stats.ns_per_packet() > 0.0);
    }

    #[test]
    fn flow_cache_amortizes() {
        let mut r = plugin_router(router_core::gate::ALL_GATES.to_vec());
        router_core::pmgr::run_script(
            &mut r,
            "load null\ncreate null\nbind stats null 0 <*, *, *, *, *, *>",
        )
        .unwrap();
        let tb = Testbench::new(&Workload::paper_table3());
        let stats = tb.run_router(&mut r, 1);
        // 3 flows → 3 misses, 297 hits.
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(stats.cache_hits, 297);
    }

    #[test]
    fn parallel_router_forwards_workload() {
        use router_core::plugins::register_builtin_factories;
        use router_core::{ControlPlane, ParallelRouter, ParallelRouterConfig};

        let mut template = router_core::loader::PluginLoader::new();
        register_builtin_factories(&mut template);
        let mut pr = ParallelRouter::new(
            ParallelRouterConfig {
                shards: 4,
                router: RouterConfig {
                    verify_checksums: false,
                    enabled_gates: vec![],
                    ..RouterConfig::default()
                },
                ingress_depth: 256,
                ..ParallelRouterConfig::default()
            },
            &template,
        );
        pr.cp_add_route(v6_host(0), 32, 1);

        let tb = Testbench::new(&Workload::paper_table3());
        let stats = tb.run_parallel(&mut pr, 2);
        assert_eq!(stats.packets, 600);
        assert_eq!(stats.forwarded, 600);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.shard_packets.len(), 4);
        assert_eq!(stats.shard_packets.iter().sum::<u64>(), 600);
        assert!(stats.max_shard_busy_ns > 0);
        assert!(stats.total_busy_ns >= stats.max_shard_busy_ns);
    }

    #[test]
    fn baselines_forward_too() {
        let tb = Testbench::new(&Workload::paper_table3());
        let mut be = BestEffortRouter::new(4, false);
        be.add_route(v6_host(0), 32, 1);
        let s = tb.run_best_effort(&mut be, 1);
        assert_eq!(s.forwarded, 300);

        let mut altq = AltqDrrRouter::new(4, 64, 9180, false);
        altq.add_route(v6_host(0), 32, 1);
        let s = tb.run_altq(&mut altq, 1);
        assert_eq!(s.forwarded, 300);
    }
}
