//! The traced run: the same wire-to-wire duty cycle as
//! `IoPlane::poll`, driven call by call from the benchmark so that every
//! public call into a layer sits inside a span.
//!
//! Spans carry a name, start, end, parent and packet id (the sequence
//! number). They are kept in memory; each cycle's spans are folded into
//! per-stage totals and self times (a span's duration minus the part its
//! children cover), and the first few thousand are kept verbatim and
//! written out when the run ends.
//!
//! Two kinds of span are recorded:
//!
//! * **path** spans wrap the calls the data path really makes —
//!   `NetDev::rx_batch` / `tx_batch`, `MbufPool::mbuf_from`,
//!   `Router::receive_stamped` / `pump` / `take_tx_into`, and on the
//!   sharded plane `ParallelRouter::receive_batch` / `flush` /
//!   `take_tx_into`;
//! * **stage** spans time, per packet, the public call each layer
//!   exports for the work the router does internally (parse, validate,
//!   classify, DAG lookup, plugin call, FIB lookup, DRR enqueue and
//!   dequeue, fragmentation, ring hop) on stand-alone instances fed the
//!   same packet. The router's internals are not instrumented, so this
//!   is how the per-packet cost is split by layer; the stage sum set
//!   against the path total (`trace.stage_sum_ratio`) says how much of
//!   the path the split accounts for.

use crate::oracle::{conservation, Ledger, Oracle};
use crate::run::{read_egress, WriteTimes};
use crate::traffic::seq_of;
use crate::workload::{wires, Spec, WriteKind, Writes, INGRESS_IF, MTU};
use router_core::dataplane::ParallelRouter;
use router_core::gate::GATE_COUNT;
use router_core::ip_core::{fragment_v4_with, validate_and_age, Disposition, RoutingTable};
use router_core::plugin::{InstanceRef, PacketCtx};
use router_core::{Gate, InstanceId, Router};
use rp_classifier::aiu::ClassifyOutcome;
use rp_classifier::flow_table::flow_hash;
use rp_classifier::{Aiu, AiuConfig};
use rp_netdev::loopback::{LoopbackDev, LoopbackHandle};
use rp_netdev::NetDev;
use rp_packet::pool::MbufPool;
use rp_packet::{FlowIndex, FlowTuple, Mbuf};
use rp_ring::{spsc, Consumer, Producer};
use rp_sched::{DrrScheduler, SchedPacket, Scheduler};
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Every span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One duty cycle (root).
    Cycle,
    /// `NetDev::rx_batch` on a router-side device.
    NetdevRx,
    /// `MbufPool::mbuf_from` inside the receive sink.
    PacketMbuf,
    /// `Router::receive_stamped`.
    CoreReceive,
    /// `Router::pump` after a queued disposition.
    SchedPump,
    /// `Router::take_tx_into`.
    CoreTakeTx,
    /// `NetDev::tx_batch`.
    NetdevTx,
    /// `FlowTuple::extract`.
    PacketParse,
    /// `ip_core::validate_and_age`.
    CoreValidate,
    /// `Aiu::classify` answered from the flow cache.
    ClassHit,
    /// `Aiu::classify` that created a flow record.
    ClassMiss,
    /// `DagTable::lookup_with_stats` (one gate's filter table).
    DagLookup,
    /// `PluginInstance::handle_packet` on a bound instance.
    PluginCall,
    /// `RoutingTable::lookup_cached`.
    LpmCached,
    /// `RoutingTable::lookup` (the full trie walk).
    LpmTrie,
    /// `Scheduler::enqueue` on a `DrrScheduler`.
    SchedEnqueue,
    /// `Scheduler::dequeue` on a `DrrScheduler`.
    SchedDequeue,
    /// `ip_core::fragment_v4_with` on an oversize IPv4 packet.
    CoreFragment,
    /// `rp_ring` `stage` + `publish` of a batch.
    RingPush,
    /// `rp_ring` `pop_batch` of a batch.
    RingPop,
    /// `ParallelRouter::receive_batch`.
    DpDispatch,
    /// `ParallelRouter::flush`.
    DpFlush,
    /// `ParallelRouter::take_tx_into`.
    DpTakeTx,
}

/// Number of [`Stage`]s.
pub const STAGES: usize = 23;

impl Stage {
    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Cycle => "cycle",
            Stage::NetdevRx => "netdev.rx_batch",
            Stage::PacketMbuf => "packet.mbuf_from",
            Stage::CoreReceive => "core.receive_stamped",
            Stage::SchedPump => "core.pump",
            Stage::CoreTakeTx => "core.take_tx_into",
            Stage::NetdevTx => "netdev.tx_batch",
            Stage::PacketParse => "packet.extract",
            Stage::CoreValidate => "core.validate_and_age",
            Stage::ClassHit => "classifier.classify_hit",
            Stage::ClassMiss => "classifier.classify_miss",
            Stage::DagLookup => "classifier.dag_lookup",
            Stage::PluginCall => "core.handle_packet",
            Stage::LpmCached => "lpm.lookup_cached",
            Stage::LpmTrie => "lpm.lookup",
            Stage::SchedEnqueue => "sched.enqueue",
            Stage::SchedDequeue => "sched.dequeue",
            Stage::CoreFragment => "core.fragment_v4_with",
            Stage::RingPush => "ring.stage_publish",
            Stage::RingPop => "ring.pop_batch",
            Stage::DpDispatch => "dataplane.receive_batch",
            Stage::DpFlush => "dataplane.flush",
            Stage::DpTakeTx => "dataplane.take_tx_into",
        }
    }
}

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub stage: Stage,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the parent span ([`ROOT`] for none).
    pub parent: u32,
    /// Packet id (sequence number) or, for batch spans, the cycle's first.
    pub pkt: u64,
    /// Packets or frames the call handled.
    pub items: u32,
}

/// Per-stage totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub calls: u64,
    /// Packets or frames those spans handled.
    pub items: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: u64,
}

impl Agg {
    /// Self time per handled item (ns), 0 when none.
    pub fn per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.items as f64
        }
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    child_ns: Vec<u64>,
    kept: Vec<Span>,
    keep: usize,
    /// Totals per [`Stage`] (indexed by `stage as usize`).
    pub agg: [Agg; STAGES],
}

impl Tracer {
    /// A tracer that keeps the first `keep` spans verbatim.
    pub fn new(keep: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            child_ns: Vec::with_capacity(1 << 14),
            kept: Vec::with_capacity(keep),
            keep,
            agg: [Agg::default(); STAGES],
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index in the current cycle.
    #[inline]
    pub fn push(
        &mut self,
        stage: Stage,
        start: u64,
        end: u64,
        parent: u32,
        pkt: u64,
        items: u32,
    ) -> u32 {
        self.spans.push(Span {
            stage,
            start,
            end,
            parent,
            pkt,
            items,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, stage: Stage, parent: u32, pkt: u64) -> u32 {
        let t = self.now();
        self.push(stage, t, t, parent, pkt, 0)
    }

    /// Close an open span, recording the items it handled.
    pub fn close(&mut self, idx: u32, items: u32) {
        let t = self.now();
        let s = &mut self.spans[idx as usize];
        s.end = t;
        s.items = items;
    }

    /// Fold the cycle's spans into the totals (self time = duration minus
    /// children's durations), keep the first ones verbatim, and clear.
    pub fn fold(&mut self) {
        self.child_ns.clear();
        self.child_ns.resize(self.spans.len(), 0);
        for s in &self.spans {
            if s.parent != ROOT {
                self.child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let base = self.kept.len() as u32;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let a = &mut self.agg[s.stage as usize];
            a.calls += 1;
            a.items += u64::from(s.items);
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(self.child_ns[i]);
        }
        if self.kept.len() + self.spans.len() <= self.keep {
            self.kept.extend(self.spans.iter().map(|s| Span {
                parent: if s.parent == ROOT {
                    ROOT
                } else {
                    base + s.parent
                },
                ..*s
            }));
        }
        self.spans.clear();
    }

    /// Stage totals.
    pub fn get(&self, s: Stage) -> Agg {
        self.agg[s as usize]
    }

    /// Write the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pkt\":{},\"items\":{}}}",
                s.stage.name(),
                s.start,
                s.end,
                s.pkt,
                s.items
            )?;
        }
        f.flush()
    }
}

/// Stand-alone layer instances that time, per packet, the public call
/// each layer exports for the router's internal work (see module docs).
pub struct Stages {
    pool: MbufPool,
    aiu: Aiu<u32>,
    filter_gates: Vec<usize>,
    plugin: InstanceRef,
    soft: Option<Box<dyn std::any::Any + Send>>,
    drr: DrrScheduler,
    ring: (Producer<u64>, Consumer<u64>),
    /// DAG lookups made on classification misses.
    pub dag_lookups: u64,
    /// Memory accesses those lookups counted.
    pub dag_accesses: u64,
}

impl Stages {
    /// Mirror `spec`'s filters into a stand-alone classifier and borrow
    /// the `null` instance of `layer_router` for plugin calls.
    pub fn new(spec: &Spec, layer_router: &Router) -> Result<Stages, String> {
        let mut aiu = Aiu::new(AiuConfig {
            gates: GATE_COUNT,
            flow_table: rp_classifier::FlowTableConfig {
                gates: GATE_COUNT,
                ..spec.cfg.flow_table
            },
            bmp: spec.cfg.bmp,
        });
        let mut filter_gates = Vec::new();
        for (g, f) in &spec.filters {
            aiu.install_filter(g.index(), f.clone(), 0)
                .map_err(|e| format!("stage classifier: {e}"))?;
            if !filter_gates.contains(&g.index()) {
                filter_gates.push(g.index());
            }
        }
        let plugin = layer_router
            .pcu
            .instance("null", InstanceId(0))
            .map_err(|e| format!("stage plugin: {e}"))?;
        Ok(Stages {
            pool: MbufPool::default(),
            aiu,
            filter_gates,
            plugin,
            soft: None,
            drr: DrrScheduler::new(1500, 512),
            ring: spsc(1024),
            dag_lookups: 0,
            dag_accesses: 0,
        })
    }

    /// Time every per-packet stage on `bytes`.
    pub fn packet(
        &mut self,
        tr: &mut Tracer,
        parent: u32,
        bytes: &[u8],
        seq: u64,
        fib: &mut RoutingTable,
    ) {
        let mut m = self.pool.mbuf_from(bytes, INGRESS_IF);
        let t0 = tr.now();
        let tuple = FlowTuple::extract(bytes, INGRESS_IF);
        let t1 = tr.now();
        tr.push(Stage::PacketParse, t0, t1, parent, seq, 1);
        black_box(validate_and_age(&mut m, true).ok());
        let t2 = tr.now();
        tr.push(Stage::CoreValidate, t1, t2, parent, seq, 1);
        let Ok(tuple) = tuple else {
            self.pool.recycle(m);
            return;
        };
        let (outcome, evicted) = self.aiu.classify(&tuple);
        let t3 = tr.now();
        drop(evicted);
        let miss = !matches!(outcome, ClassifyOutcome::CacheHit(_));
        let st = if miss {
            Stage::ClassMiss
        } else {
            Stage::ClassHit
        };
        tr.push(st, t2, t3, parent, seq, 1);
        let mut t = tr.now();
        if miss {
            for &g in &self.filter_gates {
                let (hit, stats) = self.aiu.filter_table(g).lookup_with_stats(&tuple);
                black_box(hit.map(|(id, _)| id));
                let t_end = tr.now();
                tr.push(Stage::DagLookup, t, t_end, parent, seq, 1);
                self.dag_lookups += 1;
                self.dag_accesses += stats.total();
                t = t_end;
            }
        }
        let action = {
            let mut ctx = PacketCtx {
                gate: Gate::Stats,
                now_ns: seq,
                fix: FlowIndex(0),
                filter: None,
                soft_state: &mut self.soft,
                cost_ns: 0,
            };
            self.plugin.handle_packet(&mut m, &mut ctx)
        };
        black_box(action);
        let t4 = tr.now();
        tr.push(Stage::PluginCall, t, t4, parent, seq, 1);
        black_box(fib.lookup_cached(tuple.dst));
        let t5 = tr.now();
        tr.push(Stage::LpmCached, t4, t5, parent, seq, 1);
        black_box(fib.lookup(tuple.dst));
        let t6 = tr.now();
        tr.push(Stage::LpmTrie, t5, t6, parent, seq, 1);
        {
            let drr = &mut self.drr;
            let pkt = SchedPacket {
                flow: flow_hash(&tuple),
                len: bytes.len() as u32,
                arrival_ns: seq,
                cookie: seq,
            };
            let t7 = tr.now();
            black_box(drr.enqueue(pkt, seq));
            let t8 = tr.now();
            tr.push(Stage::SchedEnqueue, t7, t8, parent, seq, 1);
            black_box(drr.dequeue(seq));
            let t9 = tr.now();
            tr.push(Stage::SchedDequeue, t8, t9, parent, seq, 1);
        }
        if bytes.len() > MTU && bytes[0] >> 4 == 4 {
            let pool = &mut self.pool;
            let t10 = tr.now();
            let frags = fragment_v4_with(bytes, MTU, &mut || pool.buffer());
            let t11 = tr.now();
            tr.push(Stage::CoreFragment, t10, t11, parent, seq, 1);
            for f in frags.into_iter().flatten() {
                self.pool.recycle_buf(f);
            }
        }
        self.pool.recycle(m);
    }

    /// Time one ring hop of `n` items at the cycle's batch size.
    pub fn ring(&mut self, tr: &mut Tracer, parent: u32, first: u64, n: usize) {
        let (tx, rx) = &mut self.ring;
        let t0 = tr.now();
        for i in 0..n as u64 {
            let _ = tx.stage(first + i);
        }
        tx.publish();
        let t1 = tr.now();
        tr.push(Stage::RingPush, t0, t1, parent, first, n as u32);
        let mut sum = 0u64;
        rx.pop_batch(n, &mut |v| sum = sum.wrapping_add(v));
        black_box(sum);
        let t2 = tr.now();
        tr.push(Stage::RingPop, t1, t2, parent, first, n as u32);
    }
}

/// The data plane a traced run drives (one value per run, so the size
/// difference between the variants does not matter).
#[allow(clippy::large_enum_variant)]
pub enum Real {
    /// A single router.
    Single(Router),
    /// A sharded plane, plus a single router configured the same way that
    /// processes the same packets so `core.receive_stamped` can be timed
    /// from the benchmark (the shard's own calls run on its thread).
    Sharded {
        /// The real plane.
        plane: ParallelRouter,
        /// The stand-alone router.
        shadow: Router,
    },
}

impl Real {
    /// The router whose per-layer counters the traced run reports.
    pub fn layer_router(&self) -> &Router {
        match self {
            Real::Single(r) => r,
            Real::Sharded { shadow, .. } => shadow,
        }
    }
}

/// Outcome of a traced run.
pub struct Traced {
    /// The span recorder (totals and kept spans).
    pub tracer: Tracer,
    /// The per-packet stages.
    pub stages: Stages,
    /// The plane, for its counters.
    pub real: Real,
    /// Packets offered.
    pub packets: u64,
    /// Duty cycles.
    pub cycles: u64,
    /// Largest shard ingress depth seen right after a dispatch.
    pub shard_depth_max: usize,
    /// Control-write timings.
    pub write_times: WriteTimes,
    /// FIB-cache invalidations per route write.
    pub invalidations: u64,
    /// Route writes applied.
    pub route_writes: u64,
    /// Note from the conservation check.
    pub note: Option<String>,
}

/// Run the traced duty cycle for `dur` on `real`, offering `batch`
/// frames per cycle starting at sequence number `seq0`.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    spec: &Spec,
    mut real: Real,
    oracle: &mut Oracle,
    mut writes: Option<&mut Writes>,
    seq0: u64,
    dur: Duration,
    keep_spans: usize,
) -> Result<Traced, String> {
    let mut stages = Stages::new(spec, real.layer_router())?;
    let mut tr = Tracer::new(keep_spans);
    let (mut devs, mut peers, ingress): (Vec<LoopbackDev>, Vec<LoopbackDev>, LoopbackHandle) =
        wires();
    let mut rx: Vec<Mbuf> = Vec::with_capacity(spec.batch);
    let mut tx: Vec<Mbuf> = Vec::with_capacity(4 * spec.batch);
    let mut scratch: Vec<Mbuf> = Vec::with_capacity(4 * spec.batch);
    let mut buf = Vec::with_capacity(4096);
    let mut out_times = WriteTimes::default();
    let (mut seq, mut cycles, mut depth_max, mut route_writes) = (seq0, 0u64, 0usize, 0u64);
    let inv0 = real.layer_router().fib_cache_stats().invalidations;
    let extra0 = oracle.tally.extra_frames;
    let start = Instant::now();
    while start.elapsed() < dur {
        let n = match writes.as_deref() {
            Some(w) => spec.batch.min((w.next_at() - seq) as usize),
            None => spec.batch,
        };
        let lo = seq;
        for s in lo..lo + n as u64 {
            oracle.traffic().frame(s, &mut buf);
            assert!(ingress.inject(&buf), "ingress wire full");
        }
        seq += n as u64;
        oracle.begin_cycle(lo, seq);
        let c = tr.open(Stage::Cycle, ROOT, lo);
        let wall = rp_packet::coarse_now_ns();
        for (i, dev) in devs.iter_mut().enumerate() {
            let s = tr.open(Stage::NetdevRx, c, lo);
            let pool = match &mut real {
                Real::Single(r) => r.pool_mut(),
                Real::Sharded { plane, .. } => plane.pool_mut(),
            };
            let trr = &mut tr;
            let rxr = &mut rx;
            let got = dev.rx_batch(spec.batch, &mut |bytes| {
                let t0 = trr.now();
                let mut m = pool.mbuf_from(bytes, i as u32);
                m.timestamp_ns = wall;
                let t1 = trr.now();
                trr.push(Stage::PacketMbuf, t0, t1, s, seq_of(bytes).unwrap_or(0), 1);
                rxr.push(m);
            });
            tr.close(s, got.frames as u32);
        }
        for m in &rx {
            let sq = seq_of(m.data()).unwrap_or(0);
            stages.packet(&mut tr, c, m.data(), sq, &mut oracle.reference);
        }
        stages.ring(&mut tr, c, lo, rx.len());
        match &mut real {
            Real::Single(r) => {
                for m in rx.drain(..) {
                    let sq = seq_of(m.data()).unwrap_or(0);
                    let t0 = tr.now();
                    let d = r.receive_stamped(m, wall);
                    let t1 = tr.now();
                    tr.push(Stage::CoreReceive, t0, t1, c, sq, 1);
                    if let Disposition::Queued(ifc) = d {
                        r.pump(ifc, 1);
                        let t2 = tr.now();
                        tr.push(Stage::SchedPump, t1, t2, c, sq, 1);
                    }
                }
                for (i, dev) in devs.iter_mut().enumerate() {
                    let t0 = tr.now();
                    r.take_tx_into(i as u32, &mut tx);
                    let t1 = tr.now();
                    let k = tx.len() as u32;
                    tr.push(Stage::CoreTakeTx, t0, t1, c, lo, k);
                    if k > 0 {
                        dev.tx_batch(&mut tx, r.pool_mut());
                        let t2 = tr.now();
                        tr.push(Stage::NetdevTx, t1, t2, c, lo, k);
                    }
                }
            }
            Real::Sharded { plane, shadow } => {
                for m in &rx {
                    let sq = seq_of(m.data()).unwrap_or(0);
                    let mut sm = shadow.mbuf_with(m.data(), m.rx_if);
                    sm.timestamp_ns = wall;
                    let t0 = tr.now();
                    let d = shadow.receive_stamped(sm, wall);
                    let t1 = tr.now();
                    tr.push(Stage::CoreReceive, t0, t1, c, sq, 1);
                    if let Disposition::Queued(ifc) = d {
                        shadow.pump(ifc, 1);
                        let t2 = tr.now();
                        tr.push(Stage::SchedPump, t1, t2, c, sq, 1);
                    }
                }
                for i in 0..devs.len() {
                    shadow.take_tx_into(i as u32, &mut scratch);
                    for m in scratch.drain(..) {
                        shadow.recycle_mbuf(m);
                    }
                }
                let mut carrier = plane.batch_carrier();
                std::mem::swap(&mut carrier, &mut rx);
                let t0 = tr.now();
                plane.receive_batch(carrier);
                let t1 = tr.now();
                tr.push(Stage::DpDispatch, t0, t1, c, lo, n as u32);
                depth_max = depth_max.max(plane.shard_depths().into_iter().max().unwrap_or(0));
                let t2 = tr.now();
                plane.flush();
                let t3 = tr.now();
                tr.push(Stage::DpFlush, t2, t3, c, lo, n as u32);
                for (i, dev) in devs.iter_mut().enumerate() {
                    let t0 = tr.now();
                    plane.take_tx_into(i as u32, &mut tx);
                    let t1 = tr.now();
                    let k = tx.len() as u32;
                    tr.push(Stage::DpTakeTx, t0, t1, c, lo, k);
                    if k > 0 {
                        dev.tx_batch(&mut tx, plane.pool_mut());
                        let t2 = tr.now();
                        tr.push(Stage::NetdevTx, t1, t2, c, lo, k);
                    }
                }
            }
        }
        tr.close(c, n as u32);
        tr.fold();
        read_egress(&mut peers, oracle, &mut |_| {});
        oracle.end_cycle();
        cycles += 1;
        if let Some(w) = writes.as_deref_mut() {
            if seq >= w.next_at() {
                let Real::Single(r) = &mut real else {
                    return Err("control writes need a single-router plane".into());
                };
                let (kind, dt) = w.apply(r, oracle)?;
                let us = dt.as_secs_f64() * 1e6;
                match kind {
                    WriteKind::Route => {
                        route_writes += 1;
                        out_times.route_us.push(us)
                    }
                    WriteKind::Filter => out_times.filter_us.push(us),
                }
            }
        }
    }
    let invalidations = real.layer_router().fib_cache_stats().invalidations - inv0;
    // Conservation on the traced plane, from its devices' counters.
    let offered = seq - seq0;
    let s = match &mut real {
        Real::Single(r) => r.stats(),
        Real::Sharded { plane, .. } => plane.stats(),
    };
    let l = Ledger {
        offered,
        device_rx: devs.iter().map(|d| d.stats().rx_packets).sum(),
        device_tx: devs.iter().map(|d| d.stats().tx_packets).sum(),
        received: s.received,
        forwarded: s.forwarded,
        drops: s.dropped_total(),
        extra_frames: oracle.tally.extra_frames - extra0,
    };
    let program_ok = s.received == s.forwarded + s.dropped_total();
    let note = match conservation(&l, program_ok) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("wirebench: after the traced phase: {e}");
            oracle.note_conservation(false);
            None
        }
    };
    Ok(Traced {
        tracer: tr,
        stages,
        real,
        packets: offered,
        cycles,
        shard_depth_max: depth_max,
        write_times: out_times,
        invalidations,
        route_writes,
        note,
    })
}
