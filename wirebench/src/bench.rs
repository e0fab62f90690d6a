//! One benchmark run: build the workload, run its phases, and turn what
//! they measured into the catalogue's metrics.

use crate::ablation::{self, Ablation};
use crate::metrics::Values;
use crate::oracle::{Oracle, Tally};
use crate::run::{Driver, OpenLoop, Saturation, WriteTimes};
use crate::stats::{log2_quantile, median};
use crate::trace::{self, Real, Stage, Traced};
use crate::workload::{self, Plane, Rig, Scale, Spec, Writes};
use router_core::dataplane::control::ControlPlane;
use router_core::dataplane::ParallelRouter;
use router_core::ip_core::DataPathStats;
use router_core::pmgr::run_script;
use router_core::Router;
use rp_classifier::flow_table::FlowTableStats;
use rp_netdev::IoRouter;
use std::net::{IpAddr, Ipv4Addr};
use std::time::{Duration, Instant};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// How a run's measurement time is split (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Closed-loop warm-up (checked, not measured).
    pub warmup: f64,
    /// Closed-loop saturation.
    pub saturation: f64,
    /// Open-loop at the workload's fixed rate.
    pub open_loop: f64,
    /// Traced duty cycles.
    pub traced: f64,
    /// Table 3 ablation.
    pub ablation: f64,
    /// Traced cross-thread sub-run (see [`cross_thread`]).
    pub cross: f64,
    /// Alternating saturation / open-loop rounds.
    pub rounds: usize,
}

impl Phases {
    fn plan(seconds: f64, trace: bool, extras: bool) -> Phases {
        if !trace {
            return Phases {
                warmup: 0.1 * seconds,
                saturation: 0.4 * seconds,
                open_loop: 0.5 * seconds,
                rounds: 10,
                ..Phases::default()
            };
        }
        let (abl, cross) = if extras {
            (0.2 * seconds, 0.15 * seconds)
        } else {
            (0.0, 0.0)
        };
        Phases {
            warmup: 0.05 * seconds,
            saturation: 0.15 * seconds,
            open_loop: 0.2 * seconds,
            traced: 0.6 * seconds - abl - cross,
            ablation: abl,
            cross,
            rounds: 4,
        }
    }
}

/// Set-ups timed before the first round of an untraced run (the median
/// over all timed set-ups is `setup_s`).
pub const SETUP_REPS: usize = 3;
/// A set-up faster than this is also timed between rounds, so its median
/// samples the host over the whole run, not one moment of it.
const CHEAP_SETUP_S: f64 = 0.02;
/// Set-up time spent between two rounds when set-ups are cheap.
const SETUP_ROUND_S: f64 = 0.05;
/// Length of one pps window. Each window yields one reading and the
/// phase reports the median over windows, so a stall of the shared host
/// spoils a few windows rather than the result.
pub const PPS_WINDOW_S: f64 = 0.1;

/// pps windows in a slice of `s` seconds.
fn windows_in(s: f64) -> usize {
    ((s / PPS_WINDOW_S).round() as usize).max(1)
}

/// Time set-ups of throwaway rigs for about `budget` seconds.
fn time_setups<P: RunPlane>(spec: &Spec, budget: f64) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    let mut total = 0.0;
    while total < budget {
        let t0 = Instant::now();
        let r = workload::rig(P::build(spec)?, spec.batch);
        let dt = t0.elapsed().as_secs_f64();
        drop(r);
        total += dt;
        out.push(dt);
    }
    Ok(out)
}

/// Spans kept verbatim for the written trace.
const KEEP_SPANS: usize = 20_000;

/// The data-plane calls the untraced run needs beyond [`IoRouter`].
pub trait RunPlane: IoRouter + ControlPlane + Sized {
    /// Build from a spec.
    fn build(spec: &Spec) -> Result<Self, String>;
    /// p99 of the plane's end-to-end sojourn histogram (ns).
    fn sojourn_p99_ns(&mut self) -> u64;
}

impl RunPlane for Router {
    fn build(spec: &Spec) -> Result<Self, String> {
        workload::build_router(spec)
    }
    fn sojourn_p99_ns(&mut self) -> u64 {
        log2_quantile(&self.metrics_snapshot().sojourn_ns.buckets, 0.99) as u64
    }
}

impl RunPlane for ParallelRouter {
    fn build(spec: &Spec) -> Result<Self, String> {
        workload::build_parallel(spec)
    }
    fn sojourn_p99_ns(&mut self) -> u64 {
        log2_quantile(&self.metrics_snapshot().sojourn_ns.buckets, 0.99) as u64
    }
}

/// What the untraced phases measured.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Saturation phase.
    pub sat: Saturation,
    /// Open-loop phase.
    pub open: OpenLoop,
    /// Packets offered over all untraced phases.
    pub offered: u64,
    /// Allocations inside `IoPlane::poll` during saturation, per packet.
    pub allocs_per_pkt: f64,
    /// Fresh pool buffers during saturation, per packet.
    pub pool_fresh_per_pkt: f64,
    /// Control-write timings.
    pub writes: WriteTimes,
    /// Data-path counters at the end.
    pub stats: DataPathStats,
    /// Sojourn p99 of the plane (ns).
    pub sojourn_p99_ns: u64,
    /// Notes from the conservation checks.
    pub notes: Vec<String>,
}

fn untraced<P: RunPlane>(
    spec: &Spec,
    oracle: &mut Oracle,
    writes: Option<&mut Writes>,
    ph: &Phases,
    setup_reps: usize,
    seed: u64,
) -> Result<Untraced, String> {
    let (mut rig, mut setup_s): (Rig<P>, _) = workload::timed_setup(spec, setup_reps, P::build)?;
    let cheap = setup_reps > 1 && median(&mut setup_s.clone()) < CHEAP_SETUP_S;
    let mut d = Driver::new(&mut rig, oracle, writes, seed);
    d.saturate(spec.batch, secs(ph.warmup), 1, false)?;
    d.check_conservation("warm-up");
    // Saturation and open loop alternate in rounds, so both sample the
    // host over the whole run rather than one stretch of it.
    let fresh0 = d.rig.iop.plane_mut().io_pool().stats().fresh;
    let seq0 = d.seq;
    let (mut sat, mut open) = (Saturation::default(), OpenLoop::default());
    let rounds = ph.rounds as f64;
    for _ in 0..ph.rounds {
        if cheap {
            setup_s.extend(time_setups::<P>(spec, SETUP_ROUND_S)?);
        }
        let sat_s = ph.saturation / rounds;
        let s = d.saturate(spec.batch, secs(sat_s), windows_in(sat_s), true)?;
        sat.absorb(s);
        d.check_conservation("saturation");
        let open_s = ph.open_loop / rounds;
        let o = d.open_loop(spec.open_pps, spec.batch, secs(open_s))?;
        open.absorb(o);
        d.check_conservation("open loop");
    }
    let fresh = d.rig.iop.plane_mut().io_pool().stats().fresh - fresh0;
    let measured = (d.seq - seq0).max(1);
    Ok(Untraced {
        notes: std::mem::take(&mut d.notes),
        setup_s,
        offered: d.offered,
        allocs_per_pkt: d.poll_allocs as f64 / d.alloc_pkts.max(1) as f64,
        pool_fresh_per_pkt: fresh as f64 / measured as f64,
        writes: std::mem::take(&mut d.write_times),
        sat,
        open,
        stats: d.rig.iop.plane().io_stats(),
        sojourn_p99_ns: d.rig.iop.plane_mut().sojourn_p99_ns(),
    })
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Everything a run produced.
pub struct Outcome {
    /// The workload's spec (its name, plane, rate, batch).
    pub spec_name: &'static str,
    /// The metrics this run reports.
    pub values: Values,
    /// Oracle counts over the whole run.
    pub tally: Tally,
    /// Packets offered over the whole run.
    pub offered: u64,
    /// Human-readable notes (E3 checks, sample counts).
    pub notes: Vec<String>,
    /// Run metadata, as JSON members.
    pub meta: Vec<(String, String)>,
    /// The traced run's spans, for writing out.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed() == 0
    }
}

/// Run one workload. Errors are set-up failures (no result is printed).
pub fn run(opts: &Opts, scale: Scale) -> Result<Outcome, String> {
    let mut spec = workload::spec(&opts.workload, opts.seed, scale)?;
    let mut oracle = workload::oracle(&spec);
    let mut writes = spec.writes.take();
    // The single-router workloads' traced runs also carry the Table 3
    // ablation and the cross-thread sub-run, so every layer's cost is
    // measured in every traced run of the gated set.
    let extras = opts.trace && spec.plane == Plane::Single;
    let ph = Phases::plan(opts.seconds, opts.trace, extras);
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let a = match spec.plane {
        Plane::Single => {
            untraced::<Router>(&spec, &mut oracle, writes.as_mut(), &ph, reps, opts.seed)?
        }
        Plane::Sharded => {
            untraced::<ParallelRouter>(&spec, &mut oracle, writes.as_mut(), &ph, reps, opts.seed)?
        }
    };
    let mut offered = a.offered;
    let mut values = Values::default();
    let mut notes = a.notes.clone();
    let mut tracer = None;
    let mut abl = None;
    if opts.trace {
        if let Some(w) = writes.as_mut() {
            w.reset(&mut oracle);
        }
        let real = match spec.plane {
            Plane::Single => Real::Single(workload::build_router(&spec)?),
            Plane::Sharded => Real::Sharded {
                plane: workload::build_parallel(&spec)?,
                shadow: workload::build_router(&spec)?,
            },
        };
        let mut b = trace::traced(
            &spec,
            real,
            &mut oracle,
            writes.as_mut(),
            0,
            secs(ph.traced),
            KEEP_SPANS,
        )?;
        offered += b.packets;
        if let (None, Real::Single(r)) = (&writes, &mut b.real) {
            let probe = control_probe(r)?;
            b.write_times.route_us.extend(probe.route_us);
            b.write_times.filter_us.extend(probe.filter_us);
        }
        if let Some(n) = b.note.take() {
            if !notes.contains(&n) {
                notes.push(n);
            }
        }
        if extras {
            let r = ablation::run(opts.seed, secs(ph.ablation))?;
            if r.lost > 0 {
                eprintln!("wirebench: ablation rows lost {} packets", r.lost);
                oracle.tally.missing += r.lost;
            }
            for (what, pass) in r.e3_checks() {
                notes.push(format!("E3 {}: {what}", if pass { "pass" } else { "FAIL" }));
            }
            abl = Some(r);
        }
        let cross = if ph.cross > 0.0 {
            let c = cross_thread(opts.seed, scale, secs(ph.cross))?;
            offered += c.traced.packets;
            oracle.tally.absorb(&c.tally);
            notes.push(format!(
                "cross-thread sub-run: {} sharded_imix packets through a one-shard ParallelRouter",
                c.traced.packets
            ));
            if let Some(n) = c.traced.note.clone() {
                if !notes.contains(&n) {
                    notes.push(n);
                }
            }
            Some(c)
        } else {
            None
        };
        layer_metrics(
            &spec,
            &a,
            &mut b,
            abl.as_ref(),
            &oracle,
            offered,
            &mut values,
        );
        match (spec.plane, &cross) {
            (Plane::Sharded, _) => cross_metrics(
                Some((
                    &b,
                    a.stats.dropped_shard_overload + a.stats.dropped_shard_down,
                    a.sojourn_p99_ns,
                )),
                &mut values,
            ),
            (_, Some(c)) => cross_metrics(Some((&c.traced, c.shed, c.sojourn_p99_ns)), &mut values),
            _ => cross_metrics(None, &mut values),
        }
        notes.push(format!(
            "traced: {} packets in {} cycles",
            b.packets, b.cycles
        ));
        tracer = Some(b.tracer);
    } else {
        values.set("pps", a.sat.pps());
        values.set("latency_p50_us", median(&mut a.open.window_p50_us.clone()));
        values.set("latency_p99_us", median(&mut a.open.window_p99_us.clone()));
        values.set("setup_s", median(&mut a.setup_s.clone()));
        values.set("peak_rss_mb", peak_rss_mb());
    }
    let tally = oracle.tally;
    notes.push(format!(
        "drop_frac = {} ({} failed of {} offered; {:?})",
        tally.failed() as f64 / offered.max(1) as f64,
        tally.failed(),
        offered,
        tally
    ));
    notes.push(format!(
        "samples: pps windows {} (packets {}), latency windows {} (samples {}), open-loop rate {} pps",
        a.sat.window_pps.len(),
        a.sat.packets,
        a.open.window_p99_us.len(),
        a.open.samples,
        a.open.rate_pps
    ));
    let meta = crate::meta::collect(opts, &spec, &ph, &a, abl.as_ref(), offered);
    Ok(Outcome {
        spec_name: spec.name,
        values,
        tally,
        offered,
        notes,
        meta,
        tracer,
    })
}

/// Per-layer metrics from the traced run (see the catalogue).
fn layer_metrics(
    spec: &Spec,
    a: &Untraced,
    b: &mut Traced,
    abl: Option<&Ablation>,
    oracle: &Oracle,
    offered: u64,
    v: &mut Values,
) {
    let t = &b.tracer;
    let pkts = t.get(Stage::CoreReceive).items.max(1) as f64;
    let sharded = spec.plane == Plane::Sharded;
    let per_pkt = |s: Stage| t.get(s).total_ns as f64 / pkts;
    let (stats, flows): (DataPathStats, FlowTableStats) = match &mut b.real {
        Real::Single(r) => (r.stats(), r.flow_stats()),
        Real::Sharded { plane, .. } => (plane.stats(), plane.flow_stats()),
    };
    let layer = b.real.layer_router();
    let fib = layer.fib_cache_stats();
    let calls_per_pkt = stats.plugin_calls as f64 / stats.received.max(1) as f64;

    v.set("netdev.rx_ns", t.get(Stage::NetdevRx).per_item());
    v.set("netdev.tx_ns", t.get(Stage::NetdevTx).per_item());
    v.set("netdev.rx_batch_mean", a.open.batch_mean());
    v.set("packet.mbuf_ns", t.get(Stage::PacketMbuf).per_item());
    v.set("packet.parse_ns", t.get(Stage::PacketParse).per_item());
    v.set("packet.allocs_per_pkt", a.allocs_per_pkt);
    v.set("packet.pool_fresh_per_pkt", a.pool_fresh_per_pkt);
    v.set("core.validate_ns", t.get(Stage::CoreValidate).per_item());
    let receive_ns = per_pkt(Stage::CoreReceive) + per_pkt(Stage::SchedPump);
    v.set("core.receive_ns", receive_ns);
    v.set("core.plugin_call_ns", t.get(Stage::PluginCall).per_item());
    v.set("core.plugin_calls_per_pkt", calls_per_pkt);
    v.set("classifier.hit_ns", t.get(Stage::ClassHit).per_item());
    v.set("classifier.miss_ns", t.get(Stage::ClassMiss).per_item());
    v.set(
        "classifier.dag_lookup_ns",
        t.get(Stage::DagLookup).per_item(),
    );
    v.set(
        "classifier.dag_accesses",
        b.stages.dag_accesses as f64 / b.stages.dag_lookups.max(1) as f64,
    );
    v.set(
        "classifier.miss_ratio",
        flows.misses as f64 / (flows.hits + flows.misses).max(1) as f64,
    );
    v.set(
        "classifier.evicted_per_kpkt",
        (flows.recycled + flows.evicted_lru + flows.inline_expired) as f64 * 1e3
            / stats.received.max(1) as f64,
    );
    v.set("classifier.resize_steps", flows.resize_steps as f64);
    v.set(
        "classifier.flow_mem_mb",
        layer.flow_mem_bytes() as f64 / 1e6,
    );
    v.set("lpm.lookup_cached_ns", t.get(Stage::LpmCached).per_item());
    v.set("lpm.lookup_trie_ns", t.get(Stage::LpmTrie).per_item());
    v.set(
        "lpm.cache_hit_ratio",
        fib.hits as f64 / (fib.hits + fib.misses).max(1) as f64,
    );
    let mut route: Vec<f64> = a
        .writes
        .route_us
        .iter()
        .chain(&b.write_times.route_us)
        .copied()
        .collect();
    let mut filt: Vec<f64> = a
        .writes
        .filter_us
        .iter()
        .chain(&b.write_times.filter_us)
        .copied()
        .collect();
    v.set("lpm.route_update_us", median(&mut route));
    v.set(
        "lpm.invalidations",
        b.invalidations as f64 / b.route_writes.max(1) as f64,
    );
    v.set("control.filter_bind_us", median(&mut filt));
    v.set("sched.enqueue_ns", t.get(Stage::SchedEnqueue).per_item());
    v.set("sched.dequeue_ns", t.get(Stage::SchedDequeue).per_item());
    // `Router::pump` runs only behind a queuing scheduling gate; without
    // one on this workload, the ablation's plugin-DRR row times it.
    let pump = t.get(Stage::SchedPump);
    v.set(
        "sched.pump_ns",
        if pump.items > 0 {
            pump.per_item()
        } else {
            abl.map_or(0.0, |r| r.pump_ns)
        },
    );
    v.set("gen.lag_us_p99", a.open.lag_ns.quantile(0.99) as f64 / 1e3);

    // The path the packets really took, per packet…
    let path = per_pkt(Stage::NetdevRx)
        + per_pkt(Stage::NetdevTx)
        + if sharded {
            per_pkt(Stage::DpDispatch) + per_pkt(Stage::DpFlush) + per_pkt(Stage::DpTakeTx)
        } else {
            receive_ns + per_pkt(Stage::CoreTakeTx)
        };
    // …and the sum of the layer stages it is made of.
    let rx_self = t.get(Stage::NetdevRx).self_ns as f64 / pkts;
    let stages = rx_self
        + per_pkt(Stage::PacketMbuf)
        + per_pkt(Stage::PacketParse)
        + per_pkt(Stage::CoreValidate)
        + per_pkt(Stage::ClassHit)
        + per_pkt(Stage::ClassMiss)
        + calls_per_pkt * t.get(Stage::PluginCall).per_item()
        + per_pkt(Stage::LpmCached)
        + if spec.drr {
            per_pkt(Stage::SchedEnqueue) + per_pkt(Stage::SchedDequeue)
        } else {
            0.0
        }
        + per_pkt(Stage::CoreFragment)
        + if sharded {
            per_pkt(Stage::RingPush) + per_pkt(Stage::RingPop)
        } else {
            0.0
        }
        + per_pkt(Stage::NetdevTx);
    v.set(
        "trace.stage_sum_ratio",
        if path > 0.0 { stages / path } else { 0.0 },
    );
    let untraced_ns = 1e9 / a.sat.pps();
    let traced_ns = t.get(Stage::Cycle).total_ns as f64 / pkts;
    v.set(
        "trace.overhead_pct",
        100.0 * (traced_ns - untraced_ns) / untraced_ns,
    );
    v.set(
        "drop_frac",
        oracle.tally.failed() as f64 / offered.max(1) as f64,
    );
    let mhz = crate::meta::cpu_mhz();
    let r = abl.copied().unwrap_or_default();
    for (ns, cyc, val) in [
        (
            "ablation.best_effort_ns",
            "ablation.best_effort_cycles",
            r.best_effort_ns,
        ),
        (
            "ablation.framework_ns",
            "ablation.framework_cycles",
            r.framework_ns,
        ),
        (
            "ablation.altq_drr_ns",
            "ablation.altq_drr_cycles",
            r.altq_drr_ns,
        ),
        (
            "ablation.plugin_drr_ns",
            "ablation.plugin_drr_cycles",
            r.plugin_drr_ns,
        ),
    ] {
        v.set(ns, val);
        v.set(cyc, val * mhz / 1e3);
    }
    v.set(
        "ablation.framework_overhead_pct",
        r.framework_overhead_pct(),
    );
    v.set("ablation.plugin_drr_vs_altq_pct", r.plugin_vs_altq_pct());
    v.set("ablation.drr_overhead_pct", r.drr_overhead_pct());
}

/// Control writes timed off the packet path, for a workload that runs
/// none beside its traffic: 16 add/remove pairs of an unused /28 route
/// and 16 bind/unbind pairs of a firewall filter, on the traced router
/// once its traffic has stopped.
fn control_probe(r: &mut Router) -> Result<WriteTimes, String> {
    let us = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;
    let mut out = WriteTimes::default();
    for i in 0..16u8 {
        let p = IpAddr::V4(Ipv4Addr::new(203, 0, 113, i * 16));
        let t0 = Instant::now();
        r.add_route(p, 28, 1);
        out.route_us.push(us(t0));
        let t0 = Instant::now();
        r.remove_route(p, 28);
        out.route_us.push(us(t0));
        let bind = format!(
            "bind fw null 0 <*, 203.0.113.{}/32, UDP, *, *, *>",
            i * 16 + 1
        );
        let t0 = Instant::now();
        let reply = run_script(r, &bind).map_err(|e| format!("control probe: {e}"))?;
        out.filter_us.push(us(t0));
        let fid = reply
            .first()
            .and_then(|l| l.strip_prefix("filter "))
            .ok_or_else(|| format!("control probe: unexpected bind reply {reply:?}"))?;
        let unbind = format!("unbind fw null {fid}");
        let t0 = Instant::now();
        run_script(r, &unbind).map_err(|e| format!("control probe: {e}"))?;
        out.filter_us.push(us(t0));
    }
    Ok(out)
}

/// The cross-thread path, traced on its own: `sharded_imix` traffic
/// (IMIX, IPv4 fragmentation) through a one-shard `ParallelRouter`.
/// `gates_small`'s traced run includes it so that the dispatch, ring and
/// fragmentation layers are measured on a workload whose end-to-end
/// figures are steady enough to gate; the sharded plane's own end-to-end
/// figures depend on how fast the host wakes the second vCPU.
pub struct Cross {
    /// The traced sub-run.
    pub traced: Traced,
    /// Its oracle counts.
    pub tally: Tally,
    /// Packets the dispatcher shed.
    pub shed: u64,
    /// p99 of the plane's sojourn histogram (ns).
    pub sojourn_p99_ns: u64,
}

fn cross_thread(seed: u64, scale: Scale, dur: Duration) -> Result<Cross, String> {
    let spec = workload::spec("sharded_imix", seed, scale)?;
    let mut oracle = workload::oracle(&spec);
    let real = Real::Sharded {
        plane: workload::build_parallel(&spec)?,
        shadow: workload::build_router(&spec)?,
    };
    let mut traced = trace::traced(&spec, real, &mut oracle, None, 0, dur, 0)?;
    let Real::Sharded { plane, .. } = &mut traced.real else {
        return Err("cross-thread sub-run lost its sharded plane".into());
    };
    let s = plane.stats();
    let sojourn_p99_ns = log2_quantile(&plane.metrics_snapshot().sojourn_ns.buckets, 0.99) as u64;
    Ok(Cross {
        shed: s.dropped_shard_overload + s.dropped_shard_down,
        sojourn_p99_ns,
        tally: oracle.tally,
        traced,
    })
}

/// The cross-thread layers (`dataplane.*`, `ring.*`, `core.fragment_ns`)
/// from a traced sharded plane with its shed count and sojourn p99, or 0
/// where no sharded plane ran.
fn cross_metrics(src: Option<(&Traced, u64, u64)>, v: &mut Values) {
    let Some((b, shed, sojourn_ns)) = src else {
        for m in [
            "dataplane.dispatch_ns",
            "dataplane.flush_us",
            "dataplane.take_tx_ns",
            "dataplane.shard_depth_max",
            "dataplane.shed",
            "dataplane.sojourn_p99_us",
            "ring.push_ns",
            "ring.pop_ns",
            "core.fragment_ns",
        ] {
            v.set(m, 0.0);
        }
        return;
    };
    let t = &b.tracer;
    let flush = t.get(Stage::DpFlush);
    v.set("dataplane.dispatch_ns", t.get(Stage::DpDispatch).per_item());
    v.set(
        "dataplane.flush_us",
        flush.total_ns as f64 / flush.calls.max(1) as f64 / 1e3,
    );
    v.set("dataplane.take_tx_ns", t.get(Stage::DpTakeTx).per_item());
    v.set("dataplane.shard_depth_max", b.shard_depth_max as f64);
    v.set("dataplane.shed", shed as f64);
    v.set("dataplane.sojourn_p99_us", sojourn_ns as f64 / 1e3);
    v.set("ring.push_ns", t.get(Stage::RingPush).per_item());
    v.set("ring.pop_ns", t.get(Stage::RingPop).per_item());
    v.set("core.fragment_ns", t.get(Stage::CoreFragment).per_item());
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
