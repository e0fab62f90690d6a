//! The worker side of the parallel data plane: one OS thread per shard,
//! each owning a complete single-threaded [`Router`].
//!
//! A shard's mailbox is a bounded FIFO carrying both packets and control
//! commands, so per-shard ordering between the two is exactly the order
//! the dispatcher issued them in — a filter installed before a packet was
//! dispatched is guaranteed visible to that packet, just as it would be
//! on the single-threaded router.
//!
//! Shard threads are supervised: the loop runs under `catch_unwind`
//! (a panic escaping a control closure kills the *shard*, not the
//! process), writes a heartbeat the dispatcher's watchdog reads, and —
//! on any exit path, including abandonment after a stall — returns a
//! final `ShardFinal` accounting report so no counter is silently
//! lost with the thread.

use crate::ip_core::{DataPathStats, Disposition};
use crate::obs::{MetricsSnapshot, TraceCategory};
use crate::router::Router;
use crate::supervisor::run_isolated;
use crossbeam_channel::{Receiver, Sender};
use rp_classifier::flow_table::FlowTableStats;
use rp_packet::mbuf::IfIndex;
use rp_packet::Mbuf;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A control command executed on the shard thread with full access to the
/// shard's state. Results travel back through whatever channel the
/// closure captured.
pub type ControlFn = Box<dyn FnOnce(&mut ShardCtx) + Send>;

/// Everything a shard thread owns.
pub struct ShardCtx {
    /// This shard's index in the dispatch function.
    pub index: usize,
    /// The shard's complete single-threaded router: its own AIU, flow
    /// table, gates, scheduler queues, and plugin instances.
    pub router: Router,
    /// Nanoseconds this shard has spent processing packets (receive +
    /// pump), i.e. its CPU demand. With one core per shard this is the
    /// shard's wall-clock busy time; the scaling bench divides packet
    /// count by the *maximum* shard busy time to get the aggregate rate
    /// the array sustains.
    pub busy_ns: u64,
    /// Packets this shard has processed.
    pub packets: u64,
    /// Times the per-thread CPU clock could not be read (`/proc` parse
    /// failure). Surfaced in [`ShardReport`] so a zero `cpu_ns` is never
    /// silent.
    pub cpu_clock_errors: u64,
}

/// Messages a shard consumes, in strict FIFO order.
pub enum ShardMsg {
    /// One packet to run through the data path.
    Packet(Mbuf),
    /// Several packets of this shard's flows, dispatched in one ring
    /// push. Processed front-to-back, so per-flow order is identical to
    /// the equivalent sequence of `Packet` messages; the emptied carrier
    /// `Vec` is returned to the dispatcher on the scrap channel for
    /// reuse.
    Batch(Vec<Mbuf>),
    /// A control command (fan-out from the single control plane).
    Control(ControlFn),
    /// Reply `(shard index, ())` on the enclosed channel once every
    /// earlier message has been fully processed (the dispatcher's
    /// flush/quiesce point).
    Barrier(Sender<(usize, ())>),
    /// Drain and exit.
    Shutdown,
}

/// Messages the shard's consumer pulls into its local run per cursor
/// publication: bounds the latency of the abandoned-flag check while
/// amortizing the release-store over a run of messages.
const RECV_RUN: usize = 64;

/// Consumer wait tuning (see [`rp_ring::Consumer::wait_nonempty`]):
/// spin briefly for back-to-back batches, yield a few times as a cheap
/// off-ramp, then park on the doorbell. The park timeout bounds how long
/// an abandoned-but-not-disconnected worker waits before rechecking its
/// flag.
const RECV_SPINS: u32 = 64;
const RECV_YIELDS: u32 = 4;
const RECV_PARK: Duration = Duration::from_millis(2);

/// On a host with a single hardware thread the producer cannot make
/// progress while a consumer busy-polls — every spin or yield burns a
/// timeslice the dispatcher needed — so empty consumers go straight to
/// the doorbell. Probed once; spinning is only worth it with real
/// parallelism.
fn recv_wait_profile() -> (u32, u32) {
    static PROFILE: std::sync::OnceLock<(u32, u32)> = std::sync::OnceLock::new();
    *PROFILE.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores > 1 {
            (RECV_SPINS, RECV_YIELDS)
        } else {
            (0, 0)
        }
    })
}

/// The dispatcher's sending half of one shard's ingress FIFO: an SPSC
/// ring producer.
///
/// The producer sits behind a `Mutex` because read-only control
/// fan-outs send from `&self` (`ParallelRouter::read_all`); the
/// dispatcher is the only thread that ever locks it, so the lock is
/// always uncontended — a compare-exchange pair, not a contention point.
pub(crate) struct ShardSender(Mutex<rp_ring::Producer<ShardMsg>>);

impl ShardSender {
    fn producer(&self) -> std::sync::MutexGuard<'_, rp_ring::Producer<ShardMsg>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn try_send(&self, msg: ShardMsg) -> Result<(), rp_ring::PushError<ShardMsg>> {
        self.producer().try_push(msg)
    }

    /// Messages currently queued toward the shard (occupancy of the
    /// ingress ring as seen from the producer end).
    pub(crate) fn depth(&self) -> usize {
        self.producer().occupancy()
    }

    /// A sender whose peer is already gone: replacing a slot's sender
    /// with this disconnects the worker's receive loop (the abandonment
    /// path).
    pub(crate) fn dead() -> ShardSender {
        ShardSender(Mutex::new(rp_ring::spsc(1).0))
    }
}

/// The worker's receiving half, paired with [`ShardSender`]. Drains the
/// ring in runs of [`RECV_RUN`] into a local deque (one consumer-cursor
/// release-store per run) and waits with spin→yield→doorbell-park
/// adaptivity.
pub(crate) struct ShardReceiver {
    rx: rp_ring::Consumer<ShardMsg>,
    pending: VecDeque<ShardMsg>,
}

/// One shard's ingress FIFO of `depth` messages.
pub(crate) fn ingress(depth: usize) -> (ShardSender, ShardReceiver) {
    let (p, c) = rp_ring::spsc(depth.max(1));
    let rx = ShardReceiver {
        rx: c,
        pending: VecDeque::new(),
    };
    (ShardSender(Mutex::new(p)), rx)
}

impl ShardReceiver {
    /// Next message, blocking until one arrives, the ring disconnects,
    /// or `shared` is flagged abandoned (`None`). Messages left in the
    /// ring or the local run are accounted by the dispatcher's
    /// sent/processed gap.
    fn recv(&mut self, shared: &ShardShared) -> Option<ShardMsg> {
        let ShardReceiver { rx, pending } = self;
        loop {
            if let Some(m) = pending.pop_front() {
                return Some(m);
            }
            if rx.pop_batch(RECV_RUN, &mut |m| pending.push_back(m)) > 0 {
                continue;
            }
            if shared.is_abandoned() {
                return None;
            }
            let (spins, yields) = recv_wait_profile();
            match rx.wait_nonempty(spins, yields, RECV_PARK) {
                rp_ring::WaitOutcome::Disconnected => return None,
                rp_ring::WaitOutcome::Ready | rp_ring::WaitOutcome::TimedOut => {}
            }
        }
    }
}

/// Where a shard pushes transmitted packets: one carrier `Vec` per
/// egress drain, sent in one operation and drained by the dispatcher
/// under one lock; emptied carriers come back on a scrap channel so the
/// steady state allocates nothing.
pub(crate) struct EgressSink {
    pub(crate) tx: Sender<Vec<(IfIndex, Mbuf)>>,
    /// Emptied carriers returned by the dispatcher; shared by all
    /// shards (one `try_recv` per drain, not per packet).
    pub(crate) scrap: Receiver<Vec<(IfIndex, Mbuf)>>,
    /// Per-interface staging reused across drains.
    pub(crate) scratch: Vec<Mbuf>,
}

impl EgressSink {
    /// Push everything the shard's router transmitted onto the collector.
    /// Packets of one flow always leave the same shard in processing
    /// order, and a carrier preserves its fill order, so per-flow order
    /// on the collector is the router's emission order.
    fn drain(&mut self, router: &mut Router) {
        let mut carrier: Option<Vec<(IfIndex, Mbuf)>> = None;
        for i in 0..router.interface_count() {
            let ifx = i as IfIndex;
            router.take_tx_into(ifx, &mut self.scratch);
            if self.scratch.is_empty() {
                continue;
            }
            let c = carrier.get_or_insert_with(|| self.scrap.try_recv().unwrap_or_default());
            c.extend(self.scratch.drain(..).map(|p| (ifx, p)));
        }
        if let Some(c) = carrier {
            // A dropped collector means the dispatcher is gone; the
            // shard is about to shut down anyway.
            let _ = self.tx.send(c);
        }
    }
}

/// Per-shard statistics snapshot (pmgr `stats` breakdown, scaling bench).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Packets processed.
    pub packets: u64,
    /// Busy time in nanoseconds (see [`ShardCtx::busy_ns`]).
    pub busy_ns: u64,
    /// Cumulative CPU time of the shard thread in nanoseconds (0 when the
    /// platform doesn't expose it — see `cpu_clock_errors`). Unlike
    /// `busy_ns` (wall time inside the packet path) this is immune to
    /// preemption inflation when more shards than cores share the
    /// measurement host, at ~10 ms kernel accounting granularity —
    /// benches prefer it over long runs.
    pub cpu_ns: u64,
    /// Times the CPU clock read failed; a non-zero count flags that
    /// `cpu_ns` under-reports instead of letting 0 pass silently.
    pub cpu_clock_errors: u64,
    /// The shard router's data-path counters.
    pub data: DataPathStats,
    /// The shard router's flow-cache counters.
    pub flows: FlowTableStats,
}

/// The final accounting a shard thread returns on any exit path. The
/// dispatcher folds it into its "retired" totals so a restarted shard's
/// history survives the restart (soft flow-cache state does not — that
/// is rebuilt by first-packet classification, as the paper intends).
pub(crate) struct ShardFinal {
    /// The closing statistics snapshot.
    pub(crate) report: ShardReport,
    /// The closing metrics registry.
    pub(crate) metrics: MetricsSnapshot,
    /// Packets the router had counted `forwarded` into scheduler queues
    /// that never reached the wire because the shard exited. The
    /// dispatcher re-accounts them as `ShardDown` drops.
    pub(crate) stranded: u64,
    /// The panic message, when the loop died to an escaped panic.
    pub(crate) panic: Option<String>,
}

/// State shared between a shard thread and the dispatcher's watchdog:
/// a heartbeat (busy flag + timestamp), a processed-packet counter, and
/// the abandonment flag that tells a stalled thread it has been replaced.
pub(crate) struct ShardShared {
    /// Dispatcher-chosen epoch all heartbeat timestamps are relative to.
    epoch: Instant,
    /// `(ms since epoch << 1) | busy`. The shard sets `busy` before
    /// touching a message and clears it after, so a stale busy bit means
    /// the thread is stuck *inside* a message (wedged plugin, hot loop).
    state: AtomicU64,
    /// Packets fully processed. Lets the dispatcher account queue loss
    /// (`sent - processed`) without reaching into a dead thread.
    processed: AtomicU64,
    /// Set by the dispatcher when it gives up on this incarnation; the
    /// loop exits at the next message boundary instead of racing its
    /// replacement.
    abandoned: AtomicBool,
}

impl ShardShared {
    pub(crate) fn new(epoch: Instant) -> Self {
        ShardShared {
            epoch,
            state: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            abandoned: AtomicBool::new(false),
        }
    }

    fn beat(&self, busy: bool) {
        let ms = self.epoch.elapsed().as_millis() as u64;
        self.state
            .store((ms << 1) | u64::from(busy), Ordering::Relaxed);
    }

    /// How long the shard has been continuously busy inside one message,
    /// or `None` when it is between messages (idle or draining its FIFO
    /// promptly). Millisecond granularity — stall timeouts are tens of
    /// milliseconds and up.
    pub(crate) fn busy_for(&self, now: Instant) -> Option<Duration> {
        let s = self.state.load(Ordering::Relaxed);
        if s & 1 == 0 {
            return None;
        }
        let ts_ms = s >> 1;
        let now_ms = now.duration_since(self.epoch).as_millis() as u64;
        Some(Duration::from_millis(now_ms.saturating_sub(ts_ms)))
    }

    /// Packets fully processed by this incarnation.
    pub(crate) fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    pub(crate) fn mark_abandoned(&self) {
        self.abandoned.store(true, Ordering::Relaxed);
    }

    fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Relaxed)
    }
}

/// Clock ticks per second for `/proc` utime/stime fields, from
/// `getconf CLK_TCK` (the no-`unsafe` stand-in for
/// `sysconf(_SC_CLK_TCK)`), probed once per process. Falls back to 100:
/// Linux fixes `USER_HZ` at 100 for the userspace ABI regardless of the
/// kernel's internal HZ, so the fallback is the documented value, not a
/// guess.
fn user_hz() -> u64 {
    static USER_HZ: OnceLock<u64> = OnceLock::new();
    *USER_HZ.get_or_init(|| {
        std::process::Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|hz| (1..=1_000_000).contains(hz))
            .unwrap_or(100)
    })
}

/// Cumulative CPU time (user + system) of the *calling* thread, from
/// `/proc/thread-self/stat`. `None` off Linux or on parse failure.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The comm field may contain spaces; everything after the closing
    // paren is fixed-position. utime/stime are the 12th/13th tokens after
    // it, in `USER_HZ` ticks (see [`user_hz`]).
    let (_, rest) = stat.rsplit_once(')')?;
    let toks: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = toks.get(11)?.parse().ok()?;
    let stime: u64 = toks.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / user_hz()))
}

/// Run one packet through the shard's data path: receive, the
/// testbench-mirroring single pump on `Queued`, busy-time and packet
/// accounting. Shared by the `Packet` and `Batch` arms so a batch is
/// observably identical to the same packets sent one message each.
fn process_packet(ctx: &mut ShardCtx, pkt: Mbuf, wall_now_ns: u64) {
    if ctx.router.tracer().wants(TraceCategory::Shard) {
        let now = ctx.router.now_ns();
        let detail = format!("shard {} rx_if={} len={}", ctx.index, pkt.rx_if, pkt.len());
        ctx.router
            .tracer_mut()
            .record(now, TraceCategory::Shard, detail);
    }
    let t0 = Instant::now();
    let d = ctx.router.receive_stamped(pkt, wall_now_ns);
    if let Disposition::Queued(iface) = d {
        // Mirror the testbench's immediate retransmit: drain one packet
        // from the egress scheduler per arrival.
        ctx.router.pump(iface, 1);
    }
    ctx.busy_ns += t0.elapsed().as_nanos() as u64;
    ctx.packets += 1;
}

/// The message loop proper. Runs under `catch_unwind` in [`run_shard`];
/// a panic that escapes here (control closures run unprotected — packet
/// gates are already isolated per-call by the plugin supervisor) kills
/// only this shard.
fn shard_loop(
    ctx: &mut ShardCtx,
    rx: &mut ShardReceiver,
    egress: &mut EgressSink,
    scrap: &Sender<Vec<Mbuf>>,
    shared: &ShardShared,
) {
    loop {
        if shared.is_abandoned() {
            return;
        }
        // While blocked here the heartbeat shows idle, which is never a
        // stall; abandonment unblocks it because the dispatcher drops the
        // old sender when it replaces the shard (and the bounded
        // doorbell park re-checks the abandoned flag).
        let Some(msg) = rx.recv(shared) else { return };
        shared.beat(true);
        if shared.is_abandoned() {
            // A replacement already owns this shard index; drop the
            // message (the dispatcher's sent/processed gap accounts it).
            return;
        }
        match msg {
            ShardMsg::Packet(pkt) => {
                process_packet(ctx, pkt, rp_packet::coarse_now_ns());
                egress.drain(&mut ctx.router);
                shared.processed.fetch_add(1, Ordering::Relaxed);
            }
            ShardMsg::Batch(mut pkts) => {
                // One heartbeat-busy window covers the whole batch; the
                // watchdog's stall timeouts are tens of milliseconds,
                // far above any sane batch's processing time. The wall
                // clock is likewise read once per batch: sojourn is a
                // coarse end-to-end measure, not a per-packet stopwatch.
                let wall = rp_packet::coarse_now_ns();
                for pkt in pkts.drain(..) {
                    process_packet(ctx, pkt, wall);
                    shared.processed.fetch_add(1, Ordering::Relaxed);
                }
                // Egress drain is the amortized part: one pass over the
                // tx logs per batch instead of per packet.
                egress.drain(&mut ctx.router);
                // Hand the emptied carrier back for reuse. A dropped
                // scrap receiver just means the dispatcher stopped
                // recycling; the Vec is freed here instead.
                let _ = scrap.send(pkts);
            }
            ShardMsg::Control(f) => {
                f(ctx);
                // Control actions can emit too (force-unload drains
                // scheduler backlogs to the wire).
                egress.drain(&mut ctx.router);
            }
            ShardMsg::Barrier(done) => {
                let _ = done.send((ctx.index, ()));
            }
            ShardMsg::Shutdown => {
                shared.beat(false);
                return;
            }
        }
        shared.beat(false);
    }
}

/// The shard thread's entry point: run the loop under panic isolation and
/// always return a final accounting report, whatever the exit path.
pub(crate) fn run_shard(
    mut ctx: ShardCtx,
    mut rx: ShardReceiver,
    mut egress: EgressSink,
    scrap: Sender<Vec<Mbuf>>,
    shared: std::sync::Arc<ShardShared>,
) -> ShardFinal {
    let panic = run_isolated(|| shard_loop(&mut ctx, &mut rx, &mut egress, &scrap, &shared)).err();
    shared.beat(false);
    // Flush whatever already reached the tx logs, then snapshot. Both run
    // isolated too: after a panic the router may be torn mid-call and a
    // second panic here must not take down the final accounting.
    let _ = run_isolated(|| egress.drain(&mut ctx.router));
    let (metrics, stranded) = run_isolated(|| {
        let m = ctx.router.metrics_snapshot();
        let stranded: u64 = m.queue_depth.iter().sum();
        (m, stranded)
    })
    .unwrap_or((MetricsSnapshot::default(), 0));
    let report = run_isolated(|| ctx.report()).unwrap_or(ShardReport {
        shard: ctx.index,
        packets: ctx.packets,
        busy_ns: ctx.busy_ns,
        cpu_clock_errors: ctx.cpu_clock_errors,
        ..ShardReport::default()
    });
    ShardFinal {
        report,
        metrics,
        stranded,
        panic,
    }
}

impl ShardCtx {
    /// Statistics snapshot. Meant to run *on the shard thread* (i.e. via
    /// `control_map`), so `cpu_ns` reads that thread's CPU clock; a
    /// failed read is counted, not silently reported as 0.
    pub fn report(&mut self) -> ShardReport {
        let cpu_ns = match thread_cpu_ns() {
            Some(ns) => ns,
            None => {
                self.cpu_clock_errors += 1;
                0
            }
        };
        ShardReport {
            shard: self.index,
            packets: self.packets,
            busy_ns: self.busy_ns,
            cpu_ns,
            cpu_clock_errors: self.cpu_clock_errors,
            data: self.router.stats(),
            flows: self.router.flow_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_hz_is_sane() {
        let hz = user_hz();
        assert!((1..=1_000_000).contains(&hz), "USER_HZ {hz}");
    }

    #[test]
    fn thread_cpu_clock_reads_on_linux() {
        if cfg!(target_os = "linux") {
            // Parse must succeed; the value itself can legitimately be 0
            // on a freshly spawned thread (10 ms accounting granularity).
            assert!(thread_cpu_ns().is_some());
        }
    }

    #[test]
    fn heartbeat_tracks_busy_windows() {
        let epoch = Instant::now();
        let hb = ShardShared::new(epoch);
        assert!(hb.busy_for(Instant::now()).is_none());
        hb.beat(true);
        std::thread::sleep(Duration::from_millis(20));
        let busy = hb.busy_for(Instant::now()).expect("busy");
        assert!(busy >= Duration::from_millis(10), "{busy:?}");
        hb.beat(false);
        assert!(hb.busy_for(Instant::now()).is_none());
    }
}
