//! Sharded parallel data plane: flow-affine worker shards behind the
//! paper's single-router model.
//!
//! The paper's router is deliberately single-threaded: gates, the AIU
//! flow table, and plugin soft state are all manipulated without locks,
//! which is exactly what makes the fast path fast. [`ParallelRouter`]
//! scales that design out instead of up: it runs N complete
//! single-threaded [`Router`]s — each with its own AIU, flow table,
//! gates, and plugin instances — on N worker threads, and steers every
//! packet to the shard owning its flow (`flow_hash(five-tuple) % N`,
//! see [`dispatch`]). No data-path state is ever shared, so no data-path
//! lock exists; per-flow packet order is preserved because one flow
//! always lives on one shard.
//!
//! The control plane stays single. Every `pmgr` command fans out to all
//! shards through the same per-shard FIFO as the packets (so
//! command/packet ordering per shard matches issue order) and the
//! replies are merged back into one answer ([`control`]). Shards apply
//! identical command sequences, so per-shard PCU instance ids and AIU
//! filter ids stay in lockstep and an operator-visible id means the same
//! logical object everywhere.
//!
//! Egress is re-serialized: shards push carriers of transmitted packets
//! onto one shared collector channel and the dispatcher buckets them per
//! output interface. Since a flow is pinned to one shard and each shard
//! emits in processing order, per-flow order on the wire matches the
//! single-threaded router exactly.
//!
//! # Shard supervision
//!
//! Each shard worker runs the shared [`crate::health`] machine; this
//! tier supplies its symptoms and its recovery action:
//!
//! * **Symptoms → faults** — the shard loop runs under `catch_unwind`
//!   (`shard::run_shard`), so a panic escaping a control closure kills
//!   only that shard, and the dispatcher counts the dead worker as a
//!   fault. Each worker also writes a heartbeat (busy flag + timestamp);
//!   the watchdog counts a worker stuck inside one message longer than
//!   [`ParallelRouterConfig::stall_timeout`] as a fault and abandons
//!   that incarnation. One fault quarantines a shard, and every control
//!   fan-out and flush barrier carries a timeout with per-shard partial
//!   replies (`[shard i] unresponsive`) instead of blocking forever.
//! * **Recovery** — every state-mutating control command is recorded in
//!   a [`CommandJournal`]; a due restart replays the journal into a
//!   fresh [`Router`] on a new worker thread, which returns its instance
//!   and filter ids to lockstep with the survivors. A failed thread spawn
//!   is a failed recovery. Flow-cache soft state is *not* restored: the
//!   next packet of each flow re-classifies, exactly the paper's
//!   first-packet path. Backoff and budget come from the router's
//!   [`FaultPolicy`](crate::supervisor::FaultPolicy), read as wall-clock
//!   nanoseconds.
//! * **Overload** — dispatch to a full or unhealthy shard is
//!   policy-driven: bounded wait ([`ParallelRouterConfig::overload_wait`])
//!   then a counted drop ([`DropReason::ShardOverload`] /
//!   [`DropReason::ShardDown`]). Packets lost inside a fault window
//!   (queued on a dead shard, stranded in its scheduler queues) are
//!   re-accounted as `ShardDown` when the incarnation's final report is
//!   harvested, so the merged counters never lose a packet silently.

pub mod control;
pub mod dispatch;
pub mod journal;
pub mod shard;

pub use control::{ControlPlane, MetricsRow, ShardStatus, ShardTraceEvent, StatsRow};
pub use dispatch::{shard_for_packet, shard_for_tuple, FlowSteer, SteerConfig, SteerStats};
pub use journal::{CommandJournal, JournaledCmd};
pub use shard::{ShardCtx, ShardMsg, ShardReport};

use crate::gate::Gate;
use crate::health::{HealthConfig, HealthMachine};
use crate::ip_core::{DataPathStats, DropReason};
use crate::loader::PluginLoader;
use crate::message::{PluginMsg, PluginReply};
use crate::obs::{drop_reason_index, MetricsRegistry, MetricsSnapshot};
use crate::plugin::{InstanceId, PluginError};
use crate::router::{Router, RouterConfig};
use crate::supervisor::HealthReport;
use control::{merge_replies, merge_unit, ShardAnswer};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rp_classifier::flow_table::FlowTableStats;
use rp_packet::mbuf::IfIndex;
use rp_packet::{FlowTuple, Mbuf, MbufPool, PoolStats};
use rp_ring::PushError;
use shard::{run_shard, ControlFn, EgressSink, ShardFinal, ShardSender, ShardShared};
use std::net::IpAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// The whole design depends on Router moving into worker threads; fail at
// compile time (not deep inside thread::spawn) if a !Send field sneaks in.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Router>();
};

/// Check one shard's health every this many dispatched packets, round
/// robin, so stalls are detected even when all traffic flows to other
/// shards (one atomic load + `Instant::now` per stride — off the per-
/// packet hot path).
const WATCHDOG_STRIDE: u64 = 64;

/// Granularity of the timed waits in `flush`/fan-out collection: long
/// enough to stay off the scheduler's back, short enough that stall
/// detection latency is dominated by `stall_timeout`, not the slice.
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// Configuration for a [`ParallelRouter`].
#[derive(Debug, Clone)]
pub struct ParallelRouterConfig {
    /// Number of worker shards (each a complete single-threaded router).
    pub shards: usize,
    /// Per-shard router configuration (interfaces, gates, flow table…).
    /// Its [`FaultPolicy`](crate::supervisor::FaultPolicy) also governs
    /// shard restarts (`max_restarts` and the backoff ramp), with the
    /// backoff nanoseconds read as wall-clock time at the shard level.
    pub router: RouterConfig,
    /// Depth of each shard's ingress FIFO: a lock-free SPSC ring
    /// (`rp_ring`) with a doorbell for idle parking.
    pub ingress_depth: usize,
    /// How long one message may keep a worker continuously busy before
    /// the watchdog classifies the shard as stalled and abandons it.
    pub stall_timeout: Duration,
    /// How long `receive` waits on a full ingress FIFO before shedding
    /// the packet as [`DropReason::ShardOverload`]. The bounded wait
    /// preserves the back-pressure behaviour under transient bursts
    /// while keeping the ingress thread live under sustained overload.
    pub overload_wait: Duration,
    /// Optional load-aware flow placement ([`FlowSteer`]). `None` (the
    /// default) keeps pure hash placement; `Some` pins each new flow at
    /// first sight, steering flows that arrive while their hash-home
    /// shard is hot onto a less-loaded alternate. Per-flow affinity (and
    /// therefore per-flow order) is preserved either way.
    pub steer: Option<SteerConfig>,
}

impl Default for ParallelRouterConfig {
    fn default() -> Self {
        ParallelRouterConfig {
            shards: 4,
            router: RouterConfig::default(),
            ingress_depth: 1024,
            stall_timeout: Duration::from_millis(500),
            overload_wait: Duration::from_millis(2),
            steer: None,
        }
    }
}

/// The dispatcher's handle to one shard worker plus its supervision
/// state. All fields live on the dispatcher side (or in the shared
/// heartbeat block), so health decisions never require the worker thread
/// to cooperate.
struct ShardSlot {
    tx: ShardSender,
    join: Option<JoinHandle<ShardFinal>>,
    shared: Arc<ShardShared>,
    /// Health of this shard index, kept across incarnations (time base:
    /// ns since the router's epoch).
    machine: HealthMachine,
    last_fault: Option<String>,
    /// Packets dispatched to the *current* incarnation.
    sent: u64,
    shed_overload: u64,
    shed_down: u64,
}

impl ShardSlot {
    /// Serving = accepts packets and control (Healthy, or Degraded after
    /// a restart). Quarantined shards are bypassed with counted sheds.
    fn serving(&self) -> bool {
        !self.machine.quarantined()
    }
}

/// An abandoned incarnation whose thread hasn't exited yet (stalled, or
/// still draining). Harvested for its final accounting report when it
/// does; `sent` is the packet count dispatched to it, against which
/// queue loss is computed.
struct Zombie {
    shard: usize,
    join: JoinHandle<ShardFinal>,
    sent: u64,
}

/// N flow-affine router shards behind the single-router interface.
///
/// Packets enter through [`receive`](ParallelRouter::receive), control
/// through [`ControlPlane`] (or [`control_map`](ParallelRouter::control_map)
/// directly), and egress leaves through
/// [`take_tx`](ParallelRouter::take_tx) after a
/// [`flush`](ParallelRouter::flush).
pub struct ParallelRouter {
    cfg: ParallelRouterConfig,
    /// The shared plugin factory registry rebuilds draw from (the
    /// paper's single on-disk module set).
    template: PluginLoader,
    slots: Vec<ShardSlot>,
    zombies: Vec<Zombie>,
    /// Replayable record of every state-mutating control command.
    journal: CommandJournal,
    /// Heartbeat timestamps are relative to this.
    epoch: Instant,
    interfaces: usize,
    /// Egress collector: shards send whole carrier `Vec`s of transmitted
    /// packets (one channel operation per egress drain, not per packet)
    /// and the dispatcher returns the emptied carriers on the scrap
    /// side, so the steady state allocates nothing. The dispatcher keeps
    /// `egress_batch_tx` so the collector never disconnects while shards
    /// are live; rebuilt shards clone it.
    egress_batch_tx: Sender<Vec<(IfIndex, Mbuf)>>,
    egress_batch_rx: Receiver<Vec<(IfIndex, Mbuf)>>,
    egress_scrap_tx: Sender<Vec<(IfIndex, Mbuf)>>,
    egress_scrap_rx: Receiver<Vec<(IfIndex, Mbuf)>>,
    /// Return path for emptied batch carrier `Vec`s: shards send the
    /// drained vector back here after processing a [`ShardMsg::Batch`],
    /// and the dispatcher reuses it for a later batch — steady-state
    /// batched dispatch allocates no carriers.
    scrap_tx: Sender<Vec<Mbuf>>,
    scrap_rx: Receiver<Vec<Mbuf>>,
    /// Emptied carriers ready for reuse (fed from `scrap_rx` plus the
    /// caller-supplied input vectors of past `receive_batch` calls).
    spare_batches: Vec<Vec<Mbuf>>,
    /// One bucket per shard, reused across `receive_batch` calls to
    /// group a mixed batch by destination shard without allocating.
    group_scratch: Vec<Vec<Mbuf>>,
    /// Dispatcher-side buffer pool: sources ingress mbufs
    /// ([`mbuf_with`](ParallelRouter::mbuf_with)) and reabsorbs shed
    /// packets and transmitted packets the driver hands back
    /// ([`recycle_mbuf`](ParallelRouter::recycle_mbuf)).
    pool: MbufPool,
    /// Per-interface egress buckets, filled from the collector.
    pending: Vec<Vec<Mbuf>>,
    /// Dispatcher-side counters: sheds, plus the absorbed history of
    /// exited shard incarnations (their final reports), so restarting a
    /// shard never erases its packets from the merged totals.
    local_stats: DataPathStats,
    local_flows: FlowTableStats,
    local_metrics: MetricsRegistry,
    /// Forwarded packets later refused by an egress device
    /// ([`note_device_tx_drops`](ParallelRouter::note_device_tx_drops)).
    /// Shard counters are absorbed read-only, so this correction is
    /// subtracted from the merged `forwarded` at read time.
    device_tx_unforwarded: u64,
    watchdog_tick: u64,
    /// Load-aware flow placement, when configured. Dispatcher-side only:
    /// shards never see it, so the lock-free shard fast path is
    /// untouched.
    steer: Option<FlowSteer>,
    /// Reusable buffer for the watchdog-cadence ingress-depth sample fed
    /// to the steerer (no per-sample `Vec`).
    depth_scratch: Vec<usize>,
}

impl ParallelRouter {
    /// Build the shard array. Each shard's router is constructed here on
    /// the caller thread — sharing the plugin factory table of
    /// `template` (the paper's single on-disk module set) — and then
    /// moved onto its worker thread.
    pub fn new(cfg: ParallelRouterConfig, template: &PluginLoader) -> Self {
        let shards = cfg.shards.max(1);
        let (egress_batch_tx, egress_batch_rx) = unbounded();
        let (egress_scrap_tx, egress_scrap_rx) = unbounded();
        let (scrap_tx, scrap_rx) = unbounded();
        let epoch = Instant::now();
        let interfaces = cfg.router.interfaces;
        let mut pr = ParallelRouter {
            template: template.share_factories(),
            slots: Vec::with_capacity(shards),
            zombies: Vec::new(),
            journal: CommandJournal::default(),
            epoch,
            interfaces,
            egress_batch_tx,
            egress_batch_rx,
            egress_scrap_tx,
            egress_scrap_rx,
            scrap_tx,
            scrap_rx,
            spare_batches: Vec::new(),
            group_scratch: (0..shards).map(|_| Vec::new()).collect(),
            pool: MbufPool::default(),
            pending: (0..interfaces).map(|_| Vec::new()).collect(),
            local_stats: DataPathStats::default(),
            local_flows: FlowTableStats::default(),
            local_metrics: MetricsRegistry::default(),
            device_tx_unforwarded: 0,
            watchdog_tick: 0,
            steer: cfg.steer.map(|sc| FlowSteer::new(sc, shards)),
            depth_scratch: vec![0; shards],
            cfg,
        };
        // One fault quarantines a shard (a dead or stalled worker serves
        // nothing); shards report no clean observations, so a rebuilt
        // shard stays on Degraded probation.
        let machine = HealthMachine::new(HealthConfig {
            quarantine_after: 1,
            recover_after: u32::MAX,
            ..pr.cfg.router.fault_policy.health()
        });
        for index in 0..shards {
            let mut slot = pr.spawn_slot(index, machine.clone());
            if slot.join.is_none() {
                slot.machine.fault(pr.now_ns());
            }
            pr.slots.push(slot);
        }
        pr
    }

    /// Construct and launch one shard worker carrying `machine` (initial
    /// spawn and rebuild share this; each caller reports the outcome to
    /// the machine). The router replays the journal before the thread
    /// starts, so the worker joins the array already in lockstep.
    fn spawn_slot(&mut self, index: usize, machine: HealthMachine) -> ShardSlot {
        let mut router = Router::new(self.cfg.router.clone());
        router.loader = self.template.share_factories();
        let replay_errors = self.journal.replay(&mut router);
        // Replay runs against empty queues and must not emit; clear the
        // tx logs so a rebuilt shard cannot replay phantom transmissions.
        for i in 0..router.interface_count() {
            let _ = router.take_tx(i as IfIndex);
        }
        let ctx = ShardCtx {
            index,
            router,
            busy_ns: 0,
            packets: 0,
            cpu_clock_errors: 0,
        };
        let (tx, rx) = shard::ingress(self.cfg.ingress_depth);
        let egress = EgressSink {
            tx: self.egress_batch_tx.clone(),
            scrap: self.egress_scrap_rx.clone(),
            scratch: Vec::new(),
        };
        let shared = Arc::new(ShardShared::new(self.epoch));
        let scrap = self.scrap_tx.clone();
        let worker_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name(format!("rp-shard-{index}"))
            .spawn(move || run_shard(ctx, rx, egress, scrap, worker_shared))
            .ok();
        let mut last_fault = None;
        if join.is_none() {
            last_fault = Some("worker thread spawn failed".to_string());
        } else if replay_errors > 0 {
            // Expected to mirror the original per-shard outcomes (see
            // the journal docs); noted for the operator, not a fault.
            last_fault = Some(format!(
                "journal replay reported {replay_errors} command errors"
            ));
        }
        ShardSlot {
            tx,
            join,
            shared,
            machine,
            last_fault,
            sent: 0,
            shed_overload: 0,
            shed_down: 0,
        }
    }

    /// The shard tier's clock: ns since this router's epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The shard `mbuf` would be dispatched to by pure hash placement.
    /// With load-aware steering configured the live dispatch decision
    /// ([`receive`](ParallelRouter::receive)) may differ for flows pinned
    /// off a hot shard; it is still per-flow stable.
    pub fn shard_of(&self, mbuf: &Mbuf) -> usize {
        shard_for_packet(mbuf, self.slots.len())
    }

    /// The live dispatch decision for `mbuf`: the flow's pinned shard
    /// when steering is configured, hash placement otherwise (and for
    /// packets with no extractable five-tuple).
    fn route_shard(&mut self, mbuf: &Mbuf) -> usize {
        match (&mut self.steer, FlowTuple::from_mbuf(mbuf)) {
            (Some(st), Ok(t)) => st.steer(&t),
            _ => shard_for_packet(mbuf, self.slots.len()),
        }
    }

    /// Load-aware placement statistics, when steering is configured.
    pub fn steer_stats(&self) -> Option<SteerStats> {
        self.steer.as_ref().map(|s| s.stats())
    }

    /// Current ingress-FIFO occupancy of every shard, as seen from the
    /// dispatcher (read from the SPSC cursors).
    pub fn shard_depths(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.tx.depth()).collect()
    }

    /// Feed the steerer the observed ingress-queue depths. Runs at
    /// watchdog cadence (once per [`WATCHDOG_STRIDE`] dispatched
    /// packets), so the fast path pays N relaxed cursor reads every 64
    /// packets, not per packet.
    fn sample_depths(&mut self) {
        if self.steer.is_none() {
            return;
        }
        for (slot, d) in self.slots.iter().zip(self.depth_scratch.iter_mut()) {
            *d = slot.tx.depth();
        }
        if let Some(st) = self.steer.as_mut() {
            st.set_depths(&self.depth_scratch);
        }
    }

    /// State-mutating control commands recorded for shard rebuilds.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    // ---- supervision machinery ------------------------------------

    /// Fold an exited incarnation's final report into the dispatcher's
    /// retained history, re-accounting every packet that entered the
    /// shard but never reached the wire as a `ShardDown` drop:
    /// `lost_queue` (dispatched, never processed) and `stranded`
    /// (counted forwarded into a scheduler queue that died with the
    /// worker).
    fn absorb_final(&mut self, shard: usize, sent: u64, f: ShardFinal) {
        let lost_queue = sent.saturating_sub(f.report.data.received);
        self.local_stats.absorb(&f.report.data);
        // Like the queue gauges below: the dead incarnation's flow-table
        // occupancy gauges (live/allocated) describe records that died
        // with the worker. Only its counters carry forward, so the merged
        // occupancy always reflects tables that actually exist.
        let mut flows = f.report.flows;
        flows.live = 0;
        flows.allocated = 0;
        self.local_flows.absorb(&flows);
        let mut metrics = f.metrics;
        // The dead incarnation's queue-depth gauges describe queues that
        // no longer exist; their content is re-accounted as stranded.
        for d in metrics.queue_depth.iter_mut() {
            *d = 0;
        }
        self.local_metrics.absorb(&metrics);
        let lost = lost_queue + f.stranded;
        self.local_stats.forwarded = self.local_stats.forwarded.saturating_sub(f.stranded);
        self.local_stats.received += lost_queue;
        self.local_stats.dropped_shard_down += lost;
        self.local_metrics.drops[drop_reason_index(DropReason::ShardDown)] += lost;
        if let Some(slot) = self.slots.get_mut(shard) {
            slot.shed_down += lost;
        }
    }

    /// Collect final reports from abandoned incarnations whose threads
    /// have since exited (e.g. a wedge that released).
    fn harvest_zombies(&mut self) {
        while let Some(i) = self.zombies.iter().position(|z| z.join.is_finished()) {
            let z = self.zombies.swap_remove(i);
            self.reap(z.shard, z.sent, z.join);
        }
    }

    /// Join an exited incarnation and absorb its final report; returns
    /// why it died.
    fn reap(&mut self, shard: usize, sent: u64, join: JoinHandle<ShardFinal>) -> String {
        let Ok(f) = join.join() else {
            return "worker thread aborted".to_string();
        };
        let why = match &f.panic {
            Some(msg) => format!("worker panicked: {msg}"),
            None => "worker exited unexpectedly".to_string(),
        };
        self.absorb_final(shard, sent, f);
        why
    }

    /// Record a shard fault: the machine quarantines the shard and
    /// schedules its restart while the budget lasts.
    fn note_fault(&mut self, shard: usize, why: String) {
        let now_ns = self.now_ns();
        let slot = &mut self.slots[shard];
        slot.last_fault = Some(why);
        slot.machine.fault(now_ns);
    }

    /// Give up on the current incarnation without waiting for its thread:
    /// flag it abandoned (so it exits at the next message boundary),
    /// disconnect its FIFO, and park the join handle for later harvest.
    fn abandon(&mut self, shard: usize, why: String) {
        self.retire(shard);
        // Replacing (and dropping) our sender disconnects the worker's
        // recv — the producer's drop also rings the doorbell — so an
        // *idle* abandoned worker exits immediately; a wedged one exits
        // when whatever wedged it returns.
        drop(std::mem::replace(
            &mut self.slots[shard].tx,
            ShardSender::dead(),
        ));
        self.slots[shard].sent = 0;
        self.note_fault(shard, why);
    }

    /// Flag the current incarnation abandoned and park its thread, if
    /// any, for a later harvest of its final accounting.
    fn retire(&mut self, shard: usize) {
        let slot = &mut self.slots[shard];
        slot.shared.mark_abandoned();
        if let Some(join) = slot.join.take() {
            let sent = slot.sent;
            self.zombies.push(Zombie { shard, join, sent });
        }
    }

    /// One watchdog pass over one shard: harvest it if dead, abandon it
    /// if stalled, rebuild it if its restart is due.
    fn check_shard(&mut self, shard: usize) {
        self.harvest_zombies();
        let now = Instant::now();
        if self.slots[shard]
            .join
            .as_ref()
            .is_some_and(|j| j.is_finished())
        {
            // The worker exited on its own: a panic escaped into the
            // shard loop (or the loop ended unexpectedly).
            let sent = std::mem::take(&mut self.slots[shard].sent);
            if let Some(join) = self.slots[shard].join.take() {
                let why = self.reap(shard, sent, join);
                self.note_fault(shard, why);
            }
            return;
        }
        if self.slots[shard].serving() {
            if let Some(busy) = self.slots[shard].shared.busy_for(now) {
                if busy >= self.cfg.stall_timeout {
                    self.abandon(
                        shard,
                        format!("stalled: busy {}ms inside one message", busy.as_millis()),
                    );
                    return;
                }
            }
        }
        if self.slots[shard].machine.recovery_due(self.now_ns()) {
            self.rebuild_shard(shard);
        }
    }

    /// Watchdog pass over every shard (harvest dead, abandon stalled,
    /// fire due restarts). Runs opportunistically at every control
    /// fan-out, flush, and status read, plus round-robin from the packet
    /// path — there is no background thread.
    pub fn poll_shard_health(&mut self) {
        for s in 0..self.slots.len() {
            self.check_shard(s);
        }
    }

    /// Replace a quarantined shard with a fresh incarnation rebuilt from
    /// the command journal, and report the attempt to its machine.
    fn rebuild_shard(&mut self, shard: usize) {
        // Make sure the previous incarnation can't race the replacement.
        self.retire(shard);
        let mut fresh = self.spawn_slot(shard, self.slots[shard].machine.clone());
        fresh.machine.recovered(fresh.join.is_some(), self.now_ns());
        if fresh.last_fault.is_none() {
            fresh.last_fault = self.slots[shard].last_fault.take();
        }
        self.slots[shard] = fresh;
    }

    /// Count `n` shed packets at the dispatcher (they are dropped here,
    /// so the dispatcher also counts them received — the merged
    /// `received == forwarded + dropped + in-flight` invariant holds).
    fn shed_n(&mut self, shard: usize, reason: DropReason, n: u64) {
        self.local_stats.received += n;
        match reason {
            DropReason::ShardOverload => {
                self.local_stats.dropped_shard_overload += n;
                self.slots[shard].shed_overload += n;
            }
            _ => {
                self.local_stats.dropped_shard_down += n;
                self.slots[shard].shed_down += n;
            }
        }
        self.local_metrics.drops[drop_reason_index(reason)] += n;
    }

    /// Recycle every packet of a batch that could not be dispatched and
    /// return its carrier to the spare stack.
    fn recycle_failed_batch(&mut self, mut batch: Vec<Mbuf>) {
        for pkt in batch.drain(..) {
            self.pool.recycle(pkt);
        }
        self.spare_batches.push(batch);
    }

    // ---- data path ------------------------------------------------

    /// Dispatch one ingress packet to its flow's shard. Returns the shard
    /// index. A full FIFO back-pressures for at most
    /// [`ParallelRouterConfig::overload_wait`], then the packet is shed
    /// as a counted [`DropReason::ShardOverload`]; a dead, stalled, or
    /// quarantined shard sheds immediately as [`DropReason::ShardDown`].
    pub fn receive(&mut self, mbuf: Mbuf) -> usize {
        let s = self.route_shard(&mbuf);
        self.watchdog_tick = self.watchdog_tick.wrapping_add(1);
        if self.watchdog_tick.is_multiple_of(WATCHDOG_STRIDE) && !self.slots.is_empty() {
            let t = ((self.watchdog_tick / WATCHDOG_STRIDE) as usize) % self.slots.len();
            self.check_shard(t);
            self.sample_depths();
        }
        self.send_packets(s, ShardMsg::Packet(mbuf), 1);
        s
    }

    /// Dispatch a whole batch of ingress packets, grouping them by their
    /// flows' shards and sending **one** [`ShardMsg::Batch`] per shard
    /// touched — the ring push (and, on the worker side, the egress
    /// drain) is amortized over the batch while per-flow order is
    /// untouched (grouping is a stable partition and a flow maps to
    /// exactly one shard). Overload and health semantics per shard group
    /// match [`receive`](ParallelRouter::receive), with every packet of
    /// a failed group counted shed. Consumes the carrier `Vec`; get a
    /// recycled one from [`batch_carrier`](ParallelRouter::batch_carrier)
    /// to keep the steady state allocation-free. Returns the number of
    /// packets handed to shards (the rest were shed).
    pub fn receive_batch(&mut self, mut pkts: Vec<Mbuf>) -> usize {
        if pkts.is_empty() {
            self.spare_batches.push(pkts);
            return 0;
        }
        // Same watchdog cadence as the single-packet path: one shard
        // checked per WATCHDOG_STRIDE packets, here batched into at most
        // one check per call.
        let prev = self.watchdog_tick;
        self.watchdog_tick = prev.wrapping_add(pkts.len() as u64);
        if prev / WATCHDOG_STRIDE != self.watchdog_tick / WATCHDOG_STRIDE && !self.slots.is_empty()
        {
            let t = ((self.watchdog_tick / WATCHDOG_STRIDE) as usize) % self.slots.len();
            self.check_shard(t);
            self.sample_depths();
        }
        self.reclaim_scrap();
        let n = self.slots.len();
        if n == 1 {
            // Single shard: the input carrier is already the batch.
            return self.dispatch_batch(0, pkts);
        }
        for pkt in pkts.drain(..) {
            let s = self.route_shard(&pkt);
            self.group_scratch[s].push(pkt);
        }
        self.spare_batches.push(pkts);
        let mut accepted = 0;
        for s in 0..n {
            if self.group_scratch[s].is_empty() {
                continue;
            }
            let spare = self.spare_batches.pop().unwrap_or_default();
            let group = std::mem::replace(&mut self.group_scratch[s], spare);
            accepted += self.dispatch_batch(s, group);
        }
        accepted
    }

    /// Send one shard's batch with `receive`'s overload/health semantics.
    /// Returns the packets accepted; a failed batch is recycled and every
    /// packet in it is counted shed.
    fn dispatch_batch(&mut self, s: usize, batch: Vec<Mbuf>) -> usize {
        let len = batch.len();
        if len == 0 {
            self.spare_batches.push(batch);
            return 0;
        }
        if self.send_packets(s, ShardMsg::Batch(batch), len as u64) {
            len
        } else {
            0
        }
    }

    /// Send a message carrying `n` packets to shard `s`. A full FIFO
    /// back-pressures for at most [`ParallelRouterConfig::overload_wait`],
    /// then the packets are shed as [`DropReason::ShardOverload`]; a dead,
    /// stalled, or quarantined shard sheds them at once as
    /// [`DropReason::ShardDown`]. Shed packets are recycled and counted.
    /// Returns whether the shard accepted the packets.
    fn send_packets(&mut self, s: usize, mut msg: ShardMsg, n: u64) -> bool {
        if !self.slots[s].serving() {
            // A due restart can bring it back right now.
            self.check_shard(s);
        }
        let mut deadline: Option<Instant> = None;
        let reason = loop {
            if !self.slots[s].serving() {
                break DropReason::ShardDown;
            }
            match self.slots[s].tx.try_send(msg) {
                Ok(()) => {
                    self.slots[s].sent += n;
                    return true;
                }
                Err(PushError::Full(m)) => {
                    msg = m;
                    let now = Instant::now();
                    let dl = *deadline.get_or_insert(now + self.cfg.overload_wait);
                    // A persistently full FIFO may mean a wedged worker;
                    // give the watchdog a look before deciding.
                    self.check_shard(s);
                    if self.slots[s].serving() {
                        if now >= dl {
                            break DropReason::ShardOverload;
                        }
                        std::thread::yield_now();
                    }
                }
                Err(PushError::Disconnected(m)) => {
                    msg = m;
                    self.check_shard(s);
                    break DropReason::ShardDown;
                }
            }
        };
        match msg {
            ShardMsg::Packet(p) => self.pool.recycle(p),
            ShardMsg::Batch(b) => self.recycle_failed_batch(b),
            _ => {}
        }
        self.shed_n(s, reason, n);
        false
    }

    /// Pull emptied carriers the shards have returned into the spare
    /// stack.
    fn reclaim_scrap(&mut self) {
        self.spare_batches.extend(self.scrap_rx.try_iter());
    }

    /// A carrier `Vec` for the next
    /// [`receive_batch`](ParallelRouter::receive_batch) — recycled from a
    /// previously dispatched batch when one has come back, fresh
    /// otherwise.
    pub fn batch_carrier(&mut self) -> Vec<Mbuf> {
        self.reclaim_scrap();
        self.spare_batches.pop().unwrap_or_default()
    }

    /// Build an ingress mbuf from the dispatcher's buffer pool (the
    /// parallel-plane counterpart of [`Router::mbuf_with`]).
    pub fn mbuf_with(&mut self, bytes: &[u8], rx_if: IfIndex) -> Mbuf {
        let mut m = self.pool.mbuf_from(bytes, rx_if);
        // Coarse ingress stamp for end-to-end sojourn accounting (the
        // I/O plane re-stamps per received batch; this covers synthetic
        // injectors that build mbufs directly).
        m.timestamp_ns = rp_packet::coarse_now_ns();
        m
    }

    /// Return a finished packet's backing buffer to the dispatcher pool
    /// (drivers call this after transmitting what `take_tx` returned).
    pub fn recycle_mbuf(&mut self, mbuf: Mbuf) {
        self.pool.recycle(mbuf);
    }

    /// The dispatcher pool's counters (shard routers' pools are reported
    /// through the merged metrics instead).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Deliver a control-path message to a serving shard with a bounded
    /// wait (a control message takes its FIFO place behind packets, but
    /// never wedges the dispatcher behind a stalled worker). Returns
    /// false when the shard stopped serving or stayed full past the
    /// stall timeout.
    fn send_control(&mut self, shard: usize, msg: ShardMsg) -> bool {
        let mut msg = msg;
        let deadline = Instant::now() + self.cfg.stall_timeout + self.cfg.stall_timeout;
        loop {
            if !self.slots[shard].serving() {
                return false;
            }
            match self.slots[shard].tx.try_send(msg) {
                Ok(()) => return true,
                Err(PushError::Full(m)) => {
                    if Instant::now() >= deadline {
                        return false;
                    }
                    self.check_shard(shard);
                    msg = m;
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(PushError::Disconnected(_)) => {
                    self.check_shard(shard);
                    return false;
                }
            }
        }
    }

    /// Quiesce: block until every *live* shard has fully processed
    /// everything sent before this call, then settle any fault window
    /// the flush uncovered, then drain the egress collector. A shard
    /// that dies or stalls mid-flush is quarantined by the watchdog and
    /// skipped instead of blocking the control plane forever.
    ///
    /// The settle phase makes `flush()` followed by
    /// [`stats`](ParallelRouter::stats) a conserving read: a worker that
    /// died during the window is harvested (its final accounting
    /// absorbed into the dispatcher totals) and a due restart completes
    /// before this returns. The wait is bounded by twice the stall
    /// timeout — a thread still wedged inside a plugin cannot be joined,
    /// and its counters stay deferred until it finally exits.
    pub fn flush(&mut self) {
        self.broadcast(ShardMsg::Barrier, |_, _| {});
        let deadline = Instant::now() + self.cfg.stall_timeout + self.cfg.stall_timeout;
        loop {
            self.poll_shard_health();
            let unresolved = !self.zombies.is_empty()
                || self.slots.iter().any(|s| {
                    s.machine.restart_at_ns().is_some()
                        || s.join.as_ref().is_some_and(|j| j.is_finished())
                });
            if !unresolved || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.drain_egress();
    }

    /// Move everything on the shared egress collector into the
    /// per-interface buckets. Carriers are drained whole and handed back
    /// to the shards for reuse.
    fn drain_egress(&mut self) {
        while let Ok(mut carrier) = self.egress_batch_rx.try_recv() {
            for (iface, pkt) in carrier.drain(..) {
                let i = iface as usize;
                if i < self.pending.len() {
                    self.pending[i].push(pkt);
                }
            }
            let _ = self.egress_scrap_tx.send(carrier);
        }
    }

    /// Take the packets transmitted on `iface` since the last call.
    /// Call [`flush`](ParallelRouter::flush) first for a complete view of
    /// in-flight traffic.
    pub fn take_tx(&mut self, iface: IfIndex) -> Vec<Mbuf> {
        self.drain_egress();
        match self.pending.get_mut(iface as usize) {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    /// Drain `iface`'s transmitted packets into `out`, preserving both
    /// the pending bucket's and `out`'s allocated capacity — the
    /// zero-allocation counterpart of [`take_tx`](ParallelRouter::take_tx)
    /// (mirrors [`Router::take_tx_into`]).
    pub fn take_tx_into(&mut self, iface: IfIndex, out: &mut Vec<Mbuf>) {
        self.drain_egress();
        if let Some(v) = self.pending.get_mut(iface as usize) {
            out.append(v);
        }
    }

    /// The dispatcher's buffer pool, for device drivers that acquire and
    /// recycle backing buffers directly (mirrors [`Router::pool_mut`]).
    pub fn pool_mut(&mut self) -> &mut rp_packet::pool::MbufPool {
        &mut self.pool
    }

    /// Account `n` frames a device's receive side dropped before they
    /// became IP packets. Counted dispatcher-side exactly like an
    /// overload shed (`shed_n`): received and dropped in the same
    /// breath, so the merged `received == forwarded + Σdrops` invariant
    /// extends to the wire.
    pub fn note_device_rx_drops(&mut self, n: u64) {
        self.local_stats.received += n;
        self.local_stats.dropped_device_rx += n;
        self.local_metrics.drops[drop_reason_index(DropReason::DeviceRx)] += n;
    }

    /// Re-account `n` already-forwarded packets whose egress device
    /// refused to transmit them (same re-accounting the shard harvest
    /// does for stranded backlogs): they leave the merged `forwarded`
    /// total and land in the device-tx drop counter.
    pub fn note_device_tx_drops(&mut self, n: u64) {
        self.device_tx_unforwarded += n;
        self.local_stats.dropped_device_tx += n;
        self.local_metrics.drops[drop_reason_index(DropReason::DeviceTx)] += n;
    }

    // ---- control fan-out ------------------------------------------

    /// Run `f` on every serving shard (on the shard's own thread, in
    /// FIFO order with that shard's packets) and collect per-shard
    /// answers. Replies are awaited with a watchdog-supervised timeout:
    /// a shard that dies or stalls mid-command yields `Down` /
    /// `Unresponsive` instead of wedging the control plane.
    fn fanout<R, F>(&mut self, f: F) -> Vec<(usize, ShardAnswer<R>)>
    where
        R: Send + 'static,
        F: Fn(&mut ShardCtx) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut answers: Vec<_> = (0..self.slots.len())
            .map(|s| (s, ShardAnswer::Down))
            .collect();
        let command = |tx: Sender<(usize, R)>| {
            let f = Arc::clone(&f);
            let cmd: ControlFn = Box::new(move |ctx: &mut ShardCtx| {
                let r = f(ctx);
                let _ = tx.send((ctx.index, r));
            });
            ShardMsg::Control(cmd)
        };
        self.broadcast(command, |s, a| answers[s].1 = a);
        answers
    }

    /// Send `msg(reply)` to every serving shard, then wait under the
    /// watchdog for each one's `(index, R)` reply; `answer` gets each
    /// shard's reply, or why none came.
    fn broadcast<R>(
        &mut self,
        msg: impl Fn(Sender<(usize, R)>) -> ShardMsg,
        mut answer: impl FnMut(usize, ShardAnswer<R>),
    ) {
        // Fire due restarts first so a rebuilt shard receives this
        // message (a command is not yet in the journal).
        self.poll_shard_health();
        let (tx, rx) = unbounded();
        let mut outstanding = Vec::new();
        for s in 0..self.slots.len() {
            if self.slots[s].serving() && self.send_control(s, msg(tx.clone())) {
                outstanding.push(s);
            } else {
                answer(s, ShardAnswer::Down);
            }
        }
        drop(tx);
        while !outstanding.is_empty() {
            match rx.recv_timeout(WAIT_SLICE) {
                Ok((i, r)) => {
                    answer(i, ShardAnswer::Ok(r));
                    outstanding.retain(|&x| x != i);
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Keep waiting for live shards (they may simply have
                    // deep FIFOs); drop the ones the watchdog takes out.
                    for s in outstanding.clone() {
                        self.check_shard(s);
                        if !self.slots[s].serving() {
                            answer(s, ShardAnswer::Unresponsive);
                            outstanding.retain(|&x| x != s);
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    for s in outstanding.drain(..) {
                        self.check_shard(s);
                        answer(s, ShardAnswer::Down);
                    }
                }
            }
        }
    }

    /// Run `f` on every serving shard and collect the successful results
    /// in shard-index order (unresponsive shards are skipped). This is
    /// the primitive every control-plane fan-out is built on.
    pub fn control_map<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut ShardCtx) -> R + Send + Sync + 'static,
    {
        self.fanout(f)
            .into_iter()
            .filter_map(|(_, a)| match a {
                ShardAnswer::Ok(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    /// Advance the logical clock on every shard (paper: timeouts and
    /// idle-flow reclamation run off the router clock). Only the
    /// high-water mark is kept for shard rebuilds.
    pub fn set_time_ns(&mut self, now_ns: u64) {
        self.journal.note_time(now_ns);
        self.control_map(move |ctx| ctx.router.set_time_ns(now_ns));
    }

    /// Assign an address to `iface` on every shard.
    pub fn set_interface_addr(&mut self, iface: IfIndex, addr: IpAddr) {
        self.control_map(move |ctx| ctx.router.set_interface_addr(iface, addr));
        self.journal
            .record(JournaledCmd::SetInterfaceAddr { iface, addr });
    }

    /// Reclaim idle flows on every shard; returns the total reclaimed.
    /// Not journaled: the flow cache is soft state a rebuilt shard
    /// regenerates from first packets.
    pub fn expire_idle_flows(&mut self, max_idle_ns: u64) -> usize {
        self.control_map(move |ctx| ctx.router.expire_idle_flows(max_idle_ns))
            .into_iter()
            .sum()
    }

    /// Merged data-path counters: all live shards, plus the dispatcher's
    /// own accounting (sheds and the retained history of exited
    /// incarnations).
    pub fn stats(&mut self) -> DataPathStats {
        let mut total = self.local_stats;
        for s in self.control_map(|ctx| ctx.router.stats()) {
            total.absorb(&s);
        }
        total.forwarded = total.forwarded.saturating_sub(self.device_tx_unforwarded);
        total
    }

    /// Merged data-path counters from `&self`: same merge as
    /// [`ParallelRouter::stats`] but via the read-only fan-out, so
    /// conservation checks and reporting don't need `&mut` access.
    pub fn stats_read(&self) -> DataPathStats {
        let mut total = self.local_stats;
        for (_, d) in self.read_all(|ctx| ctx.router.stats()) {
            total.absorb(&d);
        }
        total.forwarded = total.forwarded.saturating_sub(self.device_tx_unforwarded);
        total
    }

    /// Merged flow-cache counters across all shards (live + retired).
    pub fn flow_stats(&mut self) -> FlowTableStats {
        let mut total = self.local_flows;
        for s in self.control_map(|ctx| ctx.router.flow_stats()) {
            total.absorb(&s);
        }
        total
    }

    /// Merged metrics registry across all shards (live + retired + the
    /// dispatcher's shed counters).
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        let mut total = self.local_metrics;
        for s in self.control_map(|ctx| ctx.router.metrics_snapshot()) {
            total.absorb(&s);
        }
        // The dispatcher's own pool traffic (shard pools arrive through
        // the per-shard snapshots absorbed above).
        let p = self.pool.stats();
        total.mbuf_acquired += p.acquired;
        total.mbuf_recycled += p.recycled;
        total.mbuf_fresh += p.fresh;
        total
    }

    /// Per-shard statistics snapshots (packets, busy time, counters)
    /// from the shards that answered.
    pub fn shard_reports(&mut self) -> Vec<ShardReport> {
        self.control_map(|ctx| ctx.report())
    }

    /// Number of interfaces (identical on every shard).
    pub fn interface_count(&self) -> usize {
        self.interfaces
    }
}

impl Drop for ParallelRouter {
    fn drop(&mut self) {
        for slot in &self.slots {
            let _ = slot.tx.try_send(ShardMsg::Shutdown);
            // In case the FIFO was full or the worker is wedged: the
            // abandoned flag (plus the sender drop below) still ends the
            // loop at its next message boundary.
            slot.shared.mark_abandoned();
        }
        let mut joins: Vec<JoinHandle<ShardFinal>> = Vec::new();
        for slot in &mut self.slots {
            drop(std::mem::replace(&mut slot.tx, ShardSender::dead()));
            if let Some(j) = slot.join.take() {
                joins.push(j);
            }
        }
        // Join what exits promptly; a thread still wedged in a plugin
        // after the grace period is detached rather than hanging the
        // caller forever.
        let deadline = Instant::now() + Duration::from_secs(2);
        for j in joins {
            loop {
                if j.is_finished() {
                    let _ = j.join();
                    break;
                }
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

impl ControlPlane for ParallelRouter {
    fn cp_load_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        let arg = name.to_string();
        let r = merge_unit(self.fanout(move |ctx| ctx.router.load_plugin(&arg)));
        self.journal
            .record(JournaledCmd::LoadPlugin(name.to_string()));
        r
    }
    fn cp_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        let arg = name.to_string();
        let r = merge_unit(self.fanout(move |ctx| ctx.router.unload_plugin(&arg)));
        self.journal
            .record(JournaledCmd::UnloadPlugin(name.to_string()));
        r
    }
    fn cp_force_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        let arg = name.to_string();
        let r = merge_unit(self.fanout(move |ctx| ctx.router.force_unload_plugin(&arg)));
        self.journal
            .record(JournaledCmd::ForceUnloadPlugin(name.to_string()));
        r
    }
    fn cp_send_message(
        &mut self,
        plugin: &str,
        msg: PluginMsg,
    ) -> Result<PluginReply, PluginError> {
        let arg = plugin.to_string();
        let cloned = msg.clone();
        let r =
            merge_replies(self.fanout(move |ctx| ctx.router.send_message(&arg, cloned.clone())));
        self.journal.record(JournaledCmd::Message {
            plugin: plugin.to_string(),
            msg,
        });
        r
    }
    fn cp_add_route(&mut self, addr: IpAddr, prefix_len: u8, tx_if: IfIndex) {
        self.control_map(move |ctx| ctx.router.add_route(addr, prefix_len, tx_if));
        self.journal.record(JournaledCmd::AddRoute {
            addr,
            prefix_len,
            tx_if,
        });
    }
    fn cp_remove_route(&mut self, addr: IpAddr, prefix_len: u8) -> bool {
        let removed = self
            .control_map(move |ctx| ctx.router.remove_route(addr, prefix_len))
            .into_iter()
            .any(|removed| removed);
        self.journal
            .record(JournaledCmd::RemoveRoute { addr, prefix_len });
        removed
    }
    fn cp_set_gate_enabled(&mut self, gate: Gate, enabled: bool) {
        self.control_map(move |ctx| ctx.router.set_gate_enabled(gate, enabled));
        self.journal
            .record(JournaledCmd::SetGateEnabled { gate, enabled });
    }
    fn cp_set_default_scheduler(
        &mut self,
        iface: IfIndex,
        plugin: &str,
        id: InstanceId,
    ) -> Result<(), PluginError> {
        let arg = plugin.to_string();
        let r =
            merge_unit(self.fanout(move |ctx| ctx.router.set_default_scheduler(iface, &arg, id)));
        self.journal.record(JournaledCmd::SetDefaultScheduler {
            iface,
            plugin: plugin.to_string(),
            id,
        });
        r
    }
    fn cp_describe_filters(&self, gate: Gate) -> Vec<String> {
        // Filter tables are in lockstep across shards; any serving
        // shard's view is the logical router's view. `&self` here, so
        // use a direct one-shot fan-out without the watchdog.
        self.read_first(move |ctx| ctx.router.describe_filters(gate))
            .unwrap_or_default()
    }
    fn cp_describe_instances(&self) -> Vec<String> {
        self.read_first(|ctx| ctx.router.describe_instances())
            .unwrap_or_default()
    }
    fn cp_health_reports(&self) -> Vec<HealthReport> {
        let mut out = Vec::new();
        for (shard, reports) in self.read_all(|ctx| ctx.router.health_reports()) {
            out.extend(reports.into_iter().map(|r| HealthReport {
                shard: Some(shard),
                ..r
            }));
        }
        out
    }
    fn cp_loaded_plugins(&self) -> Vec<String> {
        self.read_first(|ctx| ctx.router.loader.loaded())
            .unwrap_or_default()
    }
    fn cp_stats_rows(&self) -> Vec<StatsRow> {
        let per_shard = self.read_all(|ctx| (ctx.router.stats(), ctx.router.flow_stats()));
        let mut total_data = self.local_stats;
        let mut total_flows = self.local_flows;
        for (_, (d, f)) in &per_shard {
            total_data.absorb(d);
            total_flows.absorb(f);
        }
        total_data.forwarded = total_data
            .forwarded
            .saturating_sub(self.device_tx_unforwarded);
        let mut rows = vec![StatsRow {
            label: "total".to_string(),
            data: total_data,
            flows: total_flows,
        }];
        for (i, (d, f)) in per_shard.into_iter() {
            rows.push(StatsRow {
                label: format!("shard {i}"),
                data: d,
                flows: f,
            });
        }
        rows
    }
    fn cp_metrics_rows(&self) -> Vec<MetricsRow> {
        let per_shard = self.read_all(|ctx| ctx.router.metrics_snapshot());
        let mut total = self.local_metrics;
        for (_, m) in &per_shard {
            total.absorb(m);
        }
        let p = self.pool.stats();
        total.mbuf_acquired += p.acquired;
        total.mbuf_recycled += p.recycled;
        total.mbuf_fresh += p.fresh;
        let mut rows = vec![MetricsRow {
            label: "total".to_string(),
            metrics: total,
        }];
        for (i, m) in per_shard.into_iter() {
            rows.push(MetricsRow {
                label: format!("shard {i}"),
                metrics: m,
            });
        }
        rows
    }
    fn cp_trace_enable(&mut self, on: bool) {
        self.control_map(move |ctx| ctx.router.tracer_mut().set_enabled(on));
        self.journal.record(JournaledCmd::TraceEnable(on));
    }
    fn cp_trace_dump(&self, n: usize) -> Vec<ShardTraceEvent> {
        let mut out = Vec::new();
        for (shard, events) in self.read_all(move |ctx| ctx.router.tracer().dump(n)) {
            for event in events {
                out.push(ShardTraceEvent {
                    shard: Some(shard),
                    event,
                });
            }
        }
        out
    }
    fn cp_shard_status(&mut self) -> Vec<ShardStatus> {
        self.poll_shard_health();
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| ShardStatus {
                shard: i,
                health: slot.machine.state(),
                restarts: slot.machine.restarts(),
                sent: slot.sent,
                processed: slot.shared.processed(),
                shed_overload: slot.shed_overload,
                shed_down: slot.shed_down,
                restart_pending: slot.machine.restart_at_ns().is_some(),
                last_fault: slot.last_fault.clone(),
            })
            .collect()
    }
    fn cp_shard_restart(&mut self, shard: usize) -> Result<String, PluginError> {
        if shard >= self.slots.len() {
            return Err(PluginError::BadConfig(format!("no shard {shard}")));
        }
        self.check_shard(shard);
        if self.slots[shard].join.is_some() {
            self.abandon(shard, "operator restart".to_string());
        }
        // Operator intervention overrides an exhausted restart budget and
        // skips the backoff wait.
        self.rebuild_shard(shard);
        if self.slots[shard].serving() {
            Ok(format!(
                "shard {shard} restarted ({} journal commands replayed)",
                self.journal.len()
            ))
        } else {
            Err(PluginError::Busy(format!(
                "shard {shard} restart failed: {}",
                self.slots[shard]
                    .last_fault
                    .clone()
                    .unwrap_or_else(|| "unknown".to_string())
            )))
        }
    }
    fn cp_shard_kill(&mut self, shard: usize) -> Result<String, PluginError> {
        if shard >= self.slots.len() {
            return Err(PluginError::BadConfig(format!("no shard {shard}")));
        }
        if !self.slots[shard].serving() {
            return Err(PluginError::Busy(format!("shard {shard} is not serving")));
        }
        let cmd: ControlFn = Box::new(move |ctx: &mut ShardCtx| {
            panic!("injected kill (pmgr shard kill {})", ctx.index);
        });
        if self.send_control(shard, ShardMsg::Control(cmd)) {
            Ok(format!("kill injected into shard {shard}"))
        } else {
            Err(PluginError::Busy(format!(
                "shard {shard} did not accept the kill"
            )))
        }
    }
}

impl ParallelRouter {
    /// Read-only fan-out for `&self` trait methods: best-effort, skips
    /// non-serving shards, and bounds the wait so a shard that wedges
    /// mid-read cannot hang the control plane (the next `&mut`
    /// entry point's watchdog will quarantine it).
    fn read_all<R, F>(&self, f: F) -> Vec<(usize, R)>
    where
        R: Send + 'static,
        F: Fn(&mut ShardCtx) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let (tx, rx) = unbounded::<(usize, R)>();
        let mut expected = 0usize;
        for slot in self.slots.iter().filter(|s| s.serving()) {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            let cmd: ControlFn = Box::new(move |ctx: &mut ShardCtx| {
                let index = ctx.index;
                let r = f(ctx);
                let _ = tx.send((index, r));
            });
            if slot.tx.try_send(ShardMsg::Control(cmd)).is_ok() {
                expected += 1;
            }
        }
        drop(tx);
        let deadline = Instant::now() + self.cfg.stall_timeout + self.cfg.stall_timeout;
        let mut out: Vec<(usize, R)> = Vec::with_capacity(expected);
        while out.len() < expected {
            match rx.recv_timeout(WAIT_SLICE) {
                Ok(pair) => out.push(pair),
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        out.sort_by_key(|(i, _)| *i);
        out
    }

    /// First serving shard's answer to a read-only fan-out (lockstep
    /// state, e.g. filter tables, is identical everywhere).
    fn read_first<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn(&mut ShardCtx) -> R + Send + Sync + 'static,
    {
        self.read_all(f).into_iter().next().map(|(_, r)| r)
    }
}
