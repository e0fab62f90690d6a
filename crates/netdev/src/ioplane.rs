//! The I/O plane: binds [`NetDev`] backends to router interfaces and
//! drives traffic between the wire and the data plane.
//!
//! One [`poll`](IoPlane::poll) call is a full duty cycle:
//!
//! 1. **Ingress** — each device's `rx_batch` fills that device's
//!    scratch batch with pooled mbufs (bytes copied straight from the
//!    device's buffers into recycled pool buffers; zero fresh
//!    allocations at steady state), which is then injected into the
//!    data plane: per-packet `receive` + inline scheduler pump on the
//!    single router, `receive_batch` on the parallel router.
//! 2. **Flush** — the parallel plane's barrier + egress settle (no-op
//!    on the single router).
//! 3. **Egress** — per interface, queued output is drained into the
//!    device's transmit scratch (append-only, order preserving) and
//!    handed to `tx_batch`, which recycles every buffer into the pool.
//!
//! The plane keeps an [`IoLedger`] so conservation is checkable at the
//! *wire*, not just inside the IP core: every frame read from a device
//! is either forwarded back out of a device, or attributed to a counted
//! drop ([`check_conservation`](IoPlane::check_conservation)).
//!
//! The plane also re-exports the wrapped router's control plane
//! (`ControlPlane` by delegation), adding live rows for the pmgr
//! `devices` command — so an operator drives a device-backed router
//! with the identical command language.

use crate::supervisor::{DeviceMonitor, DeviceSupervisorConfig, PollSample};
use crate::{NetDev, RxBatch};
use router_core::dataplane::control::{
    ControlPlane, DeviceRow, DeviceStats, MetricsRow, ShardStatus, ShardTraceEvent, StatsRow,
};
use router_core::dataplane::ParallelRouter;
use router_core::gate::Gate;
use router_core::ip_core::{DataPathStats, Disposition};
use router_core::message::{PluginMsg, PluginReply};
use router_core::plugin::{InstanceId, PluginError};
use router_core::router::Router;
use router_core::supervisor::HealthReport;
use rp_packet::mbuf::IfIndex;
use rp_packet::pool::MbufPool;
use rp_packet::Mbuf;
use std::net::IpAddr;

/// The data-plane surface the [`IoPlane`] needs, implemented by both
/// [`Router`] (single-threaded) and [`ParallelRouter`] (sharded) so one
/// driver serves either shape.
pub trait IoRouter {
    /// Copy `bytes` into a pooled mbuf stamped with `rx_if`.
    fn io_mbuf(&mut self, bytes: &[u8], rx_if: IfIndex) -> Mbuf;
    /// Inject a batch of ingress packets. Drains `batch`; its capacity
    /// is reused (or swapped for a recycled carrier) across calls.
    fn io_inject_batch(&mut self, batch: &mut Vec<Mbuf>);
    /// Settle in-flight work so egress queues are complete (barrier on
    /// the parallel plane, no-op on the single router).
    fn io_flush(&mut self);
    /// Append interface `iface`'s queued egress to `out`.
    fn io_take_tx_into(&mut self, iface: IfIndex, out: &mut Vec<Mbuf>);
    /// The plane's mbuf pool, for recycling transmitted buffers.
    fn io_pool(&mut self) -> &mut MbufPool;
    /// Account `n` frames dropped at device receive (before the IP
    /// core); extends `received == forwarded + Σdrops` to the wire.
    fn io_note_device_rx_drops(&mut self, n: u64);
    /// Re-account `n` forwarded packets refused by an egress device.
    fn io_note_device_tx_drops(&mut self, n: u64);
    /// Merged data-path counters. Takes `&self` so conservation is
    /// checkable on a shared reference mid-run.
    fn io_stats(&self) -> DataPathStats;
    /// Number of router interfaces.
    fn io_interface_count(&self) -> usize;
}

impl IoRouter for Router {
    fn io_mbuf(&mut self, bytes: &[u8], rx_if: IfIndex) -> Mbuf {
        self.mbuf_with(bytes, rx_if)
    }

    fn io_inject_batch(&mut self, batch: &mut Vec<Mbuf>) {
        // One coarse wall-clock read covers the whole batch — sojourn
        // resolution is the batch, cost is amortised across it.
        let wall = rp_packet::coarse_now_ns();
        for m in batch.drain(..) {
            // Mirror the shard worker: pump the egress scheduler right
            // after a queuing disposition so DRR/WFQ output flows
            // without a separate scheduler thread.
            if let Disposition::Queued(iface) = self.receive_stamped(m, wall) {
                self.pump(iface, 1);
            }
        }
    }

    fn io_flush(&mut self) {}

    fn io_take_tx_into(&mut self, iface: IfIndex, out: &mut Vec<Mbuf>) {
        self.take_tx_into(iface, out);
    }

    fn io_pool(&mut self) -> &mut MbufPool {
        self.pool_mut()
    }

    fn io_note_device_rx_drops(&mut self, n: u64) {
        self.note_device_rx_drops(n);
    }

    fn io_note_device_tx_drops(&mut self, n: u64) {
        self.note_device_tx_drops(n);
    }

    fn io_stats(&self) -> DataPathStats {
        self.stats()
    }

    fn io_interface_count(&self) -> usize {
        self.interface_count()
    }
}

impl IoRouter for ParallelRouter {
    fn io_mbuf(&mut self, bytes: &[u8], rx_if: IfIndex) -> Mbuf {
        self.pool_mut().mbuf_from(bytes, rx_if)
    }

    fn io_inject_batch(&mut self, batch: &mut Vec<Mbuf>) {
        // Swap the caller's filled batch for a recycled carrier, so the
        // Vec the dispatcher consumes came from the scrap channel and
        // the caller keeps a warm empty one — capacities circulate
        // instead of being reallocated.
        let mut carrier = self.batch_carrier();
        std::mem::swap(&mut carrier, batch);
        self.receive_batch(carrier);
    }

    fn io_flush(&mut self) {
        self.flush();
    }

    fn io_take_tx_into(&mut self, iface: IfIndex, out: &mut Vec<Mbuf>) {
        self.take_tx_into(iface, out);
    }

    fn io_pool(&mut self) -> &mut MbufPool {
        self.pool_mut()
    }

    fn io_note_device_rx_drops(&mut self, n: u64) {
        self.note_device_rx_drops(n);
    }

    fn io_note_device_tx_drops(&mut self, n: u64) {
        self.note_device_tx_drops(n);
    }

    fn io_stats(&self) -> DataPathStats {
        self.stats_read()
    }

    fn io_interface_count(&self) -> usize {
        self.interface_count()
    }
}

/// Wire-level conservation counters kept by the [`IoPlane`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoLedger {
    /// Frames read off all devices (delivered + decap-dropped).
    pub device_rx: u64,
    /// Packets injected into the data plane.
    pub injected: u64,
    /// Frames dropped at device receive (truncated / non-IP).
    pub decap_dropped: u64,
    /// Packets written back out through devices.
    pub device_tx: u64,
    /// Forwarded packets lost to hard transmit failures (the device
    /// reported a write error).
    pub tx_errors: u64,
    /// Forwarded packets shed without a hard error: device backpressure
    /// (full queues after bounded retries) or a quarantined device's
    /// egress being drained by the supervisor.
    pub tx_dropped: u64,
}

/// A device bound to a router interface, with its reusable scratch
/// batches (ingress and egress Vecs are drained in place each cycle, so
/// their capacity — like the mbuf buffers inside — is recycled).
struct BoundDev {
    dev: Box<dyn NetDev>,
    iface: IfIndex,
    rx_scratch: Vec<Mbuf>,
    tx_scratch: Vec<Mbuf>,
    /// Health machine when supervision is enabled.
    monitor: Option<DeviceMonitor>,
    /// Stats snapshot at the last supervision step (delta baseline).
    last_stats: DeviceStats,
    /// Frames this device read in the current duty cycle.
    rx_frames: u64,
}

/// Binds [`NetDev`]s to a data plane and pumps traffic (see module
/// docs). `P` is either [`Router`] or [`ParallelRouter`].
pub struct IoPlane<P: IoRouter> {
    plane: P,
    devices: Vec<BoundDev>,
    ledger: IoLedger,
    rx_budget: usize,
    supervision: Option<DeviceSupervisorConfig>,
}

impl<P: IoRouter> IoPlane<P> {
    /// Wrap a data plane. `rx_budget` caps frames pulled from each
    /// device per poll (back-pressure toward the wire).
    pub fn new(plane: P, rx_budget: usize) -> IoPlane<P> {
        IoPlane {
            plane,
            devices: Vec::new(),
            ledger: IoLedger::default(),
            rx_budget: rx_budget.max(1),
            supervision: None,
        }
    }

    /// Enable device supervision: every bound device (current and
    /// future) gets a [`DeviceMonitor`] fed one [`PollSample`] per duty
    /// cycle, with quarantine and backed-off reopen driven from
    /// [`poll`](IoPlane::poll).
    pub fn supervise(&mut self, cfg: DeviceSupervisorConfig) {
        self.supervision = Some(cfg);
        for bd in self.devices.iter_mut() {
            if bd.monitor.is_none() {
                bd.last_stats = bd.dev.stats();
                bd.monitor = Some(DeviceMonitor::new(cfg));
            }
        }
    }

    /// Bind a device to router interface `iface`. Packets the device
    /// receives enter the plane on `iface`; packets the plane emits on
    /// `iface` leave through the device.
    pub fn bind(&mut self, iface: IfIndex, dev: Box<dyn NetDev>) {
        assert!(
            (iface as usize) < self.plane.io_interface_count(),
            "bind: interface {iface} out of range"
        );
        let last_stats = dev.stats();
        self.devices.push(BoundDev {
            dev,
            iface,
            rx_scratch: Vec::new(),
            tx_scratch: Vec::new(),
            monitor: self.supervision.map(DeviceMonitor::new),
            last_stats,
            rx_frames: 0,
        });
    }

    /// The wrapped data plane.
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// The wrapped data plane, mutably (route setup, plugin config).
    pub fn plane_mut(&mut self) -> &mut P {
        &mut self.plane
    }

    /// The wire-level conservation ledger.
    pub fn ledger(&self) -> IoLedger {
        self.ledger
    }

    /// One duty cycle: ingress from every device, flush, egress to
    /// every device, then (with supervision on) one health step per
    /// device. Returns frames read off the wire this cycle.
    pub fn poll(&mut self) -> u64 {
        let polled = self.poll_rx();
        self.plane.io_flush();
        self.poll_tx();
        if self.supervision.is_some() {
            self.supervise_step();
        }
        polled
    }

    /// Ingress half of a cycle (exposed for tests that want to observe
    /// the plane mid-cycle). Quarantined devices are not polled; when
    /// their reopen backoff has elapsed a [`NetDev::reopen`] is
    /// attempted first, and on success the device is polled again this
    /// same cycle (on degraded probation).
    pub fn poll_rx(&mut self) -> u64 {
        let wall = rp_packet::coarse_now_ns();
        let mut polled = 0;
        for bd in self.devices.iter_mut() {
            bd.rx_frames = 0;
            if let Some(mon) = bd.monitor.as_mut() {
                if mon.machine().recovery_due(wall) {
                    let ok = bd.dev.reopen().is_ok();
                    mon.note_reopen(ok, wall);
                }
                if mon.machine().quarantined() {
                    continue;
                }
            }
            let iface = bd.iface;
            let budget = self.rx_budget;
            let plane = &mut self.plane;
            let rx = &mut bd.rx_scratch;
            let r: RxBatch = bd.dev.rx_batch(budget, &mut |bytes| {
                let mut m = plane.io_mbuf(bytes, iface);
                m.timestamp_ns = wall;
                rx.push(m);
            });
            polled += r.frames;
            bd.rx_frames = r.frames;
            self.ledger.device_rx += r.frames;
            self.ledger.injected += r.delivered;
            if r.dropped > 0 {
                self.ledger.decap_dropped += r.dropped;
                plane.io_note_device_rx_drops(r.dropped);
            }
            plane.io_inject_batch(&mut bd.rx_scratch);
        }
        polled
    }

    /// Egress half of a cycle. A quarantined device's queued egress is
    /// shed (recycled and counted as device-tx drops) rather than
    /// handed to a dead transport — conservation stays exact across the
    /// outage. For live devices, frames the device refused are split by
    /// cause: hard write errors (from the device's own `tx_errors`
    /// delta) vs backpressure sheds (everything else).
    pub fn poll_tx(&mut self) {
        for bd in self.devices.iter_mut() {
            self.plane.io_take_tx_into(bd.iface, &mut bd.tx_scratch);
            if bd.tx_scratch.is_empty() {
                continue;
            }
            if bd
                .monitor
                .as_ref()
                .is_some_and(|m| m.machine().quarantined())
            {
                let n = bd.tx_scratch.len() as u64;
                let pool = self.plane.io_pool();
                for m in bd.tx_scratch.drain(..) {
                    pool.recycle(m);
                }
                self.ledger.tx_dropped += n;
                self.plane.io_note_device_tx_drops(n);
                continue;
            }
            let attempted = bd.tx_scratch.len() as u64;
            let errs_before = bd.dev.stats().tx_errors;
            let sent = bd.dev.tx_batch(&mut bd.tx_scratch, self.plane.io_pool());
            self.ledger.device_tx += sent;
            let failed = attempted - sent;
            if failed > 0 {
                let hard = (bd.dev.stats().tx_errors - errs_before).min(failed);
                self.ledger.tx_errors += hard;
                self.ledger.tx_dropped += failed - hard;
                self.plane.io_note_device_tx_drops(failed);
            }
        }
    }

    /// One supervision step: feed every monitored device a
    /// [`PollSample`] built from its [`DeviceStats`] deltas since the
    /// last step, with the sum of the *other* devices' rx frames as the
    /// liveness witness for the stall check.
    fn supervise_step(&mut self) {
        let now = rp_packet::coarse_now_ns();
        let total_rx: u64 = self.devices.iter().map(|bd| bd.rx_frames).sum();
        for bd in self.devices.iter_mut() {
            let Some(mon) = bd.monitor.as_mut() else {
                continue;
            };
            let s = bd.dev.stats();
            let io_errors =
                (s.rx_errors - bd.last_stats.rx_errors) + (s.tx_errors - bd.last_stats.tx_errors);
            bd.last_stats = s;
            mon.note_poll(
                &PollSample {
                    rx_frames: bd.rx_frames,
                    peer_rx_frames: total_rx - bd.rx_frames,
                    io_errors,
                },
                now,
            );
        }
    }

    /// Poll until `cycles` consecutive cycles read nothing off the wire
    /// (traffic has settled), up to `max_polls`. Returns total frames.
    pub fn poll_until_quiet(&mut self, cycles: usize, max_polls: usize) -> u64 {
        let mut total = 0;
        let mut quiet = 0;
        for _ in 0..max_polls {
            let n = self.poll();
            total += n;
            if n == 0 {
                quiet += 1;
                if quiet >= cycles {
                    break;
                }
            } else {
                quiet = 0;
            }
        }
        total
    }

    /// Per-device rows for the pmgr `devices` command.
    pub fn device_rows(&self) -> Vec<DeviceRow> {
        self.devices
            .iter()
            .map(|bd| DeviceRow {
                name: bd.dev.name().to_string(),
                iface: bd.iface,
                stats: bd.dev.stats(),
                health: bd.monitor.as_ref().map(|m| m.machine().state()),
                quarantines: bd.monitor.as_ref().map_or(0, |m| m.machine().quarantines()),
                reopens: bd.monitor.as_ref().map_or(0, |m| m.reopens()),
            })
            .collect()
    }

    /// Check exact wire-to-wire conservation, panicking with a labelled
    /// diff on violation. Valid once traffic has settled (all egress
    /// drained) when every interface carrying traffic is device-bound
    /// and no plugin consumed packets:
    ///
    /// * every frame read became a counted packet:
    ///   `device_rx == stats.received`;
    /// * every forwarded frame left through a device:
    ///   `forwarded == device_tx`;
    /// * nothing is unaccounted: [`DataPathStats::ledger_gap`] is 0, i.e.
    ///   `device_rx + fragment_extra_frames == device_tx + Σdrops`
    ///   (each IPv4 fragment is a frame of its own on the wire).
    pub fn check_conservation(&self) {
        let stats = self.plane.io_stats();
        let led = self.ledger;
        assert_eq!(
            led.device_rx, stats.received,
            "conservation: device_rx ({}) != received ({})",
            led.device_rx, stats.received
        );
        assert_eq!(
            stats.forwarded, led.device_tx,
            "conservation: forwarded ({}) != device_tx ({})",
            stats.forwarded, led.device_tx
        );
        assert_eq!(
            stats.ledger_gap(),
            0,
            "conservation: device_rx ({}) + fragment extra frames ({}) != device_tx ({}) + drops ({})",
            led.device_rx,
            stats.fragment_extra_frames,
            led.device_tx,
            stats.dropped_total()
        );
    }
}

/// The I/O plane re-exports its router's control plane verbatim —
/// every command pmgr knows works unchanged — and supplies the live
/// `devices` rows.
impl<P: IoRouter + ControlPlane> ControlPlane for IoPlane<P> {
    fn cp_load_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.plane.cp_load_plugin(name)
    }
    fn cp_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.plane.cp_unload_plugin(name)
    }
    fn cp_force_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.plane.cp_force_unload_plugin(name)
    }
    fn cp_send_message(
        &mut self,
        plugin: &str,
        msg: PluginMsg,
    ) -> Result<PluginReply, PluginError> {
        self.plane.cp_send_message(plugin, msg)
    }
    fn cp_add_route(&mut self, addr: IpAddr, prefix_len: u8, tx_if: IfIndex) {
        self.plane.cp_add_route(addr, prefix_len, tx_if)
    }
    fn cp_remove_route(&mut self, addr: IpAddr, prefix_len: u8) -> bool {
        self.plane.cp_remove_route(addr, prefix_len)
    }
    fn cp_set_gate_enabled(&mut self, gate: Gate, enabled: bool) {
        self.plane.cp_set_gate_enabled(gate, enabled)
    }
    fn cp_set_default_scheduler(
        &mut self,
        iface: IfIndex,
        plugin: &str,
        id: InstanceId,
    ) -> Result<(), PluginError> {
        self.plane.cp_set_default_scheduler(iface, plugin, id)
    }
    fn cp_describe_filters(&self, gate: Gate) -> Vec<String> {
        self.plane.cp_describe_filters(gate)
    }
    fn cp_describe_instances(&self) -> Vec<String> {
        self.plane.cp_describe_instances()
    }
    fn cp_health_reports(&self) -> Vec<HealthReport> {
        self.plane.cp_health_reports()
    }
    fn cp_loaded_plugins(&self) -> Vec<String> {
        self.plane.cp_loaded_plugins()
    }
    fn cp_stats_rows(&self) -> Vec<StatsRow> {
        self.plane.cp_stats_rows()
    }
    fn cp_metrics_rows(&self) -> Vec<MetricsRow> {
        self.plane.cp_metrics_rows()
    }
    fn cp_trace_enable(&mut self, on: bool) {
        self.plane.cp_trace_enable(on)
    }
    fn cp_trace_dump(&self, n: usize) -> Vec<ShardTraceEvent> {
        self.plane.cp_trace_dump(n)
    }
    fn cp_shard_status(&mut self) -> Vec<ShardStatus> {
        self.plane.cp_shard_status()
    }
    fn cp_shard_restart(&mut self, shard: usize) -> Result<String, PluginError> {
        self.plane.cp_shard_restart(shard)
    }
    fn cp_shard_kill(&mut self, shard: usize) -> Result<String, PluginError> {
        self.plane.cp_shard_kill(shard)
    }
    fn cp_device_rows(&self) -> Vec<DeviceRow> {
        self.device_rows()
    }
}
