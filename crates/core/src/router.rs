//! The assembled Extended Integrated Services Router: PCU + loader + AIU +
//! routing table + interfaces, with the gate-traversing data path of paper
//! §3.2 and the Router Plugin Library control API of §3.1.

use crate::gate::{Gate, ALL_GATES, GATE_COUNT};
use crate::ip_core::{
    dst_of, validate_and_age, DataPathStats, Disposition, DropReason, RouteEntry, RoutingTable,
};
use crate::loader::PluginLoader;
use crate::message::{PluginMsg, PluginReply};
use crate::obs::{self, MetricsRegistry, MetricsSnapshot, TraceCategory, Tracer};
use crate::pcu::Pcu;
use crate::plugin::{InstanceId, InstanceRef, PacketCtx, PluginAction, PluginError};
use crate::supervisor::{self, FaultPolicy, HealthReport, Supervisor};
use rp_classifier::aiu::ClassifyOutcome;
use rp_classifier::flow_table::EvictedFlow;
use rp_classifier::{Aiu, AiuConfig, BmpKind, FilterId, FlowTableConfig};
use rp_packet::mbuf::{FlowIndex, IfIndex};
use rp_packet::{Mbuf, MbufPool, PoolStats};
use std::net::IpAddr;
use std::sync::Arc;

/// A network interface: egress queue plus bookkeeping. Reception is
/// modelled by calling [`Router::receive`] with the interface id.
pub struct Interface {
    /// Interface id.
    pub id: IfIndex,
    /// MTU in bytes (the paper's ATM testbed uses 9180).
    pub mtu: usize,
    /// The router's own address on this interface (source of ICMP
    /// errors; errors are suppressed when unset).
    pub addr: Option<IpAddr>,
    /// Scheduler instances that currently hold packets for this interface
    /// (the default FIFO plus any flow-bound plugin instances).
    scheds: Vec<InstanceRef>,
    /// Transmitted packets, collected by the testbench ("the wire").
    pub tx_log: Vec<Mbuf>,
}

impl Interface {
    fn attach_sched(&mut self, inst: &InstanceRef) {
        if !self.scheds.iter().any(|s| Arc::ptr_eq(s, inst)) {
            self.scheds.push(inst.clone());
        }
    }
}

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of interfaces.
    pub interfaces: usize,
    /// MTU for every interface.
    pub mtu: usize,
    /// Verify IPv4 header checksums on reception.
    pub verify_checksums: bool,
    /// Which gates are compiled into the data path. The Table 3 baseline
    /// ("unmodified kernel") runs with none.
    pub enabled_gates: Vec<Gate>,
    /// Flow-cache configuration.
    pub flow_table: FlowTableConfig,
    /// BMP plugin for the classifier's address levels.
    pub bmp: BmpKind,
    /// Plugin fault-handling policy (thresholds, budget, restart).
    pub fault_policy: FaultPolicy,
    /// End-to-end latency deadline in wall-clock nanoseconds; `0`
    /// disables the check. When set, a packet whose coarse ingress
    /// stamp (see [`rp_packet::coarse_now_ns`]) is already older than
    /// this at [`Router::receive_stamped`] is shed as
    /// [`DropReason::DeadlineExceeded`] instead of forwarded late.
    pub max_sojourn_ns: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            interfaces: 4,
            mtu: 9180,
            verify_checksums: true,
            enabled_gates: ALL_GATES.to_vec(),
            flow_table: FlowTableConfig {
                gates: GATE_COUNT,
                ..FlowTableConfig::default()
            },
            bmp: BmpKind::Bspl,
            fault_policy: FaultPolicy::default(),
            max_sojourn_ns: 0,
        }
    }
}

/// The router.
pub struct Router {
    /// The Plugin Control Unit.
    pub pcu: Pcu,
    /// The module loader.
    pub loader: PluginLoader,
    aiu: Aiu<InstanceRef>,
    routes: RoutingTable,
    interfaces: Vec<Interface>,
    enabled: [bool; GATE_COUNT],
    verify_checksums: bool,
    max_sojourn_ns: u64,
    stats: DataPathStats,
    now_ns: u64,
    supervisor: Supervisor,
    metrics: MetricsRegistry,
    tracer: Tracer,
    /// Free list of packet backing buffers. Every data-path drop and
    /// every fragment emission recycles through here; drivers that build
    /// ingress mbufs with [`Router::mbuf_with`] and return egress buffers
    /// via [`Router::recycle_mbuf`] run allocation-free in steady state.
    pool: MbufPool,
    /// Reusable buffer for idle-expiry sweeps (no per-sweep `Vec`).
    evict_scratch: Vec<EvictedFlow<InstanceRef>>,
}

/// Result of one supervised gate invocation (internal to the data path).
enum GateOutcome {
    /// The instance ran to completion and returned an action.
    Action(PluginAction),
    /// The instance faulted mid-packet; the packet must be dropped (and
    /// counted) rather than forwarded with possibly-torn state.
    Fault,
}

impl Router {
    /// Build a router; plugins are loaded separately (see
    /// [`crate::plugins::register_builtin_factories`]).
    pub fn new(cfg: RouterConfig) -> Self {
        let mut flow_cfg = cfg.flow_table;
        flow_cfg.gates = GATE_COUNT;
        let mut enabled = [false; GATE_COUNT];
        for g in &cfg.enabled_gates {
            enabled[g.index()] = true;
        }
        Router {
            pcu: Pcu::new(),
            loader: PluginLoader::new(),
            aiu: Aiu::new(AiuConfig {
                gates: GATE_COUNT,
                flow_table: flow_cfg,
                bmp: cfg.bmp,
            }),
            routes: RoutingTable::new(),
            interfaces: (0..cfg.interfaces)
                .map(|i| Interface {
                    id: i as IfIndex,
                    mtu: cfg.mtu,
                    addr: None,
                    scheds: Vec::new(),
                    tx_log: Vec::new(),
                })
                .collect(),
            enabled,
            verify_checksums: cfg.verify_checksums,
            max_sojourn_ns: cfg.max_sojourn_ns,
            stats: DataPathStats::default(),
            now_ns: 0,
            supervisor: Supervisor::new(cfg.fault_policy),
            metrics: MetricsRegistry::default(),
            tracer: Tracer::default(),
            pool: MbufPool::default(),
            evict_scratch: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Control path (the Router Plugin Library API)
    // ------------------------------------------------------------------

    /// `modload <name>`.
    pub fn load_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.loader.load(name, &mut self.pcu)
    }

    /// `modunload <name>`.
    pub fn unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.loader.unload(name, &mut self.pcu)
    }

    /// Forced `modunload`: free every live instance first — deregistering
    /// its filters, flushing its cached flows, and detaching it from
    /// interface egress queues — then unload the module. The plain
    /// [`Router::unload_plugin`] keeps the refusal semantics when
    /// instances are live; this is the operator's escape hatch for a
    /// misbehaving module with flows still bound mid-stream.
    pub fn force_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        let ids = self.pcu.instances(name)?;
        for id in ids {
            self.send_message(name, PluginMsg::FreeInstance { id })?;
        }
        self.loader.unload(name, &mut self.pcu)
    }

    /// Send a standardized or plugin-specific message to a plugin — the
    /// full control path of Figure 2 (PCU dispatch, AIU registration).
    pub fn send_message(
        &mut self,
        plugin: &str,
        msg: PluginMsg,
    ) -> Result<PluginReply, PluginError> {
        match msg {
            PluginMsg::CreateInstance { config } => {
                let (id, inst) = self.pcu.create_instance(plugin, &config)?;
                // Supervise it: the name + config are what a restart needs
                // to rebuild the instance from the plugin's factory.
                self.supervisor.track(plugin, id, &config, &inst);
                Ok(PluginReply::InstanceCreated(id))
            }
            PluginMsg::FreeInstance { id } => {
                let inst = self.pcu.instance(plugin, id)?;
                // Drain any egress queue the instance holds onto the wire
                // first: deregistering below runs the instance's own
                // flow-eviction callbacks, which (for schedulers) discard
                // the flow's backlog — those packets were already counted
                // forwarded and must not be blackholed. This also detaches
                // the instance so the data path can't dequeue from it
                // after the free.
                self.detach_sched_everywhere(&inst);
                // Purge filter bindings referencing this instance.
                for gate in ALL_GATES {
                    let ids: Vec<FilterId> = self
                        .aiu
                        .filter_table(gate.index())
                        .filter_ids()
                        .into_iter()
                        .filter(|fid| {
                            self.aiu
                                .filter_table(gate.index())
                                .get(*fid)
                                .map(|(_, v)| Arc::ptr_eq(v, &inst))
                                .unwrap_or(false)
                        })
                        .collect();
                    for fid in ids {
                        self.deregister(gate, fid)?;
                    }
                }
                self.supervisor.untrack(&inst);
                self.pcu.free_instance(plugin, id)?;
                Ok(PluginReply::InstanceFreed)
            }
            PluginMsg::RegisterInstance { id, gate, filter } => {
                let inst = self.pcu.instance(plugin, id)?;
                let (fid, evicted) = self
                    .aiu
                    .install_filter(gate.index(), filter.clone(), inst.clone())
                    .map_err(|e| PluginError::Filter(e.to_string()))?;
                if self.tracer.wants(TraceCategory::Filter) {
                    let now = self.now_ns;
                    let detail = format!("filter installed at {gate} id={}: {filter}", fid.0);
                    self.tracer.record(now, TraceCategory::Filter, detail);
                }
                self.supervisor.note_binding(&inst, gate, filter, fid);
                for ev in evicted {
                    self.run_eviction_callbacks(ev);
                }
                Ok(PluginReply::Registered(fid))
            }
            PluginMsg::DeregisterInstance { gate, filter } => {
                self.deregister(gate, filter)?;
                Ok(PluginReply::Deregistered)
            }
            PluginMsg::Custom {
                instance,
                name,
                args,
            } => {
                let text = self.pcu.custom_message(plugin, instance, &name, &args)?;
                Ok(PluginReply::Text(text))
            }
        }
    }

    fn deregister(&mut self, gate: Gate, fid: FilterId) -> Result<(), PluginError> {
        let (_spec, inst, evicted) = self
            .aiu
            .remove_filter(gate.index(), fid)
            .map_err(|e| PluginError::Filter(e.to_string()))?;
        if self.tracer.wants(TraceCategory::Filter) {
            let now = self.now_ns;
            let detail = format!("filter removed at {gate} id={}", fid.0);
            self.tracer.record(now, TraceCategory::Filter, detail);
        }
        self.supervisor.note_unbinding(&inst, gate, fid);
        let _ = supervisor::run_isolated(|| inst.filter_unbound(fid));
        for ev in evicted {
            self.run_eviction_callbacks(ev);
        }
        Ok(())
    }

    fn run_eviction_callbacks(&mut self, ev: EvictedFlow<InstanceRef>) {
        self.run_eviction_callbacks_skipping(ev, None);
    }

    /// Run per-flow eviction callbacks, isolated from panics. `skip`
    /// suppresses the callback for one instance — used when quarantining
    /// a faulted instance, whose code must not run again.
    fn run_eviction_callbacks_skipping(
        &mut self,
        mut ev: EvictedFlow<InstanceRef>,
        skip: Option<&InstanceRef>,
    ) {
        for g in ev.gates.iter_mut() {
            if let Some(inst) = g.instance.take() {
                if skip.is_some_and(|s| Arc::ptr_eq(s, &inst)) {
                    continue;
                }
                let soft = g.soft_state.take();
                let _ = supervisor::run_isolated(|| inst.flow_unbound(&ev.key, soft));
            }
        }
    }

    /// Assign the router's own address on an interface (enables ICMP
    /// Time Exceeded generation for packets arriving there).
    pub fn set_interface_addr(&mut self, iface: IfIndex, addr: IpAddr) {
        self.interfaces[iface as usize].addr = Some(addr);
    }

    /// Add a route.
    pub fn add_route(&mut self, addr: IpAddr, prefix_len: u8, tx_if: IfIndex) {
        self.routes.add(addr, prefix_len, RouteEntry { tx_if });
    }

    /// Remove a route.
    pub fn remove_route(&mut self, addr: IpAddr, prefix_len: u8) -> bool {
        self.routes.remove(addr, prefix_len).is_some()
    }

    /// Repack the routing tries breadth-first for cache-line adjacency
    /// (see [`rp_lpm::PatriciaTable::repack`]). Call once after bulk
    /// route loading; forwarding behaviour is unchanged.
    pub fn optimize_routes(&mut self) {
        self.routes.optimize();
    }

    /// Hot-prefix FIB cache counters.
    pub fn fib_cache_stats(&self) -> crate::ip_core::FibCacheStats {
        self.routes.fib_cache_stats()
    }

    /// Enable or disable a gate at run time.
    pub fn set_gate_enabled(&mut self, gate: Gate, enabled: bool) {
        self.enabled[gate.index()] = enabled;
    }

    /// Is a gate enabled?
    pub fn gate_enabled(&self, gate: Gate) -> bool {
        self.enabled[gate.index()]
    }

    /// Attach a scheduler instance to an interface as its default egress
    /// queue (packets whose flow has no scheduling binding use it).
    pub fn set_default_scheduler(
        &mut self,
        iface: IfIndex,
        plugin: &str,
        id: InstanceId,
    ) -> Result<(), PluginError> {
        let inst = self.pcu.instance(plugin, id)?;
        if inst.as_scheduler().is_none() {
            return Err(PluginError::BadConfig(format!(
                "instance {id} of {plugin} is not a scheduler"
            )));
        }
        let ifc = &mut self.interfaces[iface as usize];
        ifc.scheds.retain(|_| false);
        ifc.attach_sched(&inst);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data path (paper §3.2)
    // ------------------------------------------------------------------

    /// Advance the router's virtual clock. Restart backoffs run on this
    /// clock, so advancing it also attempts any due restarts.
    pub fn set_time_ns(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        self.aiu.set_now(now_ns);
        self.poll_restarts();
    }

    /// Expire flow-cache entries idle longer than `max_idle_ns`, running
    /// plugin eviction callbacks (paper §3.2 idle-flow removal). Evictions
    /// drain through a reusable scratch buffer, so a steady-state sweep
    /// that finds nothing to expire allocates nothing.
    pub fn expire_idle_flows(&mut self, max_idle_ns: u64) -> usize {
        let mut evicted = std::mem::take(&mut self.evict_scratch);
        evicted.clear();
        let n = self.aiu.expire_idle_into(max_idle_ns, &mut evicted);
        self.metrics.flows_expired += n as u64;
        for ev in evicted.drain(..) {
            if self.tracer.wants(TraceCategory::Flow) {
                let now = self.now_ns;
                let detail = format!("flow expired: {}", ev.key);
                self.tracer.record(now, TraceCategory::Flow, detail);
            }
            self.run_eviction_callbacks(ev);
        }
        self.evict_scratch = evicted;
        n
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The gate dispatch: ensure the packet is classified (first gate),
    /// then run the instance bound at `gate` through the FIX — the paper's
    /// gate macro. `Ok(None)` means nothing in service is bound there.
    /// `Err` means the packet could not be classified at all (unparsable
    /// headers): it must take the malformed drop path, not silently skip
    /// the gate. `egress` is set at the scheduling gate: the bound
    /// scheduler joins that interface's drain list.
    fn at_gate(
        &mut self,
        mbuf: &mut Mbuf,
        gate: Gate,
        egress: Option<IfIndex>,
    ) -> Result<Option<GateOutcome>, DropReason> {
        if mbuf.fix.is_none() && !mbuf.class_denied {
            self.classify(mbuf, gate)?;
        }
        let Some(fix) = mbuf.fix else {
            return Ok(None);
        };
        Ok(self.call_instance(mbuf, gate, fix, egress))
    }

    /// First-gate classification: look the packet up in the flow cache,
    /// creating its record on a miss, and count the outcome at `gate`.
    fn classify(&mut self, mbuf: &mut Mbuf, gate: Gate) -> Result<(), DropReason> {
        let Ok((outcome, evicted)) = self.aiu.classify_mbuf(mbuf) else {
            return Err(DropReason::Malformed);
        };
        let gi = gate.index();
        match outcome {
            ClassifyOutcome::CacheHit(_) => self.metrics.class_hits[gi] += 1,
            ClassifyOutcome::CacheMiss(_) => {
                self.metrics.class_misses[gi] += 1;
                if rp_packet::flow::is_fragment(mbuf.data()) {
                    self.metrics.fragment_flows += 1;
                }
                if self.tracer.wants(TraceCategory::Flow) {
                    let now = self.now_ns;
                    let detail = format!("flow created at {gate} fix={:?}", mbuf.fix.map(|f| f.0));
                    self.tracer.record(now, TraceCategory::Flow, detail);
                }
            }
            ClassifyOutcome::Denied => {
                // Admission control refused a record: the packet still
                // forwards, uncached, on every gate's default path.
                // Counted via the flow-table stats gauge in the metrics
                // snapshot.
                self.metrics.class_misses[gi] += 1;
                if self.tracer.wants(TraceCategory::Flow) {
                    let now = self.now_ns;
                    let detail = format!("flow admission denied at {gate}");
                    self.tracer.record(now, TraceCategory::Flow, detail);
                }
            }
        }
        if let Some(ev) = evicted {
            self.metrics.class_recycled[gi] += 1;
            if self.tracer.wants(TraceCategory::Flow) {
                let now = self.now_ns;
                let detail = format!("flow recycled at {gate}: {}", ev.key);
                self.tracer.record(now, TraceCategory::Flow, detail);
            }
            self.run_eviction_callbacks(ev);
        }
        Ok(())
    }

    /// Invoke the instance bound at `gate` under supervision: the call is
    /// panic-isolated, charged against the policy's packet budget, and
    /// any fault is counted against the instance's health. The instance,
    /// its filter id and its soft-state slot are one borrow of the flow
    /// record; the instance handle is cloned only when the call faults or
    /// a scheduler first joins an interface's drain list. `None` when
    /// nothing in service is bound at `gate`.
    fn call_instance(
        &mut self,
        mbuf: &mut Mbuf,
        gate: Gate,
        fix: FlowIndex,
        egress: Option<IfIndex>,
    ) -> Option<GateOutcome> {
        let (inst, filter, slot) = self.aiu.binding_mut(fix, gate.index())?;
        // Defense in depth: a quarantined instance never sees another
        // packet, even through a stale cached binding.
        if self.supervisor.is_quarantined(inst) {
            return None;
        }
        if let Some(tx_if) = egress {
            self.interfaces[tx_if as usize].attach_sched(inst);
        }
        self.stats.plugin_calls += 1;
        let budget = self.supervisor.policy().packet_budget_ns;
        // Latency is wall-clock (virtual time doesn't advance inside a
        // call) and sampled 1-in-N so the clock reads stay off the common
        // path.
        let t0 = self
            .metrics
            .note_gate_call(gate)
            .then(std::time::Instant::now);
        let mut ctx = PacketCtx {
            gate,
            now_ns: self.now_ns,
            fix,
            filter,
            soft_state: slot,
            cost_ns: 0,
        };
        let call = supervisor::run_isolated(|| {
            let action = inst.handle_packet(mbuf, &mut ctx);
            (action, ctx.cost_ns)
        });
        if let Some(t0) = t0 {
            self.metrics
                .note_gate_latency(gate, t0.elapsed().as_nanos() as u64);
        }
        let (outcome, fault) = match call {
            // A modelled stall: the call "completed" but charged more
            // processing time than the policy tolerates.
            Ok((action, cost_ns)) if budget > 0 && cost_ns > budget => (
                GateOutcome::Action(action),
                Some(format!(
                    "budget exceeded: cost {cost_ns}ns > budget {budget}ns"
                )),
            ),
            Ok((action, _)) => (GateOutcome::Action(action), None),
            Err(msg) => (GateOutcome::Fault, Some(format!("panic: {msg}"))),
        };
        if let Some(why) = fault {
            // Fault handling needs the whole router, so the flow-record
            // borrow ends here with the one clone of the handle.
            let inst = inst.clone();
            if self.note_fault(&inst, why) {
                mbuf.fix = None; // quarantined: reclassify downstream
            }
        }
        Some(outcome)
    }

    /// Count one fault (`why` describes it); on the quarantine edge, pull
    /// the instance off the data path. Returns true when the instance was
    /// just quarantined.
    fn note_fault(&mut self, inst: &InstanceRef, why: String) -> bool {
        self.stats.plugin_faults += 1;
        if self.tracer.wants(TraceCategory::Plugin) {
            let now = self.now_ns;
            let detail = format!("fault in {}: {why}", inst.describe());
            self.tracer.record(now, TraceCategory::Plugin, detail);
        }
        if self.supervisor.record_fault(inst, why, self.now_ns) {
            self.quarantine(inst);
            true
        } else {
            false
        }
    }

    /// Remove a quarantined instance from the data path: its filters go,
    /// its cached flows are invalidated (falling back to each gate's
    /// default path on their next packet), its egress queues drain to the
    /// wire. (The health machine already scheduled its restart.)
    fn quarantine(&mut self, inst: &InstanceRef) {
        self.stats.plugin_quarantines += 1;
        if self.tracer.wants(TraceCategory::Plugin) {
            let now = self.now_ns;
            let detail = format!("quarantined {}", inst.describe());
            self.tracer.record(now, TraceCategory::Plugin, detail);
        }
        // Filters first — otherwise the next classification would re-bind
        // the dead instance. The instance's own callbacks are skipped (its
        // code must not run again); other instances' callbacks still fire.
        for gate in ALL_GATES {
            let table = self.aiu.filter_table(gate.index());
            let ids: Vec<FilterId> = table
                .filter_ids()
                .into_iter()
                .filter(|fid| {
                    table
                        .get(*fid)
                        .map(|(_, v)| Arc::ptr_eq(v, inst))
                        .unwrap_or(false)
                })
                .collect();
            for fid in ids {
                if let Ok((_spec, _inst, evicted)) = self.aiu.remove_filter(gate.index(), fid) {
                    for ev in evicted {
                        self.run_eviction_callbacks_skipping(ev, Some(inst));
                    }
                }
            }
        }
        // Then any cached flow still binding it at any gate (filters
        // installed behind the router's back, recycled records, …).
        let dead = inst.clone();
        let evicted = self.aiu.invalidate_flows_where(|r| {
            r.gates
                .instances()
                .iter()
                .any(|i| i.as_ref().is_some_and(|v| Arc::ptr_eq(v, &dead)))
        });
        for ev in evicted {
            self.run_eviction_callbacks_skipping(ev, Some(inst));
        }
        self.detach_sched_everywhere(inst);
    }

    /// Detach an instance from every interface's scheduler list, draining
    /// whatever its queue still holds onto the wire first (those packets
    /// were already counted forwarded when they were queued; dropping
    /// them silently would blackhole them).
    fn detach_sched_everywhere(&mut self, inst: &InstanceRef) {
        let now = self.now_ns;
        for ifc in &mut self.interfaces {
            if !ifc.scheds.iter().any(|s| Arc::ptr_eq(s, inst)) {
                continue;
            }
            if let Some(sched) = inst.as_scheduler() {
                while let Ok(Some(pkt)) = supervisor::run_isolated(|| sched.dequeue(now)) {
                    self.metrics.note_tx(ifc.id, pkt.len());
                    ifc.tx_log.push(pkt);
                }
            }
            ifc.scheds.retain(|s| !Arc::ptr_eq(s, inst));
        }
    }

    /// Attempt every due restart: free the dead instance, rebuild it from
    /// the plugin's factory with the original config, and re-install its
    /// filter bindings for the fresh instance.
    fn poll_restarts(&mut self) {
        if !self.supervisor.restart_due(self.now_ns) {
            return;
        }
        for t in self.supervisor.take_due(self.now_ns) {
            let _ = self.pcu.free_instance(&t.plugin, t.id);
            let fresh = match self.pcu.create_instance(&t.plugin, &t.config) {
                Ok((new_id, new_inst)) => {
                    let mut new_bindings = Vec::new();
                    for (gate, spec) in &t.bindings {
                        if let Ok((fid, evicted)) =
                            self.aiu
                                .install_filter(gate.index(), spec.clone(), new_inst.clone())
                        {
                            for ev in evicted {
                                self.run_eviction_callbacks(ev);
                            }
                            new_bindings.push((*gate, spec.clone(), fid));
                        }
                    }
                    self.stats.plugin_restarts += 1;
                    if self.tracer.wants(TraceCategory::Plugin) {
                        let now = self.now_ns;
                        let detail = format!("restarted {} {} → {}", t.plugin, t.id.0, new_id.0);
                        self.tracer.record(now, TraceCategory::Plugin, detail);
                    }
                    Some((new_id, new_inst, new_bindings))
                }
                // Factory refused (or the plugin was unloaded while the
                // instance sat in quarantine).
                Err(_) => None,
            };
            self.supervisor
                .restarted(&t.plugin, t.id, fresh, self.now_ns);
        }
    }

    /// Process one received packet through the full data path.
    pub fn receive(&mut self, mut mbuf: Mbuf) -> Disposition {
        self.poll_restarts();
        self.stats.received += 1;
        self.metrics.note_rx(mbuf.rx_if, mbuf.len());
        mbuf.timestamp_ns = self.now_ns;

        // Core: validate + age. A TTL/hop-limit expiry additionally sends
        // ICMP Time Exceeded back toward the source (RFC 792 / RFC 2463),
        // provided the receive interface has an address configured.
        if let Err(reason) = validate_and_age(&mut mbuf, self.verify_checksums) {
            if reason == DropReason::TtlExpired {
                self.emit_time_exceeded(&mbuf);
            }
            return self.drop_pkt(mbuf, reason);
        }

        // Pre-routing gates.
        for gate in [
            Gate::Firewall,
            Gate::Ipv6Options,
            Gate::IpSecurity,
            Gate::Routing,
            Gate::Stats,
        ] {
            if !self.enabled[gate.index()] {
                continue;
            }
            match self.at_gate(&mut mbuf, gate, None) {
                Ok(None) | Ok(Some(GateOutcome::Action(PluginAction::Continue))) => {}
                Ok(Some(GateOutcome::Action(PluginAction::Consumed))) => {
                    // A consuming plugin either took the buffer (the mbuf
                    // left behind is an empty shell) or left it; recycling
                    // handles both.
                    self.pool.recycle(mbuf);
                    return Disposition::Consumed(gate);
                }
                Ok(Some(GateOutcome::Action(PluginAction::Drop))) => {
                    return self.drop_pkt(mbuf, DropReason::Plugin(gate))
                }
                Ok(Some(GateOutcome::Fault)) => {
                    return self.drop_pkt(mbuf, DropReason::PluginFault(gate))
                }
                Err(reason) => return self.drop_pkt(mbuf, reason),
            }
        }

        // Core routing (unless a routing plugin already set the egress).
        if mbuf.tx_if.is_none() {
            let dst = match dst_of(&mbuf) {
                Ok(d) => d,
                Err(r) => return self.drop_pkt(mbuf, r),
            };
            match self.routes.lookup_cached(dst) {
                Some(e) => mbuf.tx_if = Some(e.tx_if),
                None => return self.drop_pkt(mbuf, DropReason::NoRoute),
            }
        }
        let Some(tx_if) = mbuf.tx_if else {
            // Both branches above either set tx_if or returned; reaching
            // here means the routing state is inconsistent. Count it.
            return self.drop_pkt(mbuf, DropReason::Internal);
        };
        if tx_if as usize >= self.interfaces.len() {
            return self.drop_pkt(mbuf, DropReason::NoRoute);
        }

        // Egress MTU: fragment IPv4, refuse oversized IPv6 / DF packets
        // (a real router would add ICMP Packet Too Big; transit routers
        // never reassemble).
        let mtu = self.interfaces[tx_if as usize].mtu;
        if mbuf.len() > mtu {
            use rp_packet::IpVersion;
            let pool = &mut self.pool;
            let frags = match IpVersion::of_packet(mbuf.data()) {
                Ok(IpVersion::V4) => {
                    match crate::ip_core::fragment_v4_with(mbuf.data(), mtu, &mut || pool.buffer())
                    {
                        Ok(f) => f,
                        Err(r) => {
                            self.stats.dropped_too_big += 1;
                            self.pool.recycle(mbuf);
                            return Disposition::Dropped(r);
                        }
                    }
                }
                _ => {
                    self.stats.dropped_too_big += 1;
                    self.pool.recycle(mbuf);
                    return Disposition::Dropped(DropReason::TooBig);
                }
            };
            self.stats.fragmented += 1;
            self.stats.fragment_extra_frames += frags.len().saturating_sub(1) as u64;
            let rx = mbuf.rx_if;
            let fix = mbuf.fix;
            let denied = mbuf.class_denied;
            // The oversized original's buffer feeds the next acquisition.
            self.pool.recycle(mbuf);
            let mut last = Disposition::Forwarded(tx_if);
            for frag in frags {
                let mut fm = Mbuf::new(frag, rx);
                fm.fix = fix;
                fm.class_denied = denied;
                fm.tx_if = Some(tx_if);
                last = self.dispatch_egress(fm, tx_if);
            }
            return last;
        }

        self.dispatch_egress(mbuf, tx_if)
    }

    /// [`Router::receive`] with end-to-end latency accounting. `wall_now_ns`
    /// is the caller's current [`rp_packet::coarse_now_ns`] reading (read
    /// once per batch, not per packet); the mbuf's `timestamp_ns` carries
    /// its coarse ingress stamp from the I/O plane or pool. The sojourn so
    /// far (ingress → shard dequeue) is recorded in the per-router metrics
    /// histogram, and — when a `max_sojourn_ns` deadline is configured — a
    /// packet already older than the deadline is shed as
    /// [`DropReason::DeadlineExceeded`] instead of forwarded late: under
    /// overload latency degrades into counted sheds, not collapse.
    ///
    /// The stamp is consumed here because [`Router::receive`] overwrites
    /// `timestamp_ns` with the router's *virtual* clock for plugin use.
    pub fn receive_stamped(&mut self, mbuf: Mbuf, wall_now_ns: u64) -> Disposition {
        let stamp = mbuf.timestamp_ns;
        if stamp != 0 && wall_now_ns >= stamp {
            let sojourn = wall_now_ns - stamp;
            self.metrics.note_sojourn(sojourn);
            if self.max_sojourn_ns != 0 && sojourn > self.max_sojourn_ns {
                // Count it received (it did arrive) then shed: the
                // conservation invariant `received == forwarded + Σdrops`
                // stays exact.
                self.stats.received += 1;
                self.metrics.note_rx(mbuf.rx_if, mbuf.len());
                return self.drop_pkt(mbuf, DropReason::DeadlineExceeded);
            }
        }
        self.receive(mbuf)
    }

    /// Set (or clear, with `0`) the end-to-end latency deadline at
    /// runtime; see [`RouterConfig::max_sojourn_ns`].
    pub fn set_max_sojourn_ns(&mut self, ns: u64) {
        self.max_sojourn_ns = ns;
    }

    /// Scheduling gate + emission for a packet whose egress interface is
    /// already decided and which fits the MTU.
    fn dispatch_egress(&mut self, mut mbuf: Mbuf, tx_if: IfIndex) -> Disposition {
        // Scheduling gate on the egress interface.
        if self.enabled[Gate::Scheduling.index()] {
            match self.at_gate(&mut mbuf, Gate::Scheduling, Some(tx_if)) {
                // No scheduler bound, or it declined (e.g. pass-through).
                Ok(None) | Ok(Some(GateOutcome::Action(PluginAction::Continue))) => {}
                Ok(Some(GateOutcome::Action(PluginAction::Consumed))) => {
                    // The scheduler took the buffer; what's left is an
                    // empty shell (recycled as a no-op).
                    self.pool.recycle(mbuf);
                    self.stats.forwarded += 1;
                    return Disposition::Queued(tx_if);
                }
                Ok(Some(GateOutcome::Action(PluginAction::Drop))) => {
                    return self.drop_pkt(mbuf, DropReason::QueueFull)
                }
                Ok(Some(GateOutcome::Fault)) => {
                    return self.drop_pkt(mbuf, DropReason::PluginFault(Gate::Scheduling))
                }
                Err(reason) => return self.drop_pkt(mbuf, reason),
            }
        }
        self.emit(mbuf, tx_if)
    }

    /// Build and transmit an ICMP(v4/v6) Time Exceeded toward the
    /// offending packet's source, out the interface it arrived on.
    fn emit_time_exceeded(&mut self, original: &Mbuf) {
        let rx = original.rx_if as usize;
        let Some(ifc) = self.interfaces.get(rx) else {
            return;
        };
        let Some(addr) = ifc.addr else { return };
        if let Some(reply) = crate::ip_core::build_time_exceeded(addr, original.data()) {
            self.interfaces[rx]
                .tx_log
                .push(Mbuf::new(reply, original.rx_if));
        }
    }

    fn emit(&mut self, mbuf: Mbuf, tx_if: IfIndex) -> Disposition {
        self.stats.forwarded += 1;
        self.metrics.note_tx(tx_if, mbuf.len());
        self.interfaces[tx_if as usize].tx_log.push(mbuf);
        Disposition::Forwarded(tx_if)
    }

    /// Drop a packet, returning its backing buffer to the pool. Every
    /// data-path drop that still owns the mbuf funnels through here so
    /// dropped packets feed subsequent acquisitions instead of the
    /// allocator.
    fn drop_pkt(&mut self, mbuf: Mbuf, reason: DropReason) -> Disposition {
        self.pool.recycle(mbuf);
        self.drop(reason)
    }

    fn drop(&mut self, reason: DropReason) -> Disposition {
        self.metrics.note_drop(reason);
        match reason {
            DropReason::Malformed | DropReason::BadChecksum => self.stats.dropped_malformed += 1,
            DropReason::TtlExpired => self.stats.dropped_ttl += 1,
            DropReason::NoRoute => self.stats.dropped_no_route += 1,
            DropReason::Plugin(_) => self.stats.dropped_plugin += 1,
            DropReason::QueueFull => self.stats.dropped_queue += 1,
            DropReason::TooBig => self.stats.dropped_too_big += 1,
            DropReason::PluginFault(_) => self.stats.dropped_fault += 1,
            DropReason::Internal => self.stats.dropped_internal += 1,
            // Shard-level sheds happen at the parallel dispatcher, never
            // inside a single router's data path; counted for
            // completeness should a caller synthesize one.
            DropReason::ShardOverload => self.stats.dropped_shard_overload += 1,
            DropReason::ShardDown => self.stats.dropped_shard_down += 1,
            // Device-level drops happen in the I/O plane (which counts
            // them in bulk via [`Router::note_device_rx_drops`] /
            // [`Router::note_device_tx_drops`]); counted for completeness
            // should a caller synthesize one.
            DropReason::DeviceRx => self.stats.dropped_device_rx += 1,
            DropReason::DeviceTx => self.stats.dropped_device_tx += 1,
            DropReason::DeadlineExceeded => self.stats.dropped_deadline += 1,
        }
        Disposition::Dropped(reason)
    }

    /// Drain up to `max` packets from an interface's schedulers onto its
    /// wire (the device driver's transmit interrupt). Returns packets
    /// transmitted.
    pub fn pump(&mut self, iface: IfIndex, max: usize) -> usize {
        let now = self.now_ns;
        let mut sent = 0;
        // Dequeue panics are collected here and counted after the
        // interface borrow ends (fault handling needs `&mut self`).
        let mut faulted: Vec<(InstanceRef, String)> = Vec::new();
        {
            let ifc = &mut self.interfaces[iface as usize];
            'outer: while sent < max {
                let mut any = false;
                for s in &ifc.scheds {
                    if faulted.iter().any(|(f, _)| Arc::ptr_eq(f, s)) {
                        continue;
                    }
                    if let Some(sched) = s.as_scheduler() {
                        match supervisor::run_isolated(|| sched.dequeue(now)) {
                            Ok(Some(pkt)) => {
                                self.metrics.note_tx(ifc.id, pkt.len());
                                ifc.tx_log.push(pkt);
                                sent += 1;
                                any = true;
                                if sent >= max {
                                    break 'outer;
                                }
                            }
                            Ok(None) => {}
                            Err(msg) => faulted.push((s.clone(), msg)),
                        }
                    }
                }
                if !any {
                    break;
                }
            }
        }
        for (inst, msg) in faulted {
            self.note_fault(&inst, format!("panic: {msg}"));
        }
        sent
    }

    /// Take the packets transmitted on an interface since the last call.
    pub fn take_tx(&mut self, iface: IfIndex) -> Vec<Mbuf> {
        std::mem::take(&mut self.interfaces[iface as usize].tx_log)
    }

    /// Drain an interface's transmitted packets into `out`, preserving
    /// both the tx log's and `out`'s allocated capacity — the
    /// zero-allocation counterpart of [`Router::take_tx`] for drivers
    /// that reuse a scratch vector across calls.
    pub fn take_tx_into(&mut self, iface: IfIndex, out: &mut Vec<Mbuf>) {
        out.append(&mut self.interfaces[iface as usize].tx_log);
    }

    /// Build an ingress mbuf backed by a pooled buffer (the device
    /// driver's receive-side allocation in the paper's architecture).
    pub fn mbuf_with(&mut self, bytes: &[u8], rx_if: IfIndex) -> Mbuf {
        let mut m = self.pool.mbuf_from(bytes, rx_if);
        // Coarse ingress stamp for end-to-end sojourn accounting; the
        // I/O plane re-stamps per received batch, this covers callers
        // that inject synthetic traffic directly.
        m.timestamp_ns = rp_packet::coarse_now_ns();
        m
    }

    /// Return an mbuf's backing buffer to the router's pool (the driver
    /// calls this once a transmitted packet has left "the wire").
    pub fn recycle_mbuf(&mut self, mbuf: Mbuf) {
        self.pool.recycle(mbuf);
    }

    /// Mbuf-pool counters (also surfaced via
    /// [`Router::metrics_snapshot`]). Cumulative since construction.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The router's buffer pool, for device drivers that acquire and
    /// recycle backing buffers directly (the I/O plane's egress drain
    /// hands transmitted buffers straight back here).
    pub fn pool_mut(&mut self) -> &mut rp_packet::pool::MbufPool {
        &mut self.pool
    }

    /// Account `n` frames the receive side of a device dropped before
    /// they became IP packets (truncated or non-IP L2 frames). They count
    /// as received so the conservation invariant
    /// `received == forwarded + Σdrops` extends to the wire.
    pub fn note_device_rx_drops(&mut self, n: u64) {
        self.stats.received += n;
        self.stats.dropped_device_rx += n;
        self.metrics.drops[obs::drop_reason_index(DropReason::DeviceRx)] += n;
    }

    /// Re-account `n` already-forwarded packets whose egress device
    /// refused to transmit them: they leave `forwarded` and land in the
    /// device-tx drop counter, keeping `received == forwarded + Σdrops`
    /// exact from wire to wire.
    pub fn note_device_tx_drops(&mut self, n: u64) {
        self.stats.forwarded = self.stats.forwarded.saturating_sub(n);
        self.stats.dropped_device_tx += n;
        self.metrics.drops[obs::drop_reason_index(DropReason::DeviceTx)] += n;
    }

    /// Data-path statistics.
    pub fn stats(&self) -> DataPathStats {
        self.stats
    }

    /// Flow-cache statistics (hits/misses/recycling).
    pub fn flow_stats(&self) -> rp_classifier::flow_table::FlowTableStats {
        self.aiu.flow_stats()
    }

    /// Approximate flow-table heap footprint in bytes.
    pub fn flow_mem_bytes(&self) -> usize {
        self.aiu.flow_mem_bytes()
    }

    /// A point-in-time metrics snapshot, with the scheduler queue-depth
    /// gauges sampled now (the hot path never pays for gauge updates).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = self.metrics;
        for ifc in &self.interfaces {
            let depth: u64 = ifc
                .scheds
                .iter()
                .filter_map(|s| s.as_scheduler())
                .map(|s| s.backlog() as u64)
                .sum();
            m.queue_depth[obs::iface_slot(ifc.id)] = depth;
        }
        let p = self.pool.stats();
        m.mbuf_acquired = p.acquired;
        m.mbuf_recycled = p.recycled;
        m.mbuf_fresh = p.fresh;
        let f = self.aiu.flow_stats();
        m.flow_admission_denied = f.denied;
        m.flow_inline_expired = f.inline_expired;
        m.flow_evicted_lru = f.evicted_lru;
        m.flow_resize_steps = f.resize_steps;
        let c = self.routes.fib_cache_stats();
        m.fib_cache_hit = c.hits;
        m.fib_cache_miss = c.misses;
        m
    }

    /// Snapshot and reset the metrics registry (drain between bench runs).
    pub fn take_metrics(&mut self) -> MetricsSnapshot {
        let snap = self.metrics_snapshot();
        self.metrics = MetricsRegistry::default();
        snap
    }

    /// The event tracer (read side: enable state, dumps).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The event tracer (write side: enable/mask categories).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Classifier access statistics.
    pub fn filter_stats(&self) -> rp_classifier::LookupStats {
        self.aiu.filter_stats()
    }

    /// Number of interfaces.
    pub fn interface_count(&self) -> usize {
        self.interfaces.len()
    }

    /// Direct AIU access for tests and the testbench.
    pub fn aiu_mut(&mut self) -> &mut Aiu<InstanceRef> {
        &mut self.aiu
    }

    /// Supervision snapshot of every tracked instance (pmgr `health`).
    pub fn health_reports(&self) -> Vec<HealthReport> {
        self.supervisor.reports()
    }

    /// Human-readable dump of a gate's installed filters (pmgr `show`).
    pub fn describe_filters(&self, gate: Gate) -> Vec<String> {
        let table = self.aiu.filter_table(gate.index());
        table
            .filter_ids()
            .into_iter()
            .filter_map(|id| {
                table
                    .get(id)
                    .map(|(spec, inst)| format!("filter {} {} → {}", id.0, spec, inst.describe()))
            })
            .collect()
    }

    /// Human-readable dump of every loaded plugin's instances.
    pub fn describe_instances(&self) -> Vec<String> {
        let mut out = Vec::new();
        for name in self.pcu.plugin_names() {
            if let Ok(ids) = self.pcu.instances(&name) {
                for id in ids {
                    if let Ok(inst) = self.pcu.instance(&name, id) {
                        out.push(format!("{name} {}: {}", id.0, inst.describe()));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::register_builtin_factories;
    use rp_packet::builder::PacketSpec;
    use std::net::Ipv6Addr;

    fn v6(n: u16) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, n))
    }

    fn base_router() -> Router {
        let mut r = Router::new(RouterConfig {
            verify_checksums: false,
            ..RouterConfig::default()
        });
        register_builtin_factories(&mut r.loader);
        r
    }

    fn udp(n: u16) -> Mbuf {
        Mbuf::new(PacketSpec::udp(v6(n), v6(900), 5, 6, 32).build(), 0)
    }

    #[test]
    fn route_add_remove() {
        let mut r = base_router();
        assert!(matches!(
            r.receive(udp(1)),
            crate::ip_core::Disposition::Dropped(_)
        ));
        r.add_route(v6(0), 32, 1);
        assert_eq!(r.receive(udp(1)), crate::ip_core::Disposition::Forwarded(1));
        assert!(r.remove_route(v6(0), 32));
        assert!(!r.remove_route(v6(0), 32));
        assert!(matches!(
            r.receive(udp(2)),
            crate::ip_core::Disposition::Dropped(_)
        ));
    }

    #[test]
    fn route_to_missing_interface_drops() {
        let mut r = base_router();
        r.add_route(v6(0), 32, 99); // only 4 interfaces exist
        assert!(matches!(
            r.receive(udp(1)),
            crate::ip_core::Disposition::Dropped(_)
        ));
        assert_eq!(r.stats().dropped_no_route, 1);
    }

    #[test]
    fn default_scheduler_requires_scheduler_instance() {
        let mut r = base_router();
        crate::pmgr::run_script(&mut r, "load null\ncreate null").unwrap();
        let err = r
            .set_default_scheduler(1, "null", InstanceId(0))
            .unwrap_err();
        assert!(matches!(err, PluginError::BadConfig(_)));
        crate::pmgr::run_script(&mut r, "load fifo\ncreate fifo").unwrap();
        r.set_default_scheduler(1, "fifo", InstanceId(0)).unwrap();
    }

    #[test]
    fn pump_without_schedulers_is_zero() {
        let mut r = base_router();
        assert_eq!(r.pump(0, 16), 0);
        assert_eq!(r.interface_count(), 4);
    }

    #[test]
    fn register_unknown_instance_fails() {
        let mut r = base_router();
        crate::pmgr::run_script(&mut r, "load null").unwrap();
        let err = r
            .send_message(
                "null",
                crate::message::PluginMsg::RegisterInstance {
                    id: InstanceId(9),
                    gate: Gate::Stats,
                    filter: rp_classifier::FilterSpec::any(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PluginError::NoSuchInstance(_)));
    }

    #[test]
    fn deregister_unknown_filter_fails() {
        let mut r = base_router();
        crate::pmgr::run_script(&mut r, "load null\ncreate null").unwrap();
        let err = r
            .send_message(
                "null",
                crate::message::PluginMsg::DeregisterInstance {
                    gate: Gate::Stats,
                    filter: rp_classifier::FilterId(42),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PluginError::Filter(_)));
    }
}
