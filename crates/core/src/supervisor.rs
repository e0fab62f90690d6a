//! Plugin supervision: the plugin-instance tier of the shared
//! [`crate::health`] machine.
//!
//! The paper's architecture runs plugins *inside* the kernel: "plugins are
//! code modules that run in the kernel" (§1), so a misbehaving plugin can
//! take the whole router down. This module adds the containment layer a
//! production deployment of that architecture needs — without changing the
//! plugin programming model. Each instance gets one
//! [`HealthMachine`]; this tier supplies only its symptoms and its
//! recovery action:
//!
//! * **Symptoms → faults.** Every gate-side plugin invocation is wrapped
//!   in [`std::panic::catch_unwind`] (see [`run_isolated`]); a panic, or
//!   a call charging more than [`FaultPolicy::packet_budget_ns`] of
//!   simulated time, is one fault. Nothing reports clean calls, so a
//!   degraded instance stays degraded until it is restarted.
//! * **Quarantine.** The router removes the instance's filter bindings
//!   and invalidates its cached flows, so affected flows fall back to the
//!   gate's default path — dropped packets are *counted*, never silently
//!   blackholed.
//! * **Recovery.** A due restart rebuilds the instance from its plugin's
//!   factory with the create-time config, on the simulated clock, and
//!   re-installs its filter bindings for the fresh instance, which starts
//!   Healthy.
//!
//! The supervisor itself is pure bookkeeping; [`crate::router::Router`]
//! orchestrates the AIU/PCU side effects (filter removal, flow
//! invalidation, restart) because only it holds those components.

use crate::gate::Gate;
pub use crate::health::HealthState;
use crate::health::{HealthConfig, HealthMachine};
use crate::plugin::{InstanceId, InstanceRef};
use rp_classifier::FilterSpec;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::sync::Once;

/// Fault-handling policy for supervised instances (and, through
/// [`crate::dataplane::ParallelRouterConfig::router`], for shard
/// workers).
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Consecutive faults after which an instance is Quarantined (the
    /// first fault makes it Degraded).
    pub quarantine_after: u32,
    /// Per-call packet budget in netsim clock units (ns); a call charging
    /// more cost than this counts as a fault. `0` disables the budget.
    pub packet_budget_ns: u64,
    /// Initial restart backoff (simulated ns).
    pub restart_backoff_ns: u64,
    /// Backoff cap: doubling stops here.
    pub restart_backoff_cap_ns: u64,
    /// Restart attempts (ok or failed) allowed per instance; `0`
    /// disables automatic restarts.
    pub max_restarts: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            quarantine_after: 3,
            packet_budget_ns: 0,
            restart_backoff_ns: 1_000_000,      // 1 ms simulated
            restart_backoff_cap_ns: 64_000_000, // 64 ms simulated
            max_restarts: 4,
        }
    }
}

impl FaultPolicy {
    /// The health machine of one plugin instance: a restarted instance
    /// is Healthy at once (no probation).
    pub fn health(&self) -> HealthConfig {
        HealthConfig {
            quarantine_after: self.quarantine_after,
            recover_after: 0,
            backoff_ns: self.restart_backoff_ns,
            backoff_cap_ns: self.restart_backoff_cap_ns,
            max_restarts: self.max_restarts,
        }
    }
}

/// Snapshot of one supervised instance (pmgr `health`).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Which shard the report came from (`None` on an unsharded router).
    pub shard: Option<usize>,
    /// Owning plugin name.
    pub plugin: String,
    /// Current instance id (changes across restarts).
    pub id: InstanceId,
    /// Current health.
    pub health: HealthState,
    /// Faults since the last (re)start.
    pub faults: u32,
    /// Faults across the instance's whole supervised life.
    pub total_faults: u64,
    /// Restart attempts, ok or failed.
    pub restarts: u32,
    /// Simulated time of the next restart attempt, if one is scheduled.
    pub restart_at_ns: Option<u64>,
    /// Description of the most recent fault.
    pub last_fault: Option<String>,
}

/// A quarantined instance due for a restart attempt.
#[derive(Debug, Clone)]
pub(crate) struct RestartTicket {
    pub plugin: String,
    pub id: InstanceId,
    pub config: String,
    /// Filter bindings to re-install for the fresh instance.
    pub bindings: Vec<(Gate, FilterSpec)>,
}

struct Record {
    /// Origin for restarts: set when the instance was created through the
    /// router's control path. Instances created behind the router's back
    /// (directly on the PCU) are supervised but not restartable.
    origin: Option<(String, InstanceId, String)>,
    inst: InstanceRef,
    health: HealthMachine,
    bindings: Vec<Binding>,
    last_fault: Option<String>,
}

/// A filter binding of a supervised instance, re-installed on restart.
pub(crate) type Binding = (Gate, FilterSpec, rp_classifier::FilterId);

/// The supervisor: per-instance health records plus the restart queue.
pub struct Supervisor {
    policy: FaultPolicy,
    records: Vec<Record>,
    /// Earliest scheduled restart (cheap due-check on the hot path).
    next_due_ns: Option<u64>,
    /// Some record is quarantined: lets the per-gate check skip the scan
    /// while every instance is in service.
    any_quarantined: bool,
}

impl Supervisor {
    /// Build with a policy.
    pub fn new(policy: FaultPolicy) -> Self {
        Supervisor {
            policy,
            records: Vec::new(),
            next_due_ns: None,
            any_quarantined: false,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &FaultPolicy {
        &self.policy
    }

    fn index_of(&self, inst: &InstanceRef) -> Option<usize> {
        self.records.iter().position(|r| Arc::ptr_eq(&r.inst, inst))
    }

    fn ensure_record(&mut self, inst: &InstanceRef) -> usize {
        if let Some(i) = self.index_of(inst) {
            return i;
        }
        self.records.push(Record {
            origin: None,
            inst: inst.clone(),
            health: HealthMachine::new(HealthConfig {
                max_restarts: 0,
                ..self.policy.health()
            }),
            bindings: Vec::new(),
            last_fault: None,
        });
        self.records.len() - 1
    }

    /// Recompute the cached due time and quarantine flag after a health
    /// transition.
    fn refresh(&mut self) {
        self.next_due_ns = self
            .records
            .iter()
            .filter_map(|r| r.health.restart_at_ns())
            .min();
        self.any_quarantined = self.records.iter().any(|r| r.health.quarantined());
    }

    /// Register a router-created instance (restartable).
    pub fn track(&mut self, plugin: &str, id: InstanceId, config: &str, inst: &InstanceRef) {
        let i = self.ensure_record(inst);
        let r = &mut self.records[i];
        r.origin = Some((plugin.to_string(), id, config.to_string()));
        r.health = HealthMachine::new(self.policy.health());
    }

    /// Drop an instance's record (freed through the control path).
    pub fn untrack(&mut self, inst: &InstanceRef) {
        self.records.retain(|r| !Arc::ptr_eq(&r.inst, inst));
        self.refresh();
    }

    /// Note a filter binding installed for `inst` (kept for re-install on
    /// restart).
    pub fn note_binding(
        &mut self,
        inst: &InstanceRef,
        gate: Gate,
        spec: FilterSpec,
        fid: rp_classifier::FilterId,
    ) {
        let i = self.ensure_record(inst);
        self.records[i].bindings.push((gate, spec, fid));
    }

    /// Note an explicit unbind (the binding is no longer re-installed on
    /// restart).
    pub fn note_unbinding(&mut self, inst: &InstanceRef, gate: Gate, fid: rp_classifier::FilterId) {
        if let Some(i) = self.index_of(inst) {
            self.records[i]
                .bindings
                .retain(|(g, _, f)| !(*g == gate && *f == fid));
        }
    }

    /// Count one fault (`why` describes it: a panic or a budget overrun)
    /// against an instance at simulated time `now_ns`. Returns `true` on
    /// the quarantine edge — the caller must pull the instance off the
    /// data path; its restart is already scheduled when policy and origin
    /// allow one.
    pub fn record_fault(&mut self, inst: &InstanceRef, why: String, now_ns: u64) -> bool {
        let i = self.ensure_record(inst);
        let r = &mut self.records[i];
        r.last_fault = Some(why);
        let quarantined = r.health.fault(now_ns);
        if quarantined {
            self.refresh();
        }
        quarantined
    }

    /// Is this instance currently quarantined? (The data path checks this
    /// to keep a quarantined instance off the packet flow even if a stale
    /// binding survives somewhere.)
    pub fn is_quarantined(&self, inst: &InstanceRef) -> bool {
        self.any_quarantined
            && self
                .index_of(inst)
                .is_some_and(|i| self.records[i].health.quarantined())
    }

    /// Cheap hot-path check: any restart due at `now_ns`?
    pub fn restart_due(&self, now_ns: u64) -> bool {
        self.next_due_ns.is_some_and(|t| t <= now_ns)
    }

    /// Every due restart as a ticket; the router attempts each and
    /// reports back through [`restarted`](Self::restarted).
    pub(crate) fn take_due(&self, now_ns: u64) -> Vec<RestartTicket> {
        self.records
            .iter()
            .filter(|r| r.health.recovery_due(now_ns))
            .filter_map(|r| {
                let (plugin, id, config) = r.origin.clone()?;
                Some(RestartTicket {
                    plugin,
                    id,
                    config,
                    bindings: r.bindings.iter().map(|(g, s, _)| (*g, s.clone())).collect(),
                })
            })
            .collect()
    }

    /// Record a restart attempt's outcome: `Some` swaps in the fresh
    /// instance (new id, new filter ids); `None` means it failed (factory
    /// refused, plugin gone) and the machine re-arms or gives up.
    pub(crate) fn restarted(
        &mut self,
        plugin: &str,
        id: InstanceId,
        fresh: Option<(InstanceId, InstanceRef, Vec<Binding>)>,
        now_ns: u64,
    ) {
        let ticketed = |r: &&mut Record| {
            r.origin
                .as_ref()
                .is_some_and(|o| o.0 == plugin && o.1 == id)
        };
        if let Some(r) = self.records.iter_mut().find(ticketed) {
            r.health.recovered(fresh.is_some(), now_ns);
            if let Some((new_id, inst, bindings)) = fresh {
                if let Some(origin) = r.origin.as_mut() {
                    origin.1 = new_id;
                }
                (r.inst, r.bindings) = (inst, bindings);
            }
        }
        self.refresh();
    }

    /// Snapshot every supervised instance (pmgr `health`).
    pub fn reports(&self) -> Vec<HealthReport> {
        let mut out: Vec<HealthReport> = self
            .records
            .iter()
            .map(|r| {
                let (plugin, id) = match &r.origin {
                    Some((p, i, _)) => (p.clone(), *i),
                    None => ("(untracked)".to_string(), InstanceId(u32::MAX)),
                };
                HealthReport {
                    shard: None,
                    plugin,
                    id,
                    health: r.health.state(),
                    faults: r.health.faults(),
                    total_faults: r.health.total_faults(),
                    restarts: r.health.restarts(),
                    restart_at_ns: r.health.restart_at_ns(),
                    last_fault: r.last_fault.clone(),
                }
            })
            .collect();
        out.sort_by(|a, b| (&a.plugin, a.id).cmp(&(&b.plugin, b.id)));
        out
    }
}

thread_local! {
    /// True while a supervised plugin call is in flight on this thread:
    /// the panic hook stays quiet so injected faults don't spam stderr.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Run a plugin entry point with panic isolation. Returns the closure's
/// value, or the panic message.
///
/// The closure is `AssertUnwindSafe`: the router owns every structure a
/// plugin call can touch (the mbuf, the flow record's soft-state slot,
/// the instance's interior state) and on a caught panic either discards
/// the packet or quarantines the instance — torn intermediate state never
/// re-enters the data path.
pub(crate) fn run_isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    // Save-and-restore, not set-and-clear: these calls nest (every plugin
    // gate call inside a supervised shard loop is itself isolated), and a
    // plain `set(false)` on inner exit would strip the outer frame's
    // suppression — an injected shard kill would then symbolize a full
    // backtrace, parking the dying thread on the CPU for seconds before
    // the dispatcher can detect the death and settle its accounting.
    let prev = SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(prev));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{PacketCtx, PluginAction, PluginInstance};
    use rp_packet::Mbuf;

    struct Null;
    impl PluginInstance for Null {
        fn handle_packet(&self, _m: &mut Mbuf, _c: &mut PacketCtx<'_>) -> PluginAction {
            PluginAction::Continue
        }
    }

    fn inst() -> InstanceRef {
        Arc::new(Null)
    }

    fn policy() -> FaultPolicy {
        FaultPolicy {
            quarantine_after: 3,
            restart_backoff_ns: 1000,
            restart_backoff_cap_ns: 4000,
            max_restarts: 2,
            ..FaultPolicy::default()
        }
    }

    fn quarantine(sup: &mut Supervisor, i: &InstanceRef, now_ns: u64) {
        for _ in 0..3 {
            sup.record_fault(i, "panic: x".to_string(), now_ns);
        }
        assert!(sup.is_quarantined(i));
    }

    #[test]
    fn run_isolated_catches_panics() {
        assert_eq!(run_isolated(|| 7), Ok(7));
        let err = run_isolated(|| -> u32 { panic!("boom {}", 3) }).unwrap_err();
        assert!(err.contains("boom 3"), "{err}");
        let err = run_isolated(|| -> u32 { panic!("static") }).unwrap_err();
        assert_eq!(err, "static");
    }

    #[test]
    fn untracked_instances_not_restartable() {
        let mut sup = Supervisor::new(policy());
        let i = inst();
        quarantine(&mut sup, &i, 0);
        assert!(!sup.restart_due(u64::MAX));
        let reports = sup.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].plugin, "(untracked)");
    }

    #[test]
    fn restart_ticket_lifecycle() {
        let mut sup = Supervisor::new(policy());
        let i = inst();
        sup.track("p", InstanceId(0), "k=v", &i);
        quarantine(&mut sup, &i, 100);
        assert!(!sup.restart_due(500));
        assert!(sup.restart_due(1100));
        let due = sup.take_due(1100);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].plugin, "p");
        assert_eq!(due[0].config, "k=v");
        let fresh = (InstanceId(1), inst(), Vec::new());
        sup.restarted("p", InstanceId(0), Some(fresh), 1100);
        assert!(!sup.restart_due(u64::MAX));
        let r = &sup.reports()[0];
        assert_eq!(r.health, HealthState::Healthy);
        assert_eq!(r.id, InstanceId(1));
        assert_eq!(r.restarts, 1);
        assert_eq!(r.faults, 0);
        assert_eq!(r.total_faults, 3);
    }

    #[test]
    fn bindings_follow_unbind() {
        let mut sup = Supervisor::new(policy());
        let i = inst();
        sup.track("p", InstanceId(0), "", &i);
        let fid = rp_classifier::FilterId(9);
        sup.note_binding(&i, Gate::Firewall, FilterSpec::any(), fid);
        sup.note_binding(
            &i,
            Gate::Stats,
            FilterSpec::any(),
            rp_classifier::FilterId(10),
        );
        sup.note_unbinding(&i, Gate::Firewall, fid);
        quarantine(&mut sup, &i, 0);
        let due = sup.take_due(u64::MAX);
        assert_eq!(due[0].bindings.len(), 1);
        assert_eq!(due[0].bindings[0].0, Gate::Stats);
    }
}
