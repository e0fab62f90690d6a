//! The one health machine every supervision tier runs.
//!
//! Three tiers supervise three kinds of unit — plugin instances
//! ([`crate::supervisor`]), shard workers ([`crate::dataplane`]) and
//! network devices (`rp_netdev::supervisor`) — and all three share this
//! machine. A tier turns its own symptoms into the machine's three
//! inputs and performs its own recovery action when one is due; the
//! machine owns every transition, the backoff ramp and the restart
//! budget:
//!
//! * **fault** — one more consecutive fault. The `quarantine_after`-th
//!   in a row makes the unit [`HealthState::Quarantined`] and schedules
//!   a recovery attempt; any earlier one makes it
//!   [`HealthState::Degraded`].
//! * **clean observation** — resets the fault streak; `recover_after`
//!   clean observations in a row return a degraded unit to
//!   [`HealthState::Healthy`]. Ignored while quarantined.
//! * **recovery attempt (ok / failed)** — the tier's answer to a due
//!   recovery. Success is the only way out of quarantine: the unit lands
//!   Healthy when `recover_after == 0`, otherwise on Degraded probation.
//!   Failure re-arms the timer. Every attempt, ok or failed, spends one
//!   unit of the `max_restarts` budget; with the budget spent the unit
//!   stays quarantined (`max_restarts == 0` disables recovery).
//!
//! Delays follow one capped-doubling ramp: the first recovery waits
//! `backoff_ns`, each later one twice the previous, up to
//! `backoff_cap_ns`. Only a clean observation of a Healthy unit (the one
//! that ends probation included) resets the ramp; a unit that keeps
//! coming back broken keeps waiting longer.
//!
//! Time is a plain `now_ns: u64` supplied by the caller, so the machine
//! runs unchanged on the simulated clock (plugins) and on the coarse
//! wall clock (shards, devices).

use std::fmt;

/// Health of a supervised unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// No recent faults; in service.
    Healthy,
    /// Faulted recently (or on probation after a recovery); still in
    /// service, flagged for operators.
    Degraded,
    /// Out of service, awaiting a recovery attempt or operator action.
    Quarantined,
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
        })
    }
}

/// Thresholds, backoff ramp and budget of one [`HealthMachine`]. Each
/// tier derives it from its own configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive faults that quarantine the unit (`0` acts as 1).
    pub quarantine_after: u32,
    /// Consecutive clean observations that return a degraded unit to
    /// Healthy; `0` also skips probation after a recovery.
    pub recover_after: u32,
    /// First recovery delay (ns, at least 1).
    pub backoff_ns: u64,
    /// Delay cap: doubling stops here.
    pub backoff_cap_ns: u64,
    /// Recovery attempts allowed over the unit's life.
    pub max_restarts: u32,
}

/// The health machine (see module docs).
#[derive(Debug, Clone)]
pub struct HealthMachine {
    cfg: HealthConfig,
    state: HealthState,
    faults: u32,
    total_faults: u64,
    clean: u32,
    restarts: u32,
    quarantines: u64,
    backoff_ns: u64,
    restart_at_ns: Option<u64>,
}

impl HealthMachine {
    /// A Healthy machine.
    pub fn new(mut cfg: HealthConfig) -> HealthMachine {
        cfg.backoff_cap_ns = cfg.backoff_cap_ns.max(1);
        cfg.backoff_ns = cfg.backoff_ns.clamp(1, cfg.backoff_cap_ns);
        HealthMachine {
            backoff_ns: cfg.backoff_ns,
            cfg,
            state: HealthState::Healthy,
            faults: 0,
            total_faults: 0,
            clean: 0,
            restarts: 0,
            quarantines: 0,
            restart_at_ns: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Whether the unit is out of service.
    pub fn quarantined(&self) -> bool {
        self.state == HealthState::Quarantined
    }

    /// Consecutive faults (reset by a clean observation or a recovery).
    pub fn faults(&self) -> u32 {
        self.faults
    }

    /// Faults over the unit's whole life.
    pub fn total_faults(&self) -> u64 {
        self.total_faults
    }

    /// Recovery attempts so far, ok or failed.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Times the unit entered quarantine.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// When the pending recovery attempt is due, if one is scheduled.
    pub fn restart_at_ns(&self) -> Option<u64> {
        self.restart_at_ns
    }

    /// Whether a recovery attempt is due at `now_ns`.
    pub fn recovery_due(&self, now_ns: u64) -> bool {
        self.restart_at_ns.is_some_and(|t| t <= now_ns)
    }

    /// Count one fault. Returns `true` on the quarantine edge (the tier
    /// must take the unit out of service).
    pub fn fault(&mut self, now_ns: u64) -> bool {
        self.faults = self.faults.saturating_add(1);
        self.total_faults += 1;
        self.clean = 0;
        if self.quarantined() {
            return false;
        }
        if self.faults < self.cfg.quarantine_after {
            self.state = HealthState::Degraded;
            return false;
        }
        self.state = HealthState::Quarantined;
        self.quarantines += 1;
        self.schedule(now_ns);
        true
    }

    /// Count one clean observation. Returns `true` when it returned the
    /// unit to Healthy. A Healthy unit's ramp restarts at `backoff_ns`.
    pub fn clean(&mut self) -> bool {
        if self.quarantined() {
            return false;
        }
        self.faults = 0;
        let before = self.state;
        if before == HealthState::Degraded {
            self.clean += 1;
            if self.clean >= self.cfg.recover_after {
                self.state = HealthState::Healthy;
                self.clean = 0;
            }
        }
        if self.state == HealthState::Healthy {
            self.backoff_ns = self.cfg.backoff_ns;
        }
        self.state != before
    }

    /// Record the outcome of a recovery attempt on a quarantined unit
    /// (no-op otherwise). Success ends the quarantine; failure re-arms
    /// the timer while the budget lasts.
    pub fn recovered(&mut self, ok: bool, now_ns: u64) {
        if !self.quarantined() {
            return;
        }
        self.restart_at_ns = None;
        self.restarts = self.restarts.saturating_add(1);
        if ok {
            self.faults = 0;
            self.clean = 0;
            self.state = if self.cfg.recover_after == 0 {
                HealthState::Healthy
            } else {
                HealthState::Degraded
            };
        } else {
            self.schedule(now_ns);
        }
    }

    /// Arm the next recovery on the ramp, if the budget allows one.
    fn schedule(&mut self, now_ns: u64) {
        if self.restarts >= self.cfg.max_restarts {
            return;
        }
        self.restart_at_ns = Some(now_ns.saturating_add(self.backoff_ns));
        self.backoff_ns = self
            .backoff_ns
            .saturating_mul(2)
            .min(self.cfg.backoff_cap_ns);
    }
}
