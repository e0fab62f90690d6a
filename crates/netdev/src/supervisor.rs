//! Device supervision: the [`NetDev`](crate::NetDev) tier of the shared
//! [`router_core::health`] machine (plugin instances and shard workers
//! are the other two tiers).
//!
//! Each bound device gets a [`DeviceMonitor`] fed one [`PollSample`] per
//! I/O-plane duty cycle, built from the device's own
//! [`DeviceStats`](router_core::dataplane::control::DeviceStats) deltas.
//! A cycle is a fault when either symptom is present, a clean
//! observation otherwise:
//!
//! * **error pressure** — hard rx/tx I/O errors accumulate in a decayed
//!   window (halved every [`DeviceSupervisorConfig::error_window_polls`]
//!   cycles, the same integer decay the flow steerer uses) that has
//!   reached [`DeviceSupervisorConfig::error_threshold`].
//! * **rx stall** — [`DeviceSupervisorConfig::rx_stall_polls`]
//!   consecutive polls in which this device read nothing *while its
//!   peers read frames*: traffic is flowing through the plane, this
//!   device alone is silent. A quiet wire never counts as a stall.
//!
//! While a device is quarantined the I/O plane stops polling its receive
//! side and sheds its egress as counted device-tx drops (conservation
//! stays exact — nothing silently vanishes with the device). The
//! recovery action is [`crate::NetDev::reopen`]; a successful reopen
//! clears the symptom windows and puts the device on degraded
//! probation. Devices have no restart budget: reopens continue for as
//! long as the device stays broken.
//!
//! The monitor is pure bookkeeping: the I/O plane owns the sampling and
//! the reopen call, so the tier is testable without sockets. Its clock
//! is [`rp_packet::coarse_now_ns`].

use router_core::health::{HealthConfig, HealthMachine};
use std::time::Duration;

/// Symptom thresholds and timing of device supervision.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSupervisorConfig {
    /// Decayed hard-error count (rx + tx I/O errors) at which the device
    /// degrades.
    pub error_threshold: u64,
    /// The error window halves every this many polls, so "error rate"
    /// tracks the recent past, not all of history.
    pub error_window_polls: u32,
    /// Consecutive polls with zero rx progress while peer devices made
    /// progress before the device degrades.
    pub rx_stall_polls: u32,
    /// Consecutive troubled polls before quarantine.
    pub quarantine_after: u32,
    /// Consecutive clean polls before a degraded device recovers.
    pub recover_after: u32,
    /// First reopen backoff after quarantine.
    pub backoff_initial: Duration,
    /// Backoff cap (doubles per reopen attempt up to this).
    pub backoff_max: Duration,
}

impl Default for DeviceSupervisorConfig {
    fn default() -> Self {
        DeviceSupervisorConfig {
            error_threshold: 8,
            error_window_polls: 64,
            rx_stall_polls: 64,
            quarantine_after: 16,
            recover_after: 8,
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_secs(1),
        }
    }
}

/// One duty cycle's observation of a device, as counter deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct PollSample {
    /// Frames this device read this cycle (delivered + decap-dropped).
    pub rx_frames: u64,
    /// Frames every *other* bound device read this cycle (the liveness
    /// witness for the stall check).
    pub peer_rx_frames: u64,
    /// Hard I/O errors this cycle (rx read failures + tx write
    /// failures). Backpressure sheds (`tx_dropped`) are *not* errors —
    /// a saturated peer is not a broken device.
    pub io_errors: u64,
}

/// A device's symptom windows plus its health machine (see module docs).
#[derive(Debug)]
pub struct DeviceMonitor {
    cfg: DeviceSupervisorConfig,
    machine: HealthMachine,
    err_window: u64,
    polls_in_window: u32,
    stall_polls: u32,
}

impl DeviceMonitor {
    /// A fresh monitor, Healthy.
    pub fn new(cfg: DeviceSupervisorConfig) -> DeviceMonitor {
        DeviceMonitor {
            machine: HealthMachine::new(HealthConfig {
                quarantine_after: cfg.quarantine_after,
                recover_after: cfg.recover_after,
                backoff_ns: cfg.backoff_initial.as_nanos() as u64,
                backoff_cap_ns: cfg.backoff_max.as_nanos() as u64,
                max_restarts: u32::MAX, // devices have no restart budget
            }),
            cfg,
            err_window: 0,
            polls_in_window: 0,
            stall_polls: 0,
        }
    }

    /// The device's health machine.
    pub fn machine(&self) -> &HealthMachine {
        &self.machine
    }

    /// Successful quarantine→reopen cycles: only a successful reopen
    /// ends a quarantine.
    pub fn reopens(&self) -> u64 {
        self.machine.quarantines() - u64::from(self.machine.quarantined())
    }

    /// Step with one duty cycle's sample at `now_ns`. No-op while
    /// quarantined (the device is not being polled; there is nothing to
    /// observe).
    pub fn note_poll(&mut self, s: &PollSample, now_ns: u64) {
        if self.machine.quarantined() {
            return;
        }
        self.err_window += s.io_errors;
        self.polls_in_window += 1;
        if self.polls_in_window >= self.cfg.error_window_polls {
            self.err_window /= 2;
            self.polls_in_window = 0;
        }
        if s.rx_frames == 0 && s.peer_rx_frames > 0 {
            self.stall_polls += 1;
        } else {
            self.stall_polls = 0;
        }
        let troubled = self.err_window >= self.cfg.error_threshold
            || self.stall_polls >= self.cfg.rx_stall_polls;
        if troubled {
            self.machine.fault(now_ns);
        } else if self.machine.clean() {
            self.clear_windows();
        }
    }

    /// Record the outcome of a reopen attempt. Success clears the
    /// symptom windows for the probation period.
    pub fn note_reopen(&mut self, ok: bool, now_ns: u64) {
        self.machine.recovered(ok, now_ns);
        if ok {
            self.clear_windows();
            self.stall_polls = 0;
        }
    }

    fn clear_windows(&mut self) {
        self.err_window = 0;
        self.polls_in_window = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use router_core::health::HealthState;

    fn cfg() -> DeviceSupervisorConfig {
        DeviceSupervisorConfig {
            error_threshold: 4,
            error_window_polls: 8,
            rx_stall_polls: 3,
            quarantine_after: 3,
            recover_after: 2,
            backoff_initial: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
        }
    }

    fn errs(n: u64) -> PollSample {
        PollSample {
            io_errors: n,
            ..PollSample::default()
        }
    }

    #[test]
    fn error_burst_degrades_then_quarantines() {
        let mut m = DeviceMonitor::new(cfg());
        m.note_poll(&errs(4), 0);
        assert_eq!(m.machine().state(), HealthState::Degraded);
        m.note_poll(&errs(1), 0);
        m.note_poll(&errs(1), 0);
        assert_eq!(m.machine().state(), HealthState::Quarantined);
        assert_eq!(m.machine().quarantines(), 1);
        // Backoff (1 ms, in ns): not due before it elapses, due after.
        assert!(!m.machine().recovery_due(999_999));
        assert!(m.machine().recovery_due(1_000_000));
    }

    #[test]
    fn errors_decay_and_device_recovers() {
        // Fast decay (halve every poll) and a slow quarantine trigger:
        // a one-off error burst must degrade, decay, and recover without
        // ever reaching quarantine.
        let mut m = DeviceMonitor::new(DeviceSupervisorConfig {
            error_window_polls: 1,
            quarantine_after: 8,
            ..cfg()
        });
        m.note_poll(&errs(8), 0);
        assert_eq!(m.machine().state(), HealthState::Degraded);
        for _ in 0..10 {
            m.note_poll(&errs(0), 0);
            if m.machine().state() == HealthState::Healthy {
                break;
            }
        }
        assert_eq!(m.machine().state(), HealthState::Healthy);
        assert_eq!(
            m.machine().quarantines(),
            0,
            "recovery must not pass quarantine"
        );
    }

    #[test]
    fn rx_stall_only_counts_while_peers_progress() {
        let mut m = DeviceMonitor::new(cfg());
        // A quiet wire: nobody reads anything — never a stall.
        for _ in 0..20 {
            m.note_poll(&PollSample::default(), 0);
        }
        assert_eq!(m.machine().state(), HealthState::Healthy);
        // Peers read, this device does not: stall streak → degraded.
        let stalled = PollSample {
            peer_rx_frames: 10,
            ..PollSample::default()
        };
        m.note_poll(&stalled, 0);
        m.note_poll(&stalled, 0);
        assert_eq!(m.machine().state(), HealthState::Healthy);
        m.note_poll(&stalled, 0);
        assert_eq!(m.machine().state(), HealthState::Degraded);
        // Progress resets the streak and recovers the device.
        let progressing = PollSample {
            rx_frames: 5,
            peer_rx_frames: 10,
            ..PollSample::default()
        };
        m.note_poll(&progressing, 0);
        m.note_poll(&progressing, 0);
        assert_eq!(m.machine().state(), HealthState::Healthy);
    }

    #[test]
    fn reopen_lands_on_probation_with_clear_windows() {
        let mut m = DeviceMonitor::new(cfg());
        for _ in 0..3 {
            m.note_poll(&errs(4), 0);
        }
        assert!(m.machine().quarantined());
        m.note_reopen(true, 0);
        assert_eq!(m.machine().state(), HealthState::Degraded);
        assert_eq!(m.reopens(), 1);
        // The error window was cleared: clean polls end probation.
        m.note_poll(&errs(0), 0);
        m.note_poll(&errs(0), 0);
        assert_eq!(m.machine().state(), HealthState::Healthy);
        // Probation is over: the next quarantine starts the ramp over.
        for _ in 0..3 {
            m.note_poll(&errs(4), 5_000_000);
        }
        assert!(!m.machine().recovery_due(5_999_999));
        assert!(m.machine().recovery_due(6_000_000));
    }
}
