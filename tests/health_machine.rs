//! The one health machine behind all three supervision tiers (plugin
//! instances, shard workers, network devices): random sequences of
//! fault, clean and recovery ok/failed events at non-decreasing times
//! must keep its invariants. A pinned case covers the shard tier's failed
//! respawn, which cannot be forced through the real thread spawner.

use proptest::prelude::*;
use router_plugins::core::health::{HealthConfig, HealthMachine, HealthState};

#[derive(Debug, Clone, Copy)]
enum Event {
    Fault,
    Clean,
    Recovery { ok: bool },
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::Fault),
        Just(Event::Clean),
        any::<bool>().prop_map(|ok| Event::Recovery { ok }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn health_machine_invariants(
        knobs in (1u32..5, 0u32..4, 1u64..1_000, 0u64..8_000, 0u32..6),
        events in prop::collection::vec((arb_event(), 0u64..3_000), 1..80),
    ) {
        let (quarantine_after, recover_after, backoff_ns, extra, max_restarts) = knobs;
        let cfg = HealthConfig {
            quarantine_after,
            recover_after,
            backoff_ns,
            backoff_cap_ns: backoff_ns + extra,
            max_restarts,
        };
        let mut m = HealthMachine::new(cfg);
        let (mut now, mut streak, mut attempts, mut last_delay) = (0u64, 0u32, 0u32, 0u64);
        let mut ramp_reset = true;
        for (event, dt) in events {
            now += dt;
            let before = m.state();
            let scheduled_before = m.restart_at_ns();
            match event {
                Event::Fault => {
                    let edge = m.fault(now);
                    streak += 1;
                    // Quarantine exactly at `quarantine_after` consecutive
                    // faults, Degraded before that, one edge only.
                    let expect = before != HealthState::Quarantined && streak == quarantine_after;
                    prop_assert_eq!(edge, expect);
                    if before != HealthState::Quarantined && !edge {
                        prop_assert_eq!(m.state(), HealthState::Degraded);
                    }
                }
                Event::Clean => {
                    m.clean();
                    if before != HealthState::Quarantined {
                        streak = 0;
                    }
                    // A clean observation of a Healthy unit (probation's
                    // last one included) restarts the ramp.
                    if m.state() == HealthState::Healthy {
                        (last_delay, ramp_reset) = (0, true);
                    }
                }
                // A tier attempts a recovery only when one is due.
                Event::Recovery { ok } if m.recovery_due(now) => {
                    m.recovered(ok, now);
                    attempts += 1;
                    if ok {
                        streak = 0;
                        let landing = if recover_after == 0 {
                            HealthState::Healthy
                        } else {
                            HealthState::Degraded
                        };
                        prop_assert_eq!(m.state(), landing);
                    }
                }
                Event::Recovery { .. } => {}
            }
            // The only way out of Quarantined is a successful recovery.
            if before == HealthState::Quarantined && !m.quarantined() {
                prop_assert!(matches!(event, Event::Recovery { ok: true }), "{:?}", event);
            }
            // A recovery is scheduled only while Quarantined; each new
            // delay stays within [initial, cap] and never shrinks except
            // after a ramp reset, which starts over at the initial delay.
            if let Some(at) = m.restart_at_ns() {
                prop_assert!(m.quarantined());
                if Some(at) != scheduled_before {
                    let delay = at - now;
                    prop_assert!(delay >= backoff_ns && delay <= cfg.backoff_cap_ns, "{}", delay);
                    prop_assert!(delay >= last_delay, "ramp shrank: {} < {}", delay, last_delay);
                    if ramp_reset {
                        prop_assert_eq!(delay, backoff_ns);
                    }
                    (last_delay, ramp_reset) = (delay, false);
                }
            }
            // Recovery attempts never exceed the budget.
            prop_assert_eq!(m.restarts(), attempts);
            prop_assert!(m.restarts() <= max_restarts);
            prop_assert_eq!(m.faults(), streak);
        }
    }
}

/// A shard whose respawn keeps failing spends its restart budget and
/// ramps its backoff, then stays quarantined with nothing scheduled.
#[test]
fn failed_respawns_spend_budget_and_ramp() {
    let mut m = HealthMachine::new(HealthConfig {
        quarantine_after: 1,
        recover_after: u32::MAX,
        backoff_ns: 1_000,
        backoff_cap_ns: 4_000,
        max_restarts: 3,
    });
    assert!(m.fault(0), "a dead worker quarantines at once");
    assert_eq!(m.restart_at_ns(), Some(1_000));
    m.recovered(false, 1_000);
    assert_eq!(m.restart_at_ns(), Some(3_000));
    m.recovered(false, 3_000);
    assert_eq!(m.restart_at_ns(), Some(7_000));
    m.recovered(false, 7_000);
    assert_eq!(m.restarts(), 3);
    assert_eq!(m.restart_at_ns(), None, "budget spent: no retry");
    assert!(m.quarantined());
}
