//! Coarse monotonic wall clock for ingress timestamping.
//!
//! The I/O plane stamps every received [`crate::Mbuf`] with
//! [`coarse_now_ns`] so the data path can measure end-to-end sojourn
//! (ingress → egress/drop) and shed packets that have already blown a
//! latency deadline. The clock is process-global, monotonic and
//! comparable across threads; `0` is reserved to mean "unstamped".
//!
//! Readings start at a fixed origin ([`ORIGIN_NS`], about 18 minutes)
//! rather than at zero, so a stamp computed as "now minus some age"
//! stays non-zero even in a process younger than that age — it never
//! collides with the unstamped sentinel.

use std::sync::OnceLock;
use std::time::Instant;

/// The first reading of the clock in a process (2^40 ns ≈ 18.3 min).
pub const ORIGIN_NS: u64 = 1 << 40;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process, plus
/// [`ORIGIN_NS`]. Never near `0` (an unstamped mbuf carries
/// `timestamp_ns == 0`), monotonic, and cheap enough to read once per
/// received batch.
#[inline]
pub fn coarse_now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    ORIGIN_NS + Instant::now().duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonzero_and_monotonic() {
        let a = coarse_now_ns();
        let b = coarse_now_ns();
        assert!(a >= ORIGIN_NS);
        assert!(b >= a);
    }

    #[test]
    fn stamp_older_than_the_process_is_still_stamped() {
        // A packet stamped one second before the first reading of a
        // young process must not saturate to the unstamped sentinel.
        let first = coarse_now_ns();
        assert_ne!(first.saturating_sub(1_000_000_000), 0);
    }
}
