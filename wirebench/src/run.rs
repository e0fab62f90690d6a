//! The untraced run: a closed-loop saturation phase (gives `pps`) and an
//! open-loop phase at a fixed offered rate (gives latency), both driven
//! wire to wire through an [`IoPlane`] and checked by the oracle.

use crate::oracle::{conservation, Ledger, Oracle};
use crate::stats::{median, quantile_u32, Hist};
use crate::workload::{Rig, WriteKind, Writes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use router_core::dataplane::control::ControlPlane;
use rp_netdev::{IoRouter, NetDev};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Heap allocations made so far by this process (see `main.rs`).
pub fn allocations() -> u64 {
    crate::ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Delivered packets per latency window: p50 and p99 are taken per
/// window (the p99 then has ten samples beyond it) and the median over
/// windows is reported.
pub const LATENCY_WINDOW: usize = 1000;

/// A gap between two idle clock reads of the open loop longer than this
/// is the host descheduling the thread (an idle read takes well under a
/// microsecond).
pub const HOST_STALL_NS: u64 = 50_000;

/// Control-write timings, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct WriteTimes {
    /// `Router::add_route` / `remove_route` calls.
    pub route_us: Vec<f64>,
    /// `pmgr` bind / unbind scripts.
    pub filter_us: Vec<f64>,
}

/// State shared by every phase of the untraced run.
pub struct Driver<'a, P: IoRouter + ControlPlane> {
    /// The wired data plane.
    pub rig: &'a mut Rig<P>,
    /// The correctness oracle.
    pub oracle: &'a mut Oracle,
    /// Control writes, if the workload has them.
    pub writes: Option<&'a mut Writes>,
    /// Next sequence number to offer.
    pub seq: u64,
    /// Offered packets.
    pub offered: u64,
    /// Control-write timings.
    pub write_times: WriteTimes,
    /// Allocations made inside `IoPlane::poll`.
    pub poll_allocs: u64,
    /// Packets offered while allocations were being counted.
    pub alloc_pkts: u64,
    buf: Vec<u8>,
    arrived: Vec<u64>,
    /// When the last poll returned: its egress was then on the wire.
    polled_at: Instant,
    /// Open-loop arrival generator (seeded).
    arrivals: StdRng,
    /// The oracle's extra-fragment count when this plane started.
    extra0: u64,
    /// Notes on the conservation checks.
    pub notes: Vec<String>,
}

/// Result of the saturation phase.
#[derive(Debug, Default, Clone)]
pub struct Saturation {
    /// Forwarded packets per second of poll time, one per window.
    pub window_pps: Vec<f64>,
    /// Packets offered in the phase.
    pub packets: u64,
    /// Duty cycles run.
    pub cycles: u64,
    /// Wall time of the phase (s).
    pub wall_s: f64,
}

impl Saturation {
    /// Median over windows.
    pub fn pps(&self) -> f64 {
        median(&mut self.window_pps.clone())
    }

    /// Packets per second of wall time, generator and oracle included:
    /// the rate the harness can sustain (the open-loop rates are set
    /// near half of it).
    pub fn wall_pps(&self) -> f64 {
        self.packets as f64 / self.wall_s.max(1e-9)
    }

    /// Fold a later slice of the phase into this one.
    pub fn absorb(&mut self, o: Saturation) {
        self.window_pps.extend(o.window_pps);
        self.packets += o.packets;
        self.cycles += o.cycles;
        self.wall_s += o.wall_s;
    }
}

impl OpenLoop {
    /// Frames offered per poll (mean).
    pub fn batch_mean(&self) -> f64 {
        self.packets as f64 / self.polls.max(1) as f64
    }

    /// Fold a later slice of the phase into this one.
    pub fn absorb(&mut self, o: OpenLoop) {
        self.window_p50_us.extend(o.window_p50_us);
        self.window_p99_us.extend(o.window_p99_us);
        self.samples += o.samples;
        self.lag_ns.merge(&o.lag_ns);
        self.pooled_ns.merge(&o.pooled_ns);
        self.valid_ns.merge(&o.valid_ns);
        self.host_stalls += o.host_stalls;
        self.voided_windows += o.voided_windows;
        self.polls += o.polls;
        self.packets += o.packets;
        self.rate_pps = o.rate_pps;
    }
}

/// Result of the open-loop phase.
#[derive(Debug, Default, Clone)]
pub struct OpenLoop {
    /// p50 wire-to-wire latency per window (µs).
    pub window_p50_us: Vec<f64>,
    /// p99 per window (µs).
    pub window_p99_us: Vec<f64>,
    /// Latency samples over all windows.
    pub samples: u64,
    /// How late the generator offered each packet (ns).
    pub lag_ns: Hist,
    /// Every latency sample of the phase (ns), host stalls included.
    pub pooled_ns: Hist,
    /// Latency samples of the windows not voided (ns).
    pub valid_ns: Hist,
    /// Host stalls seen while idle.
    pub host_stalls: u64,
    /// Latency windows voided by those stalls.
    pub voided_windows: u64,
    /// Polls that offered frames.
    pub polls: u64,
    /// Packets offered in the phase.
    pub packets: u64,
    /// Offered rate.
    pub rate_pps: f64,
}

impl<'a, P: IoRouter + ControlPlane> Driver<'a, P> {
    /// A driver starting at sequence number 0; `seed` seeds the
    /// open-loop arrivals.
    pub fn new(
        rig: &'a mut Rig<P>,
        oracle: &'a mut Oracle,
        writes: Option<&'a mut Writes>,
        seed: u64,
    ) -> Self {
        let oracle_extra = oracle.tally.extra_frames;
        Driver {
            rig,
            oracle,
            writes,
            seq: 0,
            offered: 0,
            write_times: WriteTimes::default(),
            poll_allocs: 0,
            alloc_pkts: 0,
            buf: Vec::with_capacity(4096),
            arrived: Vec::new(),
            polled_at: Instant::now(),
            arrivals: StdRng::seed_from_u64(seed ^ 0xA7712),
            extra0: oracle_extra,
            notes: Vec::new(),
        }
    }

    /// An exponential inter-arrival gap with the given mean (ns).
    fn exp_gap(&mut self, mean_ns: f64) -> f64 {
        let u: f64 = self.arrivals.gen();
        -(1.0 - u).ln() * mean_ns
    }

    /// Frames that may go out before the next control write is due.
    fn room(&self, want: usize) -> usize {
        match &self.writes {
            Some(w) => want.min((w.next_at() - self.seq) as usize),
            None => want,
        }
    }

    /// One duty cycle: offer `n` frames, run one `IoPlane::poll`, read
    /// every egress wire and check what came out. `delivered` sees each
    /// intact packet's sequence number. Returns the poll's duration.
    fn cycle(&mut self, n: usize, count_allocs: bool, delivered: &mut dyn FnMut(u64)) -> Duration {
        let lo = self.seq;
        for s in lo..lo + n as u64 {
            self.oracle.traffic().frame(s, &mut self.buf);
            let ok = self.rig.ingress.inject(&self.buf);
            assert!(
                ok,
                "ingress wire full: the harness offered more than the wire holds"
            );
        }
        self.seq += n as u64;
        self.offered += n as u64;
        self.oracle.begin_cycle(lo, self.seq);
        let a0 = allocations();
        let t0 = Instant::now();
        self.rig.iop.poll();
        self.polled_at = Instant::now();
        let dt = self.polled_at - t0;
        if count_allocs {
            self.poll_allocs += allocations() - a0;
            self.alloc_pkts += n as u64;
        }
        read_egress(&mut self.rig.peers, self.oracle, delivered);
        self.oracle.end_cycle();
        dt
    }

    /// Apply a control write if one is due at the current sequence number.
    fn maybe_write(&mut self) -> Result<(), String> {
        let Some(w) = self.writes.as_deref_mut() else {
            return Ok(());
        };
        if self.seq < w.next_at() {
            return Ok(());
        }
        let (kind, dt) = w.apply(&mut self.rig.iop, self.oracle)?;
        let us = dt.as_secs_f64() * 1e6;
        match kind {
            WriteKind::Route => self.write_times.route_us.push(us),
            WriteKind::Filter => self.write_times.filter_us.push(us),
        }
        Ok(())
    }

    /// Closed loop for `dur`: offer `batch` frames, poll, check, repeat.
    /// `windows` equal slices of wall time each yield one pps reading
    /// (forwarded packets over time spent inside `poll`).
    pub fn saturate(
        &mut self,
        batch: usize,
        dur: Duration,
        windows: usize,
        count_allocs: bool,
    ) -> Result<Saturation, String> {
        let mut out = Saturation::default();
        let start = Instant::now();
        let slice = dur / windows.max(1) as u32;
        let mut w_end = start + slice;
        let (mut w_busy, mut w_pkts) = (Duration::ZERO, 0u64);
        loop {
            let now = Instant::now();
            if now >= w_end {
                if w_pkts > 0 {
                    out.window_pps.push(w_pkts as f64 / w_busy.as_secs_f64());
                }
                w_busy = Duration::ZERO;
                w_pkts = 0;
                if now >= start + dur {
                    break;
                }
                w_end += slice;
            }
            let n = self.room(batch);
            let mut got = 0u64;
            w_busy += self.cycle(n, count_allocs, &mut |_| got += 1);
            w_pkts += got;
            out.packets += n as u64;
            out.cycles += 1;
            self.maybe_write()?;
        }
        out.wall_s = start.elapsed().as_secs_f64();
        Ok(out)
    }

    /// Open loop for `dur` at `rate` packets/s with Poisson arrivals
    /// (exponential gaps drawn from the seeded arrival generator): every
    /// packet has a due time; whatever is due is offered (up to
    /// `max_batch` per poll) and latency runs from the due time to the
    /// moment the packet is read off the egress wire. Random arrivals
    /// bunch, so the tail comes from queueing behind the router's own
    /// work rather than from the host alone.
    ///
    /// Latency is reduced per window of [`LATENCY_WINDOW`] delivered
    /// packets. While idle the loop does nothing but read the clock, so a
    /// gap of more than [`HOST_STALL_NS`] between two idle reads is the
    /// host taking the CPU away, not router work: the window that gap
    /// delays, and the next one (which absorbs the backlog), are voided
    /// and counted instead of reduced.
    pub fn open_loop(
        &mut self,
        rate: f64,
        max_batch: usize,
        dur: Duration,
    ) -> Result<OpenLoop, String> {
        let mut out = OpenLoop {
            rate_pps: rate,
            ..OpenLoop::default()
        };
        let mean_gap_ns = 1e9 / rate;
        let dur_ns = dur.as_nanos() as u64;
        // Samples are reduced after the phase, so no sort ever stalls the
        // generator mid-phase.
        let mut lat: Vec<u32> =
            Vec::with_capacity((rate * dur.as_secs_f64() * 1.1) as usize + LATENCY_WINDOW);
        let mut voided: Vec<bool> = Vec::new();
        let (mut void_cur, mut void_next) = (false, false);
        let mut last_idle: Option<u64> = None;
        let mut polls = 0u64;
        // Due times of packets due but not yet offered, and of the packets
        // in the current cycle.
        let mut due: VecDeque<u64> = VecDeque::new();
        let mut cycle_due: Vec<u64> = Vec::with_capacity(max_batch);
        let mut next_due = self.exp_gap(mean_gap_ns);
        let start = Instant::now();
        loop {
            let now_ns = start.elapsed().as_nanos() as u64;
            if now_ns >= dur_ns {
                break;
            }
            if let Some(prev) = last_idle.take() {
                if now_ns - prev > HOST_STALL_NS {
                    out.host_stalls += 1;
                    void_cur = true;
                    void_next = true;
                }
            }
            while next_due <= now_ns as f64 {
                due.push_back(next_due as u64);
                next_due += self.exp_gap(mean_gap_ns);
            }
            if due.is_empty() {
                last_idle = Some(now_ns);
                std::hint::spin_loop();
                continue;
            }
            let n = self.room(due.len().min(max_batch));
            cycle_due.clear();
            cycle_due.extend(due.drain(..n));
            for d in &cycle_due {
                out.lag_ns.record(now_ns.saturating_sub(*d));
            }
            let lo = self.seq;
            let mut arrived = std::mem::take(&mut self.arrived);
            self.cycle(n, false, &mut |s| arrived.push(s));
            let t_read = (self.polled_at - start).as_nanos() as u64;
            for s in arrived.drain(..) {
                let due_ns = cycle_due[(s - lo) as usize];
                lat.push(u32::try_from(t_read.saturating_sub(due_ns)).unwrap_or(u32::MAX));
                if lat.len() == (voided.len() + 1) * LATENCY_WINDOW {
                    voided.push(void_cur);
                    void_cur = void_next;
                    void_next = false;
                }
            }
            self.arrived = arrived;
            polls += 1;
            out.packets += n as u64;
            self.maybe_write()?;
        }
        out.samples = lat.len() as u64;
        for v in &lat {
            out.pooled_ns.record(u64::from(*v));
        }
        for (w, void) in lat.chunks_exact_mut(LATENCY_WINDOW).zip(&voided) {
            if *void {
                out.voided_windows += 1;
            } else {
                for v in w.iter() {
                    out.valid_ns.record(u64::from(*v));
                }
                out.window_p50_us.push(quantile_u32(w, 0.50) / 1e3);
                out.window_p99_us.push(quantile_u32(w, 0.99) / 1e3);
            }
        }
        out.polls = polls;
        Ok(out)
    }

    /// Check wire-level conservation after a phase (see
    /// [`crate::oracle::conservation`]); `IoPlane::check_conservation` is
    /// the program's own check. A failure is reported and counted by the
    /// oracle; a note explains a program check that only fragmentation
    /// broke.
    pub fn check_conservation(&mut self, phase: &str) -> bool {
        let iop = &self.rig.iop;
        let program_ok = quietly(|| iop.check_conservation());
        let s = iop.plane().io_stats();
        let led = iop.ledger();
        let l = Ledger {
            offered: self.offered,
            device_rx: led.device_rx,
            device_tx: led.device_tx,
            received: s.received,
            forwarded: s.forwarded,
            drops: s.dropped_total(),
            extra_frames: self.oracle.tally.extra_frames - self.extra0,
        };
        let ok = match conservation(&l, program_ok) {
            Ok(note) => {
                if let Some(n) = note {
                    if !self.notes.contains(&n) {
                        self.notes.push(n);
                    }
                }
                true
            }
            Err(e) => {
                eprintln!("wirebench: after {phase}: {e}");
                false
            }
        };
        self.oracle.note_conservation(ok);
        ok
    }
}

/// Run a check that reports failure by panicking; true when it passed.
/// The panic message is suppressed: the caller reports the outcome.
pub fn quietly(check: impl FnOnce()) -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let ok = catch_unwind(AssertUnwindSafe(check)).is_ok();
    std::panic::set_hook(hook);
    ok
}

/// Read every frame waiting on the far ends of the egress wires through
/// the peers' `NetDev::rx_batch`, and check each.
pub fn read_egress(
    peers: &mut [rp_netdev::loopback::LoopbackDev],
    oracle: &mut Oracle,
    delivered: &mut dyn FnMut(u64),
) {
    for (i, peer) in peers.iter_mut().enumerate() {
        loop {
            let r = peer.rx_batch(256, &mut |bytes| {
                if let Some(s) = oracle.check(i as u32, bytes) {
                    delivered(s);
                }
            });
            if r.frames == 0 {
                break;
            }
        }
    }
}
