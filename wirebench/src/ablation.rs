//! The paper's Table 3, one layer at a time, on `gates_small` traffic:
//! best-effort forwarding, + three gates calling empty plugins, the
//! monolithic ALTQ-style DRR kernel, and the plugin framework with the
//! DRR plugin. Rows run in interleaved rounds (so a noisy moment hurts
//! every row alike) and each reports its median ns/pkt.

use crate::stats::median;
use crate::traffic::Traffic;
use router_core::ip_core::Disposition;
use router_core::monolithic::{AltqDrrRouter, BestEffortRouter};
use router_core::plugins::register_builtin_factories;
use router_core::pmgr::run_script;
use router_core::{Gate, Router, RouterConfig};
use rp_packet::Mbuf;
use std::net::IpAddr;
use std::time::{Duration, Instant};

/// Packets per row per round.
const ROUND_PKTS: usize = 4096;

/// Median ns/pkt of each row.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ablation {
    /// Unmodified best-effort forwarding.
    pub best_effort_ns: f64,
    /// Plugin framework, three gates with empty plugins, 16 filters.
    pub framework_ns: f64,
    /// Monolithic ALTQ-style DRR.
    pub altq_drr_ns: f64,
    /// Plugin framework with the DRR plugin at the scheduling gate.
    pub plugin_drr_ns: f64,
    /// Mean `Router::pump` call (ns) on the plugin-DRR row, timed in a
    /// separate pass so the rows' own timings carry no clock reads.
    pub pump_ns: f64,
    /// Rounds run.
    pub rounds: usize,
    /// Packets each row forwarded short of what it was offered.
    pub lost: u64,
}

impl Ablation {
    /// Framework overhead over best effort, in percent.
    pub fn framework_overhead_pct(&self) -> f64 {
        pct(self.framework_ns, self.best_effort_ns)
    }

    /// Plugin DRR against monolithic DRR, in percent.
    pub fn plugin_vs_altq_pct(&self) -> f64 {
        pct(self.plugin_drr_ns, self.altq_drr_ns)
    }

    /// Monolithic DRR over best effort, in percent.
    pub fn drr_overhead_pct(&self) -> f64 {
        pct(self.altq_drr_ns, self.best_effort_ns)
    }

    /// DESIGN.md's E3 shape checks, measured: (description, pass).
    pub fn e3_checks(&self) -> Vec<(String, bool)> {
        let fw = self.framework_overhead_pct();
        let pd = self.plugin_vs_altq_pct();
        let drr = self.drr_overhead_pct();
        vec![
            (
                format!("framework overhead over best effort is single-digit %: {fw:+.1}%"),
                fw < 10.0,
            ),
            (
                format!("plugin DRR within a few % (<=5%) of monolithic DRR: {pd:+.1}%"),
                pd.abs() <= 5.0,
            ),
            (
                format!("monolithic DRR adds +15..25% over best effort: {drr:+.1}%"),
                (15.0..=25.0).contains(&drr),
            ),
        ]
    }
}

fn pct(a: f64, base: f64) -> f64 {
    if base > 0.0 {
        100.0 * (a - base) / base
    } else {
        0.0
    }
}

fn routes() -> Vec<(IpAddr, u8, u32)> {
    (1..=3u16)
        .map(|n| {
            (
                IpAddr::V6(std::net::Ipv6Addr::new(0x2001, 0xdb8, n, 0, 0, 0, 0, 0)),
                48,
                u32::from(n),
            )
        })
        .collect()
}

fn background(gate: &str, plugin: &str) -> String {
    (0..16)
        .map(|i| {
            format!(
                "bind {gate} {plugin} 0 <2001:db8:ff{i:02x}::/48, *, TCP, *, {}, *>\n",
                20000 + i
            )
        })
        .collect()
}

fn plugin_router(gates: Vec<Gate>, script: &str) -> Result<Router, String> {
    let mut r = Router::new(RouterConfig {
        interfaces: 4,
        mtu: 1500,
        verify_checksums: true,
        enabled_gates: gates,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    for (a, l, i) in routes() {
        r.add_route(a, l, i);
    }
    run_script(&mut r, script).map_err(|e| format!("ablation: {e}"))?;
    Ok(r)
}

/// One Table 3 kernel.
enum Row {
    BestEffort(BestEffortRouter),
    Framework(Router),
    Altq(AltqDrrRouter),
    PluginDrr(Router),
}

impl Row {
    /// Forward `frames`, returning packets that reached an interface's
    /// transmit log. Buffers cycle through `free`.
    fn run(&mut self, frames: &[Vec<u8>], free: &mut Vec<Vec<u8>>) -> u64 {
        let mut sent = 0;
        for (k, f) in frames.iter().enumerate() {
            let mut b = free.pop().unwrap_or_default();
            b.clear();
            b.extend_from_slice(f);
            let m = Mbuf::new(b, 0);
            let now = k as u64;
            match self {
                Row::BestEffort(r) => {
                    r.receive(m);
                }
                Row::Framework(r) => {
                    r.receive(m);
                }
                Row::Altq(r) => {
                    if let Disposition::Queued(i) = r.receive(m, now) {
                        r.pump(i, 1, now);
                    }
                }
                Row::PluginDrr(r) => {
                    if let Disposition::Queued(i) = r.receive(m) {
                        r.pump(i, 1);
                    }
                }
            }
            if k % 64 == 63 || k + 1 == frames.len() {
                for i in 0..4u32 {
                    let out = match self {
                        Row::BestEffort(r) => r.take_tx(i),
                        Row::Framework(r) | Row::PluginDrr(r) => r.take_tx(i),
                        Row::Altq(r) => r.take_tx(i),
                    };
                    sent += out.len() as u64;
                    free.extend(out.into_iter().map(Mbuf::into_data));
                }
            }
        }
        sent
    }
}

/// Mean time of a `Router::pump` call after a queued disposition.
fn pump_cost(r: &mut Router, frames: &[Vec<u8>], free: &mut Vec<Vec<u8>>) -> f64 {
    let (mut ns, mut calls) = (0u128, 0u32);
    for (k, f) in frames.iter().enumerate() {
        let mut b = free.pop().unwrap_or_default();
        b.clear();
        b.extend_from_slice(f);
        if let Disposition::Queued(i) = r.receive(Mbuf::new(b, 0)) {
            let t0 = Instant::now();
            r.pump(i, 1);
            ns += t0.elapsed().as_nanos();
            calls += 1;
        }
        if k % 64 == 63 || k + 1 == frames.len() {
            for i in 0..4u32 {
                free.extend(r.take_tx(i).into_iter().map(Mbuf::into_data));
            }
        }
    }
    ns as f64 / f64::from(calls.max(1))
}

/// Run the four rows for about `dur` on `gates_small` traffic from
/// `seed`.
pub fn run(seed: u64, dur: Duration) -> Result<Ablation, String> {
    let traffic = Traffic::gates_small(seed);
    let frames: Vec<Vec<u8>> = (0..ROUND_PKTS as u64)
        .map(|s| {
            let mut b = Vec::new();
            traffic.frame(s, &mut b);
            b
        })
        .collect();
    let mut be = BestEffortRouter::new(4, true);
    let mut altq = AltqDrrRouter::new(4, 64, 1500, true);
    for (a, l, i) in routes() {
        be.add_route(a, l, i);
        altq.add_route(a, l, i);
    }
    let fw_script = format!(
        "load null\ncreate null\n\
         bind fw null 0 <*, *, *, *, *, *>\n\
         bind ipsec null 0 <*, *, *, *, *, *>\n\
         bind stats null 0 <*, *, *, *, *, *>\n{}",
        background("fw", "null")
    );
    let mut pd_script = String::from("load drr\n");
    for i in 0..3 {
        pd_script += &format!(
            "create drr quantum=1500 limit=512\nbind sched drr {i} <*, 2001:db8:{}::/48, UDP, *, *, *>\n",
            i + 1
        );
    }
    pd_script += &background("sched", "drr");
    let mut rows = [
        Row::BestEffort(be),
        Row::Framework(plugin_router(
            vec![Gate::Firewall, Gate::IpSecurity, Gate::Stats],
            &fw_script,
        )?),
        Row::Altq(altq),
        Row::PluginDrr(plugin_router(vec![Gate::Scheduling], &pd_script)?),
    ];
    let mut free: Vec<Vec<u8>> = Vec::new();
    // Warm every row once (flow caches, buffers).
    for r in rows.iter_mut() {
        r.run(&frames, &mut free);
    }
    let mut ns: [Vec<f64>; 4] = Default::default();
    let mut lost = 0;
    let start = Instant::now();
    let mut rounds = 0;
    while start.elapsed() < dur || rounds < 3 {
        for (i, r) in rows.iter_mut().enumerate() {
            let t0 = Instant::now();
            let sent = r.run(&frames, &mut free);
            ns[i].push(t0.elapsed().as_nanos() as f64 / frames.len() as f64);
            lost += frames.len() as u64 - sent.min(frames.len() as u64);
        }
        rounds += 1;
    }
    let pump_ns = match &mut rows[3] {
        Row::PluginDrr(r) => pump_cost(r, &frames, &mut free),
        _ => 0.0,
    };
    Ok(Ablation {
        pump_ns,
        best_effort_ns: median(&mut ns[0]),
        framework_ns: median(&mut ns[1]),
        altq_drr_ns: median(&mut ns[2]),
        plugin_drr_ns: median(&mut ns[3]),
        rounds,
        lost,
    })
}
