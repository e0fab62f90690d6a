//! The three named workloads: how each data plane is configured, what
//! traffic it gets, and (for `churn_fib`) which control writes run
//! beside the reads.

use crate::oracle::Oracle;
use crate::traffic::Traffic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use router_core::dataplane::control::ControlPlane;
use router_core::dataplane::{ParallelRouter, ParallelRouterConfig};
use router_core::ip_core::{RouteEntry, RoutingTable};
use router_core::loader::PluginLoader;
use router_core::plugins::register_builtin_factories;
use router_core::pmgr::run_script;
use router_core::{Gate, Router, RouterConfig};
use rp_classifier::{FilterSpec, FlowTableConfig};
use rp_netdev::loopback::{LoopbackDev, LoopbackHandle};
use rp_netdev::{IoPlane, IoRouter};
use rp_netsim::traffic::{random_filters, synthetic_fib_v4};
use std::net::{IpAddr, Ipv4Addr};
use std::time::{Duration, Instant};

/// Router interfaces in every workload; all are bound to loopback wires.
pub const INTERFACES: usize = 4;
/// Egress MTU on every interface.
pub const MTU: usize = 1500;
/// Frames each loopback direction can hold.
const WIRE_CAPACITY: usize = 8192;
/// Every workload's traffic enters on this interface.
pub const INGRESS_IF: u32 = 0;

/// The workload names. `BENCHMARK.json` gates the first two; the third
/// runs on its own on request, and inside `gates_small`'s traced run
/// (see `bench::Cross`).
pub const NAMES: [&str; 3] = ["gates_small", "churn_fib", "sharded_imix"];

/// Which data plane a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// One single-threaded `Router`.
    Single,
    /// `ParallelRouter` with one shard (one extra thread).
    Sharded,
}

/// Sizes that distinguish a full run from the tests' smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Prefixes in the `churn_fib` FIB.
    pub fib_prefixes: usize,
    /// Random filters bound at `churn_fib`'s firewall gate.
    pub random_filters: usize,
    /// Flow-table record cap on `churn_fib`.
    pub flow_cap: usize,
    /// Distinct mouse identities on `churn_fib`.
    pub mouse_space: u32,
    /// Flows on `sharded_imix`.
    pub imix_flows: u32,
    /// Packets between two `churn_fib` control writes.
    pub write_every: u64,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            fib_prefixes: 900_000,
            random_filters: 300,
            flow_cap: 16_384,
            mouse_space: 1 << 18,
            imix_flows: 1024,
            write_every: 8192,
        }
    }

    /// Small sizes for fast tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn tiny() -> Scale {
        Scale {
            fib_prefixes: 5_000,
            random_filters: 20,
            flow_cap: 512,
            mouse_space: 1 << 12,
            imix_flows: 64,
            write_every: 256,
        }
    }
}

/// Everything needed to build and drive one workload.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Data-plane shape.
    pub plane: Plane,
    /// Per-router configuration.
    pub cfg: RouterConfig,
    /// Core routes installed at setup.
    pub routes: Vec<(IpAddr, u8, u32)>,
    /// pmgr script that loads plugins, creates instances and binds filters.
    pub script: String,
    /// The filters the script binds, per gate (mirrored into the traced
    /// run's stand-alone classifier).
    pub filters: Vec<(Gate, FilterSpec)>,
    /// The scheduling gate runs DRR.
    pub drr: bool,
    /// Frames offered per duty cycle in the saturation phase, and the
    /// I/O plane's per-device receive budget.
    pub batch: usize,
    /// Fixed offered rate of the open-loop phase (packets/s).
    pub open_pps: f64,
    /// Control writes beside the reads (`churn_fib` only).
    pub writes: Option<Writes>,
    /// The offered traffic.
    pub traffic: Traffic,
}

fn v6net(n: u16) -> IpAddr {
    IpAddr::V6(std::net::Ipv6Addr::new(0x2001, 0xdb8, n, 0, 0, 0, 0, 0))
}

fn bind_line(gate: &str, plugin: &str, id: u32, filter: &str) -> String {
    format!("bind {gate} {plugin} {id} {filter}\n")
}

/// Build workload `name`'s spec from `seed`. FIB and traffic generation
/// happen here, outside the timed set-up.
pub fn spec(name: &str, seed: u64, scale: Scale) -> Result<Spec, String> {
    match name {
        "gates_small" => Ok(gates_small(seed)),
        "churn_fib" => Ok(churn_fib(seed, scale)),
        "sharded_imix" => Ok(sharded_imix(seed, scale)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {NAMES:?})"
        )),
    }
}

/// Parse the filters a script binds, so the traced run can mirror them.
fn filters_of(script: &str) -> Vec<(Gate, FilterSpec)> {
    script
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("bind ")?;
            let mut t = rest.splitn(4, ' ');
            let gate = Gate::parse(t.next()?)?;
            let _plugin = t.next()?;
            let _id = t.next()?;
            Some((gate, t.next()?.parse().ok()?))
        })
        .collect()
}

fn gates_small(seed: u64) -> Spec {
    let routes = vec![
        (v6net(1), 48, 1),
        (v6net(2), 48, 2),
        (v6net(3), 48, 3),
        (v6net(0), 32, 1),
    ];
    let mut script = String::from("load null\ncreate null\n");
    for g in ["fw", "ipsec", "stats"] {
        script += &bind_line(g, "null", 0, "<*, *, *, *, *, *>");
    }
    // One DRR instance per egress interface, bound by destination prefix,
    // so each instance only ever holds one interface's packets.
    script += "load drr\n";
    for i in 0..3 {
        script += "create drr quantum=1500 limit=512\n";
        script += &bind_line(
            "sched",
            "drr",
            i,
            &format!("<*, 2001:db8:{}::/48, UDP, *, *, *>", i + 1),
        );
    }
    // Sixteen background filters that match none of the traffic (the
    // paper's Table 3 run had 16 filters installed).
    for i in 0..16 {
        script += &bind_line(
            "fw",
            "null",
            0,
            &format!("<2001:db8:ff{i:02x}::/48, *, TCP, *, {}, *>", 20000 + i),
        );
    }
    Spec {
        name: "gates_small",
        plane: Plane::Single,
        cfg: RouterConfig {
            interfaces: INTERFACES,
            mtu: MTU,
            verify_checksums: true,
            enabled_gates: vec![
                Gate::Firewall,
                Gate::IpSecurity,
                Gate::Stats,
                Gate::Scheduling,
            ],
            ..RouterConfig::default()
        },
        routes,
        filters: filters_of(&script),
        script,
        drr: true,
        batch: 32,
        open_pps: 150_000.0,
        writes: None,
        traffic: Traffic::gates_small(seed),
    }
}

fn churn_fib(seed: u64, scale: Scale) -> Spec {
    let fib = synthetic_fib_v4(scale.fib_prefixes, INTERFACES as u32, seed ^ 0xF1B);
    // A host inside prefix `p` (low host bits from `h`).
    let host = |p: &(IpAddr, u8, u32), h: u32| -> u32 {
        let IpAddr::V4(a) = p.0 else {
            unreachable!("v4 FIB")
        };
        let host_mask = u32::MAX.checked_shr(u32::from(p.1)).unwrap_or(0);
        u32::from(a) | (h & host_mask) | 1
    };
    let hot: Vec<Ipv4Addr> = fib
        .iter()
        .step_by((fib.len() / 64).max(1))
        .take(64)
        .map(|p| Ipv4Addr::from(host(p, 0)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3153);
    let mouse_dsts: Vec<u32> = (0..65_536)
        .map(|_| host(&fib[rng.gen_range(0..fib.len())], rng.gen()))
        .collect();
    let mut script = String::from("load null\ncreate null\n");
    for f in random_filters(scale.random_filters, false, seed ^ 0xF17) {
        script += &bind_line("fw", "null", 0, &f.to_string());
    }
    let traffic = Traffic::churn(seed, &hot, mouse_dsts, 4, scale.mouse_space);
    Spec {
        name: "churn_fib",
        plane: Plane::Single,
        cfg: RouterConfig {
            interfaces: INTERFACES,
            mtu: MTU,
            verify_checksums: true,
            enabled_gates: vec![Gate::Firewall],
            flow_table: FlowTableConfig {
                buckets: 1024,
                max_buckets: 1 << 16,
                initial_records: 1024,
                max_records: scale.flow_cap,
                gates: router_core::gate::GATE_COUNT,
                max_idle_ns: 0,
                lru_evict: true,
            },
            ..RouterConfig::default()
        },
        routes: fib,
        filters: filters_of(&script),
        script,
        drr: false,
        batch: 32,
        open_pps: 120_000.0,
        writes: Some(Writes::new(hot, scale.write_every)),
        traffic,
    }
}

fn sharded_imix(seed: u64, scale: Scale) -> Spec {
    let mut routes = Vec::new();
    for n in 1..=3u8 {
        routes.push((IpAddr::V4(Ipv4Addr::new(10, n, 0, 0)), 16, u32::from(n)));
        routes.push((v6net(u16::from(n)), 48, u32::from(n)));
    }
    routes.push((IpAddr::V4(Ipv4Addr::new(10, 0, 0, 0)), 8, 1));
    let script = format!(
        "load null\ncreate null\n{}",
        bind_line("stats", "null", 0, "<*, *, *, *, *, *>")
    );
    Spec {
        name: "sharded_imix",
        plane: Plane::Sharded,
        cfg: RouterConfig {
            interfaces: INTERFACES,
            mtu: MTU,
            verify_checksums: true,
            enabled_gates: vec![Gate::Stats],
            ..RouterConfig::default()
        },
        routes,
        filters: filters_of(&script),
        script,
        drr: false,
        batch: 256,
        open_pps: 150_000.0,
        writes: None,
        traffic: Traffic::sharded_imix(seed, scale.imix_flows, 16),
    }
}

/// The reference FIB the oracle routes by: the spec's routes in a plain
/// routing table.
pub fn reference_table(spec: &Spec) -> RoutingTable {
    let mut rt = RoutingTable::new();
    for (a, l, i) in &spec.routes {
        rt.add(*a, *l, RouteEntry { tx_if: *i });
    }
    rt
}

/// The oracle for a spec.
pub fn oracle(spec: &Spec) -> Oracle {
    Oracle::new(spec.traffic.clone(), reference_table(spec))
}

/// A built single router, configured by the spec (the set-up's data-
/// plane half).
pub fn build_router(spec: &Spec) -> Result<Router, String> {
    let mut r = Router::new(spec.cfg.clone());
    register_builtin_factories(&mut r.loader);
    for (a, l, i) in &spec.routes {
        r.add_route(*a, *l, *i);
    }
    if spec.routes.len() > 1000 {
        r.optimize_routes();
    }
    run_script(&mut r, &spec.script).map_err(|e| format!("{}: pmgr: {e}", spec.name))?;
    Ok(r)
}

/// A built one-shard parallel router, configured by the spec.
pub fn build_parallel(spec: &Spec) -> Result<ParallelRouter, String> {
    let mut loader = PluginLoader::new();
    register_builtin_factories(&mut loader);
    let mut pr = ParallelRouter::new(
        ParallelRouterConfig {
            shards: 1,
            router: spec.cfg.clone(),
            // A busy shared host can deschedule the worker for a while;
            // the watchdog must not mistake that for a stall.
            stall_timeout: Duration::from_secs(10),
            ..ParallelRouterConfig::default()
        },
        &loader,
    );
    for (a, l, i) in &spec.routes {
        pr.cp_add_route(*a, *l, *i);
    }
    run_script(&mut pr, &spec.script).map_err(|e| format!("{}: pmgr: {e}", spec.name))?;
    Ok(pr)
}

/// A data plane bound to loopback wires on every interface.
pub struct Rig<P: IoRouter> {
    /// The I/O plane driving the data plane.
    pub iop: IoPlane<P>,
    /// Injects frames into the ingress interface's receive wire.
    pub ingress: LoopbackHandle,
    /// The far end of every interface's wire (index = interface).
    pub peers: Vec<LoopbackDev>,
}

/// Loopback pairs for every interface: the router-side devices, their
/// far ends, and the ingress injection handle.
pub fn wires() -> (Vec<LoopbackDev>, Vec<LoopbackDev>, LoopbackHandle) {
    let mut devs = Vec::new();
    let mut peers = Vec::new();
    for i in 0..INTERFACES {
        let (dev, peer) = LoopbackDev::pair(&format!("if{i}"), &format!("peer{i}"), WIRE_CAPACITY);
        devs.push(dev);
        peers.push(peer);
    }
    let ingress = devs[INGRESS_IF as usize].handle();
    (devs, peers, ingress)
}

/// Bind `plane` to fresh wires through an [`IoPlane`].
pub fn rig<P: IoRouter>(plane: P, budget: usize) -> Rig<P> {
    let mut iop = IoPlane::new(plane, budget);
    let (devs, peers, ingress) = wires();
    for (i, d) in devs.into_iter().enumerate() {
        iop.bind(i as u32, Box::new(d));
    }
    Rig {
        iop,
        ingress,
        peers,
    }
}

/// Time `reps` complete set-ups (router build, routes, plugins, filters,
/// device bind) and keep the last. Returns the rig and each set-up's
/// seconds.
pub fn timed_setup<P: IoRouter>(
    spec: &Spec,
    reps: usize,
    build: impl Fn(&Spec) -> Result<P, String>,
) -> Result<(Rig<P>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        // Drop the previous rig first so two never coexist.
        drop(kept.take());
        let t0 = Instant::now();
        let r = rig(build(spec)?, spec.batch);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(r);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// What a control write did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// `Router::add_route` / `remove_route`.
    Route,
    /// `pmgr` bind / unbind of a filter.
    Filter,
}

/// `churn_fib`'s control writes: at every `every`-th packet index, in
/// a fixed cycle of four, (0) a /28 covering a hot destination is added
/// toward another interface, (1) a firewall filter is bound on that
/// destination, (2) the /28 is withdrawn, (3) the filter is unbound.
/// Every packet always has a route.
pub struct Writes {
    hot: Vec<Ipv4Addr>,
    every: u64,
    /// Writes applied so far.
    pub applied: u64,
    prefix: Option<Ipv4Addr>,
    filter: Option<u64>,
}

impl Writes {
    fn new(hot: Vec<Ipv4Addr>, every: u64) -> Writes {
        Writes {
            hot,
            every,
            applied: 0,
            prefix: None,
            filter: None,
        }
    }

    /// Undo a route write still outstanding in the oracle's reference
    /// table and restart the cycle, for a run on a freshly built router.
    pub fn reset(&mut self, oracle: &mut Oracle) {
        if let Some(p) = self.prefix.take() {
            oracle.reference.remove(IpAddr::V4(p), 28);
        }
        self.filter = None;
        self.applied = 0;
    }

    /// The packet index before which the next write must run.
    pub fn next_at(&self) -> u64 {
        (self.applied + 1) * self.every
    }

    /// Apply the next write to `cp` and the oracle's reference table.
    /// Returns what kind of write it was and how long the router's own
    /// call took.
    pub fn apply<C: ControlPlane>(
        &mut self,
        cp: &mut C,
        oracle: &mut Oracle,
    ) -> Result<(WriteKind, Duration), String> {
        let k = self.applied;
        self.applied += 1;
        let dst = self.hot[((k / 4) as usize) % self.hot.len()];
        match k % 4 {
            0 => {
                let p = Ipv4Addr::from(u32::from(dst) & 0xFFFF_FFF0);
                let cur = oracle
                    .reference
                    .lookup(IpAddr::V4(dst))
                    .map_or(0, |e| e.tx_if);
                let alt = (cur + 1) % INTERFACES as u32;
                let t0 = Instant::now();
                cp.cp_add_route(IpAddr::V4(p), 28, alt);
                let dt = t0.elapsed();
                oracle
                    .reference
                    .add(IpAddr::V4(p), 28, RouteEntry { tx_if: alt });
                self.prefix = Some(p);
                Ok((WriteKind::Route, dt))
            }
            2 => {
                let p = self.prefix.take().ok_or("route withdraw without add")?;
                let t0 = Instant::now();
                let had = cp.cp_remove_route(IpAddr::V4(p), 28);
                let dt = t0.elapsed();
                oracle.reference.remove(IpAddr::V4(p), 28);
                if !had {
                    return Err(format!("route {p}/28 was not installed"));
                }
                Ok((WriteKind::Route, dt))
            }
            1 => {
                let line = format!("bind fw null 0 <*, {dst}/32, UDP, *, *, *>");
                let t0 = Instant::now();
                let out = run_script(cp, &line).map_err(|e| e.to_string())?;
                let dt = t0.elapsed();
                let fid = out
                    .first()
                    .and_then(|s| s.strip_prefix("filter "))
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("unexpected bind reply {out:?}"))?;
                self.filter = Some(fid);
                Ok((WriteKind::Filter, dt))
            }
            _ => {
                let fid = self.filter.take().ok_or("unbind without bind")?;
                let line = format!("unbind fw null {fid}");
                let t0 = Instant::now();
                run_script(cp, &line).map_err(|e| e.to_string())?;
                Ok((WriteKind::Filter, t0.elapsed()))
            }
        }
    }
}
