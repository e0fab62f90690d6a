//! `wirebench` — the router's wire-to-wire benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path wirebench/Cargo.toml -- \
//!     --workload gates_small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generated frames enter the real router through loopback devices bound
//! by `IoPlane`; egress is read back off the wires and every packet is
//! checked by the oracle. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones (see `README.md` in this directory).
//! The last line of standard output is the JSON result; the exit code
//! is 0 only when every check passed, 1 on a correctness or conservation
//! failure, and 2 when the run could not be set up.

mod ablation;
mod bench;
mod meta;
mod metrics;
mod oracle;
mod run;
mod stats;
mod trace;
mod traffic;
mod workload;

#[cfg(test)]
mod tests;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (and reallocations) made by this process.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Pass-through allocator that counts allocator traffic, for
/// `packet.allocs_per_pkt`.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// glibc's mmap threshold in bytes while the benchmark runs: its initial
/// value.
const MMAP_THRESHOLD: i32 = 128 << 10;

/// Pin glibc's mmap threshold, which turns off its adaptation. Left
/// alone, glibc raises the threshold as the process frees mmapped
/// blocks, so whether a router's large tables come from fresh pages or
/// from the heap depends on the process's own history, and
/// sub-millisecond set-ups then land in one of several modes from run to
/// run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // once, before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) };
    if ok != 1 {
        eprintln!("wirebench: mallopt(M_MMAP_THRESHOLD) failed");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc_threshold() {}

const USAGE: &str = "usage: wirebench --workload <gates_small|churn_fib|sharded_imix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<bench::Opts, String> {
    let mut opts = bench::Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = val.clone(),
            "--seed" => {
                opts.seed = val
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                opts.seconds = val
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {val}"));
                }
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// Write the full result (metadata, every value, oracle counts) and, for
/// a traced run, the kept spans under `wirebench/out/`.
fn write_files(opts: &bench::Opts, out: &bench::Outcome, line: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new("wirebench/out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        out.spec_name, opts.seed, opts.trace as u8
    );
    let meta: Vec<String> = out
        .meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", metrics::string(k)))
        .collect();
    let notes: Vec<String> = out.notes.iter().map(|n| metrics::string(n)).collect();
    let body = format!(
        "{{\"meta\": {{{}}}, \"notes\": [{}], \"result\": {line}}}\n",
        meta.join(", "),
        notes.join(", ")
    );
    std::fs::write(dir.join(format!("{stem}.json")), body)?;
    if let Some(t) = &out.tracer {
        t.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

fn main() {
    fix_malloc_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match bench::run(&opts, workload::Scale::full()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(2);
        }
    };
    let defs = if opts.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!(
        "wirebench {} seed={} trace={} seconds={}",
        out.spec_name, opts.seed, opts.trace as u8, opts.seconds
    );
    for m in defs {
        println!(
            "  {:<34} {:>16.4} {:<7} ({} is better)",
            m.name,
            out.values.get(m.name).unwrap_or(0.0),
            m.unit,
            m.better
        );
    }
    for n in &out.notes {
        println!("  {n}");
    }
    for (k, v) in &out.meta {
        println!("  meta {k} = {v}");
    }
    let line = metrics::result_line(
        out.correct(),
        out.offered.max(1),
        out.tally.failed(),
        defs,
        &out.values,
    );
    if let Err(e) = write_files(&opts, &out, &line) {
        eprintln!("wirebench: could not write wirebench/out: {e}");
    }
    println!("{line}");
    std::process::exit(if out.correct() { 0 } else { 1 });
}
