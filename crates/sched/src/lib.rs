//! # rp-sched — packet scheduling substrate
//!
//! The schedulers the paper ships as plugins — weighted Deficit Round
//! Robin (Shreedhar & Varghese, SIGCOMM '95) and the Hierarchical Fair
//! Service Curve scheduler (Stoica, Zhang, Ng, SIGCOMM '97) — plus FIFO
//! (the best-effort baseline), RED queue management (an "envisioned
//! plugin" in paper §4), and a discrete-event output-link model used by
//! the link-sharing experiments (E6/E7 in DESIGN.md).
//!
//! Schedulers here are framework-agnostic: they see opaque packets with a
//! length and a flow/class id. `router-core` wraps them into plugins and
//! supplies per-flow soft state from the AIU flow table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drr;
pub mod fifo;
pub mod hfsc;
pub mod hsf;
pub mod link;
pub mod red;
pub mod store;
pub mod vclock;

pub use drr::DrrScheduler;
pub use fifo::FifoScheduler;
pub use hfsc::{HfscScheduler, ServiceCurve};
pub use hsf::HsfScheduler;
pub use link::{FlowMap, LinkSim, SchedPacket, Scheduler};
pub use red::RedQueue;
pub use store::PacketStore;
pub use vclock::VirtualClockScheduler;
