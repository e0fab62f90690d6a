//! Differential test for the scheduler's per-packet bookkeeping: DRR over
//! the Fx-hashed [`FlowMap`](rp_sched::FlowMap), with packet bytes in the
//! slab [`PacketStore`], must serve exactly what a straightforward
//! SipHash-keyed DRR serves, over random enqueue, dequeue, purge and
//! set_weight sequences — and the slab must hold exactly the backlog.

use proptest::prelude::*;
use rp_packet::Mbuf;
use rp_sched::{DrrScheduler, PacketStore, SchedPacket, Scheduler};
use std::collections::{HashMap, VecDeque};

const QUANTUM: u32 = 1500;
const LIMIT: usize = 6;

/// Dense slot indices (what the router feeds) mixed with full 32-bit
/// ids (what a hash-keyed caller feeds).
const FLOWS: [u32; 8] = [0, 1, 2, 3, 0xDEAD_BEEF, 0x8000_0001, u32::MAX, 0x1234_5678];

struct RefFlow {
    queue: VecDeque<(u64, u32)>,
    deficit: u64,
    weight: u32,
    active: bool,
    visited: bool,
}

impl RefFlow {
    fn new() -> Self {
        RefFlow {
            queue: VecDeque::new(),
            deficit: 0,
            weight: 1,
            active: false,
            visited: false,
        }
    }

    fn deactivate(&mut self) {
        self.active = false;
        self.deficit = 0;
        self.visited = false;
    }
}

/// Weighted DRR (Shreedhar & Varghese) over `std` `HashMap` with its
/// default SipHash keys; packets are `(serial, len)`.
#[derive(Default)]
struct RefDrr {
    flows: HashMap<u32, RefFlow>,
    active: VecDeque<u32>,
}

impl RefDrr {
    fn enqueue(&mut self, flow: u32, serial: u64, len: u32) -> bool {
        let f = self.flows.entry(flow).or_insert_with(RefFlow::new);
        if f.queue.len() >= LIMIT {
            return false;
        }
        f.queue.push_back((serial, len));
        if !f.active {
            f.active = true;
            f.deficit = 0;
            f.visited = false;
            self.active.push_back(flow);
        }
        true
    }

    fn dequeue(&mut self) -> Option<(u32, u64)> {
        loop {
            let flow = *self.active.front()?;
            let f = self.flows.get_mut(&flow).expect("active flow");
            if f.queue.is_empty() {
                f.deactivate();
                self.active.pop_front();
                continue;
            }
            if !f.visited {
                f.deficit += u64::from(QUANTUM) * u64::from(f.weight);
                f.visited = true;
            }
            let (serial, len) = *f.queue.front().expect("non-empty");
            if f.deficit >= u64::from(len) {
                f.deficit -= u64::from(len);
                f.queue.pop_front();
                if f.queue.is_empty() {
                    f.deactivate();
                    self.active.pop_front();
                }
                return Some((flow, serial));
            }
            f.visited = false;
            self.active.rotate_left(1);
        }
    }

    fn purge(&mut self, flow: u32) -> Vec<u64> {
        let Some(f) = self.flows.remove(&flow) else {
            return Vec::new();
        };
        self.active.retain(|a| *a != flow);
        f.queue.into_iter().map(|(s, _)| s).collect()
    }

    fn set_weight(&mut self, flow: u32, weight: u32) {
        self.flows.entry(flow).or_insert_with(RefFlow::new).weight = weight;
    }

    fn backlog(&self) -> usize {
        self.flows.values().map(|f| f.queue.len()).sum()
    }
}

fn serial_of(m: &Mbuf) -> u64 {
    u64::from_le_bytes(m.data().try_into().expect("8-byte serial"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn drr_with_slab_store_matches_siphash_reference(
        ops in prop::collection::vec((0u8..8, any::<u32>(), 64u32..3000), 1..400),
    ) {
        let mut drr = DrrScheduler::new(QUANTUM, LIMIT);
        let mut store = PacketStore::default();
        let mut reference = RefDrr::default();
        for (serial, (kind, sel, arg)) in ops.into_iter().enumerate() {
            let serial = serial as u64;
            let flow = FLOWS[sel as usize % FLOWS.len()];
            match kind {
                // Enqueue is the most common operation, then dequeue.
                0..=3 => {
                    let cookie = store.put(Mbuf::new(serial.to_le_bytes().to_vec(), 0));
                    let pkt = SchedPacket { flow, len: arg, arrival_ns: 0, cookie };
                    let ok = drr.enqueue(pkt, 0);
                    if !ok {
                        store.take(cookie);
                    }
                    prop_assert_eq!(ok, reference.enqueue(flow, serial, arg));
                }
                4..=5 => {
                    let got = drr.dequeue(0).map(|p| {
                        let m = store.take(p.cookie).expect("dequeued packet is stored");
                        (p.flow, serial_of(&m))
                    });
                    prop_assert_eq!(got, reference.dequeue());
                }
                6 => {
                    let got: Vec<u64> = drr
                        .purge_flow(flow)
                        .into_iter()
                        .map(|p| serial_of(&store.take(p.cookie).expect("purged packet is stored")))
                        .collect();
                    prop_assert_eq!(got, reference.purge(flow));
                }
                _ => {
                    let weight = 1 + arg % 4;
                    drr.set_weight(flow, weight);
                    reference.set_weight(flow, weight);
                }
            }
            prop_assert_eq!(drr.backlog(), reference.backlog());
            prop_assert_eq!(store.len(), drr.backlog());
        }
        // Drain: the remaining service order matches too, and the slab
        // ends empty.
        loop {
            let got = drr.dequeue(0).map(|p| {
                let m = store.take(p.cookie).expect("dequeued packet is stored");
                (p.flow, serial_of(&m))
            });
            prop_assert_eq!(got, reference.dequeue());
            if got.is_none() {
                break;
            }
        }
        prop_assert!(store.is_empty());
    }
}
