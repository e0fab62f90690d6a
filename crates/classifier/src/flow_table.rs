//! The flow table (paper §5.2): a hash-indexed cache of fully specified
//! flows. Each record stores, **per gate**, the bound plugin instance and
//! an opaque per-flow soft-state slot (the DRR plugin keeps its per-flow
//! queue pointer there).
//!
//! Reproduced mechanics:
//!
//! * The cheap five-tuple hash ("17 processor cycles on a Pentium") —
//!   a short xor/fold with no multiplies, [`flow_hash`].
//! * Bucket array sized at boot (default 32768), collision chains as
//!   singly linked lists threaded through the record slab.
//! * Records come from a free list seeded with 1024 entries that **grows
//!   exponentially** (1024, 2048, 4096, …) up to a configurable maximum,
//!   after which the **oldest records are recycled**.
//! * Records are addressed by [`FlowIndex`] — the FIX the data path caches
//!   in the packet's mbuf so later gates skip the hash lookup entirely.
//!
//! Internet-scale extensions (beyond the paper's fixed-size table):
//!
//! * **Incremental resize.** When the live-record count outgrows the
//!   bucket array, the table doubles it *incrementally*: the old array
//!   stays live while a bounded number of its buckets are migrated per
//!   `lookup`/`insert` (`MIGRATE_BUCKETS_PER_OP`), so there is never a
//!   stop-the-world rehash on the data path. During a migration a lookup
//!   probes the new chain first and falls back to the old one; each
//!   record lives in exactly one chain at all times.
//! * **Inline LRU eviction.** With [`FlowTableConfig::lru_evict`] set, a
//!   table at its record cap evicts the *coldest* record found within the
//!   bounded clock-hand probe run instead of denying the insert — the
//!   right policy for established-flow churn workloads where admission
//!   denial would punish legitimate new flows.

use rp_packet::mbuf::FlowIndex;
use rp_packet::FlowTuple;
use std::any::Any;
use std::net::IpAddr;

use crate::filter::FilterId;

/// The paper's cheap flow hash: fold the full six-tuple into 32 bits with
/// xors, rotates and one final avalanche — comparable work to the
/// "17 cycles" original (no multiplies, no divisions beyond the mask).
#[inline]
pub fn flow_hash(t: &FlowTuple) -> u32 {
    #[inline]
    fn fold_addr(a: IpAddr) -> u32 {
        match a {
            IpAddr::V4(v) => u32::from(v),
            IpAddr::V6(v) => {
                let b = u128::from(v);
                (b as u32) ^ ((b >> 32) as u32) ^ ((b >> 64) as u32) ^ ((b >> 96) as u32)
            }
        }
    }
    let mut h = fold_addr(t.src);
    h = h.rotate_left(7) ^ fold_addr(t.dst);
    h = h.rotate_left(7) ^ (u32::from(t.sport) << 16 | u32::from(t.dport));
    // The key — and record equality — is the full six-tuple; the incoming
    // interface must perturb the hash too, or same-5-tuple flows from
    // different interfaces chain in one bucket (and always co-shard).
    h = h.rotate_left(5) ^ t.rx_if;
    h ^= u32::from(t.proto) << 8;
    // One-round finisher to spread low bits into the bucket mask.
    h ^= h >> 16;
    h = h.wrapping_mul(0x45d9_f3b5);
    h ^ (h >> 13)
}

/// Per-gate binding stored in a flow record: the paper's "pair of pointers
/// for each gate" — the plugin instance and its private per-flow soft
/// state.
pub struct GateBinding<V> {
    /// The bound plugin instance (None when no filter matched at this
    /// gate).
    pub instance: Option<V>,
    /// The filter this binding was derived from.
    pub filter: Option<FilterId>,
    /// Plugin-private per-flow soft state (`Send` so flow records can live
    /// on data-plane worker shards).
    pub soft_state: Option<Box<dyn Any + Send>>,
}

impl<V> Default for GateBinding<V> {
    fn default() -> Self {
        GateBinding {
            instance: None,
            filter: None,
            soft_state: None,
        }
    }
}

/// Hard cap on per-record gate bindings (the data path compiles six
/// gates; two slots of headroom).
pub const MAX_GATES: usize = 8;

/// A record's gate bindings, stored **inline** in the record slab rather
/// than behind a per-record heap `Vec`. A cold-flow hit then costs slab
/// accesses whose neighbouring lines the hardware prefetcher streams,
/// instead of a dependent pointer chase into allocator scatter — and a
/// million-record table makes zero per-record allocations.
///
/// Layout is structure-of-arrays, hottest field first: the per-gate
/// fast path reads only `instances`, so for a pointer-sized `V` every
/// gate's binding for a flow lands in **one cache line**, adjacent to
/// the record header the lookup already touched. Filters are consulted
/// on control-plane invalidation, soft state only when a bound plugin
/// runs.
#[repr(C)]
pub struct GateArray<V> {
    instances: [Option<V>; MAX_GATES],
    filters: [Option<FilterId>; MAX_GATES],
    soft: [Option<Box<dyn Any + Send>>; MAX_GATES],
    len: u8,
}

impl<V> GateArray<V> {
    fn new(len: usize) -> Self {
        assert!(
            len <= MAX_GATES,
            "flow table supports at most {MAX_GATES} gates"
        );
        GateArray {
            instances: std::array::from_fn(|_| None),
            filters: [None; MAX_GATES],
            soft: std::array::from_fn(|_| None),
            len: len as u8,
        }
    }

    /// Number of gate slots in use.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when configured with zero gates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The instance bound at `gate` (the per-packet fast-path read).
    pub fn instance(&self, gate: usize) -> Option<&V> {
        if gate >= self.len() {
            return None;
        }
        self.instances[gate].as_ref()
    }

    /// Bind (or unbind) an instance at `gate`.
    pub fn set_instance(&mut self, gate: usize, v: Option<V>) {
        assert!(gate < self.len());
        self.instances[gate] = v;
    }

    /// All in-use instance slots (for bound-anywhere scans).
    pub fn instances(&self) -> &[Option<V>] {
        &self.instances[..self.len()]
    }

    /// The filter the binding at `gate` was derived from.
    pub fn filter(&self, gate: usize) -> Option<FilterId> {
        self.filters.get(self.check(gate)?).copied().flatten()
    }

    /// Record the filter a binding was derived from.
    pub fn set_filter(&mut self, gate: usize, f: Option<FilterId>) {
        assert!(gate < self.len());
        self.filters[gate] = f;
    }

    /// Per-flow plugin soft state at `gate` (shared view).
    pub fn soft(&self, gate: usize) -> Option<&(dyn Any + Send)> {
        self.soft[self.check(gate)?].as_deref()
    }

    /// Mutable slot for per-flow plugin soft state at `gate`.
    pub fn soft_mut(&mut self, gate: usize) -> Option<&mut Option<Box<dyn Any + Send>>> {
        let g = self.check(gate)?;
        Some(&mut self.soft[g])
    }

    /// One-access fetch of a gate's bound instance, filter id and
    /// soft-state slot (the data path's per-gate plugin call). `None`
    /// when nothing is bound at `gate`.
    pub fn binding_mut(&mut self, gate: usize) -> Option<crate::aiu::BindingMut<'_, V>> {
        let g = self.check(gate)?;
        let inst = self.instances[g].as_ref()?;
        Some((inst, self.filters[g], &mut self.soft[g]))
    }

    fn check(&self, gate: usize) -> Option<usize> {
        (gate < self.len()).then_some(gate)
    }

    /// Move every binding out (for eviction callbacks), leaving defaults.
    fn take_all(&mut self) -> Vec<GateBinding<V>> {
        (0..self.len())
            .map(|g| GateBinding {
                instance: self.instances[g].take(),
                filter: self.filters[g].take(),
                soft_state: self.soft[g].take(),
            })
            .collect()
    }

    fn reset(&mut self) {
        for g in 0..self.len() {
            self.instances[g] = None;
            self.filters[g] = None;
            self.soft[g] = None;
        }
    }
}

/// One row of the flow table. `repr(C)` keeps the header (key, chain
/// link, timestamps) and the gate instances on adjacent cache lines —
/// the only bytes a forwarded packet touches.
#[repr(C)]
pub struct FlowRecord<V> {
    /// The fully specified six-tuple identifying the flow.
    pub key: FlowTuple,
    /// Chain link (next record in the same hash bucket; [`EMPTY`]
    /// terminates).
    next: u32,
    /// Cached [`flow_hash`] of the key: bucket migration and unlinking
    /// must not rehash, and the resize path never touches the key bytes.
    hash: u32,
    /// Insertion sequence number (for oldest-first recycling).
    seq: u64,
    /// Virtual time of the last lookup hit (for idle expiry).
    last_used: u64,
    /// Slot-in-use flag (false = on the free list).
    live: bool,
    /// Per-gate bindings, indexed by gate id, inline in the slab (after
    /// the header so the hot `instances` line is adjacent to it).
    pub gates: GateArray<V>,
}

/// Flow table configuration (paper defaults).
#[derive(Debug, Clone, Copy)]
pub struct FlowTableConfig {
    /// Number of hash buckets at boot ("default value used in our kernel
    /// is 32768").
    pub buckets: usize,
    /// Ceiling for incremental bucket-array doubling (`0` pins the array
    /// at `buckets` — no resize, the paper's fixed-size behaviour). Must
    /// be a power of two when non-zero.
    pub max_buckets: usize,
    /// Initial free-list size ("default is 1024").
    pub initial_records: usize,
    /// Hard cap on allocated records; beyond this the oldest are recycled.
    pub max_records: usize,
    /// Number of gates each record carries bindings for.
    pub gates: usize,
    /// Admission control against cache thrash. `0` keeps the legacy
    /// behaviour (recycle the oldest record when full). When non-zero, a
    /// full table reclaims an *idle* record (unused for `max_idle_ns`)
    /// found within a bounded clock-hand scan, and otherwise **denies**
    /// the insert — a one-packet-flow flood then degrades the flood's own
    /// flows (no cached record) instead of recycling established ones.
    pub max_idle_ns: u64,
    /// Inline LRU eviction at the cap: instead of denying when nothing in
    /// the probe run is idle, evict the *coldest* (least recently used)
    /// record seen in the bounded scan. The right policy for
    /// established-flow churn workloads; leave off to keep strict
    /// admission-denial semantics under floods.
    pub lru_evict: bool,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig {
            buckets: 32768,
            max_buckets: 1 << 22,
            initial_records: 1024,
            max_records: 65536,
            gates: 4,
            max_idle_ns: 0,
            lru_evict: false,
        }
    }
}

/// Statistics exposed for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Records recycled (evicted while live).
    pub recycled: u64,
    /// Inserts denied by admission control (table full, nothing idle).
    pub denied: u64,
    /// Idle records reclaimed inline at the allocation cap.
    pub inline_expired: u64,
    /// Coldest-record evictions at the cap (LRU policy).
    pub evicted_lru: u64,
    /// Buckets migrated by the incremental-resize machinery.
    pub resize_steps: u64,
    /// Current allocation (live + free).
    pub allocated: usize,
    /// Live records.
    pub live: usize,
}

impl FlowTableStats {
    /// Fold another table's counters into this one. A sharded data plane
    /// runs one flow table per worker; control-plane reporting sums them
    /// into the view a single-table router would show.
    pub fn absorb(&mut self, other: &FlowTableStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.denied += other.denied;
        self.inline_expired += other.inline_expired;
        self.evicted_lru += other.evicted_lru;
        self.resize_steps += other.resize_steps;
        self.allocated += other.allocated;
        self.live += other.live;
    }
}

/// Chain terminator / empty-bucket sentinel. Bare `u32` heads instead of
/// `Option<u32>` halve the bucket arrays (a million-flow table carries
/// megabytes of them — fewer cache lines and TLB entries on every probe).
const EMPTY: u32 = u32::MAX;

/// The flow cache.
pub struct FlowTable<V> {
    /// Current bucket array (the *new* array while a resize is active).
    buckets: Vec<u32>,
    /// Previous bucket array during an incremental resize; empty
    /// otherwise. Buckets below `migrate_pos` have been drained into
    /// `buckets`.
    old_buckets: Vec<u32>,
    /// Migration cursor into `old_buckets`.
    migrate_pos: usize,
    records: Vec<FlowRecord<V>>,
    free: Vec<u32>,
    cfg: FlowTableConfig,
    next_seq: u64,
    now_ns: u64,
    /// Clock hand for the bounded idle-reclaim scan at the cap.
    hand: usize,
    stats: FlowTableStats,
}

/// Slots examined per at-cap idle-reclaim attempt. Bounds the hot-path
/// cost of admission control: one insert never scans more than this many
/// records, no matter how large the table.
const RECLAIM_SCAN: usize = 64;

/// Old-array buckets migrated per `lookup`/`insert` while a resize is in
/// flight. Two per operation means a resize completes after at most
/// `old_buckets / 2` operations while bounding any single packet's extra
/// work to two (usually short) chain relinks.
const MIGRATE_BUCKETS_PER_OP: usize = 2;

impl<V> FlowTable<V> {
    /// Build with the given configuration.
    pub fn new(cfg: FlowTableConfig) -> Self {
        assert!(cfg.buckets.is_power_of_two(), "bucket count must be 2^k");
        assert!(
            cfg.max_buckets == 0 || cfg.max_buckets.is_power_of_two(),
            "max bucket count must be 0 or 2^k"
        );
        assert!(cfg.initial_records >= 1);
        let mut t = FlowTable {
            buckets: vec![EMPTY; cfg.buckets],
            old_buckets: Vec::new(),
            migrate_pos: 0,
            records: Vec::new(),
            free: Vec::new(),
            cfg,
            next_seq: 0,
            now_ns: 0,
            hand: 0,
            stats: FlowTableStats::default(),
        };
        t.grow(cfg.initial_records);
        t
    }

    fn grow(&mut self, n: usize) {
        let start = self.records.len();
        for i in 0..n {
            self.records.push(FlowRecord {
                key: dummy_key(),
                gates: GateArray::new(self.cfg.gates),
                next: EMPTY,
                hash: 0,
                seq: 0,
                last_used: 0,
                live: false,
            });
            self.free.push((start + i) as u32);
        }
        self.stats.allocated = self.records.len();
    }

    /// Bucket-array ceiling: `max_buckets`, floored at the boot size.
    fn bucket_cap(&self) -> usize {
        if self.cfg.max_buckets == 0 {
            self.cfg.buckets
        } else {
            self.cfg.max_buckets.max(self.cfg.buckets)
        }
    }

    /// Current bucket-array size (tests/benches; grows under incremental
    /// resize).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// True while an incremental resize is migrating buckets.
    pub fn resizing(&self) -> bool {
        !self.old_buckets.is_empty()
    }

    /// Rough resident size: bucket arrays + record slab (including the
    /// inline per-gate bindings) + free list. Used by the scale bench's
    /// bounded-memory gate; excludes plugin soft state (opaque boxes).
    pub fn approx_mem_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.buckets.capacity() + self.old_buckets.capacity()) * size_of::<u32>()
            + self.records.capacity() * size_of::<FlowRecord<V>>()
            + self.free.capacity() * size_of::<u32>()
    }

    /// Advance the table's virtual clock (drives idle expiry; the router
    /// calls this as packets arrive).
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Find a live record for `key` without touching stats or timers.
    /// Probes the current chain, then (during a resize) the old one.
    fn find(&self, key: &FlowTuple, hash: u32) -> Option<u32> {
        let mut cur = self.buckets[(hash as usize) & (self.buckets.len() - 1)];
        while cur != EMPTY {
            let r = &self.records[cur as usize];
            if r.key == *key {
                return Some(cur);
            }
            cur = r.next;
        }
        if !self.old_buckets.is_empty() {
            let mut cur = self.old_buckets[(hash as usize) & (self.old_buckets.len() - 1)];
            while cur != EMPTY {
                let r = &self.records[cur as usize];
                if r.key == *key {
                    return Some(cur);
                }
                cur = r.next;
            }
        }
        None
    }

    /// Cached-path lookup: the FIX for `key` if present. One hash + chain
    /// walk; a hit refreshes the record's idle timer.
    pub fn lookup(&mut self, key: &FlowTuple) -> Option<FlowIndex> {
        self.lookup_hashed(key, flow_hash(key))
    }

    /// [`lookup`](Self::lookup) with the caller's precomputed
    /// [`flow_hash`] — the AIU hashes each packet exactly once and threads
    /// the value through lookup *and* the subsequent insert, so even the
    /// admission-denied flood path pays for one hash.
    pub fn lookup_hashed(&mut self, key: &FlowTuple, hash: u32) -> Option<FlowIndex> {
        let found = self.find(key, hash);
        let out = match found {
            Some(idx) => {
                self.stats.hits += 1;
                self.records[idx as usize].last_used = self.now_ns;
                Some(FlowIndex(idx))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        };
        self.migrate_step();
        out
    }

    /// Allocation-free idle-expiry sweep ("if a cached flow remains idle
    /// for an extended period, its cached entry may be removed", paper
    /// §3.2): flows idle longer than `max_idle_ns` are evicted and
    /// appended to `out` (typically a scratch buffer the caller drains
    /// and reuses). Returns how many were evicted.
    pub fn expire_idle_into(&mut self, max_idle_ns: u64, out: &mut Vec<EvictedFlow<V>>) -> usize {
        let cutoff = self.now_ns.saturating_sub(max_idle_ns);
        let mut evicted = 0;
        for i in 0..self.records.len() {
            let r = &self.records[i];
            if r.live && r.last_used < cutoff {
                if let Some(ev) = self.remove(FlowIndex(i as u32)) {
                    out.push(ev);
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Non-counting peek (used by tests/diagnostics).
    pub fn peek(&self, key: &FlowTuple) -> Option<FlowIndex> {
        self.find(key, flow_hash(key)).map(FlowIndex)
    }

    /// Insert a record for `key` (which must not be cached), returning its
    /// FIX and, when a live record had to be recycled, the evicted record's
    /// bindings so the caller can run plugin eviction callbacks. Always
    /// succeeds: at the cap this recycles the oldest record regardless of
    /// admission policy.
    pub fn insert(&mut self, key: FlowTuple) -> (FlowIndex, Option<EvictedFlow<V>>) {
        let hash = flow_hash(&key);
        self.insert_hashed(key, hash)
    }

    /// [`insert`](Self::insert) with a precomputed [`flow_hash`].
    pub fn insert_hashed(
        &mut self,
        key: FlowTuple,
        hash: u32,
    ) -> (FlowIndex, Option<EvictedFlow<V>>) {
        self.insert_inner(key, hash, false)
            .expect("insert without admission control is infallible")
    }

    /// Admission-controlled insert: like [`insert`](Self::insert), but when
    /// the table is at its cap and `max_idle_ns` is configured, only an
    /// *idle* record (found within a bounded clock-hand scan) may be
    /// reclaimed. With every record busy the insert is **denied**
    /// (`None`, counted in [`FlowTableStats::denied`]) — the flow-cache
    /// equivalent of a `FlowTableFull` error: established flows keep
    /// their records and the new flow runs uncached. With
    /// [`FlowTableConfig::lru_evict`] the deny becomes a coldest-record
    /// eviction instead.
    pub fn try_insert(&mut self, key: FlowTuple) -> Option<(FlowIndex, Option<EvictedFlow<V>>)> {
        let hash = flow_hash(&key);
        self.try_insert_hashed(key, hash)
    }

    /// [`try_insert`](Self::try_insert) with a precomputed [`flow_hash`].
    pub fn try_insert_hashed(
        &mut self,
        key: FlowTuple,
        hash: u32,
    ) -> Option<(FlowIndex, Option<EvictedFlow<V>>)> {
        let admission = self.cfg.max_idle_ns > 0 || self.cfg.lru_evict;
        self.insert_inner(key, hash, admission)
    }

    fn insert_inner(
        &mut self,
        key: FlowTuple,
        hash: u32,
        admission: bool,
    ) -> Option<(FlowIndex, Option<EvictedFlow<V>>)> {
        debug_assert!(self.find(&key, hash).is_none(), "flow already cached");
        let mut evicted = None;
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                if self.records.len() < self.cfg.max_records {
                    // Exponential growth: double (capped at max).
                    let add = self
                        .records
                        .len()
                        .min(self.cfg.max_records - self.records.len());
                    self.grow(add.max(1));
                    self.free.pop().expect("grew the free list")
                } else if admission {
                    match self.reclaim_victim() {
                        Some((victim, was_idle)) => {
                            evicted = Some(self.evict(victim));
                            if was_idle {
                                self.stats.inline_expired += 1;
                            } else {
                                self.stats.evicted_lru += 1;
                            }
                            victim
                        }
                        None => {
                            self.stats.denied += 1;
                            return None;
                        }
                    }
                } else {
                    let victim = self.oldest_live().expect("table full but nothing live");
                    evicted = Some(self.evict(victim));
                    self.stats.recycled += 1;
                    victim
                }
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let b = (hash as usize) & (self.buckets.len() - 1);
        {
            let head = self.buckets[b];
            let r = &mut self.records[idx as usize];
            r.key = key;
            r.hash = hash;
            r.seq = seq;
            r.last_used = self.now_ns;
            r.live = true;
            r.next = head;
            r.gates.reset();
            self.buckets[b] = idx;
        }
        self.stats.live += 1;
        self.maybe_start_resize();
        self.migrate_step();
        Some((FlowIndex(idx), evicted))
    }

    /// Begin an incremental bucket-array doubling when the live-record
    /// count has outgrown the array (load factor > 1) and the ceiling
    /// allows it. The old array stays live; [`Self::migrate_step`] drains
    /// it a few buckets at a time.
    fn maybe_start_resize(&mut self) {
        if !self.old_buckets.is_empty() {
            return;
        }
        let cur = self.buckets.len();
        if self.stats.live <= cur || cur >= self.bucket_cap() {
            return;
        }
        let new_len = (cur * 2).min(self.bucket_cap());
        self.old_buckets = std::mem::replace(&mut self.buckets, vec![EMPTY; new_len]);
        self.migrate_pos = 0;
    }

    /// Drain up to [`MIGRATE_BUCKETS_PER_OP`] buckets from the old array
    /// into the current one. Called from every lookup/insert while a
    /// resize is active, so migration cost is amortized over the packets
    /// that caused the growth.
    fn migrate_step(&mut self) {
        if self.old_buckets.is_empty() {
            return;
        }
        let mask = self.buckets.len() - 1;
        for _ in 0..MIGRATE_BUCKETS_PER_OP {
            if self.migrate_pos >= self.old_buckets.len() {
                break;
            }
            let mut cur = std::mem::replace(&mut self.old_buckets[self.migrate_pos], EMPTY);
            while cur != EMPTY {
                let next = self.records[cur as usize].next;
                let nb = (self.records[cur as usize].hash as usize) & mask;
                self.records[cur as usize].next = self.buckets[nb];
                self.buckets[nb] = cur;
                cur = next;
            }
            self.migrate_pos += 1;
            self.stats.resize_steps += 1;
        }
        if self.migrate_pos >= self.old_buckets.len() {
            self.old_buckets = Vec::new();
            self.migrate_pos = 0;
        }
    }

    /// At-cap victim selection: advance the clock hand over at most
    /// [`RECLAIM_SCAN`] slots. An *idle* record (past `max_idle_ns`) wins
    /// immediately; otherwise, under the LRU policy, the coldest live
    /// record seen in the window is evicted. No allocation, no full-slab
    /// sweep — the bounded cost rides on the (already slow)
    /// classification-miss path. Returns `(victim, was_idle)`.
    fn reclaim_victim(&mut self) -> Option<(u32, bool)> {
        let idle_cutoff = if self.cfg.max_idle_ns > 0 {
            Some(self.now_ns.saturating_sub(self.cfg.max_idle_ns))
        } else {
            None
        };
        let n = self.records.len();
        let mut coldest: Option<u32> = None;
        for _ in 0..RECLAIM_SCAN.min(n) {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            let r = &self.records[i];
            if !r.live {
                continue;
            }
            if idle_cutoff.is_some_and(|c| r.last_used < c) {
                return Some((i as u32, true));
            }
            if self.cfg.lru_evict {
                let colder = match coldest {
                    None => true,
                    Some(c) => {
                        let cr = &self.records[c as usize];
                        (r.last_used, r.seq) < (cr.last_used, cr.seq)
                    }
                };
                if colder {
                    coldest = Some(i as u32);
                }
            }
        }
        coldest.map(|c| (c, false))
    }

    fn oldest_live(&self) -> Option<u32> {
        // Oldest-first recycling. A scan keeps the fast path free of list
        // maintenance; recycling only happens at the allocation cap.
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.live)
            .min_by_key(|(_, r)| r.seq)
            .map(|(i, _)| i as u32)
    }

    /// Remove `idx` from whichever chain holds it — the current array, or
    /// (mid-resize) the not-yet-migrated old bucket.
    fn unlink(&mut self, idx: u32) {
        let hash = self.records[idx as usize].hash;
        let nb = (hash as usize) & (self.buckets.len() - 1);
        if Self::unlink_from(&mut self.buckets, &mut self.records, nb, idx) {
            return;
        }
        if !self.old_buckets.is_empty() {
            let ob = (hash as usize) & (self.old_buckets.len() - 1);
            Self::unlink_from(&mut self.old_buckets, &mut self.records, ob, idx);
        }
    }

    fn unlink_from(heads: &mut [u32], records: &mut [FlowRecord<V>], b: usize, idx: u32) -> bool {
        let mut cur = heads[b];
        if cur == idx {
            heads[b] = records[idx as usize].next;
            return true;
        }
        while cur != EMPTY {
            let next = records[cur as usize].next;
            if next == idx {
                records[cur as usize].next = records[idx as usize].next;
                return true;
            }
            cur = next;
        }
        false
    }

    fn evict(&mut self, idx: u32) -> EvictedFlow<V> {
        self.unlink(idx);
        let r = &mut self.records[idx as usize];
        r.live = false;
        let gates = r.gates.take_all();
        self.stats.live -= 1;
        EvictedFlow { key: r.key, gates }
    }

    /// Remove a cached flow explicitly (e.g. when its filter is removed),
    /// returning its bindings for eviction callbacks.
    pub fn remove(&mut self, fix: FlowIndex) -> Option<EvictedFlow<V>> {
        let idx = fix.0;
        if !self.records.get(idx as usize)?.live {
            return None;
        }
        let out = self.evict(idx);
        self.free.push(idx);
        Some(out)
    }

    /// Drop every cached flow whose key matches `spec` (the AIU calls
    /// this when a *new* filter is installed: cached flows it matches may
    /// now classify differently and must be re-resolved on their next
    /// packet). Returns the evicted flows.
    pub fn invalidate_matching(&mut self, spec: &crate::filter::FilterSpec) -> Vec<EvictedFlow<V>> {
        let victims: Vec<u32> = self
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.live && spec.matches(&r.key))
            .map(|(i, _)| i as u32)
            .collect();
        victims
            .into_iter()
            .filter_map(|v| self.remove(FlowIndex(v)))
            .collect()
    }

    /// Drop every cached flow derived from `filter` at `gate` (the AIU
    /// calls this when a filter is removed — paper §4,
    /// `deregister_instance` semantics). Returns the evicted flows.
    pub fn invalidate_filter(&mut self, gate: usize, filter: FilterId) -> Vec<EvictedFlow<V>> {
        let victims: Vec<u32> = self
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.live && r.gates.filter(gate) == Some(filter))
            .map(|(i, _)| i as u32)
            .collect();
        victims
            .into_iter()
            .filter_map(|v| self.remove(FlowIndex(v)))
            .collect()
    }

    /// Drop every cached flow for which `pred` holds (the router calls
    /// this when it quarantines a faulted plugin instance: any record
    /// still binding that instance at *any* gate must be re-resolved so
    /// its flows fall back to the gate's default path). Returns the
    /// evicted flows.
    pub fn invalidate_where(
        &mut self,
        mut pred: impl FnMut(&FlowRecord<V>) -> bool,
    ) -> Vec<EvictedFlow<V>> {
        let victims: Vec<u32> = self
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.live && pred(r))
            .map(|(i, _)| i as u32)
            .collect();
        victims
            .into_iter()
            .filter_map(|v| self.remove(FlowIndex(v)))
            .collect()
    }

    /// Access a record by FIX.
    pub fn record(&self, fix: FlowIndex) -> Option<&FlowRecord<V>> {
        self.records.get(fix.0 as usize).filter(|r| r.live)
    }

    /// Mutable access to a record by FIX.
    pub fn record_mut(&mut self, fix: FlowIndex) -> Option<&mut FlowRecord<V>> {
        self.records.get_mut(fix.0 as usize).filter(|r| r.live)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }

    /// Number of live flows.
    pub fn live(&self) -> usize {
        self.stats.live
    }
}

/// Bindings of a removed/recycled flow, handed back for plugin callbacks.
pub struct EvictedFlow<V> {
    /// The evicted flow's key.
    pub key: FlowTuple,
    /// Its per-gate bindings (instances + soft state).
    pub gates: Vec<GateBinding<V>>,
}

fn dummy_key() -> FlowTuple {
    FlowTuple {
        src: IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED),
        dst: IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED),
        proto: 0,
        sport: 0,
        dport: 0,
        rx_if: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowTuple {
        FlowTuple {
            src: IpAddr::V4(Ipv4Addr::from(0x0A00_0000 | i)),
            dst: IpAddr::V4(Ipv4Addr::from(0x1400_0000 | i)),
            proto: 17,
            sport: (i % 60000) as u16,
            dport: 80,
            rx_if: 0,
        }
    }

    fn small() -> FlowTable<u32> {
        FlowTable::new(FlowTableConfig {
            buckets: 64,
            max_buckets: 0,
            initial_records: 4,
            max_records: 8,
            gates: 2,
            max_idle_ns: 0,
            lru_evict: false,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = small();
        assert!(t.lookup(&key(1)).is_none());
        let (fix, ev) = t.insert(key(1));
        assert!(ev.is_none());
        assert_eq!(t.lookup(&key(1)), Some(fix));
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn bindings_round_trip() {
        let mut t = small();
        let (fix, _) = t.insert(key(1));
        {
            let r = t.record_mut(fix).unwrap();
            r.gates.set_instance(0, Some(77));
            r.gates.set_filter(0, Some(FilterId(5)));
            *r.gates.soft_mut(0).unwrap() = Some(Box::new("queue".to_string()));
        }
        let r = t.record(fix).unwrap();
        assert_eq!(r.gates.instance(0), Some(&77));
        assert_eq!(r.gates.filter(0), Some(FilterId(5)));
        assert_eq!(
            r.gates.soft(0).unwrap().downcast_ref::<String>().unwrap(),
            "queue"
        );
        assert!(r.gates.instance(1).is_none());
    }

    #[test]
    fn exponential_growth_then_recycling() {
        let mut t = small(); // 4 initial, max 8
        for i in 0..8 {
            t.insert(key(i));
        }
        assert_eq!(t.stats().allocated, 8);
        assert_eq!(t.live(), 8);
        // Ninth insert recycles the oldest (key 0).
        let (_, ev) = t.insert(key(100));
        let ev = ev.expect("must recycle");
        assert_eq!(ev.key, key(0));
        assert_eq!(t.live(), 8);
        assert!(t.lookup(&key(0)).is_none());
        assert!(t.lookup(&key(100)).is_some());
        assert_eq!(t.stats().recycled, 1);
    }

    #[test]
    fn chains_survive_unlink() {
        // Force collisions with a single bucket (max_buckets: 0 pins the
        // array so incremental resize can't break the chains apart).
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 1,
            max_buckets: 0,
            initial_records: 4,
            max_records: 16,
            gates: 1,
            max_idle_ns: 0,
            lru_evict: false,
        });
        let (f1, _) = t.insert(key(1));
        let (_f2, _) = t.insert(key(2));
        let (_f3, _) = t.insert(key(3));
        // Remove the middle of the chain.
        t.remove(f1).unwrap();
        assert!(t.lookup(&key(1)).is_none());
        assert!(t.lookup(&key(2)).is_some());
        assert!(t.lookup(&key(3)).is_some());
        // Reuse the freed slot.
        let (f4, _) = t.insert(key(4));
        assert!(t.lookup(&key(4)) == Some(f4));
    }

    #[test]
    fn invalidate_filter_drops_derived_flows() {
        let mut t = small();
        for i in 0..3 {
            let (fix, _) = t.insert(key(i));
            let r = t.record_mut(fix).unwrap();
            r.gates
                .set_filter(1, Some(FilterId(if i == 1 { 9 } else { 5 })));
            r.gates.set_instance(1, Some(i));
        }
        let evicted = t.invalidate_filter(1, FilterId(5));
        assert_eq!(evicted.len(), 2);
        assert!(t.lookup(&key(1)).is_some());
        assert!(t.lookup(&key(0)).is_none());
        assert!(t.lookup(&key(2)).is_none());
    }

    #[test]
    fn invalidate_where_drops_matching_records() {
        let mut t = small();
        for i in 0..4 {
            let (fix, _) = t.insert(key(i));
            let r = t.record_mut(fix).unwrap();
            // Bind instance 7 at gate 0 for even flows only.
            if i % 2 == 0 {
                r.gates.set_instance(0, Some(7));
            }
        }
        let evicted = t.invalidate_where(|r| r.gates.instances().contains(&Some(7)));
        assert_eq!(evicted.len(), 2);
        assert!(t.peek(&key(0)).is_none());
        assert!(t.peek(&key(1)).is_some());
        assert!(t.peek(&key(2)).is_none());
        assert!(t.peek(&key(3)).is_some());
        // Idempotent once the matching records are gone.
        assert!(t
            .invalidate_where(|r| r.gates.instances().contains(&Some(7)))
            .is_empty());
    }

    #[test]
    fn hash_spreads() {
        // Distinct flows should not all collide: over 1000 keys and 256
        // buckets, expect a reasonable spread.
        let mut buckets = vec![0u32; 256];
        for i in 0..1000 {
            buckets[(flow_hash(&key(i)) as usize) % 256] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max < 30, "worst bucket has {max} of 1000 keys");
        let empty = buckets.iter().filter(|b| **b == 0).count();
        assert!(empty < 30, "{empty} of 256 buckets empty");
    }

    #[test]
    fn hash_depends_on_each_field() {
        let base = key(1);
        let h = flow_hash(&base);
        let mut t = base;
        t.sport ^= 1;
        assert_ne!(flow_hash(&t), h);
        let mut t = base;
        t.dport ^= 1;
        assert_ne!(flow_hash(&t), h);
        let mut t = base;
        t.proto ^= 1;
        assert_ne!(flow_hash(&t), h);
        let mut t = base;
        t.src = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));
        assert_ne!(flow_hash(&t), h);
        let mut t = base;
        t.rx_if ^= 1;
        assert_ne!(flow_hash(&t), h);
    }

    #[test]
    fn idle_expiry() {
        let mut t = small();
        t.set_now(0);
        let (f1, _) = t.insert(key(1));
        t.set_now(1_000_000);
        let (_f2, _) = t.insert(key(2));
        // Touch flow 1 at t=2ms: refreshes its idle timer.
        t.set_now(2_000_000);
        assert_eq!(t.lookup(&key(1)), Some(f1));
        // At t=2.5ms with 1ms max idle: flow 2 (last used at 1ms) dies,
        // flow 1 (used at 2ms) survives.
        t.set_now(2_500_000);
        let mut evicted = Vec::new();
        assert_eq!(t.expire_idle_into(1_000_000, &mut evicted), 1);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, key(2));
        assert!(t.peek(&key(1)).is_some());
        assert!(t.peek(&key(2)).is_none());
        // Expiring again is a no-op.
        evicted.clear();
        assert_eq!(t.expire_idle_into(1_000_000, &mut evicted), 0);
        assert!(evicted.is_empty());
    }

    fn defended() -> FlowTable<u32> {
        FlowTable::new(FlowTableConfig {
            buckets: 64,
            max_buckets: 0,
            initial_records: 4,
            max_records: 8,
            gates: 2,
            max_idle_ns: 1_000_000,
            lru_evict: false,
        })
    }

    #[test]
    fn admission_denies_when_full_of_busy_flows() {
        let mut t = defended();
        t.set_now(10_000_000);
        for i in 0..8 {
            assert!(t.try_insert(key(i)).is_some());
        }
        // All 8 records were used "now": nothing is idle, so the flood
        // flow is denied and every established record survives.
        let before = t.stats();
        assert!(t.try_insert(key(100)).is_none());
        assert_eq!(t.stats().denied, before.denied + 1);
        assert_eq!(t.live(), 8);
        for i in 0..8 {
            assert!(t.peek(&key(i)).is_some(), "established flow {i} evicted");
        }
        assert!(t.peek(&key(100)).is_none());
        // Plain insert still recycles (legacy escape hatch).
        let (_, ev) = t.insert(key(101));
        assert!(ev.is_some());
    }

    #[test]
    fn admission_reclaims_idle_inline() {
        let mut t = defended();
        t.set_now(0);
        for i in 0..8 {
            t.try_insert(key(i)).unwrap();
        }
        // Refresh all but flow 3, then advance past the idle window.
        t.set_now(6_000_000);
        for i in 0..8 {
            if i != 3 {
                t.lookup(&key(i));
            }
        }
        t.set_now(6_500_000);
        let (_, ev) = t.try_insert(key(200)).expect("idle record reclaimable");
        let ev = ev.expect("reclaim returns the evicted flow");
        assert_eq!(ev.key, key(3), "only the idle flow is reclaimable");
        assert_eq!(t.stats().inline_expired, 1);
        assert_eq!(t.stats().recycled, 0, "inline expiry is not recycling");
        assert!(t.peek(&key(200)).is_some());
        // Now every record is busy again → next insert is denied.
        assert!(t.try_insert(key(201)).is_none());
    }

    #[test]
    fn lru_evicts_coldest_instead_of_denying() {
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 64,
            max_buckets: 0,
            initial_records: 4,
            max_records: 8,
            gates: 2,
            max_idle_ns: 1_000_000,
            lru_evict: true,
        });
        t.set_now(0);
        for i in 0..8 {
            t.try_insert(key(i)).unwrap();
        }
        // Touch everything recently — but flow 5 least recently — with all
        // records inside the idle window, so idle reclaim finds nothing.
        t.set_now(10_000_000);
        t.lookup(&key(5));
        t.set_now(10_500_000);
        for i in 0..8 {
            if i != 5 {
                t.lookup(&key(i));
            }
        }
        t.set_now(10_600_000);
        let (_, ev) = t.try_insert(key(300)).expect("LRU eviction, not denial");
        let ev = ev.expect("eviction returns the coldest flow");
        assert_eq!(ev.key, key(5), "coldest record is the LRU victim");
        let s = t.stats();
        assert_eq!(s.evicted_lru, 1);
        assert_eq!(s.denied, 0);
        assert_eq!(s.inline_expired, 0, "nothing was idle");
        assert!(t.peek(&key(300)).is_some());
        assert_eq!(t.live(), 8);
    }

    #[test]
    fn incremental_resize_preserves_every_flow() {
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 8,
            max_buckets: 1024,
            initial_records: 4,
            max_records: 4096,
            gates: 1,
            max_idle_ns: 0,
            lru_evict: false,
        });
        const N: u32 = 700;
        for i in 0..N {
            t.insert(key(i));
            // Every already-inserted flow stays reachable mid-migration.
            if i % 97 == 0 {
                for j in (0..=i).step_by(61) {
                    assert!(t.peek(&key(j)).is_some(), "flow {j} lost at insert {i}");
                }
            }
        }
        assert!(t.stats().resize_steps > 0, "resize never ran");
        assert!(t.bucket_count() > 8, "bucket array never grew");
        assert_eq!(t.live(), N as usize);
        for i in 0..N {
            assert!(t.lookup(&key(i)).is_some(), "flow {i} lost after resize");
        }
        // Drive any in-flight migration to completion with lookups only.
        let mut guard = 0;
        while t.resizing() {
            t.lookup(&key(0));
            guard += 1;
            assert!(guard < 100_000, "migration never completes");
        }
        assert_eq!(t.bucket_count(), 1024);
        for i in 0..N {
            assert!(t.peek(&key(i)).is_some(), "flow {i} lost post-migration");
        }
    }

    #[test]
    fn removal_mid_resize_unlinks_from_correct_chain() {
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 2,
            max_buckets: 256,
            initial_records: 4,
            max_records: 512,
            gates: 1,
            max_idle_ns: 0,
            lru_evict: false,
        });
        let mut fixes = Vec::new();
        for i in 0..64 {
            fixes.push(t.insert(key(i)).0);
        }
        assert!(t.resizing() || t.stats().resize_steps > 0);
        // Remove every third flow — some still sit in old-array chains.
        for (i, fix) in fixes.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.remove(*fix).is_some(), "flow {i} missing");
            }
        }
        for i in 0..64u32 {
            let present = t.peek(&key(i)).is_some();
            assert_eq!(present, i % 3 != 0, "flow {i} wrong presence");
        }
        assert_eq!(t.live(), 64 - 22);
    }

    #[test]
    fn expire_idle_into_reuses_buffer() {
        let mut t = small();
        t.set_now(0);
        t.insert(key(1));
        t.insert(key(2));
        t.set_now(2_000_000);
        t.lookup(&key(1));
        t.set_now(2_500_000);
        let mut scratch = Vec::with_capacity(4);
        let n = t.expire_idle_into(1_000_000, &mut scratch);
        assert_eq!(n, 1);
        assert_eq!(scratch.len(), 1);
        assert_eq!(scratch[0].key, key(2));
        // Drain and reuse: the buffer keeps its capacity, and a second
        // sweep with nothing idle appends nothing.
        scratch.clear();
        assert_eq!(t.expire_idle_into(1_000_000, &mut scratch), 0);
        assert!(scratch.is_empty());
    }

    #[test]
    fn hashed_entry_points_match_unhashed() {
        let mut a = small();
        let mut b = small();
        for i in 0..8 {
            let h = flow_hash(&key(i));
            let (fa, _) = a.insert(key(i));
            let (fb, _) = b.insert_hashed(key(i), h);
            assert_eq!(fa, fb);
        }
        for i in 0..8 {
            let h = flow_hash(&key(i));
            assert_eq!(a.lookup(&key(i)), b.lookup_hashed(&key(i), h));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn stale_fix_rejected() {
        let mut t = small();
        let (fix, _) = t.insert(key(1));
        t.remove(fix).unwrap();
        assert!(t.record(fix).is_none());
        assert!(t.remove(fix).is_none());
    }
}
