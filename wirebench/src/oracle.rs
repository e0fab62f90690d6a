//! The wire-level correctness oracle.
//!
//! Every frame read off an egress wire is checked against what the
//! router must have sent:
//!
//! * it left on the interface an uncached reference lookup
//!   ([`RoutingTable::lookup`]) picks for its destination;
//! * its TTL / hop limit is exactly one less than offered;
//! * an IPv4 header checksum is valid;
//! * every other byte — payload and sequence number included — equals
//!   the offered packet, rebuilt from the seed by [`Traffic::frame`];
//! * IPv4 fragments reassemble to exactly that packet.
//!
//! The harness offers packets in duty cycles with contiguous sequence
//! ranges, and every plane it drives settles a cycle before the next
//! starts, so each cycle must deliver its own range exactly once: a
//! sequence number that never arrives is *missing*, one outside the
//! range or seen twice is *unexpected*.

use crate::traffic::{fill_ipv4_checksum, ipv4_header_sum, seq_of, Traffic};
use router_core::ip_core::RoutingTable;
use rp_packet::mbuf::IfIndex;
use std::collections::HashMap;

/// Failure and delivery counts, in packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Packets delivered intact on the right interface.
    pub delivered: u64,
    /// Offered packets that never came out.
    pub missing: u64,
    /// Packets that left on the wrong interface.
    pub misrouted: u64,
    /// Packets whose bytes differ from the offered packet (beyond aging).
    pub corrupt: u64,
    /// Packets whose TTL / hop limit was not decremented by exactly one.
    pub bad_ttl: u64,
    /// IPv4 packets or fragments with an invalid header checksum.
    pub bad_checksum: u64,
    /// Frames outside the cycle's sequence range, or duplicates.
    pub unexpected: u64,
    /// Conservation checks that failed (each counts as one failure).
    pub conservation: u64,
    /// Frames beyond one per datagram that IPv4 fragmentation put on the
    /// wire (not a failure: conservation identities that count frames
    /// as packets must subtract these).
    pub extra_frames: u64,
}

impl Tally {
    /// Add another run's counts to these.
    pub fn absorb(&mut self, o: &Tally) {
        self.delivered += o.delivered;
        self.missing += o.missing;
        self.misrouted += o.misrouted;
        self.corrupt += o.corrupt;
        self.bad_ttl += o.bad_ttl;
        self.bad_checksum += o.bad_checksum;
        self.unexpected += o.unexpected;
        self.conservation += o.conservation;
        self.extra_frames += o.extra_frames;
    }

    /// Every failure, summed.
    pub fn failed(&self) -> u64 {
        self.missing
            + self.misrouted
            + self.corrupt
            + self.bad_ttl
            + self.bad_checksum
            + self.unexpected
            + self.conservation
    }
}

/// A plane's wire-level counters at the end of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    /// Frames the harness offered.
    pub offered: u64,
    /// Frames the router's devices read.
    pub device_rx: u64,
    /// Frames the router's devices wrote.
    pub device_tx: u64,
    /// `DataPathStats::received`.
    pub received: u64,
    /// `DataPathStats::forwarded` (the router counts every fragment).
    pub forwarded: u64,
    /// `DataPathStats::dropped_total()`.
    pub drops: u64,
    /// Extra fragment frames the oracle saw on the wire.
    pub extra_frames: u64,
}

/// Check conservation on `l`. `program_ok` is the program's own check
/// (`IoPlane::check_conservation`, or `received == forwarded + Σdrops`),
/// whose identities count each IPv4 fragment as a forwarded packet and
/// so cannot hold once fragmentation emits extra frames. The benchmark's
/// identity is fragment-aware: every offered frame was read, every
/// forwarded frame was written, and every received datagram was
/// forwarded (as one frame or several) or counted dropped. Returns a
/// note when only the program's check failed, and it failed by exactly
/// the fragments; an error on any real gap.
pub fn conservation(l: &Ledger, program_ok: bool) -> Result<Option<String>, String> {
    let exact = l.device_rx == l.offered
        && l.received == l.device_rx
        && l.forwarded == l.device_tx
        && l.received + l.extra_frames == l.forwarded + l.drops;
    if !exact {
        return Err(format!("conservation gap: {l:?}"));
    }
    match (program_ok, l.extra_frames) {
        (true, _) => Ok(None),
        (false, 0) => Err(format!("the program's conservation check failed: {l:?}")),
        (false, _) => Ok(Some(
            "the program's conservation check (received == forwarded + drops) is off by exactly \
             the extra IPv4 fragment frames (tally.extra_frames): `forwarded` counts fragments, \
             not datagrams; the fragment-aware identity holds"
                .to_string(),
        )),
    }
}

/// A datagram being reassembled from its fragments.
#[derive(Debug, Default)]
struct Partial {
    iface: IfIndex,
    header: Vec<u8>,
    pieces: Vec<(usize, Vec<u8>)>,
    total: Option<usize>,
    got: usize,
    bad_route: bool,
}

/// The oracle (see module docs).
pub struct Oracle {
    /// Reference FIB: the same routes and writes the router gets,
    /// queried only through the uncached trie lookup.
    pub reference: RoutingTable,
    /// Counts so far.
    pub tally: Tally,
    traffic: Traffic,
    expect: Vec<u8>,
    lo: u64,
    seen: Vec<bool>,
    frags: HashMap<(u32, u32, u16), Partial>,
}

impl Oracle {
    /// An oracle for `traffic` routed by `reference`.
    pub fn new(traffic: Traffic, reference: RoutingTable) -> Oracle {
        Oracle {
            reference,
            tally: Tally::default(),
            traffic,
            expect: Vec::with_capacity(4096),
            lo: 0,
            seen: Vec::new(),
            frags: HashMap::new(),
        }
    }

    /// The traffic this oracle checks against.
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// Start a cycle that offered sequence numbers `lo..hi`.
    pub fn begin_cycle(&mut self, lo: u64, hi: u64) {
        self.lo = lo;
        self.seen.clear();
        self.seen.resize((hi - lo) as usize, false);
    }

    /// End the cycle: every offered packet not yet delivered is missing,
    /// and unfinished reassemblies are discarded.
    pub fn end_cycle(&mut self) {
        self.tally.missing += self.seen.iter().filter(|s| !**s).count() as u64;
        self.seen.clear();
        self.frags.clear();
    }

    /// Record the outcome of a conservation check.
    pub fn note_conservation(&mut self, ok: bool) {
        if !ok {
            self.tally.conservation += 1;
        }
    }

    /// Check one egress frame read off interface `iface`. Returns the
    /// sequence number of a packet this frame completed intact (for
    /// latency accounting), or `None`.
    pub fn check(&mut self, iface: IfIndex, frame: &[u8]) -> Option<u64> {
        if frame.len() >= 20 && frame[0] >> 4 == 4 {
            let flags_off = u16::from_be_bytes([frame[6], frame[7]]);
            if flags_off & 0x3FFF != 0 {
                return self.fragment(iface, frame);
            }
        }
        self.whole(iface, frame)
    }

    fn whole(&mut self, iface: IfIndex, frame: &[u8]) -> Option<u64> {
        let Some(seq) = seq_of(frame) else {
            self.tally.corrupt += 1;
            return None;
        };
        let slot = seq.checked_sub(self.lo).map(|i| i as usize);
        match slot.and_then(|i| self.seen.get_mut(i)) {
            Some(s) if !*s => *s = true,
            _ => {
                self.tally.unexpected += 1;
                return None;
            }
        }
        let flow = self.traffic.frame(seq, &mut self.expect);
        let want = self.reference.lookup(flow.dst_addr()).map(|e| e.tx_if);
        if want != Some(iface) {
            self.tally.misrouted += 1;
            return None;
        }
        if frame.len() != self.expect.len() {
            self.tally.corrupt += 1;
            return None;
        }
        let ttl_at = if flow.v4 { 8 } else { 7 };
        if frame[ttl_at].wrapping_add(1) != self.expect[ttl_at] {
            self.tally.bad_ttl += 1;
            return None;
        }
        if flow.v4 && ipv4_header_sum(&frame[..usize::from(frame[0] & 0x0F) * 4]) != 0xFFFF {
            self.tally.bad_checksum += 1;
            return None;
        }
        self.expect[ttl_at] -= 1;
        if flow.v4 {
            fill_ipv4_checksum(&mut self.expect);
        }
        if frame != &self.expect[..] {
            self.tally.corrupt += 1;
            return None;
        }
        self.tally.delivered += 1;
        Some(seq)
    }

    fn fragment(&mut self, iface: IfIndex, frame: &[u8]) -> Option<u64> {
        let ihl = usize::from(frame[0] & 0x0F) * 4;
        let total = usize::from(u16::from_be_bytes([frame[2], frame[3]]));
        if ihl < 20 || total != frame.len() || total <= ihl {
            self.tally.corrupt += 1;
            return None;
        }
        if ipv4_header_sum(&frame[..ihl]) != 0xFFFF {
            self.tally.bad_checksum += 1;
            return None;
        }
        let flags_off = u16::from_be_bytes([frame[6], frame[7]]);
        let more = flags_off & 0x2000 != 0;
        let off = usize::from(flags_off & 0x1FFF) * 8;
        let data = &frame[ihl..];
        if more && !data.len().is_multiple_of(8) {
            self.tally.corrupt += 1;
            return None;
        }
        let key = (
            u32::from_be_bytes([frame[12], frame[13], frame[14], frame[15]]),
            u32::from_be_bytes([frame[16], frame[17], frame[18], frame[19]]),
            u16::from_be_bytes([frame[4], frame[5]]),
        );
        let p = self.frags.entry(key).or_insert_with(|| Partial {
            iface,
            ..Partial::default()
        });
        p.bad_route |= p.iface != iface;
        if off == 0 {
            p.header = frame[..ihl].to_vec();
        }
        if !more {
            p.total = Some(off + data.len());
        }
        p.got += data.len();
        p.pieces.push((off, data.to_vec()));
        if p.total != Some(p.got) || p.header.is_empty() {
            return None;
        }
        let mut p = self.frags.remove(&key)?;
        self.tally.extra_frames += p.pieces.len() as u64 - 1;
        p.pieces.sort_by_key(|(o, _)| *o);
        let mut datagram = p.header;
        let hl = datagram.len();
        for (o, d) in &p.pieces {
            if hl + *o != datagram.len() {
                // Overlapping or gapped fragments cannot rebuild the
                // original datagram.
                self.tally.corrupt += 1;
                return None;
            }
            datagram.extend_from_slice(d);
        }
        let len = datagram.len() as u16;
        datagram[2..4].copy_from_slice(&len.to_be_bytes());
        datagram[6] = 0;
        datagram[7] = 0;
        fill_ipv4_checksum(&mut datagram);
        if p.bad_route {
            // Mark the datagram seen so it is not also counted missing.
            if let Some(seq) = seq_of(&datagram) {
                if let Some(s) = seq
                    .checked_sub(self.lo)
                    .and_then(|i| self.seen.get_mut(i as usize))
                {
                    *s = true;
                }
            }
            self.tally.misrouted += 1;
            return None;
        }
        self.whole(p.iface, &datagram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Traffic;
    use router_core::ip_core::{fragment_v4, RouteEntry};

    /// Route the way the router should: age, re-checksum, pick the
    /// interface from the reference table.
    fn forward(o: &Oracle, seq: u64) -> (IfIndex, Vec<u8>) {
        let mut b = Vec::new();
        let flow = o.traffic().frame(seq, &mut b);
        if flow.v4 {
            b[8] -= 1;
            fill_ipv4_checksum(&mut b);
        } else {
            b[7] -= 1;
        }
        let iface = o.reference.lookup(flow.dst_addr()).unwrap().tx_if;
        (iface, b)
    }

    fn imix_oracle() -> Oracle {
        let mut rt = RoutingTable::new();
        for (net, ifc) in [(1u8, 1u32), (2, 2), (3, 3)] {
            rt.add(
                format!("10.{net}.0.0").parse().unwrap(),
                16,
                RouteEntry { tx_if: ifc },
            );
            rt.add(
                format!("2001:db8:{net}::").parse().unwrap(),
                48,
                RouteEntry { tx_if: ifc },
            );
        }
        Oracle::new(Traffic::sharded_imix(3, 32, 2), rt)
    }

    #[test]
    fn clean_stream_passes_and_fragments_reassemble() {
        let mut o = imix_oracle();
        o.begin_cycle(0, 200);
        let mut frags = 0;
        for seq in (0..200).rev() {
            let (ifc, b) = forward(&o, seq);
            if b.len() > 1500 {
                for f in fragment_v4(&b, 1500).unwrap().into_iter().rev() {
                    frags += 1;
                    o.check(ifc, &f);
                }
            } else {
                assert_eq!(o.check(ifc, &b), Some(seq));
            }
        }
        o.end_cycle();
        assert!(frags > 0, "the stream must exercise reassembly");
        assert_eq!(o.tally.failed(), 0, "{:?}", o.tally);
        assert_eq!(o.tally.delivered, 200);
    }

    #[test]
    fn fragment_damage_is_caught() {
        let mut o = imix_oracle();
        let seq = (0..1000)
            .find(|s| forward(&o, *s).1.len() > 1500)
            .expect("an oversize datagram");
        o.begin_cycle(seq, seq + 1);
        let (ifc, b) = forward(&o, seq);
        let mut fs = fragment_v4(&b, 1500).unwrap();
        let last = fs.len() - 1;
        let n = fs[last].len();
        fs[last][n - 1] ^= 1;
        for f in &fs {
            o.check(ifc, f);
        }
        o.end_cycle();
        assert_eq!((o.tally.corrupt, o.tally.failed()), (1, 1));
        assert_eq!(o.tally.extra_frames, fs.len() as u64 - 1);
    }
}
