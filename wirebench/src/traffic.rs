//! Seeded traffic for the three workloads.
//!
//! Every offered packet is a pure function of `(workload, seed, seq)`:
//! [`Traffic::frame`] writes the wire bytes of packet `seq`, and the
//! oracle calls the same function to rebuild what it expects to read off
//! the egress wire. Nothing per packet is stored, so a run can offer tens
//! of millions of packets in constant memory.
//!
//! Each packet carries its sequence number in the first eight bytes of
//! its UDP payload; IPv4 packets also carry its low 16 bits as the IP
//! identification, which keeps fragments of different datagrams apart.
//! Header fields are patched into a per-(family, size) template with
//! incremental checksum updates (RFC 1624), so every frame has a valid
//! IPv4 header checksum and a valid UDP checksum.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_packet::builder::PacketSpec;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Bytes of UDP payload the harness owns: the sequence number.
pub const SEQ_LEN: usize = 8;

/// One flow's header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Source address (IPv4 addresses use the low 32 bits).
    pub src: u128,
    /// Destination address.
    pub dst: u128,
    /// UDP source port.
    pub sport: u16,
    /// UDP destination port.
    pub dport: u16,
    /// IPv4 (true) or IPv6.
    pub v4: bool,
}

impl Flow {
    /// The destination as an address.
    pub fn dst_addr(&self) -> IpAddr {
        addr(self.v4, self.dst)
    }
}

/// `bits` as an address of the given family.
pub fn addr(v4: bool, bits: u128) -> IpAddr {
    if v4 {
        IpAddr::V4(Ipv4Addr::from(bits as u32))
    } else {
        IpAddr::V6(Ipv6Addr::from(bits))
    }
}

/// A packet template: one per (family, total size).
#[derive(Debug, Clone)]
struct Template {
    bytes: Vec<u8>,
    v4: bool,
}

impl Template {
    fn new(v4: bool, size: usize) -> Template {
        let (src, dst) = if v4 {
            (
                IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
                IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            )
        } else {
            (
                IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
                IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)),
            )
        };
        let hdr = if v4 { 20 } else { 40 } + 8;
        assert!(
            size >= hdr + SEQ_LEN,
            "packet of {size} B cannot carry a sequence number"
        );
        let mut bytes = PacketSpec::udp(src, dst, 1, 1, size - hdr).build();
        if v4 {
            // Clear DF so datagrams above the egress MTU fragment instead
            // of dropping, then refresh the header checksum.
            bytes[6] &= !0x40;
            fill_ipv4_checksum(&mut bytes);
        }
        debug_assert_eq!(bytes.len(), size);
        Template { bytes, v4 }
    }
}

/// Which packet goes out at a sequence number.
#[derive(Debug, Clone, Copy)]
pub struct Pick {
    /// The packet's flow.
    pub flow: Flow,
    /// Template index (family and size).
    tpl: u16,
}

/// How a workload chooses the packet at each sequence number.
#[derive(Debug, Clone)]
enum Shape {
    /// A fixed flow set; `schedule[seq % len]` is (flow, template).
    Fixed {
        flows: Vec<Flow>,
        schedule: Vec<(u32, u16)>,
    },
    /// Elephants plus an endless stream of mice. Schedule entries below
    /// `elephants.len()` name an elephant; the others name a mouse train
    /// slot, which maps to a fresh mouse on every pass over the schedule.
    Churn {
        elephants: Vec<Flow>,
        schedule: Vec<u32>,
        trains_per_pass: u32,
        mouse_dsts: Vec<u32>,
        mouse_space: u32,
    },
}

/// A workload's traffic (see module docs).
#[derive(Debug, Clone)]
pub struct Traffic {
    templates: Vec<Template>,
    shape: Shape,
}

/// Length of a schedule pass (packets).
const PASS: usize = 1 << 16;

/// IPv6 host in 2001:db8::/32 with the given third group and low bits.
fn v6(group: u16, low: u32) -> u128 {
    u128::from(Ipv6Addr::new(
        0x2001,
        0xdb8,
        group,
        0,
        0,
        0,
        (low >> 16) as u16,
        low as u16,
    ))
}

impl Traffic {
    /// `gates_small`: 64 long-lived UDP/IPv6 flows of 64-byte packets,
    /// spread over three destination prefixes (2001:db8:{1,2,3}::/48),
    /// in seeded random order.
    pub fn gates_small(seed: u64) -> Traffic {
        let flows: Vec<Flow> = (0..64u32)
            .map(|f| Flow {
                src: v6(0xa, f + 1),
                dst: v6(1 + (f % 3) as u16, 0x100 + f),
                sport: 1024 + f as u16,
                dport: 5000,
                v4: false,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A7E5);
        let schedule = (0..PASS).map(|_| (rng.gen_range(0..64u32), 0)).collect();
        Traffic {
            templates: vec![Template::new(false, 64)],
            shape: Shape::Fixed { flows, schedule },
        }
    }

    /// `sharded_imix`: ~1k flows, half IPv4 to 10.{1,2,3}/16 and half
    /// IPv6 to 2001:db8:{1,2,3}::/48, with the classic 7:4:1 IMIX of 64,
    /// 576 and 1500-byte packets; one IPv4 packet in `oversize_every`
    /// is a 4000-byte datagram that the egress MTU (1500) fragments.
    pub fn sharded_imix(seed: u64, flows: u32, oversize_every: u32) -> Traffic {
        let sizes = [64usize, 576, 1500];
        let mut templates = Vec::new();
        for v4 in [true, false] {
            for s in sizes {
                templates.push(Template::new(v4, s));
            }
        }
        templates.push(Template::new(true, 4000));
        let flow_set: Vec<Flow> = (0..flows)
            .map(|f| {
                let v4 = f % 2 == 0;
                let net = 1 + (f / 2) % 3;
                if v4 {
                    Flow {
                        src: u128::from(u32::from(Ipv4Addr::new(
                            192,
                            168,
                            (f >> 8) as u8,
                            f as u8,
                        ))),
                        dst: u128::from(u32::from(Ipv4Addr::new(
                            10,
                            net as u8,
                            (f >> 8) as u8,
                            f as u8,
                        ))),
                        sport: 1024 + f as u16,
                        dport: 6000,
                        v4,
                    }
                } else {
                    Flow {
                        src: v6(0xa, f + 1),
                        dst: v6(net as u16, 0x100 + f),
                        sport: 1024 + f as u16,
                        dport: 6000,
                        v4,
                    }
                }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1313);
        let schedule = (0..PASS)
            .map(|_| {
                let f = rng.gen_range(0..flows);
                let v4 = flow_set[f as usize].v4;
                let tpl = if v4 && rng.gen_range(0..oversize_every) == 0 {
                    6
                } else {
                    let size_idx = match rng.gen_range(0..12u32) {
                        0..=6 => 0,
                        7..=10 => 1,
                        _ => 2,
                    };
                    if v4 {
                        size_idx
                    } else {
                        3 + size_idx
                    }
                };
                (f, tpl)
            })
            .collect();
        Traffic {
            templates,
            shape: Shape::Fixed {
                flows: flow_set,
                schedule,
            },
        }
    }

    /// `churn_fib`: 64-byte UDP/IPv4. Half the packets belong to
    /// `hot.len()` elephants (one per hot destination); the other half
    /// are mice arriving in trains of `train` packets, each mouse a new
    /// flow (cycling through `mouse_space` identities, more than any
    /// flow-table cap used here) toward a destination drawn from
    /// `mouse_dsts`.
    pub fn churn(
        seed: u64,
        hot: &[Ipv4Addr],
        mouse_dsts: Vec<u32>,
        train: usize,
        mouse_space: u32,
    ) -> Traffic {
        assert!(!hot.is_empty() && !mouse_dsts.is_empty() && train > 0);
        let elephants: Vec<Flow> = hot
            .iter()
            .enumerate()
            .map(|(i, d)| Flow {
                src: u128::from(u32::from(Ipv4Addr::new(192, 0, 2, i as u8))),
                dst: u128::from(u32::from(*d)),
                sport: 2000 + i as u16,
                dport: 7000,
                v4: true,
            })
            .collect();
        let n_el = elephants.len() as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4);
        let mut schedule = Vec::with_capacity(PASS);
        let mut trains = 0u32;
        while schedule.len() < PASS {
            if rng.gen_bool(0.5 / train as f64) {
                for _ in 0..train.min(PASS - schedule.len()) {
                    schedule.push(n_el + trains);
                }
                trains += 1;
            } else {
                schedule.push(rng.gen_range(0..n_el));
            }
        }
        Traffic {
            templates: vec![Template::new(true, 64)],
            shape: Shape::Churn {
                elephants,
                schedule,
                trains_per_pass: trains.max(1),
                mouse_dsts,
                mouse_space,
            },
        }
    }

    /// The packet offered at `seq`.
    pub fn pick(&self, seq: u64) -> Pick {
        let pass = seq / PASS as u64;
        let i = (seq % PASS as u64) as usize;
        match &self.shape {
            Shape::Fixed { flows, schedule } => {
                let (f, tpl) = schedule[i];
                Pick {
                    flow: flows[f as usize],
                    tpl,
                }
            }
            Shape::Churn {
                elephants,
                schedule,
                trains_per_pass,
                mouse_dsts,
                mouse_space,
            } => {
                let e = schedule[i];
                let n_el = elephants.len() as u32;
                let flow = if e < n_el {
                    elephants[e as usize]
                } else {
                    let slot = u64::from(e - n_el);
                    let id = ((pass * u64::from(*trains_per_pass) + slot) % u64::from(*mouse_space))
                        as u32;
                    let dst = mouse_dsts[(mix(u64::from(id)) % mouse_dsts.len() as u64) as usize];
                    Flow {
                        src: u128::from(0xAC10_0000u32 | (id & 0x000F_FFFF)),
                        dst: u128::from(dst),
                        sport: 1024 + (id % 60_000) as u16,
                        dport: 7001,
                        v4: true,
                    }
                };
                Pick { flow, tpl: 0 }
            }
        }
    }

    /// Write packet `seq`'s wire bytes into `out` (replacing its
    /// contents). Returns the packet's flow.
    pub fn frame(&self, seq: u64, out: &mut Vec<u8>) -> Flow {
        let p = self.pick(seq);
        let t = &self.templates[p.tpl as usize];
        debug_assert_eq!(t.v4, p.flow.v4);
        out.clear();
        out.extend_from_slice(&t.bytes);
        let f = p.flow;
        if t.v4 {
            let udp = 20;
            let csum = udp + 6;
            put_words(out, 12, &(f.src as u32).to_be_bytes(), Some(csum));
            put_words(out, 16, &(f.dst as u32).to_be_bytes(), Some(csum));
            put_words(out, udp, &f.sport.to_be_bytes(), Some(csum));
            put_words(out, udp + 2, &f.dport.to_be_bytes(), Some(csum));
            put_words(out, udp + 8, &seq.to_be_bytes(), Some(csum));
            out[4..6].copy_from_slice(&(seq as u16).to_be_bytes());
            fill_ipv4_checksum(out);
        } else {
            let udp = 40;
            let csum = udp + 6;
            put_words(out, 8, &f.src.to_be_bytes(), Some(csum));
            put_words(out, 24, &f.dst.to_be_bytes(), Some(csum));
            put_words(out, udp, &f.sport.to_be_bytes(), Some(csum));
            put_words(out, udp + 2, &f.dport.to_be_bytes(), Some(csum));
            put_words(out, udp + 8, &seq.to_be_bytes(), Some(csum));
        }
        f
    }
}

/// SplitMix64 finaliser: a cheap, well-spread hash of a mouse id.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Overwrite the 16-bit words at `off..off + bytes.len()` and, when
/// `csum` is given, update the ones'-complement checksum stored there
/// incrementally (RFC 1624, eqn. 3: `HC' = ~(~HC + ~m + m')`).
fn put_words(buf: &mut [u8], off: usize, bytes: &[u8], csum: Option<usize>) {
    debug_assert!(bytes.len().is_multiple_of(2));
    let mut acc: u32 = match csum {
        Some(c) => u32::from(!u16::from_be_bytes([buf[c], buf[c + 1]])),
        None => 0,
    };
    for (i, w) in bytes.chunks_exact(2).enumerate() {
        let o = off + 2 * i;
        let old = u16::from_be_bytes([buf[o], buf[o + 1]]);
        let new = u16::from_be_bytes([w[0], w[1]]);
        acc += u32::from(!old) + u32::from(new);
        buf[o] = w[0];
        buf[o + 1] = w[1];
    }
    if let Some(c) = csum {
        while acc > 0xFFFF {
            acc = (acc & 0xFFFF) + (acc >> 16);
        }
        let hc = !(acc as u16);
        buf[c..c + 2].copy_from_slice(&hc.to_be_bytes());
    }
}

/// Recompute the IPv4 header checksum of `buf` in place.
pub fn fill_ipv4_checksum(buf: &mut [u8]) {
    let ihl = usize::from(buf[0] & 0x0F) * 4;
    buf[10] = 0;
    buf[11] = 0;
    let c = ipv4_header_sum(&buf[..ihl]);
    buf[10..12].copy_from_slice(&(!c).to_be_bytes());
}

/// Folded ones'-complement sum of an IPv4 header (0xFFFF when valid).
pub fn ipv4_header_sum(hdr: &[u8]) -> u16 {
    let mut acc: u32 = 0;
    for w in hdr.chunks(2) {
        let hi = u32::from(w[0]) << 8;
        let lo = w.get(1).copied().map_or(0, u32::from);
        acc += hi | lo;
    }
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    acc as u16
}

/// The sequence number carried by an (unfragmented, or first-fragment)
/// UDP packet, if it is long enough to hold one.
pub fn seq_of(pkt: &[u8]) -> Option<u64> {
    let off = udp_payload_offset(pkt)?;
    let b = pkt.get(off..off + SEQ_LEN)?;
    Some(u64::from_be_bytes(b.try_into().ok()?))
}

/// Offset of the UDP payload: after the IPv4 header (with options) or
/// the fixed IPv6 header, plus the 8-byte UDP header.
pub fn udp_payload_offset(pkt: &[u8]) -> Option<usize> {
    match pkt.first()? >> 4 {
        4 => Some(usize::from(pkt[0] & 0x0F) * 4 + 8),
        6 => Some(40 + 8),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_packet::ipv4::Ipv4Packet;
    use rp_packet::ipv6::Ipv6Packet;
    use rp_packet::udp::UdpPacket;

    fn udp_ok(buf: &[u8]) -> bool {
        if buf[0] >> 4 == 4 {
            let ip = Ipv4Packet::new_checked(buf).unwrap();
            let u = UdpPacket::new_checked(ip.payload()).unwrap();
            ip.verify_checksum() && u.verify_checksum_v4(ip.src_addr(), ip.dst_addr())
        } else {
            let ip = Ipv6Packet::new_checked(buf).unwrap();
            let u = UdpPacket::new_checked(ip.payload()).unwrap();
            u.verify_checksum_v6(ip.src_addr(), ip.dst_addr())
        }
    }

    #[test]
    fn frames_are_deterministic_and_checksummed() {
        let hot = [Ipv4Addr::new(11, 1, 1, 1), Ipv4Addr::new(12, 2, 2, 2)];
        for t in [
            Traffic::gates_small(7),
            Traffic::sharded_imix(7, 64, 4),
            Traffic::churn(7, &hot, vec![0x0D00_0001, 0x0E00_0001], 4, 1000),
        ] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for seq in [0u64, 1, 2, 99, 65_535, 65_536, 1_000_003] {
                t.frame(seq, &mut a);
                t.frame(seq, &mut b);
                assert_eq!(a, b);
                assert_eq!(seq_of(&a), Some(seq));
                assert!(udp_ok(&a), "bad checksum at seq {seq}");
            }
        }
    }

    #[test]
    fn churn_mice_outnumber_any_pass() {
        let hot = [Ipv4Addr::new(11, 1, 1, 1)];
        let t = Traffic::churn(1, &hot, vec![0x0D00_0001], 4, 1 << 20);
        let mut srcs = std::collections::HashSet::new();
        for seq in 0..(3 * PASS as u64) {
            srcs.insert(t.pick(seq).flow.src);
        }
        // Three passes of fresh mice: far more flows than one pass holds.
        assert!(srcs.len() > 3 * 4000, "only {} distinct flows", srcs.len());
    }
}
