//! The slab that holds the packets a scheduler has queued.
//!
//! A scheduler sees only [`SchedPacket`](crate::SchedPacket)s; the bytes
//! wait here, addressed by the packet's cookie. The cookie is the packet's
//! slot index, so storing and releasing a packet is an indexed load plus a
//! free-list push or pop — no hashing. Freed slots are reused first, so
//! the slab stops growing once it is as large as the deepest backlog seen
//! and a steady-state enqueue/dequeue pair allocates nothing.

use rp_packet::Mbuf;

/// Cookie-addressed packet slab (see the module docs).
#[derive(Default)]
pub struct PacketStore {
    slots: Vec<Option<Mbuf>>,
    free: Vec<usize>,
}

impl PacketStore {
    /// Store a packet; the returned cookie names it until [`take`](Self::take).
    pub fn put(&mut self, mbuf: Mbuf) -> u64 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(mbuf);
                i as u64
            }
            None => {
                self.slots.push(Some(mbuf));
                (self.slots.len() - 1) as u64
            }
        }
    }

    /// Release the packet stored under `cookie`. `None` when the slot is
    /// empty: never filled, or already taken.
    pub fn take(&mut self, cookie: u64) -> Option<Mbuf> {
        let i = usize::try_from(cookie).ok()?;
        let mbuf = self.slots.get_mut(i)?.take()?;
        self.free.push(i);
        Some(mbuf)
    }

    /// Packets currently stored.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no packet is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(tag: u8) -> Mbuf {
        Mbuf::new(vec![tag; 4], 0)
    }

    #[test]
    fn cookie_is_reused_after_take() {
        let mut s = PacketStore::default();
        let a = s.put(pkt(1));
        let b = s.put(pkt(2));
        assert_ne!(a, b);
        assert_eq!(s.take(a).unwrap().data(), &[1; 4]);
        let c = s.put(pkt(3));
        assert_eq!(c, a, "a freed slot is reused before the slab grows");
        assert_eq!(s.len(), 2);
        assert_eq!(s.take(c).unwrap().data(), &[3; 4]);
        assert_eq!(s.take(b).unwrap().data(), &[2; 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn second_take_returns_none() {
        let mut s = PacketStore::default();
        let a = s.put(pkt(1));
        assert!(s.take(a).is_some());
        assert!(s.take(a).is_none());
        assert!(s.take(99).is_none(), "a cookie never handed out");
        // The double take must not put the slot on the free list twice.
        let x = s.put(pkt(2));
        let y = s.put(pkt(3));
        assert_ne!(x, y);
        assert_eq!(s.len(), 2);
    }
}
