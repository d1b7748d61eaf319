//! Hash units — CRC-based hash engines as found in switch ASICs.
//!
//! Programmable ASICs compute hashes with CRC polynomials, not software
//! hashers; NetSeer exploits this by pre-computing the flow hash in the
//! data plane and shipping it to the CPU inside the event record (the 2.5×
//! CPU speedup of §3.6). We use CRC-32 with per-unit seeds so different
//! tables (dedup table per event type, path-change table, …) index
//! independently.

use crate::resources::{ResourceKind, ResourceLedger};
use fet_packet::checksum::{crc32_update, CRC32_INIT};
use fet_packet::flow::{FlowKey, FLOW_KEY_LEN};

/// A single hash engine with a fixed seed and output width.
#[derive(Debug, Clone)]
pub struct HashUnit {
    name: &'static str,
    /// The CRC register after streaming the big-endian seed: every hash
    /// starts from here instead of re-feeding the same four bytes.
    seeded: u32,
    output_bits: u32,
}

impl HashUnit {
    /// Create a hash unit. `output_bits` ≤ 32; outputs are masked to it.
    pub fn new(name: &'static str, seed: u32, output_bits: u32) -> Self {
        assert!((1..=32).contains(&output_bits), "hash output must be 1..=32 bits");
        HashUnit { name, seeded: crc32_update(CRC32_INIT, &seed.to_be_bytes()), output_bits }
    }

    /// Hash arbitrary bytes: the CRC-32 of the big-endian seed followed by
    /// `data`, masked to the output width. The CRC streams on from the
    /// pre-seeded register, so no seeded copy of `data` is ever built.
    pub fn hash_bytes(&self, data: &[u8]) -> u32 {
        let h = !crc32_update(self.seeded, data);
        if self.output_bits == 32 {
            h
        } else {
            h & ((1u32 << self.output_bits) - 1)
        }
    }

    /// Hash a flow key (the dominant NetSeer use).
    pub fn hash_flow(&self, flow: &FlowKey) -> u32 {
        let mut buf = [0u8; FLOW_KEY_LEN];
        flow.write_to(&mut buf);
        self.hash_bytes(&buf)
    }

    /// Index into a table of `size` slots.
    pub fn index(&self, flow: &FlowKey, size: usize) -> usize {
        if size == 0 {
            return 0;
        }
        self.hash_flow(flow) as usize % size
    }

    /// Output width in bits.
    pub fn output_bits(&self) -> u32 {
        self.output_bits
    }

    /// Charge hash-bit usage to the ledger.
    pub fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        ledger.charge(module, ResourceKind::HashBits, u64::from(self.output_bits));
    }

    /// Unit name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow(sport: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            sport,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    #[test]
    fn known_answers() {
        // Pinned from the original allocate-and-copy implementation: any
        // change here re-routes ECMP and re-indexes every dedup table.
        let f2 = FlowKey::udp(
            Ipv4Addr::from_octets([10, 1, 2, 3]),
            4791,
            Ipv4Addr::from_octets([10, 3, 2, 1]),
            4791,
        );
        let f3 = FlowKey::tcp(
            Ipv4Addr::from_octets([192, 168, 7, 9]),
            51234,
            Ipv4Addr::from_octets([172, 16, 0, 5]),
            443,
        );
        assert_eq!(HashUnit::new("a", 0xabc, 32).hash_flow(&flow(1)), 0x4aaf_0f59);
        assert_eq!(HashUnit::new("b", 0, 32).hash_flow(&f2), 0xd83f_4b95);
        assert_eq!(HashUnit::new("c", 0xdead_beef, 16).hash_flow(&f3), 0x9215);
    }

    #[test]
    fn deterministic() {
        let h = HashUnit::new("h", 0xabc, 32);
        assert_eq!(h.hash_flow(&flow(1)), h.hash_flow(&flow(1)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = HashUnit::new("a", 1, 32);
        let b = HashUnit::new("b", 2, 32);
        assert_ne!(a.hash_flow(&flow(1)), b.hash_flow(&flow(1)));
    }

    #[test]
    fn output_masking() {
        let h = HashUnit::new("h", 7, 10);
        for sport in 0..200 {
            assert!(h.hash_flow(&flow(sport)) < 1024);
        }
    }

    #[test]
    fn index_bounds() {
        let h = HashUnit::new("h", 7, 32);
        for sport in 0..100 {
            assert!(h.index(&flow(sport), 37) < 37);
        }
        assert_eq!(h.index(&flow(0), 0), 0);
    }

    #[test]
    fn spreads_across_slots() {
        // 1000 flows into 128 slots should touch most slots.
        let h = HashUnit::new("h", 9, 32);
        let mut hit = [false; 128];
        for sport in 0..1000 {
            hit[h.index(&flow(sport), 128)] = true;
        }
        let used = hit.iter().filter(|&&b| b).count();
        assert!(used > 100, "only {used}/128 slots used — bad dispersion");
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        let _ = HashUnit::new("bad", 0, 0);
    }
}
