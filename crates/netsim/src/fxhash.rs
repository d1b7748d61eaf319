//! A small deterministic Fx-style hasher for simulator-internal maps.
//!
//! `std`'s default SipHash is keyed per process and costs tens of
//! nanoseconds per lookup — far more than a per-packet oracle map needs.
//! This is the multiply-rotate word hash rustc uses internally: a few
//! cycles per word, no random state, and (for maps that are never
//! iterated) no effect on any output. It has no defence against keys
//! crafted to collide, so use it only for keys the simulator generates.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` hasher state (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
