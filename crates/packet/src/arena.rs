//! Pooled frame buffers for the per-packet hot path.
//!
//! Every packet in the simulator is an owned `Vec<u8>`; building one
//! per packet from scratch is a heap allocation per packet. A
//! [`FrameArena`] recycles retired frame buffers so a steady-state
//! traffic source allocates nothing: `get` hands back a zeroed buffer of
//! the requested length (reusing a retired buffer's capacity when one is
//! available) and `put` retires a buffer into the pool.
//!
//! The arena is deliberately *not* thread-safe or reference-counted —
//! each device owns its own pool, matching the simulator's
//! one-device-per-shard execution model, and buffers are plain `Vec<u8>`
//! so they flow through the existing packet APIs unchanged.

/// A recycling pool of frame buffers.
#[derive(Debug, Default)]
pub struct FrameArena {
    pool: Vec<Vec<u8>>,
    /// Buffers handed out (gets that found a pooled buffer + fresh ones).
    gets: u64,
    /// Gets that had to heap-allocate because the pool was empty.
    misses: u64,
}

/// Retired buffers kept per arena; beyond this, `put` lets buffers drop.
const MAX_POOLED: usize = 64;

impl FrameArena {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed buffer of exactly `len` bytes, reusing pooled capacity
    /// when available.
    pub fn get(&mut self, len: usize) -> Vec<u8> {
        self.gets += 1;
        match self.pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0);
                // Zero the whole buffer: resize only zeroes the grown tail,
                // but the recycled prefix still holds the previous packet.
                buf.fill(0);
                buf
            }
            None => {
                self.misses += 1;
                // Spare room for the hop-local sequence tag, so the first
                // switch egress that tags the frame does not reallocate.
                let mut buf = Vec::with_capacity(len + crate::SEQTAG_LEN);
                buf.resize(len, 0);
                buf
            }
        }
    }

    /// Retire a buffer into the pool for a later [`get`](Self::get).
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.pool.len() < MAX_POOLED && buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// `(gets, misses)` — misses are gets that had to heap-allocate. A
    /// steady-state source shows a growing `gets` with constant `misses`.
    pub fn stats(&self) -> (u64, u64) {
        (self.gets, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_and_zeroes() {
        let mut a = FrameArena::new();
        let mut b = a.get(64);
        b.iter().for_each(|&x| assert_eq!(x, 0));
        b[10] = 0xAB;
        let cap = b.capacity();
        a.put(b);
        assert_eq!(a.pooled(), 1);
        let c = a.get(32);
        assert_eq!(c.len(), 32);
        assert_eq!(c.capacity(), cap, "capacity reused");
        assert!(c.iter().all(|&x| x == 0), "stale bytes cleared");
        assert_eq!(a.stats(), (2, 1), "second get hit the pool");
    }

    #[test]
    fn pool_is_bounded() {
        let mut a = FrameArena::new();
        for _ in 0..(MAX_POOLED + 10) {
            a.put(vec![0u8; 16]);
        }
        assert_eq!(a.pooled(), MAX_POOLED);
    }

    #[test]
    fn grow_beyond_recycled_capacity() {
        let mut a = FrameArena::new();
        a.put(Vec::with_capacity(8));
        let b = a.get(1500);
        assert_eq!(b.len(), 1500);
        assert!(b.iter().all(|&x| x == 0));
    }
}
