// Gated: requires the external `proptest` crate (offline builds cannot
// fetch it). Re-add the dev-dependency and build with `--features proptest`.
#![cfg(feature = "proptest")]

//! Property tests for NetSeer's correctness invariants:
//!
//! * group caching has **zero false negatives** on arbitrary streams;
//! * the inter-switch ring buffer **never reports a wrong packet** and
//!   recovers every victim within its capacity window;
//! * the gap detector reports exactly the dropped sequence numbers;
//! * the batcher conserves events (accepted = delivered + backlog).

use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use netseer::batch::CebpBatcher;
use netseer::dedup::{DedupOutcome, GroupCache};
use netseer::detect::interswitch::{GapDetector, PortTagger};
use netseer::NetSeerConfig;
use proptest::prelude::*;
use std::collections::HashSet;

fn flow(n: u32) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from_u32(0x0a00_0000 | n),
        (n % 60_000) as u16,
        Ipv4Addr::from_octets([10, 200, 0, 1]),
        80,
    )
}

proptest! {
    /// Algorithm 1 invariant: every flow that appears is reported at
    /// least once, whatever the stream and however small the table.
    #[test]
    fn dedup_zero_false_negatives(
        stream in proptest::collection::vec(0u32..64, 1..500),
        entries in 1usize..32,
        c in 1u32..64,
    ) {
        let mut gc = GroupCache::new("prop", entries, c, 1);
        let mut reported: HashSet<FlowKey> = HashSet::new();
        for &n in &stream {
            match gc.offer(flow(n)) {
                DedupOutcome::NewFlow => { reported.insert(flow(n)); }
                DedupOutcome::Evicted { old_flow, .. } => {
                    reported.insert(old_flow);
                    reported.insert(flow(n));
                }
                DedupOutcome::CounterReport { .. } | DedupOutcome::Suppressed { .. } => {}
            }
        }
        for &n in &stream {
            prop_assert!(reported.contains(&flow(n)), "flow {} never reported", n);
        }
    }

    /// Counter monotonicity: for a single flow, counter reports arrive in
    /// increasing counter order, spaced exactly C apart.
    #[test]
    fn dedup_counter_reports_are_periodic(c in 2u32..50, packets in 1usize..300) {
        let mut gc = GroupCache::new("prop", 64, c, 1);
        let mut last = 0u32;
        for _ in 0..packets {
            if let DedupOutcome::CounterReport { counter } = gc.offer(flow(1)) {
                if last > 0 {
                    prop_assert_eq!(counter - last, c);
                }
                last = counter;
            }
        }
    }

    /// Ring-buffer invariant: lookups never return a wrong flow, and any
    /// victim still within the ring window is recovered exactly.
    #[test]
    fn ring_never_reports_wrong_packet(
        slots in 1usize..128,
        sent in 1u32..600,
        probe in any::<u32>(),
    ) {
        let mut t = PortTagger::new(slots);
        for n in 0..sent {
            let seq = t.next(flow(n));
            prop_assert_eq!(seq, n);
        }
        let seq = probe % (sent * 2); // half the probes are beyond what was sent
        match t.lookup(seq) {
            Some(f) => {
                // Whatever is returned must be exactly the packet that
                // carried that sequence number...
                prop_assert_eq!(f, flow(seq));
                // ...and it must still be within the ring window.
                prop_assert!(seq >= sent.saturating_sub(slots as u32));
                prop_assert!(seq < sent);
            }
            None => {
                // Misses are only legal for overwritten or never-sent ids.
                let in_window = seq < sent && seq >= sent.saturating_sub(slots as u32);
                prop_assert!(!in_window, "seq {} in window but missed", seq);
            }
        }
    }

    /// Gap detector reports exactly the missing ranges for arbitrary
    /// loss patterns.
    #[test]
    fn gap_detector_exact(drop_mask in proptest::collection::vec(any::<bool>(), 2..400)) {
        let mut down = GapDetector::new();
        let mut missing_truth: Vec<u32> = Vec::new();
        let mut reported: Vec<u32> = Vec::new();
        let mut synced = false;
        for (seq, &dropped) in drop_mask.iter().enumerate() {
            let seq = seq as u32;
            if dropped {
                if synced {
                    missing_truth.push(seq);
                }
                continue;
            }
            if let Some((lo, hi)) = down.observe(seq) {
                for s in lo..=hi {
                    reported.push(s);
                }
            }
            synced = true;
        }
        // Trailing drops (after the last delivered packet) are undetectable
        // until more traffic flows — exclude them from the truth.
        let last_delivered = drop_mask.iter().rposition(|&d| !d).unwrap_or(0) as u32;
        missing_truth.retain(|&s| s < last_delivered);
        prop_assert_eq!(reported, missing_truth);
    }

    /// Batcher conservation: accepted events either leave in batches or
    /// remain in the backlog; nothing is duplicated or lost silently.
    #[test]
    fn batcher_conserves_events(
        pushes in proptest::collection::vec(0u64..100_000, 1..300),
        batch_size in 1u16..64,
    ) {
        let cfg = NetSeerConfig { batch_size, ..NetSeerConfig::default() };
        let mut b = CebpBatcher::new(&cfg);
        let mut t = 0u64;
        let mut delivered = 0u64;
        for (i, &gap) in pushes.iter().enumerate() {
            t += gap;
            b.push(t, netseer_test_event(i as u32));
            delivered += b.poll(t).iter().map(|x| x.events.len() as u64).sum::<u64>();
        }
        // Flush everything left.
        t += 10_000_000_000;
        delivered += b.poll(t).iter().map(|x| x.events.len() as u64).sum::<u64>();
        if let Some(batch) = b.flush(t) {
            delivered += batch.events.len() as u64;
        }
        prop_assert_eq!(b.accepted, delivered + b.backlog() as u64);
        prop_assert_eq!(b.accepted + b.dropped, pushes.len() as u64);
        prop_assert_eq!(b.backlog(), 0);
    }
}

proptest! {
    /// Crash-recovery invariant: WAL replay is deterministic and
    /// idempotent for arbitrary op streams and checkpoint placements, a
    /// clean stop loses nothing, and a hard kill loses at most the
    /// un-fsynced tail — `replayed + lost == pending` always.
    #[test]
    fn recovery_replay_is_idempotent_and_bounded(
        raw in proptest::collection::vec((0u8..4, 0u32..8), 1..200),
        hard in any::<bool>(),
    ) {
        use netseer::recovery::{RecoveryLog, Snapshot};
        use netseer::CrashKind;

        let mut log = RecoveryLog::new(1_000);
        let mut pending = 0usize; // ground truth the log must reconstruct
        let mut now = 0u64;
        let mut n = 0u32;
        for &(op, param) in &raw {
            now += 100;
            match op {
                0 => {
                    log.log_enq(netseer_test_event(n));
                    n += 1;
                    pending += 1;
                }
                1 if pending > 0 => {
                    log.log_evict(param as usize % pending);
                    pending -= 1;
                }
                2 if pending > 0 => {
                    let k = (param as usize % pending) + 1;
                    log.log_deq(k);
                    pending -= k;
                }
                3 => {
                    let snap = Snapshot { pending: log.replay(), ..Default::default() };
                    log.checkpoint(now, snap);
                }
                _ => {}
            }
        }
        let unsynced = log.unsynced_ops();
        let kind = if hard { CrashKind::Hard } else { CrashKind::Clean };
        log.record_kill(kind, now, pending as u64);
        let first = log.replay();
        let again = log.replay();
        prop_assert_eq!(&first, &again, "replay must be idempotent");
        let (_, _, lost) = log.complete_restart(first.len() as u64);
        prop_assert!(lost as usize <= unsynced, "lost {} > unsynced {}", lost, unsynced);
        if !hard {
            prop_assert_eq!(lost, 0, "a clean stop must be lossless");
        }
        prop_assert_eq!(first.len() as u64 + lost, pending as u64);
    }
}

fn netseer_test_event(n: u32) -> fet_packet::event::EventRecord {
    fet_packet::event::EventRecord {
        ty: fet_packet::event::EventType::Congestion,
        flow: flow(n),
        detail: fet_packet::event::EventDetail::Congestion {
            egress_port: 0,
            queue: 0,
            latency_us: 1,
        },
        counter: 1,
        hash: n,
    }
}
