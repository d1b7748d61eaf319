//! Seeded property loops for invariants that must hold on every input:
//!
//! * **core** — group caching reports every flow (zero false negatives)
//!   and refreshes a flow exactly every `C` packets; the inter-switch ring
//!   never reports a wrong packet; the gap detector reports exactly the
//!   dropped sequence numbers; the CEBP batcher conserves events; WAL
//!   replay is idempotent and loses at most the un-fsynced tail;
//! * **packet** — every wire format round-trips bit-exactly, checksums
//!   self-verify and compose, and the sequence arithmetic is wrap-safe;
//! * **netsim** — MMU byte conservation, per-seed fault determinism,
//!   exact burst drops, monotone serialization time;
//! * **pdp** — LPM agrees with a naive longest match across inserts and
//!   removals, the first matching ACL priority wins, register RMW is a
//!   sequential fold, hash units are deterministic and masked and equal the
//!   bitwise CRC-32 of `seed ++ data`, the rate-limited channel conserves
//!   bytes;
//! * **storage and analytics** — every `EventStore` query path returns
//!   exactly what a naive scan returns, also across `truncate(k)` (the
//!   collector's hard-kill revert) and re-growth; the analytics ledger
//!   balances under tiny budgets and never sheds an interesting event;
//!   totals match a naive recount at any shard count; Space-Saving brackets
//!   the truth and keeps every flow above `W / k`; top-k is exact below
//!   capacity;
//! * **export** — label escaping is lossless, the OTel document is valid
//!   JSON, the cardinality caps count every refusal, and rendering ignores
//!   insertion order.
//!
//! No external property-testing dependency and no shrinking: the in-tree
//! `Pcg32` draws each case from its own stream, and a failure names the
//! case so it replays exactly. `CHAOS_SEED` diversifies the cases per CI
//! matrix leg.

mod common;

use common::seed;
use fet_analytics::{AggKey, AnalyticsConfig, AnalyticsEngine, LinkMap, SpaceSaving, WindowStats};
use fet_export::{
    parse_exposition, render_otel, render_prometheus, validate_json, MetricRegistry, RegistryConfig,
};
use fet_netsim::link::{BurstDrop, Link, LinkDirection, LinkOutcome};
use fet_netsim::mmu::{Mmu, MmuConfig, MmuVerdict};
use fet_netsim::rng::Pcg32;
use fet_netsim::time::tx_time_ns;
use fet_packet::builder::{
    build_data_packet, classify, extract_flow, insert_seqtag, peek_seqtag, strip_seqtag, FrameKind,
};
use fet_packet::checksum::{
    crc32, crc32_reference, internet_checksum, verify_internet_checksum, Checksum,
};
use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType, ALL_EVENT_TYPES};
use fet_packet::flow::FLOW_KEY_LEN;
use fet_packet::seqtag::{gap_between, seq_before};
use fet_packet::{FlowKey, IpProtocol, Ipv4Addr};
use fet_pdp::table::{AclAction, AclRule, AclTable, LpmTable};
use fet_pdp::{HashUnit, RateLimitedChannel, RegisterArray};
use netseer::batch::CebpBatcher;
use netseer::dedup::{DedupOutcome, GroupCache};
use netseer::detect::interswitch::{GapDetector, PortTagger};
use netseer::recovery::{RecoveryLog, Snapshot};
use netseer::{CrashKind, EventStore, NetSeerConfig, Query, StoredEvent};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;

const CASES: u64 = 256;

/// Run `check` once per case, each on its own `Pcg32` stream, so the case
/// index in a failure message replays exactly.
fn for_cases(base: u64, mut check: impl FnMut(u64, &mut Pcg32)) {
    for case in 0..CASES {
        check(case, &mut Pcg32::new(seed(base), case));
    }
}

/// Uniform integer in `range`.
fn between(rng: &mut Pcg32, range: Range<u32>) -> u32 {
    range.start + rng.next_below(range.end - range.start)
}

/// A vector of draws from `item`, its length uniform in `len`.
fn vec_of<T>(rng: &mut Pcg32, len: Range<u32>, mut item: impl FnMut(&mut Pcg32) -> T) -> Vec<T> {
    let n = between(rng, len);
    (0..n).map(|_| item(rng)).collect()
}

fn bytes(rng: &mut Pcg32, len: Range<u32>) -> Vec<u8> {
    vec_of(rng, len, |r| r.next_u32() as u8)
}

fn flow(n: u32) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from_u32(0x0a00_0000 | n),
        (n % 60_000) as u16,
        Ipv4Addr::from_octets([10, 200, 0, 1]),
        80,
    )
}

/// Any TCP or UDP 5-tuple.
fn random_flow(rng: &mut Pcg32) -> FlowKey {
    FlowKey {
        src: Ipv4Addr::from_u32(rng.next_u32()),
        dst: Ipv4Addr::from_u32(rng.next_u32()),
        sport: rng.next_u32() as u16,
        dport: rng.next_u32() as u16,
        proto: IpProtocol::from_number(if rng.chance(0.5) { 6 } else { 17 }),
    }
}

fn event_type(rng: &mut Pcg32) -> EventType {
    EventType::from_code(1 + rng.next_below(6) as u8).unwrap()
}

/// Any event record, its detail matching its type.
fn random_event(rng: &mut Pcg32) -> EventRecord {
    let ty = event_type(rng);
    let (a, b, c) = (rng.next_u32() as u8, rng.next_u32() as u8, rng.next_u32() as u16);
    let detail = match ty {
        EventType::PipelineDrop | EventType::MmuDrop | EventType::InterSwitchDrop => {
            let code = DropCode::from_code(1 + rng.next_below(8) as u8).unwrap();
            EventDetail::Drop { ingress_port: a, egress_port: b, code }
        }
        EventType::Congestion => {
            EventDetail::Congestion { egress_port: a, queue: b, latency_us: c }
        }
        EventType::PathChange => EventDetail::PathChange { ingress_port: a, egress_port: b },
        EventType::Pause => EventDetail::Pause { egress_port: a, queue: b },
    };
    let (counter, hash) = (rng.next_u32() as u16, rng.next_u32());
    EventRecord { ty, flow: random_flow(rng), detail, counter, hash }
}

/// A congestion record for flow `n`.
fn congestion(n: u32) -> EventRecord {
    EventRecord {
        ty: EventType::Congestion,
        flow: flow(n),
        detail: EventDetail::Congestion { egress_port: 0, queue: 0, latency_us: 1 },
        counter: 1,
        hash: n,
    }
}

/// One event; drop types carry a drop detail, the rest a pause detail.
fn ev(t: u64, device: u32, fl: u32, ty: EventType, counter: u16) -> StoredEvent {
    let detail = if ty.is_drop() {
        let code = if fl.is_multiple_of(2) { DropCode::TableMiss } else { DropCode::LinkLoss };
        EventDetail::Drop { ingress_port: 0, egress_port: 1, code }
    } else {
        EventDetail::Pause { egress_port: 0, queue: 0 }
    };
    StoredEvent {
        time_ns: t,
        device,
        epoch: 0,
        seq: t,
        record: EventRecord { ty, flow: flow(fl), detail, counter, hash: fl },
    }
}

/// Up to `max_len` events over 6 devices, 48 flows and a 1 ms span, with
/// counters 0..5.
fn random_stream(rng: &mut Pcg32, max_len: u32) -> Vec<StoredEvent> {
    vec_of(rng, 0..max_len, |r| {
        let t = u64::from(r.next_below(1_000_000));
        let (device, fl) = (r.next_below(6), r.next_below(48));
        ev(t, device, fl, event_type(r), r.next_below(5) as u16)
    })
}

// ---------------------------------------------------------------- core

#[test]
fn dedup_zero_false_negatives() {
    // Algorithm 1: every flow that appears is reported at least once,
    // whatever the stream and however small the table.
    for_cases(0xDED0, |case, rng| {
        let stream = vec_of(rng, 1..500, |r| r.next_below(64));
        let (entries, c) = (between(rng, 1..32) as usize, between(rng, 1..64));
        let mut gc = GroupCache::new("prop", entries, c, 1);
        let mut reported = HashSet::new();
        for &n in &stream {
            match gc.offer(flow(n)) {
                DedupOutcome::NewFlow => {
                    reported.insert(flow(n));
                }
                DedupOutcome::Evicted { old_flow, .. } => {
                    reported.insert(old_flow);
                    reported.insert(flow(n));
                }
                DedupOutcome::CounterReport { .. } | DedupOutcome::Suppressed { .. } => {}
            }
        }
        for &n in &stream {
            assert!(reported.contains(&flow(n)), "case {case}: flow {n} never reported");
        }
    });
}

#[test]
fn dedup_counter_reports_are_periodic() {
    // A single flow's counter reports arrive exactly `C` packets apart.
    for_cases(0xDED1, |case, rng| {
        let (c, packets) = (between(rng, 2..50), between(rng, 1..300));
        let mut gc = GroupCache::new("prop", 64, c, 1);
        let mut last = 0u32;
        for _ in 0..packets {
            if let DedupOutcome::CounterReport { counter } = gc.offer(flow(1)) {
                if last > 0 {
                    assert_eq!(counter - last, c, "case {case}");
                }
                last = counter;
            }
        }
    });
}

#[test]
fn ring_never_reports_wrong_packet() {
    // A lookup returns exactly the packet that carried the id, and misses
    // only ids that were overwritten or never sent.
    for_cases(0x815C, |case, rng| {
        let (slots, sent) = (between(rng, 1..128), between(rng, 1..600));
        let mut t = PortTagger::new(slots as usize);
        for n in 0..sent {
            assert_eq!(t.next(flow(n)), n, "case {case}");
        }
        let window = sent.saturating_sub(slots)..sent;
        for _ in 0..16 {
            // Half the probes lie beyond what was sent.
            let seq = rng.next_below(sent * 2);
            match t.lookup(seq) {
                Some(f) => {
                    assert_eq!(f, flow(seq), "case {case}: wrong packet for seq {seq}");
                    assert!(window.contains(&seq), "case {case}: seq {seq} outside the ring");
                }
                None => assert!(!window.contains(&seq), "case {case}: seq {seq} missed"),
            }
        }
    });
}

#[test]
fn gap_detector_exact() {
    // The detector reports exactly the dropped sequence numbers between
    // the first and the last delivered packet.
    for_cases(0x6A9, |case, rng| {
        let drop_mask = vec_of(rng, 2..400, |r| r.chance(0.5));
        let mut down = GapDetector::new();
        let mut missing_truth: Vec<u32> = Vec::new();
        let mut reported: Vec<u32> = Vec::new();
        let mut synced = false;
        for (seq, &dropped) in (0u32..).zip(&drop_mask) {
            if dropped {
                if synced {
                    missing_truth.push(seq);
                }
                continue;
            }
            if let Some((lo, hi)) = down.observe(seq) {
                reported.extend(lo..=hi);
            }
            synced = true;
        }
        // Trailing drops stay undetectable until more traffic flows.
        let last_delivered = drop_mask.iter().rposition(|&d| !d).unwrap_or(0) as u32;
        missing_truth.retain(|&s| s < last_delivered);
        assert_eq!(reported, missing_truth, "case {case}");
    });
}

#[test]
fn batcher_conserves_events() {
    // Accepted events leave in batches or stay in the backlog; nothing is
    // duplicated or lost silently.
    for_cases(0xBA7C, |case, rng| {
        let gaps = vec_of(rng, 1..300, |r| u64::from(r.next_below(100_000)));
        let cfg = NetSeerConfig { batch_size: between(rng, 1..64) as u16, ..Default::default() };
        let mut b = CebpBatcher::new(&cfg);
        let (mut t, mut delivered) = (0u64, 0u64);
        for (i, &gap) in (0u32..).zip(&gaps) {
            t += gap;
            b.push(t, congestion(i));
            delivered += b.poll(t).iter().map(|x| x.events.len() as u64).sum::<u64>();
        }
        t += 10_000_000_000;
        delivered += b.poll(t).iter().map(|x| x.events.len() as u64).sum::<u64>();
        delivered += b.flush(t).map_or(0, |batch| batch.events.len() as u64);
        assert_eq!(b.accepted, delivered + b.backlog() as u64, "case {case}");
        assert_eq!(b.accepted + b.dropped, gaps.len() as u64, "case {case}");
        assert_eq!(b.backlog(), 0, "case {case}");
    });
}

#[test]
fn recovery_replay_is_idempotent_and_bounded() {
    // For any op stream and checkpoint placement, WAL replay is
    // deterministic and idempotent, a clean stop loses nothing, and a hard
    // kill loses at most the un-fsynced tail: `replayed + lost == pending`.
    for_cases(0x8EC0, |case, rng| {
        let mut log = RecoveryLog::new(1_000);
        let (mut pending, mut now, mut n) = (0usize, 0u64, 0u32);
        for _ in 0..between(rng, 1..200) {
            now += 100;
            let (op, param) = (rng.next_below(4), rng.next_below(8) as usize);
            match op {
                0 => {
                    log.log_enq(congestion(n));
                    n += 1;
                    pending += 1;
                }
                1 if pending > 0 => {
                    log.log_evict(param % pending);
                    pending -= 1;
                }
                2 if pending > 0 => {
                    let k = param % pending + 1;
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
        let hard = rng.chance(0.5);
        log.record_kill(if hard { CrashKind::Hard } else { CrashKind::Clean }, now, pending as u64);
        let first = log.replay();
        assert_eq!(first, log.replay(), "case {case}: replay must be idempotent");
        let (_, _, lost) = log.complete_restart(first.len() as u64);
        assert!(lost as usize <= unsynced, "case {case}: lost {lost} > unsynced {unsynced}");
        if !hard {
            assert_eq!(lost, 0, "case {case}: a clean stop must be lossless");
        }
        assert_eq!(first.len() as u64 + lost, pending as u64, "case {case}");
    });
}

// -------------------------------------------------------------- packet

#[test]
fn flow_key_roundtrips() {
    for_cases(0xF10, |case, rng| {
        let flow = random_flow(rng);
        let mut buf = [0u8; FLOW_KEY_LEN];
        flow.write_to(&mut buf);
        assert_eq!(FlowKey::read_from(&buf), flow, "case {case}");
    });
}

#[test]
fn flow_reversal_is_involution() {
    for_cases(0xF11, |case, rng| {
        let flow = random_flow(rng);
        assert_eq!(flow.reversed().reversed(), flow, "case {case}");
    });
}

#[test]
fn event_record_roundtrips() {
    for_cases(0xE7E, |case, rng| {
        let ev = random_event(rng);
        let bytes = ev.to_bytes();
        assert_eq!(EventRecord::read_from(&bytes).unwrap(), ev, "case {case}");
        assert_eq!(EventRecord::parse(&bytes).unwrap(), ev, "case {case}: checked parser");
    });
}

#[test]
fn data_packets_always_classify_and_extract() {
    for_cases(0xDA7A, |case, rng| {
        let flow = random_flow(rng);
        let (payload, dscp, ttl) =
            (between(rng, 0..1400), rng.next_below(64), between(rng, 1..256));
        let pkt = build_data_packet(&flow, payload as usize, 0, dscp as u8, ttl as u8);
        assert!(pkt.len() >= 64, "case {case}: runt frame");
        assert_eq!(classify(&pkt), FrameKind::Ipv4, "case {case}");
        assert_eq!(extract_flow(&pkt), Some(flow), "case {case}");
    });
}

#[test]
fn seqtag_roundtrip_any_seq() {
    for_cases(0x5E9, |case, rng| {
        let (flow, seq) = (random_flow(rng), rng.next_u32());
        let pkt = build_data_packet(&flow, rng.next_below(1000) as usize, 0, 0, 64);
        let tagged = insert_seqtag(&pkt, seq).unwrap();
        assert_eq!(peek_seqtag(&tagged).unwrap(), seq, "case {case}");
        assert_eq!(extract_flow(&tagged), Some(flow), "case {case}");
        assert_eq!(strip_seqtag(&tagged).unwrap(), (seq, pkt), "case {case}");
    });
}

#[test]
fn internet_checksum_self_verifies() {
    // An even-length buffer followed by its checksum verifies (odd lengths
    // would misalign the appended field).
    for_cases(0xC5, |case, rng| {
        let mut data = vec_of(rng, 0..64, |r| (r.next_u32() as u16).to_be_bytes()).concat();
        let cks = internet_checksum(&data);
        data.extend_from_slice(&cks.to_be_bytes());
        assert!(verify_internet_checksum(&data), "case {case}");
    });
}

#[test]
fn checksum_incremental_equals_oneshot() {
    // Split accumulation matches the one-shot sum when the first part is
    // even-length (RFC 1071 words are 16-bit).
    for_cases(0xC51, |case, rng| {
        let a = vec_of(rng, 0..64, |r| (r.next_u32() as u16).to_be_bytes()).concat();
        let b = bytes(rng, 0..128);
        let mut inc = Checksum::new();
        inc.add_bytes(&a);
        inc.add_bytes(&b);
        assert_eq!(inc.finish(), internet_checksum(&[a, b].concat()), "case {case}");
    });
}

#[test]
fn crc32_detects_any_single_bit_flip() {
    for_cases(0xC32, |case, rng| {
        let data = bytes(rng, 1..128);
        let pos = rng.next_below(data.len() as u32 * 8) as usize;
        let mut flipped = data.clone();
        flipped[pos / 8] ^= 1 << (pos % 8);
        assert_ne!(crc32(&data), crc32(&flipped), "case {case}: bit {pos}");
    });
}

#[test]
fn seq_ordering_antisymmetric() {
    for_cases(0x5E90, |case, rng| {
        let a = rng.next_u32();
        // Equal ids at even odds, so the reflexive branch runs too.
        let b = if rng.chance(0.5) { a } else { rng.next_u32() };
        if a == b {
            assert!(!seq_before(a, b), "case {case}");
        } else {
            assert_ne!(seq_before(a, b), seq_before(b, a), "case {case}: {a} vs {b}");
        }
    });
}

#[test]
fn gap_counts_match_distance() {
    // Seeing `start` then `start + gap + 1` means exactly `gap` are missing.
    for_cases(0x6A90, |case, rng| {
        let (start, gap) = (rng.next_u32(), rng.next_below(10_000));
        let next = start.wrapping_add(gap).wrapping_add(1);
        assert_eq!(gap_between(start, next), gap, "case {case}");
    });
}

// -------------------------------------------------------------- netsim

fn direction(seed: u64) -> LinkDirection {
    Link::new(100.0, 0, seed).ab
}

#[test]
fn mmu_conserves_bytes() {
    // Used bytes always equal the sum of queue depths, within the pool.
    for_cases(0x3370, |case, rng| {
        let cfg = MmuConfig {
            total_bytes: 50_000,
            alpha: 2.0,
            pfc_xoff_bytes: 10_000,
            pfc_xon_bytes: 5_000,
            queues_per_port: 2,
        };
        let mut mmu = Mmu::new(4, cfg);
        // Shadow depths drive legal releases.
        let mut depth = [[0u64; 2]; 4];
        for _ in 0..between(rng, 1..300) {
            let (port, queue) = (rng.next_below(4) as u8, rng.next_below(2) as u8);
            let bytes = u64::from(between(rng, 64..2_000));
            let d = &mut depth[usize::from(port)][usize::from(queue)];
            if rng.chance(0.5) {
                if mmu.admit(port, queue, bytes) == MmuVerdict::Admit {
                    *d += bytes;
                }
            } else if *d > 0 {
                let take = (*d).min(bytes);
                mmu.release(port, queue, take);
                *d -= take;
            }
            let total: u64 = depth.iter().flatten().sum();
            assert_eq!(mmu.free_bytes(), cfg.total_bytes - total, "case {case}");
            for (p, row) in (0u8..).zip(&depth) {
                for (q, &want) in (0u8..).zip(row) {
                    assert_eq!(mmu.depth(p, q), want, "case {case}: port {p} queue {q}");
                }
            }
        }
    });
}

#[test]
fn link_faults_deterministic() {
    // Fault judgment depends on the seed alone, not on arrival times.
    for_cases(0x11F, |case, rng| {
        let (seed, prob) = (rng.next_u64(), rng.next_f64() * 0.5);
        let (mut a, mut b) = (direction(seed), direction(seed));
        a.faults.drop_prob = prob;
        b.faults.drop_prob = prob;
        for t in 0..500u64 {
            assert_eq!(a.judge(t), b.judge(t * 17 + 3), "case {case}: frame {t}");
        }
    });
}

#[test]
fn burst_drops_exactly_n() {
    // Once armed, a burst of n drops exactly n frames whatever the
    // arrival times.
    for_cases(0xB0257, |case, rng| {
        let mut times = vec_of(rng, 60..200, |r| u64::from(r.next_below(10_000)));
        times.sort_unstable();
        let arm = u64::from(rng.next_below(1_000));
        // The burst completes only if enough frames arrive after arming.
        let after_arm = times.iter().filter(|&&t| t >= arm).count() as u32;
        let n = 1 + rng.next_below(after_arm.min(49));
        let mut d = direction(9);
        d.faults.burst_drop = Some(BurstDrop { at_ns: arm, count: n, corrupt: false });
        let dropped = times.iter().filter(|&&t| d.judge(t) == LinkOutcome::SilentDrop).count();
        assert_eq!(dropped, n as usize, "case {case}");
    });
}

#[test]
fn tx_time_monotone() {
    // Serialization time grows with size and shrinks with rate.
    for_cases(0x7C, |case, rng| {
        let (bytes, gbps) = (between(rng, 1..10_000) as usize, 1.0 + rng.next_f64() * 399.0);
        let t = tx_time_ns(bytes, gbps);
        assert!(t >= 1, "case {case}");
        assert!(tx_time_ns(bytes + 100, gbps) >= t, "case {case}");
        assert!(tx_time_ns(bytes, gbps + 10.0) <= t, "case {case}");
    });
}

// ----------------------------------------------------------------- pdp

fn prefix_mask(len: u8) -> u32 {
    u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0)
}

#[test]
fn lpm_matches_naive_reference() {
    // Routes are unique per (prefix, len) — a later insert overwrites —
    // so the longest match is unique and the values must agree. Removals
    // (how blackholes are injected) interleave with the inserts.
    for_cases(0x1B3, |case, rng| {
        let mut t: LpmTable<u32> = LpmTable::new();
        let mut routes: Vec<(u32, u8, u32)> = Vec::new();
        for step in 0..rng.next_below(60) {
            if !routes.is_empty() && rng.chance(0.3) {
                // Remove an installed route, named by any address inside it.
                let (p, l, a) = routes.swap_remove(rng.next_below(routes.len() as u32) as usize);
                let addr = p | (rng.next_u32() & !prefix_mask(l));
                let got = t.remove(Ipv4Addr::from_u32(addr), l);
                assert_eq!(got, Some(a), "case {case}: step {step} remove {p:#010x}/{l}");
            } else if rng.chance(0.1) {
                // Removing an absent route changes nothing.
                let (addr, len) = (rng.next_u32(), rng.next_below(33) as u8);
                let prefix = addr & prefix_mask(len);
                if !routes.iter().any(|&(p, l, _)| (p, l) == (prefix, len)) {
                    let got = t.remove(Ipv4Addr::from_u32(addr), len);
                    assert_eq!(got, None, "case {case}: step {step} absent {prefix:#010x}/{len}");
                }
            } else {
                let (addr, len, action) =
                    (rng.next_u32(), rng.next_below(33) as u8, rng.next_u32());
                let prefix = addr & prefix_mask(len);
                routes.retain(|&(p, l, _)| (p, l) != (prefix, len));
                routes.push((prefix, len, action));
                t.insert(Ipv4Addr::from_u32(addr), len, action);
            }
            assert_eq!(t.len(), routes.len(), "case {case}: step {step}");
        }
        for _ in 0..between(rng, 1..50) {
            // Half the probes land inside an installed prefix.
            let probe = match routes.get(rng.next_below(2 * routes.len() as u32) as usize) {
                Some(&(p, l, _)) => p | (rng.next_u32() & !prefix_mask(l)),
                None => rng.next_u32(),
            };
            let want = routes
                .iter()
                .filter(|&&(p, l, _)| probe & prefix_mask(l) == p)
                .max_by_key(|&&(_, l, _)| l)
                .map(|&(_, _, a)| a);
            let got = t.lookup(Ipv4Addr::from_u32(probe)).copied();
            assert_eq!(got, want, "case {case}: probe {probe:#010x}");
        }
    });
}

#[test]
fn acl_first_matching_priority_wins() {
    // Every rule matches; the lowest priority value decides, ties going
    // to the earliest installed.
    for_cases(0xAC1, |case, rng| {
        let sport = rng.next_u32() as u16;
        let rules = vec_of(rng, 1..20, |r| (r.next_below(100), r.chance(0.5)));
        let mut acl = AclTable::new();
        for (id, &(priority, deny)) in (0u32..).zip(&rules) {
            let action = if deny { AclAction::Deny } else { AclAction::Permit };
            acl.install(AclRule {
                sport: Some(sport),
                action,
                ..AclRule::permit_all(id, priority)
            });
        }
        let f = FlowKey::tcp(Ipv4Addr::from_u32(1), sport, Ipv4Addr::from_u32(2), 80);
        let (verdict, _) = acl.evaluate(&f);
        let best = (0..rules.len()).min_by_key(|&i| (rules[i].0, i)).unwrap();
        assert_eq!(verdict == AclAction::Deny, rules[best].1, "case {case}");
    });
}

#[test]
fn register_rmw_equals_sequential_fold() {
    for_cases(0x8E6, |case, rng| {
        let mut reg: RegisterArray<u64> = RegisterArray::new("prop", 16, 64);
        let mut shadow = [0u64; 16];
        for _ in 0..between(rng, 1..100) {
            let (idx, add) = (rng.next_below(16) as usize, u64::from(between(rng, 1..100)));
            assert_eq!(reg.read_modify_write(idx, |v| v + add), shadow[idx], "case {case}");
            shadow[idx] += add;
        }
        for (i, &v) in shadow.iter().enumerate() {
            assert_eq!(reg.read(i), v, "case {case}: cell {i}");
        }
    });
}

#[test]
fn hash_unit_deterministic_and_masked() {
    for_cases(0x4A5, |case, rng| {
        let (seed, bits, n) = (rng.next_u32(), between(rng, 1..33), rng.next_u32());
        let h = HashUnit::new("prop", seed, bits);
        let f = FlowKey::tcp(Ipv4Addr::from_u32(n), 1, Ipv4Addr::from_u32(!n), 2);
        let a = h.hash_flow(&f);
        assert_eq!(a, h.hash_flow(&f), "case {case}");
        assert!(u64::from(a) < 1u64 << bits, "case {case}: {a:#x} exceeds {bits} bits");
    });
}

#[test]
fn hash_units_match_bitwise_crc32() {
    // The table CRC equals the bitwise oracle, and a hash unit equals the
    // oracle over `seed_be ++ data`, masked to its output width.
    for_cases(0xC3A, |case, rng| {
        let data = bytes(rng, 0..200);
        assert_eq!(crc32(&data), crc32_reference(&data), "case {case}: len {}", data.len());
        let (seed, bits) = (rng.next_u32(), between(rng, 1..33));
        let mut seeded = seed.to_be_bytes().to_vec();
        seeded.extend_from_slice(&data);
        let want = (u64::from(crc32_reference(&seeded)) & ((1u64 << bits) - 1)) as u32;
        let got = HashUnit::new("prop", seed, bits).hash_bytes(&data);
        assert_eq!(got, want, "case {case}: seed {seed:#x}, {bits} bits, len {}", data.len());
    });
}

#[test]
fn channel_conserves_bytes() {
    // Every offered byte is accepted or rejected; completions are ordered
    // and never in the past.
    for_cases(0xC4A, |case, rng| {
        let gbps = 1.0 + rng.next_f64() * 99.0;
        let mut ch = RateLimitedChannel::new("prop", gbps, u64::from(between(rng, 1_000..100_000)));
        let (mut t, mut offered, mut last_done) = (0u64, 0u64, 0u64);
        for _ in 0..between(rng, 1..100) {
            t += u64::from(rng.next_below(10_000));
            let bytes = between(rng, 1..5_000) as usize;
            offered += bytes as u64;
            if let Some(done) = ch.offer(t, bytes) {
                assert!(done >= t.max(last_done), "case {case}: completion at {done}");
                last_done = done;
            }
        }
        assert_eq!(ch.accepted_bytes() + ch.rejected_bytes(), offered, "case {case}");
    });
}

// ----------------------------------------------- storage and analytics

/// A query with each filter present at even odds.
fn random_query(rng: &mut Pcg32) -> Query {
    let mut q = Query::any();
    if rng.chance(0.5) {
        q = q.flow(flow(rng.next_below(8)));
    }
    if rng.chance(0.5) {
        q = q.device(rng.next_below(4));
    }
    if rng.chance(0.5) {
        q = q.ty(event_type(rng));
    }
    if rng.chance(0.5) {
        let from = u64::from(rng.next_below(500));
        q = q.window(from, from + u64::from(rng.next_below(600)));
    }
    q
}

fn naive<'a>(events: &'a [StoredEvent], q: &Query) -> Vec<&'a StoredEvent> {
    events
        .iter()
        .filter(|e| q.flow.is_none_or(|f| e.record.flow == f))
        .filter(|e| q.device.is_none_or(|d| e.device == d))
        .filter(|e| q.ty.is_none_or(|t| e.record.ty == t))
        .filter(|e| q.window.is_none_or(|(a, b)| e.time_ns >= a && e.time_ns < b))
        .collect()
}

fn assert_queries_match(store: &EventStore, events: &[StoredEvent], rng: &mut Pcg32, case: u64) {
    assert_eq!(store.events(), events, "case {case}: stored events");
    for _ in 0..16 {
        let q = random_query(rng);
        assert_eq!(store.query(&q), naive(events, &q), "case {case}: {q:?}");
    }
    // Every single-filter query, drawn from no rng: each one's index
    // list is the whole answer, so nothing is re-checked.
    let singles = (0..8)
        .map(|f| Query::any().flow(flow(f)))
        .chain((0..4).map(|d| Query::any().device(d)))
        .chain(ALL_EVENT_TYPES.map(|t| Query::any().ty(t)))
        .chain([(0, 1_000), (250, 500), (999, 1_000)].map(|(a, b)| Query::any().window(a, b)));
    for q in singles {
        assert_eq!(store.query(&q), naive(events, &q), "case {case}: {q:?}");
    }
    for ty in ALL_EVENT_TYPES {
        let of_ty = naive(events, &Query::any().ty(ty));
        assert_eq!(store.count(ty), of_ty.len(), "case {case}: count({ty:?})");
        let pairs: BTreeSet<(u32, FlowKey)> =
            of_ty.iter().map(|e| (e.device, e.record.flow)).collect();
        assert_eq!(store.flow_events(ty), pairs, "case {case}: flow_events({ty:?})");
    }
}

#[test]
fn store_queries_match_a_naive_scan_across_truncate() {
    for_cases(0x5702E, |case, rng| {
        let n = rng.next_below(100) as usize;
        let all: Vec<StoredEvent> = (0..n)
            .map(|_| {
                let t = u64::from(rng.next_below(1_000));
                ev(t, rng.next_below(4), rng.next_below(8), event_type(rng), 1)
            })
            .collect();
        let mut store = EventStore::new();
        store.extend(all.iter().copied());
        assert_queries_match(&store, &all, rng, case);

        // A hard-kill revert keeps exactly the first k events...
        let k = rng.next_below(n as u32 + 1) as usize;
        store.truncate(k);
        assert_queries_match(&store, &all[..k], rng, case);
        // ...and re-ingesting the suffix rebuilds the same store.
        store.extend(all[k..].iter().copied());
        assert_queries_match(&store, &all, rng, case);
    });
}

fn is_interesting(e: &StoredEvent) -> bool {
    e.record.ty.is_drop() || e.record.ty == EventType::Congestion
}

fn engine(cfg: AnalyticsConfig, events: &[StoredEvent]) -> AnalyticsEngine {
    let mut engine = AnalyticsEngine::new(cfg, LinkMap::default());
    engine.ingest_slice(events);
    engine
}

#[test]
fn analytics_ledger_balances_under_tiny_caps() {
    for_cases(0xA1ED6E, |case, rng| {
        let events = random_stream(rng, 300);
        let event_time = rng.chance(0.5);
        let cfg = AnalyticsConfig {
            shards: 1 + rng.next_below(4) as usize,
            max_agg_keys: 1 + rng.next_below(5) as usize,
            topk_k: 1 + rng.next_below(5) as usize,
            lateness_bound_ns: if event_time { u64::from(rng.next_below(50_000)) } else { 0 },
            reorder_cap: if event_time { rng.next_below(16) as usize } else { 0 },
            ..AnalyticsConfig::default()
        };
        let mut engine = engine(cfg, &events);
        let ledger = engine.ledger();
        assert!(ledger.balanced(), "case {case}: {ledger} under {cfg:?}");
        assert_eq!(ledger.ingested, events.len() as u64, "case {case}");
        let boring = events.iter().filter(|e| !is_interesting(e)).count() as u64;
        assert!(
            ledger.shed_analytics <= boring,
            "case {case}: shed {} > boring events {boring}; an interesting event was shed",
            ledger.shed_analytics
        );
        engine.flush();
        let flushed = engine.ledger();
        assert!(flushed.balanced(), "case {case}: {flushed} after flush");
        assert_eq!(flushed.pending_reorder, 0, "case {case}: flush drains the reorder buffers");
    });
}

#[test]
fn totals_match_naive_recompute() {
    // With default budgets nothing sheds and the merged cumulative totals
    // equal a naive recount.
    for_cases(0x707A1, |case, rng| {
        let events = random_stream(rng, 300);
        let shards = between(rng, 1..6) as usize;
        let engine = engine(AnalyticsConfig { shards, ..Default::default() }, &events);
        let mut naive: HashMap<AggKey, WindowStats> = HashMap::new();
        for e in &events {
            let s = naive.entry(AggKey::of(e)).or_default();
            s.events += 1;
            s.weight += u64::from(e.record.counter.max(1));
        }
        let totals = engine.totals();
        assert_eq!(totals.len(), naive.len(), "case {case}");
        for (key, stats) in &totals {
            assert_eq!(Some(stats), naive.get(key), "case {case}: {key:?}");
        }
        let ledger = engine.ledger();
        ledger.assert_balanced();
        assert_eq!(ledger.ingested, events.len() as u64, "case {case}");
        assert_eq!(ledger.shed_analytics, 0, "case {case}: default caps must not shed");
    });
}

#[test]
fn space_saving_bounds_and_guarantee() {
    // Every entry brackets the truth (`count - error <= true <= count`)
    // and every flow heavier than `W / k` is in the table.
    for_cases(0x55, |case, rng| {
        let k = between(rng, 1..24) as usize;
        let mut s = SpaceSaving::new(k);
        let mut truth: HashMap<FlowKey, u64> = HashMap::new();
        for _ in 0..between(rng, 1..400) {
            let (f, w) = (flow(rng.next_below(64)), u64::from(between(rng, 1..16)));
            s.offer(f, w);
            *truth.entry(f).or_default() += w;
        }
        for e in s.top(k) {
            let t = truth.get(&e.flow).copied().unwrap_or(0);
            assert!(e.guaranteed() <= t && t <= e.count, "case {case}: {e:?} vs true {t}");
        }
        let bar = s.guarantee_threshold();
        for (f, &w) in &truth {
            assert!(w <= bar || s.estimate(f).is_some(), "case {case}: {f:?} above W/k evicted");
        }
    });
}

#[test]
fn topk_is_exact_below_capacity() {
    // 48 possible flows against 64 slots per shard: no sketch overflows,
    // so top-k has zero error and recalls every victim flow.
    for_cases(0x70C, |case, rng| {
        let events = random_stream(rng, 250);
        let shards = between(rng, 1..5) as usize;
        let engine = engine(AnalyticsConfig { shards, topk_k: 64, ..Default::default() }, &events);
        let mut truth: HashMap<FlowKey, u64> = HashMap::new();
        for e in events.iter().filter(|e| is_interesting(e)) {
            *truth.entry(e.record.flow).or_default() += u64::from(e.record.counter.max(1));
        }
        let reported = engine.top_flows(truth.len().max(1));
        assert_eq!(reported.len(), truth.len(), "case {case}");
        for e in &reported {
            assert_eq!(e.error, 0, "case {case}: no eviction, no error");
            assert_eq!(Some(&e.count), truth.get(&e.flow), "case {case}");
        }
    });
}

#[test]
fn totals_are_shard_count_invariant() {
    for_cases(0x54A2D, |case, rng| {
        let events = random_stream(rng, 250);
        let run = |shards| engine(AnalyticsConfig { shards, ..Default::default() }, &events);
        let one = run(1);
        for shards in [2, 3, 5] {
            let many = run(shards);
            assert_eq!(many.totals(), one.totals(), "case {case}: totals at {shards} shards");
            assert_eq!(many.ledger(), one.ledger(), "case {case}: ledger at {shards} shards");
        }
    });
}

// -------------------------------------------------------------- export

/// Up to 16 characters, biased toward escaping hazards: quotes,
/// backslashes, newlines, tabs and multi-byte code points.
fn hostile_text(rng: &mut Pcg32) -> String {
    const HAZARDS: [char; 6] = ['\\', '"', '\n', '\t', '\u{e9}', '\u{4e16}'];
    vec_of(rng, 0..17, |r| {
        if r.chance(0.3) {
            HAZARDS[r.next_below(6) as usize]
        } else {
            char::from(b' ' + r.next_below(95) as u8)
        }
    })
    .into_iter()
    .collect()
}

/// A valid metric name: `[a-zA-Z_:][a-zA-Z0-9_:]{0,24}`.
fn metric_name(rng: &mut Pcg32) -> String {
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:0123456789";
    let pick = |r: &mut Pcg32, set: &[u8]| char::from(set[r.next_below(set.len() as u32) as usize]);
    let head = pick(rng, HEAD);
    let tail = vec_of(rng, 0..25, |r| pick(r, TAIL));
    std::iter::once(head).chain(tail).collect()
}

#[test]
fn escaping_roundtrips_losslessly() {
    // Hostile help text and label values survive render -> parse.
    for_cases(0xE5C, |case, rng| {
        let (help, lv) = (hostile_text(rng), hostile_text(rng));
        let v = u64::from(rng.next_below(1_000_000));
        let mut reg = MetricRegistry::default();
        reg.counter_add("fet_prop_total", &help, &[("k", lv.as_str())], v);
        let text = render_prometheus(&reg);
        let doc = parse_exposition(&text)
            .unwrap_or_else(|| panic!("case {case}: rendered text must parse:\n{text}"));
        assert_eq!(
            doc.value("fet_prop_total", &[("k", lv.as_str())]),
            Some(v as f64),
            "case {case}"
        );
    });
}

#[test]
fn otel_stays_valid_json() {
    for_cases(0x07E1, |case, rng| {
        let (name, help, lv) = (metric_name(rng), hostile_text(rng), hostile_text(rng));
        // Zero or any normal float.
        let g = if rng.chance(0.1) {
            0.0
        } else {
            std::iter::repeat_with(|| f64::from_bits(rng.next_u64()))
                .find(|x| x.is_normal())
                .unwrap()
        };
        let mut reg = MetricRegistry::default();
        reg.counter_add("fet_a_total", &help, &[("k", lv.as_str())], 3);
        reg.gauge_set(&name, &help, &[("k", lv.as_str())], g);
        let doc = render_otel(&reg, 0, 42);
        assert!(validate_json(&doc), "case {case}: must stay valid JSON: {doc}");
    });
}

#[test]
fn cardinality_caps_are_airtight_and_counted() {
    // Neither cap is ever exceeded, and every distinct attempted series is
    // either stored or counted as a series- or family-level refusal.
    for_cases(0xCA95, |case, rng| {
        let (max_families, max_series) = (between(rng, 1..4) as usize, between(rng, 1..4) as usize);
        let mut reg =
            MetricRegistry::new(RegistryConfig { max_families, max_series_per_family: max_series });
        // Refusals count per attempt, so feed each distinct series once.
        let attempted: BTreeSet<(u32, u32)> =
            vec_of(rng, 1..200, |r| (r.next_below(8), r.next_below(32))).into_iter().collect();
        for &(f, s) in &attempted {
            reg.counter_add(
                &format!("fet_f{f}_total"),
                "Prop.",
                &[("s", s.to_string().as_str())],
                1,
            );
        }
        assert!(reg.family_count() <= max_families, "case {case}: family cap violated");
        assert!(reg.families().all(|f| f.series.len() <= max_series), "case {case}: series cap");
        let refused = reg.series_rejected + reg.families_rejected;
        assert_eq!(reg.series_count() as u64 + refused, attempted.len() as u64, "case {case}");
    });
}

#[test]
fn rendering_ignores_insertion_order() {
    for_cases(0x0D3, |case, rng| {
        let mut inserts = vec_of(rng, 2..40, |r| {
            (r.next_below(6), r.next_below(6), u64::from(r.next_below(100)))
        });
        let build = |items: &[(u32, u32, u64)]| {
            let mut reg = MetricRegistry::default();
            for &(f, s, v) in items {
                reg.counter_add(
                    &format!("fet_o{f}_total"),
                    "Order.",
                    &[("s", s.to_string().as_str())],
                    v,
                );
            }
            (render_prometheus(&reg), render_otel(&reg, 0, 9))
        };
        let forward = build(&inserts);
        // Counters accumulate, so reversal preserves totals.
        inserts.reverse();
        assert_eq!(build(&inserts), forward, "case {case}: output depends on insertion order");
    });
}
