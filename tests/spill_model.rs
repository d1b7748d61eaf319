//! Model test for the durable spill buffer (`netseer::spill`), in the
//! style of the WAL's disk-model tests: random interleavings of
//! `append` / `drain` / `commit` / `fsync` / `crash` run against both the
//! real [`SpillStore`] and a trivially-correct in-memory reference, and
//! every observable must match exactly at every step.
//!
//! The contract pinned here:
//!
//! * **in-order exactness** — `drain_next` returns precisely the
//!   reference sequence, never a skip, never an invention;
//! * **exactly-once past the durable cursor** — `read` never rewinds
//!   below `durable`, so a committed record is never re-delivered;
//! * **bounded loss** — a crash (with or without a torn tail) destroys at
//!   most the un-fsynced suffix: everything at or below the last known
//!   fsync survives;
//! * **replay accounting** — every re-read after a crash rewind is
//!   counted in `replayed`, nothing else is;
//! * **budget refusal** — `append` refuses exactly when the resident
//!   record count has reached the byte budget, never silently drops.
//!
//! Torn-tail damage runs with duplication disabled: record duplication is
//! deduped by the collector's epoch/seq gates at apply time, one layer
//! above this store, so the store-level model demands prefix-exactness.
//!
//! `CHAOS_SEED` diversifies the interleavings per CI matrix leg.

mod common;

use common::seed;
use fet_netsim::rng::Pcg32;
use fet_packet::event::{EventDetail, EventRecord, EventType};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use netseer::faults::streams;
use netseer::spill::{SpillStore, SPILL_RECORD_LEN};
use netseer::{CollectorConfig, CorruptionGen, CorruptionSpec, StoredEvent};

fn ev(n: u64) -> StoredEvent {
    StoredEvent {
        time_ns: n * 1_000,
        device: (n % 41) as u32,
        epoch: (n % 3) as u32,
        seq: n,
        record: EventRecord {
            ty: EventType::Congestion,
            flow: FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, (n >> 8) as u8, n as u8]),
                1000 + (n % 500) as u16,
                Ipv4Addr::from_octets([10, 1, 0, 1]),
                80,
            ),
            detail: EventDetail::Congestion {
                egress_port: n as u8,
                queue: 0,
                latency_us: (n % 900) as u16,
            },
            counter: 1,
            hash: (n as u32).wrapping_mul(0x9e37_79b9),
        },
    }
}

/// The trivially-correct reference: a flat log with three cursors and a
/// floor on how much is known to be fsynced.
struct Model {
    appended: Vec<StoredEvent>,
    read: usize,
    durable: usize,
    /// Lower bound on fsynced records (the real store also fsyncs on
    /// segment rotation, which the model deliberately does not track —
    /// the loss bound only tightens).
    synced: usize,
    /// Highest read position ever reached (replay accounting).
    high_water: usize,
    expected_replayed: u64,
    expected_refused: u64,
}

#[test]
fn random_interleavings_match_the_reference_model() {
    let base = seed(0x5B1F_3D01);
    for round in 0u64..64 {
        let mut rng = Pcg32::new(base ^ round.wrapping_mul(0xA24B_AED4_963E_E407), round + 1);
        // Geometry drawn per round: tiny segments force rotation, small
        // budgets force refusal.
        let seg_records = 1 + u64::from(rng.next_below(8));
        let budget_records = 8 + u64::from(rng.next_below(64));
        let cfg = CollectorConfig {
            spill_segment_bytes: seg_records * SPILL_RECORD_LEN as u64,
            max_spill_bytes: budget_records * SPILL_RECORD_LEN as u64,
            ..CollectorConfig::default()
        };
        let mut spill = SpillStore::new(&cfg);
        // Alternate clean-truncation and torn-tail crashes across rounds.
        if round % 2 == 0 {
            spill.set_torn(CorruptionGen::new(
                CorruptionSpec { flip_per_byte: 0.05, truncate_prob: 0.5, duplicate_prob: 0.0 },
                base ^ round,
                streams::SPILL_CORRUPT,
            ));
        }
        let mut m = Model {
            appended: Vec::new(),
            read: 0,
            durable: 0,
            synced: 0,
            high_water: 0,
            expected_replayed: 0,
            expected_refused: 0,
        };
        let mut next = 0u64;

        for step in 0..512 {
            match rng.next_below(100) {
                0..=39 => {
                    let e = ev(next);
                    next += 1;
                    let room = spill.resident() < budget_records;
                    let accepted = spill.append(e);
                    assert_eq!(
                        accepted, room,
                        "round {round} step {step}: refusal must track the byte budget exactly"
                    );
                    if accepted {
                        m.appended.push(e);
                    } else {
                        m.expected_refused += 1;
                    }
                }
                40..=69 => {
                    let got = spill.drain_next();
                    if m.read < m.appended.len() {
                        assert_eq!(
                            got,
                            Some(m.appended[m.read]),
                            "round {round} step {step}: drain must be in-order and exact"
                        );
                        if m.read < m.high_water {
                            m.expected_replayed += 1;
                        } else {
                            m.high_water = m.read + 1;
                        }
                        m.read += 1;
                    } else {
                        assert_eq!(got, None, "round {round} step {step}: nothing left to drain");
                    }
                }
                70..=79 => {
                    spill.commit();
                    m.durable = m.read;
                    m.synced = m.synced.max(m.read);
                }
                80..=89 => {
                    spill.fsync();
                    m.synced = m.appended.len();
                }
                _ => {
                    let end_before = m.appended.len();
                    spill.crash();
                    // After the kill: read rewinds to durable and the
                    // surviving log is a prefix of what was appended.
                    let end_after = m.durable + spill.pending() as usize;
                    assert!(
                        end_after <= end_before,
                        "round {round} step {step}: a crash cannot invent records"
                    );
                    assert!(
                        end_after >= m.synced,
                        "round {round} step {step}: loss must be bounded by the un-fsynced \
                         tail (synced {} survived {end_after})",
                        m.synced
                    );
                    assert!(end_after >= m.durable, "durable records must survive");
                    m.appended.truncate(end_after);
                    m.read = m.durable;
                    // The survivors ARE the on-disk truth now: a second
                    // crash cannot destroy them.
                    m.synced = end_after;
                    m.high_water = m.high_water.min(end_after);
                }
            }
            // Cursor identities, every step.
            assert_eq!(spill.pending() as usize, m.appended.len() - m.read);
            assert_eq!(spill.read_cursor() as usize, m.read);
            assert_eq!(spill.durable_cursor() as usize, m.durable);
            assert_eq!(spill.replayed, m.expected_replayed);
            assert_eq!(spill.refused, m.expected_refused);
            assert!(spill.durable_cursor() <= spill.read_cursor());
        }

        // Epilogue: drain to quiescence and ack; everything left must
        // come out exactly once, in order.
        while let Some(got) = spill.drain_next() {
            assert_eq!(got, m.appended[m.read], "round {round}: epilogue drain must be exact");
            m.read += 1;
        }
        assert_eq!(m.read, m.appended.len(), "round {round}: quiescence covers the log");
        spill.commit();
        assert!(spill.is_drained());
        assert_eq!(spill.pending(), 0);
        // Deletion-after-ack reclaims everything once the cursor covers it.
        assert_eq!(spill.resident(), 0, "round {round}: acked segments must be deleted");
    }
}

/// The same interleaving, replayed with the same seed, must reproduce the
/// same store byte-for-byte — crashes, tears, refusals and all. (The
/// scenario matrix relies on this: `CHAOS_SEED` legs are comparable only
/// because each leg is internally deterministic.)
#[test]
fn same_seed_reproduces_the_same_interleaving() {
    let run = |mix: u64| {
        let mut rng = Pcg32::new(seed(0xD15C_05EE) ^ mix, 9);
        let cfg = CollectorConfig {
            spill_segment_bytes: 4 * SPILL_RECORD_LEN as u64,
            max_spill_bytes: 64 * SPILL_RECORD_LEN as u64,
            ..CollectorConfig::default()
        };
        let mut spill = SpillStore::new(&cfg);
        spill.set_torn(CorruptionGen::new(
            CorruptionSpec { flip_per_byte: 0.05, truncate_prob: 0.5, duplicate_prob: 0.0 },
            seed(0xD15C_05EE) ^ mix,
            streams::SPILL_CORRUPT,
        ));
        let mut drained = Vec::new();
        for n in 0..256u64 {
            match rng.next_below(10) {
                0..=4 => {
                    let _ = spill.append(ev(n));
                }
                5..=7 => drained.extend(spill.drain_next()),
                8 => spill.commit(),
                _ => {
                    spill.crash();
                }
            }
        }
        (
            drained,
            spill.appended,
            spill.drained,
            spill.replayed,
            spill.refused,
            spill.torn_records,
            spill.crashes,
            spill.read_cursor(),
            spill.durable_cursor(),
        )
    };
    let a = run(0);
    assert_eq!(a, run(0), "same seed must reproduce the same spill trajectory");
    assert!(a != run(1), "different seeds should perturb the trajectory");
}
