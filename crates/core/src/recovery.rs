//! Crash recovery for the switch-CPU model and the collector.
//!
//! NetSeer's delivery guarantee (§3.5–§3.6) is only as strong as its most
//! volatile component: the CEBP batcher, group caches, and ring buffers
//! all live in switch memory, and the paper's lossless story silently
//! assumes neither the switch CPU nor the collector ever restarts. This
//! module supplies the missing half of the fault model:
//!
//! 1. **Write-ahead log + periodic snapshot** ([`RecoveryLog`]): the
//!    monitor mirrors every mutation of its pending set (enqueue, priority
//!    eviction, batch departure) into a compact op log, and periodically
//!    checkpoints the materialized state (pending events, per-port tagger
//!    heads, group-cache summaries, the ledger). Replaying the log over
//!    the snapshot reconstructs the pending set deterministically.
//!
//! 2. **Fsync discipline**: every *removal* op (a batch leaving, a victim
//!    evicted) is fsynced before its effect is externalized, so a hard
//!    kill can only lose trailing *enqueues*. Replay therefore never
//!    resurrects an event that was already delivered or shed — the ledger
//!    can lose to a crash but never double-count — and `lost_to_crash` is
//!    provably bounded by the enqueues since the last fsync, i.e. by the
//!    checkpoint window.
//!
//! 3. **Exactly-once reconciliation** ([`Collector`]): senders stamp every
//!    delivered event with `(epoch, seq)`; the collector gates on
//!    [`EpochReceiver`] per device, so at-least-once retransmission after
//!    any restart (sender's or collector's) dedups to exactly-once
//!    accounting, and pre-restart retransmits are rejected by epoch.
//!
//! 4. **Restart drivers** ([`schedule_device_crashes`],
//!    [`run_collector_crash_drill`]): turn a [`FaultPlan`]'s seeded crash
//!    schedule into scripted kill/restart actions inside the simulator.
//!
//! [`FaultPlan`]: crate::faults::FaultPlan

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::config::CollectorConfig;
use crate::faults::{CollectorCrash, CorruptionGen, CrashKind, DeliveryLedger, DeviceCrash};
use crate::monitor::NetSeerMonitor;
use crate::spill::SpillStore;
use crate::storage::{EventStore, StoredEvent};
use crate::transport::{EpochReceiver, RxVerdict};
use fet_netsim::engine::Simulator;
use fet_packet::checksum::crc32c;
use fet_packet::event::{EventRecord, EventType, EVENT_RECORD_LEN};

/// One mirrored mutation of the monitor's pending set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// An event entered the pending set (appended at the back).
    Enq(EventRecord),
    /// A priority eviction removed the pending event at this position
    /// (open CEBP first, then stack, oldest first).
    Evict {
        /// Position in the pending order at eviction time.
        pending_pos: u32,
    },
    /// A batch departed: the `count` oldest pending events left.
    Deq {
        /// Events in the departing batch.
        count: u32,
    },
}

const WAL_TAG_ENQ: u8 = 1;
const WAL_TAG_EVICT: u8 = 2;
const WAL_TAG_DEQ: u8 = 3;

/// Per-record CRC trailer length in the serialized WAL.
pub const WAL_RECORD_CRC_LEN: usize = 4;

impl WalOp {
    /// Serialize one op as `[tag][payload][crc32c over tag+payload]` —
    /// the on-disk record format whose per-record CRC lets replay stop
    /// cleanly at the first record a torn write damaged.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        match *self {
            WalOp::Enq(rec) => {
                out.push(WAL_TAG_ENQ);
                let mut b = [0u8; EVENT_RECORD_LEN];
                rec.write_to(&mut b);
                out.extend_from_slice(&b);
            }
            WalOp::Evict { pending_pos } => {
                out.push(WAL_TAG_EVICT);
                out.extend_from_slice(&pending_pos.to_be_bytes());
            }
            WalOp::Deq { count } => {
                out.push(WAL_TAG_DEQ);
                out.extend_from_slice(&count.to_be_bytes());
            }
        }
        let crc = crc32c(&out[start..]);
        out.extend_from_slice(&crc.to_be_bytes());
    }

    /// Decode one record from the head of `buf`. Returns the op and the
    /// bytes consumed, or `None` on a truncated tail, an unknown tag, a
    /// CRC mismatch, or a semantically invalid payload — all the ways a
    /// torn write manifests. Never panics on arbitrary bytes.
    pub fn decode_from(buf: &[u8]) -> Option<(WalOp, usize)> {
        let tag = *buf.first()?;
        let body_len = match tag {
            WAL_TAG_ENQ => 1 + EVENT_RECORD_LEN,
            WAL_TAG_EVICT | WAL_TAG_DEQ => 1 + 4,
            _ => return None,
        };
        let total = body_len + WAL_RECORD_CRC_LEN;
        if buf.len() < total {
            return None;
        }
        let want = u32::from_be_bytes([
            buf[body_len],
            buf[body_len + 1],
            buf[body_len + 2],
            buf[body_len + 3],
        ]);
        if crc32c(&buf[..body_len]) != want {
            return None;
        }
        let op = match tag {
            WAL_TAG_ENQ => WalOp::Enq(EventRecord::parse(&buf[1..body_len]).ok()?),
            WAL_TAG_EVICT => {
                WalOp::Evict { pending_pos: u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]) }
            }
            _ => WalOp::Deq { count: u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]) },
        };
        Some((op, total))
    }
}

/// Serialize a slice of ops into the on-disk record stream.
pub fn encode_wal(ops: &[WalOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        op.encode_into(&mut out);
    }
    out
}

/// Decode the longest valid record prefix of a (possibly torn) WAL byte
/// stream. Replay stops cleanly at the first bad record: everything before
/// it is recovered, everything at and after it is counted as lost — never
/// deserialized as garbage.
pub fn decode_wal_prefix(bytes: &[u8]) -> Vec<WalOp> {
    let mut ops = Vec::new();
    let mut off = 0;
    while let Some((op, used)) = WalOp::decode_from(&bytes[off..]) {
        ops.push(op);
        off += used;
    }
    ops
}

/// Replay a slice of WAL ops over a checkpointed base state. Pure and
/// deterministic: the same `(base, ops)` always yields the same pending
/// set, and replaying a durable log twice yields the same result as once
/// (the function has no hidden state).
pub fn replay_ops(base: &[EventRecord], ops: &[WalOp]) -> VecDeque<EventRecord> {
    let mut q: VecDeque<EventRecord> = base.iter().copied().collect();
    for op in ops {
        match *op {
            WalOp::Enq(rec) => q.push_back(rec),
            WalOp::Evict { pending_pos } => {
                q.remove(pending_pos as usize);
            }
            WalOp::Deq { count } => {
                q.drain(..(count as usize).min(q.len()));
            }
        }
    }
    q
}

/// The in-memory model of an append-only log file with an fsync watermark:
/// `ops[..synced]` survive a hard kill, the tail does not.
#[derive(Debug, Clone, Default)]
struct Wal {
    ops: Vec<WalOp>,
    synced: usize,
}

impl Wal {
    fn append(&mut self, op: WalOp) {
        self.ops.push(op);
    }

    fn fsync(&mut self) {
        self.synced = self.ops.len();
    }

    /// A hard kill: drop the un-fsynced tail, returning how many ops died.
    fn truncate_unsynced(&mut self) -> u64 {
        let lost = self.ops.len() - self.synced;
        self.ops.truncate(self.synced);
        lost as u64
    }

    fn unsynced(&self) -> usize {
        self.ops.len() - self.synced
    }

    fn clear(&mut self) {
        self.ops.clear();
        self.synced = 0;
    }
}

/// Per-event-type group-cache summary captured in a checkpoint. The cache
/// tables themselves are volatile (rebuilt empty after a restart); the
/// summary preserves the cumulative suppression telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupSummary {
    /// Event type this cache serves.
    pub ty: EventType,
    /// Events offered to the cache so far.
    pub offered: u64,
    /// Reports the cache let through.
    pub reports: u64,
}

/// A materialized checkpoint: everything needed to rebuild the durable
/// part of the monitor's state without the WAL.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// When it was taken, global simulator ns (set by
    /// [`RecoveryLog::checkpoint`]; drives the cadence).
    pub taken_ns: u64,
    /// The device's *local* clock reading at checkpoint time — the stamp
    /// a real process would have written to disk. Equal to `taken_ns`
    /// unless clock faults are active; never used for control flow.
    pub taken_local_ns: u64,
    /// The pending set (open CEBP cargo first, then stack, oldest first).
    pub pending: Vec<EventRecord>,
    /// Per-port tagger numbering heads (the notification ring-buffer
    /// heads): `(port, next_seq)`.
    pub tagger_heads: Vec<(u8, u32)>,
    /// Group-cache summaries per event type.
    pub dedup: Vec<DedupSummary>,
    /// The delivery ledger at checkpoint time (observability: lets an
    /// operator bound what a subsequent hard kill can have cost).
    pub ledger: DeliveryLedger,
}

#[derive(Debug, Clone, Copy)]
struct KillRecord {
    kind: CrashKind,
    at_ns: u64,
    pending_at_kill: u64,
    /// WAL ops destroyed by the kill (0 for clean stops).
    ops_lost: u64,
}

/// Accounting summary of one completed restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// The restarted device.
    pub device: u32,
    /// Clean stop or hard kill.
    pub kind: CrashKind,
    /// When the component died, ns.
    pub killed_ns: u64,
    /// When it came back, ns.
    pub restart_ns: u64,
    /// Transport epoch after the reconnect handshake.
    pub epoch: u32,
    /// Pending events at the moment of death.
    pub pending_at_kill: u64,
    /// Pending events reconstructed by snapshot + WAL replay.
    pub replayed: u64,
    /// Pending events the kill destroyed (`pending_at_kill - replayed`);
    /// 0 for clean stops, bounded by the un-fsynced enqueue tail for hard
    /// kills.
    pub lost: u64,
}

/// The write-ahead log + snapshot machinery for one monitor.
///
/// The monitor calls `log_*` as it mutates its pending set, `checkpoint`
/// on its cadence, and `record_kill`/`replay`/`complete_restart` across a
/// crash. Removal ops fsync eagerly (write-ahead discipline: the log entry
/// is durable before the removal's effect — a delivery or a counted shed —
/// is externalized); enqueues ride until the next checkpoint, which is
/// what bounds `lost_to_crash`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryLog {
    wal: Wal,
    snapshot: Snapshot,
    interval_ns: u64,
    last_checkpoint_ns: u64,
    kill: Option<KillRecord>,
    /// When armed, hard kills tear the un-fsynced tail instead of cleanly
    /// truncating it: the tail is serialized, damaged, and decoded back,
    /// keeping only the record prefix whose per-record CRCs still verify.
    torn_wal: Option<CorruptionGen>,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// WAL ops appended.
    pub wal_appends: u64,
    /// Explicit fsyncs (removal ops + checkpoints + clean stops).
    pub wal_fsyncs: u64,
    /// Completed crash/restart cycles.
    pub restarts: u64,
    /// Events destroyed across all hard kills (the ledger's
    /// `lost_to_crash` term).
    pub lost_to_crash: u64,
    /// WAL records rejected during torn-tail recovery (CRC mismatch,
    /// truncated tail, or cut off behind the first bad record).
    pub wal_records_rejected: u64,
}

impl RecoveryLog {
    /// Create with a checkpoint cadence.
    pub fn new(interval_ns: u64) -> Self {
        RecoveryLog { interval_ns: interval_ns.max(1), ..Default::default() }
    }

    /// Mirror an enqueue. Not fsynced — this is the only op class a hard
    /// kill can destroy.
    pub fn log_enq(&mut self, rec: EventRecord) {
        self.wal.append(WalOp::Enq(rec));
        self.wal_appends += 1;
    }

    /// Mirror a priority eviction. Fsynced eagerly: the victim is counted
    /// as shed the moment it is evicted, so the log must never forget the
    /// eviction (replay would otherwise resurrect an already-counted
    /// event and double-count it).
    pub fn log_evict(&mut self, pending_pos: usize) {
        self.wal.append(WalOp::Evict { pending_pos: pending_pos as u32 });
        self.wal_appends += 1;
        self.fsync();
    }

    /// Mirror a batch departure. Fsynced eagerly for the same reason:
    /// the batch's events are about to be delivered or counted shed
    /// downstream, and replay must not bring them back.
    pub fn log_deq(&mut self, count: usize) {
        self.wal.append(WalOp::Deq { count: count as u32 });
        self.wal_appends += 1;
        self.fsync();
    }

    fn fsync(&mut self) {
        self.wal.fsync();
        self.wal_fsyncs += 1;
    }

    /// Is a checkpoint due at `now_ns`?
    pub fn due(&self, now_ns: u64) -> bool {
        now_ns.saturating_sub(self.last_checkpoint_ns) >= self.interval_ns
    }

    /// Install a fresh checkpoint: the snapshot replaces the old one, the
    /// WAL is truncated (its effects are in the snapshot) and the log is
    /// durable again.
    pub fn checkpoint(&mut self, now_ns: u64, snapshot: Snapshot) {
        self.snapshot = snapshot;
        self.snapshot.taken_ns = now_ns;
        self.wal.clear();
        self.fsync();
        self.last_checkpoint_ns = now_ns;
        self.checkpoints += 1;
    }

    /// The current checkpoint.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// WAL ops appended since the last fsync (what a hard kill destroys).
    pub fn unsynced_ops(&self) -> usize {
        self.wal.unsynced()
    }

    /// The component died. A clean stop flushes the tail; a hard kill
    /// truncates it. `pending_at_kill` is the live pending count at the
    /// moment of death, used by [`complete_restart`](Self::complete_restart)
    /// to attribute the difference.
    pub fn record_kill(&mut self, kind: CrashKind, at_ns: u64, pending_at_kill: u64) {
        let ops_lost = match kind {
            CrashKind::Clean => {
                self.fsync();
                0
            }
            CrashKind::Hard => match &mut self.torn_wal {
                Some(gen) if gen.spec.is_active() => {
                    // Torn-write model: the tail was mid-flush when power
                    // died, so part of it made it to disk — damaged. Replay
                    // keeps the prefix that still passes per-record CRCs and
                    // loses everything at and after the first bad record.
                    let unsynced = self.wal.ops.split_off(self.wal.synced);
                    let mut bytes = encode_wal(&unsynced);
                    gen.corrupt(&mut bytes);
                    let survivors = decode_wal_prefix(&bytes);
                    // Byte duplication can re-align into spurious extra
                    // records; never recover more ops than were written.
                    let survived = survivors.len().min(unsynced.len());
                    let lost = (unsynced.len() - survived) as u64;
                    self.wal_records_rejected += lost;
                    self.wal.ops.extend(survivors.into_iter().take(survived));
                    // What decoded off disk is durable by definition.
                    self.wal.fsync();
                    lost
                }
                _ => self.wal.truncate_unsynced(),
            },
        };
        self.kill = Some(KillRecord { kind, at_ns, pending_at_kill, ops_lost });
    }

    /// Arm the torn-write failure model for hard kills. With no generator
    /// (or an inactive spec) hard kills cleanly truncate the un-fsynced
    /// tail, as before.
    pub fn set_torn_wal(&mut self, gen: CorruptionGen) {
        self.torn_wal = Some(gen);
    }

    /// Reconstruct the pending set from the durable state (snapshot + the
    /// surviving WAL). Deterministic; callable any number of times.
    pub fn replay(&self) -> Vec<EventRecord> {
        replay_ops(&self.snapshot.pending, &self.wal.ops).into()
    }

    /// Close the books on a restart: compute what the kill destroyed and
    /// fold it into `lost_to_crash`. Panics if no kill was recorded.
    pub fn complete_restart(&mut self, replayed: u64) -> (CrashKind, u64, u64) {
        let kill = self.kill.take().expect("complete_restart without record_kill");
        let lost = kill.pending_at_kill.saturating_sub(replayed);
        // The fsync discipline guarantees the bound: only enqueues can be
        // un-fsynced, so the replay can only be missing events, and no
        // more of them than the ops the kill destroyed.
        debug_assert!(lost <= kill.ops_lost, "lost {lost} > destroyed ops {}", kill.ops_lost);
        debug_assert!(
            kill.kind == CrashKind::Hard || lost == 0,
            "a clean stop must lose nothing, lost {lost}"
        );
        self.lost_to_crash += lost;
        self.restarts += 1;
        (kill.kind, kill.at_ns, lost)
    }
}

/// The backend collector with crash-consistent, exactly-once ingestion
/// and durable backpressure buffering.
///
/// Every [`StoredEvent`] arrives stamped `(device, epoch, seq)`; a
/// per-device [`EpochReceiver`] admits each key once, rejects same-epoch
/// duplicates, and refuses retransmits from pre-restart epochs. Because
/// ingestion is idempotent, recovery after a collector crash is simply
/// *re-offering*: senders keep their delivered history, and a
/// reconciliation pass re-ingests it — accepted exactly where the
/// reverted store is missing events, deduped everywhere else.
///
/// Under burst overload the admission order is **memory → spill → shed**:
/// once the undrained in-memory backlog passes the configured watermark,
/// deliveries divert verbatim into a bounded disk-backed [`SpillStore`]
/// and only a full spill refuses (counted). Spilled events pass the
/// epoch/seq gates when they are *applied* to the store
/// ([`pump_spill`](Self::pump_spill)), never at spill-admission — so the
/// gates always mirror the store exactly, the pair reverts together on a
/// hard kill, and replaying the spill from the durable cursor re-admits
/// each event exactly once.
#[derive(Debug, Clone)]
pub struct Collector {
    cfg: CollectorConfig,
    store: EventStore,
    gates: HashMap<u32, EpochReceiver>,
    checkpoint: Option<CollectorCheckpoint>,
    subscribers: HashMap<u32, usize>,
    next_subscriber: u32,
    quarantine: Vec<PoisonFrame>,
    spill: SpillStore,
    /// Crash/restart cycles survived.
    pub restarts: u64,
    /// Events rolled back by hard kills (recovered later by
    /// reconciliation; this counts the repair work, not a final loss).
    pub reverted_by_crash: u64,
    /// Poison frames offered to quarantine, including any dropped after
    /// the retention bound was reached.
    pub poison_seen: u64,
    /// Deliveries diverted to the spill (admitted to disk, not memory).
    pub spilled: u64,
    /// Deliveries refused because the spill byte budget was exhausted —
    /// the shed-of-last-resort the spill exists to make rare.
    pub overflow_refused: u64,
    /// Events applied to the store from the spill.
    pub spill_applied: u64,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::with_config(CollectorConfig::default())
    }
}

/// A telemetry frame that failed its CRC trailer, quarantined verbatim for
/// CPU-side inspection instead of being parsed (it never reaches the event
/// store — corrupted batches are counted in the ledger's `corrupted` term).
#[derive(Debug, Clone)]
pub struct PoisonFrame {
    /// The monitor whose telemetry stream produced the frame.
    pub device: u32,
    /// Sim time the frame was quarantined, ns.
    pub quarantined_ns: u64,
    /// The damaged wire bytes, verbatim.
    pub frame: Vec<u8>,
    /// The parse failure that condemned it.
    pub reason: String,
}

/// The durable part of a collector: what a hard kill reverts to. Cursors
/// ride along so a subscriber's position rewinds together with the store
/// it indexes into.
#[derive(Debug, Clone, Default)]
struct CollectorCheckpoint {
    /// Store length: ingestion is insert-only, so the checkpointed store
    /// is always this prefix of the live one.
    len: usize,
    gates: HashMap<u32, EpochReceiver>,
    cursors: HashMap<u32, usize>,
}

impl Collector {
    /// Empty collector with the default configuration (spilling disabled:
    /// the memory watermark is never reached).
    pub fn new() -> Self {
        Collector::default()
    }

    /// Empty collector with an explicit [`CollectorConfig`] (watermark,
    /// spill budget, quarantine retention).
    pub fn with_config(cfg: CollectorConfig) -> Self {
        Collector {
            spill: SpillStore::new(&cfg),
            cfg,
            store: EventStore::default(),
            gates: HashMap::new(),
            checkpoint: None,
            subscribers: HashMap::new(),
            next_subscriber: 0,
            quarantine: Vec::new(),
            restarts: 0,
            reverted_by_crash: 0,
            poison_seen: 0,
            spilled: 0,
            overflow_refused: 0,
            spill_applied: 0,
        }
    }

    /// The collector's configuration.
    pub fn config(&self) -> &CollectorConfig {
        &self.cfg
    }

    /// Offer a slice of deliveries. Returns how many were accepted into
    /// the in-memory store (the rest were duplicates, stale-epoch
    /// retransmits, diverted to the spill, or refused-and-counted when
    /// the spill budget ran out — never silently absorbed).
    ///
    /// Admission order: while the spill holds undrained records OR the
    /// undrained memory backlog is at the watermark, deliveries go to the
    /// spill **verbatim and ungated** — FIFO order is preserved (an event
    /// must not overtake the spilled events ahead of it) and the gates
    /// stay exactly in sync with the store. Gating happens at apply time
    /// in [`pump_spill`](Self::pump_spill).
    pub fn ingest(&mut self, events: &[StoredEvent]) -> u64 {
        let mut accepted = 0;
        for e in events {
            if !self.spill.is_drained() || self.backlog() >= self.cfg.memory_watermark {
                if self.spill.append(*e) {
                    self.spilled += 1;
                } else {
                    self.overflow_refused += 1;
                }
                continue;
            }
            if self.gates.entry(e.device).or_default().accept(e.epoch, e.seq) == RxVerdict::Accepted
            {
                self.store.insert(*e);
                accepted += 1;
            }
        }
        accepted
    }

    /// The undrained in-memory backlog: stored events the slowest
    /// subscriber has not drained yet (0 with no subscribers — nothing is
    /// waiting on anyone).
    pub fn backlog(&self) -> usize {
        let len = self.store.len();
        let min_cursor = self.subscribers.values().copied().min().unwrap_or(len);
        len - min_cursor.min(len)
    }

    /// Apply spilled events to the store while the backlog is below the
    /// watermark: each drained record passes the per-device epoch/seq
    /// gate (duplicate spill copies dedup here) and inserts exactly like
    /// a live delivery. Returns how many events were applied. The durable
    /// spill cursor does not advance until [`checkpoint`](Self::checkpoint).
    pub fn pump_spill(&mut self) -> u64 {
        let mut applied = 0;
        while !self.spill.is_drained() && self.backlog() < self.cfg.memory_watermark {
            let Some(e) = self.spill.drain_next() else { break };
            if self.gates.entry(e.device).or_default().accept(e.epoch, e.seq) == RxVerdict::Accepted
            {
                self.store.insert(e);
                self.spill_applied += 1;
                applied += 1;
            }
        }
        applied
    }

    /// Deliveries parked in the spill and not yet applied to the store —
    /// the fleet ledger's `buffered` term.
    pub fn buffered(&self) -> u64 {
        self.spill.pending()
    }

    /// Spill records re-read after a crash rewound the read cursor.
    pub fn spill_replayed(&self) -> u64 {
        self.spill.replayed
    }

    /// The spill store (telemetry: segment counts, fsyncs, cursors).
    pub fn spill(&self) -> &SpillStore {
        &self.spill
    }

    /// Arm the torn-tail failure model for the spill: a hard kill damages
    /// the open segment past its sync watermark instead of cleanly
    /// truncating it. Draw the generator on
    /// [`streams::SPILL_CORRUPT`](crate::faults::streams::SPILL_CORRUPT).
    pub fn set_torn_spill(&mut self, gen: CorruptionGen) {
        self.spill.set_torn(gen);
    }

    /// How hard the collector is pushing back, in widening levels: 0 below
    /// the watermark, then one level per watermark-multiple of combined
    /// memory backlog + spill occupancy. Monitors widen their batch-flush
    /// stride to `2^level` (capped by their own config) — deterministic,
    /// bounded, and zero when spilling is disabled.
    pub fn backpressure_level(&self) -> u32 {
        let wm = self.cfg.memory_watermark;
        if wm == 0 || wm == usize::MAX {
            return 0;
        }
        let load = self.backlog() as u64 + self.spill.pending();
        (load / wm as u64).min(u64::from(u32::MAX)) as u32
    }

    /// Re-bucket a fleet [`DeliveryLedger`] for this collector's view:
    /// deliveries currently parked in the spill move from `delivered`
    /// into `buffered`, keeping the ledger identity exact end to end.
    pub fn refine_fleet_ledger(&self, ledger: &mut DeliveryLedger) {
        let buffered = self.spill.pending();
        ledger.delivered = ledger.delivered.saturating_sub(buffered);
        ledger.buffered += buffered;
    }

    /// Durably checkpoint the store, the dedup gates, and the subscriber
    /// cursors, and commit the spill cursor (fsync data through the read
    /// position, advance + fsync the durable cursor, delete acked
    /// segments). A hard kill reverts to the latest checkpoint — and the
    /// spill replays exactly the records applied since it.
    pub fn checkpoint(&mut self) {
        self.checkpoint = Some(CollectorCheckpoint {
            len: self.store.len(),
            gates: self.gates.clone(),
            cursors: self.subscribers.clone(),
        });
        self.spill.commit();
    }

    /// Crash and restart. A clean stop fsyncs the spill and checkpoints
    /// on the way down (loses nothing); a hard kill reverts store, gates,
    /// and subscriber cursors to the last checkpoint, tears the spill's
    /// un-fsynced tail (longest-valid-prefix recovery), and rewinds the
    /// spill read position to the durable cursor so the unacked suffix
    /// replays through the reverted gates. Returns how many stored events
    /// were rolled back.
    pub fn crash_restart(&mut self, kind: CrashKind) -> u64 {
        if kind == CrashKind::Clean {
            self.spill.fsync();
            self.checkpoint();
        }
        let before = self.store.len();
        let cp = self.checkpoint.clone().unwrap_or_default();
        self.store.truncate(cp.len);
        self.gates = cp.gates;
        // Subscribers registered after the checkpoint keep their id but
        // rewind to the surviving prefix.
        for (id, cursor) in self.subscribers.iter_mut() {
            *cursor = cp.cursors.get(id).copied().unwrap_or(*cursor).min(self.store.len());
        }
        self.spill.crash();
        let reverted = (before - self.store.len()) as u64;
        self.reverted_by_crash += reverted;
        self.restarts += 1;
        reverted
    }

    /// Default quarantine retention (see
    /// [`CollectorConfig::max_quarantine`] to change it per collector).
    pub const MAX_QUARANTINE: usize = 64;

    /// Quarantine a poison frame for inspection. Returns `true` when the
    /// frame was retained, `false` when only counted (bound reached).
    pub fn quarantine_poison(&mut self, frame: PoisonFrame) -> bool {
        self.poison_seen += 1;
        if self.quarantine.len() < self.cfg.max_quarantine {
            self.quarantine.push(frame);
            true
        } else {
            false
        }
    }

    /// The quarantined poison frames, oldest first.
    pub fn quarantine(&self) -> &[PoisonFrame] {
        &self.quarantine
    }

    /// Register a delivery subscriber starting at the beginning of the
    /// store. Returns the subscription id for [`drain_ordered`].
    ///
    /// [`drain_ordered`]: Self::drain_ordered
    pub fn subscribe(&mut self) -> u32 {
        let id = self.next_subscriber;
        self.next_subscriber += 1;
        self.subscribers.insert(id, 0);
        id
    }

    /// Drain every event stored since this subscriber last drained, in
    /// acceptance order (per-device epoch/seq-monotonic — the gates admit
    /// each `(device, epoch, seq)` exactly once, so the drained stream is
    /// duplicate-free by construction). Advances the cursor.
    pub fn drain_ordered(&mut self, id: u32) -> Vec<StoredEvent> {
        let Some(cursor) = self.subscribers.get_mut(&id) else {
            return Vec::new();
        };
        let from = (*cursor).min(self.store.len());
        *cursor = self.store.len();
        self.store.events()[from..].to_vec()
    }

    /// Move a subscriber's cursor (clamped to the store length). Rewinding
    /// replays events on the next drain — used by consumers that revert
    /// their own state and need the reverted suffix again.
    pub fn set_cursor(&mut self, id: u32, pos: usize) {
        if let Some(cursor) = self.subscribers.get_mut(&id) {
            *cursor = pos.min(self.store.len());
        }
    }

    /// A subscriber's current cursor, if registered.
    pub fn cursor(&self, id: u32) -> Option<usize> {
        self.subscribers.get(&id).copied()
    }

    /// The stored events.
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    /// Stored event count.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The sender suffix the collector still needs from `device`: its
    /// side of the reconnect handshake. Sequences below the watermark are
    /// covered; the sender retransmits from here.
    pub fn needed_from(&self, device: u32, epoch: u32) -> u64 {
        self.gates.get(&device).map_or(0, |g| g.watermark(epoch))
    }

    /// Same-epoch duplicates suppressed across all devices.
    pub fn duplicates_rejected(&self) -> u64 {
        self.gates.values().map(|g| g.duplicates_rejected).sum()
    }

    /// Pre-restart-epoch retransmits rejected across all devices.
    pub fn stale_epoch_rejected(&self) -> u64 {
        self.gates.values().map(|g| g.stale_epoch_rejected).sum()
    }
}

/// Handle to the crash reports produced by [`schedule_device_crashes`]:
/// the scripted actions run inside the simulator, so results surface
/// through this shared log after `run_until`.
#[derive(Debug, Clone, Default)]
pub struct CrashLog {
    reports: Arc<Mutex<Vec<CrashReport>>>,
}

impl CrashLog {
    /// Reports of all completed restarts, in restart order.
    pub fn reports(&self) -> Vec<CrashReport> {
        self.reports.lock().unwrap().clone()
    }

    /// Completed restarts.
    pub fn len(&self) -> usize {
        self.reports.lock().unwrap().len()
    }

    /// True when no restart completed.
    pub fn is_empty(&self) -> bool {
        self.reports.lock().unwrap().is_empty()
    }

    /// Total events destroyed across all kills.
    pub fn total_lost(&self) -> u64 {
        self.reports.lock().unwrap().iter().map(|r| r.lost).sum()
    }
}

/// Script a [`FaultPlan`](crate::faults::FaultPlan)'s device crashes into
/// the simulator: at `at_ns` the device's monitor is detached (the switch
/// CPU dies; the data plane keeps forwarding unobserved), and at
/// `restart_ns` it recovers from its checkpoint + WAL, reconnects its
/// transport under a new epoch, and is reattached. Neighboring switches
/// re-base their gap detectors for the restarted peer's ports so the
/// post-restart sequence discontinuity is not mistaken for a loss burst.
///
/// Call after [`deploy`](crate::deploy::deploy) and before `run_until`.
pub fn schedule_device_crashes(sim: &mut Simulator, crashes: &[DeviceCrash]) -> CrashLog {
    let log = CrashLog::default();
    for c in crashes.iter().copied() {
        assert!(c.restart_ns > c.at_ns, "restart must follow the kill: {c:?}");
        let stash: Arc<Mutex<Option<Box<dyn fet_netsim::monitor::SwitchMonitor>>>> =
            Arc::new(Mutex::new(None));

        let kill_stash = Arc::clone(&stash);
        sim.schedule_control(c.at_ns, move |s| {
            if let Some(mut bm) = s.take_node_monitor(c.device) {
                if let Some(ns) = bm.as_any_mut().downcast_mut::<NetSeerMonitor>() {
                    ns.crash(c.kind, c.at_ns);
                }
                *kill_stash.lock().unwrap() = Some(bm);
            }
        });

        let restart_stash = Arc::clone(&stash);
        let reports = Arc::clone(&log.reports);
        sim.schedule_control(c.restart_ns, move |s| {
            let Some(mut bm) = restart_stash.lock().unwrap().take() else {
                return;
            };
            if let Some(ns) = bm.as_any_mut().downcast_mut::<NetSeerMonitor>() {
                reports.lock().unwrap().push(ns.restart(c.restart_ns));
            }
            s.install_node_monitor(c.device, bm);
            // Downstream neighbors (switches AND host NICs — edge ports
            // are tagged when NIC deployment is on) re-sync on the
            // restarted tagger without charging the discontinuity as
            // inter-switch loss. A neighbor currently crashed itself is
            // skipped: its own restart re-bases all its detectors.
            let ports: Vec<u8> =
                s.adjacency().get(&c.device).into_iter().flatten().map(|&(port, _)| port).collect();
            for port in ports {
                let Some((nb, nb_port)) = s.peer_of(c.device, port) else { continue };
                if let Some(mut nm) = s.take_node_monitor(nb) {
                    if let Some(ns) = nm.as_any_mut().downcast_mut::<NetSeerMonitor>() {
                        ns.rebase_ingress(nb_port);
                    }
                    s.install_node_monitor(nb, nm);
                }
            }
        });
    }
    log
}

/// Drive a collector through a crash schedule against a time-ordered
/// delivery stream, then reconcile: events delivered before each crash are
/// ingested, the crash fires (with a checkpoint taken at the preceding
/// crash boundary for hard kills to revert to), and after the last crash
/// the full history is re-offered — the idempotent gates turn the repair
/// into exactly-once. Returns the total events reverted by hard kills
/// (all of which reconciliation restores).
pub fn run_collector_crash_drill(
    collector: &mut Collector,
    deliveries: &[StoredEvent],
    crashes: &[CollectorCrash],
) -> u64 {
    let mut sorted: Vec<StoredEvent> = deliveries.to_vec();
    sorted.sort_by_key(|e| (e.time_ns, e.device, e.epoch, e.seq));
    let mut schedule: Vec<CollectorCrash> = crashes.to_vec();
    schedule.sort_by_key(|c| c.at_ns);
    let mut reverted = 0;
    let mut cursor = 0;
    for crash in schedule {
        let upto = sorted[cursor..].partition_point(|e| e.time_ns < crash.at_ns) + cursor;
        collector.ingest(&sorted[cursor..upto]);
        cursor = upto;
        reverted += collector.crash_restart(crash.kind);
        // Reconnect handshake: each sender learns the collector's
        // watermark and retransmits its uncovered suffix BEFORE new
        // deliveries resume — the per-epoch watermark must not jump over
        // the reverted range, or it would be rejected as duplicate
        // forever. The gates accept exactly what the kill reverted.
        collector.ingest(&sorted[..cursor]);
    }
    collector.ingest(&sorted[cursor..]);
    // A final full re-offer demonstrates idempotence: everything dedups.
    collector.ingest(&sorted);
    reverted
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::{EventDetail, EventType};
    use fet_packet::ipv4::Ipv4Addr;
    use fet_packet::FlowKey;

    fn rec(n: u16) -> EventRecord {
        EventRecord {
            ty: EventType::Congestion,
            flow: FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, 1]),
                n,
                Ipv4Addr::from_octets([10, 0, 0, 2]),
                80,
            ),
            detail: EventDetail::Congestion { egress_port: 0, queue: 0, latency_us: n },
            counter: 1,
            hash: u32::from(n),
        }
    }

    fn stored(device: u32, epoch: u32, seq: u64) -> StoredEvent {
        StoredEvent { time_ns: seq * 10, device, epoch, seq, record: rec(seq as u16) }
    }

    #[test]
    fn replay_reconstructs_enq_evict_deq() {
        let base = [rec(0), rec(1)];
        let ops = [
            WalOp::Enq(rec(2)),
            WalOp::Enq(rec(3)),
            // Evict position 1 (= rec(1)).
            WalOp::Evict { pending_pos: 1 },
            // A batch of 2 departs (= rec(0), rec(2)).
            WalOp::Deq { count: 2 },
            WalOp::Enq(rec(4)),
        ];
        let q = replay_ops(&base, &ops);
        assert_eq!(Vec::from(q), vec![rec(3), rec(4)]);
    }

    #[test]
    fn replay_is_idempotent_over_a_durable_log() {
        let base = [rec(7)];
        let ops = [WalOp::Enq(rec(8)), WalOp::Deq { count: 1 }, WalOp::Enq(rec(9))];
        assert_eq!(replay_ops(&base, &ops), replay_ops(&base, &ops));
    }

    #[test]
    fn clean_stop_loses_nothing() {
        let mut log = RecoveryLog::new(1_000_000);
        for n in 0..5 {
            log.log_enq(rec(n));
        }
        assert_eq!(log.unsynced_ops(), 5);
        log.record_kill(CrashKind::Clean, 500, 5);
        let replayed = log.replay();
        assert_eq!(replayed.len(), 5, "clean stop fsyncs the tail");
        let (kind, at, lost) = log.complete_restart(replayed.len() as u64);
        assert_eq!((kind, at, lost), (CrashKind::Clean, 500, 0));
        assert_eq!(log.lost_to_crash, 0);
        assert_eq!(log.restarts, 1);
    }

    #[test]
    fn hard_kill_loses_only_the_unsynced_enqueue_tail() {
        let mut log = RecoveryLog::new(1_000_000);
        log.log_enq(rec(0));
        log.log_enq(rec(1));
        // Checkpoint materializes the two and truncates the WAL.
        log.checkpoint(100, Snapshot { pending: vec![rec(0), rec(1)], ..Default::default() });
        // A batch departs (fsynced eagerly) then three arrive un-fsynced.
        log.log_deq(2);
        for n in 2..5 {
            log.log_enq(rec(n));
        }
        assert_eq!(log.unsynced_ops(), 3);
        log.record_kill(CrashKind::Hard, 900, 3);
        let replayed = log.replay();
        // The Deq survived (fsynced), the three enqueues died.
        assert!(replayed.is_empty());
        let (kind, _, lost) = log.complete_restart(replayed.len() as u64);
        assert_eq!(kind, CrashKind::Hard);
        assert_eq!(lost, 3, "exactly the un-fsynced tail");
        assert_eq!(log.lost_to_crash, 3);
    }

    #[test]
    fn hard_kill_never_resurrects_removed_events() {
        // The dangerous interleaving: deliver a batch, then die hard
        // before any further fsync. If the Deq were not fsynced eagerly,
        // replay would resurrect the delivered events (double count).
        let mut log = RecoveryLog::new(1_000_000);
        log.checkpoint(0, Snapshot { pending: vec![rec(0), rec(1), rec(2)], ..Default::default() });
        log.log_deq(3); // delivered downstream
        log.record_kill(CrashKind::Hard, 50, 0);
        assert!(log.replay().is_empty(), "delivered events must stay gone");
        let (_, _, lost) = log.complete_restart(0);
        assert_eq!(lost, 0);
    }

    #[test]
    fn eviction_is_durable_before_the_shed_is_counted() {
        let mut log = RecoveryLog::new(1_000_000);
        log.checkpoint(0, Snapshot { pending: vec![rec(0), rec(1)], ..Default::default() });
        // rec(0) evicted (counted shed), a replacement arrives un-fsynced.
        log.log_evict(0);
        log.log_enq(rec(9));
        log.record_kill(CrashKind::Hard, 10, 2);
        let replayed = log.replay();
        assert_eq!(replayed, vec![rec(1)], "the evicted event must not come back");
        let (_, _, lost) = log.complete_restart(replayed.len() as u64);
        assert_eq!(lost, 1, "only the un-fsynced arrival died");
    }

    #[test]
    fn checkpoint_cadence_gates_due() {
        let mut log = RecoveryLog::new(1_000);
        assert!(log.due(1_000));
        log.checkpoint(1_000, Snapshot::default());
        assert!(!log.due(1_500));
        assert!(log.due(2_000));
        assert_eq!(log.checkpoints, 1);
    }

    #[test]
    fn collector_ingest_is_exactly_once() {
        let mut c = Collector::new();
        let history: Vec<StoredEvent> = (0..10).map(|s| stored(3, 0, s)).collect();
        assert_eq!(c.ingest(&history), 10);
        // At-least-once: the full history re-offered dedups entirely.
        assert_eq!(c.ingest(&history), 0);
        assert_eq!(c.len(), 10);
        assert_eq!(c.duplicates_rejected(), 10);
    }

    #[test]
    fn collector_hard_kill_reverts_then_reconciliation_repairs() {
        let mut c = Collector::new();
        let history: Vec<StoredEvent> = (0..20).map(|s| stored(1, 0, s)).collect();
        c.ingest(&history[..8]);
        c.checkpoint();
        c.ingest(&history[8..15]);
        let reverted = c.crash_restart(CrashKind::Hard);
        assert_eq!(reverted, 7, "events since the checkpoint roll back");
        assert_eq!(c.len(), 8);
        // Reconciliation: the sender re-offers its whole delivered
        // history; the gates accept exactly the missing suffix.
        assert_eq!(c.ingest(&history), 12);
        assert_eq!(c.len(), 20);
        assert_eq!(c.restarts, 1);
    }

    #[test]
    fn collector_clean_stop_loses_nothing() {
        let mut c = Collector::new();
        c.ingest(&(0..5).map(|s| stored(2, 0, s)).collect::<Vec<_>>());
        assert_eq!(c.crash_restart(CrashKind::Clean), 0);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn collector_rejects_pre_restart_epoch_after_bump() {
        let mut c = Collector::new();
        c.ingest(&[stored(5, 0, 0), stored(5, 0, 1)]);
        // The device restarted: epoch 1 deliveries arrive.
        c.ingest(&[stored(5, 1, 2)]);
        // A straggling epoch-0 retransmit must not enter the store.
        assert_eq!(c.ingest(&[stored(5, 0, 1)]), 0);
        assert_eq!(c.stale_epoch_rejected(), 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn collector_drill_is_exactly_once_across_crashes() {
        let history: Vec<StoredEvent> = (0..50).map(|s| stored(9, 0, s)).collect();
        let crashes = [
            CollectorCrash { at_ns: 120, kind: CrashKind::Clean },
            CollectorCrash { at_ns: 333, kind: CrashKind::Hard },
        ];
        let mut c = Collector::new();
        let reverted = run_collector_crash_drill(&mut c, &history, &crashes);
        assert_eq!(c.len(), 50, "every delivery stored exactly once");
        assert!(reverted > 0, "the hard kill must actually revert work");
        assert!(c.duplicates_rejected() >= 50, "reconciliation re-offers dedup");
    }

    #[test]
    fn subscriber_drains_each_event_exactly_once() {
        let mut c = Collector::new();
        let id = c.subscribe();
        c.ingest(&(0..4).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        assert_eq!(c.drain_ordered(id).len(), 4);
        assert!(c.drain_ordered(id).is_empty(), "second drain sees nothing new");
        c.ingest(&(4..7).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        let tail = c.drain_ordered(id);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5, 6]);
        // Duplicate re-offers never reach subscribers: the gates eat them.
        c.ingest(&(0..7).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        assert!(c.drain_ordered(id).is_empty());
    }

    #[test]
    fn late_subscriber_sees_the_full_history() {
        let mut c = Collector::new();
        c.ingest(&(0..5).map(|s| stored(2, 0, s)).collect::<Vec<_>>());
        let id = c.subscribe();
        assert_eq!(c.drain_ordered(id).len(), 5, "subscription starts at the beginning");
    }

    #[test]
    fn hard_kill_rewinds_cursors_with_the_store() {
        let mut c = Collector::new();
        let id = c.subscribe();
        c.ingest(&(0..8).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        assert_eq!(c.drain_ordered(id).len(), 8);
        c.checkpoint();
        c.ingest(&(8..12).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        assert_eq!(c.drain_ordered(id).len(), 4);
        assert_eq!(c.crash_restart(CrashKind::Hard), 4);
        assert_eq!(c.cursor(id), Some(8), "cursor reverts with the store");
        // Reconciliation restores the suffix; the subscriber re-drains
        // exactly the reverted events, nothing twice.
        c.ingest(&(0..12).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        let redrained = c.drain_ordered(id);
        assert_eq!(redrained.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![8, 9, 10, 11]);
    }

    #[test]
    fn set_cursor_clamps_and_replays() {
        let mut c = Collector::new();
        let id = c.subscribe();
        c.ingest(&(0..3).map(|s| stored(1, 0, s)).collect::<Vec<_>>());
        c.drain_ordered(id);
        c.set_cursor(id, 1);
        assert_eq!(c.drain_ordered(id).len(), 2, "rewind replays the suffix");
        c.set_cursor(id, 99);
        assert_eq!(c.cursor(id), Some(3), "clamped to the store length");
    }

    #[test]
    fn wal_records_roundtrip_through_bytes() {
        let ops =
            vec![WalOp::Enq(rec(7)), WalOp::Evict { pending_pos: 3 }, WalOp::Deq { count: 12 }];
        let bytes = encode_wal(&ops);
        assert_eq!(decode_wal_prefix(&bytes), ops);
        // A truncated tail is tolerated: full records decode, the stub is
        // dropped without error.
        assert_eq!(decode_wal_prefix(&bytes[..bytes.len() - 1]), ops[..2].to_vec());
    }

    #[test]
    fn wal_decode_stops_at_first_bad_record() {
        let ops: Vec<WalOp> = (0..4).map(|n| WalOp::Enq(rec(n))).collect();
        let mut bytes = encode_wal(&ops);
        let rec_len = bytes.len() / 4;
        // Damage the second record: everything at and after it is lost,
        // even though records three and four are intact on disk.
        bytes[rec_len + 5] ^= 0x40;
        assert_eq!(decode_wal_prefix(&bytes), ops[..1].to_vec());
        // Garbage decodes to nothing rather than panicking.
        assert!(decode_wal_prefix(&[0xff; 200]).is_empty());
        assert!(decode_wal_prefix(&[]).is_empty());
    }

    #[test]
    fn torn_hard_kill_keeps_the_surviving_record_prefix() {
        use crate::faults::{streams, CorruptionGen, CorruptionSpec};
        let mut log = RecoveryLog::new(1_000_000);
        log.checkpoint(0, Snapshot::default());
        // Flip enough bits that some of the 32-record tail is damaged, but
        // at ~1e-3/byte almost never all of it.
        log.set_torn_wal(CorruptionGen::new(
            CorruptionSpec::bit_flips(1e-3),
            42,
            streams::WAL_CORRUPT,
        ));
        for n in 0..32 {
            log.log_enq(rec(n));
        }
        log.record_kill(CrashKind::Hard, 900, 32);
        let replayed = log.replay();
        assert!(!replayed.is_empty(), "torn write should save a prefix");
        assert!(replayed.len() < 32, "seed 42 at 1e-3 damages the tail");
        assert_eq!(replayed, (0..replayed.len()).map(|n| rec(n as u16)).collect::<Vec<_>>());
        let (_, _, lost) = log.complete_restart(replayed.len() as u64);
        assert_eq!(lost as usize + replayed.len(), 32);
        assert_eq!(log.wal_records_rejected, lost);
    }

    #[test]
    fn inactive_torn_spec_behaves_like_clean_truncation() {
        let run = |armed: bool| {
            use crate::faults::{streams, CorruptionGen, CorruptionSpec};
            let mut log = RecoveryLog::new(1_000_000);
            if armed {
                log.set_torn_wal(CorruptionGen::new(
                    CorruptionSpec::none(),
                    7,
                    streams::WAL_CORRUPT,
                ));
            }
            log.checkpoint(0, Snapshot { pending: vec![rec(0)], ..Default::default() });
            log.log_deq(1);
            log.log_enq(rec(1));
            log.record_kill(CrashKind::Hard, 10, 1);
            log.replay()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn collector_quarantines_poison_frames_bounded() {
        let mut c = Collector::new();
        for n in 0..(Collector::MAX_QUARANTINE as u64 + 10) {
            let kept = c.quarantine_poison(PoisonFrame {
                device: 3,
                quarantined_ns: n,
                frame: vec![0xde, 0xad],
                reason: "cebp.crc32c".into(),
            });
            assert_eq!(kept, (n as usize) < Collector::MAX_QUARANTINE);
        }
        assert_eq!(c.quarantine().len(), Collector::MAX_QUARANTINE);
        assert_eq!(c.poison_seen, Collector::MAX_QUARANTINE as u64 + 10);
        assert_eq!(c.quarantine()[0].quarantined_ns, 0, "oldest kept");
        assert!(c.is_empty(), "poison never reaches the store");
    }
}
