//! Backend event storage and the operator query interface (§3.2 step 4):
//! "Operators could flexibly query the storage by specifying a flow,
//! event, device, or period and obtain related flow events."

use fet_packet::event::{EventRecord, EventType};
use fet_packet::FlowKey;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One event at rest in the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredEvent {
    /// Backend receive time, ns.
    pub time_ns: u64,
    /// Reporting device.
    pub device: u32,
    /// Sender connection epoch at delivery time (bumped per device
    /// restart). `(device, epoch, seq)` is the exactly-once dedup key.
    pub epoch: u32,
    /// Per-device delivery sequence number (monotonic across epochs).
    pub seq: u64,
    /// The 24-byte record.
    pub record: EventRecord,
}

/// A query: every field is an optional conjunctive filter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Query {
    /// Restrict to one flow.
    pub flow: Option<FlowKey>,
    /// Restrict to one device.
    pub device: Option<u32>,
    /// Restrict to one event type.
    pub ty: Option<EventType>,
    /// Restrict to a half-open time window `[from, to)`.
    pub window: Option<(u64, u64)>,
}

impl Query {
    /// Match everything.
    pub fn any() -> Self {
        Query::default()
    }

    /// Filter by flow.
    pub fn flow(mut self, f: FlowKey) -> Self {
        self.flow = Some(f);
        self
    }

    /// Filter by device.
    pub fn device(mut self, d: u32) -> Self {
        self.device = Some(d);
        self
    }

    /// Filter by event type.
    pub fn ty(mut self, t: EventType) -> Self {
        self.ty = Some(t);
        self
    }

    /// Filter by time window.
    pub fn window(mut self, from: u64, to: u64) -> Self {
        self.window = Some((from, to));
        self
    }

    fn is_any(&self) -> bool {
        self.flow.is_none() && self.device.is_none() && self.ty.is_none() && self.window.is_none()
    }

    fn matches(&self, e: &StoredEvent) -> bool {
        self.flow.is_none_or(|f| e.record.flow == f)
            && self.device.is_none_or(|d| e.device == d)
            && self.ty.is_none_or(|t| e.record.ty == t)
            && self.window.is_none_or(|(a, b)| e.time_ns >= a && e.time_ns < b)
    }
}

/// Indexed, insert-only event store. Every earlier state is a prefix, so
/// the collector's crash model checkpoints a length and reverts a hard
/// kill with [`truncate`](Self::truncate) (see
/// [`crate::recovery::Collector`]).
///
/// Each index maps a key to the ascending `u32` store positions of its
/// events (a posting list), one index per query dimension.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    events: Vec<StoredEvent>,
    by_flow: HashMap<FlowKey, Vec<u32>>,
    by_device: HashMap<u32, Vec<u32>>,
    /// One list per [`EventType`], indexed by its discriminant.
    by_type: [Vec<u32>; 6],
    /// Positions by ingress timestamp: a window-only query walks
    /// `range(from..to)` and sorts the hits, O(log n + k log k). One
    /// `Vec` per timestamp, because the events of a batch share one.
    by_time: BTreeMap<u64, Vec<u32>>,
}

/// The posting list of a key, empty when the key was never stored.
fn postings(list: Option<&Vec<u32>>) -> &[u32] {
    list.map(Vec::as_slice).unwrap_or_default()
}

impl EventStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one event.
    ///
    /// # Panics
    /// At 2³² events, the most that `u32` positions address.
    pub fn insert(&mut self, e: StoredEvent) {
        let i = u32::try_from(self.events.len())
            .expect("EventStore is full: u32 positions address at most 2^32 events");
        self.by_flow.entry(e.record.flow).or_default().push(i);
        self.by_device.entry(e.device).or_default().push(i);
        self.by_type[e.record.ty as usize].push(i);
        self.by_time.entry(e.time_ns).or_default().push(i);
        self.events.push(e);
    }

    /// Drop every event from position `len` on. Positions are pushed in
    /// ascending order, so walking the dropped events newest-first pops
    /// each one off the tail of its index lists: O(dropped), not O(len).
    pub fn truncate(&mut self, len: usize) {
        fn pop_last(v: Option<&mut Vec<u32>>) -> bool {
            let v = v.expect("every stored event is indexed");
            v.pop();
            v.is_empty()
        }
        for e in self.events.drain(len.min(self.events.len())..).rev() {
            if pop_last(self.by_flow.get_mut(&e.record.flow)) {
                self.by_flow.remove(&e.record.flow);
            }
            if pop_last(self.by_device.get_mut(&e.device)) {
                self.by_device.remove(&e.device);
            }
            self.by_type[e.record.ty as usize].pop();
            if pop_last(self.by_time.get_mut(&e.time_ns)) {
                self.by_time.remove(&e.time_ns);
            }
        }
    }

    /// Bulk insert.
    pub fn extend(&mut self, it: impl IntoIterator<Item = StoredEvent>) {
        for e in it {
            self.insert(e);
        }
    }

    /// Run a query; results are in store order, the same as a scan.
    ///
    /// Of the flow, device and type posting lists the query names, the
    /// planner walks the shortest and checks each hit only against the
    /// constraints that list does not already prove; when none is left,
    /// the list is the answer and no event is read. A window-only query
    /// walks the timestamp B-tree and sorts its hits by position. Only a
    /// query with no filter at all visits every event.
    pub fn query(&self, q: &Query) -> Vec<&StoredEvent> {
        let plans = [
            q.flow.map(|f| (postings(self.by_flow.get(&f)), Query { flow: None, ..*q })),
            q.device.map(|d| (postings(self.by_device.get(&d)), Query { device: None, ..*q })),
            q.ty.map(|t| (self.by_type[t as usize].as_slice(), Query { ty: None, ..*q })),
        ];
        if let Some((list, rest)) = plans.into_iter().flatten().min_by_key(|(l, _)| l.len()) {
            let hits = list.iter().map(|&i| &self.events[i as usize]);
            return if rest.is_any() {
                hits.collect()
            } else {
                hits.filter(|e| rest.matches(e)).collect()
            };
        }
        match q.window {
            Some((from, to)) if from < to => {
                let mut hits: Vec<u32> =
                    self.by_time.range(from..to).flat_map(|(_, v)| v.iter().copied()).collect();
                hits.sort_unstable();
                hits.into_iter().map(|i| &self.events[i as usize]).collect()
            }
            Some(_) => Vec::new(),
            None => self.events.iter().collect(),
        }
    }

    /// Total stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events.
    pub fn events(&self) -> &[StoredEvent] {
        &self.events
    }

    /// Distinct (device, flow) pairs for one event type — the unit compared
    /// against [`fet_netsim::GroundTruth::flow_events`] for coverage.
    pub fn flow_events(&self, ty: EventType) -> BTreeSet<(u32, FlowKey)> {
        self.by_type[ty as usize]
            .iter()
            .map(|&i| {
                let e = &self.events[i as usize];
                (e.device, e.record.flow)
            })
            .collect()
    }

    /// Count of events of one type.
    pub fn count(&self, ty: EventType) -> usize {
        self.by_type[ty as usize].len()
    }

    /// Per-device, per-type event counts — the dashboard view an operator
    /// scans before drilling into flow queries.
    pub fn summarize(&self) -> Vec<(u32, EventType, usize)> {
        let mut counts: HashMap<(u32, EventType), usize> = HashMap::new();
        for e in &self.events {
            *counts.entry((e.device, e.record.ty)).or_insert(0) += 1;
        }
        let mut v: Vec<(u32, EventType, usize)> =
            counts.into_iter().map(|((d, t), n)| (d, t, n)).collect();
        v.sort_by_key(|&(d, t, n)| (d, t, std::cmp::Reverse(n)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::event::EventDetail;
    use fet_packet::ipv4::Ipv4Addr;

    fn flow(n: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            n,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    fn ev(t: u64, dev: u32, ty: EventType, n: u16) -> StoredEvent {
        StoredEvent {
            time_ns: t,
            device: dev,
            epoch: 0,
            seq: t,
            record: EventRecord {
                ty,
                flow: flow(n),
                detail: EventDetail::Pause { egress_port: 0, queue: 0 },
                counter: 1,
                hash: u32::from(n),
            },
        }
    }

    fn store() -> EventStore {
        let mut s = EventStore::new();
        s.insert(ev(10, 1, EventType::Congestion, 1));
        s.insert(ev(20, 1, EventType::Pause, 1));
        s.insert(ev(30, 2, EventType::Congestion, 2));
        s.insert(ev(40, 2, EventType::Congestion, 1));
        s
    }

    #[test]
    fn query_by_flow() {
        let s = store();
        let r = s.query(&Query::any().flow(flow(1)));
        assert_eq!(r.len(), 3);
        let r = s.query(&Query::any().flow(flow(9)));
        assert!(r.is_empty());
    }

    #[test]
    fn query_by_device_and_type() {
        let s = store();
        let r = s.query(&Query::any().device(2).ty(EventType::Congestion));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn query_by_window() {
        let s = store();
        let r = s.query(&Query::any().window(15, 35));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn window_index_matches_full_scan() {
        // A store with duplicate timestamps, out-of-order inserts, and
        // mixed devices/types, queried over exhaustive window bounds: the
        // B-tree path must agree with a brute-force scan on every one.
        let mut s = EventStore::new();
        for (t, dev, n) in
            [(30, 1, 1), (10, 2, 2), (30, 2, 1), (50, 1, 3), (20, 1, 2), (10, 1, 1), (40, 2, 3)]
        {
            s.insert(ev(t, dev, EventType::Congestion, n));
        }
        for from in 0..60u64 {
            for to in from..=60u64 {
                for q in [
                    Query::any().window(from, to),
                    Query::any().window(from, to).ty(EventType::Congestion),
                ] {
                    let indexed = s.query(&q);
                    let scanned: Vec<&StoredEvent> = s
                        .events()
                        .iter()
                        .filter(|e| e.time_ns >= from && e.time_ns < to)
                        .filter(|e| q.ty.is_none_or(|t| e.record.ty == t))
                        .collect();
                    assert_eq!(indexed, scanned, "window [{from}, {to}) diverged");
                }
            }
        }
        // Degenerate windows are empty, not panicking.
        assert!(s.query(&Query::any().window(20, 20)).is_empty());
        assert!(s.query(&Query::any().window(30, 10)).is_empty());
    }

    #[test]
    fn type_query_after_truncate_returns_the_surviving_prefix() {
        let mut s = store();
        s.insert(ev(50, 1, EventType::Pause, 2));
        s.insert(ev(60, 2, EventType::Congestion, 3));
        let all = s.events().to_vec();
        for k in (0..=all.len()).rev() {
            s.truncate(k);
            for ty in [EventType::Congestion, EventType::Pause, EventType::MmuDrop] {
                let want: Vec<&StoredEvent> =
                    all[..k].iter().filter(|e| e.record.ty == ty).collect();
                assert_eq!(s.query(&Query::any().ty(ty)), want, "truncate({k}), {ty:?}");
                assert_eq!(s.count(ty), want.len(), "truncate({k}), {ty:?}");
            }
        }
    }

    #[test]
    fn conjunctive_filters() {
        let s = store();
        let r = s.query(&Query::any().flow(flow(1)).device(2).window(0, 100));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].time_ns, 40);
    }

    #[test]
    fn flow_events_deduplicate() {
        let mut s = store();
        s.insert(ev(50, 2, EventType::Congestion, 1));
        let fe = s.flow_events(EventType::Congestion);
        // (1, f1), (2, f2), (2, f1)
        assert_eq!(fe.len(), 3);
    }

    #[test]
    fn summarize_gives_device_type_counts() {
        let s = store();
        let sum = s.summarize();
        assert!(sum.contains(&(1, EventType::Congestion, 1)));
        assert!(sum.contains(&(2, EventType::Congestion, 2)));
        assert!(sum.contains(&(1, EventType::Pause, 1)));
        assert_eq!(sum.len(), 3);
    }

    #[test]
    fn counts() {
        let s = store();
        assert_eq!(s.count(EventType::Congestion), 3);
        assert_eq!(s.count(EventType::Pause), 1);
        assert_eq!(s.count(EventType::MmuDrop), 0);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }
}
