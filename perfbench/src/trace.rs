//! Tracing for the per-layer table: spans recorded by the benchmark around
//! its own calls into each layer, and a timing wrapper for monitor hooks.
//!
//! Spans live in memory on the main thread and are written out when the
//! run ends. With tracing off, [`span`] is a flag check around the call.
//! Hook calls number in the millions, so they are aggregated (count, total,
//! log2 histogram) rather than recorded one by one.

use fet_netsim::counters::PortCounters;
use fet_netsim::engine::Node;
use fet_netsim::monitor::{Actions, EgressCtx, HookVerdict, IngressCtx, RoutedCtx, SwitchMonitor};
use fet_netsim::{NodeId, Simulator};
use fet_packet::event::DropCode;
use fet_packet::FlowKey;
use netseer::NetSeerMonitor;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `parent` indexes the enclosing span; spans of one
/// repetition share `rep`.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    rep: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// First span of the current repetition.
    rep_start: usize,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turn span recording on or off for the calling thread. Spans recorded
/// while active are kept across pauses until the run ends.
pub fn set_active(on: bool) {
    ACTIVE.with(|a| a.set(on));
    if on {
        TRACER.with(|t| {
            t.borrow_mut().get_or_insert_with(|| Tracer {
                epoch: Instant::now(),
                rep: 0,
                spans: Vec::new(),
                open: Vec::new(),
                rep_start: 0,
            });
        });
    }
}

/// Run `f` inside a span named `name` when tracing is active.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ACTIVE.with(Cell::get) {
        return f();
    }
    let idx = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tr| {
            let idx = tr.spans.len() as u32;
            let start_ns = tr.epoch.elapsed().as_nanos() as u64;
            let parent = tr.open.last().copied();
            tr.spans.push(Span { name, rep: tr.rep, parent, start_ns, end_ns: start_ns });
            tr.open.push(idx);
            idx
        })
    });
    let r = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.spans[idx as usize].end_ns = tr.epoch.elapsed().as_nanos() as u64;
                tr.open.pop();
            }
        });
    }
    r
}

/// Per span name: calls, total time and self time (total minus the time
/// covered by child spans), in ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Close the current repetition: summarize its spans and start the next
/// repetition id. Empty when nothing was traced.
pub fn finish_rep() -> BTreeMap<&'static str, SpanTotals> {
    TRACER.with(|t| {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else { return out };
        let spans = &tr.spans[tr.rep_start..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize - tr.rep_start] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        tr.rep += 1;
        tr.rep_start = tr.spans.len();
        out
    })
}

/// Write every recorded span as one JSON object per line.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    TRACER.with(|t| {
        let t = t.borrow();
        let Some(tr) = t.as_ref() else { return Ok(0) };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in tr.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"rep\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.rep, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(tr.spans.len())
    })
}

/// The monitor hooks the wrapper times, in table order.
pub const HOOKS: [&str; 6] = ["ingress", "routed", "egress", "drop", "timer", "pause"];
const INGRESS: usize = 0;
const ROUTED: usize = 1;
const EGRESS: usize = 2;
const DROP: usize = 3;
const TIMER: usize = 4;
const PAUSE: usize = 5;

/// Count, total time and a log2(ns) histogram for one class of calls.
#[derive(Debug, Clone, Copy)]
pub struct CallStats {
    pub calls: u64,
    pub total_ns: u64,
    pub hist: [u64; 40],
}

impl Default for CallStats {
    fn default() -> Self {
        CallStats { calls: 0, total_ns: 0, hist: [0; 40] }
    }
}

impl CallStats {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        let bucket = (64 - ns.leading_zeros() as usize).min(self.hist.len() - 1);
        self.hist[bucket] += 1;
    }

    /// Fold another set of calls into this one.
    pub fn merge(&mut self, o: &CallStats) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        for (a, b) in self.hist.iter_mut().zip(o.hist) {
            *a += b;
        }
    }

    /// Mean ns per call (0 with no calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// Upper edge (ns) of the histogram bucket holding quantile `q`.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let want = (self.calls as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (b, n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= want.max(1) {
                return (1u64 << b) as f64;
            }
        }
        0.0
    }
}

/// Hook timings split into fast calls (the device's event-packet and
/// generated-event counters did not move) and event calls (they did).
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStats {
    /// `[hook][0 = fast, 1 = event]`.
    pub by_hook: [[CallStats; 2]; 6],
}

impl HookStats {
    /// Fold another device's timings into this one.
    pub fn merge(&mut self, o: &HookStats) {
        for (a, b) in self.by_hook.iter_mut().zip(&o.by_hook) {
            a[0].merge(&b[0]);
            a[1].merge(&b[1]);
        }
    }

    /// All calls of one hook, both classes.
    pub fn hook(&self, h: usize) -> CallStats {
        let mut c = self.by_hook[h][0];
        c.merge(&self.by_hook[h][1]);
        c
    }

    /// All calls of one class (0 = fast, 1 = event), every hook.
    pub fn class(&self, class: usize) -> CallStats {
        let mut c = CallStats::default();
        for h in &self.by_hook {
            c.merge(&h[class]);
        }
        c
    }
}

/// Times every hook of the NetSeer monitor it wraps and delegates the call,
/// `as_any` included, so `netseer::deploy::monitor_of` still finds the
/// `NetSeerMonitor` inside.
pub struct TimedMonitor {
    inner: NetSeerMonitor,
    stats: HookStats,
}

impl TimedMonitor {
    fn timed<R>(&mut self, hook: usize, f: impl FnOnce(&mut NetSeerMonitor) -> R) -> R {
        let before = self.inner.stats.event_packets + self.inner.events_generated;
        let t = Instant::now();
        let r = f(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        let after = self.inner.stats.event_packets + self.inner.events_generated;
        self.stats.by_hook[hook][usize::from(after != before)].record(ns);
        r
    }
}

impl SwitchMonitor for TimedMonitor {
    fn on_ingress(
        &mut self,
        ctx: &IngressCtx,
        frame: &mut Vec<u8>,
        out: &mut Actions,
    ) -> HookVerdict {
        self.timed(INGRESS, |m| m.on_ingress(ctx, frame, out))
    }

    fn on_routed(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {
        self.timed(ROUTED, |m| m.on_routed(ctx, frame, out))
    }

    fn on_pipeline_drop(
        &mut self,
        ctx: &IngressCtx,
        frame: &[u8],
        flow: Option<FlowKey>,
        code: DropCode,
        egress_port: Option<u8>,
        acl_rule: u32,
        out: &mut Actions,
    ) {
        self.timed(DROP, |m| m.on_pipeline_drop(ctx, frame, flow, code, egress_port, acl_rule, out))
    }

    fn on_mmu_drop(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {
        self.timed(DROP, |m| m.on_mmu_drop(ctx, frame, out))
    }

    fn on_egress(&mut self, ctx: &EgressCtx<'_>, frame: &mut Vec<u8>, out: &mut Actions) {
        self.timed(EGRESS, |m| m.on_egress(ctx, frame, out))
    }

    fn on_pause_state(&mut self, now_ns: u64, port: u8, prio: u8, paused: bool) {
        self.timed(PAUSE, |m| m.on_pause_state(now_ns, port, prio, paused))
    }

    fn on_timer(&mut self, now_ns: u64, counters: &[PortCounters], out: &mut Actions) {
        self.timed(TIMER, |m| m.on_timer(now_ns, counters, out))
    }

    fn timer_interval_ns(&self) -> Option<u64> {
        self.inner.timer_interval_ns()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

fn monitored_nodes(sim: &Simulator) -> Vec<NodeId> {
    let mut ids = sim.switch_ids();
    ids.extend(sim.host_ids());
    ids.sort_unstable();
    ids
}

/// Wrap every NetSeer monitor of the fabric in a [`TimedMonitor`]. Call
/// before the first run so the timers arm through the wrapper.
pub fn wrap_monitors(sim: &mut Simulator) {
    for id in monitored_nodes(sim) {
        let Some(m) = sim.take_node_monitor(id) else { continue };
        let any: Box<dyn Any> = m;
        let inner = *any.downcast::<NetSeerMonitor>().expect("NetSeer is deployed on every device");
        sim.install_node_monitor(id, Box::new(TimedMonitor { inner, stats: HookStats::default() }));
    }
}

/// Sum the hook timings of every wrapped monitor.
pub fn hook_stats(sim: &Simulator) -> HookStats {
    let mut total = HookStats::default();
    for node in &sim.nodes {
        let m = match node {
            Node::Switch(s) => s.monitor.as_deref(),
            Node::Host(h) => h.monitor.as_deref(),
            Node::Vacant => None,
        };
        if let Some(m) = m {
            total.merge(timed_stats(m));
        }
    }
    total
}

/// The timings of one monitor installed by [`wrap_monitors`] or
/// [`wrap_direct`].
pub fn timed_stats(m: &dyn SwitchMonitor) -> &HookStats {
    let any: &dyn Any = m;
    &any.downcast_ref::<TimedMonitor>().expect("monitor was wrapped").stats
}

/// Time the hooks of monitors driven directly (no simulator).
pub fn wrap_direct(m: NetSeerMonitor) -> TimedMonitor {
    TimedMonitor { inner: m, stats: HookStats::default() }
}
