//! The repository benchmark: a packet enters a simulated fabric running
//! NetSeer, its event is delivered into the collector, made queryable,
//! absorbed by analytics and rendered on `/metrics` and OTel.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fabric_storm --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Each run repeats its workload (fresh setup every repetition, inputs
//! drawn from `--seed`) until `--seconds` of wall time are spent, checks
//! every repetition's outputs, and prints the metrics as medians over the
//! repetitions, a table with sample counts, and last a one-line JSON
//! result. `--trace 1` alternates untraced and traced repetitions and
//! reports the per-layer metrics instead, writing the per-layer table and
//! every span under `perfbench/out/`. Any failed check exits non-zero
//! without a result. Workloads and the layer -> end-to-end map are
//! described in `BENCHMARK.json`.

mod alloc;
mod backend;
mod fabric;
mod firehose;
mod rep;
mod stats;
mod trace;

use rep::{Rep, MB};
use stats::{median, pick, quantile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;

/// Repetitions every run makes, whatever `--seconds` says.
const MIN_REPS: usize = 5;

/// End-to-end metrics, in output order.
const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("pkts_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("event_latency_p50_us", "us"),
    ("event_latency_p99_us", "us"),
    ("coverage", "ratio"),
    ("ok_ratio", "ratio"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("scrape_p50_ms", "ms"),
    ("scrape_p90_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, in output order. A layer a workload does not run
/// (the packet engine under the firehose, wire ingestion on a fabric)
/// reports 0.
const PER_LAYER: [(&str, &str); 119] = [
    ("netsim.run.wall_s", "s"),
    ("netsim.engine.self_s", "s"),
    ("netsim.pkts", "count"),
    ("netsim.gt.pipeline_drop", "count"),
    ("netsim.gt.mmu_drop", "count"),
    ("netsim.gt.inter_switch_drop", "count"),
    ("netsim.gt.congestion", "count"),
    ("netsim.gt.path_change", "count"),
    ("netsim.gt.pause", "count"),
    ("netsim.parallel.segments", "count"),
    ("netsim.parallel.epochs", "count"),
    ("netsim.parallel.epochs_batched", "count"),
    ("netsim.parallel.ring_messages", "count"),
    ("netsim.parallel.ring_stalls", "count"),
    ("monitor.ingress.calls", "count"),
    ("monitor.ingress.ns_per_call", "ns"),
    ("monitor.routed.calls", "count"),
    ("monitor.routed.ns_per_call", "ns"),
    ("monitor.egress.calls", "count"),
    ("monitor.egress.ns_per_call", "ns"),
    ("monitor.drop.calls", "count"),
    ("monitor.drop.ns_per_call", "ns"),
    ("monitor.timer.calls", "count"),
    ("monitor.timer.ns_per_call", "ns"),
    ("monitor.fast.calls", "count"),
    ("monitor.fast.ns_per_call", "ns"),
    ("monitor.fast.ns_p99_bucket", "ns"),
    ("monitor.event.calls", "count"),
    ("monitor.event.ns_per_call", "ns"),
    ("monitor.event.ns_p99_bucket", "ns"),
    ("monitor.total_s", "s"),
    ("detect.event_packets", "count"),
    ("dedup.offered", "count"),
    ("dedup.reports", "count"),
    ("dedup.ratio", "ratio"),
    ("extract.records", "count"),
    ("batch.delivered_batches", "count"),
    ("batch.events_per_batch", "count"),
    ("batch.flushes_skipped", "count"),
    ("cpu.received", "count"),
    ("cpu.fp_eliminated", "count"),
    ("cpu.shed_overload", "count"),
    ("cpu.pcie_rejected", "count"),
    ("cpu.busy_share", "ratio"),
    ("transport.transmissions", "count"),
    ("transport.retransmissions", "count"),
    ("transport.wire_bytes", "bytes"),
    ("ledger.generated", "count"),
    ("ledger.delivered", "count"),
    ("ledger.shed_stack", "count"),
    ("ledger.shed_pcie", "count"),
    ("ledger.shed_cpu_overload", "count"),
    ("ledger.shed_false_positive", "count"),
    ("ledger.shed_transport", "count"),
    ("ledger.pending", "count"),
    ("ledger.buffered", "count"),
    ("ledger.lost_to_crash", "count"),
    ("ledger.corrupted", "count"),
    ("ledger.malformed", "count"),
    ("ledger.attempted", "count"),
    ("ledger.failed", "count"),
    ("ledger.fail_ratio", "ratio"),
    ("collector.ingest.ns_per_event", "ns"),
    ("collector.accepted", "count"),
    ("collector.duplicates_rejected", "count"),
    ("collector.spilled", "count"),
    ("collector.overflow_refused", "count"),
    ("collector.backlog_max", "count"),
    ("collector.backpressure_max", "level"),
    ("collector.bytes_per_event", "bytes"),
    ("spill.pump.ns_per_event", "ns"),
    ("spill.applied", "count"),
    ("storage.query.flow.ns_p50", "ns"),
    ("storage.query.flow.results", "count"),
    ("storage.query.device.ns_p50", "ns"),
    ("storage.query.device.results", "count"),
    ("storage.query.type.ns_p50", "ns"),
    ("storage.query.type.results", "count"),
    ("storage.query.window.ns_p50", "ns"),
    ("storage.query.window.results", "count"),
    ("wire.ingest.ns_per_datagram", "ns"),
    ("wire.records", "count"),
    ("wire.rejected", "count"),
    ("wire.malformed", "count"),
    ("analytics.poll.ns_per_event", "ns"),
    ("analytics.processed", "count"),
    ("analytics.sketch_absorbed", "count"),
    ("analytics.shed", "count"),
    ("analytics.late_shed", "count"),
    ("export.scrape.ms", "ms"),
    ("export.render_prom.ms", "ms"),
    ("export.render_otel.ms", "ms"),
    ("export.series", "count"),
    ("export.bytes", "bytes"),
    ("heap.peak_mb.sim", "MB"),
    ("heap.peak_mb.collector", "MB"),
    ("heap.peak_mb.analytics", "MB"),
    ("heap.peak_mb.export", "MB"),
    ("self_s.setup", "s"),
    ("self_s.sim.slice", "s"),
    ("self_s.collector.ingest", "s"),
    ("self_s.collector.drain", "s"),
    ("self_s.analytics.absorb", "s"),
    ("self_s.spill.pump", "s"),
    ("self_s.storage.query", "s"),
    ("self_s.wire.ingest", "s"),
    ("self_s.export.scrape", "s"),
    ("self_s.export.render_prom", "s"),
    ("self_s.export.render_otel", "s"),
    ("trace.overhead.pkts_per_s", "ratio"),
    ("trace.overhead.events_per_s", "ratio"),
    ("trace.reps", "count"),
    ("monitor.sim_share", "ratio"),
    ("pipeline.self_s", "s"),
    ("pipeline.wall_s", "s"),
    ("events.rendered", "count"),
    ("event_latency.samples", "count"),
    ("coverage.truth_keys", "count"),
    ("query.samples", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FabricSteady,
    FabricStorm,
    TelemetryFirehose,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fabric_steady" => Some(Workload::FabricSteady),
            "fabric_storm" => Some(Workload::FabricStorm),
            "telemetry_firehose" => Some(Workload::TelemetryFirehose),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FabricSteady => "fabric_steady",
            Workload::FabricStorm => "fabric_storm",
            Workload::TelemetryFirehose => "telemetry_firehose",
        }
    }

    fn rep(self, seed: u64, traced: bool) -> Result<Rep, String> {
        match self {
            Workload::FabricSteady => fabric::rep(fabric::Kind::Steady, seed, traced),
            Workload::FabricStorm => fabric::rep(fabric::Kind::Storm, seed, traced),
            Workload::TelemetryFirehose => firehose::rep(seed, traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Repetitions of one run: untraced ones give the end-to-end metrics,
/// traced ones the per-layer metrics.
struct Run {
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
}

fn run(args: &Args) -> Result<Run, String> {
    let start = Instant::now();
    let mut run = Run { untraced: Vec::new(), traced: Vec::new() };
    loop {
        let traced = args.trace && run.untraced.len() > run.traced.len();
        trace::set_active(traced);
        let mut rep = args.workload.rep(args.seed, traced)?;
        trace::set_active(false);
        // Same seed, same simulated behaviour: every repetition must
        // deliver the same events with the same sim-time metrics. Only the
        // first repetition keeps its latencies.
        if let Some(r0) = run.untraced.first() {
            let same = (rep.fingerprint, rep.coverage, rep.attempted, rep.failed)
                == (r0.fingerprint, r0.coverage, r0.attempted, r0.failed)
                && rep.latencies_ns == r0.latencies_ns;
            if !same {
                return Err("a repetition diverged from the first one of the same seed".into());
            }
            rep.latencies_ns = Vec::new();
        }
        if traced {
            run.traced.push(rep);
        } else {
            run.untraced.push(rep);
        }
        let enough =
            run.untraced.len() >= MIN_REPS && (!args.trace || run.traced.len() >= MIN_REPS);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    if args.workload == Workload::FabricStorm {
        let serial = fabric::serial_fingerprint(fabric::Kind::Storm, args.seed);
        if serial != run.untraced[0].fingerprint {
            return Err("the parallel storm delivered different events than a serial run".into());
        }
    }
    Ok(run)
}

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// Each repetition performs the same timed steps (slices, queries,
/// scrapes) on the same inputs. Interference from other tenants of a
/// shared host only ever adds time, and it comes in bursts of seconds that
/// slow a whole repetition, so each step counts at its fastest across the
/// repetitions: the step's cost with the interference filtered out.
fn steps(reps: &[Rep], f: impl Fn(&Rep) -> Vec<f64>) -> Vec<f64> {
    let all: Vec<Vec<f64>> = reps.iter().map(f).collect();
    (0..all[0].len()).map(|i| all.iter().map(|v| v[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// Switch-seen packets per wall second of simulation.
fn pkts_per_s(reps: &[Rep]) -> f64 {
    reps[0].pkts as f64 / steps(reps, |r| r.sim_slice_s.clone()).iter().sum::<f64>()
}

/// Events made queryable and rendered per wall second of the pipeline.
fn events_per_s(reps: &[Rep]) -> f64 {
    reps[0].events as f64 / steps(reps, |r| r.step_s.clone()).iter().sum::<f64>()
}

/// End-to-end metrics with their sample counts.
fn end_to_end(reps: &[Rep]) -> BTreeMap<&'static str, (f64, usize)> {
    let r0 = &reps[0];
    let n = reps.len();
    let lat = &r0.latencies_ns;
    let mut queries = steps(reps, |r| r.queries.iter().map(|q| q.ns as f64).collect());
    queries.sort_by(f64::total_cmp);
    let mut scrapes = steps(reps, |r| r.scrapes.iter().map(|s| s.total_ms()).collect());
    scrapes.sort_by(f64::total_cmp);
    let mut m = BTreeMap::new();
    m.insert("setup_s", (median(&per_rep(reps, |r| r.setup_s)), n));
    m.insert("pkts_per_s", (pkts_per_s(reps), n));
    m.insert("events_per_s", (events_per_s(reps), n));
    m.insert("event_latency_p50_us", (pick(lat, 0.5) / 1e3, lat.len()));
    m.insert("event_latency_p99_us", (pick(lat, 0.99) / 1e3, lat.len()));
    m.insert("coverage", (r0.coverage, r0.truth_keys));
    m.insert(
        "ok_ratio",
        (1.0 - r0.failed as f64 / r0.attempted.max(1) as f64, r0.attempted as usize),
    );
    m.insert("query_p50_us", (quantile(&queries, 0.5) / 1e3, queries.len()));
    m.insert("query_p99_us", (quantile(&queries, 0.99) / 1e3, queries.len()));
    m.insert("scrape_p50_ms", (quantile(&scrapes, 0.5), scrapes.len()));
    m.insert("scrape_p90_ms", (quantile(&scrapes, 0.9), scrapes.len()));
    m.insert("peak_heap_mb", (median(&per_rep(reps, |r| r.peak_heap as f64 / MB)), n));
    m
}

/// Per-layer metrics: medians over the traced repetitions.
fn per_layer(run: &Run) -> BTreeMap<String, f64> {
    let traced = &run.traced;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let keys: Vec<String> = traced.iter().flat_map(|r| r.layers.0.keys().cloned()).collect();
    for k in keys {
        let v: Vec<f64> =
            traced.iter().map(|r| r.layers.0.get(&k).copied().unwrap_or(0.0)).collect();
        out.insert(k, median(&v));
    }
    let scrape = |f: fn(&backend::ScrapeSample) -> f64| {
        let v: Vec<f64> = traced.iter().flat_map(|r| r.scrapes.iter().map(f)).collect();
        median(&v)
    };
    out.insert("export.scrape.ms".into(), scrape(|s| s.adapters_ms));
    out.insert("export.render_prom.ms".into(), scrape(|s| s.prom_ms));
    out.insert("export.render_otel.ms".into(), scrape(|s| s.otel_ms));
    out.insert(
        "trace.overhead.pkts_per_s".into(),
        pkts_per_s(&run.untraced) / pkts_per_s(traced) - 1.0,
    );
    out.insert(
        "trace.overhead.events_per_s".into(),
        events_per_s(&run.untraced) / events_per_s(traced) - 1.0,
    );
    out.insert("trace.reps".into(), traced.len() as f64);
    let self_total: f64 = out
        .iter()
        .filter(|(k, _)| k.starts_with("self_s.") && *k != "self_s.setup")
        .map(|(_, v)| v)
        .sum();
    out.insert("pipeline.self_s".into(), self_total);
    out.insert("pipeline.wall_s".into(), median(&per_rep(traced, |r| r.pipeline_s)));
    out.insert("events.rendered".into(), median(&per_rep(traced, |r| r.events as f64)));
    out.insert("event_latency.samples".into(), run.untraced[0].latencies_ns.len() as f64);
    out.insert("coverage.truth_keys".into(), traced[0].truth_keys as f64);
    out.insert(
        "query.samples".into(),
        traced.iter().map(|r| r.queries.len()).sum::<usize>() as f64,
    );
    out
}

/// A JSON number with every digit; non-finite values are errors.
fn num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <fabric_steady|fabric_storm|telemetry_firehose> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match report(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload.name(), args.seed);
            ExitCode::FAILURE
        }
    }
}

fn report(args: &Args) -> Result<(), String> {
    let run = run(args)?;
    let r0 = &run.untraced[0];
    let (attempted, failed) = (r0.attempted, r0.failed);
    let mut metrics = Vec::new();
    if args.trace {
        let layers = per_layer(&run);
        let table = layer_table(args, &run, &layers);
        print!("{table}");
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = format!("{}-seed{}", args.workload.name(), args.seed);
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        std::fs::write(out.join(format!("layers-{stem}.txt")), &table)
            .map_err(|e| e.to_string())?;
        let n = trace::write_spans(&out.join(format!("spans-{stem}.jsonl")))
            .map_err(|e| e.to_string())?;
        println!("wrote {n} spans and the layer table to {}", out.display());
        for (name, unit) in PER_LAYER {
            let v = layers.get(name).copied().unwrap_or(0.0);
            metrics.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v)?));
        }
    } else {
        let e2e = end_to_end(&run.untraced);
        println!("{} seed {}: {} repetitions", args.workload.name(), args.seed, run.untraced.len());
        println!("{:<24} {:>16} {:<6} {:>8}", "metric", "value", "unit", "samples");
        for (name, unit) in END_TO_END {
            let (v, n) = e2e[name];
            println!("{name:<24} {v:>16.4} {unit:<6} {n:>8}");
            metrics.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v)?));
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

/// The human-readable per-layer table: layer self times from the spans,
/// the hook split, and the tracing overhead.
fn layer_table(args: &Args, run: &Run, l: &BTreeMap<String, f64>) -> String {
    use std::fmt::Write;
    let g = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "per-layer table: {} seed {} ({} traced / {} untraced repetitions, medians)",
        args.workload.name(),
        args.seed,
        run.traced.len(),
        run.untraced.len()
    );
    let _ = writeln!(s, "{:<28} {:>12}", "span self time", "s");
    for (k, v) in l.iter().filter(|(k, _)| k.starts_with("self_s.")) {
        let _ = writeln!(s, "{:<28} {:>12.6}", &k["self_s.".len()..], v);
    }
    let _ = writeln!(s, "{:<28} {:>12.6}", "sum without setup", g("pipeline.self_s"));
    let _ = writeln!(s, "{:<28} {:>12.6}", "pipeline wall", g("pipeline.wall_s"));
    let _ = writeln!(
        s,
        "\nsim run wall {:.6} s = engine self {:.6} s + hooks {:.6} s / threads ({:.1}% hooks)",
        g("netsim.run.wall_s"),
        g("netsim.engine.self_s"),
        g("monitor.total_s"),
        100.0 * g("monitor.sim_share")
    );
    let _ = writeln!(s, "{:<10} {:>12} {:>12}", "hook", "calls", "ns/call");
    for h in ["ingress", "routed", "egress", "drop", "timer", "fast", "event"] {
        let _ = writeln!(
            s,
            "{h:<10} {:>12.0} {:>12.1}",
            g(&format!("monitor.{h}.calls")),
            g(&format!("monitor.{h}.ns_per_call"))
        );
    }
    let _ = writeln!(
        s,
        "\ntracing overhead: pkts_per_s {:+.1}%, events_per_s {:+.1}% (untraced / traced - 1)",
        100.0 * g("trace.overhead.pkts_per_s"),
        100.0 * g("trace.overhead.events_per_s")
    );
    s
}
