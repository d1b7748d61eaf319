//! Prometheus text exposition format (v0.0.4), written by hand — the
//! workspace builds fully offline, so no client library.
//!
//! Shape per family:
//!
//! ```text
//! # HELP fet_events_delivered_total Events that reached the backend.
//! # TYPE fet_events_delivered_total counter
//! fet_events_delivered_total{scope="fleet"} 1234
//! ```
//!
//! Histograms render the cumulative `_bucket{le="..."}` ladder (the
//! `+Inf` bucket always equals `_count`), then `_sum` and `_count`.
//! Escaping follows the spec exactly: `\\`, `\n` in HELP; `\\`, `\"`,
//! `\n` in label values. Families come out of the registry's `BTreeMap`s,
//! so the byte stream is deterministic.
//!
//! [`parse_exposition`] is the inverse used by the tests and the mixed
//! sim/real replay oracle: [`Exposition::ledger`] reads a whole ledger
//! back out of the *scraped* text, so the exporter itself is under test.

use crate::registry::{Family, LabelSet, MetricRegistry, SeriesValue};
use netseer::Ledger;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Render the whole registry (real families, then the registry's own
/// meta families) as one exposition document.
pub fn render_prometheus(reg: &MetricRegistry) -> String {
    let mut out = String::new();
    for fam in reg.families() {
        render_family(&mut out, fam);
    }
    for fam in reg.meta_families() {
        render_family(&mut out, &fam);
    }
    out
}

fn render_family(out: &mut String, fam: &Family) {
    let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
    let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
    for (ls, value) in &fam.series {
        match value {
            SeriesValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", fam.name, render_labels(ls, None), v);
            }
            SeriesValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", fam.name, render_labels(ls, None), fmt_f64(*v));
            }
            SeriesValue::Histogram { buckets, sum, count } => {
                let mut cum = 0u64;
                for (i, b) in buckets.iter().enumerate() {
                    cum += b;
                    let le = match fam.bounds.get(i) {
                        Some(bound) => fmt_f64(*bound),
                        None => "+Inf".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        fam.name,
                        render_labels(ls, Some(&le)),
                        cum
                    );
                }
                let _ =
                    writeln!(out, "{}_sum{} {}", fam.name, render_labels(ls, None), fmt_f64(*sum));
                let _ = writeln!(out, "{}_count{} {}", fam.name, render_labels(ls, None), count);
            }
        }
    }
}

/// `{k="v",...}` with spec escaping; empty label sets render as nothing.
/// `le` (when given) is appended last, matching common client output.
fn render_labels(ls: &LabelSet, le: Option<&str>) -> String {
    if ls.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in ls {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", k, escape_label_value(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// HELP escaping: backslash and newline.
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Label-value escaping: backslash, double-quote, newline.
pub fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Deterministic float formatting: integral finite values print without
/// a fraction (`42`), everything else uses Rust's shortest-roundtrip
/// `Display` (deterministic across platforms).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.is_infinite() && v > 0.0 {
        "+Inf".to_string()
    } else if v.is_infinite() {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// One parsed sample: metric name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (histogram ladders appear as `_bucket`/`_sum`/`_count`).
    pub name: String,
    /// Sorted label set.
    pub labels: LabelSet,
    /// Sample value.
    pub value: f64,
}

/// A parsed exposition document: samples plus the `# TYPE` map.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// Every sample line in document order.
    pub samples: Vec<Sample>,
    /// `name -> type` from the `# TYPE` comments.
    pub types: BTreeMap<String, String>,
}

impl Exposition {
    /// The value of the unique sample with this name and exact label
    /// subset match on `want` (other labels ignored). Panics on dup.
    pub fn value(&self, name: &str, want: &[(&str, &str)]) -> Option<f64> {
        let mut hit = None;
        for s in self.samples.iter().filter(|s| s.name == name) {
            let matches =
                want.iter().all(|&(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v));
            if matches {
                assert!(hit.is_none(), "ambiguous sample {name} {want:?}");
                hit = Some(s.value);
            }
        }
        hit
    }

    /// Sum of every sample with this name (all label sets).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
    }

    /// Read a ledger back out of the document: each term is the sample
    /// of its family under `lbls` plus its `reason` label, the inverse
    /// of [`scrape_terms`](crate::scrape::scrape_terms). `None` when a
    /// term is absent or not a whole count.
    pub fn ledger<L: Ledger>(&self, lbls: &[(&str, &str)]) -> Option<L> {
        let mut l = L::default();
        for (t, v) in L::TERMS.iter().zip(l.values_mut()) {
            let mut want = lbls.to_vec();
            want.extend(t.reason.map(|r| ("reason", r)));
            let x = self.value(t.family, &want)?;
            if x < 0.0 || x.fract() != 0.0 {
                return None;
            }
            *v = x as u64;
        }
        Some(l)
    }
}

/// Strict parser for the v0.0.4 text format (the subset this crate
/// emits — which is the subset real scrapers require). Returns `None`
/// on any malformed line, so tests that pass it prove the encoder emits
/// valid exposition text.
pub fn parse_exposition(text: &str) -> Option<Exposition> {
    let mut doc = Exposition::default();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ')?;
            if !crate::registry::valid_metric_name(name)
                || !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped")
            {
                return None;
            }
            doc.types.insert(name.to_string(), ty.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        doc.samples.push(parse_sample(line)?);
    }
    Some(doc)
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (series, value) = line.rsplit_once(' ')?;
    let value = parse_value(value.trim())?;
    let (name, labels) = match series.find('{') {
        None => (series.to_string(), LabelSet::new()),
        Some(at) => {
            let name = &series[..at];
            let body = series[at + 1..].strip_suffix('}')?;
            (name.to_string(), parse_labels(body)?)
        }
    };
    if !crate::registry::valid_metric_name(&name) {
        return None;
    }
    let mut labels = labels;
    labels.sort();
    Some(Sample { name, labels, value })
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

/// Parse `k="v",k2="v2"` with unescaping; rejects bad label names and
/// unterminated strings.
fn parse_labels(body: &str) -> Option<LabelSet> {
    let mut out = LabelSet::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = &rest[..eq];
        if !crate::registry::valid_label_name(key) {
            return None;
        }
        rest = rest[eq + 1..].strip_prefix('"')?;
        // Scan to the closing unescaped quote.
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next()?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    _ => return None,
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end?;
        out.push((key.to_string(), value));
        rest = &rest[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;

    fn demo_registry() -> MetricRegistry {
        let mut r = MetricRegistry::new(RegistryConfig::default());
        r.counter_add("fet_events_total", "Events.", &[("scope", "fleet")], 10);
        r.counter_add("fet_events_total", "Events.", &[("scope", "wire")], 3);
        r.gauge_set("fet_backlog", "Backlog now.", &[], 2.5);
        for v in [0.5, 3.0, 100.0] {
            r.histogram_observe("fet_lat", "Latency.", &[1.0, 10.0], &[("dev", "3")], v);
        }
        r
    }

    #[test]
    fn roundtrips_through_own_parser() {
        let text = render_prometheus(&demo_registry());
        let doc = parse_exposition(&text).expect("own output must parse");
        assert_eq!(doc.value("fet_events_total", &[("scope", "fleet")]), Some(10.0));
        assert_eq!(doc.value("fet_events_total", &[("scope", "wire")]), Some(3.0));
        assert_eq!(doc.value("fet_backlog", &[]), Some(2.5));
        assert_eq!(doc.types.get("fet_lat").map(String::as_str), Some("histogram"));
        // Cumulative ladder: le=1 -> 1, le=10 -> 2, +Inf -> 3 == count.
        assert_eq!(doc.value("fet_lat_bucket", &[("le", "1")]), Some(1.0));
        assert_eq!(doc.value("fet_lat_bucket", &[("le", "10")]), Some(2.0));
        assert_eq!(doc.value("fet_lat_bucket", &[("le", "+Inf")]), Some(3.0));
        assert_eq!(doc.value("fet_lat_count", &[("dev", "3")]), Some(3.0));
        assert_eq!(doc.value("fet_lat_sum", &[("dev", "3")]), Some(103.5));
        // Meta families ride along.
        assert_eq!(doc.value("fet_export_series_rejected_total", &[]), Some(0.0));
    }

    #[test]
    fn escaping_survives_roundtrip() {
        let mut r = MetricRegistry::default();
        let hostile = "a\\b\"c\nd";
        r.counter_add("fet_x_total", "help with \\ and\nnewline", &[("k", hostile)], 1);
        let text = render_prometheus(&r);
        assert!(text.contains("a\\\\b\\\"c\\nd"), "escaped value in {text}");
        let doc = parse_exposition(&text).unwrap();
        assert_eq!(doc.value("fet_x_total", &[("k", hostile)]), Some(1.0));
    }

    #[test]
    fn rendering_is_deterministic_and_insertion_order_free() {
        let a = render_prometheus(&demo_registry());
        let mut r = MetricRegistry::default();
        // Same content, different insertion order.
        for v in [0.5, 3.0, 100.0] {
            r.histogram_observe("fet_lat", "Latency.", &[1.0, 10.0], &[("dev", "3")], v);
        }
        r.gauge_set("fet_backlog", "Backlog now.", &[], 2.5);
        r.counter_add("fet_events_total", "Events.", &[("scope", "wire")], 3);
        r.counter_add("fet_events_total", "Events.", &[("scope", "fleet")], 10);
        assert_eq!(a, render_prometheus(&r), "snapshots must be bit-identical");
    }

    #[test]
    fn fmt_is_exact() {
        assert_eq!(fmt_f64(42.0), "42");
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(-1.0), "-1");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("fet_x{k=\"unterminated} 1").is_none());
        assert!(parse_exposition("9bad_name 1").is_none());
        assert!(parse_exposition("fet_x{9k=\"v\"} 1").is_none());
        assert!(parse_exposition("fet_x notanumber").is_none());
        assert!(parse_exposition("# TYPE fet_x flavor").is_none());
    }
}
