//! Metrics registry: counters, gauge time series, and histograms.

use crate::time::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A value-distribution accumulator with summary statistics.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    values: Vec<f64>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by nearest-rank, or `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metrics must not be NaN"));
        let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// All raw observations, in arrival order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Point-in-time summary statistics, or `None` if empty.
    pub fn summary(&self) -> Option<HistogramSummary> {
        if self.values.is_empty() {
            return None;
        }
        Some(HistogramSummary {
            count: self.count(),
            sum: self.values.iter().sum(),
            mean: self.mean().expect("non-empty"),
            min: self.min().expect("non-empty"),
            p50: self.quantile(0.5).expect("non-empty"),
            p90: self.quantile(0.9).expect("non-empty"),
            p99: self.quantile(0.99).expect("non-empty"),
            max: self.max().expect("non-empty"),
        })
    }
}

/// Summary statistics of one histogram, captured by [`Metrics::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: usize,
    /// Sum of all observations.
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
}

/// An immutable point-in-time capture of a [`Metrics`] registry, exportable
/// as JSON or Prometheus text exposition.
///
/// Gauges are captured at their latest sample; histograms as
/// [`HistogramSummary`]. Map iteration order (and therefore export output)
/// is the registries' name order, so exports are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Latest gauge sample by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name (empty histograms are omitted).
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Splits a metric name into its base and an optional embedded Prometheus
/// label block: `"txn.committed{protocol=\"polyvalue\"}"` →
/// `("txn.committed", Some("protocol=\"polyvalue\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match (name.find('{'), name.ends_with('}')) {
        (Some(i), true) => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Maps a metric base name to a valid Prometheus identifier: dots and any
/// other non-`[a-zA-Z0-9_:]` characters become underscores.
fn prom_ident(base: &str) -> String {
    base.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Formats an f64 as a JSON-safe number (non-finite becomes `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a stable, human-readable JSON document.
    pub fn to_json(&self) -> String {
        use fmt::Write;
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            write!(out, "{}\n    {:?}: {v}", if first { "" } else { "," }, k).unwrap();
            first = false;
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            write!(
                out,
                "{}\n    {:?}: {}",
                if first { "" } else { "," },
                k,
                json_num(*v)
            )
            .unwrap();
            first = false;
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            write!(
                out,
                "{}\n    {:?}: {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                if first { "" } else { "," },
                k,
                h.count,
                json_num(h.sum),
                json_num(h.mean),
                json_num(h.min),
                json_num(h.p50),
                json_num(h.p90),
                json_num(h.p99),
                json_num(h.max),
            )
            .unwrap();
            first = false;
        }
        out.push_str(if first { "}\n}" } else { "\n  }\n}" });
        out.push('\n');
        out
    }

    /// Serializes the snapshot in the Prometheus text exposition format.
    ///
    /// Metric names gain a `pv_` prefix and have dots mapped to underscores;
    /// a label block embedded in the name (see [`Metrics::with_label`])
    /// passes through: `txn.committed{protocol="polyvalue"}` becomes
    /// `pv_txn_committed{protocol="polyvalue"}`. Histograms export as
    /// Prometheus summaries (quantiles + `_sum` + `_count`).
    pub fn to_prometheus(&self) -> String {
        use fmt::Write;
        use std::collections::BTreeSet;
        let mut out = String::new();
        let mut typed: BTreeSet<String> = BTreeSet::new();
        let mut type_line = |out: &mut String, ident: &str, kind: &str| {
            if typed.insert(ident.to_owned()) {
                writeln!(out, "# TYPE {ident} {kind}").unwrap();
            }
        };
        for (name, v) in &self.counters {
            let (base, labels) = split_labels(name);
            let ident = format!("pv_{}", prom_ident(base));
            type_line(&mut out, &ident, "counter");
            match labels {
                Some(l) => writeln!(out, "{ident}{{{l}}} {v}").unwrap(),
                None => writeln!(out, "{ident} {v}").unwrap(),
            }
        }
        for (name, v) in &self.gauges {
            let (base, labels) = split_labels(name);
            let ident = format!("pv_{}", prom_ident(base));
            type_line(&mut out, &ident, "gauge");
            match labels {
                Some(l) => writeln!(out, "{ident}{{{l}}} {v}").unwrap(),
                None => writeln!(out, "{ident} {v}").unwrap(),
            }
        }
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            let ident = format!("pv_{}", prom_ident(base));
            type_line(&mut out, &ident, "summary");
            let with = |extra: &str| match labels {
                Some(l) => format!("{{{l},{extra}}}"),
                None => format!("{{{extra}}}"),
            };
            let plain = match labels {
                Some(l) => format!("{{{l}}}"),
                None => String::new(),
            };
            writeln!(out, "{ident}{} {}", with("quantile=\"0.5\""), h.p50).unwrap();
            writeln!(out, "{ident}{} {}", with("quantile=\"0.9\""), h.p90).unwrap();
            writeln!(out, "{ident}{} {}", with("quantile=\"0.99\""), h.p99).unwrap();
            writeln!(out, "{ident}_sum{plain} {}", h.sum).unwrap();
            writeln!(out, "{ident}_count{plain} {}", h.count).unwrap();
        }
        out
    }
}

/// Applies `record` to the series `name`, created empty on first use. Every
/// recording call lands here: one hashed lookup by `&str`, and the name is
/// copied to the heap only when the series is new.
fn with_series<V: Default>(map: &mut HashMap<String, V>, name: &str, record: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(series) => record(series),
        None => record(map.entry(name.to_owned()).or_default()),
    }
}

/// The series of `map` in name order.
fn by_name<V>(map: &HashMap<String, V>) -> Vec<(&str, &V)> {
    let mut series: Vec<_> = map.iter().map(|(k, v)| (k.as_str(), v)).collect();
    series.sort_unstable_by_key(|&(k, _)| k);
    series
}

/// A named registry of counters, gauges, and histograms for one run.
///
/// Recording finds a series by hashing its name; everything that iterates
/// the registry ([`Metrics::counters`], [`Metrics::histograms`],
/// [`Metrics::snapshot`], `Display`) sorts by name first, so exports stay
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: HashMap<String, u64>,
    gauges: HashMap<String, Vec<(SimTime, f64)>>,
    histograms: HashMap<String, Histogram>,
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `by` to the counter `name` (creating it at zero).
    pub fn inc_by(&mut self, name: &str, by: u64) {
        with_series(&mut self.counters, name, |c| *c += by);
    }

    /// Adds one to the counter `name`.
    pub fn inc(&mut self, name: &str) {
        self.inc_by(name, 1);
    }

    /// The current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Appends a gauge sample at time `t`.
    pub fn gauge(&mut self, name: &str, t: SimTime, v: f64) {
        with_series(&mut self.gauges, name, |s| s.push((t, v)));
    }

    /// The sample series of a gauge (empty if never sampled).
    pub fn gauge_series(&self, name: &str) -> &[(SimTime, f64)] {
        self.gauges.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The latest value of a gauge, if any.
    pub fn gauge_last(&self, name: &str) -> Option<f64> {
        self.gauge_series(name).last().map(|&(_, v)| v)
    }

    /// Time-weighted mean of a gauge over `[from, to]`, treating each sample
    /// as holding until the next. `None` when there is no sample at or
    /// before `from`... the series must start at or before `from` to be
    /// meaningful; earlier samples are clipped.
    pub fn gauge_time_mean(&self, name: &str, from: SimTime, to: SimTime) -> Option<f64> {
        let series = self.gauge_series(name);
        if series.is_empty() || to <= from {
            return None;
        }
        let mut acc = 0.0;
        let mut last_t = from;
        let mut last_v: Option<f64> = None;
        for &(t, v) in series {
            if t <= from {
                last_v = Some(v);
                continue;
            }
            if t >= to {
                break;
            }
            if let Some(lv) = last_v {
                acc += lv * t.since(last_t).as_secs_f64();
            }
            last_t = t;
            last_v = Some(v);
        }
        let lv = last_v?;
        acc += lv * to.since(last_t).as_secs_f64();
        Some(acc / to.since(from).as_secs_f64())
    }

    /// Records an observation into histogram `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        with_series(&mut self.histograms, name, |h| h.observe(v));
    }

    /// The histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        by_name(&self.counters).into_iter().map(|(k, &v)| (k, v))
    }

    /// Iterates over all histograms in name order (used by exporters and by
    /// the `pv-net` wire format, which ships raw observations so site-local
    /// registries merge losslessly at the load generator).
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        by_name(&self.histograms).into_iter()
    }

    /// Composes a metric name carrying a Prometheus-style label, e.g.
    /// `Metrics::with_label("txn.committed", "protocol", "polyvalue")` →
    /// `txn.committed{protocol="polyvalue"}`. The exporters understand the
    /// embedded block; every other accessor treats it as an opaque name.
    pub fn with_label(name: &str, key: &str, value: &str) -> String {
        format!("{name}{{{key}={value:?}}}")
    }

    /// Captures a point-in-time [`MetricsSnapshot`] (latest gauge values,
    /// histogram summaries) for export as JSON or Prometheus text.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self
                .gauges
                .iter()
                .filter_map(|(k, s)| s.last().map(|&(_, v)| (k.clone(), v)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter_map(|(k, h)| h.summary().map(|s| (k.clone(), s)))
                .collect(),
        }
    }

    /// Merges another registry into this one (counters add, gauge series and
    /// histograms concatenate).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            with_series(&mut self.counters, k, |c| *c += v);
        }
        for (k, series) in &other.gauges {
            with_series(&mut self.gauges, k, |s| s.extend(series.iter().copied()));
        }
        for (k, h) in &other.histograms {
            with_series(&mut self.histograms, k, |dst| dst.values.extend_from_slice(&h.values));
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in by_name(&self.counters) {
            writeln!(f, "counter {k} = {v}")?;
        }
        for (k, h) in by_name(&self.histograms) {
            writeln!(
                f,
                "hist {k}: n={} mean={:.3} p50={:.3} p99={:.3}",
                h.count(),
                h.mean().unwrap_or(f64::NAN),
                h.quantile(0.5).unwrap_or(f64::NAN),
                h.quantile(0.99).unwrap_or(f64::NAN),
            )?;
        }
        for (k, series) in by_name(&self.gauges) {
            writeln!(f, "gauge {k}: {} samples", series.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x");
        m.inc_by("x", 4);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("x", 5)]);
    }

    #[test]
    fn a_series_exists_from_its_first_recording_and_only_once() {
        let mut m = Metrics::new();
        m.inc_by("b", 0);
        m.inc_by("a", 0);
        m.inc_by("b", 0);
        // Incrementing by zero still creates the counter, in name order.
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("a", 0), ("b", 0)]);
        for v in [1.0, 2.0] {
            m.observe("h", v);
            m.gauge("g", SimTime::ZERO, v);
        }
        assert_eq!(m.histograms().count(), 1);
        assert_eq!(m.histogram("h").unwrap().values(), [1.0, 2.0]);
        assert_eq!(m.gauge_series("g").len(), 2);
        assert!(m.snapshot().to_json().contains("\"a\": 0,\n    \"b\": 0"));
    }

    #[test]
    fn every_export_lists_series_in_name_order() {
        let mut m = Metrics::new();
        for name in ["zeta", "alpha", "mid"] {
            m.inc(&format!("c.{name}"));
            m.observe(&format!("h.{name}"), 1.0);
            m.gauge(&format!("g.{name}"), SimTime::ZERO, 1.0);
        }
        let sorted = ["alpha", "mid", "zeta"];
        let named = |kind: &str| sorted.map(|name| format!("{kind}.{name}"));
        assert_eq!(m.counters().map(|(k, _)| k).collect::<Vec<_>>(), named("c"));
        assert_eq!(m.histograms().map(|(k, _)| k).collect::<Vec<_>>(), named("h"));
        // Every needle appears, each after the one before it.
        let in_order = |text: &str, needles: [String; 3]| {
            let at = needles.each_ref().map(|n| text.find(n).unwrap_or_else(|| panic!("{n} in\n{text}")));
            assert!(at.windows(2).all(|w| w[0] < w[1]), "{needles:?} out of order:\n{text}");
        };
        let snapshot = m.snapshot();
        let json = snapshot.to_json();
        let prom = snapshot.to_prometheus();
        let text = m.to_string();
        for kind in ["c", "g", "h"] {
            in_order(&json, named(kind).map(|n| format!("{n:?}")));
            in_order(&prom, sorted.map(|name| format!("# TYPE pv_{kind}_{name} ")));
        }
        in_order(&text, named("c").map(|n| format!("counter {n} = 1")));
        in_order(&text, named("h").map(|n| format!("hist {n}:")));
        in_order(&text, named("g").map(|n| format!("gauge {n}:")));
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), Some(3.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(5.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(5.0));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn gauges_record_series() {
        let mut m = Metrics::new();
        m.gauge("p", SimTime::from_secs(1), 10.0);
        m.gauge("p", SimTime::from_secs(2), 20.0);
        assert_eq!(m.gauge_series("p").len(), 2);
        assert_eq!(m.gauge_last("p"), Some(20.0));
        assert_eq!(m.gauge_last("missing"), None);
    }

    #[test]
    fn gauge_time_mean_weights_by_duration() {
        let mut m = Metrics::new();
        // 10 for 1s, then 20 for 3s → mean (10·1 + 20·3)/4 = 17.5.
        m.gauge("p", SimTime::ZERO, 10.0);
        m.gauge("p", SimTime::from_secs(1), 20.0);
        let mean = m
            .gauge_time_mean("p", SimTime::ZERO, SimTime::from_secs(4))
            .unwrap();
        assert!((mean - 17.5).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn gauge_time_mean_clips_before_window() {
        let mut m = Metrics::new();
        m.gauge("p", SimTime::ZERO, 5.0);
        m.gauge("p", SimTime::from_secs(10), 15.0);
        // Window entirely after the last sample.
        let mean = m
            .gauge_time_mean("p", SimTime::from_secs(20), SimTime::from_secs(30))
            .unwrap();
        assert!((mean - 15.0).abs() < 1e-9);
        // Degenerate/empty cases.
        assert!(m
            .gauge_time_mean("p", SimTime::from_secs(3), SimTime::from_secs(3))
            .is_none());
        assert!(m
            .gauge_time_mean("missing", SimTime::ZERO, SimTime::from_secs(1))
            .is_none());
    }

    #[test]
    fn observe_routes_to_histogram() {
        let mut m = Metrics::new();
        m.observe("lat", 1.5);
        m.observe("lat", 2.5);
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
        assert!(m.histogram("missing").is_none());
    }

    #[test]
    fn merge_combines_registries() {
        let mut a = Metrics::new();
        a.inc("c");
        a.observe("h", 1.0);
        a.gauge("g", SimTime::ZERO, 1.0);
        let mut b = Metrics::new();
        b.inc_by("c", 2);
        b.observe("h", 2.0);
        b.gauge("g", SimTime::from_secs(1), 2.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.gauge_series("g").len(), 2);
    }

    #[test]
    fn snapshot_captures_each_kind() {
        let mut m = Metrics::new();
        m.inc_by("c", 3);
        m.gauge("g", SimTime::ZERO, 1.0);
        m.gauge("g", SimTime::from_secs(1), 2.5);
        m.observe("h", 1.0);
        m.observe("h", 3.0);
        let s = m.snapshot();
        assert_eq!(s.counters.get("c"), Some(&3));
        assert_eq!(s.gauges.get("g"), Some(&2.5));
        let h = s.histograms.get("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4.0);
        assert_eq!(h.mean, 2.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn json_export_is_valid_and_stable() {
        let mut m = Metrics::new();
        m.inc("b.count");
        m.inc("a.count");
        m.gauge("g", SimTime::ZERO, 1.5);
        m.observe("h", 2.0);
        let j = m.snapshot().to_json();
        // Name-ordered, quoted keys, balanced braces.
        assert!(j.find("\"a.count\"").unwrap() < j.find("\"b.count\"").unwrap());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"g\": 1.5"));
        assert!(j.contains("\"count\": 1"));
        // Empty registry still produces balanced output.
        let empty = Metrics::new().snapshot().to_json();
        assert_eq!(empty.matches('{').count(), empty.matches('}').count());
    }

    #[test]
    fn prometheus_export_sanitizes_and_types() {
        let mut m = Metrics::new();
        m.inc_by("net.delivered", 7);
        m.gauge("poly.depth", SimTime::ZERO, 2.0);
        m.observe("phase.submit_decided", 0.25);
        let p = m.snapshot().to_prometheus();
        assert!(p.contains("# TYPE pv_net_delivered counter"));
        assert!(p.contains("pv_net_delivered 7"));
        assert!(p.contains("# TYPE pv_poly_depth gauge"));
        assert!(p.contains("# TYPE pv_phase_submit_decided summary"));
        assert!(p.contains("pv_phase_submit_decided{quantile=\"0.99\"} 0.25"));
        assert!(p.contains("pv_phase_submit_decided_count 1"));
    }

    #[test]
    fn labels_pass_through_exports() {
        let name = Metrics::with_label("txn.committed", "protocol", "polyvalue");
        assert_eq!(name, "txn.committed{protocol=\"polyvalue\"}");
        let mut m = Metrics::new();
        m.inc_by(&name, 2);
        let p = m.snapshot().to_prometheus();
        assert!(p.contains("# TYPE pv_txn_committed counter"));
        assert!(p.contains("pv_txn_committed{protocol=\"polyvalue\"} 2"));
        let mut lm = Metrics::new();
        lm.observe(&Metrics::with_label("lat", "protocol", "relaxed"), 1.0);
        let lp = lm.snapshot().to_prometheus();
        assert!(lp.contains("pv_lat{protocol=\"relaxed\",quantile=\"0.5\"} 1"));
        assert!(lp.contains("pv_lat_count{protocol=\"relaxed\"} 1"));
    }

    #[test]
    fn display_mentions_each_kind() {
        let mut m = Metrics::new();
        m.inc("c");
        m.observe("h", 1.0);
        m.gauge("g", SimTime::ZERO, 1.0);
        let s = m.to_string();
        assert!(s.contains("counter c = 1"));
        assert!(s.contains("hist h"));
        assert!(s.contains("gauge g"));
    }
}
