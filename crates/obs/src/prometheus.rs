//! The `/metrics` exposition: one family list, two renderers.
//!
//! Each owner of process-level counters (`MetricsHub`, `StoreMetrics`,
//! the server's `ServerMetrics`) lists its [`Family`]s once; [`to_text`]
//! (Prometheus text format 0.0.4) and [`to_json`] walk that one list. A
//! histogram's count *is* its `+Inf` bucket, so the two never disagree.
//! Latency histograms are exported in seconds.

use crate::histogram::HistogramSnapshot;
use crate::json;
use std::fmt::Write as _;

/// One sample's reading.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A counter or gauge reading.
    Scalar(u64),
    /// Cumulative `(upper bound, count)` buckets ending with
    /// `(None, total)` for `+Inf`, and the sum of the observations.
    Histogram(Vec<(Option<f64>, u64)>, f64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Scalar(v)
    }
}

impl From<&HistogramSnapshot> for Value {
    /// A nanosecond latency histogram, in seconds.
    fn from(snap: &HistogramSnapshot) -> Value {
        let cumulative = snap.cumulative().into_iter();
        Value::Histogram(
            cumulative
                .map(|(bound, cum)| (bound.map(|ns| ns as f64 / 1e9), cum))
                .collect(),
            snap.sum_ns as f64 / 1e9,
        )
    }
}

/// A sample's one label (`op="AND"`, `rule="FL003"`), if it has one.
pub type Label = Option<(&'static str, String)>;

/// One metric family: a name, its help text and Prometheus type, and
/// its labelled samples (a family with none still renders its header).
#[derive(Clone, Debug, PartialEq)]
pub struct Family {
    /// Metric name, e.g. `owql_queries_total`.
    name: &'static str,
    /// `counter`, `gauge` or `histogram`.
    kind: &'static str,
    /// One-line description (the `# HELP` text).
    help: &'static str,
    /// Samples in render order.
    samples: Vec<(Label, Value)>,
}

impl Family {
    /// A family with no samples yet.
    pub fn new(name: &'static str, kind: &'static str, help: &'static str) -> Family {
        Family {
            name,
            kind,
            help,
            samples: Vec::new(),
        }
    }

    /// Adds one sample.
    pub fn sample(mut self, label: Label, value: impl Into<Value>) -> Family {
        self.samples.push((label, value.into()));
        self
    }

    /// A counter family with one unlabelled sample.
    pub fn counter(name: &'static str, help: &'static str, value: u64) -> Family {
        Family::new(name, "counter", help).sample(None, value)
    }

    /// A gauge family with one unlabelled sample.
    pub fn gauge(name: &'static str, help: &'static str, value: u64) -> Family {
        Family::new(name, "gauge", help).sample(None, value)
    }

    /// A latency histogram family with one unlabelled series.
    pub fn histogram(name: &'static str, help: &'static str, snap: &HistogramSnapshot) -> Family {
        Family::new(name, "histogram", help).sample(None, snap)
    }
}

/// Renders `families` in Prometheus text format (version 0.0.4).
pub fn to_text(families: &[Family]) -> String {
    let mut out = String::new();
    for f in families {
        let (name, kind, help) = (f.name, f.kind, f.help);
        let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
        for (label, value) in &f.samples {
            let label = label.as_ref().map(|(k, v)| format!("{k}=\"{v}\""));
            let braced = label.as_ref().map_or(String::new(), |l| format!("{{{l}}}"));
            match value {
                Value::Scalar(v) => {
                    let _ = writeln!(out, "{name}{braced} {v}");
                }
                Value::Histogram(cumulative, sum) => {
                    for (bound, cum) in cumulative {
                        let le = format!("le=\"{}\"", bound.map_or("+Inf".to_owned(), fmt_float));
                        let labels = label.as_ref().map_or(le.clone(), |l| format!("{l},{le}"));
                        let _ = writeln!(out, "{name}_bucket{{{labels}}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_sum{braced} {}", fmt_float(*sum));
                    let _ = writeln!(out, "{name}_count{braced} {}", count(cumulative));
                }
            }
        }
    }
    out
}

/// Renders `families` as one JSON object keyed by family name —
/// `{"type", "help", "samples": [{"labels", "value"}]}`, histogram
/// samples carrying `count`, `sum` and the `buckets` where the
/// cumulative count moves (`+Inf` as `"le": null`, always kept) —
/// followed by the `extra` members (already-rendered JSON values).
/// Every reading is integral or a finite sum of integral
/// observations, so each float is a valid JSON number.
pub fn to_json(families: &[Family], extra: &[(&str, String)]) -> String {
    let mut members: Vec<String> = families
        .iter()
        .map(|f| {
            let samples: Vec<String> = f.samples.iter().map(sample_json).collect();
            format!(
                "{}: {{\"type\": \"{}\", \"help\": {}, \"samples\": [{}]}}",
                json::string(f.name),
                f.kind,
                json::string(f.help),
                samples.join(", ")
            )
        })
        .collect();
    members.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{}: {v}", json::string(k))),
    );
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

fn sample_json((label, value): &(Label, Value)) -> String {
    let labels = label.as_ref().map_or(String::new(), |(k, v)| {
        format!("{}: {}", json::string(k), json::string(v))
    });
    let (cumulative, sum) = match value {
        Value::Scalar(v) => return format!("{{\"labels\": {{{labels}}}, \"value\": {v}}}"),
        Value::Histogram(cumulative, sum) => (cumulative, sum),
    };
    let mut prev = 0;
    let buckets: Vec<String> = cumulative
        .iter()
        .filter(|&&(bound, cum)| std::mem::replace(&mut prev, cum) != cum || bound.is_none())
        .map(|&(bound, cum)| {
            let le = bound.map_or("null".to_owned(), fmt_float);
            format!("{{\"le\": {le}, \"cumulative\": {cum}}}")
        })
        .collect();
    format!(
        "{{\"labels\": {{{labels}}}, \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
        count(cumulative),
        fmt_float(*sum),
        buckets.join(", ")
    )
}

/// A histogram series' observation count: its `+Inf` bucket.
fn count(cumulative: &[(Option<f64>, u64)]) -> u64 {
    cumulative.last().map_or(0, |&(_, cum)| cum)
}

/// A float in Prometheus sample syntax: shortest-roundtrip decimal
/// (Rust's default `Display`), with non-finite values spelled the way
/// the exposition format expects.
fn fmt_float(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_owned()
    } else if x == f64::INFINITY {
        "+Inf".to_owned()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn counter_and_gauge_render_headers_and_samples() {
        let out = to_text(&[
            Family::counter("owql_queries_total", "Queries served.", 7),
            Family::gauge("owql_store_epoch", "Current epoch.", 3),
        ]);
        assert!(out.contains("# HELP owql_queries_total Queries served."));
        assert!(out.contains("# TYPE owql_queries_total counter"));
        assert!(out.contains("owql_queries_total 7\n"));
        assert!(out.contains("# TYPE owql_store_epoch gauge"));
        assert!(out.contains("owql_store_epoch 3\n"));
    }

    #[test]
    fn histogram_renders_cumulative_le_sum_count() {
        let h = Histogram::new();
        h.record_ns(1_000); // first bucket (≤ 1024 ns)
        h.record_ns(2_000_000); // ~2 ms
        let out = to_text(&[Family::histogram(
            "owql_query_latency_seconds",
            "E2E latency.",
            &h.snapshot(),
        )]);
        assert!(out.contains("# TYPE owql_query_latency_seconds histogram"));
        assert!(out.contains("owql_query_latency_seconds_bucket{le=\"0.000001024\"} 1"));
        assert!(out.contains("owql_query_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("owql_query_latency_seconds_count 2"));
        assert!(out.contains("owql_query_latency_seconds_sum 0.002001"));
        // Cumulative counts never decrease down the bucket list.
        let mut prev = 0u64;
        for line in out.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .expect("sample")
                .parse()
                .expect("int");
            assert!(v >= prev, "non-monotone bucket line: {line}");
            prev = v;
        }
    }

    #[test]
    fn floats_render_in_exposition_syntax() {
        assert_eq!(fmt_float(0.25), "0.25");
        assert_eq!(fmt_float(f64::INFINITY), "+Inf");
        assert_eq!(fmt_float(f64::NAN), "NaN");
    }
}
