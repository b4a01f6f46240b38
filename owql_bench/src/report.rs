//! Output: the machine fingerprint, the `run` document, and the one
//! JSON line the benchmark driver reads.

use crate::data::DatasetDigest;
use crate::queries::CLASSES;
use crate::stats::Metric;
use crate::workload::Report;
use owql_obs::json::string;
use std::fmt::Write as _;
use std::process::Command;

/// The workloads, in run order, and why each exists (the same words as
/// in `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "log_mix",
        "Query-log mix over POST /v1/query on real TCP: edge, parse, admission, optimize and cache do most of the work; the Zipf working set exceeds the 256-entry cache.",
    ),
    (
        "analytic_opt",
        "Unanchored well-designed OPT suite through Store::query_request, uncached, one thread: the left-outer join does nearly all the work; the server is bypassed.",
    ),
    (
        "analytic_ns",
        "NS phrasings of the same needs plus wide UNIONs and a two-hop join: join, UNION merge, NS-maximality and decode dominate, OPT does nothing; an OPT change predicts no change here.",
    ),
    (
        "churn_rw",
        "Durable store, fsync on: 100 commits/s on a schedule beside a closed-loop reader of 32 cached queries; commit cost, checkpoint stalls and epoch invalidation show.",
    ),
    (
        "ingest_recover",
        "Cycles of ingest in 1,000-triple commits, checkpoint, drop, reopen, scan: ingest rate, cold start and disk bytes per triple, which nothing else measures.",
    ),
];

/// The metrics the driver gates, reported by every workload, with their
/// units. `setup_s` and `rss_peak_mb` are measured alike everywhere;
/// the other four read the workload's own metric named in [`SLOTS`].
pub const GATED: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("slow_ms", "ms"),
    ("bytes_per_triple", "B"),
    ("rss_peak_mb", "MB"),
];

/// Per workload, the metric behind `ops_per_s`, `op_p50_ms`, `slow_ms`
/// and `bytes_per_triple`: the work it completes per second, the wait
/// its user sees at the median, its slow path, and the space a triple
/// takes in the medium the workload stores it in.
pub const SLOTS: [(&str, [&str; 4]); 5] = [
    (
        "log_mix",
        [
            "queries_per_s",
            "query_p50_ms",
            "query_p99_ms",
            "mem_bytes_per_triple",
        ],
    ),
    (
        "analytic_opt",
        [
            "rows_per_s",
            "round_p50_ms",
            "slowest_query_p50_ms",
            "mem_bytes_per_triple",
        ],
    ),
    (
        "analytic_ns",
        [
            "rows_per_s",
            "round_p50_ms",
            "slowest_query_p50_ms",
            "mem_bytes_per_triple",
        ],
    ),
    (
        "churn_rw",
        [
            "queries_per_s",
            "commit_p50_ms",
            "read_miss_p50_ms",
            "disk_bytes_per_triple",
        ],
    ),
    (
        "ingest_recover",
        [
            "ingest_triples_per_s",
            "reopen_ms",
            "checkpoint_ms",
            "disk_bytes_per_triple",
        ],
    ),
];

/// The gated metrics of one report, or the name of the one it cannot
/// give (a tail refused because the run was too short).
pub fn gated(report: &Report) -> Result<Vec<Metric>, String> {
    let (_, sources) = SLOTS
        .iter()
        .find(|(w, _)| *w == report.workload)
        .expect("every workload has slots");
    let sources = [
        "setup_s",
        sources[0],
        sources[1],
        sources[2],
        sources[3],
        "rss_peak_mb",
    ];
    GATED
        .iter()
        .zip(sources)
        .map(|(&(name, unit), source)| {
            let m = report
                .metrics
                .iter()
                .find(|m| m.name == source)
                .unwrap_or_else(|| panic!("{} reports no {source}", report.workload));
            match m.value {
                Some(v) => Ok(Metric::new(name, v, unit, m.samples)),
                None => Err(format!(
                    "{source}: {}",
                    m.note.as_deref().unwrap_or("not reported")
                )),
            }
        })
        .collect()
}

/// A finite `f64` with all its digits (`owql_obs::json::number` keeps
/// three decimals, too few for a rate or a ratio).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What the numbers were measured on. `compare` refuses two outputs
/// whose core counts differ.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub profile: &'static str,
}

impl Fingerprint {
    pub fn take() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_owned(), |(_, v)| v.trim().to_owned());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \"profile\": {}}}",
            self.nproc,
            string(&self.cpu_model),
            string(&self.rustc),
            string(&self.git_commit),
            string(self.profile),
        )
    }
}

/// `{"name": {"value": v, "unit": "u", "samples": n}, …}`; a refused
/// metric has a null value and a reason.
pub fn metrics_json(metrics: &[Metric], indent: &str) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(out, "{indent}  {}: {{\"value\": ", string(&m.name));
        match m.value {
            Some(v) => out.push_str(&number(v)),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ", \"unit\": {}, \"samples\": {}",
            string(m.unit),
            m.samples
        );
        if let Some(note) = &m.note {
            let _ = write!(out, ", \"reason\": {}", string(note));
        }
        out.push('}');
    }
    let _ = write!(out, "\n{indent}}}");
    out
}

fn dataset_json(d: &DatasetDigest) -> String {
    let predicates: Vec<String> = d
        .predicates
        .iter()
        .map(|(p, n)| format!("{}: {n}", string(p)))
        .collect();
    format!(
        "{{\"triples\": {}, \"hash\": \"{:016x}\", \"predicates\": {{{}}}}}",
        d.triples,
        d.hash,
        predicates.join(", ")
    )
}

/// One workload's object of the `run` document.
pub fn report_json(r: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "    {{\"name\": {}, \"attempted\": {}, \"failed\": {},\n     \"dataset\": {},\n",
        string(r.workload),
        r.tally.attempted,
        r.tally.failed,
        dataset_json(&r.dataset),
    );
    if let Some((hash, classes, sizes)) = &r.mix {
        let total: usize = classes.iter().sum();
        let shares: Vec<String> = CLASSES
            .iter()
            .zip(classes)
            .map(|((name, _), n)| format!("{}: {}", string(name), number(*n as f64 / total as f64)))
            .collect();
        let sizes: Vec<String> = sizes
            .iter()
            .enumerate()
            .map(|(i, n)| format!("\"{}\": {}", i + 1, number(*n as f64 / total as f64)))
            .collect();
        let _ = writeln!(
            out,
            "     \"mix\": {{\"hash\": \"{hash:016x}\", \"requests\": {total}, \
             \"operator_shares\": {{{}}}, \"pattern_size_shares\": {{{}}}}},",
            shares.join(", "),
            sizes.join(", "),
        );
    }
    let config: Vec<String> = r
        .config
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v)))
        .collect();
    let _ = writeln!(out, "     \"config\": {{{}}},", config.join(", "));
    if !r.tally.examples.is_empty() {
        let examples: Vec<String> = r.tally.examples.iter().map(|e| string(e)).collect();
        let _ = writeln!(out, "     \"failures\": [{}],", examples.join(", "));
    }
    let _ = write!(
        out,
        "     \"metrics\": {}}}",
        metrics_json(&r.metrics, "     ")
    );
    out
}

/// The `run` document: every workload's metrics by name with units,
/// the inputs' digests, the configuration and the machine.
pub fn run_json(
    seed: u64,
    seconds: f64,
    quick: bool,
    fingerprint: &Fingerprint,
    workloads: &[String],
    layers: Option<&str>,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"owql_bench\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"run_seconds\": {},", number(seconds));
    let _ = writeln!(out, "  \"fingerprint\": {},", fingerprint.to_json());
    let workloads: Vec<&str> = workloads.iter().map(|w| w.trim_end()).collect();
    let _ = write!(out, "  \"workloads\": [\n{}\n  ]", workloads.join(",\n"));
    if let Some(layers) = layers {
        let _ = write!(out, ",\n  \"layers\": {}", layers.trim_end());
    }
    out.push_str("\n}\n");
    out
}

/// The line the benchmark driver reads: `correct`, `attempted`,
/// `failed` and `metrics`, nothing else. A refused per-layer metric
/// reads 0 here; the `run` document carries the reason.
pub fn driver_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                number(m.value.unwrap_or(0.0)),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Tally;
    use owql_server::json::parse;

    fn report(workload: &'static str, metrics: Vec<Metric>) -> Report {
        Report {
            workload,
            metrics,
            tally: Tally::default(),
            config: vec![("store", "x \"quoted\"".to_owned())],
            dataset: DatasetDigest {
                triples: 3,
                hash: 0xAB,
                predicates: [("name", 3)].into_iter().collect(),
            },
            mix: Some((7, [35, 25, 15, 15, 7, 3], [50, 30, 20])),
        }
    }

    #[test]
    fn gated_metrics_read_the_workloads_slots() {
        let r = report(
            "churn_rw",
            vec![
                Metric::new("setup_s", 1.5, "s", 3),
                Metric::new("queries_per_s", 9.0, "1/s", 10),
                Metric::new("commit_p50_ms", 2.0, "ms", 10),
                Metric::new("read_miss_p50_ms", 8.0, "ms", 10),
                Metric::new("disk_bytes_per_triple", 40.0, "B", 1),
                Metric::new("rss_peak_mb", 100.0, "MB", 1),
            ],
        );
        let g = gated(&r).expect("all present");
        let names: Vec<_> = g
            .iter()
            .map(|m| (m.name.as_str(), m.value.unwrap()))
            .collect();
        assert_eq!(
            names,
            [
                ("setup_s", 1.5),
                ("ops_per_s", 9.0),
                ("op_p50_ms", 2.0),
                ("slow_ms", 8.0),
                ("bytes_per_triple", 40.0),
                ("rss_peak_mb", 100.0)
            ]
        );
        let mut short = r.clone();
        short.metrics[3] = Metric::refused("read_miss_p50_ms", "ms", "only 200 samples");
        assert!(gated(&short).unwrap_err().contains("only 200 samples"));
    }

    #[test]
    fn outputs_are_valid_json() {
        let r = report(
            "log_mix",
            vec![
                Metric::new("setup_s", 0.25, "s", 5),
                Metric::refused("query_p99_ms", "ms", "only 12 samples"),
            ],
        );
        let fp = Fingerprint::take();
        let layers = metrics_json(&[Metric::new("eval.run_us", 12.5, "us", 100)], "  ");
        let doc = parse(&run_json(
            1,
            15.0,
            true,
            &fp,
            &[report_json(&r)],
            Some(&layers),
        ))
        .expect("valid JSON");
        assert_eq!(doc.get("quick").and_then(|q| q.as_bool()), Some(true));
        let w = match doc.get("workloads") {
            Some(owql_server::json::JsonValue::Arr(ws)) => &ws[0],
            other => panic!("workloads: {other:?}"),
        };
        assert_eq!(w.get("name").and_then(|n| n.as_str()), Some("log_mix"));
        let p99 = w
            .get("metrics")
            .and_then(|m| m.get("query_p99_ms"))
            .expect("listed");
        assert_eq!(p99.get("value"), Some(&owql_server::json::JsonValue::Null));
        assert!(doc
            .get("layers")
            .and_then(|l| l.get("eval.run_us"))
            .is_some());

        let line = driver_line(10, 0, &[Metric::new("setup_s", 0.8127, "s", 3)]);
        let doc = parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|c| c.as_u64()), Some(10));
    }
}
