//! `owql_bench compare A.json B.json`: per workload and end-to-end
//! metric, both values, the relative difference and the bound, one row
//! each. Fails beyond a bound or on any `error_rate` increase.

use owql_server::json::{parse, JsonValue};
use std::fmt::Write as _;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// `(metric, which way is better, bound)`.
pub type Bound = (&'static str, Better, f64);

/// Bound on a timing or a rate: the machine this was defined on drifts
/// by ±15% over tens of minutes, so nothing tighter holds.
const TIMED: f64 = 0.25;
/// Bound on bytes per triple.
const SPACE: f64 = 0.05;
/// Bound on peak RSS.
const PEAK: f64 = 0.10;

/// Workload × end-to-end metric: which way is better, and the share of
/// A's value by which B may be worse. A reported metric that is not
/// listed did not repeat at the defining commit (or is a count); it is
/// printed by `run` and not compared. `error_rate` is compared on
/// every workload: any increase fails.
pub const BOUNDS: [(&str, &[Bound]); 5] = [
    (
        "log_mix",
        &[
            ("setup_s", Better::Lower, TIMED),
            ("queries_per_s", Better::Higher, TIMED),
            ("query_p50_ms", Better::Lower, TIMED),
            ("query_p99_ms", Better::Lower, TIMED),
            ("open_p50_ms", Better::Lower, TIMED),
            ("mem_bytes_per_triple", Better::Lower, SPACE),
            ("rss_peak_mb", Better::Lower, PEAK),
        ],
    ),
    ("analytic_opt", ANALYTIC),
    ("analytic_ns", ANALYTIC),
    (
        "churn_rw",
        &[
            ("setup_s", Better::Lower, TIMED),
            ("queries_per_s", Better::Higher, TIMED),
            ("query_p50_ms", Better::Lower, TIMED),
            ("commit_p50_ms", Better::Lower, TIMED),
            ("read_miss_p50_ms", Better::Lower, TIMED),
            ("disk_bytes_per_triple", Better::Lower, SPACE),
            ("rss_peak_mb", Better::Lower, PEAK),
        ],
    ),
    (
        "ingest_recover",
        &[
            ("setup_s", Better::Lower, TIMED),
            ("ingest_triples_per_s", Better::Higher, TIMED),
            ("reopen_ms", Better::Lower, TIMED),
            ("checkpoint_ms", Better::Lower, TIMED),
            ("disk_bytes_per_triple", Better::Lower, SPACE),
            ("rss_peak_mb", Better::Lower, PEAK),
        ],
    ),
];

const ANALYTIC: &[Bound] = &[
    ("setup_s", Better::Lower, TIMED),
    ("round_p50_ms", Better::Lower, TIMED),
    ("rows_per_s", Better::Higher, TIMED),
    ("slowest_query_p50_ms", Better::Lower, TIMED),
    ("mem_bytes_per_triple", Better::Lower, SPACE),
    ("rss_peak_mb", Better::Lower, PEAK),
];

fn field<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(doc, |v, key| v.get(key))
}

fn workloads(doc: &JsonValue) -> Result<&[JsonValue], String> {
    match doc.get("workloads") {
        Some(JsonValue::Arr(ws)) => Ok(ws),
        _ => Err("no \"workloads\" array: not a `run` document".to_owned()),
    }
}

fn value(workload: &JsonValue, metric: &str) -> Option<f64> {
    match field(workload, &["metrics", metric, "value"])? {
        JsonValue::Num(n) => Some(*n),
        _ => None,
    }
}

/// Compares two `run` documents. `Ok((table, regressed))` when they
/// are comparable, `Err(reason)` when comparing them is refused.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let a = parse(a).map_err(|e| format!("A: {e}"))?;
    let b = parse(b).map_err(|e| format!("B: {e}"))?;
    for (side, doc) in [("A", &a), ("B", &b)] {
        if doc.get("quick").and_then(JsonValue::as_bool) != Some(false) {
            return Err(format!("{side} is a --quick output: never compared"));
        }
    }
    let cores = |doc| field(doc, &["fingerprint", "nproc"]).and_then(JsonValue::as_u64);
    if cores(&a).is_none() || cores(&a) != cores(&b) {
        return Err(format!(
            "core counts differ: A ran on {:?}, B on {:?}",
            cores(&a),
            cores(&b)
        ));
    }
    if a.get("run_seconds") != b.get("run_seconds") {
        return Err("run lengths differ".to_owned());
    }

    let mut table = format!(
        "{:<15} {:<24} {:>14} {:>14} {:>8} {:>6}\n",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut regressed = false;
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    if wa.len() != wb.len() {
        return Err("the two outputs hold different workloads".to_owned());
    }
    for (x, y) in wa.iter().zip(wb) {
        let name = x.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        if x.get("name") != y.get("name") {
            return Err("the two outputs hold different workloads".to_owned());
        }
        for digest in [&["dataset", "hash"][..], &["mix", "hash"][..]] {
            if field(x, digest) != field(y, digest) {
                return Err(format!("{name}: {} digests differ", digest[0]));
            }
        }
        let bounds = BOUNDS
            .iter()
            .find(|(w, _)| *w == name)
            .map_or(&[][..], |(_, b)| b);
        let errors = [("error_rate", Better::Lower, 0.0)];
        for &(metric, better, bound) in bounds.iter().chain(&errors) {
            let (Some(va), Some(vb)) = (value(x, metric), value(y, metric)) else {
                continue;
            };
            // Positive when B is worse.
            let worse = match better {
                Better::Lower => vb - va,
                Better::Higher => va - vb,
            };
            let (diff, bad) = if metric == "error_rate" {
                (worse, worse > 0.0)
            } else {
                let share = if va == 0.0 { 0.0 } else { worse / va };
                (share, share > bound)
            };
            regressed |= bad;
            let _ = writeln!(
                table,
                "{name:<15} {metric:<24} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>5.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if bad { "  WORSE" } else { "" }
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(quick: bool, nproc: u32, qps: f64, p50: f64, errors: f64, hash: &str) -> String {
        format!(
            "{{\"quick\": {quick}, \"run_seconds\": 15, \"fingerprint\": {{\"nproc\": {nproc}}}, \
             \"workloads\": [{{\"name\": \"log_mix\", \"dataset\": {{\"hash\": \"{hash}\"}}, \
             \"mix\": {{\"hash\": \"m\"}}, \"metrics\": {{\
             \"queries_per_s\": {{\"value\": {qps}}}, \"query_p50_ms\": {{\"value\": {p50}}}, \
             \"query_p99_ms\": {{\"value\": null}}, \"error_rate\": {{\"value\": {errors}}}}}}}]}}"
        )
    }

    #[test]
    fn within_bounds_passes_and_prints_one_row_per_metric() {
        let a = doc(false, 2, 1000.0, 1.0, 0.0, "d");
        let b = doc(false, 2, 950.0, 1.05, 0.0, "d");
        let (table, regressed) = compare(&a, &b).expect("comparable");
        assert!(!regressed, "{table}");
        // Header + three metrics; the null p99 is skipped.
        assert_eq!(table.lines().count(), 4, "{table}");
        assert!(table.contains("queries_per_s") && table.contains("+5.0%"));
    }

    #[test]
    fn beyond_a_bound_or_more_errors_fails() {
        let a = doc(false, 2, 1000.0, 1.0, 0.0, "d");
        let slower = compare(&a, &doc(false, 2, 700.0, 1.0, 0.0, "d")).expect("comparable");
        assert!(slower.1 && slower.0.contains("WORSE"));
        let wrong = compare(&a, &doc(false, 2, 1000.0, 1.0, 0.001, "d")).expect("comparable");
        assert!(wrong.1);
        // Faster is never a regression.
        let faster = compare(&a, &doc(false, 2, 2000.0, 0.5, 0.0, "d")).expect("comparable");
        assert!(!faster.1);
    }

    #[test]
    fn refuses_quick_mismatched_cores_and_digests() {
        let a = doc(false, 2, 1000.0, 1.0, 0.0, "d");
        assert!(compare(&a, &doc(true, 2, 1000.0, 1.0, 0.0, "d"))
            .unwrap_err()
            .contains("quick"));
        assert!(compare(&a, &doc(false, 4, 1000.0, 1.0, 0.0, "d"))
            .unwrap_err()
            .contains("core"));
        assert!(compare(&a, &doc(false, 2, 1000.0, 1.0, 0.0, "e"))
            .unwrap_err()
            .contains("digest"));
        assert!(compare(&a, "{}").is_err());
    }
}
