//! Parallel-evaluation summary driver: runs the large-graph UNION/NS
//! workload through the sequential engine and through
//! parallel-mode `Engine::run` at 1, 2, and 8 workers, and writes
//! machine-readable results to `BENCH_parallel.json`.
//!
//! ```text
//! cargo run --release -p owql-bench --bin parallel_bench -- [--quick] [out.json]
//! ```
//!
//! The sequential baseline is today's sequential `Engine::run` over the same
//! store snapshot; parallel runs go through the `owql-exec` pool. Every
//! run cross-checks that the parallel answer set equals the sequential
//! one before timing is reported. `hardware_threads` records the cores
//! the container actually granted — on a single-core runner the
//! 8-worker gain comes from the parallel path's domain-grouped
//! subsumption filtering and consuming UNION merge; with real cores the
//! pool adds wall-clock scaling on top.

use owql_bench::par;
use owql_eval::ExecOpts;
use owql_exec::Pool;
use owql_obs::Profile;
use owql_store::{Store, StoreOptions};
use std::fmt::Write as _;
use std::time::Instant;

struct QueryRun {
    query: &'static str,
    answers: usize,
    sequential_ms: f64,
    /// `(workers, ms, speedup_vs_sequential)`.
    widths: Vec<(usize, f64, f64)>,
    /// Best-of-reps columnar 8-worker run, tracing off.
    columnar_untraced_ms: f64,
    /// Best-of-reps columnar 8-worker run, tracing on (native columnar
    /// tracing — no term-engine fallback).
    columnar_traced_ms: f64,
    /// One traced 8-worker run: per-operator totals, NS pruning, pool
    /// counters.
    profile: Profile,
}

struct SizeRun {
    people: usize,
    triples: usize,
    queries: Vec<QueryRun>,
}

/// Best-of-`reps` timing: the minimum observed wall clock is the
/// noise-robust estimate of what the code path costs — the artifact
/// feeds a CI gate (`scripts/check_bench.py`), and averaging lets one
/// scheduler preemption on a small runner poison a committed speedup.
fn time_ms(reps: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut answers = 0;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        answers = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, answers)
}

fn measure(people: usize, reps: usize) -> SizeRun {
    // Cache off: this driver measures evaluation, not cache hits (the
    // store_churn driver covers the cache).
    let store = Store::with_options(StoreOptions {
        cache_capacity: 0,
        ..StoreOptions::default()
    });
    let mut tx = store.begin();
    tx.insert_graph(&par::graph(people));
    store.commit(tx);
    let snapshot = store.snapshot();
    let engine = snapshot.engine();

    let queries: Vec<(&'static str, _)> = vec![
        ("union_ns", par::union_ns_query()),
        ("wide_union", par::wide_union_query()),
        ("spine", par::spine_query()),
    ];
    let mut out = Vec::new();
    for (name, q) in queries {
        let run = |opts: &ExecOpts, pool: &Pool| {
            engine
                .run(&q, opts, pool)
                .expect("unlimited budget cannot time out")
        };
        let seq_pool = Pool::sequential();
        let expected = run(&ExecOpts::seq(), &seq_pool).mappings;
        let (sequential_ms, answers) =
            time_ms(reps, || run(&ExecOpts::seq(), &seq_pool).mappings.len());
        let mut widths = Vec::new();
        for workers in [1usize, 2, 8] {
            let pool = Pool::new(workers);
            assert_eq!(
                run(&ExecOpts::parallel(), &pool).mappings,
                expected,
                "parallel answers diverged: {name} at {workers} workers"
            );
            let (ms, _) = time_ms(reps, || run(&ExecOpts::parallel(), &pool).mappings.len());
            widths.push((workers, ms, sequential_ms / ms));
        }
        // Tracing-overhead measurement (CI gate: traced stays within
        // 1.15x of untraced on these workloads): best-of-reps 8-worker
        // runs with the recorder disabled and enabled, so the ratio
        // isolates the recorder seam.
        let pool8 = Pool::new(8);
        let untraced_opts = ExecOpts::parallel();
        let traced_opts = ExecOpts::parallel().traced();
        let (columnar_untraced_ms, _) =
            time_ms(reps, || run(&untraced_opts, &pool8).mappings.len());
        let (columnar_traced_ms, _) = time_ms(reps, || run(&traced_opts, &pool8).mappings.len());
        // One instrumented 8-worker run (outside the timed loops) for
        // the per-operator breakdown embedded in the artifact.
        let traced = run(&traced_opts, &pool8);
        assert_eq!(traced.mappings, expected, "traced answers diverged: {name}");
        out.push(QueryRun {
            query: name,
            answers,
            sequential_ms,
            widths,
            columnar_untraced_ms,
            columnar_traced_ms,
            profile: traced.profile.expect("traced run has a profile"),
        });
    }
    SizeRun {
        people,
        triples: snapshot.len(),
        queries: out,
    }
}

fn main() -> std::io::Result<()> {
    let mut quick = false;
    let mut out_path = "BENCH_parallel.json".to_owned();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            out_path = arg;
        }
    }
    let (sizes, reps): (&[usize], usize) = if quick {
        (&[400, 1200], 3)
    } else {
        (&[1000, 3000], 5)
    };

    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // `hardware_threads` is what the container grants;
    // `owql_threads` is the OWQL_THREADS override (if any) that
    // `Pool::from_env` would honor — the two were previously conflated.
    let owql_threads = std::env::var("OWQL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let mut runs = Vec::new();
    for &people in sizes {
        let run = measure(people, reps);
        for q in &run.queries {
            let widths: Vec<String> = q
                .widths
                .iter()
                .map(|(w, ms, s)| format!("w{w}={ms:.1}ms ({s:.2}x)"))
                .collect();
            println!(
                "people={:5} {:11} answers={:6}  seq={:8.1}ms  {}  trace={:.2}x",
                run.people,
                q.query,
                q.answers,
                q.sequential_ms,
                widths.join("  "),
                q.columnar_traced_ms / q.columnar_untraced_ms.max(1e-9),
            );
        }
        runs.push(run);
    }

    let mut json = String::from("{\n  \"benchmark\": \"parallel_eval\",\n");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware},");
    match owql_threads {
        Some(n) => {
            let _ = writeln!(json, "  \"owql_threads\": {n},");
        }
        None => json.push_str("  \"owql_threads\": null,\n"),
    }
    let _ = writeln!(
        json,
        "  \"workload\": \"large-graph UNION/NS suite over the social graph; sequential = \
         sequential Engine::run, parallel = ExecMode::Parallel via the owql-exec pool, answers \
         cross-checked equal before timing; per-query profile = one traced 8-worker run\","
    );
    let _ = writeln!(
        json,
        "  \"spine_fix\": \"partitioned AND-spines now fall back to the sequential join below \
         2 chunks of MIN_BINDINGS_PER_CHUNK=4096 candidates (profiles showed chunk dealing + \
         per-chunk dedup dominating); before: spine w2/w8 speedups 0.956/0.875 (1000 people) \
         and 0.871/0.955 (3000 people)\","
    );
    json.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"people\": {}, \"triples\": {}, \"queries\": [",
            run.people, run.triples
        );
        for (j, q) in run.queries.iter().enumerate() {
            let _ = write!(
                json,
                "      {{\"query\": \"{}\", \"answers\": {}, \"sequential_ms\": {:.3}, \
                 \"workers\": [",
                q.query, q.answers, q.sequential_ms
            );
            for (k, (w, ms, s)) in q.widths.iter().enumerate() {
                let _ = write!(
                    json,
                    "{{\"workers\": {w}, \"ms\": {ms:.3}, \"speedup\": {s:.3}}}"
                );
                if k + 1 < q.widths.len() {
                    json.push_str(", ");
                }
            }
            let _ = write!(
                json,
                "],\n       \"columnar_untraced_ms\": {:.3}, \"columnar_traced_ms\": {:.3}, \
                 \"trace_overhead\": {:.3},",
                q.columnar_untraced_ms,
                q.columnar_traced_ms,
                q.columnar_traced_ms / q.columnar_untraced_ms.max(1e-9),
            );
            json.push_str("\n       \"profile\": {\"operators\": [");
            for (k, op) in q.profile.operators.iter().enumerate() {
                let _ = write!(
                    json,
                    "{{\"op\": \"{}\", \"count\": {}, \"rows_out\": {}}}",
                    op.kind, op.count, op.rows_out
                );
                if k + 1 < q.profile.operators.len() {
                    json.push_str(", ");
                }
            }
            let _ = write!(
                json,
                "], \"ns_candidates\": {}, \"ns_survivors\": {}, \"pool_chunks\": {}, \
                 \"pool_steals\": {}}}}}",
                q.profile.ns.candidates,
                q.profile.ns.survivors,
                q.profile.pool.chunks,
                q.profile.pool.steals
            );
            json.push_str(if j + 1 < run.queries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        json.push_str("    ]}");
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json)?;
    println!("wrote {out_path}");
    Ok(())
}
