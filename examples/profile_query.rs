//! Profiling a query end to end: EXPLAIN ANALYZE with observed
//! per-operator cardinalities and wall times, then the unified JSON
//! profile (operator totals, NS pruning, pool workers, store/cache
//! counters) that CI archives as an artifact.
//!
//! Run with: `cargo run --release --example profile_query [out.json]`
//! — an optional argument writes the JSON profile to that path.

use owql::prelude::*;
use std::fmt::Write as _;

fn main() {
    // ------------------------------------------------------------------
    // 1. A store holding a social-network-ish world: a follow chain
    //    with emails on every other member.
    // ------------------------------------------------------------------
    let store = Store::new();
    let mut tx = store.begin();
    for i in 0..500u32 {
        let s = format!("user{i}");
        let o = format!("user{}", (i + 1) % 500);
        tx.insert(Triple::new(s.as_str(), "follows", o.as_str()));
        if i % 2 == 0 {
            let mail = format!("u{i}@example.org");
            tx.insert(Triple::new(s.as_str(), "email", mail.as_str()));
        }
    }
    store.commit(tx);

    // The paper's signature shape: NS over "chain, optionally with an
    // email" — maximal answers instead of OPT.
    let p = parse_pattern(
        "NS((((?a, follows, ?b) AND (?b, follows, ?c)) UNION \
            (((?a, follows, ?b) AND (?b, follows, ?c)) AND (?a, email, ?e))))",
    )
    .unwrap();

    // ------------------------------------------------------------------
    // 2. EXPLAIN vs EXPLAIN ANALYZE: EXPLAIN is the plan a run executes
    //    (step order, access paths, estimates); EXPLAIN ANALYZE runs it
    //    and prints what each operator observed next to the estimates.
    // ------------------------------------------------------------------
    let snapshot = store.snapshot();
    println!("EXPLAIN (the plan, estimated):");
    println!("{}", snapshot.engine().explain(&p).expect("narrow pattern"));
    println!("{}", snapshot.explain_analyze(&p).expect("narrow pattern"));

    // ------------------------------------------------------------------
    // 3. The unified profile: run once through the cache to give the
    //    report cache traffic, then profile (uncached, instrumented).
    // ------------------------------------------------------------------
    store.query(&p);
    store.query(&p);
    let pool = Pool::from_env();
    let out = store
        .query_request(
            &QueryRequest::with_opts(p.clone(), ExecOpts::parallel().uncached().traced()),
            &pool,
        )
        .expect("unlimited budget cannot time out");
    let (answers, profile) = (out.mappings, out.profile.expect("traced run has a profile"));
    println!("{} answers at epoch {}.\n", answers.len(), out.epoch);

    let mut summary = String::new();
    for op in &profile.operators {
        let _ = write!(
            summary,
            "{} x{} ({} rows)  ",
            op.kind, op.count, op.rows_out
        );
    }
    println!("Operator totals (slowest kind first): {summary}");
    println!(
        "NS pruning: {} candidates -> {} maximal ({:.1}% pruned)",
        profile.ns.candidates,
        profile.ns.survivors,
        100.0 * profile.ns.pruned_fraction()
    );
    println!(
        "Pool: {} inline / {} parallel maps, {} chunks, {} steals, {} worker reports",
        profile.pool.inline_maps,
        profile.pool.parallel_maps,
        profile.pool.chunks,
        profile.pool.steals,
        profile.pool.workers.len()
    );

    // ------------------------------------------------------------------
    // 4. The JSON report — hand CI (or a human) the whole picture.
    // ------------------------------------------------------------------
    let json = profile.to_json();
    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &json).expect("write profile");
            println!("\nProfile written to {path}");
        }
        None => println!("\n{json}"),
    }
}
