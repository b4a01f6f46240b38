//! A monotonicity audit tool: classify a batch of queries the way the
//! paper classifies fragments.
//!
//! For each query the audit reports:
//!
//! * its operator fragment (`SPARQL[AOF]`, `SPARQL[AUFS]`, …),
//! * whether it is well designed (Definition 3.4),
//! * bounded-exhaustive verdicts for monotonicity, weak monotonicity,
//!   and subsumption-freeness (Sections 3 and 5),
//! * for well-designed queries, the Proposition 5.6 compilation into a
//!   simple pattern `NS(UNION of CQs)`,
//! * for weakly-monotone queries, an attempted Theorem 4.1 synthesis
//!   of a subsumption-equivalent `SPARQL[AUF]` pattern.
//!
//! Run with: `cargo run --example monotonicity_audit`

use owql::algebra::analysis::operators;
use owql::algebra::pattern_tree::wd_to_simple;
use owql::algebra::well_designed::well_designed_aof;
use owql::prelude::*;
use owql::theory::checks::{monotone, subsumption_free, weakly_monotone, CheckOptions};
use owql::theory::synthesis::{synthesize_aufs, SynthesisOptions, SynthesisOutcome};

fn audit(name: &str, text: &str, opts: &CheckOptions) {
    let p = parse_pattern(text).expect("audit input must parse");
    println!("── {name}");
    println!("   {p}");
    println!("   fragment: SPARQL{:?}", operators(&p));
    match well_designed_aof(&p) {
        Ok(()) => println!("   well designed: yes"),
        Err(v) => println!("   well designed: no ({v})"),
    }
    let wm = weakly_monotone(&p, opts);
    let mono = monotone(&p, opts);
    let sf = subsumption_free(&p, opts);
    let verdict = |r: &owql::theory::checks::CheckResult| {
        if r.holds() {
            "holds (bounded)".to_string()
        } else {
            "REFUTED".to_string()
        }
    };
    println!("   monotone: {}", verdict(&mono));
    println!("   weakly monotone: {}", verdict(&wm));
    println!("   subsumption-free: {}", verdict(&sf));

    if let Ok(simple) = wd_to_simple(&p) {
        println!("   Prop 5.6 simple form: {simple}");
    }
    if wm.holds() {
        match synthesize_aufs(&p, &SynthesisOptions::default()) {
            SynthesisOutcome::Found {
                pattern,
                graphs_tested,
            } => {
                println!("   Thm 4.1 AUF equivalent (≡s, {graphs_tested} test graphs): {pattern}");
            }
            SynthesisOutcome::NotFound => {
                println!("   Thm 4.1 synthesis: no equivalent found in the bounded pool");
            }
        }
    }
    println!();
}

fn main() {
    let opts = CheckOptions {
        universe_size: 8,
        random_graphs: 15,
        random_graph_size: 10,
        ..CheckOptions::default()
    };

    println!("Monotonicity audit — the paper's example patterns\n");

    audit(
        "Example 3.1 (well-designed OPT)",
        "((?X, was_born_in, Chile) OPT (?X, email, ?Y))",
        &opts,
    );
    audit(
        "Example 3.3 (the ill-designed correlation)",
        "((?X, was_born_in, Chile) AND ((?Y, was_born_in, Chile) OPT (?Y, email, ?X)))",
        &opts,
    );
    audit(
        "Theorem 3.5 witness (weakly monotone, beyond well-designed)",
        "((((a, b, c) OPT (?X, d, e)) OPT (?Y, f, g)) FILTER (bound(?X) || bound(?Y)))",
        &opts,
    );
    audit(
        "Theorem 3.6 witness (UNION under OPT)",
        "((?X, a, b) OPT ((?X, c, ?Y) UNION (?X, d, ?Z)))",
        &opts,
    );
    audit(
        "A monotone SPARQL[AUF] query",
        "(((?p, founder, ?o) UNION (?p, supporter, ?o)) FILTER bound(?p))",
        &opts,
    );
    audit(
        "A simple pattern (SP–SPARQL)",
        "NS(((?x, a, b) UNION ((?x, a, b) AND (?x, c, ?y))))",
        &opts,
    );
    audit(
        "Closed-world negation (bound-based NOT EXISTS)",
        "(((?x, a, b) OPT (?x, c, ?y)) FILTER !(bound(?y)))",
        &opts,
    );
}
