//! The experiment driver: regenerates every figure, example table, and
//! complexity-landscape measurement of the paper (experiment index in
//! DESIGN.md; results recorded in EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p owql-bench --bin experiments [e1|e2|...|e12|all]`

use owql_algebra::construct::example_6_1;
use owql_algebra::pattern::Pattern;
use owql_algebra::well_designed::well_designed_aof;
use owql_bench::{campus, fragment_suite, opt_ns_pairs, social};
use owql_eval::{construct, evaluate, Engine, ExecOpts};
use owql_exec::Pool;

/// Sequential evaluation through the unified entry point.
fn eval_seq(engine: &Engine, p: &owql_algebra::Pattern) -> owql_algebra::MappingSet {
    engine
        .run(p, &ExecOpts::seq(), &Pool::sequential())
        .expect("unlimited budget cannot time out")
        .mappings
}
use owql_algebra::pattern_tree::wd_to_simple;
use owql_logic::coloring::{chromatic_number, UGraph};
use owql_logic::dpll::solve_formula;
use owql_logic::Formula;
use owql_parser::parse_pattern;
use owql_rdf::{datasets, ntriples};
use owql_theory::checks::{self, CheckOptions};
use owql_theory::reduction::{bh, construct_np, dp, pnp, sat_gadget};
use owql_theory::rewrite::ns_elimination::blowup_series;
use owql_theory::synthesis::{synthesize_aufs, SynthesisOptions, SynthesisOutcome};
use owql_theory::witness;
use std::time::Instant;

fn header(id: &str, title: &str) {
    println!("\n════════════════════════════════════════════════════════════════");
    println!("{id}: {title}");
    println!("════════════════════════════════════════════════════════════════");
}

fn print_mappings(title: &str, set: &owql_algebra::MappingSet) {
    println!("{title} ({} rows)", set.len());
    for m in set.iter_sorted() {
        println!("    {m}");
    }
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// E1 — Figure 1 + Example 2.2.
fn e1() {
    header("E1", "Figure 1 and Example 2.2 (founders/supporters query)");
    let g = datasets::figure_1();
    println!("Figure 1 graph:\n{}", ntriples::write(&g));
    let engine = Engine::new(&g);
    print_mappings(
        "⟦(?o, stands_for, sharing_rights)⟧G:",
        &eval_seq(
            &engine,
            &parse_pattern("(?o, stands_for, sharing_rights)").unwrap(),
        ),
    );
    print_mappings(
        "⟦(?p, founder, ?o)⟧G:",
        &eval_seq(&engine, &parse_pattern("(?p, founder, ?o)").unwrap()),
    );
    print_mappings(
        "⟦(?p, supporter, ?o)⟧G:",
        &eval_seq(&engine, &parse_pattern("(?p, supporter, ?o)").unwrap()),
    );
    print_mappings(
        "⟦(?p, founder, ?o) UNION (?p, supporter, ?o)⟧G:",
        &eval_seq(
            &engine,
            &parse_pattern("((?p, founder, ?o) UNION (?p, supporter, ?o))").unwrap(),
        ),
    );
    let full = parse_pattern(
        "(SELECT {?p} WHERE ((?o, stands_for, sharing_rights) AND \
          ((?p, founder, ?o) UNION (?p, supporter, ?o))))",
    )
    .unwrap();
    print_mappings("final SELECT {?p} table:", &eval_seq(&engine, &full));
}

/// E2 — Figure 2 + Example 3.1.
fn e2() {
    header(
        "E2",
        "Figure 2 and Example 3.1 (OPT: not monotone, weakly monotone)",
    );
    let p = parse_pattern("((?X, was_born_in, Chile) OPT (?X, email, ?Y))").unwrap();
    let g1 = datasets::figure_2_g1();
    let g2 = datasets::figure_2_g2();
    let out1 = evaluate(&p, &g1);
    let out2 = evaluate(&p, &g2);
    print_mappings("⟦P⟧G1:", &out1);
    print_mappings("⟦P⟧G2:", &out2);
    println!("⟦P⟧G1 ⊆ ⟦P⟧G2 (monotone)?        {}", out1.subset_of(&out2));
    println!(
        "⟦P⟧G1 ⊑ ⟦P⟧G2 (weakly monotone)? {}",
        out1.subsumed_by(&out2)
    );
    let wm = checks::weakly_monotone(&p, &CheckOptions::default());
    println!("bounded weak-monotonicity check: {wm:?}");
}

/// E3 — Example 3.3.
fn e3() {
    header(
        "E3",
        "Example 3.3 (weak-monotonicity failure + well-designedness violation)",
    );
    let p = parse_pattern(
        "((?X, was_born_in, Chile) AND ((?Y, was_born_in, Chile) OPT (?Y, email, ?X)))",
    )
    .unwrap();
    print_mappings("⟦P⟧G1:", &evaluate(&p, &datasets::figure_2_g1()));
    print_mappings("⟦P⟧G2:", &evaluate(&p, &datasets::figure_2_g2()));
    println!("well designed? {:?}", well_designed_aof(&p));
    println!(
        "bounded weak-monotonicity check: refuted = {}",
        !checks::weakly_monotone(&p, &CheckOptions::default()).holds()
    );
}

/// E4 — Theorem 3.5 witness.
fn e4() {
    header(
        "E4",
        "Theorem 3.5 witness (weakly monotone beyond well-designedness)",
    );
    let p = witness::theorem_3_5_pattern();
    println!("P = {p}");
    println!("well designed? {:?}", well_designed_aof(&p));
    print_mappings(
        "⟦P⟧{(a,b,c),(l,d,e)}:",
        &evaluate(&p, &witness::theorem_3_5_g1()),
    );
    print_mappings(
        "⟦P⟧{(a,b,c),(l,f,g)}:",
        &evaluate(&p, &witness::theorem_3_5_g2()),
    );
    print_mappings("⟦P⟧{(a,b,c)}:", &evaluate(&p, &witness::theorem_3_5_g()));
    let wm = checks::weakly_monotone(&p, &CheckOptions::default());
    println!("bounded weak-monotonicity check: {wm:?}");
    let sp = witness::theorem_3_5_sp_equivalent();
    println!("Corollary 5.5: exact SP-SPARQL equivalent:\n  {sp}");
}

/// E5 — Theorem 3.6 witness.
fn e5() {
    header(
        "E5",
        "Theorem 3.6 witness (escapes unions of well-designed patterns)",
    );
    let p = witness::theorem_3_6_pattern();
    println!("P = {p}");
    let [g1, g2, g3, g4] = witness::theorem_3_6_graphs();
    for (name, g) in [("G1", &g1), ("G2", &g2), ("G3", &g3), ("G4", &g4)] {
        print_mappings(&format!("⟦P⟧{name}:"), &evaluate(&p, g));
    }
    println!(
        "answers over G4 pairwise incompatible (Prop B.1 for AOF)? {}",
        checks::answers_pairwise_incompatible(&p, &g4)
    );
    println!(
        "bounded weak-monotonicity check holds: {}",
        checks::weakly_monotone(&p, &CheckOptions::default()).holds()
    );
    let sp = witness::theorem_3_6_sp_equivalent();
    println!("exact SP-SPARQL equivalent (one NS suffices):\n  {sp}");
}

/// E6 — FO translation cross-validation.
fn e6() {
    header(
        "E6",
        "Lemmas C.1/C.2: SPARQL→FO translation cross-validation",
    );
    use owql_theory::fo::translate::{evaluate_via_fo, translate_pattern};
    let samples = [
        "((?X, was_born_in, Chile) OPT (?X, email, ?Y))",
        "NS(((?x, a, b) UNION ((?x, a, b) AND (?x, c, ?y))))",
        "(SELECT {?x} WHERE ((?x, a, ?y) AND (?y, b, ?z)))",
    ];
    println!("{:<64} {:>9} {:>8}", "pattern", "|φ_P|", "agree");
    for text in samples {
        let p = parse_pattern(text).unwrap();
        let phi = translate_pattern(&p);
        let g = owql_rdf::generate::uniform(8, 3, 3, 3, 1).union(&datasets::figure_2_g2());
        let agree = evaluate_via_fo(&p, &g) == evaluate(&p, &g);
        println!("{:<64} {:>9} {:>8}", text, phi.size(), agree);
    }
}

/// E7 — NS elimination blowup (Theorem 5.1).
fn e7() {
    header(
        "E7",
        "Theorem 5.1: NS-elimination size blowup (nested-NS family)",
    );
    println!(
        "{:>6} {:>12} {:>14} {:>16}",
        "depth", "input size", "output size", "desugared size"
    );
    for pt in blowup_series(4) {
        println!(
            "{:>6} {:>12} {:>14} {:>16}",
            pt.depth, pt.input_size, pt.output_size, pt.desugared_size
        );
    }
    println!("(sizes are AST node counts; growth is super-exponential in depth)");
}

/// E8 — Proposition 5.6: well-designed → simple patterns.
fn e8() {
    header(
        "E8",
        "Proposition 5.6: well-designed patterns as single-NS simple patterns",
    );
    let samples = [
        "((?p, was_born_in, Chile) OPT (?p, email, ?e))",
        "(((?p, name, ?n) OPT (?p, email, ?e)) OPT (?p, was_born_in, ?c))",
        "((?p, name, ?n) OPT ((?p, email, ?e) OPT (?p, follows, ?f)))",
    ];
    let g = social(150);
    let engine = Engine::new(&g);
    println!(
        "{:<66} {:>9} {:>10} {:>7}",
        "well-designed input", "disjuncts", "same ans", "answers"
    );
    for text in samples {
        let p = parse_pattern(text).unwrap();
        let simple = wd_to_simple(&p).expect("well designed");
        let Pattern::Ns(inner) = &simple else {
            unreachable!()
        };
        let same = eval_seq(&engine, &p) == eval_seq(&engine, &simple);
        println!(
            "{:<66} {:>9} {:>10} {:>7}",
            text,
            inner.disjuncts().len(),
            same,
            eval_seq(&engine, &p).len()
        );
    }
}

/// E9 — Figures 3/4 + Example 6.1.
fn e9() {
    header("E9", "Figures 3/4 and Example 6.1 (CONSTRUCT)");
    let q = example_6_1();
    let g = datasets::figure_3();
    println!("Q = {q}\n");
    print_mappings(
        "⟦pattern of Q⟧Figure3 (the µ1/µ2/µ3 table):",
        &evaluate(&q.pattern, &g),
    );
    let out = construct(&q, &g);
    println!(
        "\nans(Q, Figure 3) — the Figure 4 graph:\n{}",
        ntriples::write(&out)
    );
    println!(
        "matches Figure 4 exactly: {}",
        out == datasets::figure_4_expected()
    );
}

/// E10 — Lemma 6.3 + Proposition 6.7.
fn e10() {
    header(
        "E10",
        "Lemma 6.3 (NS invariance) and Proposition 6.7 (SELECT-free CONSTRUCT)",
    );
    use owql_theory::rewrite::construct_core::with_ns_pattern;
    use owql_theory::rewrite::select_free::construct_select_free;
    let g = campus(200);
    let q = example_6_1();
    let ns_same = construct(&q, &g) == construct(&with_ns_pattern(&q), &g);
    println!(
        "Lemma 6.3 on Example 6.1 over a {}-triple campus graph: equal = {ns_same}",
        g.len()
    );

    let aufs = owql_parser::parse_construct(
        "CONSTRUCT {(?u, employs, ?n)} WHERE \
         (SELECT {?u, ?n} WHERE ((?p, works_at, ?u) AND (?p, name, ?n)))",
    )
    .unwrap();
    let auf = construct_select_free(&aufs);
    println!(
        "Prop 6.7: AUFS query → AUF query; fragment(AUF) = {}, outputs equal = {}",
        auf.in_fragment(owql_algebra::analysis::Operators::AUF),
        construct(&aufs, &g) == construct(&auf, &g)
    );
}

/// E11 — the complexity landscape, empirically.
fn e11() {
    header("E11", "Section 7: hardness reductions, verified and timed");

    // Theorem 7.1 (DP): SAT-UNSAT instances with growing variable count.
    println!("Theorem 7.1 — Eval(SP–SPARQL), SAT-UNSAT instances:");
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>10}",
        "vars", "graph", "pattern", "decide (ms)", "answer"
    );
    for n in [4usize, 6, 8, 10, 12] {
        // φ = parity-ish satisfiable chain; ψ = contradiction padded to n vars.
        let phi = Formula::conj((0..n - 1).map(|i| Formula::var(i).or(Formula::var(i + 1))));
        let psi = Formula::var(0)
            .and(Formula::var(0).not())
            .and(Formula::conj((0..n).map(Formula::var)));
        let inst = dp::sat_unsat_instance(&phi, &psi, &format!("e11dp{n}"));
        let (answer, ms) = time_ms(|| inst.instance.decide());
        println!(
            "{:>6} {:>8} {:>10} {:>12.2} {:>10}",
            n,
            inst.instance.graph.len(),
            inst.instance.pattern.size(),
            ms,
            answer
        );
        assert!(answer, "oracle: φ sat, ψ unsat");
    }

    // Theorem 7.2 (BH2k): chromatic membership.
    println!("\nTheorem 7.2 — Eval(USP–SPARQLk), chromatic-number membership:");
    println!(
        "{:>18} {:>4} {:>10} {:>9} {:>12} {:>7}",
        "graph", "χ", "M", "disjuncts", "decide (ms)", "answer"
    );
    let cases: Vec<(&str, UGraph, Vec<usize>)> = vec![
        ("C4", UGraph::cycle(4), vec![2]),
        ("C5", UGraph::cycle(5), vec![3]),
        ("C5", UGraph::cycle(5), vec![2, 3]),
        ("K3", UGraph::complete(3), vec![1, 3]),
        (
            "K3+K1 (disjoint)",
            UGraph::complete(3).disjoint_union(&UGraph::new(1)),
            vec![3],
        ),
    ];
    for (name, h, ms_set) in cases {
        let chi = chromatic_number(&h);
        let inst = bh::chromatic_in_set_instance(&h, &ms_set, &format!("e11bh_{name}_{ms_set:?}"));
        let (answer, ms) = time_ms(|| inst.decide());
        println!(
            "{:>18} {:>4} {:>10} {:>9} {:>12.2} {:>7}",
            name,
            chi,
            format!("{ms_set:?}"),
            inst.pattern.disjuncts().len(),
            ms,
            answer
        );
        assert_eq!(answer, ms_set.contains(&chi));
    }
    println!("  (paper's literal M1 = {:?} instance built structurally; evaluation is 2^(7|V|) — the point)", bh::m_k(1));

    // Theorem 7.3 (PNP||): MAX-ODD-SAT.
    println!("\nTheorem 7.3 — Eval(USP–SPARQL), MAX-ODD-SAT instances:");
    println!(
        "{:>30} {:>4} {:>9} {:>12} {:>7} {:>7}",
        "φ", "m", "disjuncts", "decide (ms)", "answer", "oracle"
    );
    let cases: Vec<(Formula, usize)> = vec![
        (Formula::var(0).and(Formula::var(1).not()), 2),
        (Formula::var(0).or(Formula::var(1)), 2),
        (
            Formula::var(0).and(Formula::var(1).not().or(Formula::var(2).not())),
            4,
        ),
        (Formula::conj((0..3).map(Formula::var)), 4),
    ];
    for (phi, m) in cases {
        let oracle = pnp::is_max_odd_sat(&phi, m);
        let inst =
            pnp::max_odd_sat_instance(&phi, m, &format!("e11mos{m}_{}", phi.to_string().len()));
        let (answer, ms) = time_ms(|| inst.decide());
        println!(
            "{:>30} {:>4} {:>9} {:>12.2} {:>7} {:>7}",
            phi.to_string(),
            m,
            inst.pattern.disjuncts().len(),
            ms,
            answer,
            oracle
        );
        assert_eq!(answer, oracle);
    }

    // Theorem 7.4 (NP): CONSTRUCT[AUF].
    println!("\nTheorem 7.4 — Eval(CONSTRUCT[AUF]), SAT instances:");
    println!(
        "{:>6} {:>12} {:>7} {:>7}",
        "vars", "decide (ms)", "answer", "oracle"
    );
    for n in [4usize, 8, 12, 14] {
        let phi = Formula::conj((0..n - 1).map(|i| Formula::var(i).or(Formula::var(i + 1).not())));
        let oracle = solve_formula(&phi).is_sat();
        let inst = construct_np::sat_construct_instance(&phi, &format!("e11cn{n}"));
        let (answer, ms) = time_ms(|| inst.decide());
        println!("{:>6} {:>12.2} {:>7} {:>7}", n, ms, answer, oracle);
        assert_eq!(answer, oracle);
    }

    // The exponential wall itself.
    println!("\nExponential evaluation cost of the SAT gadget (the hardness, measured):");
    println!("{:>6} {:>14} {:>12}", "vars", "assignments", "eval (ms)");
    for n in [8usize, 10, 12, 14, 16] {
        let g =
            sat_gadget::sat_gadget(&Formula::var(0).or(Formula::var(1)), n, &format!("e11w{n}"));
        let (out, ms) = time_ms(|| evaluate(&g.sat_pattern, &g.graph));
        println!("{:>6} {:>14} {:>12.2}", n, out.len(), ms);
    }
}

/// E12 — OPT vs NS and engine ablations on workloads.
fn e12() {
    header(
        "E12",
        "Section 8 future work: OPT vs NS in practice + engine ablation",
    );
    println!("OPT vs NS (indexed engine), social graphs:");
    println!(
        "{:>8} {:>8} {:>18} {:>12} {:>12} {:>8}",
        "people", "triples", "query", "OPT (ms)", "NS (ms)", "answers"
    );
    for people in [100usize, 400, 1600] {
        let g = social(people);
        let engine = Engine::new(&g);
        for (name, opt, ns) in opt_ns_pairs() {
            let (out_opt, t_opt) = time_ms(|| eval_seq(&engine, &opt));
            let (out_ns, t_ns) = time_ms(|| eval_seq(&engine, &ns));
            assert_eq!(out_opt, out_ns);
            println!(
                "{:>8} {:>8} {:>18} {:>12.2} {:>12.2} {:>8}",
                people,
                g.len(),
                name,
                t_opt,
                t_ns,
                out_opt.len()
            );
        }
    }

    println!("\nEngine ablation (reference scan vs indexed engine), fragment suite:");
    println!(
        "{:>8} {:>26} {:>14} {:>14} {:>8}",
        "triples", "fragment", "reference (ms)", "indexed (ms)", "answers"
    );
    for people in [200usize, 800] {
        let g = social(people);
        let engine = Engine::new(&g);
        for (name, p) in fragment_suite() {
            let (out_ref, t_ref) = time_ms(|| evaluate(&p, &g));
            let (out_idx, t_idx) = time_ms(|| eval_seq(&engine, &p));
            assert_eq!(out_ref, out_idx);
            println!(
                "{:>8} {:>26} {:>14.2} {:>14.2} {:>8}",
                g.len(),
                name,
                t_ref,
                t_idx,
                out_idx.len()
            );
        }
    }

    println!("\nTheorem 4.1 synthesis (bounded) on the audit patterns:");
    for text in [
        "((?X, was_born_in, Chile) OPT (?X, email, ?Y))",
        "((?X, a, b) OPT ((?X, c, ?Y) UNION (?X, d, ?Z)))",
    ] {
        let p = parse_pattern(text).unwrap();
        match synthesize_aufs(&p, &SynthesisOptions::default()) {
            SynthesisOutcome::Found {
                pattern,
                graphs_tested,
            } => {
                println!("  {text}\n    ≡s {pattern}   [{graphs_tested} test graphs]");
            }
            SynthesisOutcome::NotFound => {
                println!("  {text}\n    (no bounded AUF equivalent found)")
            }
        }
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let experiments: Vec<(&str, fn())> = vec![
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
    ];
    let mut ran = false;
    for (id, f) in &experiments {
        if arg == "all" || arg == *id {
            f();
            ran = true;
        }
    }
    if !ran {
        eprintln!("unknown experiment {arg:?}; use e1..e12 or all");
        std::process::exit(1);
    }
}
