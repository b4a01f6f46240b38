//! Integration tests for the Section 7 complexity reductions: each
//! hardness construction is exercised end to end — logic-side instance
//! → RDF instance → engine evaluation — against the DPLL oracle.

use owql::logic::coloring::{chromatic_number, UGraph};
use owql::logic::dpll::solve_formula;
use owql::logic::Formula;
use owql::theory::reduction::{bh, combine, construct_np, dp, pnp};

fn sat3(seed: u64) -> Formula {
    // A small pseudo-random 3-CNF over 3 variables.
    let lit = |v: usize, pos: bool| {
        if pos {
            Formula::var(v)
        } else {
            Formula::var(v).not()
        }
    };
    let mut s = seed;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as usize
    };
    Formula::conj((0..4).map(|_| Formula::disj((0..3).map(|_| lit(next() % 3, next() % 2 == 0)))))
}

/// Theorem 7.1 (DP-hardness): both engines decide SAT-UNSAT instances
/// correctly on a batch of random formula pairs.
#[test]
fn theorem_7_1_sat_unsat() {
    for seed in 0..12u64 {
        let phi = sat3(seed);
        let psi = sat3(seed + 100);
        let expected = solve_formula(&phi).is_sat() && !solve_formula(&psi).is_sat();
        let inst = dp::sat_unsat_instance(&phi, &psi, &format!("it71_{seed}"));
        assert_eq!(inst.instance.decide(), expected, "seed {seed}");
        assert_eq!(inst.instance.decide_indexed(), Ok(expected), "seed {seed}");
    }
}

/// Theorem 7.2 (BH-hardness shape): chromatic-number membership through
/// USP–SPARQL patterns, cross-checked against the SAT-based chromatic
/// number computation.
#[test]
fn theorem_7_2_chromatic_membership() {
    // Instance sizes are chosen so that the largest coloring encoding
    // stays ≤ 15 propositional variables — the pattern-evaluation cost
    // is 2^vars (that exponential *is* the BH-hardness phenomenon, so
    // bigger instances belong to the benchmark harness, not the test
    // suite).
    let graphs = [
        UGraph::cycle(4),    // χ = 2
        UGraph::cycle(5),    // χ = 3
        UGraph::complete(3), // χ = 3
        UGraph::new(3),      // χ = 1
    ];
    for (i, h) in graphs.iter().enumerate() {
        let chi = chromatic_number(h);
        for ms in [vec![2], vec![3], vec![1, 3]] {
            let expected = ms.contains(&chi);
            let inst = bh::chromatic_in_set_instance(h, &ms, &format!("it72_{i}_{ms:?}"));
            assert_eq!(inst.decide(), expected, "graph {i} (χ={chi}), M={ms:?}");
            assert_eq!(inst.pattern.disjuncts().len(), ms.len());
        }
    }
}

/// Theorem 7.3 (PNP‖-hardness shape): MAX-ODD-SAT through ns-patterns
/// with unboundedly many disjuncts.
#[test]
fn theorem_7_3_max_odd_sat() {
    let cases: Vec<(Formula, usize)> = vec![
        (Formula::var(0).and(Formula::var(1).not()), 2),
        (Formula::var(0).or(Formula::var(1)), 2),
        (Formula::var(0).and(Formula::var(1)).and(Formula::var(2)), 4),
        (Formula::True, 4),
        (Formula::var(0).not(), 2),
    ];
    for (i, (phi, m)) in cases.into_iter().enumerate() {
        let expected = pnp::is_max_odd_sat(&phi, m);
        let inst = pnp::max_odd_sat_instance(&phi, m, &format!("it73_{i}"));
        assert_eq!(inst.decide(), expected, "case {i}: {phi} over {m} vars");
    }
}

/// Theorem 7.4 (NP-hardness of CONSTRUCT[AUF] evaluation).
#[test]
fn theorem_7_4_construct() {
    for seed in 0..12u64 {
        let phi = sat3(seed + 500);
        let inst = construct_np::sat_construct_instance(&phi, &format!("it74_{seed}"));
        assert_eq!(inst.decide(), solve_formula(&phi).is_sat(), "seed {seed}");
    }
}

/// Lemma H.1 at integration scale: combine heterogeneous instances
/// (a DP instance + chromatic instances) into one USP pattern.
#[test]
fn lemma_h_1_heterogeneous_combination() {
    let yes_dp = dp::sat_unsat_instance(
        &Formula::var(0),
        &Formula::var(0).and(Formula::var(0).not()),
        "ith1_yes",
    )
    .instance;
    let no_dp = dp::sat_unsat_instance(&Formula::var(0), &Formula::var(0), "ith1_no").instance;

    // Both no → no; flipping one component flips the disjunction.
    let no_no = combine::combine(&[no_dp.clone(), no_dp.clone()]);
    assert!(!no_no.decide());
    let yes_no = combine::combine(&[yes_dp.clone(), no_dp]);
    assert!(yes_no.decide());
    // A bigger union including a chromatic component.
    let chrom = bh::chromatic_in_set_instance(&UGraph::cycle(4), &[3], "ith1_chrom");
    assert!(!chrom.decide());
    // Note: combine() requires simple-pattern components; the chromatic
    // instance is already a (one-disjunct) combination, so recombining
    // it is out of scope here — we only check it coexists vocabulary-
    // disjointly with the others.
    assert!(chrom.graph.iris_disjoint_from(&yes_dp.graph));
}

/// The evaluation-hardness phenomenon made measurable: deciding a SAT
/// instance through the reduction costs time exponential in the
/// variable count (sanity check of the growth direction only).
#[test]
fn reduction_cost_grows_with_variables() {
    use std::time::Instant;
    let mut last = 0u128;
    for n in [4usize, 8, 12] {
        // φ = x0 ∨ x1 (always SAT), padded to n variables.
        let inst = owql::theory::reduction::sat_gadget::sat_gadget(
            &Formula::var(0).or(Formula::var(1)),
            n,
            &format!("itcost{n}"),
        );
        let start = Instant::now();
        assert!(inst.eval_instance().decide());
        let elapsed = start.elapsed().as_nanos();
        assert!(elapsed > last / 64, "unexpected non-growth at n={n}");
        last = elapsed;
    }
}
