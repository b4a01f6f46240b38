//! Theorem 7.1: SAT-UNSAT ≤ₚ Eval(SP–SPARQL).
//!
//! **SAT-UNSAT** is the canonical DP-complete problem: given a pair
//! `(φ, ψ)` of propositional formulas, decide whether `φ` is
//! satisfiable *and* `ψ` is unsatisfiable.
//!
//! Following the Appendix G proof, the instance is
//!
//! ```text
//! P = NS(P_φ UNION (P_φ AND P_ψ)),    G = G_φ ∪ G_ψ,    µ = µ_φ
//! ```
//!
//! with `(P_φ, G_φ, µ_φ)` and `(P_ψ, G_ψ, µ_ψ)` vocabulary-disjoint SAT
//! gadgets. The three cases:
//!
//! * `φ` unsat → `⟦P_φ⟧G = ∅` → `µ_φ ∉ ⟦P⟧G`;
//! * `φ` sat, `ψ` sat → `µ_φ ∪ µ_ψ ∈ ⟦P_φ AND P_ψ⟧G` properly subsumes
//!   `µ_φ`, so NS removes it → `µ_φ ∉ ⟦P⟧G`;
//! * `φ` sat, `ψ` unsat → `⟦P⟧G = {µ_φ}` → `µ_φ ∈ ⟦P⟧G`. ∎
//!
//! `P` is a *simple pattern* (`NS` over a `SPARQL[AUFS]` body), so this
//! witnesses DP-hardness of `Eval(SP–SPARQL)`.

use super::sat_gadget::{sat_gadget, SatGadget};
use super::EvalInstance;
use owql_logic::Formula;

/// The two gadgets plus the combined DP instance.
#[derive(Clone, Debug)]
pub struct DpInstance {
    /// Gadget for the satisfiability half.
    pub phi: SatGadget,
    /// Gadget for the unsatisfiability half.
    pub psi: SatGadget,
    /// The combined instance: `µ_φ ∈ ⟦P⟧G` iff `(φ, ψ) ∈ SAT-UNSAT`.
    pub instance: EvalInstance,
}

/// Builds the Theorem 7.1 reduction instance for `(φ, ψ)`.
///
/// `tag` namespaces the construction so several instances can coexist
/// (as Lemma H.1 requires).
pub fn sat_unsat_instance(phi: &Formula, psi: &Formula, tag: &str) -> DpInstance {
    let g_phi = sat_gadget(phi, phi.num_vars(), &format!("{tag}_phi"));
    let g_psi = sat_gadget(psi, psi.num_vars(), &format!("{tag}_psi"));
    let p_phi = g_phi.collapsed.clone();
    let p_psi = g_psi.collapsed.clone();
    let pattern = p_phi.clone().union(p_phi.and(p_psi)).ns();
    let instance = EvalInstance {
        graph: g_phi.graph.union(&g_psi.graph),
        pattern,
        mapping: g_phi.mapping.clone(),
    };
    DpInstance {
        phi: g_phi,
        psi: g_psi,
        instance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_algebra::analysis::{in_fragment, Operators};
    use owql_algebra::Pattern;
    use owql_logic::dpll::solve_formula;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sat() -> Formula {
        Formula::var(0).or(Formula::var(1))
    }

    fn unsat() -> Formula {
        Formula::var(0).and(Formula::var(0).not())
    }

    #[test]
    fn all_four_sat_unsat_cases() {
        let cases = [
            (sat(), unsat(), true),
            (sat(), sat(), false),
            (unsat(), unsat(), false),
            (unsat(), sat(), false),
        ];
        for (i, (phi, psi, expected)) in cases.into_iter().enumerate() {
            let inst = sat_unsat_instance(&phi, &psi, &format!("dp{i}"));
            assert_eq!(inst.instance.decide(), expected, "case {i}");
            assert_eq!(
                inst.instance.decide_indexed(),
                Ok(expected),
                "case {i} (indexed)"
            );
        }
    }

    #[test]
    fn pattern_is_a_simple_pattern() {
        let inst = sat_unsat_instance(&sat(), &unsat(), "dpsimple");
        match &inst.instance.pattern {
            Pattern::Ns(inner) => assert!(in_fragment(inner, Operators::AUFS)),
            other => panic!("expected NS(...), got {other}"),
        }
    }

    #[test]
    fn gadget_vocabularies_are_disjoint() {
        let inst = sat_unsat_instance(&sat(), &sat(), "dpdisj");
        assert!(inst.phi.graph.iris_disjoint_from(&inst.psi.graph));
    }

    /// Randomized end-to-end verification against the DPLL oracle.
    #[test]
    fn random_formulas_match_oracle() {
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..25 {
            let phi = random_formula(&mut rng, 2, 3);
            let psi = random_formula(&mut rng, 2, 3);
            let expected = solve_formula(&phi).is_sat() && !solve_formula(&psi).is_sat();
            let inst = sat_unsat_instance(&phi, &psi, &format!("dpr{round}"));
            assert_eq!(inst.instance.decide(), expected, "φ = {phi}, ψ = {psi}");
        }
    }

    fn random_formula(rng: &mut StdRng, depth: usize, vars: usize) -> Formula {
        if depth == 0 {
            return Formula::var(rng.gen_range(0..vars));
        }
        match rng.gen_range(0..4) {
            0 => random_formula(rng, depth - 1, vars).not(),
            1 => random_formula(rng, depth - 1, vars).and(random_formula(rng, depth - 1, vars)),
            2 => random_formula(rng, depth - 1, vars).or(random_formula(rng, depth - 1, vars)),
            _ => Formula::var(rng.gen_range(0..vars)),
        }
    }
}
