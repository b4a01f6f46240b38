//! Theorem 7.2: Exact-Mₖ-Colorability ≤ₚ Eval(USP–SPARQLₖ).
//!
//! The Appendix H proof factors through two steps, both implemented
//! here:
//!
//! 1. `χ(H) = m` iff the coloring encoding `col_m(H)` is satisfiable
//!    and `col_{m−1}(H)` is not — a **SAT-UNSAT** pair, handled by the
//!    Theorem 7.1 gadget ([`crate::reduction::dp`]);
//! 2. `χ(H) ∈ M` for an `m`-set `M = {m₁, …, mₖ}` is the disjunction
//!    of `k` such pairs, combined into one ns-pattern with `k`
//!    disjuncts by Lemma H.1 ([`crate::reduction::combine`]).
//!
//! The paper instantiates `M = Mₖ = {6k+1, 6k+3, …, 8k−1}` because
//! Exact-Mₖ-Colorability is BH₂ₖ-complete for exactly those sets
//! [Riege & Rothe 2006]; the construction is the same for any set of
//! candidate chromatic numbers, and the end-to-end tests use small sets
//! (`{2}`, `{3}`, `{2, 4}`) where the resulting pattern is actually
//! evaluatable — the `m ≥ 7` of the genuine `M₁` already produces
//! `7·|V|` pattern variables, i.e. a `2^(7|V|)`-mapping evaluation,
//! which is the hardness phenomenon itself. [`exact_mk_instance`]
//! builds the paper's literal `Mₖ` instance (structure-checked in
//! tests; never evaluated — it enumerates `2^(7|V|)` assignments).

use super::combine::combine;
use super::dp::sat_unsat_instance;
use super::EvalInstance;
use owql_logic::coloring::{coloring_cnf, UGraph};
use owql_logic::Formula;

/// The paper's set `Mₖ = {6k+1, 6k+3, …, 8k−1}`.
pub fn m_k(k: usize) -> Vec<usize> {
    assert!(k > 0);
    (0..k).map(|i| 6 * k + 1 + 2 * i).collect()
}

/// The coloring formula `col_m(H)` as a propositional formula.
fn coloring_formula(h: &UGraph, m: usize) -> Formula {
    if m == 0 {
        // 0-colorable iff no vertices; as a formula: constant.
        return if h.n == 0 {
            Formula::True
        } else {
            Formula::False
        };
    }
    coloring_cnf(h, m).to_formula()
}

/// Builds the instance deciding `χ(H) ∈ ms` as a USP–SPARQL pattern
/// with `|ms|` disjuncts: `µ ∈ ⟦P⟧G ⟺ χ(H) ∈ ms`.
pub fn chromatic_in_set_instance(h: &UGraph, ms: &[usize], tag: &str) -> EvalInstance {
    assert!(!ms.is_empty());
    let parts: Vec<EvalInstance> = ms
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let phi = coloring_formula(h, m);
            let psi = coloring_formula(h, m.saturating_sub(1));
            sat_unsat_instance(&phi, &psi, &format!("{tag}_m{i}")).instance
        })
        .collect();
    combine(&parts)
}

/// The paper's literal Theorem 7.2 instance: `χ(H) ∈ Mₖ` as a
/// `USP–SPARQLₖ` pattern (`k` disjuncts, BH₂ₖ-hardness).
pub fn exact_mk_instance(h: &UGraph, k: usize, tag: &str) -> EvalInstance {
    chromatic_in_set_instance(h, &m_k(k), tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_algebra::Pattern;
    use owql_logic::coloring::chromatic_number;

    #[test]
    fn m_k_matches_paper() {
        assert_eq!(m_k(1), vec![7]);
        assert_eq!(m_k(2), vec![13, 15]);
        assert_eq!(m_k(3), vec![19, 21, 23]);
        assert!(m_k(2).iter().all(|m| *m % 2 == 1));
    }

    #[test]
    fn chromatic_membership_cycle() {
        // χ(C5) = 3.
        let c5 = UGraph::cycle(5);
        assert_eq!(chromatic_number(&c5), 3);
        assert!(chromatic_in_set_instance(&c5, &[3], "bh_c5_yes").decide());
        assert!(!chromatic_in_set_instance(&c5, &[2], "bh_c5_no").decide());
        assert!(chromatic_in_set_instance(&c5, &[2, 3], "bh_c5_set").decide());
    }

    #[test]
    fn chromatic_membership_bipartite() {
        // χ(C4) = 2.
        let c4 = UGraph::cycle(4);
        assert!(chromatic_in_set_instance(&c4, &[2], "bh_c4_yes").decide());
        assert!(!chromatic_in_set_instance(&c4, &[3], "bh_c4_no").decide());
    }

    #[test]
    fn chromatic_membership_triangle_in_pair_set() {
        // χ(K3) = 3 ∈ {1, 3}.
        let k3 = UGraph::complete(3);
        assert!(chromatic_in_set_instance(&k3, &[1, 3], "bh_k3").decide());
        assert!(!chromatic_in_set_instance(&k3, &[1, 2], "bh_k3_no").decide());
    }

    #[test]
    fn disjunct_count_matches_set_size() {
        let c4 = UGraph::cycle(4);
        let inst = chromatic_in_set_instance(&c4, &[2, 3], "bh_cnt");
        let disjuncts = inst.pattern.disjuncts();
        assert_eq!(disjuncts.len(), 2);
        for d in disjuncts {
            assert!(matches!(d, Pattern::Ns(_)));
        }
    }

    #[test]
    fn exact_mk_instance_structure() {
        // The genuine M₁ = {7} instance on a small graph: structurally a
        // USP–SPARQL₁ pattern (one NS disjunct); evaluating it means
        // enumerating 2^(7·3+6·3) assignments, which is the hardness
        // phenomenon — checked structurally only.
        let k3 = UGraph::complete(3);
        let inst = exact_mk_instance(&k3, 1, "bh_mk");
        assert_eq!(inst.pattern.disjuncts().len(), 1);
        assert!(matches!(inst.pattern.disjuncts()[0], Pattern::Ns(_)));
        assert!(!inst.graph.is_empty());
    }

    #[test]
    fn empty_graph_chromatic_zero() {
        let e = UGraph::new(0);
        assert!(
            chromatic_in_set_instance(&e, &[1], "bh_empty").decide() == (chromatic_number(&e) == 1)
        );
    }
}
