//! The complexity reductions of Section 7 and Appendices G–I, as
//! executable instance generators.
//!
//! Each submodule constructs, from a logic-side instance (a formula, a
//! pair of formulas, a graph to color, ...), an *evaluation-problem
//! instance* `(G, P, µ)` such that `µ ∈ ⟦P⟧G` iff the logic-side
//! instance is a yes-instance:
//!
//! | module | theorem | source problem | target fragment |
//! |---|---|---|---|
//! | [`sat_gadget`] | Lemma G.1 | SAT | `SPARQL[AUF]` / `SPARQL[AUFS]` |
//! | [`dp`] | Theorem 7.1 | SAT-UNSAT | SP–SPARQL (DP-hard) |
//! | [`combine`] | Lemma H.1 | disjunction of instances | USP–SPARQL |
//! | [`bh`] | Theorem 7.2 | Exact-Mₖ-Colorability | USP–SPARQLₖ (BH₂ₖ-hard) |
//! | [`pnp`] | Theorem 7.3 | MAX-ODD-SAT | USP–SPARQL (Pᴺᴾ∥-hard) |
//! | [`construct_np`] | Theorem 7.4 | SAT | CONSTRUCT\[AUF\] (NP-hard) |
//!
//! Every generator is *verified end-to-end* in its tests: the query
//! engine's answer over the generated instance is compared with the
//! DPLL oracle's answer on the source instance. (Evaluation cost is
//! exponential in the formula size — the hardness is the point — so
//! tests and experiment E11 use small formulas.)

pub mod bh;
pub mod combine;
pub mod construct_np;
pub mod dp;
pub mod pnp;
pub mod sat_gadget;

use owql_algebra::{Mapping, Pattern};
use owql_rdf::Graph;

/// An instance of the evaluation problem `Eval(F)`: does `mapping`
/// belong to `⟦pattern⟧graph`?
#[derive(Clone, Debug)]
pub struct EvalInstance {
    /// The RDF graph `G`.
    pub graph: Graph,
    /// The graph pattern `P` (its fragment depends on the reduction).
    pub pattern: Pattern,
    /// The candidate mapping `µ`.
    pub mapping: Mapping,
}

impl EvalInstance {
    /// Decides the instance with the reference evaluator.
    pub fn decide(&self) -> bool {
        owql_eval::reference::evaluate(&self.pattern, &self.graph).contains(&self.mapping)
    }

    /// Decides the instance with the production engine. The run has no
    /// deadline, so the only error is
    /// [`owql_eval::EvalError::TooManyVariables`]: a reduction over a
    /// large formula can mention more than the engine's 64 variables
    /// ([`EvalInstance::decide`] has no such limit).
    pub fn decide_indexed(&self) -> Result<bool, owql_eval::EvalError> {
        let outcome = owql_eval::Engine::new(&self.graph).run(
            &self.pattern,
            &owql_eval::ExecOpts::seq(),
            &owql_exec::Pool::sequential(),
        )?;
        Ok(outcome.mappings.contains(&self.mapping))
    }
}
