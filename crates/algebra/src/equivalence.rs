//! Testing-based equivalence checking for graph patterns.
//!
//! The paper compares patterns under two relations (Section 2.1 and
//! Section 4):
//!
//! * plain equivalence `P₁ ≡ P₂` — equal answer sets on every graph;
//! * subsumption equivalence `P₁ ≡s P₂` — mutually ⊑-covering answer
//!   sets on every graph.
//!
//! Both quantify over all graphs and are undecidable for full SPARQL,
//! so this module offers the next best thing: a *refutation-complete
//! sampler*. A [`Refuted`](EquivalenceResult::Refuted) verdict carries
//! a concrete distinguishing graph (sound); an
//! [`Indistinguishable`](EquivalenceResult::Indistinguishable) verdict
//! certifies agreement on a bounded-exhaustive family over the
//! patterns' own vocabulary plus random graphs.
//!
//! The evaluation function is a parameter, so the check stays in this
//! crate without depending on an engine; `owql-eval` users pass
//! `|p, g| owql_eval::evaluate(p, g)`.

use crate::analysis::{pattern_iris, triple_patterns};
use crate::mapping_set::MappingSet;
use crate::pattern::Pattern;
use crate::Mapping;
use owql_rdf::{Graph, Iri, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The relation to test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `⟦P₁⟧G = ⟦P₂⟧G`.
    Equivalent,
    /// `⟦P₁⟧G ⊑ ⟦P₂⟧G` and `⟦P₂⟧G ⊑ ⟦P₁⟧G`.
    SubsumptionEquivalent,
    /// `⟦P₁⟧G ⊆ ⟦P₂⟧G` (containment, one direction).
    Contained,
}

impl Relation {
    fn holds(self, a: &MappingSet, b: &MappingSet) -> bool {
        match self {
            Relation::Equivalent => a == b,
            Relation::SubsumptionEquivalent => a.subsumed_by(b) && b.subsumed_by(a),
            Relation::Contained => a.subset_of(b),
        }
    }
}

/// Verdict of an equivalence test.
#[derive(Clone, Debug)]
pub enum EquivalenceResult {
    /// The relation held on every tested graph.
    Indistinguishable {
        /// How many graphs were tested.
        graphs_tested: usize,
    },
    /// A concrete graph on which the relation fails.
    Refuted {
        /// The distinguishing graph.
        witness: Graph,
    },
}

impl EquivalenceResult {
    /// `true` iff no counterexample was found.
    pub fn holds(&self) -> bool {
        matches!(self, EquivalenceResult::Indistinguishable { .. })
    }
}

/// Options for [`check_relation`].
#[derive(Clone, Debug)]
pub struct EquivalenceOptions {
    /// Size of the exhaustive candidate-triple universe (cost `2^n`).
    pub universe_size: usize,
    /// Number of additional random graphs.
    pub random_graphs: usize,
    /// Triples per random graph.
    pub random_graph_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EquivalenceOptions {
    fn default() -> Self {
        EquivalenceOptions {
            universe_size: 9,
            random_graphs: 40,
            random_graph_size: 14,
            seed: 0xE0,
        }
    }
}

/// Builds the candidate triple universe from both patterns (see
/// `owql_theory::checks` for the rationale: instantiations over a tiny
/// shared value pool interact, which is where differences hide).
fn universe(p1: &Pattern, p2: &Pattern, opts: &EquivalenceOptions) -> Vec<Triple> {
    let mut value_pool: Vec<Iri> = vec![Iri::new("eq_v0"), Iri::new("eq_v1")];
    value_pool.extend(pattern_iris(p1));
    value_pool.extend(pattern_iris(p2));
    value_pool.dedup();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut out: Vec<Triple> = Vec::new();
    for t in triple_patterns(p1).into_iter().chain(triple_patterns(p2)) {
        let vars: Vec<_> = t.vars().into_iter().collect();
        let combos = value_pool.len().pow(vars.len() as u32);
        let tries = combos.min(32);
        for k in 0..tries {
            let m = if combos <= 32 {
                let mut idx = k;
                let mut m = Mapping::new();
                for &v in &vars {
                    m = m.bind(v, value_pool[idx % value_pool.len()]);
                    idx /= value_pool.len();
                }
                m
            } else {
                Mapping::from_pairs(
                    vars.iter()
                        .map(|&v| (v, value_pool[rng.gen_range(0..value_pool.len())])),
                )
            };
            if let Some(triple) = t.instantiate(&m) {
                if !out.contains(&triple) {
                    out.push(triple);
                }
            }
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out.truncate(opts.universe_size.min(14));
    out
}

/// Tests `relation` between `p1` and `p2` on a bounded-exhaustive plus
/// randomized graph family, using the supplied evaluator.
pub fn check_relation(
    p1: &Pattern,
    p2: &Pattern,
    relation: Relation,
    eval: &impl Fn(&Pattern, &Graph) -> MappingSet,
    opts: &EquivalenceOptions,
) -> EquivalenceResult {
    let uni = universe(p1, p2, opts);
    let mut tested = 0usize;
    // Exhaustive phase over the universe's power set.
    for mask in 0u32..(1u32 << uni.len()) {
        let g: Graph = uni
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &t)| t)
            .collect();
        tested += 1;
        if !relation.holds(&eval(p1, &g), &eval(p2, &g)) {
            return EquivalenceResult::Refuted { witness: g };
        }
    }
    // Random phase.
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xFEED);
    for _ in 0..opts.random_graphs {
        let mut g = Graph::new();
        for _ in 0..opts.random_graph_size {
            if uni.is_empty() {
                break;
            }
            g.insert(uni[rng.gen_range(0..uni.len())]);
        }
        tested += 1;
        if !relation.holds(&eval(p1, &g), &eval(p2, &g)) {
            return EquivalenceResult::Refuted { witness: g };
        }
    }
    EquivalenceResult::Indistinguishable {
        graphs_tested: tested,
    }
}
