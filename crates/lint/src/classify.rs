//! Fragment and complexity classification.
//!
//! [`classify`] places a pattern into the most specific of the paper's
//! query languages. It is the workspace's one classifier: the
//! analyzer and the theory toolkit both call it. Its
//! weak-monotonicity guarantee is checked against the bounded
//! semantic checker in `tests/integration_fragments.rs`.
//! [`Fragment::complexity`] then maps the language to the complexity
//! class the paper proves for its evaluation problem:
//!
//! | fragment | evaluation complexity | source |
//! |---|---|---|
//! | `SPARQL[AF]` | `P` (combined: NP-c, data: P) | folklore / §7 |
//! | `SPARQL[AUF]`, `SPARQL[AUFS]` | `NP` | Pérez et al. |
//! | well-designed `SPARQL[AOF]`/`AUOF` | `coNP` | Pérez et al. |
//! | SP–SPARQL | `DP` | Theorem 7.1 |
//! | USP–SPARQL with `k` disjuncts | `BH₂ₖ` | Theorem 7.2 |
//! | projected USP–SPARQL | `P^NP_par` | Theorem 7.3 |
//! | full SPARQL / NS–SPARQL | `PSPACE` | Pérez et al. / Thm 5.1 |
//!
//! The classes are *ranked* ([`ComplexityClass::rank`]) so an admission
//! policy can compare a query's statically determined class against a
//! configured ceiling without caring about the exact Boolean-hierarchy
//! level.

use owql_algebra::analysis::{in_fragment, operators, Operators};
use owql_algebra::pattern::Pattern;
use owql_algebra::well_designed::{well_designed_aof, well_designed_auof};
use std::fmt;
use std::str::FromStr;

/// The paper's query languages, ordered roughly by the
/// containment/expressiveness structure it establishes. The USP
/// languages carry their disjunct count (the `k` of `USP–SPARQLₖ`,
/// which fixes the Boolean-hierarchy level).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fragment {
    /// `SPARQL[AF]` — conjunctive queries with filters.
    Af,
    /// `SPARQL[AUF]` — the monotone CONSTRUCT fragment's language.
    Auf,
    /// `SPARQL[AUFS]` — adds projection.
    Aufs,
    /// Well-designed `SPARQL[AOF]` (Definition 3.4).
    WellDesignedAof,
    /// Union of well-designed `SPARQL[AOF]` patterns.
    WellDesignedAuof,
    /// SP–SPARQL: `NS(P)` with `P ∈ SPARQL[AUFS]` (Definition 5.3).
    SpSparql,
    /// USP–SPARQL: a union of simple patterns (Definition 5.7).
    UspSparql {
        /// Number of disjuncts — the `k` of `USP–SPARQLₖ`.
        disjuncts: usize,
    },
    /// USP–SPARQL under one top-level projection (Section 8).
    ProjectedUspSparql {
        /// Number of disjuncts under the projection.
        disjuncts: usize,
    },
    /// Plain SPARQL, outside every guaranteed-weakly-monotone language.
    Sparql,
    /// Full NS–SPARQL.
    NsSparql,
}

impl Fragment {
    /// The complexity class of the fragment's evaluation problem.
    pub fn complexity(self) -> ComplexityClass {
        match self {
            Fragment::Af => ComplexityClass::P,
            Fragment::Auf | Fragment::Aufs => ComplexityClass::Np,
            Fragment::WellDesignedAof | Fragment::WellDesignedAuof => ComplexityClass::CoNp,
            Fragment::SpSparql => ComplexityClass::Dp,
            Fragment::UspSparql { disjuncts } => ComplexityClass::Bh(2 * disjuncts),
            Fragment::ProjectedUspSparql { .. } => ComplexityClass::PNpParallel,
            Fragment::Sparql | Fragment::NsSparql => ComplexityClass::Pspace,
        }
    }

    /// `true` iff membership alone guarantees weak monotonicity
    /// (every language of the paper's design except raw SPARQL /
    /// NS–SPARQL).
    pub fn guarantees_weak_monotonicity(self) -> bool {
        !matches!(self, Fragment::Sparql | Fragment::NsSparql)
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Fragment::Af => "SPARQL[AF]",
            Fragment::Auf => "SPARQL[AUF]",
            Fragment::Aufs => "SPARQL[AUFS]",
            Fragment::WellDesignedAof => "well-designed SPARQL[AOF]",
            Fragment::WellDesignedAuof => "union of well-designed SPARQL[AOF]",
            Fragment::SpSparql => "SP-SPARQL",
            Fragment::UspSparql { .. } => "USP-SPARQL",
            Fragment::ProjectedUspSparql { .. } => "SELECT over USP-SPARQL",
            Fragment::Sparql => "SPARQL",
            Fragment::NsSparql => "NS-SPARQL",
        };
        write!(f, "{name}")
    }
}

/// A complexity class of the paper's Section 7 landscape, ranked for
/// admission-ceiling comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComplexityClass {
    /// Polynomial time.
    P,
    /// Nondeterministic polynomial time.
    Np,
    /// Complement class of NP.
    CoNp,
    /// Difference class `DP = NP ∧ coNP` (Theorem 7.1).
    Dp,
    /// Level `l` of the Boolean hierarchy over NP — `BH₂ₖ` for a
    /// `k`-disjunct USP pattern (Theorem 7.2). `Bh(0)` stands for
    /// "some level of the hierarchy" when used as a ceiling; the rank
    /// ignores the level.
    Bh(usize),
    /// `P^NP_par`: polynomial time with parallel access to an NP
    /// oracle (Theorem 7.3).
    PNpParallel,
    /// Polynomial space.
    Pspace,
}

impl ComplexityClass {
    /// Position in the inclusion ladder used by admission policies:
    /// `P < {NP, coNP} < DP < BH < P^NP_par < PSPACE`. NP and coNP are
    /// incomparable, so they share a rank.
    pub fn rank(self) -> u8 {
        match self {
            ComplexityClass::P => 0,
            ComplexityClass::Np | ComplexityClass::CoNp => 1,
            ComplexityClass::Dp => 2,
            ComplexityClass::Bh(_) => 3,
            ComplexityClass::PNpParallel => 4,
            ComplexityClass::Pspace => 5,
        }
    }
}

impl fmt::Display for ComplexityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComplexityClass::P => write!(f, "P"),
            ComplexityClass::Np => write!(f, "NP"),
            ComplexityClass::CoNp => write!(f, "coNP"),
            ComplexityClass::Dp => write!(f, "DP"),
            ComplexityClass::Bh(0) => write!(f, "BH"),
            ComplexityClass::Bh(level) => write!(f, "BH_{level}"),
            ComplexityClass::PNpParallel => write!(f, "P^NP_par"),
            ComplexityClass::Pspace => write!(f, "PSPACE"),
        }
    }
}

impl FromStr for ComplexityClass {
    type Err = String;

    /// Case-insensitive parse of the names used by the `max_class`
    /// query parameter and the CLI: `p`, `np`, `conp`, `dp`, `bh`,
    /// `pnp_par`, `pspace`.
    fn from_str(s: &str) -> Result<ComplexityClass, String> {
        match s.to_ascii_lowercase().as_str() {
            "p" => Ok(ComplexityClass::P),
            "np" => Ok(ComplexityClass::Np),
            "conp" => Ok(ComplexityClass::CoNp),
            "dp" => Ok(ComplexityClass::Dp),
            "bh" => Ok(ComplexityClass::Bh(0)),
            "pnp_par" | "p^np_par" | "pnppar" => Ok(ComplexityClass::PNpParallel),
            "pspace" => Ok(ComplexityClass::Pspace),
            other => Err(format!(
                "unknown complexity class '{other}' (expected p, np, conp, dp, bh, pnp_par, or pspace)"
            )),
        }
    }
}

/// `true` iff `p` is a simple pattern: `NS(Q)` with `Q ∈ SPARQL[AUFS]`.
fn is_simple_pattern(p: &Pattern) -> bool {
    matches!(p, Pattern::Ns(q) if in_fragment(q, Operators::AUFS))
}

/// Number of disjuncts if `p` is a union of simple patterns.
fn usp_disjunct_count(p: &Pattern) -> Option<usize> {
    let disjuncts = p.disjuncts();
    if disjuncts.iter().all(|d| is_simple_pattern(d)) {
        Some(disjuncts.len())
    } else {
        None
    }
}

/// Places a pattern into the most specific language of the paper's
/// hierarchy. Preference order: the OPT-free monotone fragments first
/// (they are the strongest guarantee), then well-designedness, then
/// the NS-based languages, then the catch-alls.
pub fn classify(p: &Pattern) -> Fragment {
    let ops = operators(p);
    if ops.within(Operators::AF) {
        return Fragment::Af;
    }
    if ops.within(Operators::AUF) {
        return Fragment::Auf;
    }
    if ops.within(Operators::AUFS) {
        return Fragment::Aufs;
    }
    if well_designed_aof(p).is_ok() {
        return Fragment::WellDesignedAof;
    }
    if well_designed_auof(p).is_ok() {
        return Fragment::WellDesignedAuof;
    }
    if is_simple_pattern(p) {
        return Fragment::SpSparql;
    }
    if let Some(disjuncts) = usp_disjunct_count(p) {
        return Fragment::UspSparql { disjuncts };
    }
    if let Pattern::Select(_, q) = p {
        if let Some(disjuncts) = usp_disjunct_count(q) {
            return Fragment::ProjectedUspSparql { disjuncts };
        }
    }
    if ops.within(Operators::SPARQL) {
        return Fragment::Sparql;
    }
    Fragment::NsSparql
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_parser::parse_pattern;

    fn q(text: &str) -> Pattern {
        parse_pattern(text).unwrap()
    }

    #[test]
    fn classifier_hierarchy_with_complexity() {
        let cases = [
            ("((?x, a, b) AND (?x, c, ?y))", Fragment::Af, "P"),
            ("((?x, a, b) UNION (?x, c, ?y))", Fragment::Auf, "NP"),
            (
                "(SELECT {?x} WHERE ((?x, a, b) UNION (?x, c, ?y)))",
                Fragment::Aufs,
                "NP",
            ),
            (
                "((?x, a, b) OPT (?x, c, ?y))",
                Fragment::WellDesignedAof,
                "coNP",
            ),
            (
                "(((?x, a, b) OPT (?x, c, ?y)) UNION ((?z, d, e) OPT (?z, f, ?w)))",
                Fragment::WellDesignedAuof,
                "coNP",
            ),
            (
                "NS(((?x, a, b) UNION (?x, c, ?y)))",
                Fragment::SpSparql,
                "DP",
            ),
            (
                "(NS((?x, a, b)) UNION NS((?x, c, ?y)))",
                Fragment::UspSparql { disjuncts: 2 },
                "BH_4",
            ),
            (
                "(SELECT {?x} WHERE (NS((?x, a, ?y)) UNION NS((?x, b, ?z))))",
                Fragment::ProjectedUspSparql { disjuncts: 2 },
                "P^NP_par",
            ),
            (
                "((?X, a, Chile) AND ((?Y, a, Chile) OPT (?Y, b, ?X)))",
                Fragment::Sparql,
                "PSPACE",
            ),
            (
                "NS(((?x, a, b) OPT (?x, c, ?y)))",
                Fragment::NsSparql,
                "PSPACE",
            ),
        ];
        for (text, fragment, class) in cases {
            let p = q(text);
            assert_eq!(classify(&p), fragment, "{text}");
            assert_eq!(classify(&p).complexity().to_string(), class, "{text}");
        }
    }

    #[test]
    fn ranks_are_monotone_along_the_ladder() {
        let ladder = [
            ComplexityClass::P,
            ComplexityClass::Np,
            ComplexityClass::Dp,
            ComplexityClass::Bh(4),
            ComplexityClass::PNpParallel,
            ComplexityClass::Pspace,
        ];
        for pair in ladder.windows(2) {
            assert!(pair[0].rank() < pair[1].rank());
        }
        assert_eq!(ComplexityClass::Np.rank(), ComplexityClass::CoNp.rank());
    }

    #[test]
    fn complexity_class_round_trips_from_str() {
        for class in [
            ComplexityClass::P,
            ComplexityClass::Np,
            ComplexityClass::CoNp,
            ComplexityClass::Dp,
            ComplexityClass::Bh(0),
            ComplexityClass::PNpParallel,
            ComplexityClass::Pspace,
        ] {
            assert_eq!(class.to_string().parse::<ComplexityClass>(), Ok(class));
        }
        assert!("turing".parse::<ComplexityClass>().is_err());
    }
}
