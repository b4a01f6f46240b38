//! The evaluation engine's front door.
//!
//! [`Engine`] binds a [`SnapshotIndex`] — built from a graph, or a live
//! snapshot of `owql-store` — and [`Engine::run`] is the single entry
//! point: the execution strategy — sequential or
//! pool-parallel scheduling, span tracing, the static optimizer, a
//! cooperative deadline, an admission ceiling — is selected by an
//! [`ExecOpts`] value, not by the method name. Every run goes through
//! one prelude (admission → optimize → plan → recorder) and then the
//! one evaluator (`columnar.rs`), which executes the [`Plan`] the
//! prelude built. [`Engine::explain`] is the prelude's plan phase
//! alone.
//!
//! Answers are held to exact agreement with
//! [`crate::reference::evaluate`] by the randomized differential tests
//! at the bottom and under `tests/`.
//!
//! The evaluator threads an [`EvalBudget`] and checks it between
//! operators (and every `BUDGET_CHECK_STRIDE` candidate rows inside a
//! spine step), so a run with a deadline unwinds with
//! [`EvalError::Timeout`] instead of hanging.

use crate::columnar;
use crate::plan::Plan;
use crate::run::{EvalBudget, EvalError, ExecMode, ExecOpts, RunOutcome};
use owql_algebra::pattern::Pattern;
use owql_exec::Pool;
use owql_obs::{Profile, Recorder};
use owql_rdf::{Graph, SnapshotIndex};

/// An engine bound to one graph's index (see [`Engine::for_snapshot`]
/// for evaluation over the live snapshots of `owql-store`).
///
/// ```
/// use owql_algebra::pattern::Pattern;
/// use owql_eval::{Engine, ExecOpts};
/// use owql_exec::Pool;
/// use owql_rdf::datasets::figure_1;
/// let g = figure_1();
/// let engine = Engine::new(&g);
/// let p = Pattern::t("?p", "founder", "The_Pirate_Bay");
/// let out = engine.run(&p, &ExecOpts::seq(), &Pool::sequential()).unwrap();
/// assert_eq!(out.mappings.len(), 3);
/// ```
#[derive(Debug)]
pub struct Engine {
    index: SnapshotIndex,
}

impl Engine {
    /// Builds the engine (and its index) for `graph`.
    pub fn new(graph: &Graph) -> Engine {
        Engine::with_index(SnapshotIndex::from_graph(graph))
    }

    /// Binds the engine to a store snapshot: the same operators run
    /// over the snapshot's base runs merged with its delta overlay, so
    /// live data is queried without any index rebuild.
    ///
    /// `owql_store::Snapshot` derefs to [`SnapshotIndex`], so this
    /// accepts `&snapshot` directly.
    pub fn for_snapshot(snapshot: &SnapshotIndex) -> Engine {
        Engine::with_index(snapshot.clone())
    }

    /// Wraps an already-built index.
    pub fn with_index(index: SnapshotIndex) -> Engine {
        Engine { index }
    }

    /// Access to the underlying index.
    pub fn index(&self) -> &SnapshotIndex {
        &self.index
    }

    /// EXPLAIN: runs the plan phase alone and returns the [`Plan`] a
    /// run of `pattern` would execute — step order, access paths and
    /// estimates (see [`crate::plan`]). Fails only on a pattern with
    /// more than 64 distinct variables
    /// ([`EvalError::TooManyVariables`]).
    pub fn explain(&self, pattern: &Pattern) -> Result<Plan, EvalError> {
        Plan::build(pattern.clone(), self.index.id_view())
    }

    /// Evaluates `⟦P⟧G` under `opts` — THE entry point; every other
    /// evaluation method on `Engine`, `Store`, and `Snapshot` is a thin
    /// wrapper over it.
    ///
    /// `pool` is only consulted in [`ExecMode::Parallel`]; pass
    /// [`Pool::sequential`] for sequential runs. Three operator shapes
    /// then fan out, mirroring the independence structure of the
    /// semantics: the disjuncts of a UNION spine, the candidate rows of
    /// a wide AND-spine step, and the per-domain shadow sets of NS
    /// maximality. A 1-thread pool is the sequential walk.
    ///
    /// The outcome carries a [`owql_obs::Profile`] iff `opts.trace` is
    /// set. A set `opts.deadline` turns a long evaluation into
    /// [`EvalError::Timeout`] instead of an open-ended hang; a pattern
    /// with more than 64 distinct variables is refused with
    /// [`EvalError::TooManyVariables`]. `opts.cache` is ignored here
    /// (the bare engine has no cache — see `Store::query_request`).
    pub fn run(
        &self,
        pattern: &Pattern,
        opts: &ExecOpts,
        pool: &Pool,
    ) -> Result<RunOutcome, EvalError> {
        crate::run::check_admission(pattern, opts)?;
        let budget = EvalBudget::from_opts(opts);
        let (pattern, prunes) = if opts.optimize {
            crate::optimize::optimize_with_stats(pattern)
        } else {
            (pattern.clone(), owql_obs::PruneObs::default())
        };
        let view = self.index.id_view();
        let plan = Plan::build(pattern, view)?;
        let rec = if opts.trace {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let parallel = opts.mode == ExecMode::Parallel && pool.threads() > 1;
        let mappings = columnar::run(&plan, view, parallel, pool, &rec, &budget)?;
        Ok(RunOutcome {
            mappings,
            profile: opts.trace.then(|| Profile {
                prunes,
                ..rec.profile()
            }),
            prunes,
            plan,
        })
    }

    /// Runs the query and returns the plan annotated with the observed
    /// per-node output cardinalities, wall times, and (on scan steps)
    /// the planner-side `estimated_rows` — EXPLAIN ANALYZE. Routed
    /// through [`Engine::run`] with sequential traced options and no
    /// deadline, so the only possible error is
    /// [`EvalError::TooManyVariables`]. (See
    /// [`crate::plan::AnnotatedPlan`] for the rendered shape;
    /// [`Engine::explain`] returns the plan without running it.)
    pub fn explain_analyze(
        &self,
        pattern: &Pattern,
    ) -> Result<crate::plan::AnnotatedPlan, EvalError> {
        self.explain_analyze_with(pattern, &ExecOpts::seq(), &Pool::sequential())
    }

    /// [`Engine::explain_analyze`] over a parallel run: the annotated
    /// plan additionally reflects the parallel operators (partitioned
    /// spine steps, fanned-out unions).
    pub fn explain_analyze_parallel(
        &self,
        pattern: &Pattern,
        pool: &Pool,
    ) -> Result<crate::plan::AnnotatedPlan, EvalError> {
        self.explain_analyze_with(pattern, &ExecOpts::parallel(), pool)
    }

    fn explain_analyze_with(
        &self,
        pattern: &Pattern,
        opts: &ExecOpts,
        pool: &Pool,
    ) -> Result<crate::plan::AnnotatedPlan, EvalError> {
        let outcome = self.run(pattern, &opts.traced(), pool)?;
        let profile = outcome.profile.expect("traced run has a profile");
        Ok(crate::plan::annotate(
            &profile.spans,
            outcome.mappings.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::evaluate;
    use owql_algebra::analysis::Operators;
    use owql_algebra::random::{random_pattern, PatternConfig};
    use owql_algebra::MappingSet;
    use owql_rdf::datasets::figure_1;
    use owql_rdf::generate;
    use std::time::Duration;

    /// Expect-message for unwrapping runs made with an unlimited budget.
    const NO_BUDGET: &str = "unlimited budget cannot time out";

    /// Sequential `run` shorthand for the tests below.
    fn eval(engine: &Engine, p: &Pattern) -> MappingSet {
        engine
            .run(p, &ExecOpts::seq(), &Pool::sequential())
            .expect(NO_BUDGET)
            .mappings
    }

    /// Parallel `run` shorthand.
    fn eval_par(engine: &Engine, p: &Pattern, pool: &Pool) -> MappingSet {
        engine
            .run(p, &ExecOpts::parallel(), pool)
            .expect(NO_BUDGET)
            .mappings
    }

    #[test]
    fn matches_reference_on_figure_1() {
        let g = figure_1();
        let engine = Engine::new(&g);
        let p = Pattern::t("?o", "stands_for", "sharing_rights")
            .and(Pattern::t("?p", "founder", "?o").union(Pattern::t("?p", "supporter", "?o")));
        assert_eq!(eval(&engine, &p), evaluate(&p, &g));
        assert_eq!(eval(&engine, &p).len(), 4);
    }

    #[test]
    fn long_and_spine_with_bound_propagation() {
        let g = generate::chain("next", 30);
        let engine = Engine::new(&g);
        // v0 -> ?a -> ?b -> ?c
        let p = Pattern::t("v0", "next", "?a")
            .and(Pattern::t("?a", "next", "?b"))
            .and(Pattern::t("?b", "next", "?c"));
        let out = eval(&engine, &p);
        assert_eq!(out.len(), 1);
        assert_eq!(out, evaluate(&p, &g));
    }

    #[test]
    fn spine_with_non_triple_conjunct() {
        let g = generate::chain("next", 10);
        let engine = Engine::new(&g);
        let p = Pattern::t("?a", "next", "?b")
            .and(Pattern::t("?b", "next", "?c").union(Pattern::t("?b", "next", "?c")));
        assert_eq!(eval(&engine, &p), evaluate(&p, &g));
    }

    #[test]
    fn cartesian_spine() {
        // Two disconnected triple patterns: a genuine cross product.
        let g = generate::star("hub", "spoke", 4);
        let engine = Engine::new(&g);
        let p = Pattern::t("hub", "spoke", "?x").and(Pattern::t("hub", "spoke", "?y"));
        let out = eval(&engine, &p);
        assert_eq!(out.len(), 16);
        assert_eq!(out, evaluate(&p, &g));
    }

    /// The central differential test: on hundreds of random
    /// (pattern, graph) pairs across the full NS–SPARQL operator set,
    /// the engine and the reference evaluator agree exactly.
    #[test]
    fn differential_random_full_sparql() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        for seed in 0..300u64 {
            let p = random_pattern(&cfg, seed);
            let g =
                generate::uniform(40, 5, 5, 5, seed ^ 0xdead).union(&graph_over_pattern_iris(seed));
            let engine = Engine::new(&g);
            assert_eq!(
                eval(&engine, &p),
                evaluate(&p, &g),
                "seed {seed}, pattern {p}"
            );
        }
    }

    /// A small graph over the generator vocabulary `i0..i4` so random
    /// patterns actually match something.
    fn graph_over_pattern_iris(seed: u64) -> owql_rdf::Graph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = owql_rdf::Graph::new();
        for _ in 0..25 {
            let t = owql_rdf::Triple::new(
                format!("i{}", rng.gen_range(0..5)).as_str(),
                format!("i{}", rng.gen_range(0..5)).as_str(),
                format!("i{}", rng.gen_range(0..5)).as_str(),
            );
            g.insert(t);
        }
        g
    }

    #[test]
    fn optimized_run_agrees_with_reference() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        let pool = Pool::sequential();
        for seed in 0..60u64 {
            let p = random_pattern(&cfg, seed);
            let g = generate::uniform(30, 5, 5, 5, seed);
            let engine = Engine::new(&g);
            assert_eq!(
                engine
                    .run(&p, &ExecOpts::seq().optimized(), &pool)
                    .expect(NO_BUDGET)
                    .mappings,
                evaluate(&p, &g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let engine = Engine::new(&Graph::new());
        assert!(eval(&engine, &Pattern::t("?x", "?y", "?z")).is_empty());
        assert!(engine.index().is_empty());
    }

    /// A default index carries an (empty) dictionary, so it evaluates
    /// like any other: every constant is un-interned.
    #[test]
    fn default_index_evaluates() {
        let engine = Engine::with_index(SnapshotIndex::default());
        assert!(eval(&engine, &Pattern::t("?x", "p", "?y")).is_empty());
        assert!(eval(&engine, &Pattern::t("a", "p", "b")).is_empty());
        let mixed = Pattern::t("a", "p", "b")
            .ns()
            .union(Pattern::t("?x", "p", "b"));
        assert_eq!(eval(&engine, &mixed), evaluate(&mixed, &Graph::new()));
    }

    /// Fully ground patterns evaluate on the one walker: `{µ∅}` when
    /// the triple is present, `∅` when it is absent or a constant was
    /// never interned.
    #[test]
    fn ground_patterns_answer_unit_or_empty() {
        let g = figure_1();
        let engine = Engine::new(&g);
        let present = Pattern::t("Gottfrid_Svartholm", "founder", "The_Pirate_Bay");
        let absent = Pattern::t("The_Pirate_Bay", "founder", "Gottfrid_Svartholm");
        let unknown = Pattern::t("Gottfrid_Svartholm", "founder", "never_interned");
        assert_eq!(evaluate(&present, &g), MappingSet::unit());
        let pool = Pool::new(2);
        for opts in [
            ExecOpts::seq(),
            ExecOpts::parallel(),
            ExecOpts::seq().traced(),
            ExecOpts::parallel().traced().optimized(),
        ] {
            let run = |p: &Pattern| engine.run(p, &opts, &pool).expect(NO_BUDGET).mappings;
            assert_eq!(run(&present), MappingSet::unit(), "{opts:?}");
            assert_eq!(run(&absent), MappingSet::new(), "{opts:?}");
            assert_eq!(run(&unknown), MappingSet::new(), "{opts:?}");
        }
    }

    /// One variable more than a columnar row can hold is a typed error
    /// on every execution path, before any evaluation work; exactly the
    /// limit still evaluates.
    #[test]
    fn over_wide_patterns_are_rejected_up_front() {
        let g = figure_1();
        let engine = Engine::new(&g);
        let wide = |n: usize| {
            Pattern::union_all(
                (0..n).map(|i| Pattern::t(format!("?w{i}").as_str(), "founder", "?o")),
            )
        };
        let pool = Pool::new(2);
        for opts in [
            ExecOpts::seq(),
            ExecOpts::parallel(),
            ExecOpts::seq().traced(),
            ExecOpts::parallel().optimized(),
        ] {
            // 64 `?w` variables plus `?o`.
            let err = engine.run(&wide(64), &opts, &pool).unwrap_err();
            assert_eq!(
                err,
                EvalError::TooManyVariables {
                    count: 65,
                    limit: 64
                },
                "{opts:?}"
            );
            let at_limit = wide(63);
            assert_eq!(
                engine
                    .run(&at_limit, &opts, &pool)
                    .expect(NO_BUDGET)
                    .mappings,
                evaluate(&at_limit, &g),
                "{opts:?}"
            );
        }
        assert!(engine.explain_analyze(&wide(64)).is_err());
    }

    /// The parallel differential test: at widths 1, 2, and 8 the
    /// parallel walk agrees exactly with the reference evaluator on
    /// random full-NS–SPARQL patterns (the width-1 pool also certifies
    /// the sequential seam).
    #[test]
    fn parallel_matches_reference_across_widths() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        for threads in [1usize, 2, 8] {
            let pool = Pool::new(threads);
            for seed in 0..80u64 {
                let p = random_pattern(&cfg, seed);
                let g = generate::uniform(40, 5, 5, 5, seed ^ 0xbeef)
                    .union(&graph_over_pattern_iris(seed));
                let engine = Engine::new(&g);
                assert_eq!(
                    eval_par(&engine, &p, &pool),
                    evaluate(&p, &g),
                    "threads {threads}, seed {seed}, pattern {p}"
                );
            }
        }
    }

    /// Shapes that specifically exercise each parallel fan-out: a wide
    /// UNION spine, a long AND-spine with enough candidates to
    /// partition, and NS over a large subsumption-layered answer set.
    #[test]
    fn parallel_fanout_shapes() {
        let pool = Pool::new(4);

        // Wide UNION over a star graph.
        let g = generate::star("hub", "spoke", 40);
        let engine = Engine::new(&g);
        let disjuncts: Vec<Pattern> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    Pattern::t("hub", "spoke", "?x")
                } else {
                    Pattern::t("?c", "spoke", format!("s{i}").as_str())
                }
            })
            .collect();
        let union = Pattern::union_all(disjuncts);
        assert_eq!(eval_par(&engine, &union, &pool), evaluate(&union, &g));

        // Partitioned AND-spine: the star fans ?x out to 40 candidates.
        let spine = Pattern::t("hub", "spoke", "?x")
            .and(Pattern::t("hub", "spoke", "?y"))
            .and(Pattern::t("hub", "spoke", "?z"));
        assert_eq!(eval_par(&engine, &spine, &pool), evaluate(&spine, &g));
        assert_eq!(eval_par(&engine, &spine, &pool).len(), 40 * 40 * 40);

        // NS over layered optional extensions (large maximality input).
        let chain = generate::chain("next", 400);
        let engine = Engine::new(&chain);
        let ns = Pattern::t("?a", "next", "?b")
            .union(Pattern::t("?a", "next", "?b").and(Pattern::t("?b", "next", "?c")))
            .ns();
        assert_eq!(eval_par(&engine, &ns, &pool), evaluate(&ns, &chain));
    }

    /// The traced run is answer-identical to the reference (and to the
    /// plain run), and its profile carries a span tree whose root
    /// reports the answer count.
    #[test]
    fn traced_matches_reference_and_records_spans() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        let pool = Pool::sequential();
        for seed in 0..40u64 {
            let p = random_pattern(&cfg, seed);
            let g =
                generate::uniform(40, 5, 5, 5, seed ^ 0xfeed).union(&graph_over_pattern_iris(seed));
            let engine = Engine::new(&g);
            let expected = evaluate(&p, &g);

            let out = engine
                .run(&p, &ExecOpts::seq().traced(), &pool)
                .expect(NO_BUDGET);
            assert_eq!(out.mappings, expected, "seed {seed}");
            let profile = out.profile.expect("traced run has a profile");
            assert!(!profile.spans.is_empty(), "seed {seed}: no spans recorded");
            let root_out: u64 = profile
                .spans
                .iter()
                .filter(|s| s.parent == owql_obs::SpanId::ROOT)
                .map(|s| s.rows_out)
                .sum();
            assert_eq!(root_out, expected.len() as u64, "seed {seed}");

            // Untraced run: same answers, no profile.
            let plain = engine.run(&p, &ExecOpts::seq(), &pool).expect(NO_BUDGET);
            assert_eq!(plain.mappings, expected, "seed {seed}");
            assert!(plain.profile.is_none());
        }
    }

    #[test]
    fn parallel_traced_matches_reference_across_widths() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        for threads in [1usize, 4] {
            let pool = Pool::new(threads);
            for seed in 0..30u64 {
                let p = random_pattern(&cfg, seed);
                let g = generate::uniform(40, 5, 5, 5, seed ^ 0xf00d)
                    .union(&graph_over_pattern_iris(seed));
                let engine = Engine::new(&g);
                let out = engine
                    .run(&p, &ExecOpts::parallel().traced(), &pool)
                    .expect(NO_BUDGET);
                assert_eq!(
                    out.mappings,
                    evaluate(&p, &g),
                    "threads {threads}, seed {seed}, pattern {p}"
                );
                assert!(!out.profile.expect("traced").spans.is_empty());
            }
        }
    }

    /// NS pruning counters: the profile sees the candidate and
    /// survivor counts of the maximality filter.
    #[test]
    fn traced_ns_records_pruning() {
        let chain = generate::chain("next", 50);
        let engine = Engine::new(&chain);
        let ns = Pattern::t("?a", "next", "?b")
            .union(Pattern::t("?a", "next", "?b").and(Pattern::t("?b", "next", "?c")))
            .ns();
        let out = engine
            .run(&ns, &ExecOpts::seq().traced(), &Pool::sequential())
            .expect(NO_BUDGET);
        let profile = out.profile.expect("traced");
        assert_eq!(profile.ns.survivors, out.mappings.len() as u64);
        assert!(profile.ns.candidates > profile.ns.survivors);
    }

    #[test]
    fn parallel_optimized_agrees_with_reference() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        let pool = Pool::new(3);
        for seed in 0..40u64 {
            let p = random_pattern(&cfg, seed);
            let g = generate::uniform(30, 5, 5, 5, seed);
            let engine = Engine::new(&g);
            assert_eq!(
                engine
                    .run(&p, &ExecOpts::parallel().optimized(), &pool)
                    .expect(NO_BUDGET)
                    .mappings,
                evaluate(&p, &g),
                "seed {seed}"
            );
        }
    }

    /// The admission ceiling rejects over-class queries before any
    /// evaluation work, on every execution path, and admits queries at
    /// or below the ceiling unchanged.
    #[test]
    fn admission_ceiling_gates_run() {
        let g = figure_1();
        let engine = Engine::new(&g);
        let admitted = Pattern::t("?o", "stands_for", "sharing_rights")
            .and(Pattern::t("?p", "founder", "?o").union(Pattern::t("?p", "supporter", "?o")));
        let expected = eval(&engine, &admitted);
        let denied = Pattern::t("?o", "stands_for", "?r")
            .and(Pattern::t("?p", "founder", "?o").opt(Pattern::t("?p", "supporter", "?r")))
            .ns();
        let pool = Pool::new(2);
        for opts in [
            ExecOpts::seq(),
            ExecOpts::parallel(),
            ExecOpts::seq().traced(),
            ExecOpts::parallel().traced().optimized(),
        ] {
            let capped = opts.with_max_class(owql_lint::ComplexityClass::Np);
            assert_eq!(
                engine
                    .run(&admitted, &capped, &pool)
                    .expect(NO_BUDGET)
                    .mappings,
                expected
            );
            let err = engine.run(&denied, &capped, &pool).unwrap_err();
            assert!(
                matches!(&err, EvalError::AdmissionDenied { ceiling, .. }
                    if *ceiling == owql_lint::ComplexityClass::Np),
                "expected AdmissionDenied, got {err:?}"
            );
        }
    }

    /// A zero deadline times out on every execution path and leaves the
    /// pool reusable afterwards.
    #[test]
    fn zero_deadline_times_out_on_every_path() {
        let g = generate::star("hub", "spoke", 40);
        let engine = Engine::new(&g);
        let spine = Pattern::t("hub", "spoke", "?x")
            .and(Pattern::t("hub", "spoke", "?y"))
            .and(Pattern::t("hub", "spoke", "?z"));
        let pool = Pool::new(4);
        for opts in [
            ExecOpts::seq(),
            ExecOpts::seq().traced(),
            ExecOpts::parallel(),
            ExecOpts::parallel().traced(),
        ] {
            let result = engine.run(&spine, &opts.with_deadline(Duration::ZERO), &pool);
            assert!(
                matches!(result, Err(EvalError::Timeout { .. })),
                "expected timeout for {opts:?}"
            );
        }
        // The pool survives: a run without a deadline still answers.
        assert_eq!(eval_par(&engine, &spine, &pool).len(), 40 * 40 * 40);
    }

    /// A generous deadline changes nothing about the answers.
    #[test]
    fn generous_deadline_is_transparent() {
        let g = figure_1();
        let engine = Engine::new(&g);
        let p = Pattern::t("?p", "founder", "?o");
        let opts = ExecOpts::seq().with_deadline(Duration::from_secs(3600));
        let out = engine
            .run(&p, &opts, &Pool::sequential())
            .expect("in budget");
        assert_eq!(out.mappings, eval(&engine, &p));
    }
}
