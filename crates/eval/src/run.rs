//! The unified execution API: one options struct instead of a method
//! matrix.
//!
//! Before this module the engine's entry points formed a 2×2×… grid —
//! `evaluate`, `evaluate_parallel`, `evaluate_traced`,
//! `evaluate_parallel_traced`, plus `profile{,_parallel}` one crate up
//! — and every new execution concern (a deadline, a cache toggle)
//! threatened to double it again. Pérez/Arenas/Gutierrez frame
//! evaluation as a single semantic function `⟦P⟧G` parameterized by the
//! pattern; the *strategy* (parallelism, tracing, caching, deadlines)
//! is an engine concern that belongs in data, not in method names.
//!
//! [`ExecOpts`] is that data. [`Engine::run`](crate::Engine::run)
//! consumes it and returns a [`RunOutcome`]; `owql-store` wraps the
//! same options in a `QueryRequest` and adds cache + epoch handling;
//! `owql-server` maps them from query-string parameters. (The legacy
//! `evaluate*` method matrix lived on for two releases as
//! `#[deprecated]` one-liners over this seam and has been removed.)
//!
//! [`ExecOpts::max_class`] is the **admission ceiling**: before doing
//! any work, [`Engine::run`](crate::Engine::run) statically classifies
//! the pattern with `owql-lint` and refuses ([`EvalError::AdmissionDenied`])
//! any query whose fragment's complexity class ranks above the ceiling
//! — the Section 7 landscape (`P ⊆ NP/coNP ⊆ DP ⊆ BH₂ₖ ⊆ P^NP_∥ ⊆
//! PSPACE`) used as an operational resource bound.
//!
//! Deadlines are enforced *cooperatively*: an [`EvalBudget`] derived
//! from [`ExecOpts::deadline`] is threaded through the evaluator and
//! checked between operators (and periodically inside each spine
//! step). An exceeded budget surfaces as
//! [`EvalError::Timeout`] — the evaluation unwinds cleanly instead of
//! hanging, which is what lets a networked front-end map it to `504`
//! without poisoning its worker pool.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How the operators are scheduled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded, operator-by-operator evaluation.
    #[default]
    Seq,
    /// Fan out UNION spines, partitioned AND-spines, and NS filtering
    /// across the caller-supplied [`owql_exec::Pool`].
    Parallel,
}

/// Execution options for one query run — the single knob set behind
/// [`Engine::run`](crate::Engine::run), `Store::query_request`, and the
/// HTTP server.
///
/// ```
/// use owql_eval::ExecOpts;
/// use std::time::Duration;
/// let opts = ExecOpts::parallel()
///     .traced()
///     .with_deadline(Duration::from_millis(250));
/// assert!(opts.trace);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOpts {
    /// Sequential or pool-parallel scheduling.
    pub mode: ExecMode,
    /// Record per-operator spans and pool stats; the outcome then
    /// carries a [`owql_obs::Profile`].
    pub trace: bool,
    /// Consult/fill the epoch-keyed result cache (only meaningful for
    /// store-level entry points; the bare engine has no cache).
    pub cache: bool,
    /// Run the static optimizer before evaluating.
    pub optimize: bool,
    /// Wall-clock budget for the evaluation; exceeding it returns
    /// [`EvalError::Timeout`] instead of running to completion.
    pub deadline: Option<Duration>,
    /// Admission ceiling: refuse the query up front with
    /// [`EvalError::AdmissionDenied`] if its statically determined
    /// complexity class ranks above this one. `None` admits everything.
    pub max_class: Option<owql_lint::ComplexityClass>,
    /// Slow-query threshold: store-level entry points log any query
    /// whose end-to-end latency reaches this bound into the metrics
    /// hub's ring-buffer slow-query log. `None` disables capture.
    pub slow_query: Option<Duration>,
}

impl Default for ExecOpts {
    /// [`ExecOpts::seq`].
    fn default() -> ExecOpts {
        ExecOpts::seq()
    }
}

impl ExecOpts {
    /// Sequential evaluation, cache on, no tracing, no deadline.
    pub fn seq() -> ExecOpts {
        ExecOpts {
            mode: ExecMode::Seq,
            trace: false,
            cache: true,
            optimize: false,
            deadline: None,
            max_class: None,
            slow_query: None,
        }
    }

    /// Pool-parallel evaluation, cache on, no tracing, no deadline.
    pub fn parallel() -> ExecOpts {
        ExecOpts {
            mode: ExecMode::Parallel,
            ..ExecOpts::seq()
        }
    }

    /// Enables span/metric recording for this run.
    pub fn traced(mut self) -> ExecOpts {
        self.trace = true;
        self
    }

    /// Bypasses (and does not fill) the store-level result cache.
    pub fn uncached(mut self) -> ExecOpts {
        self.cache = false;
        self
    }

    /// Runs the static optimizer on the pattern first.
    pub fn optimized(mut self) -> ExecOpts {
        self.optimize = true;
        self
    }

    /// Caps the evaluation's wall-clock time.
    pub fn with_deadline(mut self, limit: Duration) -> ExecOpts {
        self.deadline = Some(limit);
        self
    }

    /// Caps the admissible complexity class (see [`check_admission`]).
    pub fn with_max_class(mut self, ceiling: owql_lint::ComplexityClass) -> ExecOpts {
        self.max_class = Some(ceiling);
        self
    }

    /// Sets the slow-query capture threshold (see
    /// [`ExecOpts::slow_query`]).
    pub fn with_slow_query(mut self, threshold: Duration) -> ExecOpts {
        self.slow_query = Some(threshold);
        self
    }

    /// A builder over [`ExecOpts::seq`] defaults. The chainable
    /// `ExecOpts` methods mutate a `Copy` value, which works until a
    /// caller needs to apply options conditionally; the builder gives
    /// that callers-with-knobs shape a stable home so new fields stop
    /// breaking struct-literal construction sites.
    ///
    /// ```
    /// use owql_eval::{ExecMode, ExecOpts};
    /// let opts = ExecOpts::builder()
    ///     .mode(ExecMode::Parallel)
    ///     .trace(true)
    ///     .deadline_ms(Some(250))
    ///     .build();
    /// assert!(opts.trace && opts.mode == ExecMode::Parallel);
    /// ```
    pub fn builder() -> ExecOptsBuilder {
        ExecOptsBuilder {
            opts: ExecOpts::seq(),
        }
    }
}

/// Chainable constructor for [`ExecOpts`]; see [`ExecOpts::builder`].
#[derive(Clone, Copy, Debug)]
pub struct ExecOptsBuilder {
    opts: ExecOpts,
}

impl ExecOptsBuilder {
    /// Sequential or pool-parallel scheduling.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.opts.mode = mode;
        self
    }

    /// Record per-operator spans and pool stats.
    pub fn trace(mut self, trace: bool) -> Self {
        self.opts.trace = trace;
        self
    }

    /// Consult/fill the store-level result cache.
    pub fn cache(mut self, cache: bool) -> Self {
        self.opts.cache = cache;
        self
    }

    /// Run the static optimizer first.
    pub fn optimize(mut self, optimize: bool) -> Self {
        self.opts.optimize = optimize;
        self
    }

    /// Wall-clock budget; `None` runs to completion.
    pub fn deadline(mut self, deadline: Option<Duration>) -> Self {
        self.opts.deadline = deadline;
        self
    }

    /// Wall-clock budget in milliseconds (the `/v1` wire unit).
    pub fn deadline_ms(self, ms: Option<u64>) -> Self {
        self.deadline(ms.map(Duration::from_millis))
    }

    /// Admission ceiling; `None` admits everything.
    pub fn max_class(mut self, ceiling: Option<owql_lint::ComplexityClass>) -> Self {
        self.opts.max_class = ceiling;
        self
    }

    /// Slow-query capture threshold; `None` disables capture.
    pub fn slow_query(mut self, threshold: Option<Duration>) -> Self {
        self.opts.slow_query = threshold;
        self
    }

    /// The finished options value.
    pub fn build(self) -> ExecOpts {
        self.opts
    }
}

/// Enforces [`ExecOpts::max_class`]: classifies `pattern` with the
/// static analyzer and returns [`EvalError::AdmissionDenied`] when its
/// complexity class ranks strictly above the configured ceiling. A
/// `None` ceiling admits everything without classifying.
pub fn check_admission(
    pattern: &owql_algebra::pattern::Pattern,
    opts: &ExecOpts,
) -> Result<(), EvalError> {
    let Some(ceiling) = opts.max_class else {
        return Ok(());
    };
    let fragment = owql_lint::classify(pattern);
    let class = fragment.complexity();
    if class.rank() > ceiling.rank() {
        return Err(EvalError::AdmissionDenied {
            class,
            ceiling,
            fragment: fragment.to_string(),
        });
    }
    Ok(())
}

/// Why an evaluation did not produce an answer set.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalError {
    /// The cooperative deadline expired mid-evaluation.
    Timeout {
        /// The budget that was exceeded.
        limit: Duration,
    },
    /// The query's statically determined complexity class exceeds the
    /// configured [`ExecOpts::max_class`] ceiling.
    AdmissionDenied {
        /// The class the query was classified into.
        class: owql_lint::ComplexityClass,
        /// The ceiling it exceeded.
        ceiling: owql_lint::ComplexityClass,
        /// Display name of the paper fragment the classifier chose.
        fragment: String,
    },
    /// The pattern mentions more distinct variables than one columnar
    /// row can hold (domain masks are single 64-bit words). Rejected
    /// before any evaluation work.
    TooManyVariables {
        /// Distinct variables in the pattern.
        count: usize,
        /// The most a pattern may mention
        /// ([`owql_algebra::id_mapping::WIDTH_LIMIT`]).
        limit: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Timeout { limit } => {
                write!(
                    f,
                    "evaluation exceeded its {}ms deadline",
                    limit.as_millis()
                )
            }
            EvalError::AdmissionDenied {
                class,
                ceiling,
                fragment,
            } => {
                write!(
                    f,
                    "query admission denied: statically classified as {fragment}, whose \
                     evaluation is {class}-hard, above the configured {ceiling} ceiling"
                )
            }
            EvalError::TooManyVariables { count, limit } => {
                write!(
                    f,
                    "pattern mentions {count} distinct variables; the evaluator supports at \
                     most {limit}"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// What [`Engine::run`](crate::Engine::run) produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The answer set `⟦P⟧G`.
    pub mappings: owql_algebra::MappingSet,
    /// The recorded profile — `Some` iff [`ExecOpts::trace`] was set.
    pub profile: Option<owql_obs::Profile>,
    /// Certified pruning rewrites the optimizer applied before the
    /// engine saw the plan (all-zero unless [`ExecOpts::optimize`] was
    /// set and a lint-proven prune fired).
    pub prunes: owql_obs::PruneObs,
    /// The plan that ran: the one [`Engine::explain`](crate::Engine::explain)
    /// returns for the same (optimized) pattern and snapshot.
    pub plan: crate::plan::Plan,
}

/// How many candidate rows a spine step extends between deadline
/// checks. Checks read the clock, so they are amortized over a
/// block of bindings; one block is far below any usable deadline.
pub(crate) const BUDGET_CHECK_STRIDE: usize = 1024;

/// A cooperative wall-clock budget, threaded by reference through the
/// evaluator behind [`Engine`](crate::Engine).
///
/// The budget is shared across pool workers (it is `Sync`); once any
/// checker observes the deadline passed, the `expired` flag makes every
/// subsequent [`EvalBudget::check`] fail without reading the clock, so
/// a timed-out parallel evaluation unwinds quickly on all workers.
#[derive(Debug)]
pub struct EvalBudget {
    started: Instant,
    limit: Option<Duration>,
    deadline: Option<Instant>,
    expired: AtomicBool,
}

impl EvalBudget {
    /// A budget that never expires: [`EvalBudget::check`] is a single
    /// branch on `None`.
    pub fn unlimited() -> EvalBudget {
        let now = Instant::now();
        EvalBudget {
            started: now,
            limit: None,
            deadline: None,
            expired: AtomicBool::new(false),
        }
    }

    /// A budget of `limit` wall-clock time, starting now.
    pub fn with_deadline(limit: Duration) -> EvalBudget {
        let now = Instant::now();
        EvalBudget {
            started: now,
            limit: Some(limit),
            deadline: now.checked_add(limit),
            expired: AtomicBool::new(false),
        }
    }

    /// The budget an [`ExecOpts`] asks for.
    pub fn from_opts(opts: &ExecOpts) -> EvalBudget {
        match opts.deadline {
            Some(limit) => EvalBudget::with_deadline(limit),
            None => EvalBudget::unlimited(),
        }
    }

    /// `true` once the deadline has been observed as passed.
    pub fn is_expired(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the budget started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Returns `Err(Timeout)` iff the deadline has passed. Called
    /// between operators and every `BUDGET_CHECK_STRIDE` candidate rows
    /// inside a spine step.
    pub fn check(&self) -> Result<(), EvalError> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let limit = self.limit.expect("deadline implies limit");
        if self.expired.load(Ordering::Relaxed) || Instant::now() >= deadline {
            self.expired.store(true, Ordering::Relaxed);
            return Err(EvalError::Timeout { limit });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_expires() {
        let budget = EvalBudget::unlimited();
        for _ in 0..10_000 {
            assert_eq!(budget.check(), Ok(()));
        }
        assert!(!budget.is_expired());
    }

    #[test]
    fn zero_deadline_expires_immediately_and_stays_expired() {
        let budget = EvalBudget::with_deadline(Duration::ZERO);
        assert!(matches!(
            budget.check(),
            Err(EvalError::Timeout { limit }) if limit == Duration::ZERO
        ));
        assert!(budget.is_expired());
        assert!(budget.check().is_err());
    }

    #[test]
    fn generous_deadline_passes_checks() {
        let budget = EvalBudget::with_deadline(Duration::from_secs(3600));
        assert_eq!(budget.check(), Ok(()));
        assert!(!budget.is_expired());
    }

    #[test]
    fn expiry_is_visible_across_threads() {
        let budget = EvalBudget::with_deadline(Duration::ZERO);
        assert!(budget.check().is_err());
        std::thread::scope(|s| {
            s.spawn(|| assert!(budget.is_expired() && budget.check().is_err()))
                .join()
                .expect("checker thread");
        });
    }

    #[test]
    fn opts_builders_compose() {
        let opts = ExecOpts::parallel()
            .traced()
            .uncached()
            .optimized()
            .with_deadline(Duration::from_millis(5))
            .with_slow_query(Duration::from_millis(100));
        assert_eq!(opts.mode, ExecMode::Parallel);
        assert!(opts.trace && opts.optimize && !opts.cache);
        assert_eq!(opts.deadline, Some(Duration::from_millis(5)));
        assert_eq!(opts.slow_query, Some(Duration::from_millis(100)));
        assert_eq!(ExecOpts::seq().slow_query, None);
        assert_eq!(ExecOpts::seq(), ExecOpts::default());
        assert_eq!(opts.max_class, None);
        let capped = opts.with_max_class(owql_lint::ComplexityClass::Dp);
        assert_eq!(capped.max_class, Some(owql_lint::ComplexityClass::Dp));
    }

    #[test]
    fn admission_compares_ranks_against_the_ceiling() {
        use owql_lint::ComplexityClass;
        let af = owql_parser::parse_pattern("((?x, a, b) AND (?x, c, ?y))").unwrap();
        let ns = owql_parser::parse_pattern("NS(((?x, a, b) OPT (?x, c, ?y)))").unwrap();

        // No ceiling admits everything.
        assert_eq!(check_admission(&ns, &ExecOpts::seq()), Ok(()));

        let capped = ExecOpts::seq().with_max_class(ComplexityClass::Np);
        assert_eq!(check_admission(&af, &capped), Ok(()));
        let denied = check_admission(&ns, &capped).unwrap_err();
        let EvalError::AdmissionDenied {
            class,
            ceiling,
            fragment,
        } = &denied
        else {
            panic!("expected AdmissionDenied, got {denied:?}");
        };
        assert_eq!(*class, ComplexityClass::Pspace);
        assert_eq!(*ceiling, ComplexityClass::Np);
        assert_eq!(fragment, "NS-SPARQL");
        assert!(denied
            .to_string()
            .contains("above the configured NP ceiling"));

        // A class at exactly the ceiling is admitted; coNP passes an
        // NP ceiling (same rank).
        let wd = owql_parser::parse_pattern("((?x, a, b) OPT (?x, c, ?y))").unwrap();
        assert_eq!(check_admission(&wd, &capped), Ok(()));
    }

    #[test]
    fn timeout_displays_limit() {
        let e = EvalError::Timeout {
            limit: Duration::from_millis(250),
        };
        assert!(e.to_string().contains("250ms"));
    }
}
