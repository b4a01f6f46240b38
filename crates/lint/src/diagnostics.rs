//! Structured, span-carrying diagnostics.
//!
//! Every finding the analyzer emits is a [`Diagnostic`]: a
//! machine-readable [`RuleId`], a [`Severity`], the byte [`Span`] of the
//! offending subpattern, and a human-readable message. Rule codes are
//! stable — tools (the CI gate, the server's admission policy, editor
//! integrations) match on `rule.code()`, never on message text.

use owql_parser::Span;
use std::fmt;
use std::str::FromStr;

/// Diagnostic severity, ordered `Info < Warn < Error` so thresholds
/// like `--deny warn` are a simple `>=` comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only: classification facts, conservative unknowns.
    Info,
    /// Likely a mistake, but the query still has well-defined answers.
    Warn,
    /// The query is broken or will be rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        };
        write!(f, "{name}")
    }
}

impl FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Severity, String> {
        match s.to_ascii_lowercase().as_str() {
            "info" => Ok(Severity::Info),
            "warn" | "warning" => Ok(Severity::Warn),
            "error" => Ok(Severity::Error),
            other => Err(format!(
                "unknown severity '{other}' (expected info, warn, or error)"
            )),
        }
    }
}

/// Machine-readable rule identifiers. `code()` gives the stable
/// short form used in output and golden tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// WD001 — an OPT right-hand side reuses a variable from outside
    /// the OPT without binding it on the left (Definition 3.4).
    BadOptVariable,
    /// WD002 — a FILTER condition mentions a variable its operand can
    /// never bind.
    UnsafeFilter,
    /// FL001 — a FILTER condition is statically always false, so the
    /// subpattern has no answers.
    AlwaysFalseFilter,
    /// FL002 — a FILTER condition is statically always true and can be
    /// dropped.
    AlwaysTrueFilter,
    /// FL003 — a FILTER conjunction is unsatisfiable by constraint
    /// propagation (constant-equality closure / bound reasoning) even
    /// though no single atom is statically false; the optimizer prunes
    /// the subtree.
    UnsatisfiableConjunction,
    /// PJ001 — a SELECT projects a variable its operand can never bind.
    DeadProjection,
    /// UN001 — a UNION branch duplicates an earlier branch and
    /// contributes no answers.
    DuplicateUnionBranch,
    /// UN002 — a UNION branch is subsumed by a sibling branch
    /// (AND/FILTER fragment containment): every answer it produces is
    /// already produced by the sibling, so it contributes nothing.
    SubsumedBranch,
    /// BD001 — a `FILTER` above an `OPT` forces a variable the
    /// optional side certainly binds and the mandatory side never
    /// binds, so the OPT behaves exactly like an AND.
    OptCollapsible,
    /// NS001 — `NS(P)` where `P` is already weakly monotone by shape,
    /// so the NS closure is a no-op the optimizer elides.
    RedundantNs,
    /// NS002 — `NS(P)` whose effect is not statically decidable; the
    /// analyzer reports its class conservatively.
    OpaqueNs,
    /// FR001 — the pattern's fragment classification and complexity
    /// class (always emitted, at the root).
    Fragment,
    /// AD001 — the query was shed by an admission policy because its
    /// class exceeds the configured ceiling.
    AdmissionDenied,
}

impl RuleId {
    /// Stable short code, e.g. `WD001`.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::BadOptVariable => "WD001",
            RuleId::UnsafeFilter => "WD002",
            RuleId::AlwaysFalseFilter => "FL001",
            RuleId::AlwaysTrueFilter => "FL002",
            RuleId::UnsatisfiableConjunction => "FL003",
            RuleId::DeadProjection => "PJ001",
            RuleId::DuplicateUnionBranch => "UN001",
            RuleId::SubsumedBranch => "UN002",
            RuleId::OptCollapsible => "BD001",
            RuleId::RedundantNs => "NS001",
            RuleId::OpaqueNs => "NS002",
            RuleId::Fragment => "FR001",
            RuleId::AdmissionDenied => "AD001",
        }
    }

    /// The severity a diagnostic with this rule carries by default.
    pub fn default_severity(self) -> Severity {
        match self {
            RuleId::BadOptVariable
            | RuleId::UnsafeFilter
            | RuleId::DeadProjection
            | RuleId::DuplicateUnionBranch
            | RuleId::SubsumedBranch => Severity::Warn,
            RuleId::AlwaysFalseFilter
            | RuleId::UnsatisfiableConjunction
            | RuleId::AdmissionDenied => Severity::Error,
            RuleId::AlwaysTrueFilter
            | RuleId::RedundantNs
            | RuleId::OpaqueNs
            | RuleId::OptCollapsible
            | RuleId::Fragment => Severity::Info,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One analyzer finding, anchored to the byte span of the offending
/// subpattern in the pattern's canonical rendering (or in the original
/// source when the analysis started from [`crate::analyze_source`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Severity (the rule's default unless a caller overrides it).
    pub severity: Severity,
    /// Byte range of the offending subpattern.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic with the rule's default severity.
    pub fn new(rule: RuleId, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule,
            severity: rule.default_severity(),
            span,
            message: message.into(),
        }
    }

    /// JSON object rendering used by the CLI's `--format json` and the
    /// server's `/lint` endpoint; `line`/`column` locate the span start
    /// in `input`.
    pub fn to_json(&self, input: &str) -> String {
        let (line, column) = owql_parser::line_col(input, self.span.start);
        format!(
            "{{\"rule\": \"{}\", \"severity\": \"{}\", \"start\": {}, \"end\": {}, \"line\": {}, \"column\": {}, \"message\": {}}}",
            self.rule,
            self.severity,
            self.span.start,
            self.span.end,
            line,
            column,
            owql_obs::json::string(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.rule, self.span, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_parses() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!("warning".parse::<Severity>(), Ok(Severity::Warn));
        assert_eq!("ERROR".parse::<Severity>(), Ok(Severity::Error));
        assert!("fatal".parse::<Severity>().is_err());
    }

    #[test]
    fn diagnostic_display_carries_code_span_and_message() {
        let d = Diagnostic::new(
            RuleId::UnsafeFilter,
            Span::new(4, 19),
            "filter mentions ?z, which its operand never binds",
        );
        assert_eq!(d.severity, Severity::Warn);
        assert_eq!(
            d.to_string(),
            "warn[WD002] at 4..19: filter mentions ?z, which its operand never binds"
        );
    }

    #[test]
    fn json_rendering_escapes_and_locates() {
        let d = Diagnostic::new(RuleId::Fragment, Span::new(3, 5), "a \"quoted\"\nnote");
        let json = d.to_json("ab\ncdef");
        assert!(json.contains("\"rule\": \"FR001\""));
        assert!(json.contains("\"line\": 2"));
        assert!(json.contains("\"column\": 1"));
        assert!(json.contains("\\\"quoted\\\"\\nnote"));
    }
}
