//! The top-level analyzer: parse → verify → solve → summarise, in one call.

use crate::solve::{solve, validate_with_budget, SolveOptions, SolveStats};
use crate::summary::{summaries, MethodSummary, Verdict};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;
use tnt_lang::ast::Program;
use tnt_verify::hoare::verify_program;

/// Options of the end-to-end analysis (a thin wrapper over [`SolveOptions`], exposed so
/// the ablation benchmarks can switch individual features off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InferOptions {
    /// Maximum number of refinement iterations.
    pub max_iterations: usize,
    /// Semantic base-case inference (Sec. 5.1).
    pub enable_base_case: bool,
    /// Abductive case splitting (Sec. 5.6).
    pub enable_case_split: bool,
    /// Lexicographic ranking measures.
    pub lexicographic: bool,
    /// Maximum number of lexicographic components.
    pub max_lex_components: usize,
    /// The multiphase/max ranking domain (see [`SolveOptions::multiphase`]).
    pub multiphase: bool,
    /// Maximum depth of a nested multiphase tuple.
    pub max_phases: usize,
    /// Closed recurrent-set synthesis as the non-termination fall-back
    /// (see [`SolveOptions::recurrent`]).
    pub recurrent: bool,
    /// Orbit-enriched recurrent-set synthesis, staged after the abductive
    /// splitter is exhausted (see [`SolveOptions::orbit_enrichment`]).
    pub orbit_enrichment: bool,
    /// Re-verify the inferred specifications (the paper's re-checking step).
    pub validate: bool,
    /// Deterministic work budget in simplex pivots (see [`SolveOptions::work_budget`]).
    pub work_budget: u64,
    /// Upper bound on the total number of inferred cases
    /// (see [`SolveOptions::max_total_cases`]).
    pub max_total_cases: usize,
    /// Quota of abductive splits per root case family
    /// (see [`SolveOptions::max_splits_per_family`]).
    pub max_splits_per_family: usize,
}

impl Default for InferOptions {
    fn default() -> Self {
        let solve_defaults = SolveOptions::default();
        InferOptions {
            max_iterations: 12,
            enable_base_case: true,
            enable_case_split: true,
            lexicographic: true,
            max_lex_components: 4,
            multiphase: true,
            max_phases: 3,
            recurrent: true,
            orbit_enrichment: true,
            validate: true,
            work_budget: solve_defaults.work_budget,
            max_total_cases: solve_defaults.max_total_cases,
            max_splits_per_family: solve_defaults.max_splits_per_family,
        }
    }
}

impl InferOptions {
    fn solve_options(&self) -> SolveOptions {
        SolveOptions {
            max_iterations: self.max_iterations,
            enable_base_case: self.enable_base_case,
            enable_case_split: self.enable_case_split,
            lexicographic: self.lexicographic,
            max_lex_components: self.max_lex_components,
            multiphase: self.multiphase,
            max_phases: self.max_phases,
            recurrent: self.recurrent,
            orbit_enrichment: self.orbit_enrichment,
            work_budget: self.work_budget,
            max_total_cases: self.max_total_cases,
            max_splits_per_family: self.max_splits_per_family,
        }
    }
}

/// An end-to-end analysis error (front-end, specification or verification failure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InferError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inference error: {}", self.message)
    }
}

impl std::error::Error for InferError {}

/// The result of analysing a program.
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// Summaries keyed by label (`method` or `method#scenario` for multi-scenario
    /// specifications).
    pub summaries: BTreeMap<String, MethodSummary>,
    /// Solver statistics.
    pub stats: SolveStats,
    /// Whether the re-verification of the inferred specifications succeeded
    /// (`true` when validation is disabled).
    pub validated: bool,
    /// `true` when saturating rational arithmetic corrupted some value during this
    /// analysis. The summaries have been degraded to the inconclusive
    /// budget-exhausted outcome (`MayLoop`, `stats.budget_exhausted` set), and the
    /// bit travels *with the result* — a cache entry served on a different thread
    /// stays poisoned without consulting the per-thread
    /// [`tnt_solver::rational::overflow_work`] counter that detected it.
    pub poisoned: bool,
    /// Wall-clock time of the analysis in seconds.
    pub elapsed: f64,
}

impl AnalysisResult {
    /// The verdict for a given method: combines all of its scenarios
    /// (every scenario terminating → terminating; any definitely non-terminating
    /// scenario → non-terminating; otherwise unknown).
    ///
    /// Returns `None` when no scenario of that method was analysed at all — a
    /// method absent from the summary table, as opposed to one the analysis ran on
    /// but could not classify (`Some(Verdict::Unknown)`).
    pub fn verdict(&self, method: &str) -> Option<Verdict> {
        let collected: Vec<Verdict> = self
            .summaries
            .values()
            .filter(|s| s.method == method)
            .map(MethodSummary::verdict)
            .collect();
        if collected.is_empty() {
            return None;
        }
        Some(if collected.contains(&Verdict::NonTerminating) {
            Verdict::NonTerminating
        } else if collected.iter().all(|v| *v == Verdict::Terminating) {
            Verdict::Terminating
        } else {
            Verdict::Unknown
        })
    }

    /// The verdict for the program's entry point (`main` if present, otherwise the
    /// first analysed method), which is how the benchmark harness scores a program.
    pub fn program_verdict(&self) -> Verdict {
        let entry = if self.summaries.values().any(|s| s.method == "main") {
            "main".to_string()
        } else {
            match self.summaries.values().next() {
                Some(first) => first.method.clone(),
                None => return Verdict::Terminating, // no unknown scenarios at all
            }
        };
        self.verdict(&entry)
            .expect("entry method taken from the summary table")
    }

    /// The inferred precondition of the program's entry point (same entry choice
    /// as [`Self::program_verdict`]): the first scenario of the entry method that
    /// carries one. `None` when the entry's behaviour is definite on every input
    /// or nothing definite is known.
    pub fn program_precondition(&self) -> Option<&crate::summary::Precondition> {
        let entry = if self.summaries.values().any(|s| s.method == "main") {
            "main"
        } else {
            self.summaries.values().next()?.method.as_str()
        };
        self.summaries
            .values()
            .filter(|s| s.method == entry)
            .find_map(|s| s.precondition.as_ref())
    }
}

/// Analyses a parsed (and front-end processed) program.
///
/// # Errors
///
/// Returns an [`InferError`] when verification fails (e.g. a call to an undeclared
/// method or a non-affine specification).
pub fn analyze_program(
    program: &Program,
    options: &InferOptions,
) -> Result<AnalysisResult, InferError> {
    let start = Instant::now();
    // Snapshot before verification: the Hoare pass already runs entailment checks
    // through the same saturating rational arithmetic, and assumptions corrupted
    // there must poison the final result too.
    let overflow_before = tnt_solver::rational::overflow_work();
    let analysis = verify_program(program).map_err(|e| InferError {
        message: e.to_string(),
    })?;
    let (theta, mut stats) = solve(&analysis, &options.solve_options());
    let mut validated = if options.validate {
        validate_with_budget(&analysis, &theta, options.work_budget)
    } else {
        true
    };
    let mut summary_map = BTreeMap::new();
    for summary in summaries(&analysis, &theta) {
        let occupied = summary_map.contains_key(&summary.method);
        let label = if occupied
            || analysis
                .methods
                .contains_key(&format!("{}#{}", summary.method, summary.scenario_index))
        {
            format!("{}#{}", summary.method, summary.scenario_index)
        } else {
            summary.method.clone()
        };
        summary_map.insert(label, summary);
    }
    // The thread-local overflow counter only detects saturation *here*, on the
    // thread that ran the analysis; from this point on the poison is carried by
    // the result itself so it survives caching and thread hand-offs.
    let poisoned = tnt_solver::rational::overflow_work() != overflow_before;
    if poisoned {
        // Some rational operation saturated: every value computed since — guards,
        // measures, verdicts — is untrustworthy. Degrade the whole result to the
        // inconclusive budget-exhausted outcome instead of risking an unsound
        // claim (the deterministic analogue of the paper's T/O on this program).
        stats.budget_exhausted = true;
        validated = false;
        for summary in summary_map.values_mut() {
            summary.cases = vec![crate::summary::SummaryCase {
                guard: tnt_logic::Formula::True,
                status: crate::summary::CaseStatus::MayLoop,
            }];
            summary.precondition = None;
        }
    }
    Ok(AnalysisResult {
        summaries: summary_map,
        stats,
        validated,
        poisoned,
        elapsed: start.elapsed().as_secs_f64(),
    })
}

/// Analyses source text: runs the full front-end (parse, type-check, desugar,
/// normalise) followed by [`analyze_program`].
///
/// # Errors
///
/// Returns an [`InferError`] for parse/type errors as well as verification failures.
pub fn analyze_source(source: &str, options: &InferOptions) -> Result<AnalysisResult, InferError> {
    let program = tnt_lang::frontend(source).map_err(|message| InferError { message })?;
    analyze_program(&program, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::CaseStatus;

    #[test]
    fn end_to_end_foo() {
        let result = analyze_source(
            "void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }",
            &InferOptions::default(),
        )
        .unwrap();
        let foo = &result.summaries["foo"];
        assert_eq!(foo.cases.len(), 3);
        assert_eq!(result.verdict("foo"), Some(Verdict::NonTerminating));
        assert!(result.validated);
        let rendered = foo.render();
        assert!(rendered.contains("Loop"));
        assert!(rendered.contains("ensures false"));
    }

    #[test]
    fn terminating_program_is_yes() {
        let result = analyze_source(
            r#"void main(int n) { int i = 0; while (i < n) { i = i + 1; } }"#,
            &InferOptions::default(),
        )
        .unwrap();
        assert_eq!(result.program_verdict(), Verdict::Terminating);
    }

    #[test]
    fn diverging_program_is_no() {
        let result = analyze_source(
            r#"void main(int n) { while (n >= 0) { n = n + 1; } }"#,
            &InferOptions::default(),
        )
        .unwrap();
        assert_eq!(result.program_verdict(), Verdict::NonTerminating);
    }

    #[test]
    fn unknown_when_nondeterministic() {
        let result = analyze_source(
            r#"void main(int n) { while (nondet() > 0) { n = n + 1; } }"#,
            &InferOptions::default(),
        )
        .unwrap();
        assert_eq!(result.program_verdict(), Verdict::Unknown);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(analyze_source("void broken(", &InferOptions::default()).is_err());
    }

    #[test]
    fn near_i128_coefficients_degrade_soundly_instead_of_panicking() {
        // Coefficients close to i128::MAX overflow the exact rational arithmetic
        // somewhere inside the Farkas/simplex pipeline. The analysis must not
        // panic; it must answer with the inconclusive budget-exhausted outcome.
        let huge = i128::MAX / 2 - 7;
        let near = i128::MAX / 3 - 11;
        let source = format!(
            "void main(int x, int y)\n\
             {{ while (x > {near}) {{ x = x - {huge}; y = y + {near}; }} }}"
        );
        let result = analyze_source(&source, &InferOptions::default()).unwrap();
        if result.stats.budget_exhausted {
            // Overflow (or budget) poisoned the run: every case must have been
            // degraded to the inconclusive outcome, never an unsound claim.
            assert_ne!(result.program_verdict(), Verdict::NonTerminating);
        }
        // Determinism: a second run answers identically.
        let again = analyze_source(&source, &InferOptions::default()).unwrap();
        assert_eq!(result.program_verdict(), again.program_verdict());
        assert_eq!(result.stats.budget_exhausted, again.stats.budget_exhausted);
    }

    #[test]
    fn verdict_distinguishes_missing_methods_from_unknown_outcomes() {
        let result = analyze_source(
            r#"void main(int n) { while (nondet() > 0) { n = n + 1; } }"#,
            &InferOptions::default(),
        )
        .unwrap();
        // A method the analysis ran on but could not classify is Some(Unknown)…
        assert_eq!(result.verdict("main"), Some(Verdict::Unknown));
        // …while a method that was never analysed is None, not Unknown.
        assert_eq!(result.verdict("no_such_method"), None);
    }

    #[test]
    fn mc91_with_spec_terminates() {
        let result = analyze_source(
            r#"int Mc91(int n)
                 requires true ensures n <= 100 && res == 91 || n > 100 && res == n - 10;
               { if (n > 100) { return n - 10; } else { return Mc91(Mc91(n + 11)); } }"#,
            &InferOptions::default(),
        )
        .unwrap();
        assert_eq!(result.verdict("Mc91"), Some(Verdict::Terminating));
    }

    #[test]
    fn ackermann_without_spec_has_mayloop_case() {
        let result = analyze_source(
            r#"int Ack(int m, int n)
               { if (m == 0) { return n + 1; }
                 else { if (n == 0) { return Ack(m - 1, 1); }
                        else { return Ack(m - 1, Ack(m, n - 1)); } } }"#,
            &InferOptions::default(),
        )
        .unwrap();
        let ack = &result.summaries["Ack"];
        // Without the res >= n + 1 specification the paper reports MayLoop for the
        // m > 0 ∧ n >= 0 scenario; at minimum the method must not be classified
        // terminating outright, and must not be unsoundly classified Loop everywhere.
        assert_ne!(result.verdict("Ack"), Some(Verdict::Terminating));
        assert!(ack
            .cases
            .iter()
            .any(|c| matches!(c.status, CaseStatus::Term(_) | CaseStatus::MayLoop)));
    }

    #[test]
    fn ackermann_with_spec_terminates() {
        let result = analyze_source(
            r#"int Ack(int m, int n)
                 requires m >= 0 && n >= 0 ensures res >= n + 1;
               { if (m == 0) { return n + 1; }
                 else { if (n == 0) { return Ack(m - 1, 1); }
                        else { return Ack(m - 1, Ack(m, n - 1)); } } }"#,
            &InferOptions::default(),
        )
        .unwrap();
        assert_eq!(result.verdict("Ack"), Some(Verdict::Terminating));
        let ack = &result.summaries["Ack"];
        // The ranking measure is lexicographic ([m, n] in the paper).
        assert!(ack
            .cases
            .iter()
            .any(|c| matches!(&c.status, CaseStatus::Term(m) if m.len() >= 2)));
    }
}
