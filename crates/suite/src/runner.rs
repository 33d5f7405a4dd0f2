//! The corpus conformance runner: feeds every program of a suite through the
//! full inference pipeline and scores each verdict against the corpus ground
//! truth.
//!
//! This is the executable form of the paper's central soundness claim — the
//! re-verification of Sec. 6 "found no false positives or negatives" — turned
//! into a regression gate: a sound analyzer never answers *terminating* on a
//! ground-truth non-terminating program nor *non-terminating* on a terminating
//! one, no matter how imprecise it is allowed to be. Precision (how many
//! definite answers are produced) is tracked separately so the conformance
//! tests can pin per-suite floors that keep the reproduction competitive with
//! the paper's Fig. 10/11 numbers without ever trading soundness for them.
//!
//! Programs are analysed in parallel through an [`AnalysisSession`] batch (the
//! analysis is single-threaded and deterministic per program, so a parallel run
//! produces byte-identical reports), and programs sharing one canonical form are
//! analysed once and served from the session's cross-program summary cache —
//! with identical reports either way, which the cache-equivalence tests pin.

use crate::corpora::Suite;
use crate::templates::Expected;
use std::fmt;
use tnt_infer::session::panic_note;
use tnt_infer::{analyze_source, AnalysisSession, BatchEntry, InferOptions, Verdict};

/// The scored outcome of analysing one benchmark program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Termination proven ("Y").
    Yes,
    /// Non-termination proven ("N").
    No,
    /// Inconclusive ("U").
    Unknown,
    /// The deterministic work budget was exhausted ("T/O").
    Timeout,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Yes => write!(f, "Y"),
            Outcome::No => write!(f, "N"),
            Outcome::Unknown => write!(f, "U"),
            Outcome::Timeout => write!(f, "T/O"),
        }
    }
}

/// The record of one program's run.
#[derive(Clone, Debug)]
pub struct ProgramReport {
    /// Program name (unique within its suite).
    pub name: String,
    /// Ground truth from the corpus.
    pub expected: Expected,
    /// The analyzer's outcome.
    pub outcome: Outcome,
    /// Wall-clock seconds spent on this program: the analysis time when it was
    /// actually analysed, the (near-zero) cache-lookup span when it was served
    /// from a summary-cache tier. Summing a warm pass therefore reflects what
    /// the pass actually cost instead of re-billing the original analyses.
    pub elapsed: f64,
    /// Deterministic work units spent (simplex pivots + DNF cubes).
    pub work: u64,
    /// Error note when the analysis failed abnormally (e.g. a caught panic);
    /// such programs score as [`Outcome::Unknown`] rather than aborting the run.
    pub note: Option<String>,
}

impl ProgramReport {
    /// `true` when the outcome contradicts the ground truth — the soundness
    /// violation the paper's re-verification rules out.
    pub fn is_unsound(&self) -> bool {
        matches!(
            (self.outcome, self.expected),
            (Outcome::Yes, Expected::NonTerminating) | (Outcome::No, Expected::Terminating)
        )
    }

    /// `true` when the outcome is the definite answer matching the ground truth.
    pub fn is_correct_definite(&self) -> bool {
        matches!(
            (self.outcome, self.expected),
            (Outcome::Yes, Expected::Terminating) | (Outcome::No, Expected::NonTerminating)
        )
    }
}

/// The scored result of running one whole suite.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// The suite's display name (the paper's table header).
    pub suite: String,
    /// Per-program records, in corpus order.
    pub programs: Vec<ProgramReport>,
}

impl SuiteReport {
    /// Number of programs run.
    pub fn total(&self) -> usize {
        self.programs.len()
    }

    /// The programs whose outcome contradicts the ground truth (must be empty
    /// for a sound analyzer).
    pub fn unsound(&self) -> Vec<&ProgramReport> {
        self.programs.iter().filter(|p| p.is_unsound()).collect()
    }

    /// Number of correct definite answers (`Y` on terminating, `N` on
    /// non-terminating).
    pub fn correct_definite(&self) -> usize {
        self.programs
            .iter()
            .filter(|p| p.is_correct_definite())
            .count()
    }

    /// Fraction of programs with a correct definite answer, in `[0, 1]`.
    ///
    /// An empty suite scores `0.0`: a run that silently produced no programs
    /// must *fail* a precision floor, not vacuously satisfy it (the previous
    /// `1.0` let an empty report sail past every conformance gate).
    pub fn precision(&self) -> f64 {
        if self.programs.is_empty() {
            return 0.0;
        }
        self.correct_definite() as f64 / self.programs.len() as f64
    }

    /// Outcome counts `(yes, no, unknown, timeout)` — one Fig. 10/11 cell group.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for p in &self.programs {
            match p.outcome {
                Outcome::Yes => counts.0 += 1,
                Outcome::No => counts.1 += 1,
                Outcome::Unknown => counts.2 += 1,
                Outcome::Timeout => counts.3 += 1,
            }
        }
        counts
    }

    /// Renders the report as one row of the paper's `Y N U T/O` table format.
    pub fn render_row(&self) -> String {
        let (yes, no, unknown, timeout) = self.counts();
        format!(
            "{:<16} total={:<4} Y={:<4} N={:<4} U={:<4} T/O={:<4} precision={:.2} unsound={}",
            self.suite,
            self.total(),
            yes,
            no,
            unknown,
            timeout,
            self.precision(),
            self.unsound().len()
        )
    }
}

/// Analyses one program source and scores it against its ground truth.
///
/// A panic inside the analysis is caught and recorded as an [`Outcome::Unknown`]
/// report with an error [`ProgramReport::note`], so one crashing program cannot
/// abort a whole suite run.
pub fn run_program(
    name: &str,
    source: &str,
    expected: Expected,
    options: &InferOptions,
) -> ProgramReport {
    run_program_with(name, expected, || match analyze_source(source, options) {
        Err(_) => (Outcome::Unknown, 0),
        Ok(result) => {
            let outcome = match result.program_verdict() {
                Verdict::Terminating => Outcome::Yes,
                Verdict::NonTerminating => Outcome::No,
                Verdict::Unknown if result.stats.budget_exhausted => Outcome::Timeout,
                Verdict::Unknown => Outcome::Unknown,
            };
            (outcome, result.stats.work)
        }
    })
}

/// Scores one program with a caller-supplied analysis hook, isolating panics.
///
/// A caught panic still accounts for the deterministic work units the analysis
/// spent before aborting (snapshotting the per-thread counter around the hook),
/// so suite totals never silently drop the cost of a crashed program.
pub fn run_program_with(
    name: &str,
    expected: Expected,
    analysis: impl FnOnce() -> (Outcome, u64),
) -> ProgramReport {
    let start = std::time::Instant::now();
    let work_before = tnt_infer::solve::work_units();
    let (outcome, work, note) =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(analysis)) {
            Ok((outcome, work)) => (outcome, work, None),
            Err(payload) => (
                Outcome::Unknown,
                tnt_infer::solve::work_units().wrapping_sub(work_before),
                Some(panic_note(payload.as_ref())),
            ),
        };
    ProgramReport {
        name: name.to_string(),
        expected,
        outcome,
        elapsed: start.elapsed().as_secs_f64(),
        work,
        note,
    }
}

/// Runs a whole suite through the analyzer, in parallel across programs, with a
/// fresh per-call [`AnalysisSession`] (summary cache enabled): programs that
/// normalise to the same canonical form are analysed once and served from the
/// cache thereafter.
///
/// The report lists programs in corpus order regardless of scheduling, and the
/// analysis itself is deterministic per program, so two runs of the same suite —
/// with any worker count, cache on or off — produce identical reports (up to the
/// wall-clock `elapsed` fields).
pub fn run_suite(suite: &Suite, options: &InferOptions) -> SuiteReport {
    run_suite_session(&AnalysisSession::new(*options), suite)
}

/// [`run_suite`] with an explicit worker count (`1` forces a sequential run).
pub fn run_suite_with(suite: &Suite, options: &InferOptions, workers: usize) -> SuiteReport {
    run_suite_session_with(&AnalysisSession::new(*options), suite, workers)
}

/// Runs a suite through a caller-supplied [`AnalysisSession`], so several suites
/// (or repeated runs) share one cross-program summary cache.
pub fn run_suite_session(session: &AnalysisSession, suite: &Suite) -> SuiteReport {
    run_suite_session_with(session, suite, default_workers())
}

/// [`run_suite_session`] with an explicit worker count.
pub fn run_suite_session_with(
    session: &AnalysisSession,
    suite: &Suite,
    workers: usize,
) -> SuiteReport {
    let sources: Vec<&str> = suite.programs.iter().map(|p| p.source.as_str()).collect();
    let entries = session.analyze_batch_with(&sources, workers);
    SuiteReport {
        suite: suite.category.name().to_string(),
        programs: suite
            .programs
            .iter()
            .zip(entries)
            .map(|(program, entry)| score_entry(&program.name, program.expected, entry))
            .collect(),
    }
}

/// The scored outcome of one batch entry.
fn entry_outcome(entry: &BatchEntry) -> Outcome {
    match &entry.result {
        Err(_) => Outcome::Unknown,
        Ok(result) => match result.program_verdict() {
            Verdict::Terminating => Outcome::Yes,
            Verdict::NonTerminating => Outcome::No,
            Verdict::Unknown if result.stats.budget_exhausted => Outcome::Timeout,
            Verdict::Unknown => Outcome::Unknown,
        },
    }
}

/// Scores one batch entry against its ground truth.
fn score_entry(name: &str, expected: Expected, entry: BatchEntry) -> ProgramReport {
    ProgramReport {
        name: name.to_string(),
        expected,
        outcome: entry_outcome(&entry),
        elapsed: entry.elapsed,
        work: entry.work,
        note: entry.panic_note,
    }
}

/// [`run_suite_with`] with a caller-supplied per-program analysis hook (used by
/// tests to inject failures, and by custom analyzers).
///
/// A panicking hook is isolated per program: the program scores as
/// [`Outcome::Unknown`] with an error note, every other program still runs, and
/// the report stays in corpus order — one crash never aborts or reorders a run.
pub fn run_suite_with_analysis<F>(suite: &Suite, workers: usize, analysis: F) -> SuiteReport
where
    F: Fn(&crate::templates::BenchProgram) -> ProgramReport + Sync,
{
    let workers = workers.max(1);
    let mut programs: Vec<Option<ProgramReport>> = vec![None; suite.programs.len()];
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots = std::sync::Mutex::new(&mut programs);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(program) = suite.programs.get(index) else {
                    return;
                };
                // Isolate the hook: a panic becomes an Unknown report with a note.
                // The work units and wall-clock spent before the abort are still
                // attributed to the program (the hook runs wholly on this worker
                // thread, so the per-thread counter snapshot brackets it exactly)
                // instead of being silently dropped from the suite totals.
                let start = std::time::Instant::now();
                let work_before = tnt_infer::solve::work_units();
                let report = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    analysis(program)
                })) {
                    Ok(report) => report,
                    Err(payload) => ProgramReport {
                        name: program.name.clone(),
                        expected: program.expected,
                        outcome: Outcome::Unknown,
                        elapsed: start.elapsed().as_secs_f64(),
                        work: tnt_infer::solve::work_units().wrapping_sub(work_before),
                        note: Some(panic_note(payload.as_ref())),
                    },
                };
                // A worker that panicked between lock() and the slot write would
                // poison the mutex; recover the inner data instead of aborting
                // the whole suite on a single program's crash.
                let mut guard = match slots.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                guard[index] = Some(report);
            });
        }
    });
    SuiteReport {
        suite: suite.category.name().to_string(),
        programs: programs
            .into_iter()
            .map(|p| p.expect("every index was processed"))
            .collect(),
    }
}

/// Renders every method summary inferred for every program of a suite, keyed by
/// `program/method`, through a fresh cache-enabled session. Used by the
/// determinism regression test: two runs with the same corpus seed must produce
/// byte-identical renderings.
pub fn rendered_summaries(suite: &Suite, options: &InferOptions) -> Vec<(String, String)> {
    rendered_summaries_session(&AnalysisSession::new(*options), suite)
}

/// [`rendered_summaries`] through a caller-supplied session — the
/// cache-equivalence gate renders the same suite through a caching and a
/// non-caching session and asserts byte identity.
pub fn rendered_summaries_session(
    session: &AnalysisSession,
    suite: &Suite,
) -> Vec<(String, String)> {
    let sources: Vec<&str> = suite.programs.iter().map(|p| p.source.as_str()).collect();
    let entries = session.analyze_batch(&sources);
    let mut out = Vec::new();
    for (program, entry) in suite.programs.iter().zip(entries) {
        if let Ok(result) = entry.result {
            for (label, summary) in &result.summaries {
                out.push((format!("{}/{}", program.name, label), summary.render()));
            }
        }
    }
    out
}

/// Every program of a suite as its record in the corpus golden file, in corpus
/// order: `(key, record)` with the key `suite/program`. A record is one header
/// line (`key outcome work=… validated=… poisoned=…`) followed by each summary
/// label indented two spaces and its rendering indented four, so records are
/// split at the lines that do not start with a space. A program the front end or
/// verifier rejects records `error: <message>` instead of the summaries.
///
/// The conformance gate compares these records with `tests/golden/corpus.txt`;
/// the `corpus_golden` example prints them for all five corpora.
pub fn golden_records(session: &AnalysisSession, suite: &Suite) -> Vec<(String, String)> {
    use std::fmt::Write;
    let sources: Vec<&str> = suite.programs.iter().map(|p| p.source.as_str()).collect();
    let entries = session.analyze_batch(&sources);
    suite
        .programs
        .iter()
        .zip(entries)
        .map(|(program, entry)| {
            let key = format!("{}/{}", suite.category.name(), program.name);
            let mut record = format!("{key} {} work={}", entry_outcome(&entry), entry.work);
            match &entry.result {
                Ok(result) => {
                    let _ = writeln!(
                        record,
                        " validated={} poisoned={}",
                        result.validated, result.poisoned
                    );
                    for (label, summary) in &result.summaries {
                        let _ = writeln!(record, "  {label}");
                        for line in summary.render().lines() {
                            let _ = writeln!(record, "    {line}");
                        }
                    }
                }
                Err(error) => {
                    let _ = writeln!(record, "\n  error: {}", error.message);
                }
            }
            (key, record)
        })
        .collect()
}

fn default_workers() -> usize {
    tnt_infer::session::default_workers()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpora::Category;

    fn tiny_suite() -> Suite {
        Suite {
            category: Category::Crafted,
            programs: vec![
                crate::templates::countdown("t_down", 1),
                crate::templates::diverging_counter("n_up", 0, 1),
                crate::templates::nondet_loop("u_nondet"),
            ],
        }
    }

    #[test]
    fn runner_scores_against_ground_truth() {
        let report = run_suite_with(&tiny_suite(), &InferOptions::default(), 2);
        assert_eq!(report.total(), 3);
        assert!(report.unsound().is_empty());
        let by_name: std::collections::BTreeMap<&str, Outcome> = report
            .programs
            .iter()
            .map(|p| (p.name.as_str(), p.outcome))
            .collect();
        assert_eq!(by_name["t_down"], Outcome::Yes);
        assert_eq!(by_name["n_up"], Outcome::No);
        assert_eq!(by_name["u_nondet"], Outcome::Unknown);
    }

    #[test]
    fn parallel_and_sequential_reports_agree() {
        let suite = tiny_suite();
        let options = InferOptions::default();
        let sequential = run_suite_with(&suite, &options, 1);
        let parallel = run_suite_with(&suite, &options, 4);
        for (a, b) in sequential.programs.iter().zip(&parallel.programs) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.work, b.work);
        }
    }

    #[test]
    fn panicking_analysis_hook_is_isolated_per_program() {
        let suite = tiny_suite();
        let options = InferOptions::default();
        let run = || {
            run_suite_with_analysis(&suite, 2, |program| {
                if program.name == "n_up" {
                    panic!("deliberate failure on {}", program.name);
                }
                run_program(&program.name, &program.source, program.expected, &options)
            })
        };
        // Silence the default panic-hook backtrace spam for the deliberate panics.
        let previous_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run();
        let again = run();
        std::panic::set_hook(previous_hook);

        // The whole suite still ran, in corpus order.
        assert_eq!(report.total(), 3);
        let names: Vec<&str> = report.programs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["t_down", "n_up", "u_nondet"]);
        // The crashed program scores Unknown with an error note; nothing unsound.
        let crashed = &report.programs[1];
        assert_eq!(crashed.outcome, Outcome::Unknown);
        let note = crashed.note.as_deref().expect("panic recorded as note");
        assert!(note.contains("deliberate failure on n_up"), "note: {note}");
        assert!(report.unsound().is_empty());
        // The other programs are unaffected.
        assert_eq!(report.programs[0].outcome, Outcome::Yes);
        assert!(report.programs[0].note.is_none());
        // And the run stays deterministic.
        for (a, b) in report.programs.iter().zip(&again.programs) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.note, b.note);
        }
    }

    #[test]
    fn run_program_with_catches_panics() {
        let report = run_program_with("boom", Expected::Terminating, || {
            panic!("kaboom {}", 42);
        });
        assert_eq!(report.outcome, Outcome::Unknown);
        assert!(report.note.unwrap().contains("kaboom 42"));
    }

    /// A panic must not zero out the work units the analysis had already spent —
    /// the pre-abort cost is attributed to the crashing program.
    #[test]
    fn caught_panic_still_attributes_spent_work() {
        let options = InferOptions::default();
        let program = crate::templates::countdown("t_down", 1);
        // Reference: how much deterministic work the program costs on its own.
        let clean = run_program(&program.name, &program.source, program.expected, &options);
        assert!(clean.work > 0, "countdown must cost some solver work");

        let previous_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Hook spends real solver work, then aborts.
        let report = run_program_with("boom", Expected::Terminating, || {
            let _ = tnt_infer::analyze_source(&program.source, &options);
            panic!("after real work");
        });
        // Same leak in the suite-level panic isolation path.
        let suite = tiny_suite();
        let suite_report = run_suite_with_analysis(&suite, 1, |p| {
            let _ = tnt_infer::analyze_source(&p.source, &options);
            panic!("always fails on {}", p.name);
        });
        std::panic::set_hook(previous_hook);

        assert_eq!(report.outcome, Outcome::Unknown);
        assert!(
            report.work >= clean.work,
            "work before the abort must be attributed: got {} < {}",
            report.work,
            clean.work
        );
        for p in &suite_report.programs {
            assert_eq!(p.outcome, Outcome::Unknown);
            assert!(p.note.is_some());
            assert!(
                p.work > 0,
                "{}: pre-abort work must reach the suite totals",
                p.name
            );
            assert!(p.elapsed > 0.0, "{}: elapsed must be measured", p.name);
        }
    }

    /// A shared session reuses summaries across suites (and across repeated
    /// runs of the same suite) without changing any report field the scorer
    /// reads.
    #[test]
    fn shared_session_reuses_summaries_without_changing_reports() {
        let suite = tiny_suite();
        let session = tnt_infer::AnalysisSession::new(InferOptions::default());
        let first = run_suite_session_with(&session, &suite, 2);
        let misses_after_first = session.stats().cache_misses;
        let second = run_suite_session_with(&session, &suite, 2);
        let stats = session.stats();
        assert_eq!(
            stats.cache_misses, misses_after_first,
            "second run must be served entirely from the cache"
        );
        assert!(stats.cache_hits() >= suite.len() as u64);
        for (a, b) in first.programs.iter().zip(&second.programs) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.work, b.work);
        }
        // And the cached reports agree with a fresh uncached run.
        let uncached = run_suite_session_with(
            &tnt_infer::AnalysisSession::without_cache(InferOptions::default()),
            &suite,
            2,
        );
        for (a, b) in first.programs.iter().zip(&uncached.programs) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.work, b.work);
        }
    }

    #[test]
    fn unsoundness_is_detected_by_the_scorer() {
        let report = ProgramReport {
            name: "x".into(),
            expected: Expected::NonTerminating,
            outcome: Outcome::Yes,
            elapsed: 0.0,
            work: 0,
            note: None,
        };
        assert!(report.is_unsound());
        assert!(!report.is_correct_definite());
    }

    #[test]
    fn precision_counts_only_correct_definites() {
        let mk = |expected, outcome| ProgramReport {
            name: "p".into(),
            expected,
            outcome,
            elapsed: 0.0,
            work: 0,
            note: None,
        };
        let report = SuiteReport {
            suite: "mini".into(),
            programs: vec![
                mk(Expected::Terminating, Outcome::Yes),
                mk(Expected::Terminating, Outcome::Unknown),
                mk(Expected::NonTerminating, Outcome::No),
                mk(Expected::NonTerminating, Outcome::Timeout),
            ],
        };
        assert_eq!(report.correct_definite(), 2);
        assert!((report.precision() - 0.5).abs() < 1e-9);
        let (yes, no, unknown, timeout) = report.counts();
        assert_eq!((yes, no, unknown, timeout), (1, 1, 1, 1));
    }

    /// An empty report must fail precision floors instead of vacuously passing
    /// them (a corpus-generation bug would otherwise be invisible).
    #[test]
    fn empty_suite_has_zero_precision() {
        let report = SuiteReport {
            suite: "empty".into(),
            programs: vec![],
        };
        assert_eq!(report.precision(), 0.0);
        assert_eq!(report.total(), 0);
        assert!(report.unsound().is_empty());
    }
}
