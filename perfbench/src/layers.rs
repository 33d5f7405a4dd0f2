//! The traced run's view of the pipeline: each fresh program is taken through
//! the layers' public functions one at a time, timing each call from outside
//! and reading the public work counters around it.
//!
//! | span              | call                                             |
//! |-------------------|--------------------------------------------------|
//! | `lang.frontend`   | `tnt_lang::frontend`                             |
//! | `verify`          | `tnt_verify::hoare::verify_program`              |
//! | `infer.solve`     | `tnt_infer::solve::solve`                        |
//! | `infer.validate`  | `tnt_infer::solve::validate_with_budget`         |
//! | `infer.summary`   | `tnt_infer::summary::summaries` and `render`     |
//!
//! The decomposition must reproduce `analyze_program` exactly (verdict,
//! rendered summaries, `stats.work`, `validated`); [`Decomposed::matches`]
//! is that check.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tnt_infer::solve::{SolveOptions, SolveStats};
use tnt_infer::{AnalysisResult, InferOptions};

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The layer boundary (`lang.frontend`, `serve.request`, …).
    pub name: &'static str,
    /// The program or request the span belongs to.
    pub subject: u64,
    /// Microseconds since the trace started.
    pub start_us: f64,
    /// Microseconds since the trace started.
    pub end_us: f64,
}

/// Spans kept in memory until the run writes them out.
pub struct Trace {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its value and duration in seconds.
    /// `f` receives the new span's id, to parent the spans it opens.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        subject: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let value = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name,
            subject,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            end_us: (end - self.origin).as_secs_f64() * 1e6,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
        (value, (end - start).as_secs_f64())
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_by_key(|s| s.id);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"subject\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.name, s.subject, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// The solver options `analyze_program` derives from `options`.
fn solve_options(options: &InferOptions) -> SolveOptions {
    SolveOptions {
        max_iterations: options.max_iterations,
        enable_base_case: options.enable_base_case,
        enable_case_split: options.enable_case_split,
        lexicographic: options.lexicographic,
        max_lex_components: options.max_lex_components,
        multiphase: options.multiphase,
        max_phases: options.max_phases,
        recurrent: options.recurrent,
        orbit_enrichment: options.orbit_enrichment,
        work_budget: options.work_budget,
        max_total_cases: options.max_total_cases,
        max_splits_per_family: options.max_splits_per_family,
    }
}

/// One program taken through the layers.
#[derive(Clone, Debug, Default)]
pub struct Decomposed {
    /// Seconds in `tnt_lang::frontend`.
    pub frontend_s: f64,
    /// Seconds in `verify_program` (heap entailment included).
    pub verify_s: f64,
    /// Pre- plus post-assumptions handed to the solver.
    pub assumptions: u64,
    /// Seconds in `solve`.
    pub solve_s: f64,
    /// The solver's own statistics.
    pub stats: SolveStats,
    /// Seconds in `validate_with_budget`.
    pub validate_s: f64,
    /// Whether the inferred specifications re-verified.
    pub validated: bool,
    /// Seconds in `summaries` and `render`.
    pub summary_s: f64,
    /// Summary cases rendered.
    pub cases: u64,
    /// Simplex pivots during `solve`.
    pub solve_pivots: u64,
    /// Simplex pivots during validation.
    pub validate_pivots: u64,
    /// DNF cubes across all layers.
    pub cubes: u64,
    /// The entry verdict (`Y`/`N`/`U`/`T/O`).
    pub verdict: &'static str,
    /// Rendered summaries by label.
    pub rendered: BTreeMap<String, String>,
}

impl Decomposed {
    /// Seconds across all layers.
    pub fn total_s(&self) -> f64 {
        self.frontend_s + self.verify_s + self.solve_s + self.validate_s + self.summary_s
    }

    /// Why this decomposition differs from the reference answer, if it does.
    pub fn matches(&self, reference: &Reference) -> Result<(), String> {
        if self.verdict != reference.verdict {
            return Err(format!("verdict {} vs {}", self.verdict, reference.verdict));
        }
        if self.stats.work != reference.work {
            return Err(format!("work {} vs {}", self.stats.work, reference.work));
        }
        if self.validated != reference.validated {
            return Err(format!(
                "validated {} vs {}",
                self.validated, reference.validated
            ));
        }
        if self.rendered != reference.rendered {
            return Err("rendered summaries differ".to_string());
        }
        Ok(())
    }
}

/// The parts of an `analyze_program` result the decomposition must
/// reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// The entry verdict (`Y`/`N`/`U`/`T/O`).
    pub verdict: &'static str,
    /// Rendered summaries by label.
    pub rendered: BTreeMap<String, String>,
    /// `stats.work`.
    pub work: u64,
    /// Whether the inferred specifications re-verified.
    pub validated: bool,
}

impl Reference {
    /// The reference parts of `result`.
    pub fn of(result: &AnalysisResult) -> Reference {
        Reference {
            verdict: crate::corpus::verdict(result),
            rendered: result
                .summaries
                .iter()
                .map(|(label, s)| (label.clone(), s.render()))
                .collect(),
            work: result.stats.work,
            validated: result.validated,
        }
    }
}

/// Takes `source` through the layers under `options`, recording spans under
/// a `program` span with `subject` as its id.
pub fn decompose(
    source: &str,
    options: &InferOptions,
    trace: &Trace,
    subject: u64,
) -> Result<Decomposed, String> {
    let (result, _) = trace.span("program", None, subject, |root| {
        decompose_in(source, options, trace, subject, root)
    });
    result
}

fn decompose_in(
    source: &str,
    options: &InferOptions,
    trace: &Trace,
    subject: u64,
    root: u64,
) -> Result<Decomposed, String> {
    use tnt_logic::dnf::cube_work;
    use tnt_solver::simplex::pivot_work;
    let mut out = Decomposed::default();
    let cubes_before = cube_work();
    let (program, secs) = trace.span("lang.frontend", Some(root), subject, |_| {
        tnt_lang::frontend(source)
    });
    out.frontend_s = secs;
    let program = program?;
    let overflow_before = tnt_solver::rational::overflow_work();
    let (analysis, secs) = trace.span("verify", Some(root), subject, |_| {
        tnt_verify::hoare::verify_program(&program)
    });
    out.verify_s = secs;
    let analysis = analysis.map_err(|e| e.to_string())?;
    out.assumptions = analysis
        .methods
        .values()
        .map(|m| (m.pre_assumptions.len() + m.post_assumptions.len()) as u64)
        .sum();
    let pivots = pivot_work();
    let ((theta, stats), secs) = trace.span("infer.solve", Some(root), subject, |_| {
        tnt_infer::solve::solve(&analysis, &solve_options(options))
    });
    out.solve_s = secs;
    out.stats = stats;
    out.solve_pivots = pivot_work().wrapping_sub(pivots);
    let pivots = pivot_work();
    let (validated, secs) = trace.span("infer.validate", Some(root), subject, |_| {
        !options.validate
            || tnt_infer::solve::validate_with_budget(&analysis, &theta, options.work_budget)
    });
    out.validate_s = secs;
    out.validated = validated;
    out.validate_pivots = pivot_work().wrapping_sub(pivots);
    let (summaries, secs) = trace.span("infer.summary", Some(root), subject, |_| {
        // The same labels `analyze_program` gives: the method name, or
        // `method#scenario` when a method has several scenarios.
        let mut by_label = BTreeMap::new();
        for summary in tnt_infer::summary::summaries(&analysis, &theta) {
            let scenario = format!("{}#{}", summary.method, summary.scenario_index);
            let label = if by_label.contains_key(&summary.method)
                || analysis.methods.contains_key(&scenario)
            {
                scenario
            } else {
                summary.method.clone()
            };
            by_label.insert(label, summary);
        }
        let rendered: BTreeMap<String, String> = by_label
            .iter()
            .map(|(label, s)| (label.clone(), s.render()))
            .collect();
        (by_label, rendered)
    });
    out.summary_s = secs;
    let (summaries, rendered) = summaries;
    if tnt_solver::rational::overflow_work() != overflow_before {
        return Err("saturated rational arithmetic; the decomposition does not degrade".into());
    }
    out.cubes = cube_work().wrapping_sub(cubes_before);
    out.cases = summaries.values().map(|s| s.cases.len() as u64).sum();
    let result = AnalysisResult {
        summaries,
        stats: out.stats,
        validated: out.validated,
        poisoned: false,
        elapsed: 0.0,
    };
    out.verdict = crate::corpus::verdict(&result);
    out.rendered = rendered;
    Ok(out)
}

/// Decomposes every source on `workers` threads, in input order.
pub fn decompose_all(
    sources: &[&str],
    options: &InferOptions,
    trace: &Trace,
    workers: usize,
) -> Vec<Result<Decomposed, String>> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<Decomposed, String>>>> =
        Mutex::new(vec![None; sources.len()]);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(source) = sources.get(index) else {
                    return;
                };
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    decompose(source, options, trace, index as u64)
                }))
                .unwrap_or_else(|payload| Err(tnt_infer::session::panic_note(payload.as_ref())));
                slots.lock().expect("no worker panics holding the slots")[index] = Some(outcome);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panics holding the slots")
        .into_iter()
        .map(|slot| slot.expect("every index was decomposed"))
        .collect()
}

/// Sums of the decomposed layers, for the per-layer metrics and the per-suite
/// rows.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Programs decomposed.
    pub programs: u64,
    /// Sum of [`Decomposed::frontend_s`].
    pub frontend_s: f64,
    /// Sum of [`Decomposed::verify_s`].
    pub verify_s: f64,
    /// Sum of [`Decomposed::assumptions`].
    pub assumptions: u64,
    /// Sum of [`Decomposed::solve_s`].
    pub solve_s: f64,
    /// Sum of `stats.work`.
    pub work: u64,
    /// Sum of `stats.iterations`.
    pub iterations: u64,
    /// Sum of `stats.case_splits`.
    pub case_splits: u64,
    /// Sum of `stats.ranking_attempts`.
    pub ranking_attempts: u64,
    /// Sum of `stats.nonterm_attempts`.
    pub nonterm_attempts: u64,
    /// Sum of `stats.orbit_attempts`.
    pub orbit_attempts: u64,
    /// Sum of `stats.orbit_work`.
    pub orbit_work: u64,
    /// Programs whose solve ran out of budget.
    pub budget_exhausted: u64,
    /// Sum of [`Decomposed::validate_s`].
    pub validate_s: f64,
    /// Programs whose validation failed.
    pub validate_failed: u64,
    /// Sum of [`Decomposed::summary_s`].
    pub summary_s: f64,
    /// Sum of [`Decomposed::cases`].
    pub cases: u64,
    /// Sum of [`Decomposed::solve_pivots`].
    pub solve_pivots: u64,
    /// Sum of [`Decomposed::validate_pivots`].
    pub validate_pivots: u64,
    /// Sum of [`Decomposed::cubes`].
    pub cubes: u64,
}

impl Totals {
    /// Adds one program.
    pub fn add(&mut self, d: &Decomposed) {
        self.programs += 1;
        self.frontend_s += d.frontend_s;
        self.verify_s += d.verify_s;
        self.assumptions += d.assumptions;
        self.solve_s += d.solve_s;
        self.work += d.stats.work;
        self.iterations += d.stats.iterations as u64;
        self.case_splits += d.stats.case_splits as u64;
        self.ranking_attempts += d.stats.ranking_attempts as u64;
        self.nonterm_attempts += d.stats.nonterm_attempts as u64;
        self.orbit_attempts += d.stats.orbit_attempts as u64;
        self.orbit_work += d.stats.orbit_work;
        self.budget_exhausted += u64::from(d.stats.budget_exhausted);
        self.validate_s += d.validate_s;
        self.validate_failed += u64::from(!d.validated);
        self.summary_s += d.summary_s;
        self.cases += d.cases;
        self.solve_pivots += d.solve_pivots;
        self.validate_pivots += d.validate_pivots;
        self.cubes += d.cubes;
    }

    /// One table row.
    pub fn row(&self, label: &str) -> String {
        format!(
            "{label:<16} {:>5} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>10} {:>10} {:>10}",
            self.programs,
            self.frontend_s,
            self.verify_s,
            self.solve_s,
            self.validate_s,
            self.summary_s,
            self.solve_pivots,
            self.validate_pivots,
            self.cubes
        )
    }

    /// The header of [`Totals::row`].
    pub fn header() -> String {
        format!(
            "{:<16} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10}",
            "layers",
            "progs",
            "front_s",
            "verify_s",
            "solve_s",
            "valid_s",
            "summ_s",
            "s_pivots",
            "v_pivots",
            "cubes"
        )
    }

    /// The per-layer metrics of the `lang`, `verify`, `infer` and `solver`/`logic` layers.
    pub fn metrics(&self, out: &mut crate::Outcome) {
        out.metric("lang.frontend_s", self.frontend_s, "s");
        out.metric("verify.s", self.verify_s, "s");
        out.metric("verify.assumptions", self.assumptions as f64, "count");
        out.metric("infer.solve.s", self.solve_s, "s");
        out.metric("infer.solve.work", self.work as f64, "count");
        out.metric("infer.solve.iterations", self.iterations as f64, "count");
        out.metric("infer.solve.case_splits", self.case_splits as f64, "count");
        out.metric(
            "infer.solve.ranking_attempts",
            self.ranking_attempts as f64,
            "count",
        );
        out.metric(
            "infer.solve.nonterm_attempts",
            self.nonterm_attempts as f64,
            "count",
        );
        out.metric(
            "infer.solve.orbit_attempts",
            self.orbit_attempts as f64,
            "count",
        );
        out.metric("infer.solve.orbit_work", self.orbit_work as f64, "count");
        out.metric(
            "infer.solve.budget_exhausted",
            self.budget_exhausted as f64,
            "count",
        );
        out.metric("solver.solve_pivots", self.solve_pivots as f64, "count");
        out.metric(
            "solver.validate_pivots",
            self.validate_pivots as f64,
            "count",
        );
        out.metric(
            "solver.us_per_pivot",
            self.solve_s * 1e6 / self.solve_pivots.max(1) as f64,
            "us",
        );
        out.metric("logic.cubes", self.cubes as f64, "count");
        out.metric("infer.validate.s", self.validate_s, "s");
        out.metric(
            "infer.validate.failed",
            self.validate_failed as f64,
            "count",
        );
        out.metric("infer.summary.s", self.summary_s, "s");
        out.metric("infer.summary.cases", self.cases as f64, "count");
    }
}
