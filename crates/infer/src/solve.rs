//! The overall inference algorithm `solve` (Fig. 6) and the post-hoc validation of the
//! inferred definitions.

use crate::prove::{
    prove_nonterm, prove_nonterm_assuming, prove_nonterm_recurrent,
    prove_nonterm_recurrent_enriched, prove_term, prove_term_conditional, split, ProveOptions,
};
use crate::specialize::{specialize_post, specialize_pre, EdgeTarget, ReachGraph};
use crate::theta::{CaseState, Theta};
use std::collections::{BTreeMap, BTreeSet};
use tnt_logic::{entail, qe, simplify, Formula};
use tnt_verify::hoare::ProgramAnalysis;

/// Tunable options of the solver (a superset of [`ProveOptions`], exposed for the
/// ablation study).
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Maximum number of refinement iterations (`MAX_ITER` in Fig. 6).
    pub max_iterations: usize,
    /// Enable the semantic base-case inference of Sec. 5.1.
    pub enable_base_case: bool,
    /// Enable abductive case-splitting (Sec. 5.6).
    pub enable_case_split: bool,
    /// Enable lexicographic ranking measures.
    pub lexicographic: bool,
    /// Maximum number of lexicographic components.
    pub max_lex_components: usize,
    /// Enable the multiphase/max ranking domain (nested multiphase tuples,
    /// `max(f, g)` lexicographic components, and entry-restricted conditional
    /// termination proofs).
    pub multiphase: bool,
    /// Maximum depth of a nested multiphase tuple.
    pub max_phases: usize,
    /// Enable closed recurrent-set synthesis as the non-termination fall-back
    /// (and during validation of `Loop` cases).
    pub recurrent: bool,
    /// Enable orbit-enriched recurrent-set synthesis: candidate atoms harvested
    /// from concrete orbit simulation augment the guard/cube pool, fired only
    /// after the abductive splitter's candidates are exhausted. Requires
    /// [`SolveOptions::recurrent`]. Its work is accounted separately in
    /// [`SolveStats::orbit_work`].
    pub orbit_enrichment: bool,
    /// Deterministic work budget, counted in *work units*: simplex pivots plus DNF
    /// cubes produced (the two super-linear cores of the back-end). When the
    /// refinement loop has spent more than this, remaining unknown cases are left
    /// unresolved (they finalize to `MayLoop`) and
    /// [`SolveStats::budget_exhausted`] is set — the analyzer's equivalent of the
    /// paper's T/O outcome, counted in solver work rather than wall-clock time so
    /// results stay reproducible.
    ///
    /// Historically this sat at `20_000` because the budget was the only thing
    /// cutting the abductive splitter's weakest-precondition spiral. With
    /// [`SolveOptions::max_splits_per_family`] capping that spiral
    /// structurally, no corpus program needs more than a few thousand units —
    /// except orbit-enriched recurrent-set synthesis on conserved-drift loops,
    /// which legitimately spends a few hundred thousand units certifying a
    /// fitted region. The default is sized to let that pass finish, leaving
    /// the budget as a safety net for genuinely pathological inputs.
    pub work_budget: u64,
    /// Upper bound on the total number of cases across all definitions. Abductive
    /// case splitting stops refining once the store reaches this size, preventing
    /// the exponential blow-up of repeated splits on programs (e.g. gcd-style
    /// loops) whose termination argument is outside the affine fragment.
    pub max_total_cases: usize,
    /// Deterministic quota of abductive splits per *root case family* (a case
    /// and everything later split off from it). On drift programs whose
    /// divergence boundary is not affine-reachable, the abductive splitter's
    /// weakest-precondition fall-back yields an unbounded chain of "survives
    /// one more step" slabs; the quota is the point at which its candidates
    /// are declared exhausted for that family, which both keeps such programs
    /// at a clean `Unknown` (rather than burning the whole work budget into a
    /// T/O) and is the staging trigger for the orbit-enriched pass.
    pub max_splits_per_family: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_iterations: 12,
            enable_base_case: true,
            enable_case_split: true,
            lexicographic: true,
            max_lex_components: 4,
            multiphase: true,
            max_phases: 3,
            recurrent: true,
            orbit_enrichment: true,
            work_budget: 600_000,
            max_total_cases: 64,
            max_splits_per_family: 6,
        }
    }
}

impl SolveOptions {
    fn prove_options(&self) -> ProveOptions {
        ProveOptions {
            lexicographic: self.lexicographic,
            max_lex_components: self.max_lex_components,
            enable_case_split: self.enable_case_split,
            multiphase: self.multiphase,
            max_phases: self.max_phases,
            recurrent: self.recurrent,
            orbit_enrichment: self.orbit_enrichment,
        }
    }
}

/// Statistics of one solver run (used by the benchmark harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Number of refinement iterations executed.
    pub iterations: usize,
    /// Number of case splits applied.
    pub case_splits: usize,
    /// Number of ranking-function synthesis attempts.
    pub ranking_attempts: usize,
    /// Number of non-termination proof attempts.
    pub nonterm_attempts: usize,
    /// Number of orbit-enriched recurrent-set synthesis attempts (the staged
    /// pass that fires once the abductive splitter is exhausted).
    pub orbit_attempts: usize,
    /// Work units (simplex pivots + DNF cubes) spent by this run.
    pub work: u64,
    /// The slice of [`SolveStats::work`] spent inside orbit-enriched synthesis
    /// attempts — the enrichment's own work accounting, so its cost is
    /// attributable separately from the cheap syntactic passes.
    pub orbit_work: u64,
    /// `true` when the run stopped early because [`SolveOptions::work_budget`] or
    /// [`SolveOptions::max_total_cases`] was exhausted (the deterministic T/O).
    pub budget_exhausted: bool,
}

/// Runs the paper's `solve` procedure over the assumptions of a verified program.
pub fn solve(analysis: &ProgramAnalysis, options: &SolveOptions) -> (Theta, SolveStats) {
    let mut theta = Theta::new();
    let mut stats = SolveStats::default();
    for method in analysis.methods.values() {
        theta.register(&method.upr_name, &method.upo_name, method.vars.clone());
    }
    // Base-case inference (lines 3–5 of Fig. 6).
    if options.enable_base_case {
        for method in analysis.methods.values() {
            // The projections below sit in a *strengthening* position: the TRUE-cube
            // over-approximation `to_dnf` falls back to at its cube cap would wrongly
            // enlarge the inferred base case. Skip the base case for this method if
            // any conversion was capped while computing it.
            let cap_events_before = tnt_logic::dnf::cap_events();
            let vars: BTreeSet<String> = method.vars.iter().cloned().collect();
            // Both operands are pruned *before* the negation below: projections of
            // heap-laden contexts contain many redundant disjuncts whose negation
            // would otherwise blow up the DNF.
            let base_candidates = simplify::prune(&Formula::or(
                method
                    .post_assumptions
                    .iter()
                    .filter(|p| p.is_base_case())
                    .map(|p| qe::project(&p.ctx, &vars))
                    .collect(),
            ));
            if base_candidates.is_false() {
                continue;
            }
            let recursive_ctx = simplify::prune(&Formula::or(
                method
                    .pre_assumptions
                    .iter()
                    .map(|a| qe::project(&a.ctx, &vars))
                    .collect(),
            ));
            let base = simplify::prune(&base_candidates.and2(recursive_ctx.negate()));
            if base.is_false() || !tnt_logic::sat::is_sat(&base) {
                continue;
            }
            let remainder = simplify::prune(&base.clone().negate());
            let mut parts = vec![(base, Some(CaseState::Term(vec![])))];
            for cube in tnt_logic::dnf::to_dnf(&remainder) {
                parts.push((tnt_logic::dnf::from_dnf(&[cube]), None));
            }
            if tnt_logic::dnf::cap_events() > cap_events_before {
                stats.budget_exhausted = true;
                continue;
            }
            theta.split_case(&method.upr_name, parts);
        }
    }

    // Main refinement loop (lines 6–14 of Fig. 6).
    let prove_options = options.prove_options();
    let work_start = work_units();
    // The deadline lets synthesis loops inside the solver stop between LP solves,
    // bounding how far a single prove call can overshoot the budget.
    let previous_deadline = tnt_solver::simplex::set_work_deadline(
        tnt_solver::simplex::pivot_work().saturating_add(options.work_budget),
    );
    let over_budget = |stats: &mut SolveStats| {
        stats.work = work_units().wrapping_sub(work_start);
        stats.work > options.work_budget
    };
    // Abductive splits applied so far per root case family, charged against
    // [`SolveOptions::max_splits_per_family`]. Only the abductive splitter is
    // charged: splits carved out by the conditional-termination and
    // recurrent-set provers resolve a region outright and cannot chain.
    let mut family_splits: BTreeMap<String, usize> = BTreeMap::new();
    'outer: for iteration in 0..options.max_iterations {
        stats.iterations = iteration + 1;
        if theta.all_resolved() {
            break;
        }
        let total_cases: usize = theta.definitions().map(|(_, d)| d.cases.len()).sum();
        if total_cases > options.max_total_cases || over_budget(&mut stats) {
            stats.budget_exhausted = true;
            break;
        }
        let unresolved = theta.unresolved_pres();
        let edges = specialize_pre(analysis, &theta);
        let graph = ReachGraph::build(edges, &unresolved);
        let obligations = specialize_post(analysis, &theta);

        let mut progressed = false;
        for scc in graph.sccs.clone() {
            if over_budget(&mut stats) {
                stats.budget_exhausted = true;
                break 'outer;
            }
            // Skip SCCs that are already fully resolved (can happen after earlier
            // resolutions within this iteration).
            if scc
                .iter()
                .all(|p| theta.case_of_pre(p).is_none() || resolved(&theta, p))
            {
                continue;
            }
            let successors = graph.scc_successors(&scc);
            let trivially_terminating =
                successors.is_empty() && scc.len() == 1 && !graph.has_self_edge(&scc[0]);
            if trivially_terminating {
                theta.resolve(&scc[0], CaseState::Term(vec![]));
                progressed = true;
                continue;
            }
            let all_term =
                !successors.is_empty() && successors.iter().all(|t| matches!(t, EdgeTarget::Term));
            if all_term {
                stats.ranking_attempts += 1;
                if let Some(measures) = prove_term(&scc, &graph, &theta, &prove_options) {
                    for (pre, measure) in measures {
                        theta.resolve(&pre, CaseState::Term(measure));
                    }
                    progressed = true;
                    continue;
                }
            }
            // Non-termination proof (directly, or as the fall-back after a failed
            // termination proof, or when a successor is Loop/MayLoop).
            stats.nonterm_attempts += 1;
            let outcome = prove_nonterm(&scc, &obligations, &theta, &prove_options);
            if outcome.success {
                for pre in &scc {
                    theta.resolve(pre, CaseState::Loop);
                }
                progressed = true;
                continue;
            }
            // Entry-restricted conditional termination: the SCC may terminate on the
            // sub-region actually reachable from its call sites even when no global
            // measure exists (gcd-style loops entered with positive arguments).
            // Attempted before abductive splitting, which cannot recover call-site
            // information and tends to fragment such cases until the budget runs out.
            // Not gated on all-`Term` successors: the prover itself certifies that
            // every edge towards a non-`Term` target is infeasible inside the region.
            stats.ranking_attempts += 1;
            if let Some(cases) = prove_term_conditional(&scc, &graph, &theta, &prove_options) {
                for (pre, case) in cases {
                    if case.remainder.is_empty() {
                        theta.resolve(&pre, CaseState::Term(case.measure));
                    } else {
                        let mut parts = vec![(case.region, Some(CaseState::Term(case.measure)))];
                        parts.extend(case.remainder.into_iter().map(|f| (f, None)));
                        theta.split_case(&pre, parts);
                    }
                }
                // The graph changed shape: restart the iteration (line 11 of
                // Fig. 6), exactly as after an abductive case split.
                continue 'outer;
            }
            // Closed recurrent-set synthesis: the non-termination fall-back for
            // cases where only part of the state space diverges and the region
            // must be *discovered* rather than read off the case structure (the
            // aperiodic class). A whole-guard certificate resolves the case to
            // `Loop`; a partial one splits the case on the recurrent region.
            if prove_options.recurrent && scc.len() == 1 {
                stats.nonterm_attempts += 1;
                if let Some(rec) = prove_nonterm_recurrent(
                    &scc,
                    &graph,
                    &obligations,
                    &theta,
                    &prove_options,
                    &BTreeSet::new(),
                ) {
                    if rec.remainder.is_empty() {
                        theta.resolve(&rec.pre, CaseState::Loop);
                        progressed = true;
                        continue;
                    }
                    stats.case_splits += 1;
                    let mut parts = vec![(rec.region, Some(CaseState::Loop))];
                    parts.extend(rec.remainder.into_iter().map(|f| (f, None)));
                    theta.split_case(&rec.pre, parts);
                    continue 'outer;
                }
            }
            if options.enable_case_split && !outcome.splits.is_empty() {
                let mut split_applied = false;
                for (pre, conditions) in outcome.splits {
                    // Per-family quota: a family that has used up its splits is
                    // treated as having no splitter candidates left, so control
                    // falls through to the orbit-enriched pass below.
                    let Some(root) = theta.case_of_pre(&pre).map(|(r, _)| r.to_string()) else {
                        continue;
                    };
                    if family_splits.get(&root).copied().unwrap_or(0)
                        >= options.max_splits_per_family
                    {
                        continue;
                    }
                    let guard = theta.guard_of_pre(&pre).cloned().unwrap_or(Formula::True);
                    let parts = split(&conditions, &guard);
                    if parts.len() < 2 {
                        continue;
                    }
                    stats.case_splits += 1;
                    *family_splits.entry(root).or_insert(0) += 1;
                    theta.split_case(&pre, parts.into_iter().map(|p| (p, None)).collect());
                    split_applied = true;
                }
                if split_applied {
                    // Restart with the refined definitions (line 11 of Fig. 6); the
                    // restart re-enters the iteration loop, so `progressed` need not
                    // be updated here.
                    continue 'outer;
                }
            }
            // Orbit-enriched recurrent-set synthesis: staged strictly last,
            // once the abductive splitter's candidates are exhausted — the
            // cheap syntactic passes above keep first claim on every case, and
            // the simulation + enlarged LP cost is paid only on cases nothing
            // else decides. Work spent here is accounted separately so the
            // enrichment's cost stays attributable.
            if prove_options.orbit_enrichment && prove_options.recurrent && scc.len() == 1 {
                stats.orbit_attempts += 1;
                let orbit_start = work_units();
                let enriched = prove_nonterm_recurrent_enriched(
                    &scc,
                    &graph,
                    &obligations,
                    &theta,
                    &prove_options,
                    &BTreeSet::new(),
                );
                stats.orbit_work = stats
                    .orbit_work
                    .wrapping_add(work_units().wrapping_sub(orbit_start));
                if let Some(rec) = enriched {
                    if rec.remainder.is_empty() {
                        theta.resolve(&rec.pre, CaseState::Loop);
                        progressed = true;
                        continue;
                    }
                    stats.case_splits += 1;
                    let mut parts = vec![(rec.region, Some(CaseState::Loop))];
                    parts.extend(rec.remainder.into_iter().map(|f| (f, None)));
                    theta.split_case(&rec.pre, parts);
                    continue 'outer;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    stats.work = work_units().wrapping_sub(work_start);
    tnt_solver::simplex::set_work_deadline(previous_deadline);

    theta.finalize();
    (theta, stats)
}

/// The deterministic work measure budgeted by [`SolveOptions::work_budget`]:
/// simplex pivots plus DNF cubes, the two super-linear cores of the back-end.
///
/// The counter is monotone and **per-thread**; callers that need to attribute the
/// work spent by a unit of analysis (including one that panics mid-way) snapshot
/// it before and after on the same thread.
pub fn work_units() -> u64 {
    tnt_solver::simplex::pivot_work().wrapping_add(tnt_logic::dnf::cube_work())
}

fn resolved(theta: &Theta, pre: &str) -> bool {
    let Some((root, index)) = theta.case_of_pre(pre) else {
        return true;
    };
    theta
        .definition(root)
        .map(|d| d.cases[index].state.is_resolved())
        .unwrap_or(true)
}

/// Post-hoc validation of a finalized store, mirroring the paper's re-verification of
/// inferred specifications:
///
/// * the guards of every definition are feasible, pairwise exclusive and exhaustive;
/// * every `Term` case has a measure that is bounded and strictly decreasing on every
///   internal edge of its case (re-checked through the sound Farkas implication);
/// * every `Loop` case's unreachability obligations hold under the final definitions.
pub fn validate(analysis: &ProgramAnalysis, theta: &Theta) -> bool {
    validate_with_budget(analysis, theta, SolveOptions::default().work_budget)
}

/// [`validate`] with an explicit work budget — callers that raised
/// [`SolveOptions::work_budget`] for solving should re-verify under the same
/// budget, or the re-check fails on budget exhaustion alone.
pub fn validate_with_budget(analysis: &ProgramAnalysis, theta: &Theta, budget: u64) -> bool {
    // Validation re-runs the provers, so it gets the same deterministic budget as
    // the solver; exhausting it means the re-check is inconclusive and the store
    // is conservatively reported as not validated.
    let previous_deadline = tnt_solver::simplex::set_work_deadline(
        tnt_solver::simplex::pivot_work().saturating_add(budget),
    );
    let result = validate_within_budget(analysis, theta, budget);
    tnt_solver::simplex::set_work_deadline(previous_deadline);
    result
}

fn validate_within_budget(analysis: &ProgramAnalysis, theta: &Theta, budget: u64) -> bool {
    let work_start = work_units();
    let over_budget = || work_units().wrapping_sub(work_start) > budget;
    // 1. Guard partitions.
    for (_, def) in theta.definitions() {
        let guards: Vec<Formula> = def.cases.iter().map(|c| c.guard.clone()).collect();
        for g in &guards {
            if !tnt_logic::sat::is_sat(g) {
                return false;
            }
        }
        for (i, a) in guards.iter().enumerate() {
            if over_budget() {
                return false;
            }
            for b in guards.iter().skip(i + 1) {
                if tnt_logic::sat::is_sat(&a.clone().and2(b.clone())) {
                    return false;
                }
            }
        }
        if !entail::is_valid(&Formula::or(guards)) {
            return false;
        }
    }

    // 2./3. Re-check Term and Loop cases against a re-specialisation under the final
    // definitions. Resolved Term cases are re-derived by re-running the ranking
    // synthesis restricted to their internal edges; Loop cases re-check their
    // obligations with the (now closed) definitions.
    let resolved_theta = resolved_view(theta);
    let edges = specialize_pre(analysis, &resolved_theta);
    let graph = ReachGraph::build(edges, &resolved_theta.unresolved_pres());
    let obligations = specialize_post(analysis, &resolved_theta);
    let options = ProveOptions::default();
    // Coinductive hypotheses for the `Loop` re-checks: the post-predicates of
    // every case the final store resolved to `Loop`. Every such case is
    // re-proven below, so assuming the others' posts unreachable is sound by
    // infinite descent — a shortest execution reaching any of these posts would
    // have to pass through a strictly shorter one. Without this, a `Loop` case
    // whose proof leans on a *callee's* divergence (e.g. a wrapper around a
    // diverging loop) would fail its re-check: the callee's pre sits in another
    // SCC, so the plain induction hypothesis cannot use it.
    let mut loop_posts: BTreeSet<String> = BTreeSet::new();
    for (root, def) in theta.definitions() {
        let Some(view_def) = resolved_theta.definition(root) else {
            continue;
        };
        for (index, case) in def.cases.iter().enumerate() {
            if !matches!(case.state, CaseState::Loop) {
                continue;
            }
            if let Some(CaseState::Unknown { post, .. }) =
                view_def.cases.get(index).map(|c| &c.state)
            {
                loop_posts.insert(post.clone());
            }
        }
    }
    for scc in &graph.sccs {
        if over_budget() {
            return false;
        }
        // Which final states do these nodes map to? The view's case indices coincide
        // with the final definition's case order by construction.
        let states: Vec<CaseState> = scc
            .iter()
            .filter_map(|p| {
                let (root, index) = resolved_theta.case_of_pre(p)?;
                Some(theta.definition(root)?.cases.get(index)?.state.clone())
            })
            .collect();
        if states.iter().any(|s| matches!(s, CaseState::Term(_)))
            && prove_term(scc, &graph, &resolved_theta, &options).is_none()
        {
            return false;
        }
        if states.iter().any(|s| matches!(s, CaseState::Loop)) {
            let outcome =
                prove_nonterm_assuming(scc, &obligations, &resolved_theta, &options, &loop_posts);
            if !outcome.success {
                // Fall back to recurrent-set synthesis: a `Loop` resolution
                // produced by that prover may not be re-derivable through the
                // obligation-coverage argument. The re-synthesized set must
                // cover the *whole* case guard, which is what the store claims.
                // The orbit-enriched variant is the last link of the chain,
                // mirroring the solver's staging: a `Loop` case decided by
                // harvested atoms is only re-derivable with the same pool.
                let rec = prove_nonterm_recurrent(
                    scc,
                    &graph,
                    &obligations,
                    &resolved_theta,
                    &options,
                    &loop_posts,
                )
                .or_else(|| {
                    prove_nonterm_recurrent_enriched(
                        scc,
                        &graph,
                        &obligations,
                        &resolved_theta,
                        &options,
                        &loop_posts,
                    )
                });
                if !rec.map(|o| o.remainder.is_empty()).unwrap_or(false) {
                    return false;
                }
            }
        }
    }
    true
}

/// A copy of the store in which every case is re-opened as unknown but keeps its final
/// guard structure — used by [`validate`] so the re-specialisation sees the same case
/// boundaries the solver ended with.
fn resolved_view(theta: &Theta) -> Theta {
    // Re-opening is done by rebuilding from scratch with the same guards.
    let mut view = Theta::new();
    for (root, def) in theta.definitions() {
        let upo_root = root.replacen("Upr", "Upo", 1);
        view.register(root, &upo_root, def.vars.clone());
        let parts: Vec<(Formula, Option<CaseState>)> =
            def.cases.iter().map(|c| (c.guard.clone(), None)).collect();
        view.split_case(root, parts);
    }
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_lang::frontend;
    use tnt_verify::verify_program;

    fn run(source: &str) -> (ProgramAnalysis, Theta, SolveStats) {
        let program = frontend(source).unwrap();
        let analysis = verify_program(&program).unwrap();
        let (theta, stats) = solve(&analysis, &SolveOptions::default());
        (analysis, theta, stats)
    }

    #[test]
    fn foo_running_example_resolves_to_three_cases() {
        let (analysis, theta, stats) =
            run("void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }");
        assert!(theta.all_resolved());
        let def = theta.definition("Upr_foo#0").unwrap();
        assert_eq!(def.cases.len(), 3);
        let mut term_base = 0;
        let mut term_ranked = 0;
        let mut looping = 0;
        for case in &def.cases {
            match &case.state {
                CaseState::Term(m) if m.is_empty() => term_base += 1,
                CaseState::Term(_) => term_ranked += 1,
                CaseState::Loop => looping += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!((term_base, term_ranked, looping), (1, 1, 1));
        assert!(stats.case_splits >= 1);
        assert!(validate(&analysis, &theta));
    }

    #[test]
    fn simple_terminating_recursion() {
        let (analysis, theta, _) =
            run("void down(int n) { if (n <= 0) { return; } else { down(n - 1); } }");
        let def = theta.definition("Upr_down#0").unwrap();
        assert!(def
            .cases
            .iter()
            .all(|c| matches!(c.state, CaseState::Term(_))));
        assert!(validate(&analysis, &theta));
    }

    #[test]
    fn unconditional_divergence_is_loop() {
        let (analysis, theta, _) = run("void spin(int x) { spin(x + 1); }");
        let def = theta.definition("Upr_spin#0").unwrap();
        assert_eq!(def.cases.len(), 1);
        assert!(matches!(def.cases[0].state, CaseState::Loop));
        assert!(validate(&analysis, &theta));
    }

    #[test]
    fn nondeterministic_recursion_is_mayloop() {
        let (_, theta, _) =
            run("void f(int x) { int c = nondet(); if (c > 0) { f(x); } else { return; } }");
        let def = theta.definition("Upr_f#0").unwrap();
        assert!(def
            .cases
            .iter()
            .any(|c| matches!(c.state, CaseState::MayLoop)));
        // Soundness: never classified Term or Loop overall.
        assert!(!def
            .cases
            .iter()
            .all(|c| matches!(c.state, CaseState::Term(_))));
        assert!(!def.cases.iter().any(|c| matches!(c.state, CaseState::Loop)));
    }

    #[test]
    fn base_case_disabled_still_sound() {
        let program =
            frontend("void down(int n) { if (n <= 0) { return; } else { down(n - 1); } }").unwrap();
        let analysis = verify_program(&program).unwrap();
        let options = SolveOptions {
            enable_base_case: false,
            ..SolveOptions::default()
        };
        let (theta, _) = solve(&analysis, &options);
        // Without base-case inference the summary may be weaker (MayLoop) but must not
        // claim Loop for a terminating method.
        let def = theta.definition("Upr_down#0").unwrap();
        assert!(!def.cases.iter().any(|c| matches!(c.state, CaseState::Loop)));
    }
}
