//! # tnt-infer
//!
//! The paper's primary contribution: modular inference of termination and
//! non-termination specifications (Sections 5 and 6 of the paper, Figures 6–9).
//!
//! Given the relational assumptions produced by the Hoare-style verifier
//! ([`tnt_verify`]), the `solve` procedure incrementally resolves the unknown temporal
//! pre/post-predicates of every method scenario into a *case-based summary*:
//!
//! ```text
//! case {
//!   x < 0            -> requires Term     ensures true;
//!   x >= 0 && y < 0  -> requires Term[x]  ensures true;
//!   x >= 0 && y >= 0 -> requires Loop     ensures false;
//! }
//! ```
//!
//! The pipeline is exactly the paper's:
//!
//! * [`theta`] — the store `Θ` of (partial) definitions for the unknown predicates
//!   (Def. 2): guarded cases that are either resolved (`Term [e]` / `Loop` / `MayLoop`)
//!   or refer to fresh auxiliary unknowns.
//! * [`specialize`] — `spec_relass` (Sec. 5.2): the collected assumptions specialised
//!   against the current definitions, and the temporal reachability graph (Def. 4/5)
//!   with its SCC condensation.
//! * [`prove`] — `prove_Term` (Fig. 8, Farkas-based ranking synthesis via
//!   [`tnt_solver`] over the linear → lexicographic/max → multiphase fall-back
//!   chain, plus the entry-restricted conditional termination proof),
//!   `prove_NonTerm` (Fig. 9, inductive unreachability) and the abductive
//!   inference `abd_inf` with the `split` case partitioning (Sec. 5.5–5.6).
//! * [`solve`] — the overall fixed-point loop of Fig. 6 (base-case inference,
//!   per-SCC analysis, case refinement, `finalize`), with closed recurrent-set
//!   synthesis ([`tnt_solver::recurrent`]) as the non-termination fall-back for
//!   the aperiodic class.
//! * [`summary`] / [`precondition`] / [`analyzer`] — user-facing API: analyse a
//!   program (or source text) and obtain per-method case summaries, the weakest
//!   inferred termination/non-termination *preconditions* read off the case
//!   structure, and a benchmark verdict (terminating / non-terminating /
//!   unknown), with every claimed verdict re-checked.
//!
//! # Example
//!
//! ```
//! use tnt_infer::{analyze_source, CaseStatus, InferOptions};
//!
//! let result = analyze_source(
//!     "void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }",
//!     &InferOptions::default(),
//! ).unwrap();
//! let foo = &result.summaries["foo"];
//! // Three cases: x < 0 => Term, x >= 0 & y < 0 => Term[x], x >= 0 & y >= 0 => Loop.
//! assert_eq!(foo.cases.len(), 3);
//! assert!(foo.cases.iter().any(|c| matches!(c.status, CaseStatus::Loop)));
//! assert!(foo.cases.iter().any(|c| matches!(&c.status, CaseStatus::Term(m) if !m.is_empty())));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod precondition;
pub mod prove;
pub mod session;
pub mod solve;
pub mod specialize;
pub mod summary;
pub mod theta;

pub use analyzer::{analyze_program, analyze_source, AnalysisResult, InferError, InferOptions};
pub use session::{
    AnalysisSession, BatchEntry, CacheTier, ProgramKey, SessionStats, SummaryBackend,
};
pub use summary::{
    CaseStatus, MethodSummary, Precondition, PreconditionKind, SummaryCase, Verdict,
};
pub use theta::Theta;
