//! The in-repository corpora the workloads draw from, and the seeded
//! generator that orders and draws them.

use tnt_suite::{Expected, Suite};

/// One corpus program with its ground truth.
#[derive(Clone, Debug)]
pub struct Program {
    /// The corpus name, unique within its suite.
    pub name: String,
    /// The suite's display name.
    pub suite: &'static str,
    /// The source text.
    pub source: String,
    /// Whether every execution of `main` terminates.
    pub expected: Expected,
}

/// SplitMix64: a small, fixed generator, so that a seed names the same
/// inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn flatten(suites: Vec<Suite>) -> Vec<Program> {
    suites
        .into_iter()
        .flat_map(|suite| {
            let name = suite.category.name();
            suite.programs.into_iter().map(move |p| Program {
                name: p.name,
                suite: name,
                source: p.source,
                expected: p.expected,
            })
        })
        .collect()
}

/// The programs of `heap-cold`: the `memory-alloca` suite.
pub fn heap_programs() -> Vec<Program> {
    flatten(vec![tnt_suite::memory_alloca()])
}

/// The programs of `int-cold`: the four integer suites.
pub fn int_programs() -> Vec<Program> {
    flatten(vec![
        tnt_suite::crafted(),
        tnt_suite::crafted_lit(),
        tnt_suite::numeric(),
        tnt_suite::integer_loops(),
    ])
}

/// The programs of the cold workload named `workload`.
pub fn cold_programs(workload: &str) -> Option<fn() -> Vec<Program>> {
    match workload {
        "heap-cold" => Some(heap_programs),
        "int-cold" => Some(int_programs),
        _ => None,
    }
}

/// Every corpus program (all five suites).
pub fn all_programs() -> Vec<Program> {
    let mut programs = heap_programs();
    programs.extend(int_programs());
    programs
}

/// `Y`/`N`/`U`/`T/O`, as the serve layer and the conformance tables print a
/// result's entry verdict.
pub fn verdict(result: &tnt_infer::AnalysisResult) -> &'static str {
    match result.program_verdict() {
        tnt_infer::Verdict::Terminating => "Y",
        tnt_infer::Verdict::NonTerminating => "N",
        tnt_infer::Verdict::Unknown if result.stats.budget_exhausted => "T/O",
        tnt_infer::Verdict::Unknown => "U",
    }
}

/// The position of `verdict` in `Y`, `N`, `U`, `T/O`, for outcome counts.
pub fn verdict_slot(verdict: &str) -> usize {
    ["Y", "N", "U", "T/O"]
        .iter()
        .position(|v| *v == verdict)
        .unwrap_or(2)
}

/// `(unsound, decided)`: whether `verdict` contradicts the ground truth, and
/// whether it is the correct definite answer.
pub fn score(verdict: &str, expected: Expected) -> (bool, bool) {
    match (verdict, expected) {
        ("Y", Expected::NonTerminating) | ("N", Expected::Terminating) => (true, false),
        ("Y", Expected::Terminating) | ("N", Expected::NonTerminating) => (false, true),
        _ => (false, false),
    }
}
