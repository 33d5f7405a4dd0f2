//! Emits the repository's performance-baseline snapshot (`BENCH_fig10.json`):
//! per-suite wall-clock and outcome counts for the full HIPTNT+ profile over
//! the five corpora, the session's total deterministic work units, and the
//! summary cache's memory accounting.
//!
//! Each suite is run twice through one session: a **cold** pass that analyses
//! every unique canonical program, then a **warm** pass served entirely from
//! the summary cache. The warm pass doubles as the steady-state memory probe:
//! serving an entry verifies and drops its full-text guard, so after it the
//! cache holds only the 16-byte keys (plus guards of entries that were never
//! served — none here, since the warm pass touches every entry).
//!
//! Run `cargo run --release -p tnt-bench --bin snapshot` to print the JSON;
//! redirect it to `BENCH_fig10.json` to refresh the committed baseline (see
//! `ROADMAP.md` for the snapshot protocol). Outcome counts, precision and
//! `work` are deterministic and comparable across machines; the `time_s`
//! fields are wall-clock and only comparable on one machine.

use serde::Serialize;
use tnt_infer::{AnalysisSession, InferOptions};
use tnt_suite::{runner, Suite};

/// One suite's scored outcome (deterministic except for the time fields).
#[derive(Serialize)]
struct SuiteSnapshot {
    suite: String,
    programs: usize,
    yes: usize,
    no: usize,
    unknown: usize,
    timeout: usize,
    precision: f64,
    unsound: usize,
    /// Deterministic work units (simplex pivots + DNF cubes) of the suite.
    work: u64,
    /// Wall-clock seconds of the cold pass, summed over the suite's programs
    /// (machine-local).
    time_s: f64,
    /// Wall-clock seconds of the warm (fully cached) pass (machine-local).
    warm_time_s: f64,
}

/// The session-wide reuse and spending counters after both passes.
///
/// Schema v2: `cache_hits` is kept for back-compat as the sum of the three
/// per-tier counters (`dedup_hits` + `memory_hits` + `store_hits`), which make
/// a hit's provenance attributable in `BENCH_*.json` deltas. This binary
/// runs without a persistent store, so `store_hits`/`store_writes` are zero
/// here.
#[derive(Serialize)]
struct SessionSnapshot {
    programs: u64,
    cache_hits: u64,
    dedup_hits: u64,
    memory_hits: u64,
    store_hits: u64,
    store_writes: u64,
    cache_misses: u64,
    work: u64,
}

/// One point-in-time memory reading of the summary cache.
#[derive(Serialize)]
struct MemoryReading {
    entries: u64,
    key_bytes: u64,
    resident_guard_bytes: u64,
    resident_bytes: u64,
}

/// The summary cache's memory accounting: what the hash-verified keys hold
/// resident after the cold pass, and at steady state once every entry's first
/// serve has verified and dropped its guard.
#[derive(Serialize)]
struct CacheMemorySnapshot {
    after_cold: MemoryReading,
    steady_state: MemoryReading,
}

#[derive(Serialize)]
struct Snapshot {
    /// Schema tag; bump on any incompatible field change.
    schema: &'static str,
    tool: &'static str,
    suites: Vec<SuiteSnapshot>,
    total_programs: usize,
    total_work: u64,
    total_time_s: f64,
    total_warm_time_s: f64,
    session: SessionSnapshot,
    cache_memory: CacheMemorySnapshot,
}

fn reading(session: &AnalysisSession) -> MemoryReading {
    let memory = session.cache_memory();
    MemoryReading {
        entries: memory.entries,
        key_bytes: memory.key_bytes,
        resident_guard_bytes: memory.resident_guard_bytes,
        resident_bytes: memory.resident_bytes(),
    }
}

fn snapshot_suite(session: &AnalysisSession, suite: &Suite) -> SuiteSnapshot {
    let report = runner::run_suite_session(session, suite);
    let (yes, no, unknown, timeout) = report.counts();
    SuiteSnapshot {
        suite: report.suite.clone(),
        programs: report.total(),
        yes,
        no,
        unknown,
        timeout,
        precision: report.precision(),
        unsound: report.unsound().len(),
        work: report.programs.iter().map(|p| p.work).sum(),
        time_s: report.programs.iter().map(|p| p.elapsed).sum(),
        warm_time_s: 0.0,
    }
}

fn main() {
    let session = AnalysisSession::new(InferOptions::default());
    let mut corpora = tnt_suite::svcomp_suites();
    corpora.push(tnt_suite::integer_loops());

    // Cold pass: analyse every unique canonical program once.
    let mut suites: Vec<SuiteSnapshot> = corpora
        .iter()
        .map(|suite| snapshot_suite(&session, suite))
        .collect();
    let after_cold = reading(&session);

    // Warm pass: every program is served from the cache; the first serve of
    // each entry verifies its full-text guard and drops it.
    for (snapshot, suite) in suites.iter_mut().zip(&corpora) {
        let start = std::time::Instant::now();
        let _ = runner::run_suite_session(&session, suite);
        snapshot.warm_time_s = start.elapsed().as_secs_f64();
    }
    let steady_state = reading(&session);

    let stats = session.stats();
    let snapshot = Snapshot {
        schema: "hiptnt-bench-snapshot/v4",
        tool: "hiptnt+",
        total_programs: suites.iter().map(|s| s.programs).sum(),
        total_work: suites.iter().map(|s| s.work).sum(),
        total_time_s: suites.iter().map(|s| s.time_s).sum(),
        total_warm_time_s: suites.iter().map(|s| s.warm_time_s).sum(),
        suites,
        session: SessionSnapshot {
            programs: stats.programs,
            cache_hits: stats.cache_hits(),
            dedup_hits: stats.dedup_hits,
            memory_hits: stats.memory_hits,
            store_hits: stats.store_hits,
            store_writes: stats.store_writes,
            cache_misses: stats.cache_misses,
            work: stats.work,
        },
        cache_memory: CacheMemorySnapshot {
            after_cold,
            steady_state,
        },
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&snapshot).expect("serialisable")
    );
}
