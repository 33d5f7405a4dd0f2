//! The cold workloads, `heap-cold` and `int-cold`.
//!
//! Each batch sends the whole suite, in seed-permuted order, from one
//! closed-loop client to a fresh `AnalysisSession` over a fresh store, one
//! program per `analyze_batch_with(&[source], 1)` call, as the serve layer
//! does: the first program with a `ProgramKey` is analysed, the others are
//! served by the memory tier. After each batch, re-check probes restart a
//! `Server` over the batch's store. Each sends every program once (the store
//! tier serves the first of each key, the memory tier the rest) and then
//! [`PROBE_ROUNDS`] times more, timing those memory-tier hits.
//!
//! An untraced run does each batch and each probe in a fresh process of its
//! own and pools their samples (see [`run`]). Every bounded timing is
//! process CPU time ([`crate::cpu_s`]).

use crate::child::{self, Line};
use crate::corpus::{self, Program, Rng};
use crate::layers::{self, Decomposed, Reference, Totals, Trace};
use crate::serve::{self, TierCounters};
use crate::stats::{median, percentile, MIN_BEYOND};
use crate::{Args, Outcome};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tnt_infer::{AnalysisSession, BatchEntry, InferOptions, ProgramKey, SessionStats};
use tnt_store::SummaryStore;

/// The first argument of a child process that runs one batch.
pub const CHILD_BATCH: &str = "cold-batch";
/// The first argument of a child process that runs one re-check probe.
pub const CHILD_PROBE: &str = "cold-probe";
/// Re-check probes after each batch, each in a process of its own.
const PROBES_PER_BATCH: usize = 8;
/// Timed rounds of a re-check probe, after its first round.
const PROBE_ROUNDS: usize = 3;
/// How many set-ups are timed before the first batch and after each batch.
const SETUPS_PER_ROUND: usize = 3;
/// The fewest batches a run does.
const MIN_BATCHES: usize = 2;

/// The inputs of one cold run.
struct Inputs {
    programs: Vec<Program>,
    /// For each program, the index of the first program with its key: the
    /// one whose analysis also answers it.
    job_of: Vec<usize>,
}

impl Inputs {
    /// Whether `self` and `other` are the same programs in the same order.
    fn same(&self, other: &Inputs) -> bool {
        self.job_of == other.job_of
            && self
                .programs
                .iter()
                .zip(&other.programs)
                .all(|(a, b)| a.name == b.name && a.source == b.source)
    }
}

fn set_up(programs: fn() -> Vec<Program>, seed: u64) -> Inputs {
    let mut programs = programs();
    Rng::new(seed).shuffle(&mut programs);
    let options = InferOptions::default();
    let mut first: HashMap<ProgramKey, usize> = HashMap::new();
    let job_of = programs
        .iter()
        .enumerate()
        .map(|(index, p)| {
            let program = tnt_lang::frontend(&p.source).expect("corpus programs compile");
            *first
                .entry(ProgramKey::of(&program, &options))
                .or_insert(index)
        })
        .collect();
    Inputs { programs, job_of }
}

/// Times [`SETUPS_PER_ROUND`] set-ups in CPU seconds, appends them to
/// `setup_s`, and returns the last one's inputs. Each must equal `expected`,
/// when given, or the one before it: a seed names one input.
fn timed_set_up(
    programs: fn() -> Vec<Program>,
    seed: u64,
    expected: Option<&Inputs>,
    setup_s: &mut Vec<f64>,
    out: &mut Outcome,
) -> Inputs {
    let mut last: Option<Inputs> = None;
    for _ in 0..SETUPS_PER_ROUND {
        let start = crate::cpu_s();
        let inputs = set_up(programs, seed);
        setup_s.push(crate::cpu_s() - start);
        if let Some(before) = last.as_ref().or(expected) {
            if !before.same(&inputs) {
                out.problem(format!("seed {seed} set up different inputs"));
            }
        }
        last = Some(inputs);
    }
    last.expect("at least one set-up")
}

/// A digest of an answer's verdict and rendered summaries, to compare
/// answers across the processes of a run (all run this one executable).
fn digest(verdict: &str, rendered: &BTreeMap<String, String>) -> String {
    let mut hasher = DefaultHasher::new();
    verdict.hash(&mut hasher);
    rendered.hash(&mut hasher);
    format!("{:016x}", hasher.finish())
}

/// What one batch reports, in its own process or across one.
struct Batch {
    /// CPU seconds of the batch's calls.
    cpu_s: f64,
    /// Wall seconds of the batch, for the log and the tracing overhead.
    wall_s: f64,
    /// For each program, the CPU time of the call that analysed it or the
    /// first program with its key, in ms.
    job_ms: Vec<f64>,
    decided: u64,
    fingerprint: String,
    /// The process's peak resident set at the end of the batch, in MiB.
    peak_rss_mb: f64,
    /// The digest of each program's answer; empty where the analysis failed.
    digests: Vec<String>,
}

impl Batch {
    fn line(&self) -> Line {
        Line::default()
            .number("cpu_s", self.cpu_s)
            .number("wall_s", self.wall_s)
            .numbers("job_ms", &self.job_ms)
            .number("decided", self.decided as f64)
            .string("fingerprint", &self.fingerprint)
            .number("peak_rss_mb", self.peak_rss_mb)
            .strings("digests", &self.digests)
    }

    fn parse(line: &serde_json::Value) -> Result<Batch, String> {
        Ok(Batch {
            cpu_s: child::number(line, "cpu_s")?,
            wall_s: child::number(line, "wall_s")?,
            job_ms: child::numbers(line, "job_ms")?,
            decided: child::number(line, "decided")? as u64,
            fingerprint: child::string(line, "fingerprint")?,
            peak_rss_mb: child::number(line, "peak_rss_mb")?,
            digests: child::strings(line, "digests")?,
        })
    }
}

/// Runs one batch over a fresh store in `dir`; returns its report, the
/// session's counters and each program's answer (`None` where it failed).
fn batch(
    inputs: &Inputs,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(Batch, SessionStats, Vec<Option<Reference>>), String> {
    let programs = &inputs.programs;
    let store = SummaryStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let session = AnalysisSession::new(InferOptions::default()).with_store(Arc::new(store));
    let mut answer_ms = Vec::with_capacity(programs.len());
    let wall = Instant::now();
    let entries: Vec<BatchEntry> = programs
        .iter()
        .map(|p| {
            let t = crate::cpu_s();
            let entry = session
                .analyze_batch_with(&[p.source.as_str()], 1)
                .pop()
                .expect("one entry per program");
            answer_ms.push((crate::cpu_s() - t) * 1e3);
            entry
        })
        .collect();
    let cpu_s = answer_ms.iter().sum::<f64>() / 1e3;
    let wall_s = wall.elapsed().as_secs_f64();
    let stats = session.stats();
    drop(session);

    let mut counts = [0u64; 4];
    let mut decided = 0;
    let mut answers = Vec::with_capacity(programs.len());
    for (i, (p, entry)) in programs.iter().zip(&entries).enumerate() {
        out.attempted += 1;
        // Every program after the first with its key is a memory-tier hit.
        let repeat = inputs.job_of[i] != i;
        if entry.cache_hit != repeat {
            out.problem(format!(
                "{}: cache hit {} where {} was expected",
                p.name, entry.cache_hit, repeat
            ));
        }
        let result = match &entry.result {
            Ok(result) => result,
            Err(e) => {
                out.failed += 1;
                out.problem(format!("{}: {e}", p.name));
                answers.push(None);
                continue;
            }
        };
        let verdict = corpus::verdict(result);
        let (unsound, ok) = corpus::score(verdict, p.expected);
        if unsound {
            out.problem(format!(
                "unsound {verdict} on {} (expected {})",
                p.name, p.expected
            ));
        }
        decided += u64::from(ok);
        counts[corpus::verdict_slot(verdict)] += 1;
        answers.push(Some(Reference::of(result)));
    }
    let reported: u64 = entries.iter().map(|e| e.work).sum();
    let fingerprint = format!(
        "Y={} N={} U={} T/O={} work={reported} measured_work={} dedup={} memory={} store={} method={} misses={} writes={}",
        counts[0], counts[1], counts[2], counts[3], stats.work, stats.dedup_hits,
        stats.memory_hits, stats.store_hits, stats.method_hits, stats.cache_misses, stats.store_writes
    );
    let digests = answers
        .iter()
        .map(|a| {
            a.as_ref()
                .map_or(String::new(), |r| digest(r.verdict, &r.rendered))
        })
        .collect();
    let report = Batch {
        cpu_s,
        wall_s,
        job_ms: inputs.job_of.iter().map(|&job| answer_ms[job]).collect(),
        decided,
        fingerprint,
        peak_rss_mb: crate::peak_rss_mb(),
        digests,
    };
    Ok((report, stats, answers))
}

/// A re-check probe of the store in `dir`: restarts a daemon over it, sends
/// every program once, then `rounds` times more. Every answer must come from
/// a cache tier, and every later answer must equal the first for its
/// program. Returns the CPU time of each request of the later rounds in ms,
/// and the digest of each first answer (empty where it failed).
fn probe(
    inputs: &Inputs,
    dir: &Path,
    rounds: usize,
    tiers: &mut TierCounters,
    out: &mut Outcome,
) -> Result<(Vec<f64>, Vec<String>), String> {
    let (server, store, open_s, _) = serve::restart(dir)?;
    tiers.store_open_s = open_s;
    tiers.store_entries = store.entries() as u64;
    tiers.store_method_entries = store.method_entries() as u64;
    drop(store);
    let programs = &inputs.programs;
    let mut first = Vec::with_capacity(programs.len());
    let mut hit_ms = Vec::with_capacity(programs.len() * rounds);
    for round in 0..=rounds {
        for (id, p) in programs.iter().enumerate() {
            let line = crate::request_line(id as u64, &p.source);
            let c = crate::cpu_s();
            let t = Instant::now();
            let response = server.handle_line(&line);
            let wall = t.elapsed().as_secs_f64();
            if round > 0 {
                hit_ms.push((crate::cpu_s() - c) * 1e3);
            }
            out.attempted += 1;
            let parsed = serve::parse_response(&response);
            tiers.add_response(wall, &parsed);
            let answer = match parsed {
                Ok(served) => {
                    if !served.cached {
                        out.problem(format!("probe of {}: not served from a cache tier", p.name));
                    }
                    digest(&served.verdict, &served.rendered)
                }
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("probe of {}: {e}", p.name));
                    String::new()
                }
            };
            if round == 0 {
                first.push(answer);
            } else if answer != first[id] {
                out.problem(format!(
                    "probe of {}: round {round} answer differs from the first",
                    p.name
                ));
            }
        }
    }
    tiers.add_stats(server.stats());
    Ok((hit_ms, first))
}

/// Reports every program whose probe answer differs from its batch answer.
fn check_probe(inputs: &Inputs, batch: &[String], probe: &[String], out: &mut Outcome) {
    for ((p, b), a) in inputs.programs.iter().zip(batch).zip(probe) {
        if !b.is_empty() && !a.is_empty() && a != b {
            out.problem(format!(
                "probe of {}: answer differs from the batch",
                p.name
            ));
        }
    }
}

/// The child side of a cold run: `cold-batch <workload> <seed> <dir>` runs
/// one batch into a fresh store in `dir`, `cold-probe <workload> <seed>
/// <dir>` one re-check probe of it. Prints one JSON line and returns the
/// exit code.
pub fn child_main(args: &[String]) -> i32 {
    let (Some(kind), Some(workload), Some(Ok(seed)), Some(dir), 4) = (
        args.first(),
        args.get(1),
        args.get(2).map(|s| s.parse::<u64>()),
        args.get(3),
        args.len(),
    ) else {
        eprintln!("perfbench: usage: {CHILD_BATCH}|{CHILD_PROBE} <workload> <seed> <dir>");
        return 2;
    };
    let Some(programs) = corpus::cold_programs(workload) else {
        eprintln!("perfbench: {workload} is not a cold workload");
        return 2;
    };
    let inputs = set_up(programs, seed);
    let dir = Path::new(dir);
    let mut out = Outcome::default();
    let line = if kind == CHILD_BATCH {
        batch(&inputs, dir, &mut out).map(|(b, _, _)| b.line())
    } else {
        probe(
            &inputs,
            dir,
            PROBE_ROUNDS,
            &mut TierCounters::default(),
            &mut out,
        )
        .map(|(hit_ms, digests)| {
            Line::default()
                .numbers("hit_ms", &hit_ms)
                .strings("digests", &digests)
        })
    };
    match line {
        Ok(line) => {
            println!("{}", line.finish(&out));
            0
        }
        Err(e) => {
            eprintln!("perfbench: {kind}: {e}");
            1
        }
    }
}

/// Runs a cold workload over `programs`.
///
/// Each batch, and each of the [`PROBES_PER_BATCH`] re-check probes after
/// it, runs in a fresh process of its own ([`CHILD_BATCH`],
/// [`CHILD_PROBE`]); this process times the set-ups and pools the samples.
/// How fast a process runs can depend on its address-space layout, which is
/// random per process: with one seed, two `heap-cold` processes in five read
/// a median hit of 0.08 ms against 0.12 ms for the rest, and under `setarch
/// -R` six in six read 0.11–0.13 ms. A run of one process draws one layout;
/// a run of many averages over them. A fresh process per batch also gives
/// every batch the same empty heap, so the median of their peaks is
/// reported.
pub fn run(programs: fn() -> Vec<Program>, args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let inputs = timed_set_up(programs, args.seed, None, &mut setup_s, &mut out);
    let workload = &args.workload;
    let unique = inputs
        .job_of
        .iter()
        .enumerate()
        .filter(|(i, j)| i == *j)
        .count();
    println!(
        "{workload}: seed {} orders {} programs ({unique} distinct); one closed-loop client",
        args.seed,
        inputs.programs.len()
    );

    if args.trace {
        let trace = Trace::new();
        let dir = work.join("batch");
        let (batched, _) = trace.span("session.batch", None, 0, |_| batch(&inputs, &dir, &mut out));
        let (b, stats, answers) = batched?;
        // The batch is itself the cold analysis of its misses.
        let mut tiers = TierCounters {
            cold_work: stats.work,
            ..TierCounters::default()
        };
        tiers.add_stats(stats);
        let (_, digests) = probe(&inputs, &dir, 0, &mut tiers, &mut out)?;
        check_probe(&inputs, &b.digests, &digests, &mut out);
        tiers.store_bytes = crate::dir_bytes(&dir);
        // Decompose each distinct program once, as the batch analysed it.
        let jobs: Vec<usize> = (0..inputs.programs.len())
            .filter(|&i| inputs.job_of[i] == i)
            .collect();
        let named: Vec<(String, &'static str, &str)> = jobs
            .iter()
            .map(|&i| {
                let p = &inputs.programs[i];
                (p.name.clone(), p.suite, p.source.as_str())
            })
            .collect();
        let answers: Vec<_> = jobs.iter().map(|&i| answers[i].clone()).collect();
        let (pivots, cubes) = decompose_and_check(&named, &answers, b.wall_s, 1, &trace, &mut out);
        println!(
            "fingerprint {workload} seed={} {} pivots={pivots} cubes={cubes}",
            args.seed, b.fingerprint
        );
        tiers.metrics(&mut out)?;
        serve::write_trace(&trace, workload, args.seed);
        return Ok(out);
    }

    let mut batches: Vec<Batch> = Vec::new();
    let mut hit_ms = Vec::new();
    let start = Instant::now();
    while batches.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < args.seconds {
        let dir = work.join(format!("batch{}", batches.len()));
        let child_args = |kind: &str| {
            [
                kind,
                workload,
                &args.seed.to_string(),
                &dir.display().to_string(),
            ]
            .map(str::to_string)
        };
        let line = child::run(&child_args(CHILD_BATCH))?;
        child::absorb(&mut out, &line)?;
        let b = Batch::parse(&line)?;
        for _ in 0..PROBES_PER_BATCH {
            let line = child::run(&child_args(CHILD_PROBE))?;
            child::absorb(&mut out, &line)?;
            hit_ms.extend(child::numbers(&line, "hit_ms")?);
            check_probe(
                &inputs,
                &b.digests,
                &child::strings(&line, "digests")?,
                &mut out,
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        batches.push(b);
        // More set-ups between batches, so that the set-up samples spread
        // over the run as the batches do, not over its first tenth of a second.
        timed_set_up(programs, args.seed, Some(&inputs), &mut setup_s, &mut out);
    }
    let fingerprint = &batches[0].fingerprint;
    println!("fingerprint {workload} seed={} {fingerprint}", args.seed);
    for (i, b) in batches.iter().enumerate().skip(1) {
        if b.fingerprint != *fingerprint {
            out.problem(format!("batch {i} fingerprint {} differs", b.fingerprint));
        }
        if b.digests != batches[0].digests {
            out.problem(format!("batch {i} answers differ from batch 0"));
        }
    }
    let rates: Vec<f64> = batches
        .iter()
        .map(|b| inputs.programs.len() as f64 / b.cpu_s)
        .collect();
    // An edit sample is one fresh analysis: the first program with each key.
    // Where the fewest batches give too few of those for a p90 with
    // `MIN_BEYOND` samples beyond it (heap-cold: 8 per batch), every program
    // counts as a sample of the analysis that answered it instead. Not so
    // everywhere: int-cold's p90 then falls inside one family of about 40
    // copies and rests on that family's two analyses a run, and it read
    // 138-188 ms over ten runs.
    let fresh_only = unique * MIN_BATCHES >= 10 * MIN_BEYOND;
    let edit_ms: Vec<f64> = batches
        .iter()
        .flat_map(|b| {
            b.job_ms
                .iter()
                .enumerate()
                .filter(|&(i, _)| !fresh_only || inputs.job_of[i] == i)
                .map(|(_, &ms)| ms)
        })
        .collect();
    let peaks: Vec<f64> = batches.iter().map(|b| b.peak_rss_mb).collect();
    let decided: u64 = batches.iter().map(|b| b.decided).sum();
    let answered = (inputs.programs.len() * batches.len()) as f64;
    let times: Vec<String> = batches
        .iter()
        .map(|b| format!("{:.3}/{:.3}", b.cpu_s, b.wall_s))
        .collect();
    println!(
        "{workload}: {} batches, CPU/wall {} s; {} probe processes, {} timed hits",
        batches.len(),
        times.join(" "),
        batches.len() * PROBES_PER_BATCH,
        hit_ms.len()
    );
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("programs_per_s", median(&rates), "1/s");
    out.metric("edit_p50_ms", percentile(&edit_ms, 50.0)?, "ms");
    out.metric("edit_p90_ms", percentile(&edit_ms, 90.0)?, "ms");
    out.metric("hit_p50_ms", percentile(&hit_ms, 50.0)?, "ms");
    out.metric("decided_share", decided as f64 / answered, "ratio");
    out.metric("peak_rss_mb", median(&peaks), "MiB");
    Ok(out)
}

/// Decomposes `programs` (`(name, suite, source)`) through the layers on
/// `workers` threads, checks each against its reference answer, prints the
/// per-suite layer rows and the ten costliest programs, and records the
/// layer metrics; returns the total pivots and cubes. `reference_s` is the
/// untraced wall time of the same
/// analyses; the difference is the tracing overhead.
pub fn decompose_and_check(
    programs: &[(String, &'static str, &str)],
    answers: &[Option<Reference>],
    reference_s: f64,
    workers: usize,
    trace: &Trace,
    out: &mut Outcome,
) -> (u64, u64) {
    let sources: Vec<&str> = programs.iter().map(|p| p.2).collect();
    let start = Instant::now();
    let decomposed = layers::decompose_all(&sources, &InferOptions::default(), trace, workers);
    let traced_s = start.elapsed().as_secs_f64();
    let mut totals = Totals::default();
    let mut by_suite: BTreeMap<&str, Totals> = BTreeMap::new();
    let mut costs: Vec<(&str, &Decomposed)> = Vec::new();
    let (mut pivots, mut cubes) = (0u64, 0u64);
    for ((name, suite, _), (d, answer)) in programs.iter().zip(decomposed.iter().zip(answers)) {
        out.attempted += 1;
        match d {
            Ok(d) => {
                match answer {
                    Some(reference) => {
                        if let Err(why) = d.matches(reference) {
                            out.problem(format!("layer decomposition of {name}: {why}"));
                        }
                    }
                    None => out.problem(format!("{name}: no reference answer to compare")),
                }
                totals.add(d);
                by_suite.entry(suite).or_default().add(d);
                costs.push((name, d));
                pivots += d.solve_pivots + d.validate_pivots;
                cubes += d.cubes;
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("layer decomposition of {name}: {e}"));
            }
        }
    }
    println!("{}", Totals::header());
    for (suite, t) in &by_suite {
        println!("{}", t.row(suite));
    }
    println!("{}", totals.row("all"));
    costs.sort_by(|a, b| b.1.total_s().total_cmp(&a.1.total_s()).then(a.0.cmp(b.0)));
    println!("top programs by layer time:");
    for (name, d) in costs.iter().take(10) {
        println!(
            "  {name:<24} {:>8.4} s  solve {:>8.4} s  pivots {:>7}  cubes {:>7}  work {:>7}",
            d.total_s(),
            d.solve_s,
            d.solve_pivots + d.validate_pivots,
            d.cubes,
            d.stats.work
        );
    }
    println!(
        "trace: {} programs decomposed in {traced_s:.3} s against {reference_s:.3} s untraced; \
         pivots={pivots} cubes={cubes} work={}",
        programs.len(),
        totals.work
    );
    totals.metrics(out);
    out.metric("trace.overhead_s", traced_s - reference_s, "s");
    (pivots, cubes)
}
