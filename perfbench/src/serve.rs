//! The `serve-edit` workload, and the serve-layer plumbing the cold
//! workloads' re-check probe shares with it.
//!
//! Yesterday's store is built once per run: one member of every distinct
//! canonical program of the corpus (the member drawn with the seed) is
//! analysed into a fresh `SummaryStore`. Each pass then restarts the daemon
//! over a copy of that store (a new `SummaryStore` and `Server`) and sends a
//! seeded interleaving of four request classes from one closed-loop client
//! through `Server::handle_line`:
//!
//! * `base` — a drawn program, unchanged: served by the store tier;
//! * `root-edit` — a dead local at the start of `main` (see [`crate::edit`]);
//! * `leaf-edit` — a dead local at the start of the last loop body;
//! * `repeat` — a re-send of an earlier request: served by the memory tier.
//!
//! Every program gets one request of each of the first three classes, so the
//! mix of programs is the same for every seed; the seed picks the member that
//! stands for each program, the order, the edit constants and what repeats.

use crate::corpus::{self, Program, Rng};
use crate::edit::{self, EditKind};
use crate::layers::{Reference, Trace};
use crate::stats::{median, percentile};
use crate::{Args, Outcome};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tnt_infer::session::default_workers;
use tnt_infer::{AnalysisSession, InferOptions, ProgramKey, SessionStats};
use tnt_serve::Server;
use tnt_store::SummaryStore;

/// One parsed response line.
pub struct Answer {
    /// The entry verdict.
    pub verdict: String,
    /// Rendered summaries by label.
    pub rendered: BTreeMap<String, String>,
    /// `stats.work` of the served result.
    pub work: u64,
    /// Whether a cache tier served it.
    pub cached: bool,
    /// The server's own time for the request.
    pub elapsed_s: f64,
}

/// Parses a response line; an error names what is wrong with it, including
/// a well-formed `status: error` response.
pub fn parse_response(line: &str) -> Result<Answer, String> {
    let value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let status = value.get("status").and_then(|s| s.as_str());
    if status != Some("ok") {
        let error = value.get("error").and_then(|e| e.as_str()).unwrap_or("");
        return Err(format!("status {status:?}: {error}"));
    }
    let field = |name: &str| value.get(name).ok_or(format!("no {name}"));
    let rendered = field("summaries")?
        .as_object()
        .ok_or("summaries is not an object")?
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_str().ok_or("summary is not a string")?.to_string(),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Answer {
        verdict: field("verdict")?.as_str().ok_or("verdict")?.to_string(),
        rendered,
        work: field("work")?.as_f64().ok_or("work")? as u64,
        cached: field("cached")?.as_bool().ok_or("cached")?,
        elapsed_s: field("elapsed_s")?.as_f64().ok_or("elapsed_s")?,
    })
}

/// What the session, store and serve layers did in a traced front-door pass.
#[derive(Default)]
pub struct TierCounters {
    /// Session counters, summed over the sessions of the pass.
    pub stats: SessionStats,
    /// Work units a cold session spent on the same misses, the base of
    /// `session.replay_saving`.
    pub cold_work: u64,
    /// `BatchEntry.elapsed` of each hit, in ms.
    pub lookup_ms: Vec<f64>,
    /// Seconds to open the store the pass restarted over.
    pub store_open_s: f64,
    /// Program records in that store when opened.
    pub store_entries: u64,
    /// Method records in that store when opened.
    pub store_method_entries: u64,
    /// Store bytes at the end of the pass.
    pub store_bytes: u64,
    /// `handle_line` wall time minus the response's `elapsed_s`, in ms.
    pub overhead_ms: Vec<f64>,
    /// Responses whose status was not `ok`.
    pub error_responses: u64,
}

impl TierCounters {
    /// Adds a session's counters.
    pub fn add_stats(&mut self, s: SessionStats) {
        let t = &mut self.stats;
        t.programs += s.programs;
        t.dedup_hits += s.dedup_hits;
        t.memory_hits += s.memory_hits;
        t.store_hits += s.store_hits;
        t.store_writes += s.store_writes;
        t.method_hits += s.method_hits;
        t.cache_misses += s.cache_misses;
        t.work += s.work;
    }

    /// Records one served request: its wall time and parsed answer.
    pub fn add_response(&mut self, wall_s: f64, answer: &Result<Answer, String>) {
        match answer {
            Ok(a) => {
                self.overhead_ms.push((wall_s - a.elapsed_s) * 1e3);
                if a.cached {
                    self.lookup_ms.push(a.elapsed_s * 1e3);
                }
            }
            Err(_) => self.error_responses += 1,
        }
    }

    /// The per-layer metrics of the `session`, `store` and `serve` layers.
    pub fn metrics(&self, out: &mut Outcome) -> Result<(), String> {
        let s = &self.stats;
        out.metric(
            "session.lookup_ms",
            percentile(&self.lookup_ms, 50.0)?,
            "ms",
        );
        out.metric("session.dedup_hits", s.dedup_hits as f64, "count");
        out.metric("session.memory_hits", s.memory_hits as f64, "count");
        out.metric("session.store_hits", s.store_hits as f64, "count");
        out.metric("session.method_hits", s.method_hits as f64, "count");
        out.metric("session.cache_misses", s.cache_misses as f64, "count");
        out.metric("session.store_writes", s.store_writes as f64, "count");
        out.metric(
            "session.hit_share",
            s.cache_hits() as f64 / s.programs.max(1) as f64,
            "ratio",
        );
        out.metric(
            "session.replay_saving",
            1.0 - s.work as f64 / self.cold_work.max(1) as f64,
            "ratio",
        );
        out.metric("store.open_s", self.store_open_s, "s");
        out.metric("store.entries", self.store_entries as f64, "count");
        out.metric(
            "store.method_entries",
            self.store_method_entries as f64,
            "count",
        );
        out.metric("store.bytes", self.store_bytes as f64, "bytes");
        out.metric(
            "serve.overhead_ms",
            percentile(&self.overhead_ms, 50.0)?,
            "ms",
        );
        out.metric(
            "serve.error_responses",
            self.error_responses as f64,
            "count",
        );
        Ok(())
    }
}

/// Opens the store in `dir` and a server over it; returns the server, the
/// store handle, and the CPU seconds of the open and of the whole restart.
pub fn restart(dir: &Path) -> Result<(Server, Arc<SummaryStore>, f64, f64), String> {
    let start = crate::cpu_s();
    let store = Arc::new(
        SummaryStore::open(dir).map_err(|e| format!("open store {}: {e}", dir.display()))?,
    );
    let open_s = crate::cpu_s() - start;
    let server = Server::new(InferOptions::default()).with_store(store.clone());
    Ok((server, store, open_s, crate::cpu_s() - start))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Base,
    RootEdit,
    LeafEdit,
    Repeat,
}

struct Request {
    class: Class,
    /// Index into the drawn programs (for the ground truth).
    program: usize,
    source: String,
}

/// One member per distinct canonical program, in seeded order.
fn draw(seed: u64) -> Vec<Program> {
    let mut programs = corpus::all_programs();
    Rng::new(seed).shuffle(&mut programs);
    let options = InferOptions::default();
    let mut seen = HashSet::new();
    programs.retain(|p| {
        let program = tnt_lang::frontend(&p.source).expect("corpus programs compile");
        seen.insert(ProgramKey::of(&program, &options))
    });
    programs
}

/// The request stream: one base, one root edit and one leaf edit of every
/// drawn program in seeded order, with as many repeats inserted at seeded
/// positions, each re-sending a seeded earlier request.
fn stream(programs: &[Program], seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5e2e_ed17);
    let mut requests = Vec::new();
    for (index, p) in programs.iter().enumerate() {
        requests.push(Request {
            class: Class::Base,
            program: index,
            source: p.source.clone(),
        });
        for (class, kind) in [
            (Class::RootEdit, EditKind::Root),
            (Class::LeafEdit, EditKind::Leaf),
        ] {
            let value = 1 + rng.below(99) as u64;
            let source = edit::apply(&p.source, kind, value)
                .unwrap_or_else(|| panic!("{}: no {kind:?} edit site", p.name));
            requests.push(Request {
                class,
                program: index,
                source,
            });
        }
    }
    rng.shuffle(&mut requests);
    for _ in 0..programs.len() {
        let at = 1 + rng.below(requests.len());
        let target = &requests[rng.below(at)];
        let repeat = Request {
            class: Class::Repeat,
            program: target.program,
            source: target.source.clone(),
        };
        requests.insert(at, repeat);
    }
    requests
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// What one pass produced.
struct Pass {
    /// CPU seconds of the requests.
    cpu_s: f64,
    /// Wall seconds of the request stream, for the log.
    wall_s: f64,
    /// The CPU time from send to response of each request, in ms, by
    /// [`Class`].
    latency_ms: [Vec<f64>; 4],
    /// Correct definite answers among the distinct request texts.
    decided: u64,
    /// Distinct request texts (a repeat asks nothing new).
    distinct: u64,
    fingerprint: String,
    tiers: TierCounters,
    /// The answer to each distinct request text the server computed.
    computed: Vec<(String, usize, Answer)>,
}

/// How many daemon restarts a pass times.
const RESTARTS_PER_PASS: usize = 15;

/// Yesterday's store, built once per run.
struct Yesterday {
    /// The store every pass starts from a copy of.
    fixture: PathBuf,
    /// A second copy, which the timed restarts within a pass open.
    restart: PathBuf,
}

fn pass(
    programs: &[Program],
    requests: &[Request],
    yesterday: &Yesterday,
    dir: &Path,
    setup_s: &mut Vec<f64>,
    trace: Option<&Trace>,
    out: &mut Outcome,
) -> Result<Pass, String> {
    copy_dir(&yesterday.fixture, dir)?;
    // Set-up is the daemon restart: open the store, build the server. The
    // restart that serves the pass is timed, and so are more restarts spread
    // over the pass, each over `yesterday.restart` (an untouched copy of
    // yesterday's store, as the store takes one writer per directory) and
    // dropped at once. Their samples then spread over the run as the
    // requests do, not over its first few milliseconds.
    let restart_every = requests.len().div_ceil(RESTARTS_PER_PASS - 1);
    let (server, store, open_s, total) = restart(dir)?;
    setup_s.push(total);
    let mut tiers = TierCounters {
        store_open_s: open_s,
        store_entries: store.entries() as u64,
        store_method_entries: store.method_entries() as u64,
        ..TierCounters::default()
    };
    drop(store);
    let mut first: HashMap<&str, BTreeMap<String, String>> = HashMap::new();
    let mut computed = Vec::new();
    let mut latency_ms: [Vec<f64>; 4] = Default::default();
    let mut counts = [0u64; 4];
    let mut decided = 0;
    let wall = Instant::now();
    for (id, request) in requests.iter().enumerate() {
        if id % restart_every == restart_every / 2 {
            let (_, _, _, total) = restart(&yesterday.restart)?;
            setup_s.push(total);
        }
        let line = crate::request_line(id as u64, &request.source);
        let c = crate::cpu_s();
        let t = Instant::now();
        let response = match trace {
            Some(trace) => {
                trace
                    .span("serve.request", None, id as u64, |_| {
                        server.handle_line(&line)
                    })
                    .0
            }
            None => server.handle_line(&line),
        };
        let wall_s = t.elapsed().as_secs_f64();
        latency_ms[request.class as usize].push((crate::cpu_s() - c) * 1e3);
        out.attempted += 1;
        let answer = parse_response(&response);
        tiers.add_response(wall_s, &answer);
        let answer = match answer {
            Ok(answer) => answer,
            Err(e) => {
                out.failed += 1;
                out.problem(format!("request {id} ({:?}): {e}", request.class));
                continue;
            }
        };
        let program = &programs[request.program];
        let (unsound, ok) = corpus::score(&answer.verdict, program.expected);
        if unsound {
            out.problem(format!(
                "unsound {} on {:?} of {} (expected {})",
                answer.verdict, request.class, program.name, program.expected
            ));
        }
        counts[corpus::verdict_slot(&answer.verdict)] += 1;
        match first.get(request.source.as_str()) {
            Some(summaries) if *summaries != answer.rendered => out.problem(format!(
                "request {id} ({:?}) of {}: summaries differ from the first answer",
                request.class, program.name
            )),
            Some(_) => {}
            None => {
                decided += u64::from(ok);
                first.insert(&request.source, answer.rendered.clone());
                if !answer.cached {
                    computed.push((request.source.clone(), request.program, answer));
                }
            }
        }
    }
    let cpu_s = latency_ms.iter().flatten().sum::<f64>() / 1e3;
    let wall_s = wall.elapsed().as_secs_f64();
    let stats = server.stats();
    tiers.add_stats(stats);
    drop(server);
    tiers.store_bytes = crate::dir_bytes(dir);
    let _ = std::fs::remove_dir_all(dir);
    let reported_work: u64 = computed.iter().map(|c| c.2.work).sum();
    let fingerprint = format!(
        "Y={} N={} U={} T/O={} measured_work={} work={} dedup={} memory={} store={} method={} misses={} writes={}",
        counts[0], counts[1], counts[2], counts[3],
        stats.work, reported_work, stats.dedup_hits, stats.memory_hits,
        stats.store_hits, stats.method_hits, stats.cache_misses, stats.store_writes
    );
    Ok(Pass {
        cpu_s,
        wall_s,
        latency_ms,
        decided,
        distinct: first.len() as u64,
        fingerprint,
        tiers,
        computed,
    })
}

/// The first argument that runs [`build_store_main`] instead of a workload.
pub const BUILD_STORE: &str = "build-store";

/// Builds yesterday's store in `dir` for `seed` in a child process: the
/// same executable, run with `build-store <dir> <seed>`. A separate process
/// keeps the set-up's memory out of the measured process, as a daemon
/// restarted over yesterday's store starts with none of it.
fn build_store(dir: &Path, seed: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg(BUILD_STORE)
        .arg(dir)
        .arg(seed.to_string())
        .status()
        .map_err(|e| format!("start the build-store child: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the build-store child failed: {status}"))
    }
}

/// The child side of [`build_store`]: analyses every drawn program into a
/// fresh store, in one batch on every core, checking each verdict against
/// the ground truth. Returns the process exit code.
pub fn build_store_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let (Some(dir), Some(Ok(seed)), 2) = (args.first(), args.get(1).map(|s| s.parse()), args.len())
    else {
        eprintln!("perfbench: usage: {BUILD_STORE} <dir> <seed>");
        return 2;
    };
    let programs = draw(seed);
    let store = match SummaryStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("perfbench: open {dir}: {e}");
            return 1;
        }
    };
    let session = AnalysisSession::new(InferOptions::default()).with_store(Arc::new(store));
    let sources: Vec<&str> = programs.iter().map(|p| p.source.as_str()).collect();
    let mut code = 0;
    for (p, entry) in programs
        .iter()
        .zip(session.analyze_batch_with(&sources, default_workers()))
    {
        let problem = match entry.result {
            Ok(result) => {
                let verdict = corpus::verdict(&result);
                corpus::score(verdict, p.expected)
                    .0
                    .then(|| format!("unsound {verdict} on {}", p.name))
            }
            Err(e) => Some(format!("{}: {e}", p.name)),
        };
        if let Some(problem) = problem {
            eprintln!("perfbench: yesterday's store: {problem}");
            code = 1;
        }
    }
    code
}

/// Runs `serve-edit`.
pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let programs = draw(args.seed);
    let requests = stream(&programs, args.seed);
    let edits = requests
        .iter()
        .filter(|r| matches!(r.class, Class::RootEdit | Class::LeafEdit))
        .count();
    let yesterday = Yesterday {
        fixture: work.join("fixture"),
        restart: work.join("restart"),
    };
    let started = Instant::now();
    build_store(&yesterday.fixture, args.seed)?;
    copy_dir(&yesterday.fixture, &yesterday.restart)?;
    println!(
        "serve-edit: seed {} draws {} programs, {} requests ({edits} edits) per pass; \
         yesterday's store built in {:.3} s on {} workers; one closed-loop client",
        args.seed,
        programs.len(),
        requests.len(),
        started.elapsed().as_secs_f64(),
        default_workers()
    );

    let mut setup_s = Vec::new();
    if args.trace {
        let trace = Trace::new();
        let mut p = pass(
            &programs,
            &requests,
            &yesterday,
            &work.join("pass"),
            &mut setup_s,
            Some(&trace),
            &mut out,
        )?;
        let (pivots, cubes) = traced_layers(&mut p, &programs, &trace, &mut out);
        println!(
            "fingerprint serve-edit seed={} {} pivots={pivots} cubes={cubes}",
            args.seed, p.fingerprint
        );
        p.tiers.metrics(&mut out)?;
        write_trace(&trace, "serve-edit", args.seed);
        return Ok(out);
    }

    let mut passes = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let dir = work.join(format!("pass{}", passes.len()));
        passes.push(pass(
            &programs,
            &requests,
            &yesterday,
            &dir,
            &mut setup_s,
            None,
            &mut out,
        )?);
        if passes.len() == 1 {
            // As for the cold batches: the first pass's peak, before any
            // memory kept from an earlier pass.
            peak_rss_mb = crate::peak_rss_mb();
        }
    }
    let fingerprint = &passes[0].fingerprint;
    println!("fingerprint serve-edit seed={} {fingerprint}", args.seed);
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.fingerprint != *fingerprint {
            out.problem(format!("pass {i} fingerprint {} differs", p.fingerprint));
        }
    }
    let cpu: f64 = passes.iter().map(|p| p.cpu_s).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| requests.len() as f64 / p.cpu_s)
        .collect();
    let latency = |classes: &[Class]| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| {
                classes
                    .iter()
                    .flat_map(|c| p.latency_ms[*c as usize].iter().copied())
            })
            .collect()
    };
    let edit_ms = latency(&[Class::RootEdit, Class::LeafEdit]);
    let hit_ms = latency(&[Class::Base, Class::Repeat]);
    let by_class: Vec<String> = [Class::Base, Class::RootEdit, Class::LeafEdit, Class::Repeat]
        .iter()
        .map(|c| format!("{c:?} {:.4}", median(&latency(&[*c]))))
        .collect();
    println!(
        "serve-edit: median CPU ms by class: {}",
        by_class.join(", ")
    );
    let decided: u64 = passes.iter().map(|p| p.decided).sum();
    let distinct: u64 = passes.iter().map(|p| p.distinct).sum();
    println!(
        "serve-edit: {} passes, {} edits and {} hits timed over {cpu:.3} CPU s ({wall:.3} s wall)",
        passes.len(),
        edit_ms.len(),
        hit_ms.len()
    );
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("programs_per_s", median(&rates), "1/s");
    out.metric("edit_p50_ms", percentile(&edit_ms, 50.0)?, "ms");
    out.metric("edit_p90_ms", percentile(&edit_ms, 90.0)?, "ms");
    out.metric("hit_p50_ms", percentile(&hit_ms, 50.0)?, "ms");
    out.metric("decided_share", decided as f64 / distinct as f64, "ratio");
    out.metric("peak_rss_mb", peak_rss_mb, "MiB");
    Ok(out)
}

/// The traced pass's layer decomposition: every program the server computed
/// (the edits) is analysed cold once as a batch (the untraced reference) and
/// once through the layers, and all three answers must agree.
fn traced_layers(
    p: &mut Pass,
    programs: &[Program],
    trace: &Trace,
    out: &mut Outcome,
) -> (u64, u64) {
    let sources: Vec<&str> = p.computed.iter().map(|(s, _, _)| s.as_str()).collect();
    let reference_start = Instant::now();
    let cold = AnalysisSession::without_cache(InferOptions::default());
    let reference = cold.analyze_batch_with(&sources, default_workers());
    let reference_s = reference_start.elapsed().as_secs_f64();
    p.tiers.cold_work = cold.stats().work;
    let answers: Vec<Option<Reference>> = reference
        .iter()
        .map(|e| e.result.as_ref().ok().map(Reference::of))
        .collect();
    for (((_, index, served), entry), cold) in p.computed.iter().zip(&reference).zip(&answers) {
        let name = &programs[*index].name;
        match (&entry.result, cold) {
            (Ok(_), Some(cold)) => {
                let same = cold.verdict == served.verdict
                    && cold.rendered == served.rendered
                    && cold.work == served.work;
                if !same {
                    out.problem(format!(
                        "served edit of {name} differs from its cold analysis"
                    ));
                }
            }
            (Err(e), _) => out.problem(format!("cold analysis of an edit of {name}: {e}")),
            (Ok(_), None) => unreachable!("an Ok result has a reference"),
        }
    }
    let named: Vec<(String, &'static str, &str)> = p
        .computed
        .iter()
        .map(|(s, i, _)| (programs[*i].name.clone(), programs[*i].suite, s.as_str()))
        .collect();
    crate::cold::decompose_and_check(&named, &answers, reference_s, default_workers(), trace, out)
}

/// Writes the trace's spans under `.bench_trace/` and says where.
pub fn write_trace(trace: &Trace, workload: &str, seed: u64) {
    let path = Path::new(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"));
    match trace.write(&path) {
        Ok(()) => println!("trace: {} spans written to {}", trace.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
