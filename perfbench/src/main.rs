//! The repository's benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload heap-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads, the metrics and the layer each
//! per-layer metric belongs to.

mod child;
mod cold;
mod corpus;
mod edit;
mod layers;
mod serve;
mod stats;

use std::path::{Path, PathBuf};

/// What one run measured and found.
#[derive(Default)]
pub struct Outcome {
    /// Verdicts and responses asked for.
    pub attempted: u64,
    /// Errors, panics and non-`ok` responses among them.
    pub failed: u64,
    /// Failed correctness checks, each one line.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite value as JSON; a non-finite one (no samples) as `null`, which
/// the consumer rejects instead of reading a made-up number.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// The parsed command line.
pub struct Args {
    /// The workload name.
    pub workload: String,
    /// The input seed.
    pub seed: u64,
    /// How long the timed part runs, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set size so far, in MiB, as the kernel
/// tracks it (`VmHWM` in `/proc/self/status`); `NaN` where that file does
/// not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Keeps glibc's malloc to one arena for the whole process.
///
/// Every analysis a session starts runs on a thread spawned for it. By
/// default glibc gives a new thread a new arena when no arena is free at
/// that moment, which depends on how far the previous thread got in exiting.
/// The count of arenas then varied from run to run (three or four after one
/// `serve-edit` pass), and with it whether the freed memory of two heavy
/// analyses stacked: one run in seven read a peak of 438 MiB against
/// 311–323 MiB. One arena makes the peak a function of the inputs. Only one
/// thread allocates at a time in every workload, so the arena's lock is
/// never contended.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_ARENA_MAX`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two integers and has no other preconditions.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

/// `struct timespec` as 64-bit Linux lays it out.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the whole process has used so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`: every thread, user and system time).
///
/// Every bounded timing of the benchmark is a difference of this clock, not
/// of the wall clock. The measured work runs on one thread at a time, so on
/// an idle machine the two agree; on a shared host the CPU clock leaves out
/// the time the process waited for a CPU. With two busy processes beside a
/// `heap-cold` run, the median re-check probe hit went from 0.15 to 3.97 ms
/// by the wall clock and stayed near 0.15 ms by this one.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (64-bit Linux
    // layout), the only memory `clock_gettime` writes; clock 2 is
    // CLOCK_PROCESS_CPUTIME_ID on Linux.
    let rc = unsafe { clock_gettime(2, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Total size of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A serve request line for `source` with numeric id `id`.
pub fn request_line(id: u64, source: &str) -> String {
    let mut line = format!("{{\"id\":{id},\"source\":\"");
    serde_json::json_escape_into(source, &mut line);
    line.push_str("\"}");
    line
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    match (
        args.workload.as_str(),
        corpus::cold_programs(&args.workload),
    ) {
        (_, Some(programs)) => cold::run(programs, args, work),
        ("serve-edit", None) => serve::run(args, work),
        (other, None) => Err(format!(
            "unknown workload {other:?} (heap-cold, int-cold, serve-edit)"
        )),
    }
}

fn main() {
    // First, before any thread exists.
    one_malloc_arena();
    // Child processes: `serve-edit` builds yesterday's store in one (see
    // `serve::build_store`), so that its memory is not this process's, and
    // the cold workloads run each batch and each probe in one (see
    // `cold::run`).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some(serve::BUILD_STORE) => std::process::exit(serve::build_store_main()),
        Some(cold::CHILD_BATCH | cold::CHILD_PROBE) => std::process::exit(cold::child_main(&argv)),
        _ => {}
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    // Stores live in a per-process directory of the checkout, removed at exit.
    let work: PathBuf = Path::new(".bench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(outcome) => {
            for problem in &outcome.problems {
                println!("problem: {problem}");
            }
            println!("{}", outcome.json());
            if !outcome.problems.is_empty() || outcome.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
