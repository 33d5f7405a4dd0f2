//! Batched analysis sessions with a cross-program summary cache.
//!
//! Every gate and bench binary used to call [`analyze_source`](crate::analyze_source)
//! once per program, re-lexing, re-parsing and re-solving identical method bodies —
//! the template-generated corpora share most of theirs, and the ablation/figure
//! binaries repeat the whole corpus once per option profile. An
//! [`AnalysisSession`] amortises that cost:
//!
//! * **Canonical method keys** — every method of a front-end-processed program is
//!   reduced to its canonical form (the pretty-printed *normalized* AST: loops
//!   desugared, bodies in ANF), and the program's cache key is a 128-bit content
//!   hash (two independent 64-bit FNV variants, see [`ProgramKey`]) of those
//!   canonical forms together with the [`InferOptions`] fingerprint (the option
//!   subset that affects inference — see [`InferOptions::fingerprint`]). Two
//!   textually different sources that normalise to the same program share one
//!   cache entry. The key itself is a 16-byte `Copy` value; the full canonical
//!   text is *not* retained for the life of the entry. Instead each entry keeps
//!   the text as a **verification guard** until its first cache hit: the hit
//!   compares the probing program's text against the guard byte-for-byte, then
//!   drops it. A mismatch would prove a 128-bit collision — the entry is then
//!   marked conflicted and permanently stops serving or accepting results, so a
//!   collision degrades to cache misses, never to wrong summaries. In-batch
//!   de-duplication performs the same textual comparison before merging two
//!   inputs into one job. (After a guard has been verified and dropped, later
//!   *inserts* under the same key can no longer be cross-checked; the guard
//!   window covers the first serve of every entry, which is when an aliased
//!   result could first leak.)
//! * **Cross-program summary cache** — a concurrent map from keys to completed
//!   [`AnalysisResult`]s. Entries carry the whole result, including the
//!   [`AnalysisResult::poisoned`] bit: a summary degraded by saturated rational
//!   arithmetic stays degraded when served on a *different* thread, where the
//!   per-thread [`tnt_solver::rational::overflow_work`] counter that originally
//!   detected the overflow never moved.
//! * **Batched analysis** — [`AnalysisSession::analyze_batch`] parses every source
//!   once, de-duplicates programs by key, and schedules the unique analyses (each
//!   one a deterministic chain of per-SCC proofs) across a worker pool. Panics are
//!   isolated per program, and the work units spent before an abort are attributed
//!   to the aborting program instead of being dropped.
//!
//! # Determinism
//!
//! The analysis of one program is single-threaded and deterministic, so a cache
//! entry is byte-identical to what a fresh analysis of the same canonical program
//! under the same options would produce. Consequently every observable output —
//! verdicts, rendered summaries, per-program `stats.work` — is identical with the
//! cache enabled or disabled, and independent of worker count and scheduling
//! order. Only wall-clock fields (`elapsed`) and the session's own
//! [`SessionStats`] reflect the reuse. A cache entry is never invalidated: keys
//! are pure functions of the canonical program text and the options fingerprint,
//! and the analysis has no other inputs.
//!
//! # Example
//!
//! ```
//! use tnt_infer::{AnalysisSession, InferOptions};
//!
//! let session = AnalysisSession::new(InferOptions::default());
//! let source = "void main(int x) { while (x > 0) { x = x - 1; } }";
//! let batch = session.analyze_batch(&[source, source]);
//! assert_eq!(batch.len(), 2);
//! assert!(batch[1].cache_hit, "identical program served from the cache");
//! let stats = session.stats();
//! assert_eq!((stats.cache_misses, stats.cache_hits()), (1, 1));
//! ```

use crate::analyzer::{analyze_program, AnalysisResult, InferError, InferOptions};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tnt_lang::ast::Program;

impl InferOptions {
    /// The canonical fingerprint of the option subset that affects inference
    /// results — part of every cache key, so two profiles never share an entry
    /// unless every result-relevant switch agrees. (Today that is *every* field:
    /// even `validate` changes the result's `validated` flag.)
    pub fn fingerprint(&self) -> String {
        // Exhaustive destructuring (no `..`): adding a field to `InferOptions`
        // without deciding its cache-key role is a compile error here, not a
        // silent cross-profile aliasing bug.
        let InferOptions {
            max_iterations,
            enable_base_case,
            enable_case_split,
            lexicographic,
            max_lex_components,
            multiphase,
            max_phases,
            recurrent,
            orbit_enrichment,
            validate,
            work_budget,
            max_total_cases,
            max_splits_per_family,
        } = self;
        format!(
            "it={max_iterations};bc={enable_base_case};cs={enable_case_split};\
             lex={lexicographic};lc={max_lex_components};mp={multiphase};\
             ph={max_phases};rec={recurrent};oe={orbit_enrichment};val={validate};\
             wb={work_budget};tc={max_total_cases};sf={max_splits_per_family}"
        )
    }
}

/// The canonical form of one method: its pretty-printed declaration after the
/// front-end has desugared loops and normalised the body. Methods with identical
/// canonical forms are indistinguishable to the analysis.
pub fn canonical_method(method: &tnt_lang::MethodDecl) -> String {
    tnt_lang::pretty::method_str(method)
}

/// The canonical form of a whole front-end-processed program: every declaration
/// the analysis can observe — data/predicate declarations, lemmas and each
/// method's canonical form — as rendered by [`tnt_lang::pretty::program_str`].
pub fn canonical_program(program: &Program) -> String {
    tnt_lang::pretty::program_str(program)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A summary-cache key: a 128-bit content hash of the canonical program text
/// plus the options fingerprint. The two halves are the 64-bit FNV-1a
/// (xor-then-multiply) and FNV-1 (multiply-then-xor) digests of the same byte
/// stream — independent enough that a simultaneous collision in both is out of
/// reach for any realistic corpus, and cheap enough to stream in one pass.
///
/// The key is 16 bytes and `Copy`; it does **not** retain the keyed text. The
/// session's cache backs every entry with a one-shot full-text verification
/// guard (see the [module documentation](self)) so that even a 128-bit
/// collision degrades to cache misses rather than aliased summaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    fnv1a: u64,
    fnv1: u64,
}

impl ProgramKey {
    /// Builds the key of a front-end-processed program under the given options.
    pub fn of(program: &Program, options: &InferOptions) -> ProgramKey {
        ProgramKey::of_keyed_text(&keyed_text(
            &canonical_program(program),
            &options.fingerprint(),
        ))
    }

    /// Streams both FNV variants over the already-joined keyed text
    /// (canonical program + `'\x1f'` + options fingerprint).
    fn of_keyed_text(keyed: &str) -> ProgramKey {
        let mut a: u64 = FNV_OFFSET;
        let mut b: u64 = FNV_OFFSET;
        for byte in keyed.bytes() {
            let byte = u64::from(byte);
            a = (a ^ byte).wrapping_mul(FNV_PRIME);
            b = b.wrapping_mul(FNV_PRIME) ^ byte;
        }
        ProgramKey { fnv1a: a, fnv1: b }
    }

    /// The FNV-1a half of the hash (exposed for diagnostics).
    pub fn hash_value(&self) -> u64 {
        self.fnv1a
    }

    /// The key as 16 little-endian bytes (FNV-1a half first) — the on-disk
    /// form used by persistent summary stores.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&self.fnv1a.to_le_bytes());
        bytes[8..].copy_from_slice(&self.fnv1.to_le_bytes());
        bytes
    }

    /// Rebuilds a key from its [`ProgramKey::to_bytes`] form.
    pub fn from_bytes(bytes: [u8; 16]) -> ProgramKey {
        ProgramKey {
            fnv1a: u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
            fnv1: u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }
}

/// The 64-bit FNV-1a digest of an [`InferOptions::fingerprint`] string, stored
/// alongside each persistent record as a cross-check that the record was
/// produced under the option profile the reader expects (the fingerprint is
/// already hashed into the [`ProgramKey`]; this field makes the pairing
/// auditable without retaining the full string on disk).
pub fn fingerprint_hash(fingerprint: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in fingerprint.bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A persistent second cache tier behind the in-memory summary cache: the
/// session reads through it on a memory miss and writes every freshly computed
/// result behind it (see [`AnalysisSession::with_store`]).
///
/// Implementations must be safe for concurrent use from the session's worker
/// threads. The canonical implementation is `tnt_store::SummaryStore`, the
/// append-only content-addressed on-disk store.
///
/// Unlike the in-memory tier, a persistent tier has no full-text verification
/// guard: the inserting process is usually long gone, so a served record is
/// trusted on its 128-bit content key (plus the fingerprint-hash cross-check)
/// alone. The in-memory tier still installs the probing program's text as the
/// guard of a store-served entry, so later in-process probes keep the full
/// collision detection.
pub trait SummaryBackend: Send + Sync {
    /// Loads the result stored under `key`, if any. `fingerprint_hash` is the
    /// [`self::fingerprint_hash`] of the probing options profile;
    /// a record stored under the same key but a different fingerprint hash is
    /// a miss (and a corruption diagnostic, since the key already encodes the
    /// fingerprint).
    fn load(&self, key: &ProgramKey, fingerprint_hash: u64) -> Option<AnalysisResult>;

    /// Persists `result` under `key`. Returns `true` when a record was
    /// actually written (`false` when the key was already present — results
    /// are deterministic, so rewriting would only duplicate the record).
    fn store(&self, key: &ProgramKey, fingerprint_hash: u64, result: &AnalysisResult) -> bool;

    /// Drains any diagnostics the backend accumulated (e.g. corrupt records it
    /// self-healed around). The default implementation has none.
    fn take_diagnostics(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Joins a canonical program text and an options fingerprint into the byte
/// stream that is hashed into a [`ProgramKey`] and compared by the cache's
/// verification guards. `'\x1f'` (ASCII unit separator) cannot occur in either
/// part, so the join is injective.
fn keyed_text(canonical: &str, fingerprint: &str) -> String {
    let mut text = String::with_capacity(canonical.len() + 1 + fingerprint.len());
    text.push_str(canonical);
    text.push('\x1f');
    text.push_str(fingerprint);
    text
}

/// One summary-cache entry: the result plus the collision-verification state.
struct CacheSlot {
    result: AnalysisResult,
    /// The full keyed text, retained from insert until the first cache hit
    /// verifies it byte-for-byte (then dropped to reclaim the memory).
    guard: Option<Box<str>>,
    /// Set when a guard comparison failed — a proven 128-bit collision. A
    /// conflicted slot never serves hits and never accepts new results, so
    /// both colliding programs are simply re-analysed on every submission.
    conflicted: bool,
}

/// A point-in-time snapshot of the summary cache's memory footprint, read via
/// [`AnalysisSession::cache_memory`].
///
/// `resident_guard_bytes` is the keyed text the cache still holds (guards not
/// yet verified and dropped), and `key_bytes` is the fixed 16 bytes per entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheMemory {
    /// Live cache entries.
    pub entries: u64,
    /// Fixed key storage: 16 bytes per entry.
    pub key_bytes: u64,
    /// Verification-guard bytes still resident (not yet verified and dropped).
    pub resident_guard_bytes: u64,
}

impl CacheMemory {
    /// Bytes currently resident under the hash-verified scheme.
    pub fn resident_bytes(&self) -> u64 {
        self.key_bytes + self.resident_guard_bytes
    }
}

/// Counters of one session's reuse and spending, read via
/// [`AnalysisSession::stats`].
///
/// The three hit counters are disjoint by construction, so a `BENCH_*.json`
/// delta is attributable to the tier that moved: an in-batch duplicate never
/// consults the caches at all, a memory hit never reaches the store, and a
/// store hit is by definition a memory miss.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Programs submitted (batch entries plus single-shot calls).
    pub programs: u64,
    /// Programs de-duplicated against an identical program *within the same
    /// batch* (the duplicate never consults any cache tier).
    pub dedup_hits: u64,
    /// Programs served from the in-memory summary cache.
    pub memory_hits: u64,
    /// Programs served from the persistent store tier
    /// (see [`AnalysisSession::with_store`]).
    pub store_hits: u64,
    /// Freshly computed results written behind to the persistent store tier.
    pub store_writes: u64,
    /// Always `0`: the per-method record tier that counted here is gone. Kept
    /// only because the benchmark package still reads it; the next change to
    /// the benchmark removes it.
    pub method_hits: u64,
    /// Programs actually analysed.
    pub cache_misses: u64,
    /// Deterministic work units (simplex pivots + DNF cubes) actually spent by
    /// this session across all worker threads — the full per-analysis counter
    /// delta (verification, solving *and* validation; failed and panicked runs
    /// included). Cache hits add nothing here, which is exactly the point.
    pub work: u64,
}

impl SessionStats {
    /// All programs served without a fresh analysis — the sum of the three
    /// disjoint hit tiers (kept for back-compat with the pre-split counter).
    pub fn cache_hits(&self) -> u64 {
        self.dedup_hits + self.memory_hits + self.store_hits
    }
}

/// Which reuse tier served a [`BatchEntry`] (see [`BatchEntry::tier`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// De-duplicated against an identical program in the same batch.
    Dedup,
    /// Served from the in-memory summary cache.
    Memory,
    /// Served from the persistent store tier.
    Store,
}

/// One program's outcome within a batch (see
/// [`AnalysisSession::analyze_batch`]).
#[derive(Clone, Debug)]
pub struct BatchEntry {
    /// The analysis result, or the front-end/verification error. A panic inside
    /// the analysis is isolated per program and reported as an `Err` whose
    /// message is also available in [`BatchEntry::panic_note`].
    pub result: Result<AnalysisResult, InferError>,
    /// `Some(note)` when the analysis of this program panicked.
    pub panic_note: Option<String>,
    /// `true` when this entry was served from the cache (including de-duplicated
    /// repeats within the same batch).
    pub cache_hit: bool,
    /// The reuse tier that served this entry, `None` for a fresh analysis.
    pub tier: Option<CacheTier>,
    /// Deterministic work units attributed to this program: `stats.work` of the
    /// (possibly cached) result, or — for a panicked analysis — the units the
    /// aborted run had already spent. Identical across runs, worker counts, and
    /// cache on/off.
    pub work: u64,
    /// Wall-clock seconds *this entry* cost in this batch: the analysis time
    /// for a fresh computation, the (near-zero) lookup time for a cache hit.
    /// The original computation's cost of a served result remains available as
    /// [`AnalysisResult::elapsed`].
    pub elapsed: f64,
}

impl BatchEntry {
    fn from_error(error: InferError) -> BatchEntry {
        BatchEntry {
            result: Err(error),
            panic_note: None,
            cache_hit: false,
            tier: None,
            work: 0,
            elapsed: 0.0,
        }
    }
}

/// Outcome of analysing one unique program inside a batch.
struct JobOutcome {
    result: Result<AnalysisResult, InferError>,
    panic_note: Option<String>,
    /// Work units actually spent on this worker thread (also what a panicked run
    /// burnt before aborting).
    spent: u64,
    elapsed: f64,
}

/// A batch analysis engine with a cross-program summary cache. See the
/// [module documentation](self) for the key definition, invalidation rules and
/// determinism guarantees.
pub struct AnalysisSession {
    options: InferOptions,
    /// [`InferOptions::fingerprint`] of `options`, computed once at
    /// construction and reused for every key built under the default profile
    /// (see [`AnalysisSession::fingerprint_for`]).
    fingerprint: String,
    /// `None` when caching is disabled ([`AnalysisSession::without_cache`]).
    cache: Option<Mutex<HashMap<ProgramKey, CacheSlot>>>,
    /// The persistent second tier, read through on a memory miss and written
    /// behind on every fresh result ([`AnalysisSession::with_store`]).
    store: Option<std::sync::Arc<dyn SummaryBackend>>,
    /// [`fingerprint_hash`] of the default profile's fingerprint.
    fingerprint_hash: u64,
    programs: AtomicU64,
    dedup_hits: AtomicU64,
    memory_hits: AtomicU64,
    store_hits: AtomicU64,
    store_writes: AtomicU64,
    misses: AtomicU64,
    work: AtomicU64,
}

impl std::fmt::Debug for AnalysisSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSession")
            .field("options", &self.options)
            .field("cache_enabled", &self.cache_enabled())
            .field("stats", &self.stats())
            .finish()
    }
}

impl AnalysisSession {
    /// A session with the summary cache enabled (the default configuration).
    pub fn new(options: InferOptions) -> AnalysisSession {
        let fingerprint = options.fingerprint();
        AnalysisSession {
            fingerprint_hash: fingerprint_hash(&fingerprint),
            fingerprint,
            options,
            cache: Some(Mutex::new(HashMap::new())),
            store: None,
            programs: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            memory_hits: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            work: AtomicU64::new(0),
        }
    }

    /// A session that analyses every program from scratch — the reference
    /// behaviour the cache-equivalence tests compare against.
    pub fn without_cache(options: InferOptions) -> AnalysisSession {
        AnalysisSession {
            cache: None,
            ..AnalysisSession::new(options)
        }
    }

    /// Attaches a persistent store as the second cache tier: every memory miss
    /// reads through it ([`SessionStats::store_hits`]) and every freshly
    /// computed result is written behind it ([`SessionStats::store_writes`]).
    /// Served store records are installed in the in-memory tier, so the Nth
    /// probe of a popular program never touches the disk again.
    ///
    /// Ignored (with no effect) on a [`without_cache`](AnalysisSession::without_cache)
    /// session: the store tier sits strictly behind the memory tier.
    pub fn with_store(mut self, store: std::sync::Arc<dyn SummaryBackend>) -> AnalysisSession {
        if self.cache.is_some() {
            self.store = Some(store);
        }
        self
    }

    /// The session's default [`InferOptions`].
    pub fn options(&self) -> &InferOptions {
        &self.options
    }

    /// Whether the summary cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// A snapshot of the session's reuse/spending counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            programs: self.programs.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_writes: self.store_writes.load(Ordering::Relaxed),
            method_hits: 0,
            cache_misses: self.misses.load(Ordering::Relaxed),
            work: self.work.load(Ordering::Relaxed),
        }
    }

    /// The options fingerprint for a key: borrowed from the session when the
    /// options are the session's defaults (the overwhelmingly common case —
    /// one allocation per session instead of one per program), freshly
    /// formatted otherwise.
    fn fingerprint_for<'s>(&'s self, options: &InferOptions) -> Cow<'s, str> {
        if *options == self.options {
            Cow::Borrowed(&self.fingerprint)
        } else {
            Cow::Owned(options.fingerprint())
        }
    }

    /// A snapshot of the summary cache's memory footprint. Zero in every field
    /// when the cache is disabled.
    pub fn cache_memory(&self) -> CacheMemory {
        let Some(cache) = &self.cache else {
            return CacheMemory::default();
        };
        let map = match cache.lock() {
            Ok(map) => map,
            Err(poisoned) => poisoned.into_inner(),
        };
        let resident: u64 = map
            .values()
            .filter_map(|slot| slot.guard.as_ref())
            .map(|guard| guard.len() as u64)
            .sum();
        CacheMemory {
            entries: map.len() as u64,
            key_bytes: map.len() as u64 * std::mem::size_of::<ProgramKey>() as u64,
            resident_guard_bytes: resident,
        }
    }

    /// Looks up `key`, verifying the slot's guard (if still present) against
    /// the probing program's keyed text. The first hit on every entry pays one
    /// byte-compare and then drops the guard; a mismatch marks the slot
    /// conflicted and returns a miss.
    fn cache_get(&self, key: &ProgramKey, keyed: &str) -> Option<AnalysisResult> {
        let cache = self.cache.as_ref()?;
        let mut map = match cache.lock() {
            Ok(map) => map,
            Err(poisoned) => poisoned.into_inner(),
        };
        let slot = map.get_mut(key)?;
        if slot.conflicted {
            return None;
        }
        if let Some(guard) = slot.guard.take() {
            if *guard != *keyed {
                slot.conflicted = true;
                return None;
            }
            // Verified: the guard is dropped here, reclaiming the text.
        }
        Some(slot.result.clone())
    }

    /// Inserts a result. `verified` marks the entry's text as already
    /// independently confirmed (an in-batch duplicate byte-compared its full
    /// text against this job's), in which case no guard needs to be retained;
    /// otherwise the keyed text is kept as the entry's verification guard
    /// until the first cache hit checks it.
    fn cache_put(&self, key: ProgramKey, keyed: &str, result: &AnalysisResult, verified: bool) {
        if let Some(cache) = &self.cache {
            let mut map = match cache.lock() {
                Ok(map) => map,
                Err(poisoned) => poisoned.into_inner(),
            };
            match map.entry(key) {
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(CacheSlot {
                        result: result.clone(),
                        guard: (!verified).then(|| keyed.into()),
                        conflicted: false,
                    });
                }
                std::collections::hash_map::Entry::Occupied(mut entry) => {
                    // A conflicted slot accepts nothing further. A guard
                    // mismatch is an insert-time collision: poison the slot
                    // instead of letting either program serve the other. On a
                    // match (or an already-dropped guard) the existing result
                    // is kept — concurrent computations of the same program
                    // insert identical values (the analysis is deterministic).
                    let slot = entry.get_mut();
                    if !slot.conflicted && slot.guard.as_deref().is_some_and(|g| g != keyed) {
                        slot.conflicted = true;
                    }
                }
            }
        }
    }

    /// Tiered lookup: the in-memory cache first, then the persistent store.
    /// A store hit is installed in the memory tier (with the probing program's
    /// keyed text as its verification guard) so later probes stay in memory.
    /// Updates the per-tier hit counters.
    fn lookup_tiers(
        &self,
        key: &ProgramKey,
        keyed: &str,
        fingerprint_hash: u64,
    ) -> Option<(AnalysisResult, CacheTier)> {
        if let Some(hit) = self.cache_get(key, keyed) {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some((hit, CacheTier::Memory));
        }
        let store = self.store.as_ref()?;
        let hit = store.load(key, fingerprint_hash)?;
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        self.cache_put(*key, keyed, &hit, false);
        Some((hit, CacheTier::Store))
    }

    /// Publishes a freshly computed result to both tiers: the in-memory cache
    /// (with guard semantics per `verified`) and — write-behind — the
    /// persistent store.
    fn publish(
        &self,
        key: ProgramKey,
        keyed: &str,
        result: &AnalysisResult,
        verified: bool,
        fingerprint_hash: u64,
    ) {
        self.cache_put(key, keyed, result, verified);
        if let Some(store) = &self.store {
            if store.store(&key, fingerprint_hash, result) {
                self.store_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drains the diagnostics accumulated by the persistent store tier (e.g.
    /// corrupt records it self-healed around); empty without a store.
    pub fn store_diagnostics(&self) -> Vec<String> {
        self.store
            .as_ref()
            .map(|store| store.take_diagnostics())
            .unwrap_or_default()
    }

    /// Analyses a front-end-processed program under the session's default
    /// options, consulting the summary cache first.
    ///
    /// # Errors
    ///
    /// Returns an [`InferError`] when verification fails, exactly like
    /// [`analyze_program`].
    pub fn analyze_program(&self, program: &Program) -> Result<AnalysisResult, InferError> {
        self.analyze_program_with(program, &self.options)
    }

    /// [`AnalysisSession::analyze_program`] with explicit options: the cache key
    /// includes the options fingerprint, so several option profiles (e.g. the
    /// ablation study's) can share one session — and one cache — without
    /// cross-profile collisions.
    ///
    /// # Errors
    ///
    /// Returns an [`InferError`] when verification fails.
    pub fn analyze_program_with(
        &self,
        program: &Program,
        options: &InferOptions,
    ) -> Result<AnalysisResult, InferError> {
        self.programs.fetch_add(1, Ordering::Relaxed);
        let fp_hash = if *options == self.options {
            self.fingerprint_hash
        } else {
            fingerprint_hash(&options.fingerprint())
        };
        let keyed = self.cache_enabled().then(|| {
            let keyed = keyed_text(&canonical_program(program), &self.fingerprint_for(options));
            (ProgramKey::of_keyed_text(&keyed), keyed)
        });
        if let Some((key, keyed)) = &keyed {
            if let Some((hit, _)) = self.lookup_tiers(key, keyed, fp_hash) {
                return Ok(hit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Same accounting as the batch path: the per-thread counter delta, so
        // verification/validation pivots and failed runs are charged too.
        let work_before = crate::solve::work_units();
        let result = analyze_program(program, options);
        self.work.fetch_add(
            crate::solve::work_units().wrapping_sub(work_before),
            Ordering::Relaxed,
        );
        if let (Some((key, keyed)), Ok(result)) = (&keyed, &result) {
            self.publish(*key, keyed, result, false, fp_hash);
        }
        result
    }

    /// Analyses source text (full front-end + cached analysis) under the
    /// session's default options.
    ///
    /// # Errors
    ///
    /// Returns an [`InferError`] for parse/type errors as well as verification
    /// failures.
    pub fn analyze_source(&self, source: &str) -> Result<AnalysisResult, InferError> {
        self.analyze_source_with(source, &self.options)
    }

    /// [`AnalysisSession::analyze_source`] with explicit options (see
    /// [`AnalysisSession::analyze_program_with`]).
    ///
    /// # Errors
    ///
    /// Returns an [`InferError`] for parse/type errors as well as verification
    /// failures.
    pub fn analyze_source_with(
        &self,
        source: &str,
        options: &InferOptions,
    ) -> Result<AnalysisResult, InferError> {
        let program = tnt_lang::frontend(source).map_err(|message| InferError { message })?;
        self.analyze_program_with(&program, options)
    }

    /// Analyses a batch of sources with the default worker count
    /// (`available_parallelism`). See
    /// [`AnalysisSession::analyze_batch_with`].
    pub fn analyze_batch(&self, sources: &[&str]) -> Vec<BatchEntry> {
        self.analyze_batch_with(sources, default_workers())
    }

    /// Analyses a batch of sources: parses each once, de-duplicates programs by
    /// canonical key (when the cache is enabled), and schedules the unique
    /// analyses across `workers` threads (`1` forces a sequential run). Entries
    /// come back in input order; a panic inside one program's analysis is
    /// isolated into that program's entry and never aborts the batch.
    pub fn analyze_batch_with(&self, sources: &[&str], workers: usize) -> Vec<BatchEntry> {
        struct Job {
            program: Program,
            /// The key and its full keyed text (for guard verification),
            /// `None` when the cache is disabled.
            key: Option<(ProgramKey, String)>,
            /// Input indices served by this job (first = the computing one).
            targets: Vec<usize>,
        }

        self.programs
            .fetch_add(sources.len() as u64, Ordering::Relaxed);
        let mut entries: Vec<Option<BatchEntry>> = (0..sources.len()).map(|_| None).collect();
        let mut jobs: Vec<Job> = Vec::new();
        let mut job_of_key: HashMap<ProgramKey, usize> = HashMap::new();
        for (index, source) in sources.iter().enumerate() {
            let program = match tnt_lang::frontend(source) {
                Ok(program) => program,
                Err(message) => {
                    entries[index] = Some(BatchEntry::from_error(InferError { message }));
                    continue;
                }
            };
            if self.cache_enabled() {
                let keyed = keyed_text(&canonical_program(&program), &self.fingerprint);
                let key = ProgramKey::of_keyed_text(&keyed);
                if let Some(&job_index) = job_of_key.get(&key) {
                    // De-duplicated within this batch — but only after the
                    // same full-text comparison the cache guards perform, so
                    // a key collision inside one batch cannot alias either.
                    let same_text = jobs[job_index]
                        .key
                        .as_ref()
                        .is_some_and(|(_, text)| *text == keyed);
                    if same_text {
                        jobs[job_index].targets.push(index);
                        continue;
                    }
                    // Colliding text: analyse it as its own (unregistered)
                    // job; the publish step will poison the shared slot.
                } else {
                    let probe = std::time::Instant::now();
                    if let Some((hit, tier)) =
                        self.lookup_tiers(&key, &keyed, self.fingerprint_hash)
                    {
                        entries[index] = Some(BatchEntry {
                            panic_note: None,
                            cache_hit: true,
                            tier: Some(tier),
                            work: hit.stats.work,
                            // The lookup span only: a served entry costs its
                            // (near-zero) lookup, not the original analysis —
                            // that cost stays in `AnalysisResult::elapsed`.
                            elapsed: probe.elapsed().as_secs_f64(),
                            result: Ok(hit),
                        });
                        continue;
                    }
                    job_of_key.insert(key, jobs.len());
                }
                jobs.push(Job {
                    program,
                    key: Some((key, keyed)),
                    targets: vec![index],
                });
            } else {
                jobs.push(Job {
                    program,
                    key: None,
                    targets: vec![index],
                });
            }
        }

        // Run the unique analyses across the worker pool. Each job executes
        // wholly on one worker, so the per-thread counters (work units, overflow
        // poison) attribute correctly; the job order is fixed up-front and the
        // slot writes are indexed, so scheduling cannot reorder results. A
        // batch with no unique analysis left (every input a hit or a parse
        // error) spawns no worker at all.
        let mut outcomes: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();
        let workers = workers.max(1).min(jobs.len());
        let next = AtomicU64::new(0);
        let slots = Mutex::new(&mut outcomes);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(job) = jobs.get(index) else {
                        return;
                    };
                    let outcome = run_job(&job.program, &self.options);
                    self.work.fetch_add(outcome.spent, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let mut guard = match slots.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    guard[index] = Some(outcome);
                });
            }
        });

        // Publish results to the cache and fan out to the duplicate inputs.
        for (job, outcome) in jobs.iter().zip(outcomes) {
            let outcome = outcome.expect("every job index was processed");
            if let (Some((key, keyed)), Ok(result)) = (&job.key, &outcome.result) {
                // A de-duplicated job's text was byte-compared against every
                // duplicate submission — an independent confirmation, so the
                // entry starts verified and retains no guard.
                self.publish(
                    *key,
                    keyed,
                    result,
                    job.targets.len() > 1,
                    self.fingerprint_hash,
                );
            }
            let repeats = job.targets.len().saturating_sub(1) as u64;
            self.dedup_hits.fetch_add(repeats, Ordering::Relaxed);
            for (position, target) in job.targets.iter().enumerate() {
                entries[*target] = Some(BatchEntry {
                    result: outcome.result.clone(),
                    panic_note: outcome.panic_note.clone(),
                    cache_hit: position > 0,
                    tier: (position > 0).then_some(CacheTier::Dedup),
                    work: match &outcome.result {
                        Ok(result) => result.stats.work,
                        Err(_) => outcome.spent,
                    },
                    // A duplicate consumed no wall-clock of its own: the
                    // analysis cost is reported once, on the computing entry.
                    elapsed: if position > 0 { 0.0 } else { outcome.elapsed },
                });
            }
        }
        entries
            .into_iter()
            .map(|entry| entry.expect("every input index was processed"))
            .collect()
    }
}

/// Analyses one unique program, isolating panics and attributing the work units
/// spent before an abort.
fn run_job(program: &Program, options: &InferOptions) -> JobOutcome {
    let start = std::time::Instant::now();
    let work_before = crate::solve::work_units();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        analyze_program(program, options)
    }));
    let spent = crate::solve::work_units().wrapping_sub(work_before);
    let (result, panic_note) = match attempt {
        Ok(result) => (result, None),
        Err(payload) => {
            let note = panic_note(payload.as_ref());
            (
                Err(InferError {
                    message: note.clone(),
                }),
                Some(note),
            )
        }
    };
    JobOutcome {
        result,
        panic_note,
        spent,
        elapsed: start.elapsed().as_secs_f64(),
    }
}

/// Renders a caught panic payload as a readable note (`analysis panicked: …`).
/// Shared with the suite runner's own panic-isolation paths so the note format
/// cannot drift between the two layers.
pub fn panic_note(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("analysis panicked: {message}")
}

/// The default batch worker count: one per available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Verdict;

    const COUNTDOWN: &str = "void main(int x) { while (x > 0) { x = x - 1; } }";
    const DIVERGING: &str = "void main(int x) { while (x >= 0) { x = x + 1; } }";
    /// Same canonical program as [`COUNTDOWN`], different surface text.
    const COUNTDOWN_WS: &str = "void  main(int x)\n{ while (x > 0) { x = x - 1; } }";

    #[test]
    fn batch_deduplicates_identical_programs() {
        let session = AnalysisSession::new(InferOptions::default());
        let batch = session.analyze_batch_with(&[COUNTDOWN, DIVERGING, COUNTDOWN_WS], 2);
        assert_eq!(batch.len(), 3);
        let verdicts: Vec<Verdict> = batch
            .iter()
            .map(|e| e.result.as_ref().unwrap().program_verdict())
            .collect();
        assert_eq!(
            verdicts,
            [
                Verdict::Terminating,
                Verdict::NonTerminating,
                Verdict::Terminating
            ]
        );
        // Whitespace differences normalise away: the third entry is a hit.
        assert!(!batch[0].cache_hit && !batch[1].cache_hit && batch[2].cache_hit);
        assert_eq!(batch[0].work, batch[2].work);
        let stats = session.stats();
        assert_eq!(
            (stats.programs, stats.cache_misses, stats.cache_hits()),
            (3, 2, 1)
        );
        assert_eq!(
            (stats.dedup_hits, stats.memory_hits, stats.store_hits),
            (1, 0, 0),
            "an in-batch duplicate is a dedup hit, not a cache-tier hit"
        );
    }

    #[test]
    fn cache_persists_across_batches_and_single_calls() {
        let session = AnalysisSession::new(InferOptions::default());
        let first = session.analyze_source(COUNTDOWN).unwrap();
        let batch = session.analyze_batch_with(&[COUNTDOWN], 1);
        assert!(batch[0].cache_hit);
        let again = batch[0].result.as_ref().unwrap();
        assert_eq!(first.program_verdict(), again.program_verdict());
        assert_eq!(first.stats.work, again.stats.work);
        let stats = session.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits()), (1, 1));
        assert_eq!(
            (stats.dedup_hits, stats.memory_hits, stats.store_hits),
            (0, 1, 0),
            "a cross-batch repeat is a memory-tier hit"
        );
        // Work is only spent once: the session total covers the single analysis
        // (solve work plus its verification/validation surroundings) and the
        // cache hit added nothing.
        assert!(stats.work >= first.stats.work);
        let total_after_hit = session.stats().work;
        assert_eq!(total_after_hit, stats.work);
    }

    #[test]
    fn disabled_cache_analyses_every_program() {
        let session = AnalysisSession::without_cache(InferOptions::default());
        let batch = session.analyze_batch_with(&[COUNTDOWN, COUNTDOWN], 2);
        assert!(batch.iter().all(|e| !e.cache_hit));
        let stats = session.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits()), (2, 0));
    }

    #[test]
    fn option_profiles_never_share_entries() {
        let session = AnalysisSession::new(InferOptions::default());
        let defaults = session.analyze_source(COUNTDOWN).unwrap();
        let no_validate = InferOptions {
            validate: false,
            ..InferOptions::default()
        };
        let other = session
            .analyze_source_with(COUNTDOWN, &no_validate)
            .unwrap();
        // Same verdict, but distinct cache entries: two misses, no false hit.
        assert_eq!(defaults.program_verdict(), other.program_verdict());
        let stats = session.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits()), (2, 0));
        assert_ne!(
            InferOptions::default().fingerprint(),
            no_validate.fingerprint()
        );
    }

    #[test]
    fn frontend_errors_become_per_entry_errors() {
        let session = AnalysisSession::new(InferOptions::default());
        let batch = session.analyze_batch_with(&["void broken(", COUNTDOWN], 2);
        assert!(batch[0].result.is_err());
        assert!(batch[0].panic_note.is_none());
        assert!(batch[1].result.is_ok());
    }

    #[test]
    fn canonical_program_includes_lemmas() {
        let with_lemma = "\
data node { node next; }
pred lseg(root, q, n) == root = q & n = 0 or root -> node(p) * lseg(p, q, n - 1);
pred cll(root, n) == root -> node(p) * lseg(p, root, n - 1);
lemma lseg(a, b, m) * b -> node(a) == cll(a, m + 1);
void main(node x) requires cll(x, n) ensures true; { return; }";
        let program = tnt_lang::frontend(with_lemma).unwrap();
        let mut stripped = program.clone();
        stripped.lemmas.clear();
        assert_ne!(
            canonical_program(&program),
            canonical_program(&stripped),
            "lemmas change entailment results and must be part of the key"
        );
        let options = InferOptions::default();
        assert_ne!(
            ProgramKey::of(&program, &options),
            ProgramKey::of(&stripped, &options)
        );
    }

    #[test]
    fn forged_key_collision_never_aliases() {
        let session = AnalysisSession::new(InferOptions::default());
        let result = session.analyze_source(COUNTDOWN).unwrap();
        // A genuine simultaneous FNV-1a + FNV-1 collision cannot be crafted,
        // so forge one: file two distinct keyed texts under the same key via
        // the verification seams the real paths go through.
        let key = ProgramKey::of_keyed_text("canonical text A");
        session.cache_put(key, "canonical text A", &result, false);
        // A probe with the colliding text must be refused (not served A's
        // result)…
        assert!(session.cache_get(&key, "canonical text B").is_none());
        // …and the conflicted slot is permanently dead, even for the original
        // text and for later inserts.
        assert!(session.cache_get(&key, "canonical text A").is_none());
        session.cache_put(key, "canonical text B", &result, false);
        assert!(session.cache_get(&key, "canonical text B").is_none());
    }

    #[test]
    fn a_64_bit_half_collision_does_not_alias() {
        // Two keys that collide in the FNV-1a half but differ in the FNV-1
        // half — the crafted 64-bit collision that would have aliased the old
        // single-hash scheme. They are distinct 128-bit keys, so the cache
        // keeps their entries fully separate.
        let a = ProgramKey {
            fnv1a: 0xdead_beef,
            fnv1: 1,
        };
        let b = ProgramKey {
            fnv1a: 0xdead_beef,
            fnv1: 2,
        };
        assert_eq!(a.hash_value(), b.hash_value());
        assert_ne!(a, b);
        let session = AnalysisSession::new(InferOptions::default());
        let term = session.analyze_source(COUNTDOWN).unwrap();
        let div = session.analyze_source(DIVERGING).unwrap();
        session.cache_put(a, "canonical text A", &term, false);
        session.cache_put(b, "canonical text B", &div, false);
        let got_a = session.cache_get(&a, "canonical text A").unwrap();
        let got_b = session.cache_get(&b, "canonical text B").unwrap();
        assert_eq!(got_a.program_verdict(), term.program_verdict());
        assert_eq!(got_b.program_verdict(), div.program_verdict());
        assert_ne!(got_a.program_verdict(), got_b.program_verdict());
    }

    #[test]
    fn insert_time_collision_poisons_the_slot() {
        let session = AnalysisSession::new(InferOptions::default());
        let result = session.analyze_source(COUNTDOWN).unwrap();
        let key = ProgramKey::of_keyed_text("canonical text A");
        session.cache_put(key, "canonical text A", &result, false);
        session.cache_put(key, "canonical text B", &result, false);
        assert!(session.cache_get(&key, "canonical text A").is_none());
        assert!(session.cache_get(&key, "canonical text B").is_none());
    }

    #[test]
    fn guards_are_dropped_after_first_verified_hit() {
        let session = AnalysisSession::new(InferOptions::default());
        session.analyze_source(COUNTDOWN).unwrap();
        let before = session.cache_memory();
        assert_eq!(before.entries, 1);
        // The unverified entry holds its full keyed text as the guard.
        let program = tnt_lang::frontend(COUNTDOWN).unwrap();
        let keyed = keyed_text(&canonical_program(&program), &session.fingerprint);
        assert_eq!(before.resident_guard_bytes, keyed.len() as u64);
        // The first hit verifies the guard byte-for-byte, then drops it.
        session.analyze_source(COUNTDOWN_WS).unwrap();
        let after = session.cache_memory();
        assert_eq!(session.stats().cache_hits(), 1);
        assert_eq!(after.resident_guard_bytes, 0);
        assert_eq!(after.resident_bytes(), 16, "one bare 16-byte key remains");
    }

    #[test]
    fn keys_are_order_sensitive_content_hashes() {
        let a = ProgramKey::of_keyed_text("alpha");
        let b = ProgramKey::of_keyed_text("beta");
        assert_ne!(a, b);
        assert_ne!(a.hash_value(), b.hash_value());
        assert_eq!(a, ProgramKey::of_keyed_text("alpha"));
        // The two FNV halves differ even on equal input (different mixing
        // order), so neither half is redundant.
        assert_ne!(a.fnv1a, a.fnv1);
    }

    #[test]
    fn default_profile_fingerprint_is_reused_not_reformatted() {
        let options = InferOptions::default();
        let session = AnalysisSession::new(options);
        match session.fingerprint_for(&options) {
            Cow::Borrowed(cached) => assert_eq!(cached, options.fingerprint()),
            Cow::Owned(_) => panic!("default profile must borrow the cached fingerprint"),
        }
        let other = InferOptions {
            validate: false,
            ..InferOptions::default()
        };
        assert!(matches!(session.fingerprint_for(&other), Cow::Owned(_)));
    }

    #[test]
    fn batch_results_are_identical_across_worker_counts() {
        let sources = [COUNTDOWN, DIVERGING, COUNTDOWN_WS, COUNTDOWN];
        let sequential = AnalysisSession::new(InferOptions::default());
        let parallel = AnalysisSession::new(InferOptions::default());
        let a = sequential.analyze_batch_with(&sources, 1);
        let b = parallel.analyze_batch_with(&sources, 4);
        for (x, y) in a.iter().zip(&b) {
            let (rx, ry) = (x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
            assert_eq!(rx.program_verdict(), ry.program_verdict());
            assert_eq!(x.work, y.work);
            let render = |r: &AnalysisResult| {
                r.summaries
                    .iter()
                    .map(|(label, s)| format!("{label}:{}", s.render()))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(render(rx), render(ry));
        }
    }
}
