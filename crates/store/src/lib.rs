//! # tnt-store
//!
//! An append-only, content-addressed, on-disk store for inferred termination
//! summaries — the persistence tier behind [`tnt_infer::AnalysisSession`]'s
//! in-memory cache (ROADMAP: "Persistent store & tnt-serve").
//!
//! Summaries are pure functions of a method's canonical form, so the store is
//! keyed by the session's existing 128-bit [`ProgramKey`] (canonical program
//! text ⊕ options fingerprint) and never invalidated. The file layout is a
//! single log, `summaries.tnt`:
//!
//! ```text
//! header   "TNTSUM03"                                  (8 bytes; "TNTSUM02" also read)
//! record   "TR" ++ len:u32le ++ payload ++ fnv1a64(payload):u64le
//! payload  key:16B ++ fingerprint_hash:u64le ++ encoded AnalysisResult
//! ```
//!
//! Logs written by earlier versions may also hold `"MR"` frames (same framing,
//! a per-method record tier that no longer exists). The scanner checks their
//! framing and checksum like any record, then skips them: they are never
//! indexed, decoded or served, and appends continue after them.
//!
//! ## Crash safety
//!
//! Records are immutable and strictly appended, so the only corruption a crash
//! can introduce is a partial record at the tail. Every record carries a
//! checksum over its payload, so a torn write is *detected*, never decoded:
//!
//! * a writer ([`SummaryStore::open`]) truncates a torn/garbage tail back to
//!   the last record boundary (with a diagnostic) and resumes appending;
//! * a reader ([`SummaryStore::open_read_only`]) simply stops its scan at the
//!   incomplete tail — an in-flight append by a live writer looks exactly the
//!   same — and picks up the completed record on the next [`refresh`].
//! * a checksum-bad record *between* well-framed neighbours is skipped with a
//!   diagnostic and never served; the probe degrades to a recomputation.
//!
//! A corrupt record therefore costs at most one recomputed analysis; it can
//! never surface as a wrong or missing summary.
//!
//! [`refresh`]: SummaryStore::refresh

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tnt_infer::{AnalysisResult, ProgramKey, SummaryBackend};

/// The store file inside the store directory.
pub const STORE_FILE: &str = "summaries.tnt";

/// File magic: format name + version, written on a fresh store. Bump on any
/// layout change. (02: `SolveStats` gained the orbit-enrichment attempt/work
/// counters. 03: logs may hold `MR` frames, which are skipped on read.)
pub const HEADER: &[u8; 8] = b"TNTSUM03";

/// The previous layout version, still opened as it is: a 02 log holds only
/// `TR` records, which decode unchanged. A header is never rewritten.
const HEADER_V2: &[u8; 8] = b"TNTSUM02";

/// Per-record frame magic for program records, a cheap framing sanity check
/// when skipping a checksum-bad record.
const RECORD_MAGIC: &[u8; 2] = b"TR";

/// Frame magic of the per-method records earlier versions appended (same
/// framing as `TR`). Recognised only so the scanner can step over them.
const METHOD_MAGIC: &[u8; 2] = b"MR";

/// `true` when the two bytes at the start of `rest` are a known record magic.
fn is_record_magic(rest: &[u8]) -> bool {
    rest.starts_with(RECORD_MAGIC) || rest.starts_with(METHOD_MAGIC)
}

/// Frame overhead around a payload: magic (2) + length (4) + checksum (8).
const FRAME_OVERHEAD: usize = 2 + 4 + 8;

/// Payload prefix ahead of the encoded result: key (16) + fingerprint hash (8).
const PAYLOAD_PREFIX: usize = 16 + 8;

/// Upper bound on a single record payload — far above any real summary, low
/// enough that a corrupt length field cannot drive a giant allocation.
const MAX_PAYLOAD: usize = 64 << 20;

/// FNV-1a over `bytes` — the per-record checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Location of one record's payload inside the store file.
#[derive(Clone, Copy, Debug)]
struct IndexEntry {
    fingerprint_hash: u64,
    /// Offset of the payload (after the frame magic and length).
    payload_offset: u64,
    payload_len: u32,
}

/// Why a scan over the log stopped.
#[derive(Debug, PartialEq, Eq)]
enum ScanStop {
    /// The log ends exactly at a record boundary.
    CleanEnd,
    /// The tail is an incomplete record starting at the given offset — a torn
    /// write (after a crash) or an append in flight (under a live writer).
    Truncated(u64),
    /// Bytes at the given offset are not a record frame at all.
    BadFraming(u64),
}

struct ScanResult {
    records: Vec<(ProgramKey, IndexEntry)>,
    /// One past the last well-framed record.
    end: u64,
    stop: ScanStop,
    diagnostics: Vec<String>,
}

/// Scans records in `buf` (the file contents from offset `base` on) without
/// decoding results; checksums are verified and bad records skipped. Intact
/// `MR` frames are stepped over without being indexed.
fn scan_records(buf: &[u8], base: u64) -> ScanResult {
    let mut records = Vec::new();
    let mut diagnostics = Vec::new();
    let mut pos = 0usize;
    let stop = loop {
        if pos == buf.len() {
            break ScanStop::CleanEnd;
        }
        let at = base + pos as u64;
        let rest = &buf[pos..];
        if rest.len() < 2 {
            break ScanStop::Truncated(at);
        }
        if !is_record_magic(rest) {
            break ScanStop::BadFraming(at);
        }
        if rest.len() < 6 {
            break ScanStop::Truncated(at);
        }
        let len = u32::from_le_bytes(rest[2..6].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            // A length this large is corruption, not a record in flight.
            break ScanStop::BadFraming(at);
        }
        if rest.len() < 6 + len + 8 {
            break ScanStop::Truncated(at);
        }
        let payload = &rest[6..6 + len];
        let stored_sum = u64::from_le_bytes(rest[6 + len..6 + len + 8].try_into().expect("8"));
        let next = pos + 6 + len + 8;
        let framed_next = next == buf.len() || is_record_magic(&buf[next..]);
        let ok = fnv1a(payload) == stored_sum && len >= PAYLOAD_PREFIX;
        if !ok {
            if !framed_next {
                // The "record" and its successor are both implausible: this is
                // not a skippable bad record but wrecked framing.
                break ScanStop::BadFraming(at);
            }
            diagnostics.push(format!(
                "store: skipping corrupt record at offset {at} ({len}-byte payload failed its checksum); the summary will be recomputed"
            ));
            pos = next;
            continue;
        }
        if rest.starts_with(METHOD_MAGIC) {
            pos = next;
            continue;
        }
        let mut key_bytes = [0u8; 16];
        key_bytes.copy_from_slice(&payload[..16]);
        let key = ProgramKey::from_bytes(key_bytes);
        let fingerprint_hash = u64::from_le_bytes(payload[16..24].try_into().expect("8"));
        records.push((
            key,
            IndexEntry {
                fingerprint_hash,
                payload_offset: at + 6,
                payload_len: len as u32,
            },
        ));
        pos = next;
    };
    ScanResult {
        records,
        end: base + pos as u64,
        stop,
        diagnostics,
    }
}

struct Inner {
    file: File,
    index: HashMap<ProgramKey, IndexEntry>,
    /// One past the last well-framed record — where the writer appends and the
    /// reader's [`SummaryStore::refresh`] resumes scanning.
    end: u64,
    diagnostics: Vec<String>,
}

impl Inner {
    /// Reads and re-verifies one indexed payload. Any failure de-indexes the
    /// record (so the cost is paid once) and returns `None`.
    fn read_payload(&mut self, key: &ProgramKey) -> Option<Vec<u8>> {
        let entry = *self.index.get(key)?;
        let total = entry.payload_len as usize + 8;
        let mut frame = vec![0u8; total];
        if let Err(err) = self
            .file
            .seek(SeekFrom::Start(entry.payload_offset))
            .and_then(|_| self.file.read_exact(&mut frame))
        {
            self.diagnostics.push(format!(
                "store: read of record at offset {} failed ({err}); the summary will be recomputed",
                entry.payload_offset
            ));
            self.index.remove(key);
            return None;
        }
        let payload = &frame[..entry.payload_len as usize];
        let stored_sum =
            u64::from_le_bytes(frame[entry.payload_len as usize..].try_into().expect("8"));
        if fnv1a(payload) != stored_sum {
            self.diagnostics.push(format!(
                "store: record at offset {} failed its checksum on re-read; the summary will be recomputed",
                entry.payload_offset
            ));
            self.index.remove(key);
            return None;
        }
        Some(payload.to_vec())
    }
}

/// An append-only, content-addressed summary store over one directory.
///
/// Open with [`SummaryStore::open`] (single writer; repairs a torn tail) or
/// [`SummaryStore::open_read_only`] (any number of concurrent readers; never
/// writes). The store implements [`SummaryBackend`], so it plugs directly into
/// [`tnt_infer::AnalysisSession::with_store`].
pub struct SummaryStore {
    path: PathBuf,
    writable: bool,
    inner: Mutex<Inner>,
}

impl SummaryStore {
    /// Opens (creating if necessary) the store in `dir` for reading *and*
    /// appending. A torn or garbage tail left by a crashed writer is truncated
    /// back to the last record boundary, with a diagnostic.
    ///
    /// The store assumes a single writer per directory; run concurrent
    /// processes with at most one `open` and any number of
    /// [`open_read_only`](SummaryStore::open_read_only) handles.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SummaryStore> {
        SummaryStore::open_mode(dir.as_ref(), true)
    }

    /// Opens an existing store in `dir` for reading only. Never modifies the
    /// file; an incomplete tail record (a writer's append in flight, or a torn
    /// write) is simply not served until a later [`refresh`](Self::refresh)
    /// finds it completed.
    pub fn open_read_only(dir: impl AsRef<Path>) -> io::Result<SummaryStore> {
        SummaryStore::open_mode(dir.as_ref(), false)
    }

    fn open_mode(dir: &Path, writable: bool) -> io::Result<SummaryStore> {
        if writable {
            std::fs::create_dir_all(dir)?;
        }
        let path = dir.join(STORE_FILE);
        let mut file = if writable {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                // Never truncate wholesale: existing records are the point of
                // the store. Torn tails are trimmed surgically below.
                .truncate(false)
                .open(&path)?
        } else {
            File::open(&path)?
        };
        let mut diagnostics = Vec::new();

        // Header: written fresh by a writer on an empty file, required intact
        // otherwise. A file shorter than the header is a torn first write.
        let file_len = file.metadata()?.len();
        let mut header = [0u8; 8];
        if file_len < HEADER.len() as u64 {
            if !writable {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: missing or torn store header", path.display()),
                ));
            }
            if file_len > 0 {
                diagnostics.push(format!(
                    "store: discarding {file_len}-byte torn header in {}",
                    path.display()
                ));
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(HEADER)?;
            file.flush()?;
        } else {
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut header)?;
            if &header != HEADER && &header != HEADER_V2 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: not a summary store (bad magic {header:02x?})",
                        path.display()
                    ),
                ));
            }
        }

        let base = HEADER.len() as u64;
        let mut buf = Vec::new();
        file.seek(SeekFrom::Start(base))?;
        file.read_to_end(&mut buf)?;
        let scan = scan_records(&buf, base);
        diagnostics.extend(scan.diagnostics);
        match scan.stop {
            ScanStop::CleanEnd => {}
            ScanStop::Truncated(at) | ScanStop::BadFraming(at) if writable => {
                let dropped = base + buf.len() as u64 - at;
                diagnostics.push(format!(
                    "store: truncating {dropped} unrecoverable trailing bytes at offset {at} (torn or corrupt tail)"
                ));
                file.set_len(at)?;
            }
            ScanStop::Truncated(_) => {
                // Read-only: indistinguishable from a live writer's append in
                // flight; not a diagnostic. refresh() will retry.
            }
            ScanStop::BadFraming(at) => {
                diagnostics.push(format!(
                    "store: unreadable bytes at offset {at}; records beyond them are ignored"
                ));
            }
        }

        let mut index = HashMap::with_capacity(scan.records.len());
        for (key, entry) in scan.records {
            // First record wins: the writer never appends a key twice, so a
            // duplicate implies an anomaly; serving the earliest keeps replay
            // deterministic.
            index.entry(key).or_insert(entry);
        }
        Ok(SummaryStore {
            path,
            writable,
            inner: Mutex::new(Inner {
                file,
                index,
                end: scan.end,
                diagnostics,
            }),
        })
    }

    /// The store file this handle reads (and, for writers, appends to).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct keys currently served.
    pub fn entries(&self) -> usize {
        self.inner.lock().unwrap().index.len()
    }

    /// Always `0`: the store no longer indexes per-method records. Kept only
    /// because the benchmark package still reads it; the next change to the
    /// benchmark removes it.
    pub fn method_entries(&self) -> usize {
        0
    }

    /// Drains accumulated diagnostics (corrupt records skipped, torn tails
    /// truncated, IO errors). Empty in the happy path.
    pub fn diagnostics(&self) -> Vec<String> {
        std::mem::take(&mut self.inner.lock().unwrap().diagnostics)
    }

    /// Drains accumulated diagnostics — the explicit draining name mirrored by
    /// [`SummaryBackend::take_diagnostics`], so daemons holding a store handle
    /// can surface self-healed corruption instead of silently swallowing it.
    pub fn take_diagnostics(&self) -> Vec<String> {
        self.diagnostics()
    }

    /// Re-scans the log past the last known record boundary, indexing records
    /// appended by a concurrent writer since open (or the previous refresh).
    /// Returns the number of newly indexed records.
    pub fn refresh(&self) -> io::Result<usize> {
        let mut inner = self.inner.lock().unwrap();
        let base = inner.end;
        let mut buf = Vec::new();
        inner.file.seek(SeekFrom::Start(base))?;
        inner.file.read_to_end(&mut buf)?;
        if buf.is_empty() {
            return Ok(0);
        }
        let scan = scan_records(&buf, base);
        let found = scan.records.len();
        for (key, entry) in scan.records {
            inner.index.entry(key).or_insert(entry);
        }
        inner.end = scan.end;
        inner.diagnostics.extend(scan.diagnostics);
        if let ScanStop::BadFraming(at) = scan.stop {
            inner.diagnostics.push(format!(
                "store: unreadable bytes at offset {at}; records beyond them are ignored"
            ));
        }
        Ok(found)
    }
}

impl SummaryBackend for SummaryStore {
    fn load(&self, key: &ProgramKey, fingerprint_hash: u64) -> Option<AnalysisResult> {
        let mut inner = self.inner.lock().unwrap();
        let entry = *inner.index.get(key)?;
        if entry.fingerprint_hash != fingerprint_hash {
            inner.diagnostics.push(format!(
                "store: record for key {key:?} carries options fingerprint {:#018x}, expected {fingerprint_hash:#018x}; treating as a miss",
                entry.fingerprint_hash
            ));
            return None;
        }
        let payload = inner.read_payload(key)?;
        match codec::decode_result(&payload[PAYLOAD_PREFIX..]) {
            Ok(result) => Some(result),
            Err(err) => {
                inner.diagnostics.push(format!(
                    "store: record at offset {} is undecodable ({err}); the summary will be recomputed",
                    entry.payload_offset
                ));
                inner.index.remove(key);
                None
            }
        }
    }

    fn store(&self, key: &ProgramKey, fingerprint_hash: u64, result: &AnalysisResult) -> bool {
        if !self.writable {
            return false;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.index.contains_key(key) {
            return false;
        }

        let encoded = codec::encode_result(result);
        let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + encoded.len());
        payload.extend_from_slice(&key.to_bytes());
        payload.extend_from_slice(&fingerprint_hash.to_le_bytes());
        payload.extend_from_slice(&encoded);

        let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
        frame.extend_from_slice(RECORD_MAGIC);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());

        // Append at the tracked record boundary, not the file cursor (loads
        // seek the same handle). If the write tears (IO error, crash), the
        // checksum brands the tail corrupt and the next writer-open truncates
        // it — the index is only updated after a complete, flushed frame.
        let end = inner.end;
        let write = inner
            .file
            .seek(SeekFrom::Start(end))
            .and_then(|_| inner.file.write_all(&frame))
            .and_then(|_| inner.file.flush());
        if let Err(err) = write {
            inner.diagnostics.push(format!(
                "store: append to {} failed ({err}); the result was not persisted",
                self.path.display()
            ));
            return false;
        }
        inner.index.insert(
            *key,
            IndexEntry {
                fingerprint_hash,
                payload_offset: end + 6,
                payload_len: payload.len() as u32,
            },
        );
        inner.end = end + frame.len() as u64;
        true
    }

    fn take_diagnostics(&self) -> Vec<String> {
        self.diagnostics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tnt_infer::solve::SolveStats;

    /// A unique scratch directory per test, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "tnt-store-test-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_result(work: u64, poisoned: bool) -> AnalysisResult {
        AnalysisResult {
            summaries: BTreeMap::new(),
            stats: SolveStats {
                iterations: 1,
                case_splits: 0,
                ranking_attempts: 2,
                nonterm_attempts: 0,
                orbit_attempts: 0,
                work,
                orbit_work: 0,
                budget_exhausted: poisoned,
            },
            validated: !poisoned,
            poisoned,
            elapsed: 0.5,
        }
    }

    fn key(n: u64) -> ProgramKey {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&n.to_le_bytes());
        bytes[8..].copy_from_slice(&(!n).to_le_bytes());
        ProgramKey::from_bytes(bytes)
    }

    #[test]
    fn store_load_round_trip_and_reopen() {
        let dir = TempDir::new();
        let store = SummaryStore::open(dir.path()).expect("open");
        assert!(store.store(&key(1), 7, &sample_result(100, false)));
        assert!(store.store(&key(2), 7, &sample_result(200, true)));
        // Re-storing an existing key is a no-op.
        assert!(!store.store(&key(1), 7, &sample_result(999, false)));
        assert_eq!(store.entries(), 2);
        let hit = store.load(&key(1), 7).expect("hit");
        assert_eq!(hit.stats.work, 100);
        assert!(!hit.poisoned);
        // Fingerprint mismatch is a miss with a diagnostic, never a wrong hit.
        assert!(store.load(&key(1), 8).is_none());
        assert!(!store.diagnostics().is_empty());
        drop(store);

        let reread = SummaryStore::open_read_only(dir.path()).expect("reopen");
        assert_eq!(reread.entries(), 2);
        let poisoned = reread.load(&key(2), 7).expect("hit");
        assert!(poisoned.poisoned);
        assert_eq!(poisoned.stats.work, 200);
        assert!(reread.diagnostics().is_empty());
        // A read-only handle refuses writes.
        assert!(!reread.store(&key(3), 7, &sample_result(1, false)));
    }

    #[test]
    fn torn_tail_is_truncated_by_writer_and_ignored_by_reader() {
        let dir = TempDir::new();
        let store = SummaryStore::open(dir.path()).expect("open");
        assert!(store.store(&key(1), 7, &sample_result(100, false)));
        let path = store.path().to_path_buf();
        drop(store);

        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a torn append: a frame header with only half its payload.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"TR").unwrap();
        file.write_all(&1000u32.to_le_bytes()).unwrap();
        file.write_all(&[0xAA; 40]).unwrap();
        drop(file);

        let reader = SummaryStore::open_read_only(dir.path()).expect("reader");
        assert_eq!(reader.entries(), 1);
        assert!(reader.load(&key(1), 7).is_some());
        // In-flight-looking tails are not worth a diagnostic for readers.
        assert!(reader.diagnostics().is_empty());

        let writer = SummaryStore::open(dir.path()).expect("writer");
        assert_eq!(writer.entries(), 1);
        let diags = writer.diagnostics();
        assert!(
            diags.iter().any(|d| d.contains("truncating")),
            "expected a truncation diagnostic, got {diags:?}"
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // The repaired store keeps accepting appends.
        assert!(writer.store(&key(2), 7, &sample_result(50, false)));
        assert!(writer.load(&key(2), 7).is_some());
    }

    #[test]
    fn checksum_bad_record_is_skipped_but_neighbours_survive() {
        let dir = TempDir::new();
        let store = SummaryStore::open(dir.path()).expect("open");
        assert!(store.store(&key(1), 7, &sample_result(100, false)));
        let first_end = std::fs::metadata(store.path()).unwrap().len();
        assert!(store.store(&key(2), 7, &sample_result(200, false)));
        assert!(store.store(&key(3), 7, &sample_result(300, false)));
        let path = store.path().to_path_buf();
        drop(store);

        // Flip a byte inside the middle record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = first_end as usize + 6 + 30;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let reread = SummaryStore::open(dir.path()).expect("reopen");
        assert_eq!(reread.entries(), 2);
        assert!(reread.load(&key(1), 7).is_some());
        assert!(
            reread.load(&key(2), 7).is_none(),
            "corrupt record must miss"
        );
        assert!(
            reread.load(&key(3), 7).is_some(),
            "record after the corrupt one survives"
        );
        let diags = reread.diagnostics();
        assert!(
            diags.iter().any(|d| d.contains("corrupt record")),
            "expected a skip diagnostic, got {diags:?}"
        );
        // The miss is recoverable: recomputation re-persists under a fresh log
        // position (the corrupt record stays dead weight, never served).
        assert!(reread.store(&key(2), 7, &sample_result(200, false)));
        assert_eq!(reread.load(&key(2), 7).unwrap().stats.work, 200);
    }

    #[test]
    fn reader_refresh_sees_concurrent_appends() {
        let dir = TempDir::new();
        let writer = SummaryStore::open(dir.path()).expect("writer");
        assert!(writer.store(&key(1), 7, &sample_result(100, false)));
        let reader = SummaryStore::open_read_only(dir.path()).expect("reader");
        assert_eq!(reader.entries(), 1);
        assert!(writer.store(&key(2), 7, &sample_result(200, false)));
        assert!(reader.load(&key(2), 7).is_none(), "not yet refreshed");
        assert_eq!(reader.refresh().expect("refresh"), 1);
        assert_eq!(reader.load(&key(2), 7).unwrap().stats.work, 200);
        assert_eq!(reader.refresh().expect("refresh"), 0);
    }

    /// One raw log frame: `magic ++ len ++ payload ++ checksum`.
    fn raw_frame(magic: &[u8; 2], payload: &[u8]) -> Vec<u8> {
        let mut frame = magic.to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame
    }

    /// A raw `TR` payload: key, fingerprint hash, encoded result.
    fn raw_program_payload(key: &ProgramKey, result: &AnalysisResult) -> Vec<u8> {
        let mut payload = key.to_bytes().to_vec();
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&codec::encode_result(result));
        payload
    }

    #[test]
    fn method_frames_of_older_logs_are_skipped_and_appends_follow_them() {
        // A log as earlier versions wrote it: a 03 header with `MR` frames
        // (method key, fingerprint hash, opaque record) between the `TR` ones.
        let dir = TempDir::new();
        let results = [sample_result(100, false), sample_result(200, true)];
        let mut method_payload = [0x5Au8; 16].to_vec();
        method_payload.extend_from_slice(&7u64.to_le_bytes());
        method_payload.extend_from_slice(&[1, 2, 3, 4, 5]);
        let mut log = HEADER.to_vec();
        log.extend(raw_frame(METHOD_MAGIC, &method_payload));
        log.extend(raw_frame(
            RECORD_MAGIC,
            &raw_program_payload(&key(1), &results[0]),
        ));
        log.extend(raw_frame(METHOD_MAGIC, &method_payload));
        log.extend(raw_frame(
            RECORD_MAGIC,
            &raw_program_payload(&key(2), &results[1]),
        ));
        log.extend(raw_frame(METHOD_MAGIC, &method_payload));
        let path = dir.path().join(STORE_FILE);
        std::fs::write(&path, &log).unwrap();

        let serves_both = |store: &SummaryStore| {
            assert_eq!(store.entries(), 2);
            for (n, result) in (1..).zip(&results) {
                let hit = store.load(&key(n), 7).expect("a TR record is served");
                assert_eq!(codec::encode_result(&hit), codec::encode_result(result));
            }
            assert!(store.diagnostics().is_empty(), "MR frames are not errors");
        };
        serves_both(&SummaryStore::open_read_only(dir.path()).expect("reader"));
        let writer = SummaryStore::open(dir.path()).expect("writer");
        serves_both(&writer);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            log,
            "opening rewrites nothing"
        );

        // A new append lands after the last `MR` frame, and only as `TR`.
        assert!(writer.store(&key(3), 7, &sample_result(300, false)));
        drop(writer);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..log.len()], &log[..]);
        assert_eq!(&bytes[log.len()..log.len() + 2], RECORD_MAGIC);
        let reader = SummaryStore::open_read_only(dir.path()).expect("reopen");
        assert_eq!(reader.entries(), 3);
        assert_eq!(reader.load(&key(3), 7).unwrap().stats.work, 300);
        assert!(reader.diagnostics().is_empty());
    }

    #[test]
    fn v2_store_opens_and_serves_its_records_unchanged() {
        let dir = TempDir::new();
        let store = SummaryStore::open(dir.path()).expect("open");
        assert!(store.store(&key(1), 7, &sample_result(100, false)));
        let path = store.path().to_path_buf();
        drop(store);

        // Regress the header to the previous version: a 02 log holds the same
        // `TR` records.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(HEADER_V2);
        std::fs::write(&path, &bytes).unwrap();

        let reader = SummaryStore::open_read_only(dir.path()).expect("reader");
        assert_eq!(reader.load(&key(1), 7).unwrap().stats.work, 100);
        drop(reader);
        // A writer serves and appends, and keeps the old header as it is.
        let writer = SummaryStore::open(dir.path()).expect("writer");
        assert_eq!(writer.load(&key(1), 7).unwrap().stats.work, 100);
        assert!(writer.store(&key(2), 7, &sample_result(200, false)));
        assert!(writer.diagnostics().is_empty());
        drop(writer);
        let after = std::fs::read(&path).unwrap();
        assert_eq!(&after[..bytes.len()], &bytes[..]);
        let again = SummaryStore::open_read_only(dir.path()).expect("again");
        assert_eq!(again.entries(), 2);
    }

    #[test]
    fn garbage_file_is_rejected_not_misread() {
        let dir = TempDir::new();
        std::fs::write(dir.path().join(STORE_FILE), b"definitely not a store").unwrap();
        assert!(SummaryStore::open(dir.path()).is_err());
        assert!(SummaryStore::open_read_only(dir.path()).is_err());
    }
}
