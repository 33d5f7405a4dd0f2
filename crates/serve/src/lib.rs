//! # tnt-serve
//!
//! The serving layer over [`tnt_infer::AnalysisSession`]: a long-running loop
//! that reads line-delimited JSON analysis requests on stdin, multiplexes them
//! onto one shared session (and, optionally, one persistent
//! [`tnt_store::SummaryStore`]), and streams one JSON result line per request
//! as it lands.
//!
//! ## Protocol
//!
//! One request per line:
//!
//! ```text
//! {"id": 1, "source": "void f(int x) { while (x > 0) { x = x - 1; } }"}
//! ```
//!
//! `id` is echoed back verbatim (any JSON value); `source` is the program
//! text. One response per line, in request order:
//!
//! ```text
//! {"id":1,"status":"ok","verdict":"Y","precondition":null,"cached":false,
//!  "tier":null,"work":63,"poisoned":false,"validated":true,"elapsed_s":0.002,
//!  "summaries":{"f":"case {\n  x <= 0 -> requires Term ensures true;\n  ...}"}}
//! ```
//!
//! `verdict` is the benchmark verdict (`Y`/`N`/`U`, with `T/O` when the
//! analysis gave up on budget), `precondition` carries the entry point's
//! inferred input precondition as `{"kind":"terminating"|"non-terminating",
//! "region":"…"}` — or `null` for a plain verdict, so the schema is stable —
//! `tier` names the cache tier that served a repeat (`"dedup"`, `"memory"`,
//! `"store"`), and `summaries` maps each summary label to its rendered
//! case-based specification. Malformed requests
//! and failed analyses produce `{"id":…,"status":"error","error":"…"}` — the
//! loop never dies on a bad request, and a panicking analysis is isolated by
//! the session's per-program `catch_unwind` machinery.
//!
//! Request lines over the size cap ([`DEFAULT_MAX_REQUEST_BYTES`], overridden
//! with [`Server::with_max_request_bytes`] / `tnt-serve --max-request-bytes`)
//! are rejected with an error response before being parsed, so their `id` is
//! `null`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use serde_json::{json_escape_into, Value};
use tnt_infer::{
    AnalysisSession, BatchEntry, CacheTier, InferOptions, SessionStats, SummaryBackend,
};

/// The default cap on one request line, in bytes (4 MiB). Large enough for
/// any real program text, small enough that a runaway or adversarial client
/// cannot make the daemon buffer an unbounded line before parsing it.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 4 * 1024 * 1024;

/// A shared analysis server: one session (with its in-memory cache and
/// optional persistent store tier) serving any number of sequential requests.
pub struct Server {
    session: AnalysisSession,
    max_request_bytes: usize,
}

impl Server {
    /// A server over a fresh session with the given options.
    pub fn new(options: InferOptions) -> Server {
        Server {
            session: AnalysisSession::new(options),
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
        }
    }

    /// Attaches a persistent summary store as the session's second cache tier.
    pub fn with_store(mut self, store: Arc<dyn SummaryBackend>) -> Server {
        self.session = self.session.with_store(store);
        self
    }

    /// Caps the size of a single request line. Oversized lines get a normal
    /// `status: "error"` response (with a `null` id — the request is rejected
    /// before it is parsed) and the loop keeps serving.
    pub fn with_max_request_bytes(mut self, bytes: usize) -> Server {
        self.max_request_bytes = bytes;
        self
    }

    /// The underlying session's reuse/spending counters.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Drains any diagnostics the persistent store accumulated (corrupt
    /// frames skipped, unreadable records) since the last call. Empty when no
    /// store is attached or nothing went wrong.
    pub fn take_diagnostics(&self) -> Vec<String> {
        self.session.store_diagnostics()
    }

    /// Handles one request line, returning exactly one JSON response line
    /// (without the trailing newline). Never panics on any input.
    pub fn handle_line(&self, line: &str) -> String {
        if line.len() > self.max_request_bytes {
            return error_response(
                &Value::Null,
                &format!(
                    "request line is {} bytes, over the {}-byte limit",
                    line.len(),
                    self.max_request_bytes
                ),
            );
        }
        let request = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(err) => {
                return error_response(&Value::Null, &format!("request is not valid JSON: {err}"))
            }
        };
        let id = request.get("id").cloned().unwrap_or(Value::Null);
        let source = match request.get("source").and_then(Value::as_str) {
            Some(s) => s.to_string(),
            None => {
                return error_response(&id, "request is missing a string \"source\" member");
            }
        };
        // A one-element batch reuses the session's whole pipeline: key + cache
        // tiers, full-text collision guard, and catch_unwind panic isolation.
        let mut entries = self.session.analyze_batch_with(&[&source], 1);
        let entry = entries.pop().expect("one entry per submitted program");
        render_response(&id, &entry)
    }
}

/// Runs the serve loop: one response line per request line, flushed as it
/// lands so a driving process can pipeline requests interactively. Store
/// diagnostics (corrupt frames, unreadable records) are drained after every
/// request and logged to stderr, so corruption surfaces next to the request
/// that tripped over it rather than only at shutdown.
pub fn serve(server: &Server, input: impl BufRead, mut output: impl Write) -> io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = server.handle_line(&line);
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        for note in server.take_diagnostics() {
            eprintln!("tnt-serve: store: {note}");
        }
    }
    Ok(())
}

fn render_response(id: &Value, entry: &BatchEntry) -> String {
    let result = match (&entry.result, &entry.panic_note) {
        (Ok(result), _) => result,
        (Err(_), Some(note)) => {
            return error_response(id, &format!("analysis panicked: {note}"));
        }
        (Err(err), None) => {
            return error_response(id, &err.to_string());
        }
    };
    let verdict = match result.program_verdict() {
        tnt_infer::Verdict::Terminating => "Y",
        tnt_infer::Verdict::NonTerminating => "N",
        tnt_infer::Verdict::Unknown if result.stats.budget_exhausted => "T/O",
        tnt_infer::Verdict::Unknown => "U",
    };
    let mut out = String::with_capacity(256);
    out.push_str("{\"id\":");
    emit_value(id, &mut out);
    out.push_str(",\"status\":\"ok\",\"verdict\":\"");
    out.push_str(verdict);
    out.push_str("\",\"precondition\":");
    match result.program_precondition() {
        Some(pre) => {
            out.push_str("{\"kind\":\"");
            json_escape_into(&pre.kind.to_string(), &mut out);
            out.push_str("\",\"region\":\"");
            json_escape_into(&pre.region.to_string(), &mut out);
            out.push_str("\"}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"cached\":");
    out.push_str(if entry.tier.is_some() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"tier\":");
    match entry.tier {
        Some(CacheTier::Dedup) => out.push_str("\"dedup\""),
        Some(CacheTier::Memory) => out.push_str("\"memory\""),
        Some(CacheTier::Store) => out.push_str("\"store\""),
        None => out.push_str("null"),
    }
    out.push_str(",\"work\":");
    out.push_str(&entry.work.to_string());
    out.push_str(",\"poisoned\":");
    out.push_str(if result.poisoned { "true" } else { "false" });
    out.push_str(",\"validated\":");
    out.push_str(if result.validated { "true" } else { "false" });
    out.push_str(",\"elapsed_s\":");
    emit_f64(entry.elapsed, &mut out);
    out.push_str(",\"summaries\":{");
    for (i, (label, summary)) in result.summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(label, &mut out);
        out.push_str("\":\"");
        json_escape_into(&summary.render(), &mut out);
        out.push('"');
    }
    out.push_str("}}");
    out
}

fn error_response(id: &Value, message: &str) -> String {
    let mut out = String::with_capacity(64 + message.len());
    out.push_str("{\"id\":");
    emit_value(id, &mut out);
    out.push_str(",\"status\":\"error\",\"error\":\"");
    json_escape_into(message, &mut out);
    out.push_str("\"}");
    out
}

/// Emits a parsed [`Value`] back as compact JSON (used to echo request ids).
fn emit_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => emit_f64(*n, out),
        Value::String(s) => {
            out.push('"');
            json_escape_into(s, out);
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape_into(k, out);
                out.push_str("\":");
                emit_value(v, out);
            }
            out.push('}');
        }
    }
}

fn emit_f64(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&n.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TERMINATING: &str = "void f(int x) { if (x <= 0) { return; } else { f(x - 1); } }";
    const LOOPING: &str = "void g(int x) { g(x + 1); }";

    fn parse(line: &str) -> Value {
        serde_json::from_str(line).expect("every response line is valid JSON")
    }

    #[test]
    fn ok_response_carries_verdict_and_summaries() {
        let server = Server::new(InferOptions::default());
        let resp = parse(&server.handle_line(&format!(
            "{{\"id\": 1, \"source\": \"{}\"}}",
            TERMINATING.replace('"', "\\\"")
        )));
        assert_eq!(resp.get("id").and_then(Value::as_f64), Some(1.0));
        assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(resp.get("verdict").and_then(Value::as_str), Some("Y"));
        assert_eq!(resp.get("cached").and_then(Value::as_bool), Some(false));
        assert!(resp.get("tier").unwrap().is_null());
        assert!(resp.get("work").and_then(Value::as_f64).unwrap() > 0.0);
        let summaries = resp.get("summaries").unwrap().as_object().unwrap();
        assert!(summaries.keys().any(|k| k == "f"));
        assert!(summaries["f"].as_str().unwrap().contains("case {"));
    }

    #[test]
    fn duplicate_request_is_served_from_the_memory_tier() {
        let server = Server::new(InferOptions::default());
        let req = format!(
            "{{\"id\": \"a\", \"source\": \"{}\"}}",
            LOOPING.replace('"', "\\\"")
        );
        let cold = parse(&server.handle_line(&req));
        let warm = parse(&server.handle_line(&req));
        assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));
        assert_eq!(warm.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(warm.get("tier").and_then(Value::as_str), Some("memory"));
        assert_eq!(warm.get("verdict").and_then(Value::as_str), Some("N"));
        // The warm response is identical in everything but the cache fields.
        assert_eq!(cold.get("summaries"), warm.get("summaries"));
        assert_eq!(cold.get("work"), warm.get("work"));
        assert_eq!(server.stats().memory_hits, 1);
    }

    #[test]
    fn edited_program_is_a_program_tier_miss() {
        let server = Server::new(InferOptions::default());
        let original = "void leaf(int x) { if (x > 0) { leaf(x - 1); } else { return; } } \
                        void root(int x, int y) \
                        { leaf(x); if (y > 0) { root(x, y - 1); } else { return; } }";
        let edited = original.replace("y > 0", "y > 7");
        let request = |src: &str| format!("{{\"id\": 1, \"source\": \"{src}\"}}");
        let cold = parse(&server.handle_line(&request(original)));
        assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));
        let warm = parse(&server.handle_line(&request(&edited)));
        assert_eq!(
            warm.get("cached").and_then(Value::as_bool),
            Some(false),
            "an edited program is a program-tier miss"
        );
        assert_eq!(server.stats().cache_misses, 2);
    }

    #[test]
    fn plain_verdicts_serialize_a_null_precondition() {
        let server = Server::new(InferOptions::default());
        let resp = parse(&server.handle_line(&format!(
            "{{\"id\": 1, \"source\": \"{}\"}}",
            TERMINATING.replace('"', "\\\"")
        )));
        // Schema stability: the member is always present, null when no
        // precondition was inferred.
        let pre = resp.get("precondition").expect("member always present");
        assert!(pre.is_null());
    }

    #[test]
    fn nonterminating_precondition_round_trips_through_the_parser() {
        let server = Server::new(InferOptions::default());
        let source = "void main(int j, int k) { while (k >= 0) { k = k + 1; j = k; \
                      while (j >= 1) { j = j - 1; } } }";
        let resp = parse(&server.handle_line(&format!(
            "{{\"id\": 7, \"source\": \"{}\"}}",
            source.replace('"', "\\\"")
        )));
        assert_eq!(resp.get("verdict").and_then(Value::as_str), Some("N"));
        let pre = resp.get("precondition").unwrap();
        assert_eq!(
            pre.get("kind").and_then(Value::as_str),
            Some("non-terminating")
        );
        assert_eq!(pre.get("region").and_then(Value::as_str), Some("k >= 0"));
    }

    #[test]
    fn malformed_requests_get_error_lines_not_crashes() {
        let server = Server::new(InferOptions::default());
        for (line, expect_id) in [
            ("this is not json", Value::Null),
            ("{\"source\": 42}", Value::Null),
            ("{\"id\": 9}", Value::Number(9.0)),
            ("{\"id\": 9, \"source\": 42}", Value::Number(9.0)),
        ] {
            let resp = parse(&server.handle_line(line));
            assert_eq!(
                resp.get("status").and_then(Value::as_str),
                Some("error"),
                "{line}"
            );
            assert!(
                resp.get("error").and_then(Value::as_str).is_some(),
                "{line}"
            );
            assert_eq!(resp.get("id"), Some(&expect_id), "{line}");
        }
    }

    #[test]
    fn unparseable_source_is_an_error_response() {
        let server = Server::new(InferOptions::default());
        let resp = parse(&server.handle_line("{\"id\": 2, \"source\": \"void f( { } garbage\"}"));
        assert_eq!(resp.get("status").and_then(Value::as_str), Some("error"));
    }

    #[test]
    fn serve_loop_streams_one_line_per_request_and_skips_blanks() {
        let server = Server::new(InferOptions::default());
        let input = format!(
            "{{\"id\": 1, \"source\": \"{src}\"}}\n\n{{\"id\": 2, \"source\": \"{src}\"}}\nnot json\n",
            src = TERMINATING.replace('"', "\\\"")
        );
        let mut output = Vec::new();
        serve(&server, input.as_bytes(), &mut output).expect("serve loop");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "three non-blank requests, three responses");
        assert_eq!(
            parse(lines[1]).get("cached").and_then(Value::as_bool),
            Some(true),
            "second identical request is a cache hit"
        );
        assert_eq!(
            parse(lines[2]).get("status").and_then(Value::as_str),
            Some("error")
        );
    }

    #[test]
    fn oversized_requests_are_rejected_before_parsing() {
        let server = Server::new(InferOptions::default()).with_max_request_bytes(128);
        // A request that would be valid, inflated past the cap by whitespace
        // padding: the rejection must fire on raw line length, not content.
        let padding = " ".repeat(256);
        let line = format!(
            "{{\"id\": 3, {padding}\"source\": \"{}\"}}",
            TERMINATING.replace('"', "\\\"")
        );
        let resp = parse(&server.handle_line(&line));
        assert_eq!(resp.get("status").and_then(Value::as_str), Some("error"));
        assert!(
            resp.get("id").unwrap().is_null(),
            "the line is rejected unparsed, so the id cannot be echoed"
        );
        let message = resp.get("error").and_then(Value::as_str).unwrap();
        assert!(
            message.contains("128-byte limit"),
            "the error names the limit: {message}"
        );
        // The same request within the cap still works — and the loop as a
        // whole survives an oversized line between two good ones.
        let ok = format!(
            "{{\"id\": 3, \"source\": \"{}\"}}",
            TERMINATING.replace('"', "\\\"")
        );
        let mut output = Vec::new();
        let capped = Server::new(InferOptions::default()).with_max_request_bytes(128);
        serve(
            &capped,
            format!("{ok}\n{line}\n{ok}\n").as_bytes(),
            &mut output,
        )
        .expect("serve loop");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            parse(lines[0]).get("status").and_then(Value::as_str),
            Some("ok")
        );
        assert_eq!(
            parse(lines[1]).get("status").and_then(Value::as_str),
            Some("error")
        );
        assert_eq!(
            parse(lines[2]).get("status").and_then(Value::as_str),
            Some("ok"),
            "the loop keeps serving after an oversized line"
        );
    }

    #[test]
    fn id_echo_round_trips_arbitrary_json_values() {
        let server = Server::new(InferOptions::default());
        let resp = parse(&server.handle_line(
            "{\"id\": {\"run\": [1, 2.5, null, true, \"x\\\"y\"]}, \"source\": \"void f() { return; }\"}",
        ));
        let id = resp.get("id").unwrap();
        let run = id.get("run").unwrap().as_array().unwrap();
        assert_eq!(run[1].as_f64(), Some(2.5));
        assert_eq!(run[4].as_str(), Some("x\"y"));
    }
}
