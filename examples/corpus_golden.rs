//! Prints the corpus golden file: every program of all five corpora with its
//! outcome, `work`, validation and poisoning flags and rendered summaries, in
//! the record format of `hiptnt::suite::runner::golden_records`. The
//! conformance gate (`tests/conformance.rs`) compares each suite against this
//! file, so a change that moves any of those outputs must regenerate it and
//! show the diff:
//!
//! ```sh
//! cargo run --release --example corpus_golden > tests/golden/corpus.txt
//! ```

use hiptnt::suite::{integer_loops, runner, svcomp_suites};
use hiptnt::{AnalysisSession, InferOptions};

fn main() {
    // One session across all five corpora, as the conformance gate shares one.
    let session = AnalysisSession::new(InferOptions::default());
    for suite in svcomp_suites().into_iter().chain([integer_loops()]) {
        for (_, record) in runner::golden_records(&session, &suite) {
            print!("{record}");
        }
    }
}
