//! Binary codec for [`AnalysisResult`]s — the record payload of the on-disk
//! summary store.
//!
//! The encoding is a straightforward structural serialization (length-prefixed
//! strings and sequences, fixed-width little-endian integers, tag bytes for
//! enums) of exactly the data an [`AnalysisResult`] carries: the case-structured
//! method summaries (guards as [`Formula`] trees over canonical [`Constraint`]s,
//! statuses with their synthesized [`MeasureItem`] measures, the optional
//! inferred [`Precondition`]), the deterministic
//! [`SolveStats`], and the `validated`/`poisoned` flags. Rationals are stored as
//! their canonical `num/den` pair, and `elapsed` as raw IEEE-754 bits, so a
//! decoded result is *structurally identical* to the encoded one — in
//! particular, rendering a decoded summary produces byte-identical text, which
//! is what the store's determinism gate pins.
//!
//! Decoding is total: every read is bounds-checked and every tag validated, so
//! a corrupted payload (which the store's per-record checksum should already
//! have caught) produces an `Err`, never a panic or a wrong value.

use std::collections::BTreeMap;
use tnt_infer::solve::SolveStats;
use tnt_infer::{
    AnalysisResult, CaseStatus, MethodSummary, Precondition, PreconditionKind, SummaryCase,
};
use tnt_logic::{Constraint, Formula, RelOp};
use tnt_solver::{Lin, MeasureItem, Rational};

/// Maximum formula nesting depth accepted by the decoder — far above anything
/// the analyzer produces, low enough that a corrupt payload cannot recurse the
/// decoder into a stack overflow.
const MAX_FORMULA_DEPTH: u32 = 4096;

/// A decoding failure (truncated payload, invalid tag, malformed UTF-8, …).
pub type DecodeError = String;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i128(out: &mut Vec<u8>, v: i128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_rational(out: &mut Vec<u8>, r: Rational) {
    put_i128(out, r.numer());
    put_i128(out, r.denom());
}

fn put_lin(out: &mut Vec<u8>, lin: &Lin) {
    let terms: Vec<(&str, Rational)> = lin.terms().collect();
    put_u32(out, terms.len() as u32);
    for (var, coeff) in terms {
        put_str(out, var);
        put_rational(out, coeff);
    }
    put_rational(out, lin.constant_term());
}

fn put_constraint(out: &mut Vec<u8>, c: &Constraint) {
    put_u8(
        out,
        match c.op() {
            RelOp::Ge => 0,
            RelOp::Eq => 1,
            RelOp::Ne => 2,
        },
    );
    put_lin(out, c.expr());
}

fn put_formula(out: &mut Vec<u8>, f: &Formula) {
    match f {
        Formula::True => put_u8(out, 0),
        Formula::False => put_u8(out, 1),
        Formula::Atom(c) => {
            put_u8(out, 2);
            put_constraint(out, c);
        }
        Formula::And(parts) => {
            put_u8(out, 3);
            put_u32(out, parts.len() as u32);
            for p in parts {
                put_formula(out, p);
            }
        }
        Formula::Or(parts) => {
            put_u8(out, 4);
            put_u32(out, parts.len() as u32);
            for p in parts {
                put_formula(out, p);
            }
        }
        Formula::Not(inner) => {
            put_u8(out, 5);
            put_formula(out, inner);
        }
        Formula::Exists(vars, inner) => {
            put_u8(out, 6);
            put_u32(out, vars.len() as u32);
            for v in vars {
                put_str(out, v);
            }
            put_formula(out, inner);
        }
    }
}

fn put_measure(out: &mut Vec<u8>, item: &MeasureItem) {
    match item {
        MeasureItem::Affine(lin) => {
            put_u8(out, 0);
            put_lin(out, lin);
        }
        MeasureItem::Max(a, b) => {
            put_u8(out, 1);
            put_lin(out, a);
            put_lin(out, b);
        }
        MeasureItem::Phases(phases) => {
            put_u8(out, 2);
            put_u32(out, phases.len() as u32);
            for p in phases {
                put_lin(out, p);
            }
        }
    }
}

fn put_case(out: &mut Vec<u8>, case: &SummaryCase) {
    put_formula(out, &case.guard);
    match &case.status {
        CaseStatus::Term(measures) => {
            put_u8(out, 0);
            put_u32(out, measures.len() as u32);
            for m in measures {
                put_measure(out, m);
            }
        }
        CaseStatus::Loop => put_u8(out, 1),
        CaseStatus::MayLoop => put_u8(out, 2),
    }
}

fn put_summary(out: &mut Vec<u8>, summary: &MethodSummary) {
    put_str(out, &summary.method);
    put_u64(out, summary.scenario_index as u64);
    put_u32(out, summary.vars.len() as u32);
    for v in &summary.vars {
        put_str(out, v);
    }
    put_u32(out, summary.cases.len() as u32);
    for c in &summary.cases {
        put_case(out, c);
    }
    match &summary.precondition {
        None => put_u8(out, 0),
        Some(pre) => {
            put_u8(out, 1);
            put_u8(
                out,
                match pre.kind {
                    PreconditionKind::Terminating => 0,
                    PreconditionKind::NonTerminating => 1,
                },
            );
            put_formula(out, &pre.region);
        }
    }
}

/// Encodes an [`AnalysisResult`] into the store's record-payload form.
pub fn encode_result(result: &AnalysisResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u8(&mut out, result.validated as u8);
    put_u8(&mut out, result.poisoned as u8);
    put_u64(&mut out, result.elapsed.to_bits());
    put_u64(&mut out, result.stats.iterations as u64);
    put_u64(&mut out, result.stats.case_splits as u64);
    put_u64(&mut out, result.stats.ranking_attempts as u64);
    put_u64(&mut out, result.stats.nonterm_attempts as u64);
    put_u64(&mut out, result.stats.orbit_attempts as u64);
    put_u64(&mut out, result.stats.work);
    put_u64(&mut out, result.stats.orbit_work);
    put_u8(&mut out, result.stats.budget_exhausted as u8);
    put_u32(&mut out, result.summaries.len() as u32);
    for (label, summary) in &result.summaries {
        put_str(&mut out, label);
        put_summary(&mut out, summary);
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a record payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len())
            .ok_or_else(|| format!("payload truncated at byte {} (wanted {n} more)", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid bool byte {other}")),
        }
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i128(&mut self) -> Result<i128, DecodeError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    /// A sequence count, sanity-bounded against the remaining payload so a
    /// corrupt length cannot trigger a huge allocation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(format!(
                "sequence of {n} items cannot fit in {remaining} remaining bytes"
            ));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not valid UTF-8".to_string())
    }

    fn rational(&mut self) -> Result<Rational, DecodeError> {
        let num = self.i128()?;
        let den = self.i128()?;
        if den <= 0 {
            return Err(format!("rational with non-positive denominator {den}"));
        }
        Ok(Rational::new(num, den))
    }

    fn lin(&mut self) -> Result<Lin, DecodeError> {
        let n = self.count(4 + 32)?;
        let mut terms = Vec::with_capacity(n);
        for _ in 0..n {
            let var = self.str()?;
            let coeff = self.rational()?;
            terms.push((var, coeff));
        }
        let constant = self.rational()?;
        Ok(Lin::from_terms(terms, constant))
    }

    fn constraint(&mut self) -> Result<Constraint, DecodeError> {
        let op = match self.u8()? {
            0 => RelOp::Ge,
            1 => RelOp::Eq,
            2 => RelOp::Ne,
            other => return Err(format!("invalid RelOp tag {other}")),
        };
        let expr = self.lin()?;
        Ok(Constraint::from_parts(expr, op))
    }

    fn formula(&mut self, depth: u32) -> Result<Formula, DecodeError> {
        if depth > MAX_FORMULA_DEPTH {
            return Err("formula nesting exceeds the decoder depth limit".to_string());
        }
        Ok(match self.u8()? {
            0 => Formula::True,
            1 => Formula::False,
            2 => Formula::Atom(self.constraint()?),
            3 => {
                let n = self.count(1)?;
                let mut parts = Vec::with_capacity(n);
                for _ in 0..n {
                    parts.push(self.formula(depth + 1)?);
                }
                Formula::And(parts)
            }
            4 => {
                let n = self.count(1)?;
                let mut parts = Vec::with_capacity(n);
                for _ in 0..n {
                    parts.push(self.formula(depth + 1)?);
                }
                Formula::Or(parts)
            }
            5 => Formula::Not(Box::new(self.formula(depth + 1)?)),
            6 => {
                let n = self.count(4)?;
                let mut vars = Vec::with_capacity(n);
                for _ in 0..n {
                    vars.push(self.str()?);
                }
                Formula::Exists(vars, Box::new(self.formula(depth + 1)?))
            }
            other => return Err(format!("invalid formula tag {other}")),
        })
    }

    fn measure(&mut self) -> Result<MeasureItem, DecodeError> {
        Ok(match self.u8()? {
            0 => MeasureItem::Affine(self.lin()?),
            1 => MeasureItem::Max(self.lin()?, self.lin()?),
            2 => {
                let n = self.count(4 + 32)?;
                let mut phases = Vec::with_capacity(n);
                for _ in 0..n {
                    phases.push(self.lin()?);
                }
                MeasureItem::Phases(phases)
            }
            other => return Err(format!("invalid measure tag {other}")),
        })
    }

    fn case(&mut self) -> Result<SummaryCase, DecodeError> {
        let guard = self.formula(0)?;
        let status = match self.u8()? {
            0 => {
                let n = self.count(1)?;
                let mut measures = Vec::with_capacity(n);
                for _ in 0..n {
                    measures.push(self.measure()?);
                }
                CaseStatus::Term(measures)
            }
            1 => CaseStatus::Loop,
            2 => CaseStatus::MayLoop,
            other => return Err(format!("invalid case-status tag {other}")),
        };
        Ok(SummaryCase { guard, status })
    }

    fn summary(&mut self) -> Result<MethodSummary, DecodeError> {
        let method = self.str()?;
        let scenario_index = self.u64()? as usize;
        let var_count = self.count(4)?;
        let mut vars = Vec::with_capacity(var_count);
        for _ in 0..var_count {
            vars.push(self.str()?);
        }
        let case_count = self.count(2)?;
        let mut cases = Vec::with_capacity(case_count);
        for _ in 0..case_count {
            cases.push(self.case()?);
        }
        let precondition = match self.u8()? {
            0 => None,
            1 => {
                let kind = match self.u8()? {
                    0 => PreconditionKind::Terminating,
                    1 => PreconditionKind::NonTerminating,
                    other => return Err(format!("invalid precondition-kind tag {other}")),
                };
                let region = self.formula(0)?;
                Some(Precondition { kind, region })
            }
            other => return Err(format!("invalid precondition tag {other}")),
        };
        Ok(MethodSummary {
            method,
            scenario_index,
            vars,
            cases,
            precondition,
        })
    }
}

/// Decodes a record payload produced by [`encode_result`].
///
/// # Errors
///
/// Returns a [`DecodeError`] describing the first malformed byte; never
/// panics, whatever the input.
pub fn decode_result(bytes: &[u8]) -> Result<AnalysisResult, DecodeError> {
    let mut r = Reader::new(bytes);
    let validated = r.bool()?;
    let poisoned = r.bool()?;
    let elapsed = f64::from_bits(r.u64()?);
    let stats = SolveStats {
        iterations: r.u64()? as usize,
        case_splits: r.u64()? as usize,
        ranking_attempts: r.u64()? as usize,
        nonterm_attempts: r.u64()? as usize,
        orbit_attempts: r.u64()? as usize,
        work: r.u64()?,
        orbit_work: r.u64()?,
        budget_exhausted: r.bool()?,
    };
    let summary_count = r.count(8)?;
    let mut summaries = BTreeMap::new();
    for _ in 0..summary_count {
        let label = r.str()?;
        let summary = r.summary()?;
        summaries.insert(label, summary);
    }
    if r.pos != r.bytes.len() {
        return Err(format!(
            "payload has {} trailing bytes after a complete result",
            r.bytes.len() - r.pos
        ));
    }
    Ok(AnalysisResult {
        summaries,
        stats,
        validated,
        poisoned,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result exercising every codec branch: all formula connectives, all
    /// three relational operators, all three measure shapes, non-integer
    /// rationals, and both flags set.
    fn rich_result() -> AnalysisResult {
        let x = || Lin::var("x");
        let y = || Lin::var("y");
        let half = Rational::new(1, 2);
        let guard = Formula::Or(vec![
            Formula::And(vec![
                Formula::Atom(Constraint::ge(x(), Lin::zero())),
                Formula::Atom(Constraint::eq(y(), Lin::constant(half))),
            ]),
            Formula::Not(Box::new(Formula::Atom(Constraint::ne(x(), y())))),
            Formula::Exists(
                vec!["z".to_string()],
                Box::new(Formula::Atom(Constraint::ge(Lin::var("z"), x()))),
            ),
            Formula::True,
            Formula::False,
        ]);
        let measures = vec![
            MeasureItem::Affine(x().scale(Rational::new(-7, 3))),
            MeasureItem::Max(x(), y().add_const(Rational::from(41))),
            MeasureItem::Phases(vec![x(), y(), x().add(&y())]),
        ];
        let mut summaries = BTreeMap::new();
        summaries.insert(
            "main".to_string(),
            MethodSummary {
                method: "main".to_string(),
                scenario_index: 0,
                vars: vec!["x".to_string(), "y".to_string()],
                cases: vec![
                    SummaryCase {
                        guard,
                        status: CaseStatus::Term(measures),
                    },
                    SummaryCase {
                        guard: Formula::True,
                        status: CaseStatus::Loop,
                    },
                    SummaryCase {
                        guard: Formula::False,
                        status: CaseStatus::MayLoop,
                    },
                ],
                precondition: Some(Precondition {
                    kind: PreconditionKind::NonTerminating,
                    region: Formula::Atom(Constraint::ge(x(), Lin::zero())),
                }),
            },
        );
        AnalysisResult {
            summaries,
            stats: SolveStats {
                iterations: 3,
                case_splits: 1,
                ranking_attempts: 9,
                nonterm_attempts: 2,
                orbit_attempts: 1,
                work: 12345,
                orbit_work: 678,
                budget_exhausted: true,
            },
            validated: false,
            poisoned: true,
            elapsed: 0.125,
        }
    }

    #[test]
    fn round_trip_preserves_structure_and_rendering() {
        let original = rich_result();
        let bytes = encode_result(&original);
        let decoded = decode_result(&bytes).expect("decodes");
        assert_eq!(decoded.validated, original.validated);
        assert_eq!(decoded.poisoned, original.poisoned);
        assert_eq!(decoded.elapsed.to_bits(), original.elapsed.to_bits());
        assert_eq!(decoded.stats.work, original.stats.work);
        assert_eq!(decoded.stats.iterations, original.stats.iterations);
        assert_eq!(
            decoded.stats.budget_exhausted,
            original.stats.budget_exhausted
        );
        assert_eq!(decoded.summaries.len(), original.summaries.len());
        for (label, summary) in &original.summaries {
            let other = &decoded.summaries[label];
            assert_eq!(other.method, summary.method);
            assert_eq!(other.scenario_index, summary.scenario_index);
            assert_eq!(other.vars, summary.vars);
            // Byte-identical rendering is the store's determinism contract.
            assert_eq!(other.render(), summary.render());
            assert_eq!(other.precondition, summary.precondition);
            for (a, b) in summary.cases.iter().zip(&other.cases) {
                assert_eq!(a.guard, b.guard);
                assert_eq!(a.status, b.status);
            }
        }
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let bytes = encode_result(&rich_result());
        for len in 0..bytes.len() {
            assert!(
                decode_result(&bytes[..len]).is_err(),
                "a {len}-byte prefix must fail to decode"
            );
        }
    }

    #[test]
    fn flipped_bytes_never_panic_the_decoder() {
        let bytes = encode_result(&rich_result());
        // Flip each byte in turn; the decode must either fail cleanly or
        // produce *some* structurally valid result (e.g. a flipped rational
        // digit) — never panic. The store's checksum rejects these payloads
        // before decoding in practice; this is defence in depth.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x41;
            let _ = decode_result(&corrupt);
        }
    }

    #[test]
    fn empty_payload_is_an_error() {
        assert!(decode_result(&[]).is_err());
    }
}
