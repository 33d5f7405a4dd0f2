//! The seeded edit generator of the `serve-edit` workload.
//!
//! An edit inserts a dead local `int bench_pad = k;` at the start of one
//! method body, the text change an editor would send. A dead store leaves
//! termination unchanged, so an edited program keeps its corpus ground truth,
//! and each distinct `k` makes a distinct program that the program tier has
//! never seen.
//!
//! * A root edit targets `main`'s body.
//! * A leaf edit targets the body of the last `while` loop in the text (after
//!   desugaring, that loop's own method). A program without a loop gets the
//!   local in its first method other than `main` instead.

/// The name of the inserted dead local. No corpus program uses it.
pub const PAD: &str = "bench_pad";

/// Where an edit goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// The start of `main`'s body.
    Root,
    /// The start of the last loop body, or of the first non-`main` method.
    Leaf,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'a> {
    Word(&'a str),
    Punct(u8),
}

/// Tokens with the byte offset just past each one. Comments and whitespace
/// are skipped; multi-character operators come out as single bytes, which is
/// enough to find words, parentheses and braces.
fn tokens(source: &str) -> Vec<(Tok<'_>, usize)> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if source[i..].starts_with("//") {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if source[i..].starts_with("/*") {
            i = source[i + 2..]
                .find("*/")
                .map_or(bytes.len(), |end| i + 2 + end + 2);
        } else if c.is_ascii_alphanumeric() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((Tok::Word(&source[start..i]), i));
        } else {
            i += 1;
            out.push((Tok::Punct(c), i));
        }
    }
    out
}

/// The index of the token that closes the bracket opened at `open`.
fn matching(toks: &[(Tok<'_>, usize)], open: usize) -> Option<usize> {
    let (Tok::Punct(o), _) = toks[open] else {
        return None;
    };
    let c = if o == b'(' { b')' } else { b'}' };
    let mut depth = 0usize;
    for (index, (tok, _)) in toks.iter().enumerate().skip(open) {
        match tok {
            Tok::Punct(p) if *p == o => depth += 1,
            Tok::Punct(p) if *p == c => {
                depth -= 1;
                if depth == 0 {
                    return Some(index);
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte offsets just inside the opening brace of every method body, with the
/// method's name, in source order.
fn method_bodies<'a>(toks: &[(Tok<'a>, usize)]) -> Vec<(&'a str, usize)> {
    let mut bodies = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        // A top-level `data` declaration has a brace block but no body.
        if toks[i].0 == Tok::Word("data") {
            let open = (i..toks.len()).find(|&j| toks[j].0 == Tok::Punct(b'{'));
            i = open
                .and_then(|j| matching(toks, j))
                .map_or(toks.len(), |j| j + 1);
            continue;
        }
        // A method header is `type name (`; `pred name(` and `lemma name(`
        // are not, and neither are calls inside their formulas.
        let header = matches!(
            (toks[i].0, toks[i + 1].0, toks[i + 2].0),
            (Tok::Word(ty), Tok::Word(_), Tok::Punct(b'(')) if ty != "pred" && ty != "lemma"
        );
        if !header {
            i += 1;
            continue;
        }
        let Tok::Word(name) = toks[i + 1].0 else {
            unreachable!("checked by the header match")
        };
        let Some(close) = matching(toks, i + 2) else {
            break;
        };
        // Skip the specification up to the body; `case { … }` blocks inside
        // a specification are not the body.
        let mut j = close + 1;
        while j < toks.len() && toks[j].0 != Tok::Punct(b'{') {
            j += 1;
        }
        while j < toks.len() && toks[j - 1].0 == Tok::Word("case") {
            j = matching(toks, j).map_or(toks.len(), |end| end + 1);
            while j < toks.len() && toks[j].0 != Tok::Punct(b'{') {
                j += 1;
            }
        }
        if j >= toks.len() {
            break;
        }
        bodies.push((name, toks[j].1));
        i = matching(toks, j).map_or(toks.len(), |end| end + 1);
    }
    bodies
}

/// The byte offset just inside the opening brace of the last `while` body.
fn last_loop_body(toks: &[(Tok<'_>, usize)]) -> Option<usize> {
    let at = toks
        .iter()
        .rposition(|(tok, _)| *tok == Tok::Word("while"))?;
    let close = matching(toks, at + 1)?;
    let body = toks.get(close + 1)?;
    (body.0 == Tok::Punct(b'{')).then_some(body.1)
}

/// The byte offset where an edit of `kind` inserts its local, or `None` when
/// the program has no such place (no `main`, or no loop and no other method).
pub fn edit_site(source: &str, kind: EditKind) -> Option<usize> {
    let toks = tokens(source);
    let bodies = method_bodies(&toks);
    match kind {
        EditKind::Root => bodies.iter().find(|(name, _)| *name == "main").map(|b| b.1),
        EditKind::Leaf => last_loop_body(&toks)
            .or_else(|| bodies.iter().find(|(name, _)| *name != "main").map(|b| b.1)),
    }
}

/// The source with a dead `int bench_pad = value;` inserted by an edit of
/// `kind`, or `None` when the program has no place for it.
pub fn apply(source: &str, kind: EditKind, value: u64) -> Option<String> {
    let at = edit_site(source, kind)?;
    Some(format!(
        "{} int {PAD} = {value};{}",
        &source[..at],
        &source[at..]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_infer::session::canonical_method;

    fn canonical(source: &str) -> Vec<(String, String)> {
        let program = tnt_lang::frontend(source).expect("compiles");
        program
            .methods
            .iter()
            .map(|m| (m.name.to_string(), canonical_method(m)))
            .collect()
    }

    /// The names of the methods whose canonical text the edit changed.
    fn changed(before: &[(String, String)], after: &[(String, String)]) -> Vec<String> {
        assert_eq!(
            before.iter().map(|m| &m.0).collect::<Vec<_>>(),
            after.iter().map(|m| &m.0).collect::<Vec<_>>(),
            "an edit keeps the method set"
        );
        before
            .iter()
            .zip(after)
            .filter(|(b, a)| b.1 != a.1)
            .map(|(b, _)| b.0.clone())
            .collect()
    }

    #[test]
    fn every_corpus_edit_compiles_and_changes_exactly_its_target_method() {
        for program in crate::corpus::all_programs() {
            let before = canonical(&program.source);
            let has_loop = edit_site(&program.source, EditKind::Leaf)
                != method_bodies(&tokens(&program.source))
                    .iter()
                    .find(|(n, _)| *n != "main")
                    .map(|b| b.1);
            for kind in [EditKind::Root, EditKind::Leaf] {
                let edited = apply(&program.source, kind, 7)
                    .unwrap_or_else(|| panic!("{}: no {kind:?} edit site", program.name));
                let after = canonical(&edited);
                let changed = changed(&before, &after);
                assert_eq!(
                    changed.len(),
                    1,
                    "{} {kind:?}: changed {changed:?}",
                    program.name
                );
                let target = &changed[0];
                match kind {
                    EditKind::Root => assert_eq!(target, "main", "{}", program.name),
                    EditKind::Leaf if has_loop => {
                        assert!(target.contains("_loop"), "{}: {target}", program.name)
                    }
                    EditKind::Leaf => assert_ne!(target, "main", "{}", program.name),
                }
            }
        }
    }

    #[test]
    fn distinct_values_make_distinct_programs() {
        let source = "void main(int x) { while (x > 0) { x = x - 1; } }";
        let a = apply(source, EditKind::Leaf, 1).unwrap();
        let b = apply(source, EditKind::Leaf, 2).unwrap();
        assert_ne!(canonical(&a), canonical(&b));
        assert_eq!(
            a,
            "void main(int x) { while (x > 0) { int bench_pad = 1; x = x - 1; } }"
        );
    }

    #[test]
    fn specification_case_blocks_are_not_bodies() {
        let source = "int f(int x) case { x > 0 -> requires Term ensures true; \
                      x <= 0 -> requires Term ensures true; } { return x; }\n\
                      void main(int n) { int r = f(n); }";
        let edited = apply(source, EditKind::Leaf, 3).unwrap();
        assert!(
            edited.contains("{ int bench_pad = 3; return x; }"),
            "{edited}"
        );
        let root = apply(source, EditKind::Root, 4).unwrap();
        assert!(
            root.contains("{ int bench_pad = 4; int r = f(n); }"),
            "{root}"
        );
    }
}
