//! Child processes: this executable, run with a sub-command as its first
//! argument, does one unit of a run and prints its samples as one JSON line,
//! which the parent parses and pools.

use crate::Outcome;
use serde_json::Value;
use std::process::{Command, Stdio};

/// Runs this executable with `args`, waits for it to end, and parses the
/// last line of its standard output as JSON. Its standard error passes
/// through. A child that fails or prints no JSON line is an error.
pub fn run(args: &[String]) -> Result<Value, String> {
    let what = args.first().map_or("", String::as_str);
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start the {what} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {what} child failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("the {what} child printed nothing"))?;
    serde_json::from_str(line).map_err(|e| format!("the {what} child's line: {e}"))
}

/// Adds a child's `attempted`, `failed` and `problems` to `out`.
pub fn absorb(out: &mut Outcome, child: &Value) -> Result<(), String> {
    out.attempted += number(child, "attempted")? as u64;
    out.failed += number(child, "failed")? as u64;
    for problem in strings(child, "problems")? {
        out.problem(problem);
    }
    Ok(())
}

/// The number `key` of a child's line.
pub fn number(child: &Value, key: &str) -> Result<f64, String> {
    child
        .get(key)
        .and_then(Value::as_f64)
        .ok_or(format!("a child's line has no number {key}"))
}

/// The array of numbers `key` of a child's line.
pub fn numbers(child: &Value, key: &str) -> Result<Vec<f64>, String> {
    child
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("a child's line has no array {key}"))?
        .iter()
        .map(|v| v.as_f64().ok_or(format!("{key} holds a non-number")))
        .collect()
}

/// The string `key` of a child's line.
pub fn string(child: &Value, key: &str) -> Result<String, String> {
    child
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("a child's line has no string {key}"))
}

/// The array of strings `key` of a child's line.
pub fn strings(child: &Value, key: &str) -> Result<Vec<String>, String> {
    child
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("a child's line has no array {key}"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or(format!("{key} holds a non-string"))
        })
        .collect()
}

/// The JSON line a child prints: its fields, then the `Outcome`'s counts
/// and problems.
#[derive(Default)]
pub struct Line(Vec<String>);

impl Line {
    /// Adds a number.
    pub fn number(mut self, key: &str, value: f64) -> Line {
        self.0
            .push(format!("\"{key}\": {}", crate::json_number(value)));
        self
    }

    /// Adds an array of numbers.
    pub fn numbers(mut self, key: &str, values: &[f64]) -> Line {
        let values: Vec<String> = values.iter().map(|v| crate::json_number(*v)).collect();
        self.0.push(format!("\"{key}\": [{}]", values.join(", ")));
        self
    }

    /// Adds a string.
    pub fn string(mut self, key: &str, value: &str) -> Line {
        self.0.push(format!("\"{key}\": {}", quoted(value)));
        self
    }

    /// Adds an array of strings.
    pub fn strings(mut self, key: &str, values: &[String]) -> Line {
        let values: Vec<String> = values.iter().map(|v| quoted(v)).collect();
        self.0.push(format!("\"{key}\": [{}]", values.join(", ")));
        self
    }

    /// Adds `out`'s counts and problems, and renders the line.
    pub fn finish(self, out: &Outcome) -> String {
        let line = self
            .number("attempted", out.attempted as f64)
            .number("failed", out.failed as f64)
            .strings("problems", &out.problems);
        format!("{{{}}}", line.0.join(", "))
    }
}

fn quoted(value: &str) -> String {
    let mut quoted = String::from("\"");
    serde_json::json_escape_into(value, &mut quoted);
    quoted.push('"');
    quoted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_parses_back() {
        let mut out = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        out.problem("a \"quoted\"\nproblem".to_string());
        let line = Line::default()
            .number("cpu_s", 0.125)
            .numbers("ms", &[1.5, 2.0])
            .string("fingerprint", "Y=1 N=2")
            .strings("answers", &["ab".to_string(), String::new()])
            .finish(&out);
        let value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(number(&value, "cpu_s"), Ok(0.125));
        assert_eq!(numbers(&value, "ms"), Ok(vec![1.5, 2.0]));
        assert_eq!(string(&value, "fingerprint").as_deref(), Ok("Y=1 N=2"));
        assert_eq!(
            strings(&value, "answers"),
            Ok(vec!["ab".to_string(), String::new()])
        );
        let mut parent = Outcome::default();
        absorb(&mut parent, &value).expect("absorbs");
        assert_eq!((parent.attempted, parent.failed), (3, 1));
        assert_eq!(parent.problems, out.problems);
    }
}
