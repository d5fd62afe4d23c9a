//! The scaffold the gated experiments (E16–E26) share, written once:
//! what a finished experiment hands the runner ([`Report`], [`emit`]),
//! the `BENCH_E*.json` layout ([`Doc`], [`Obj`]), and the determinism
//! legs ([`Legs`]).
//!
//! The JSON layout is a contract with CI: every line of a record is
//! stable, and CI byte-compares the whole checked-in file. A record
//! holds facts only (digests, counts, simulated latencies, leg
//! agreement, gate verdicts); time is measured by the `benchmark/`
//! harness, never here. [`Doc`] owns the braces, commas and indentation.

use crate::Table;
use std::fmt::{self, Display, Write as _};

/// The repo-wide experiment seed: HotNets '15, November 16.
pub const SEED: u64 = 20151116;

/// What a finished experiment hands the runner. An experiment returns
/// its facts; this is how they are shown, recorded and gated on.
pub trait Report {
    /// The result table, printed first.
    fn table(&self) -> Table;
    /// The text printed under the table (ends with the summary line).
    fn summary(&self) -> String;
    /// Whether the experiment's own determinism / correctness gate held
    /// (`false` fails the process).
    fn passed(&self) -> bool;
    /// The record file the experiment always writes, if any.
    fn record(&self) -> Option<Doc> {
        None
    }
}

/// Print a report, write its record, and return [`Report::passed`].
pub fn emit(report: &impl Report) -> bool {
    report.table().print();
    println!("{}", report.summary());
    println!();
    if let Some(doc) = report.record() {
        println!("wrote {}", doc.write());
    }
    report.passed()
}

/// `hits / lookups`, with an idle cache reading 0 rather than NaN.
pub fn hit_rate(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// A JSON string literal.
pub fn quoted(text: impl Display) -> String {
    let mut out = String::from("\"");
    for c in text.to_string().chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with exactly `decimals` fractional digits.
pub fn fixed(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// An inline JSON array: `[a, b, c]`.
pub fn list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// An inline JSON object — `{"k": v, "k2": v2}` — in insertion order.
/// Values are written as given: pass integers, booleans, `"null"`,
/// [`fixed`] floats, [`quoted`] strings, [`list`]s, or another `Obj`.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Append `"key": value`.
    pub fn field(mut self, key: &str, value: impl Display) -> Obj {
        let sep = if self.0.is_empty() { "" } else { ", " };
        write!(self.0, "{sep}\"{key}\": {value}").expect("writing to a String");
        self
    }
}

impl Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

/// A record file: one top-level object, one field per two-space-indented
/// line, block arrays with one four-space-indented row per line.
#[derive(Debug)]
pub struct Doc {
    path: &'static str,
    body: String,
}

impl Doc {
    /// An empty record destined for `path`.
    pub fn new(path: &'static str) -> Doc {
        Doc { path, body: String::new() }
    }

    /// Append a `"key": value` line.
    pub fn field(mut self, key: &str, value: impl Display) -> Doc {
        let sep = if self.body.is_empty() { "" } else { "," };
        write!(self.body, "{sep}\n  \"{key}\": {value}").expect("writing to a String");
        self
    }

    /// Append a block array, one row per line.
    pub fn rows<T: Display>(self, key: &str, rows: impl IntoIterator<Item = T>) -> Doc {
        let mut block = String::from("[");
        for (i, row) in rows.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(block, "{sep}\n    {row}").expect("writing to a String");
        }
        self.field(key, block + "\n  ]")
    }

    /// The file's bytes: the closed object, ending `}\n`.
    pub fn render(&self) -> String {
        format!("{{{}\n}}\n", self.body)
    }

    /// Write the file and return its path; a record that cannot be
    /// written fails the run.
    pub fn write(self) -> &'static str {
        std::fs::write(self.path, self.render()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", self.path);
            std::process::exit(1);
        });
        self.path
    }
}

/// One leg of a determinism gate: an execution mode at a thread count.
#[derive(Debug, Clone)]
pub struct Leg {
    /// Stable label (`fleet-serial`, `resident-par2`, …).
    pub label: String,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Whether the leg reproduced the reference byte-for-byte.
    pub identical: bool,
}

impl Leg {
    /// The leg's stable record row.
    pub fn json(&self) -> Obj {
        Obj::new()
            .field("label", quoted(&self.label))
            .field("threads", self.threads)
            .field("identical", self.identical)
    }
}

/// A reference run and the legs that must reproduce it.
#[derive(Debug)]
pub struct Legs<R> {
    /// The first leg's output.
    pub reference: R,
    /// Every leg, reference first.
    pub legs: Vec<Leg>,
}

impl<R: PartialEq> Legs<R> {
    /// Start from the serial reference leg.
    pub fn new(label: &str, reference: R) -> Legs<R> {
        let first = Leg { label: label.to_string(), threads: 1, identical: true };
        Legs { reference, legs: vec![first] }
    }

    /// Add a leg; it is `identical` iff `out` equals the reference.
    pub fn push(&mut self, label: String, threads: usize, out: R) {
        self.legs.push(Leg { label, threads, identical: out == self.reference });
    }

    /// The standard tail: `run(1)` again as `{serial}-rerun` (run-to-run
    /// stability), then `run(t)` as `{par}{t}` at each thread count.
    pub fn rerun_and_threads(
        &mut self,
        serial: &str,
        par: &str,
        threads: &[usize],
        mut run: impl FnMut(usize) -> R,
    ) {
        self.push(format!("{serial}-rerun"), 1, run(1));
        for &t in threads {
            self.push(format!("{par}{t}"), t, run(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_layout_is_pinned() {
        let json = Doc::new("BENCH_E0.json")
            .field("experiment", quoted("e0"))
            .field("threads", list([2, 4]))
            .field("fleet", Obj::new().field("homes", 3).field("memo", Obj::new().field("hits", 1)))
            .rows(
                "legs",
                [Obj::new().field("label", quoted("a")), Obj::new().field("label", "null")],
            )
            .rows("none", Vec::<Obj>::new())
            .field("ratio", fixed(2.0, 1))
            .render();
        let expected = r#"{
  "experiment": "e0",
  "threads": [2, 4],
  "fleet": {"homes": 3, "memo": {"hits": 1}},
  "legs": [
    {"label": "a"},
    {"label": null}
  ],
  "none": [
  ],
  "ratio": 2.0
}
"#;
        assert_eq!(json, expected);
    }

    #[test]
    fn quoted_escapes_what_would_break_the_line() {
        assert_eq!(quoted("a\"b\\c\nd"), r#""a\"b\\c\u000ad""#);
        assert_eq!(quoted(7), "\"7\"");
    }

    #[test]
    fn rates_survive_zero_denominators() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(1, 4), 0.25);
    }

    #[test]
    fn legs_compare_against_the_first() {
        let mut calls = Vec::new();
        let mut legs = Legs::new("ref", 7);
        legs.rerun_and_threads("ref", "par", &[2, 4], |t| {
            calls.push(t);
            if t == 4 {
                8
            } else {
                7
            }
        });
        assert_eq!(calls, [1, 2, 4]);
        let rows: Vec<String> = legs.legs.iter().map(|l| l.json().to_string()).collect();
        assert_eq!(rows[0], r#"{"label": "ref", "threads": 1, "identical": true}"#);
        assert_eq!(rows[1], r#"{"label": "ref-rerun", "threads": 1, "identical": true}"#);
        assert_eq!(rows[2], r#"{"label": "par2", "threads": 2, "identical": true}"#);
        assert_eq!(rows[3], r#"{"label": "par4", "threads": 4, "identical": false}"#);
    }
}
