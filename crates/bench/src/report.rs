//! The measurement scaffold the gated experiments (E16–E26) share,
//! written once: what a finished experiment hands the runner
//! ([`Report`], [`emit`]), the `BENCH_E*.json` layout ([`Doc`], [`Obj`]),
//! and the timed determinism legs ([`timed`], [`measured`], [`Legs`]).
//!
//! The JSON layout is a contract with CI, which byte-compares every
//! checked-in record with `git diff -I'wall_ms'`: host-dependent numbers
//! may appear only on lines that carry a `wall_ms` key. [`Doc`] owns the
//! braces, commas and indentation, and its volatile calls *refuse* a
//! line without the marker, so the contract holds by construction.

use crate::Table;
use std::fmt::{self, Display, Write as _};
use std::time::Instant;

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

/// `count` per second over `wall_ms` (a sub-millisecond leg counts as 1 ms).
pub fn per_sec(count: u64, wall_ms: u128) -> f64 {
    count as f64 / (wall_ms.max(1) as f64 / 1000.0)
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

    /// Append a stable `"key": value` line.
    pub fn field(mut self, key: &str, value: impl Display) -> Doc {
        let sep = if self.body.is_empty() { "" } else { "," };
        write!(self.body, "{sep}\n  \"{key}\": {value}").expect("writing to a String");
        self
    }

    /// Append a stable block array, one row per line.
    pub fn rows<T: Display>(self, key: &str, rows: impl IntoIterator<Item = T>) -> Doc {
        let mut block = String::from("[");
        for (i, row) in rows.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(block, "{sep}\n    {row}").expect("writing to a String");
        }
        self.field(key, block + "\n  ]")
    }

    /// Append a host-dependent line; the key must carry the marker.
    pub fn volatile_field(self, key: &str, value: impl Display) -> Doc {
        assert!(key.contains("wall_ms"), "volatile field `{key}` lacks a wall_ms marker");
        self.field(key, value)
    }

    /// Append a block array of host-dependent rows; every row must carry
    /// a `…wall_ms` key.
    pub fn volatile_rows<T: Display>(self, key: &str, rows: impl IntoIterator<Item = T>) -> Doc {
        self.rows(
            key,
            rows.into_iter().map(|row| {
                let row = row.to_string();
                assert!(row.contains("wall_ms\":"), "volatile row lacks a wall_ms key: {row}");
                row
            }),
        )
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

/// Run `run`, returning its result and wall time in milliseconds.
pub fn timed<T>(run: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let out = run();
    (out, start.elapsed().as_millis())
}

/// What a leg cost. Both numbers are host-dependent, never gated on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Wall time.
    pub wall_ms: u128,
    /// Heap bytes allocated (0 under a null reader).
    pub bytes: u64,
}

/// [`timed`], plus the growth of `alloc_bytes` — a reader of the
/// process's cumulative heap-bytes counter (the `experiments` binary
/// installs a counting allocator; unit tests pass a null reader).
pub fn measured<T>(alloc_bytes: &dyn Fn() -> u64, run: impl FnOnce() -> T) -> (T, Cost) {
    let before = alloc_bytes();
    let (out, wall_ms) = timed(run);
    (out, Cost { wall_ms, bytes: alloc_bytes() - before })
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
    /// What the leg cost (volatile).
    pub cost: Cost,
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
    pub fn new(label: &str, (reference, cost): (R, Cost)) -> Legs<R> {
        let first = Leg { label: label.to_string(), threads: 1, identical: true, cost };
        Legs { reference, legs: vec![first] }
    }

    /// Add a leg; it is `identical` iff `out` equals the reference.
    pub fn push(&mut self, label: String, threads: usize, (out, cost): (R, Cost)) {
        self.legs.push(Leg { label, threads, identical: out == self.reference, cost });
    }

    /// The standard tail: `run(1)` again as `{serial}-rerun` (run-to-run
    /// stability), then `run(t)` as `{par}{t}` at each thread count.
    pub fn rerun_and_threads(
        &mut self,
        serial: &str,
        par: &str,
        threads: &[usize],
        mut run: impl FnMut(usize) -> (R, Cost),
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
            .volatile_rows(
                "timing_wall_ms",
                [Obj::new().field("leg", quoted("a")).field("ref_wall_ms", 7)],
            )
            .volatile_field("speedup_wall_ms", Obj::new().field("best", fixed(2.0, 1)))
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
  "timing_wall_ms": [
    {"leg": "a", "ref_wall_ms": 7}
  ],
  "speedup_wall_ms": {"best": 2.0}
}
"#;
        assert_eq!(json, expected);
    }

    #[test]
    #[should_panic(expected = "volatile row lacks a wall_ms key")]
    fn volatile_row_without_marker_is_refused() {
        // `homes_per_sec` is host-dependent; without a wall_ms key on the
        // same line, `git diff -I'wall_ms'` would flag it on every host.
        let _ =
            Doc::new("x").volatile_rows("timing_wall_ms", [Obj::new().field("homes_per_sec", 9)]);
    }

    #[test]
    #[should_panic(expected = "lacks a wall_ms marker")]
    fn volatile_field_without_marker_is_refused() {
        let _ = Doc::new("x").volatile_field("speedup", 2);
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
        assert_eq!(per_sec(500, 0), 500_000.0);
        assert_eq!(per_sec(500, 250), 2_000.0);
    }

    #[test]
    fn legs_compare_against_the_first() {
        let mut calls = Vec::new();
        let mut legs = Legs::new("ref", measured(&|| 0, || 7));
        legs.rerun_and_threads("ref", "par", &[2, 4], |t| {
            calls.push(t);
            (if t == 4 { 8 } else { 7 }, Cost::default())
        });
        assert_eq!(calls, [1, 2, 4]);
        let rows: Vec<String> = legs.legs.iter().map(|l| l.json().to_string()).collect();
        assert_eq!(rows[0], r#"{"label": "ref", "threads": 1, "identical": true}"#);
        assert_eq!(rows[1], r#"{"label": "ref-rerun", "threads": 1, "identical": true}"#);
        assert_eq!(rows[2], r#"{"label": "par2", "threads": 2, "identical": true}"#);
        assert_eq!(rows[3], r#"{"label": "par4", "threads": 4, "identical": false}"#);
    }
}
