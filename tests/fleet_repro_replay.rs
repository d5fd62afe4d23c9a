//! E25 fleet-chaos repro corpus: every artifact in `tests/repros/fleet/`
//! must replay to the exact violations its `# violation=` trailers
//! claim, stay minimal, and cover all three seeded weaknesses.
//!
//! Regenerate the corpus (after an intentional checker or chaos change)
//! with:
//!
//! ```text
//! FLEET_REPRO_BLESS=1 cargo test --test fleet_repro_replay
//! ```
//!
//! which re-runs the weakened-arm seed sweep, ddmin-shrinks the first
//! catch for each weakness and rewrites the three artifacts.
//!
//! A hostile artifact — a corpus one with a number or an `on`/`off` flag
//! overwritten — must be rejected by the parser or replay without
//! panicking.

use std::collections::BTreeSet;
use std::fs;
use std::panic::catch_unwind;
use std::path::PathBuf;

use iotsec_fuzz::fleet::{
    fleet_violations, generate_fleet, parse_fleet, shrink_fleet, FleetWeakness,
};

/// The corpus contract: one artifact per seeded weakness, named by its
/// label, demonstrating the named invariant.
const CASES: [(FleetWeakness, &str); 3] = [
    (FleetWeakness::NoRetry, "lost-discovery"),
    (FleetWeakness::NoReconcile, "unrecovered"),
    (FleetWeakness::UnboundedStaleness, "staleness-budget"),
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repros/fleet")
}

fn bless_corpus() {
    fs::create_dir_all(corpus_dir()).expect("create corpus dir");
    for (weakness, invariant) in CASES {
        let repro = (0..256u64)
            .map(|seed| generate_fleet(seed, weakness))
            .find(|spec| fleet_violations(spec).iter().any(|v| v.invariant == invariant))
            .and_then(|spec| shrink_fleet(&spec))
            .unwrap_or_else(|| panic!("{}: no seed tripped {invariant}", weakness.label()));
        assert!(
            repro.violations.iter().any(|v| v.invariant == invariant),
            "{}: shrink lost {invariant}",
            weakness.label()
        );
        let path = corpus_dir().join(format!("{}.repro", weakness.label()));
        fs::write(&path, &repro.artifact).expect("write artifact");
        eprintln!(
            "blessed {} ({} homes, {} rounds, {} oracle runs)",
            path.display(),
            repro.spec.homes,
            repro.spec.rounds,
            repro.oracle_runs
        );
    }
}

/// Every `.repro` artifact in the corpus, as `(file name, text)`.
fn corpus() -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/repros/fleet exists")
        .map(|e| e.expect("read corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read_to_string(&p).expect("read artifact"))
        })
        .collect()
}

/// Overwrite each numeric key of each corpus artifact, one at a time,
/// with `0`, `1` and `u32::MAX`. `parse_fleet` rejects the result or
/// `fleet_violations` replays it without panicking: the barrier's round
/// sums must saturate (a `u32::MAX`-round partition or backoff), and
/// `homes` and `rounds` must be bounded at parse time (at `u32::MAX`
/// either names a run no machine finishes).
#[test]
fn hostile_numeric_keys_are_rejected_or_replay() {
    let mut replayed = 0;
    for (name, text) in corpus() {
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some((key, value)) = line.split_once('=') else { continue };
            if line.starts_with('#') || value.parse::<u64>().is_err() {
                continue;
            }
            for hostile in [0, 1, u32::MAX] {
                let mut edited = lines.clone();
                let clause = format!("{key}={hostile}");
                edited[i] = &clause;
                let Ok(spec) = parse_fleet(&edited.join("\n")) else { continue };
                let run = catch_unwind(|| fleet_violations(&spec));
                assert!(run.is_ok(), "{name}: `{clause}` parsed and then panicked on replay");
                replayed += 1;
            }
        }
    }
    assert!(replayed > 0, "every hostile artifact was rejected: the replay arm never ran");
}

/// Swap each `on`/`off` flag of each corpus artifact (`retry`,
/// `reconcile`, `declare-degraded`) for the other value and for garbage,
/// one at a time. `parse_fleet` rejects the result or `fleet_violations`
/// replays it without panicking.
#[test]
fn swapped_flags_are_rejected_or_replay() {
    let (mut rejected, mut replayed) = (0, 0);
    for (name, text) in corpus() {
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some((key, value)) = line.split_once('=') else { continue };
            if !matches!(key, "retry" | "reconcile" | "declare-degraded") {
                continue;
            }
            let other = if value == "on" { "off" } else { "on" };
            for swapped in [other, "x-no-such-flag"] {
                let mut edited = lines.clone();
                let clause = format!("{key}={swapped}");
                edited[i] = &clause;
                let Ok(spec) = parse_fleet(&edited.join("\n")) else {
                    rejected += 1;
                    continue;
                };
                let run = catch_unwind(|| fleet_violations(&spec));
                assert!(run.is_ok(), "{name}: `{clause}` parsed and then panicked on replay");
                replayed += 1;
            }
        }
    }
    // Three flags per artifact, three artifacts, two swaps each.
    assert_eq!((rejected, replayed), (9, 9));
}

#[test]
fn fleet_repro_corpus_replays_and_stays_minimal() {
    if std::env::var("FLEET_REPRO_BLESS").is_ok() {
        bless_corpus();
    }
    let mut seen = BTreeSet::new();
    for (name, text) in corpus() {
        // The artifact replays: parse back, re-run, and the produced
        // invariant set matches the `# violation=` trailers exactly.
        let spec =
            parse_fleet(&text).unwrap_or_else(|e| panic!("{name}: artifact no longer parses: {e}"));
        let produced: BTreeSet<&str> =
            fleet_violations(&spec).iter().map(|v| v.invariant).collect();
        let claimed: BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# violation="))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert!(!claimed.is_empty(), "{name}: artifact claims no violations");
        assert_eq!(produced, claimed, "{name}: replay produced a different violation set");

        // The corpus stays minimal: ddmin has already run, so re-running
        // it must not find anything smaller.
        let repro = shrink_fleet(&spec).expect("violating artifact shrinks");
        assert_eq!(
            repro.spec, spec,
            "{name}: artifact is not 1-minimal any more — re-bless with FLEET_REPRO_BLESS=1"
        );

        seen.insert(name.trim_end_matches(".repro").to_string());
    }
    let expected: BTreeSet<String> = CASES.iter().map(|(w, _)| w.label().to_string()).collect();
    assert_eq!(seen, expected, "corpus must hold exactly one artifact per seeded weakness");
    // Each artifact demonstrates its weakness's headline invariant.
    for (weakness, invariant) in CASES {
        let text =
            fs::read_to_string(corpus_dir().join(format!("{}.repro", weakness.label()))).unwrap();
        assert!(
            text.lines().any(|l| {
                l.strip_prefix("# violation=")
                    .is_some_and(|rest| rest.split_whitespace().next() == Some(invariant))
            }),
            "{}: artifact does not demonstrate {invariant}",
            weakness.label()
        );
    }
}
