//! Regression replay of the checked-in minimal-repro corpus
//! (`tests/repros/*.repro`, written by the E23 shrinker).
//!
//! Each artifact is a weakened-defense scenario the vet oracle once
//! flagged, minimized by ddmin. Replaying it must (a) parse, (b) still
//! violate, and (c) reproduce exactly the invariant labels recorded in
//! the artifact's `# violation=` trailer — if a defense change ever
//! *fixes* one of these repros, this test fails and the artifact should
//! be regenerated or retired deliberately.
//!
//! A hostile artifact — a rendered one with a number overwritten — must
//! be rejected by the parser or replay without panicking.

use iotsec_fuzz::oracle::defense_on_violations;
use iotsec_fuzz::{artifact, generate, GenConfig, Weakness};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::panic::catch_unwind;
use std::path::PathBuf;

fn corpus() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/repros exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "the repro corpus must not be empty");
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("repro file readable");
            (name, text)
        })
        .collect()
}

/// The invariant labels recorded in the artifact's trailer comments.
fn recorded_invariants(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# violation="))
        .map(|rest| rest.split_whitespace().next().unwrap_or("").to_string())
        .collect()
}

#[test]
fn every_corpus_artifact_still_reproduces_its_violation() {
    for (name, text) in corpus() {
        let spec = artifact::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let violations = defense_on_violations(&spec);
        assert!(!violations.is_empty(), "{name}: repro no longer violates");
        let got: BTreeSet<String> = violations.iter().map(|v| v.invariant.to_string()).collect();
        let recorded = recorded_invariants(&text);
        assert!(!recorded.is_empty(), "{name}: artifact has no violation trailer");
        assert_eq!(got, recorded, "{name}: violation set drifted from the recorded trailer");
    }
}

#[test]
fn corpus_artifacts_are_minimal_scale() {
    // The shrinker's contract: a corpus repro is small enough to read.
    for (name, text) in corpus() {
        let spec = artifact::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(spec.devices.len() <= 3, "{name}: {} devices", spec.devices.len());
        assert!(spec.faults.len() <= 2, "{name}: {} faults", spec.faults.len());
    }
}

/// A flap that heals before it fails. The parser once accepted it and the
/// replay then panicked building the world's fault schedule.
const REVERSED_FLAP: &str = "seed=1\nhorizon=10\ndevice=row:5\nfault=flap:0:8:2\n";

/// A hostile artifact is rejected by `parse`, or replays without panicking.
fn rejected_or_replayed(text: &str) -> Result<(), TestCaseError> {
    let Ok(spec) = artifact::parse(text) else { return Ok(()) };
    prop_assert!(
        catch_unwind(|| defense_on_violations(&spec)).is_ok(),
        "a parsed artifact panicked on replay:\n{text}"
    );
    Ok(())
}

proptest! {
    /// Overwrite one numeric field of one clause of a rendered artifact
    /// with an arbitrary `u32`. A horizon is taken modulo 31, so every
    /// replay stays within 30 simulated seconds.
    #[test]
    fn prop_hostile_numeric_fields_are_rejected_or_replay(
        seed in any::<u64>(),
        pick in any::<usize>(),
        value in any::<u32>(),
    ) {
        rejected_or_replayed(REVERSED_FLAP)?;
        let mut spec = generate(seed, &GenConfig::weakened(Weakness::FailOpen));
        spec.horizon_secs = spec.horizon_secs.min(30);
        let mut clauses: Vec<(String, Vec<String>)> = artifact::render(&spec)
            .lines()
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.to_string(), v.split(':').map(str::to_string).collect()))
            .collect();
        let numeric: Vec<(usize, usize)> = clauses
            .iter()
            .enumerate()
            .flat_map(|(c, (_, fields))| {
                let numbers = fields.iter().enumerate().filter(|(_, f)| f.parse::<u64>().is_ok());
                numbers.map(move |(i, _)| (c, i))
            })
            .collect();
        let (c, i) = numeric[pick % numeric.len()];
        let value = if clauses[c].0 == "horizon" { value % 31 } else { value };
        clauses[c].1[i] = value.to_string();
        let text: String =
            clauses.iter().map(|(k, fields)| format!("{k}={}\n", fields.join(":"))).collect();
        rejected_or_replayed(&text)?;
    }
}
