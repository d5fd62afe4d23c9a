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
//! A hostile artifact — a rendered one with a number or a label
//! overwritten — must be rejected by the parser or replay without
//! panicking.

use iotdev::device::DeviceClass;
use iotdev::env::EnvVar;
use iotsec_fuzz::oracle::defense_on_violations;
use iotsec_fuzz::{artifact, generate, DeviceSpec, GenConfig, RecipeSpec, ScenarioSpec, Weakness};
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

/// A string no label field accepts.
const GARBAGE: &str = "x-no-such-label";

/// Every valid spelling of the weakness, the `clean:` class and the
/// recipe trigger (`<variable>:<value>`), as `artifact::render` writes
/// them.
fn label_catalogue() -> (Vec<String>, Vec<String>, Vec<String>) {
    let weaknesses = [Weakness::None, Weakness::FailOpen, Weakness::NoQuarantine]
        .map(|w| w.label().to_string())
        .to_vec();
    let everything = ScenarioSpec {
        seed: 0,
        edges: 0,
        horizon_secs: 1,
        weakness: Weakness::None,
        devices: DeviceClass::ALL.map(DeviceSpec::Clean).to_vec(),
        recipes: EnvVar::ALL
            .into_iter()
            .flat_map(|var| {
                var.domain().iter().map(move |value| RecipeSpec { var, value, target: 0 })
            })
            .collect(),
        faults: Vec::new(),
        attack: Vec::new(),
    };
    let text = artifact::render(&everything);
    let classes =
        text.lines().filter_map(|l| l.strip_prefix("device=clean:")).map(str::to_string).collect();
    let triggers = text
        .lines()
        .filter_map(|l| l.strip_prefix("recipe=")?.strip_suffix(":0"))
        .map(str::to_string)
        .collect();
    (weaknesses, classes, triggers)
}

/// Replace one label field of a rendered artifact — the weakness, a
/// `clean:` class, a `row:` number, a recipe's variable with its value —
/// with every other valid label of its kind, and with garbage. Each result
/// is rejected by `parse` or replays without panicking.
#[test]
fn swapped_label_fields_are_rejected_or_replay() {
    let (weaknesses, classes, triggers) = label_catalogue();
    assert_eq!((weaknesses.len(), classes.len(), triggers.len()), (3, 13, 15));
    // Table 1's rows are 1–7; 0, 8 and 9 are out of range.
    let rows: Vec<String> = (0..=9).map(|r| r.to_string()).collect();
    // Every other label of the field's kind, then garbage.
    let swaps = |labels: &[String], current: &str| -> Vec<String> {
        let others = labels.iter().filter(|l| *l != current).cloned();
        others.chain([GARBAGE.to_string()]).collect()
    };
    let (mut rejected, mut replayed) = (0, 0);
    for seed in 0..16 {
        let mut spec = generate(seed, &GenConfig::weakened(Weakness::FailOpen));
        spec.horizon_secs = spec.horizon_secs.min(30);
        let text = artifact::render(&spec);
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let edits: Vec<String> = if let Some(w) = line.strip_prefix("weakness=") {
                swaps(&weaknesses, w).iter().map(|w| format!("weakness={w}")).collect()
            } else if let Some(c) = line.strip_prefix("device=clean:") {
                swaps(&classes, c).iter().map(|c| format!("device=clean:{c}")).collect()
            } else if let Some(r) = line.strip_prefix("device=row:") {
                swaps(&rows, r).iter().map(|r| format!("device=row:{r}")).collect()
            } else if let Some(recipe) = line.strip_prefix("recipe=") {
                let (trigger, target) = recipe.rsplit_once(':').expect("var:value:target");
                swaps(&triggers, trigger).iter().map(|t| format!("recipe={t}:{target}")).collect()
            } else {
                continue;
            };
            for edit in edits {
                let mut edited = lines.clone();
                edited[i] = &edit;
                let Ok(spec) = artifact::parse(&edited.join("\n")) else {
                    rejected += 1;
                    continue;
                };
                let run = catch_unwind(|| defense_on_violations(&spec));
                assert!(run.is_ok(), "seed {seed}: `{edit}` parsed and then panicked on replay");
                replayed += 1;
            }
        }
    }
    assert!(rejected > 0 && replayed > 0, "{rejected} rejected, {replayed} replayed");
}
