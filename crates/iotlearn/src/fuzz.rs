//! Model-based cross-device interaction fuzzing (§4.2).
//!
//! "We can think of the states of each IoT device model and the
//! environment as potential input variables for fuzzing. Then, we run
//! multiple fuzz tests to explore the space of possible behaviors."
//!
//! The fuzzer drives a set of [`AbstractModel`]s against a symbolic
//! environment: each trial picks a device and injects one of its action
//! inputs; the transition's environment writes are applied; any other
//! device with an `EnvBecomes` transition on a written value reacts —
//! and that pair `(actor → reactor via var=value)` is a discovered
//! **cross-device interaction edge**. Random and coverage-guided
//! strategies are provided; E5 compares their discovery curves against
//! the statically-known ground truth.

use iotdev::env::EnvVar;
use iotdev::model::{AbstractInput, AbstractModel};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;
use std::collections::{BTreeSet, HashMap};

/// A discovered interaction: actuating `actor` can flip `var` to
/// `value`, which triggers `reactor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct InteractionEdge {
    /// Index of the acting device (into the model slice).
    pub actor: usize,
    /// Index of the reacting device.
    pub reactor: usize,
    /// The coupling variable.
    pub var: EnvVar,
    /// The coupling value.
    pub value: &'static str,
}

/// Fuzzing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Strategy {
    /// Uniformly random device + input each trial.
    Random,
    /// Prefer `(device, state, input)` triples not yet exercised.
    CoverageGuided,
}

/// Result of a fuzzing run.
#[derive(Debug, Clone, Serialize)]
pub struct FuzzResult {
    /// Edges discovered, in discovery order (deduplicated).
    pub edges: Vec<InteractionEdge>,
    /// Trials executed.
    pub trials: u64,
    /// Trial index at which each edge was first found (same order as
    /// `edges`) — the discovery curve for E5.
    pub found_at: Vec<u64>,
}

impl FuzzResult {
    /// Recall against a ground-truth edge set.
    pub fn recall(&self, truth: &BTreeSet<InteractionEdge>) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let found: BTreeSet<_> = self.edges.iter().copied().collect();
        found.intersection(truth).count() as f64 / truth.len() as f64
    }
}

/// All interaction edges derivable statically from the models: every
/// (actor transition write) × (reactor `EnvBecomes` trigger) on the same
/// `(var, value)`. This is the fuzzer's ground truth.
pub fn ground_truth(models: &[AbstractModel]) -> BTreeSet<InteractionEdge> {
    let mut edges = BTreeSet::new();
    for (ai, actor) in models.iter().enumerate() {
        for t in &actor.transitions {
            for (var, value) in &t.writes {
                for (ri, reactor) in models.iter().enumerate() {
                    if ri == ai {
                        continue;
                    }
                    let reacts = reactor
                        .transitions
                        .iter()
                        .any(|rt| rt.input == AbstractInput::EnvBecomes(*var, value));
                    if reacts {
                        edges.insert(InteractionEdge { actor: ai, reactor: ri, var: *var, value });
                    }
                }
            }
        }
    }
    edges
}

/// How many trials one "fuzz test" runs before the testbed resets to
/// its initial state. The paper proposes "multiple fuzz tests"; without
/// resets, edges whose reactor has already been triggered once become
/// unreachable (the sensor is stuck in its fired state).
const RESET_EVERY: u64 = 50;

/// Run the fuzzer for `trials` trials (reset every `RESET_EVERY`).
pub fn fuzz_interactions<R: Rng>(
    models: &[AbstractModel],
    trials: u64,
    strategy: Strategy,
    rng: &mut R,
) -> FuzzResult {
    let mut states: Vec<usize> = models.iter().map(|m| m.initial).collect();
    let mut env: HashMap<EnvVar, &'static str> = HashMap::new();
    let mut edges: Vec<InteractionEdge> = Vec::new();
    let mut found_at: Vec<u64> = Vec::new();
    let mut seen: BTreeSet<InteractionEdge> = BTreeSet::new();
    let mut exercised: BTreeSet<(usize, usize, usize)> = BTreeSet::new(); // (dev, state, transition idx)

    // Candidate action inputs per device: (device, transition index).
    let action_transitions = |m: &AbstractModel| -> Vec<usize> {
        m.transitions
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.input, AbstractInput::Action(_)))
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    };

    for trial in 0..trials {
        if trial > 0 && trial % RESET_EVERY == 0 {
            // New fuzz test: fresh testbed.
            states = models.iter().map(|m| m.initial).collect();
            env.clear();
        }
        // Pick an actor and one of its action transitions.
        let candidates: Vec<(usize, usize)> = models
            .iter()
            .enumerate()
            .flat_map(|(di, m)| action_transitions(m).into_iter().map(move |ti| (di, ti)))
            .collect();
        if candidates.is_empty() {
            break;
        }
        let pick = match strategy {
            Strategy::Random => *candidates.choose(rng).unwrap(),
            Strategy::CoverageGuided => {
                let fresh: Vec<(usize, usize)> = candidates
                    .iter()
                    .copied()
                    .filter(|(di, ti)| !exercised.contains(&(*di, states[*di], *ti)))
                    .collect();
                if fresh.is_empty() {
                    *candidates.choose(rng).unwrap()
                } else {
                    *fresh.choose(rng).unwrap()
                }
            }
        };
        let (di, ti) = pick;
        exercised.insert((di, states[di], ti));
        let t = &models[di].transitions[ti];
        // The input only fires from its source state; if we're elsewhere,
        // the trial is a miss (fuzzing wastes some trials — that is the
        // point of measuring the discovery curve).
        if t.from != states[di] {
            continue;
        }
        states[di] = t.to;
        // Apply environment writes and let reactors respond.
        for (var, value) in &t.writes {
            env.insert(*var, value);
            for (ri, reactor) in models.iter().enumerate() {
                if ri == di {
                    continue;
                }
                if let Some(rt) = reactor.step(states[ri], AbstractInput::EnvBecomes(*var, value)) {
                    states[ri] = rt.to;
                    let edge = InteractionEdge { actor: di, reactor: ri, var: *var, value };
                    if seen.insert(edge) {
                        edges.push(edge);
                        found_at.push(trial + 1);
                    }
                }
            }
        }
    }
    FuzzResult { edges, trials, found_at }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::classes::PlugLoad;
    use iotdev::device::DeviceClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn break_in_models() -> Vec<AbstractModel> {
        vec![
            AbstractModel::for_device(DeviceClass::SmartPlug, Some(PlugLoad::AirConditioner)),
            AbstractModel::for_device(DeviceClass::Thermostat, None),
            AbstractModel::for_device(DeviceClass::FireAlarm, None),
            AbstractModel::for_device(DeviceClass::WindowActuator, None),
        ]
    }

    #[test]
    fn ground_truth_contains_plug_to_thermostat() {
        let models = break_in_models();
        let truth = ground_truth(&models);
        // Cutting the AC plug (writes Temperature=high) triggers the
        // thermostat's EnvBecomes(Temperature, high) transition.
        assert!(truth.contains(&InteractionEdge {
            actor: 0,
            reactor: 1,
            var: EnvVar::Temperature,
            value: "high",
        }));
        // The fire alarm reads smoke; nobody here writes smoke.
        assert!(!truth.iter().any(|e| e.reactor == 2));
    }

    #[test]
    fn fuzzer_discovers_the_coupling() {
        let models = break_in_models();
        let truth = ground_truth(&models);
        let mut rng = StdRng::seed_from_u64(11);
        let result = fuzz_interactions(&models, 2000, Strategy::Random, &mut rng);
        assert!(result.recall(&truth) >= 1.0, "found {:?}", result.edges);
        // Every reported edge is in the ground truth (soundness).
        for e in &result.edges {
            assert!(truth.contains(e));
        }
    }

    #[test]
    fn discovery_order_is_recorded() {
        let models = break_in_models();
        let mut rng = StdRng::seed_from_u64(5);
        let result = fuzz_interactions(&models, 2000, Strategy::CoverageGuided, &mut rng);
        assert_eq!(result.edges.len(), result.found_at.len());
        for w in result.found_at.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn guided_beats_random_on_sparse_models() {
        // With many inert devices wasting trials, the guided strategy
        // must find at least as many edges within a tight trial budget
        // (averaged over seeds — both converge given enough trials).
        let mut models = break_in_models();
        for _ in 0..6 {
            models.push(AbstractModel::for_device(DeviceClass::SetTopBox, None));
            models.push(AbstractModel::for_device(DeviceClass::TrafficLight, None));
        }
        let truth = ground_truth(&models);
        let avg_recall = |strategy: Strategy| -> f64 {
            let mut acc = 0.0;
            const SEEDS: u64 = 10;
            for seed in 0..SEEDS {
                let mut rng = StdRng::seed_from_u64(seed);
                acc += fuzz_interactions(&models, 40, strategy, &mut rng).recall(&truth);
            }
            acc / SEEDS as f64
        };
        let random = avg_recall(Strategy::Random);
        let guided = avg_recall(Strategy::CoverageGuided);
        assert!(guided >= random, "guided {guided} vs random {random}");
        assert!(guided > 0.2, "guided should find something in 40 trials: {guided}");
    }

    #[test]
    fn deterministic_per_seed() {
        let models = break_in_models();
        let a = fuzz_interactions(&models, 500, Strategy::Random, &mut StdRng::seed_from_u64(1));
        let b = fuzz_interactions(&models, 500, Strategy::Random, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.found_at, b.found_at);
    }

    #[test]
    fn empty_truth_means_perfect_recall() {
        let models = vec![AbstractModel::for_device(DeviceClass::SetTopBox, None)];
        let truth = ground_truth(&models);
        assert!(truth.is_empty());
        let r = fuzz_interactions(&models, 10, Strategy::Random, &mut StdRng::seed_from_u64(1));
        assert_eq!(r.recall(&truth), 1.0);
    }
}
