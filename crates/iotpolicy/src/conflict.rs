//! Conflict and ambiguity detection.
//!
//! The paper's §3.1 critique of IFTTT: "they assume recipes are
//! independent, which can either lead to conflicts or safety violations
//! ... both the smoke alarm and the Sighthound rules could be active
//! simultaneously leading to ambiguity." This module finds exactly those
//! cases, both at the recipe level (contradictory actions reachable in
//! one state) and at the compiled-policy level (equal-priority rules
//! assigning contradictory postures).

use crate::policy::FsmPolicy;
use crate::recipe::Recipe;
use iotdev::device::DeviceId;
use rand::seq::SliceRandom;
use rand::Rng;

/// The kind of conflict found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Two recipes whose triggers can co-occur command opposed actions on
    /// the same device.
    ContradictoryRecipes,
    /// Two equal-priority policy rules with overlapping patterns assign
    /// contradictory postures (allow vs block-all) to the same device.
    ContradictoryRules,
}

/// One detected conflict.
#[derive(Debug, Clone, PartialEq)]
pub struct Conflict {
    /// First participant (recipe id or rule index).
    pub a: u32,
    /// Second participant.
    pub b: u32,
    /// Kind.
    pub kind: ConflictKind,
    /// Human-readable explanation.
    pub description: String,
}

/// Find all pairwise recipe contradictions.
pub fn find_recipe_conflicts(recipes: &[Recipe]) -> Vec<Conflict> {
    let mut out = Vec::new();
    for (i, a) in recipes.iter().enumerate() {
        for b in &recipes[i + 1..] {
            if a.contradicts(b) {
                out.push(Conflict {
                    a: a.id,
                    b: b.id,
                    kind: ConflictKind::ContradictoryRecipes,
                    description: format!(
                        "'{}' and '{}' can fire together with opposed actions",
                        a.to_text(),
                        b.to_text()
                    ),
                });
            }
        }
    }
    out
}

/// Find equal-priority rule contradictions in a compiled policy.
pub(crate) fn find_rule_conflicts(policy: &FsmPolicy) -> Vec<Conflict> {
    let mut out = Vec::new();
    for (i, ra) in policy.rules.iter().enumerate() {
        for (j, rb) in policy.rules.iter().enumerate().skip(i + 1) {
            if ra.priority != rb.priority || !ra.pattern.overlaps(&rb.pattern) {
                continue;
            }
            for (dev, pa) in &ra.postures {
                if let Some(pb) = rb.postures.get(dev) {
                    if pa.contradicts(pb) {
                        out.push(Conflict {
                            a: i as u32,
                            b: j as u32,
                            kind: ConflictKind::ContradictoryRules,
                            description: format!(
                                "rules '{}' and '{}' contradict on {dev} at equal priority",
                                ra.origin, rb.origin
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Equal-priority rule pairs assigning contradictory postures to a
/// shared device — conflict candidates whose reachability is still
/// unchecked. `(i, j, device)` triples in `(i, j, device)` order, the
/// emission order of every reachable-conflict engine.
fn contradiction_candidates(policy: &FsmPolicy) -> Vec<(usize, usize, DeviceId)> {
    let mut out = Vec::new();
    for (i, ra) in policy.rules.iter().enumerate() {
        for (j, rb) in policy.rules.iter().enumerate().skip(i + 1) {
            if ra.priority != rb.priority {
                continue;
            }
            for (dev, pa) in &ra.postures {
                if let Some(pb) = rb.postures.get(dev) {
                    if pa.contradicts(pb) {
                        out.push((i, j, *dev));
                    }
                }
            }
        }
    }
    out
}

fn reachable_conflict(policy: &FsmPolicy, i: usize, j: usize, dev: DeviceId) -> Conflict {
    Conflict {
        a: i as u32,
        b: j as u32,
        kind: ConflictKind::ContradictoryRules,
        description: format!(
            "rules '{}' and '{}' contradict on {dev} in a reachable state",
            policy.rules[i].origin, policy.rules[j].origin
        ),
    }
}

/// Find equal-priority rule contradictions whose patterns co-activate in
/// some *actual* state of the schema's product space.
///
/// `find_rule_conflicts` uses `StatePattern::overlaps`,
/// which over-approximates: two patterns that agree on their shared pins
/// "overlap" even when one of them pins a context outside the device's
/// domain and can never fire. This function decides co-activation
/// exactly. On packable schemas that decision is analytic on the
/// compiled masks (`PackedPattern::overlaps`): both
/// patterns feasible and agreeing wherever their masks intersect —
/// equivalent to a full state scan because patterns are conjunctions of
/// slot pins over a product space. Unpackable schemas fall back to the
/// over-approximation (and keep its description text via
/// `find_rule_conflicts`).
pub fn find_reachable_rule_conflicts(policy: &FsmPolicy) -> Vec<Conflict> {
    let Some(layout) = crate::packed::PackedLayout::of(&policy.schema) else {
        return find_rule_conflicts(policy);
    };
    let packed: Vec<crate::packed::PackedPattern> = policy
        .rules
        .iter()
        .map(|r| crate::packed::PackedPattern::compile(&layout, &policy.schema, &r.pattern))
        .collect();
    contradiction_candidates(policy)
        .into_iter()
        .filter(|(i, j, _)| packed[*i].overlaps(&packed[*j]))
        .map(|(i, j, dev)| reachable_conflict(policy, i, j, dev))
        .collect()
}

/// The reference for [`find_reachable_rule_conflicts`]: decide each
/// candidate's co-activation by scanning the state space for a witness
/// (early exit on the first). `None` when the space exceeds `limit`
/// states. Differentially tested equal to the packed engine.
pub fn find_reachable_rule_conflicts_naive(
    policy: &FsmPolicy,
    limit: u128,
) -> Option<Vec<Conflict>> {
    if policy.schema.size() > limit {
        return None;
    }
    Some(
        contradiction_candidates(policy)
            .into_iter()
            .filter(|(i, j, _)| {
                let (pa, pb) = (&policy.rules[*i].pattern, &policy.rules[*j].pattern);
                policy
                    .schema
                    .iter_states()
                    .any(|s| pa.matches(&policy.schema, &s) && pb.matches(&policy.schema, &s))
            })
            .map(|(i, j, dev)| reachable_conflict(policy, i, j, dev))
            .collect(),
    )
}

/// Plant `n` known contradictions into a recipe corpus (ground truth for
/// the detection-accuracy experiment E2). Returns the planted `(a, b)`
/// id pairs.
#[allow(clippy::explicit_counter_loop)] // the zipped-range form reads worse
pub fn plant_conflicts<R: Rng>(
    recipes: &mut Vec<Recipe>,
    n: usize,
    rng: &mut R,
) -> Vec<(u32, u32)> {
    use iotdev::proto::ControlAction::*;
    let mut planted = Vec::with_capacity(n);
    let mut next_id = recipes.iter().map(|r| r.id).max().map_or(0, |m| m + 1);
    let flippable: Vec<Recipe> = recipes
        .iter()
        .filter(|r| matches!(r.action.action, TurnOn | TurnOff | Open | Close | Lock | Unlock))
        .cloned()
        .collect();
    for _ in 0..n {
        let Some(base) = flippable.choose(rng) else { break };
        let flipped_action = match base.action.action {
            TurnOn => TurnOff,
            TurnOff => TurnOn,
            Open => Close,
            Close => Open,
            Lock => Unlock,
            Unlock => Lock,
            other => other,
        };
        let mut evil = base.clone();
        evil.id = next_id;
        next_id += 1;
        evil.action.action = flipped_action;
        planted.push((base.id, evil.id));
        recipes.push(evil);
    }
    planted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyRule, StatePattern};
    use crate::posture::Posture;
    use crate::recipe::{RecipeAction, Trigger};
    use crate::state_space::StateSchema;
    use iotdev::device::{DeviceClass, DeviceId};
    use iotdev::env::EnvVar;
    use iotdev::proto::{ControlAction, EventKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn recipe(id: u32, trigger: Trigger, target: u32, action: ControlAction) -> Recipe {
        Recipe { id, trigger, action: RecipeAction { target: DeviceId(target), action } }
    }

    #[test]
    fn paper_ambiguity_case_detected() {
        // "If smoke emergency, set lights to red" vs "If Sighthound
        // detects a person when I'm away, set light to red" — here we use
        // the contradictory variant: smoke wants lights ON, the away-rule
        // wants them OFF.
        let recipes = vec![
            recipe(0, Trigger::EnvEquals(EnvVar::Smoke, "yes"), 5, ControlAction::TurnOn),
            recipe(
                1,
                Trigger::Event(DeviceClass::Camera, EventKind::MotionStart),
                5,
                ControlAction::TurnOff,
            ),
        ];
        let conflicts = find_recipe_conflicts(&recipes);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].kind, ConflictKind::ContradictoryRecipes);
        assert_eq!((conflicts[0].a, conflicts[0].b), (0, 1));
    }

    #[test]
    fn exclusive_triggers_do_not_conflict() {
        let recipes = vec![
            recipe(0, Trigger::EnvEquals(EnvVar::Occupancy, "present"), 5, ControlAction::TurnOn),
            recipe(1, Trigger::EnvEquals(EnvVar::Occupancy, "absent"), 5, ControlAction::TurnOff),
        ];
        assert!(find_recipe_conflicts(&recipes).is_empty());
    }

    #[test]
    fn planting_creates_exactly_detectable_conflicts() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut recipes = vec![
            recipe(0, Trigger::EnvEquals(EnvVar::Smoke, "yes"), 1, ControlAction::Open),
            recipe(1, Trigger::EnvEquals(EnvVar::Light, "dark"), 2, ControlAction::TurnOn),
        ];
        let planted = plant_conflicts(&mut recipes, 2, &mut rng);
        assert_eq!(planted.len(), 2);
        assert_eq!(recipes.len(), 4);
        let found = find_recipe_conflicts(&recipes);
        // Every planted pair must be found.
        for (a, b) in &planted {
            assert!(
                found.iter().any(|c| (c.a == *a && c.b == *b) || (c.a == *b && c.b == *a)),
                "planted ({a},{b}) not detected"
            );
        }
    }

    #[test]
    fn rule_conflicts_need_equal_priority_and_overlap() {
        let mut schema = StateSchema::new();
        schema.add_device(DeviceId(0), DeviceClass::Camera).add_env(EnvVar::Smoke);
        let mut policy = FsmPolicy::new(schema);
        policy.add_rule(
            PolicyRule::new(10, StatePattern::any(), DeviceId(0), Posture::allow())
                .with_origin("allow-all"),
        );
        policy.add_rule(
            PolicyRule::new(
                10,
                StatePattern::any().env(EnvVar::Smoke, "yes"),
                DeviceId(0),
                Posture::quarantine(),
            )
            .with_origin("quarantine-on-smoke"),
        );
        let conflicts = find_rule_conflicts(&policy);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].kind, ConflictKind::ContradictoryRules);

        // Different priorities: resolved, not a conflict.
        policy.rules[1].priority = 20;
        assert!(find_rule_conflicts(&policy).is_empty());
    }

    #[test]
    fn reachable_conflicts_match_witness_search() {
        use crate::context::SecurityContext;
        let mut schema = StateSchema::new();
        schema
            .add_device(DeviceId(0), DeviceClass::Camera)
            .add_device(DeviceId(1), DeviceClass::SmartPlug)
            .add_env(EnvVar::Smoke);
        let mut policy = FsmPolicy::new(schema);
        policy.add_rule(
            PolicyRule::new(10, StatePattern::any(), DeviceId(0), Posture::allow())
                .with_origin("allow-all"),
        );
        policy.add_rule(
            PolicyRule::new(
                10,
                StatePattern::any().env(EnvVar::Smoke, "yes"),
                DeviceId(0),
                Posture::quarantine(),
            )
            .with_origin("quarantine-on-smoke"),
        );
        // Contradiction whose second pattern pins a context outside the
        // camera's two-valued domain: overlaps() over-approximates it as
        // a conflict, but no state makes it fire.
        policy.add_rule(
            PolicyRule::new(10, StatePattern::any(), DeviceId(1), Posture::allow())
                .with_origin("plug-allow"),
        );
        policy.add_rule(
            PolicyRule::new(
                10,
                StatePattern::any().context(DeviceId(1), SecurityContext::Compromised),
                DeviceId(1),
                Posture::quarantine(),
            )
            .with_origin("plug-quarantine-unreachable"),
        );
        let legacy = find_rule_conflicts(&policy);
        let packed = find_reachable_rule_conflicts(&policy);
        let naive = find_reachable_rule_conflicts_naive(&policy, 1 << 16).unwrap();
        assert_eq!(packed, naive);
        assert_eq!(packed.len(), 1, "only the smoke contradiction is reachable");
        assert_eq!((packed[0].a, packed[0].b), (0, 1));
        assert_eq!(legacy.len(), 2, "the legacy over-approximation keeps both");
        assert!(find_reachable_rule_conflicts_naive(&policy, 2).is_none());
    }

    #[test]
    fn disjoint_patterns_do_not_conflict() {
        let mut schema = StateSchema::new();
        schema.add_device(DeviceId(0), DeviceClass::Camera).add_env(EnvVar::Smoke);
        let mut policy = FsmPolicy::new(schema);
        policy.add_rule(PolicyRule::new(
            10,
            StatePattern::any().env(EnvVar::Smoke, "yes"),
            DeviceId(0),
            Posture::quarantine(),
        ));
        policy.add_rule(PolicyRule::new(
            10,
            StatePattern::any().env(EnvVar::Smoke, "no"),
            DeviceId(0),
            Posture::allow(),
        ));
        assert!(find_rule_conflicts(&policy).is_empty());
    }
}
