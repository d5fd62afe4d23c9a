//! The IFTTT strawman: trigger–action recipes.
//!
//! §3.1 of the paper analyses IF-This-Then-That recipes ("If smoke
//! emergency, set lights to red color") as the incumbent IoT policy
//! abstraction and identifies its flaws: no security context, recipes
//! assumed independent (conflicts!), and tedious manual coverage. This
//! module implements the abstraction faithfully — a small language with
//! a text parser, plus a generator that reproduces the *Table 2 corpus*
//! (188 NEST-Protect, 227 Wemo-Insight and 63 Scout-Alarm recipes) so
//! the conflict-detection and compilation experiments have the same raw
//! material the paper surveyed.

use iotdev::device::{DeviceClass, DeviceId};
use iotdev::env::EnvVar;
use iotdev::proto::{ControlAction, EventKind};
use rand::seq::SliceRandom;
use rand::Rng;

/// What fires a recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// An environment variable reaches a value ("temperature is high").
    EnvEquals(EnvVar, &'static str),
    /// A device of a class emits an event ("Nest Protect detects smoke").
    Event(DeviceClass, EventKind),
}

impl Trigger {
    /// Whether two triggers can hold at the same time. Two values of the
    /// same environment variable are mutually exclusive; everything else
    /// can co-occur.
    pub(crate) fn can_cooccur(&self, other: &Trigger) -> bool {
        match (self, other) {
            (Trigger::EnvEquals(va, xa), Trigger::EnvEquals(vb, xb)) => va != vb || xa == xb,
            _ => true,
        }
    }
}

/// The THEN part: an actuation on a target device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecipeAction {
    /// Target device.
    pub target: DeviceId,
    /// Action to perform.
    pub action: ControlAction,
}

/// One recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// Corpus-unique id.
    pub id: u32,
    /// Trigger.
    pub trigger: Trigger,
    /// Action.
    pub action: RecipeAction,
}

impl Recipe {
    /// Render in the parseable text form.
    pub fn to_text(&self) -> String {
        let cond = match self.trigger {
            Trigger::EnvEquals(var, value) => format!("{}={}", env_var_name(var), value),
            Trigger::Event(class, event) => format!("{}.{}", class.name(), event_name(event)),
        };
        format!("IF {cond} THEN dev{} {}", self.action.target.0, action_text(self.action.action))
    }

    /// Whether two recipes contradict: their triggers can co-occur and
    /// their actions on the same target are opposed. This is exactly the
    /// paper's smoke-alarm vs Sighthound ambiguity.
    pub(crate) fn contradicts(&self, other: &Recipe) -> bool {
        self.action.target == other.action.target
            && self.trigger.can_cooccur(&other.trigger)
            && actions_opposed(self.action.action, other.action.action)
    }
}

/// Whether two actions on the same device are mutually exclusive.
pub(crate) fn actions_opposed(a: ControlAction, b: ControlAction) -> bool {
    use ControlAction::*;
    matches!(
        (a, b),
        (TurnOn, TurnOff)
            | (TurnOff, TurnOn)
            | (Open, Close)
            | (Close, Open)
            | (Lock, Unlock)
            | (Unlock, Lock)
    ) || (matches!((a, b), (SetColor(_), SetColor(_))) && a != b)
        || (matches!((a, b), (SetPhase(_), SetPhase(_))) && a != b)
        || (matches!((a, b), (SetTarget(_), SetTarget(_))) && a != b)
}

fn env_var_name(var: EnvVar) -> &'static str {
    match var {
        EnvVar::Temperature => "temperature",
        EnvVar::Smoke => "smoke",
        EnvVar::Light => "light",
        EnvVar::Occupancy => "occupancy",
        EnvVar::Window => "window",
        EnvVar::Door => "door",
        EnvVar::PowerDraw => "power",
    }
}

fn env_var_from_name(name: &str) -> Option<EnvVar> {
    Some(match name {
        "temperature" => EnvVar::Temperature,
        "smoke" => EnvVar::Smoke,
        "light" => EnvVar::Light,
        "occupancy" => EnvVar::Occupancy,
        "window" => EnvVar::Window,
        "door" => EnvVar::Door,
        "power" => EnvVar::PowerDraw,
        _ => return None,
    })
}

fn event_name(e: EventKind) -> &'static str {
    match e {
        EventKind::SmokeAlarm => "smoke-alarm",
        EventKind::SmokeClear => "smoke-clear",
        EventKind::MotionStart => "motion-start",
        EventKind::MotionStop => "motion-stop",
        EventKind::DoorOpened => "door-opened",
        EventKind::TamperSuspected => "tamper",
    }
}

fn event_from_name(name: &str) -> Option<EventKind> {
    Some(match name {
        "smoke-alarm" => EventKind::SmokeAlarm,
        "smoke-clear" => EventKind::SmokeClear,
        "motion-start" => EventKind::MotionStart,
        "motion-stop" => EventKind::MotionStop,
        "door-opened" => EventKind::DoorOpened,
        "tamper" => EventKind::TamperSuspected,
        _ => return None,
    })
}

fn class_from_name(name: &str) -> Option<DeviceClass> {
    DeviceClass::ALL.into_iter().find(|c| c.name() == name)
}

fn action_text(a: ControlAction) -> String {
    use ControlAction::*;
    match a {
        TurnOn => "on".into(),
        TurnOff => "off".into(),
        Open => "open".into(),
        Close => "close".into(),
        Lock => "lock".into(),
        Unlock => "unlock".into(),
        SetTarget(v) => format!("set-target {v}"),
        SetColor(c) => format!("set-color {c}"),
        SetPhase(p) => format!("set-phase {p}"),
    }
}

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Input does not follow `IF <cond> THEN <dev> <action>`.
    Shape,
    /// The condition is not a known env test or class event.
    Condition(String),
    /// The target is not `dev<N>`.
    Target(String),
    /// The action verb is unknown or malformed.
    Action(String),
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::Shape => write!(f, "expected 'IF <cond> THEN <dev> <action>'"),
            ParseError::Condition(c) => write!(f, "bad condition '{c}'"),
            ParseError::Target(t) => write!(f, "bad target '{t}'"),
            ParseError::Action(a) => write!(f, "bad action '{a}'"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse the text form produced by [`Recipe::to_text`]:
/// `IF smoke=yes THEN dev3 open` or
/// `IF fire-alarm.smoke-alarm THEN dev2 set-color 1`.
pub fn parse(id: u32, text: &str) -> Result<Recipe, ParseError> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    if tokens.len() < 4
        || !tokens[0].eq_ignore_ascii_case("if")
        || !tokens[2].eq_ignore_ascii_case("then")
    {
        return Err(ParseError::Shape);
    }
    let cond = tokens[1];
    let trigger = if let Some((var, value)) = cond.split_once('=') {
        let var = env_var_from_name(var).ok_or_else(|| ParseError::Condition(cond.into()))?;
        let value = var
            .domain()
            .iter()
            .find(|v| **v == value)
            .copied()
            .ok_or_else(|| ParseError::Condition(cond.into()))?;
        Trigger::EnvEquals(var, value)
    } else if let Some((class, event)) = cond.split_once('.') {
        let class = class_from_name(class).ok_or_else(|| ParseError::Condition(cond.into()))?;
        let event = event_from_name(event).ok_or_else(|| ParseError::Condition(cond.into()))?;
        Trigger::Event(class, event)
    } else {
        return Err(ParseError::Condition(cond.into()));
    };
    let target = tokens[3]
        .strip_prefix("dev")
        .and_then(|n| n.parse::<u32>().ok())
        .map(DeviceId)
        .ok_or_else(|| ParseError::Target(tokens[3].into()))?;
    let action = match (tokens.get(4).copied(), tokens.get(5)) {
        (Some("on"), _) => ControlAction::TurnOn,
        (Some("off"), _) => ControlAction::TurnOff,
        (Some("open"), _) => ControlAction::Open,
        (Some("close"), _) => ControlAction::Close,
        (Some("lock"), _) => ControlAction::Lock,
        (Some("unlock"), _) => ControlAction::Unlock,
        (Some("set-target"), Some(v)) => {
            ControlAction::SetTarget(v.parse().map_err(|_| ParseError::Action(text.into()))?)
        }
        (Some("set-color"), Some(v)) => {
            ControlAction::SetColor(v.parse().map_err(|_| ParseError::Action(text.into()))?)
        }
        (Some("set-phase"), Some(v)) => {
            ControlAction::SetPhase(v.parse().map_err(|_| ParseError::Action(text.into()))?)
        }
        (Some(other), _) => return Err(ParseError::Action(other.into())),
        (None, _) => return Err(ParseError::Shape),
    };
    Ok(Recipe { id, trigger, action: RecipeAction { target, action } })
}

/// A pool of actuation targets for corpus generation.
#[derive(Debug, Clone)]
pub struct TargetPool {
    /// `(device, class)` pairs recipes may actuate.
    pub targets: Vec<(DeviceId, DeviceClass)>,
}

impl TargetPool {
    fn actions_for(class: DeviceClass) -> Vec<ControlAction> {
        use ControlAction::*;
        match class {
            DeviceClass::LightBulb => vec![TurnOn, TurnOff, SetColor(1), SetColor(2)],
            DeviceClass::SmartPlug
            | DeviceClass::Oven
            | DeviceClass::Camera
            | DeviceClass::SetTopBox => {
                vec![TurnOn, TurnOff]
            }
            DeviceClass::WindowActuator => vec![Open, Close],
            DeviceClass::SmartLock => vec![Lock, Unlock],
            DeviceClass::Thermostat => vec![SetTarget(180), SetTarget(240)],
            DeviceClass::TrafficLight => vec![SetPhase(0), SetPhase(2)],
            _ => vec![],
        }
    }
}

/// The three Table 2 anchor devices and their recipe counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table2Anchor {
    /// NEST Protect — 188 cross-device recipes.
    NestProtect,
    /// Wemo Insight — 227 cross-device recipes.
    WemoInsight,
    /// Scout Alarm — 63 cross-device recipes.
    ScoutAlarm,
}

impl Table2Anchor {
    /// The count the paper reports.
    pub fn paper_count(self) -> usize {
        match self {
            Table2Anchor::NestProtect => 188,
            Table2Anchor::WemoInsight => 227,
            Table2Anchor::ScoutAlarm => 63,
        }
    }

    /// Triggers characteristic of the anchor device.
    fn triggers(self) -> Vec<Trigger> {
        match self {
            Table2Anchor::NestProtect => vec![
                Trigger::Event(DeviceClass::FireAlarm, EventKind::SmokeAlarm),
                Trigger::Event(DeviceClass::FireAlarm, EventKind::SmokeClear),
                Trigger::EnvEquals(EnvVar::Smoke, "yes"),
            ],
            Table2Anchor::WemoInsight => vec![
                Trigger::EnvEquals(EnvVar::Occupancy, "absent"),
                Trigger::EnvEquals(EnvVar::Occupancy, "present"),
                Trigger::EnvEquals(EnvVar::PowerDraw, "high"),
                Trigger::Event(DeviceClass::MotionSensor, EventKind::MotionStop),
            ],
            Table2Anchor::ScoutAlarm => vec![
                Trigger::Event(DeviceClass::MotionSensor, EventKind::MotionStart),
                Trigger::Event(DeviceClass::SmartLock, EventKind::DoorOpened),
                Trigger::Event(DeviceClass::FireAlarm, EventKind::TamperSuspected),
            ],
        }
    }

    /// The anchor's *canonical* action for a target class — real IFTTT
    /// users wire an anchor to a target with a consistent intent ("smoke
    /// → lights ON", "away → plug OFF"), which keeps real corpora mostly
    /// contradiction-free. A small fraction of recipes deviate (users do
    /// write sloppy rules; those are the conflicts §3.1 worries about).
    fn canonical_action(self, class: DeviceClass) -> Option<ControlAction> {
        use ControlAction::*;
        Some(match (self, class) {
            // Emergency anchor: make things visible and escapable.
            (Table2Anchor::NestProtect, DeviceClass::LightBulb) => SetColor(1),
            (Table2Anchor::NestProtect, DeviceClass::WindowActuator) => Open,
            (Table2Anchor::NestProtect, DeviceClass::SmartLock) => Unlock,
            (Table2Anchor::NestProtect, DeviceClass::SmartPlug | DeviceClass::Oven) => TurnOff,
            (Table2Anchor::NestProtect, DeviceClass::Camera) => TurnOn,
            // Energy anchor: shed load, dial back.
            (Table2Anchor::WemoInsight, DeviceClass::LightBulb) => TurnOff,
            (Table2Anchor::WemoInsight, DeviceClass::SmartPlug | DeviceClass::Oven) => TurnOff,
            (Table2Anchor::WemoInsight, DeviceClass::Thermostat) => SetTarget(240),
            (Table2Anchor::WemoInsight, DeviceClass::WindowActuator) => Close,
            (Table2Anchor::WemoInsight, DeviceClass::Camera) => TurnOn,
            // Security anchor: lock down and record.
            (Table2Anchor::ScoutAlarm, DeviceClass::Camera) => TurnOn,
            (Table2Anchor::ScoutAlarm, DeviceClass::SmartLock) => Lock,
            (Table2Anchor::ScoutAlarm, DeviceClass::LightBulb) => TurnOn,
            (Table2Anchor::ScoutAlarm, DeviceClass::WindowActuator) => Close,
            (Table2Anchor::ScoutAlarm, DeviceClass::SmartPlug | DeviceClass::Oven) => TurnOff,
            _ => return None,
        })
    }

    /// Generate this anchor's corpus at the paper's size. ~95 % of
    /// recipes follow the anchor's canonical intent per target; the rest
    /// pick freely (the sloppy tail where contradictions live).
    pub(crate) fn corpus<R: Rng>(
        self,
        pool: &TargetPool,
        rng: &mut R,
        first_id: u32,
    ) -> Vec<Recipe> {
        let triggers = self.triggers();
        let mut recipes = Vec::with_capacity(self.paper_count());
        let actionable: Vec<(DeviceId, DeviceClass)> = pool
            .targets
            .iter()
            .copied()
            .filter(|(_, c)| !TargetPool::actions_for(*c).is_empty())
            .collect();
        assert!(!actionable.is_empty(), "target pool has no actuatable devices");
        let mut id = first_id;
        while recipes.len() < self.paper_count() {
            let trigger = *triggers.choose(rng).unwrap();
            let (target, class) = *actionable.choose(rng).unwrap();
            let action = match self.canonical_action(class) {
                Some(canon) if rng.gen_bool(0.95) => canon,
                _ => *TargetPool::actions_for(class).choose(rng).unwrap(),
            };
            recipes.push(Recipe { id, trigger, action: RecipeAction { target, action } });
            id += 1;
        }
        recipes
    }
}

/// Generate the full Table 2 corpus (188 + 227 + 63 = 478 recipes) over
/// a shared target pool.
pub fn table2_corpus<R: Rng>(pool: &TargetPool, rng: &mut R) -> Vec<(Table2Anchor, Vec<Recipe>)> {
    let mut out = Vec::new();
    let mut next_id = 0;
    for anchor in [Table2Anchor::NestProtect, Table2Anchor::WemoInsight, Table2Anchor::ScoutAlarm] {
        let corpus = anchor.corpus(pool, rng, next_id);
        next_id += corpus.len() as u32;
        out.push((anchor, corpus));
    }
    out
}

/// A reasonable target pool for corpus generation: one of each
/// actuatable class.
pub fn default_target_pool() -> TargetPool {
    TargetPool {
        targets: vec![
            (DeviceId(10), DeviceClass::LightBulb),
            (DeviceId(11), DeviceClass::SmartPlug),
            (DeviceId(12), DeviceClass::WindowActuator),
            (DeviceId(13), DeviceClass::SmartLock),
            (DeviceId(14), DeviceClass::Thermostat),
            (DeviceId(15), DeviceClass::Camera),
            (DeviceId(16), DeviceClass::Oven),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn text_round_trip() {
        let cases = [
            Recipe {
                id: 0,
                trigger: Trigger::EnvEquals(EnvVar::Smoke, "yes"),
                action: RecipeAction { target: DeviceId(3), action: ControlAction::SetColor(1) },
            },
            Recipe {
                id: 1,
                trigger: Trigger::Event(DeviceClass::FireAlarm, EventKind::SmokeAlarm),
                action: RecipeAction { target: DeviceId(2), action: ControlAction::Open },
            },
            Recipe {
                id: 2,
                trigger: Trigger::EnvEquals(EnvVar::Occupancy, "absent"),
                action: RecipeAction { target: DeviceId(11), action: ControlAction::TurnOff },
            },
        ];
        for r in cases {
            let text = r.to_text();
            let parsed = parse(r.id, &text).unwrap();
            assert_eq!(parsed, r, "text: {text}");
        }
    }

    #[test]
    fn paper_examples_parse() {
        // "If Nest Protect detects smoke, then turn Philips hue lights on."
        let r = parse(0, "IF fire-alarm.smoke-alarm THEN dev10 on").unwrap();
        assert_eq!(r.trigger, Trigger::Event(DeviceClass::FireAlarm, EventKind::SmokeAlarm));
        // "Turn off WeMo Insight if SmartThings shows no body is at home."
        let r = parse(1, "IF occupancy=absent THEN dev11 off").unwrap();
        assert_eq!(r.trigger, Trigger::EnvEquals(EnvVar::Occupancy, "absent"));
        assert_eq!(r.action.action, ControlAction::TurnOff);
        // "Activate your Manythings Camera if Alarm is Triggered."
        let r = parse(2, "IF motion-sensor.motion-start THEN dev15 on").unwrap();
        assert_eq!(r.action.action, ControlAction::TurnOn);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse(0, "WHEN x THEN y z"), Err(ParseError::Shape));
        assert!(matches!(parse(0, "IF bogus=yes THEN dev1 on"), Err(ParseError::Condition(_))));
        assert!(matches!(parse(0, "IF smoke=maybe THEN dev1 on"), Err(ParseError::Condition(_))));
        assert!(matches!(parse(0, "IF smoke=yes THEN camera on"), Err(ParseError::Target(_))));
        assert!(matches!(parse(0, "IF smoke=yes THEN dev1 explode"), Err(ParseError::Action(_))));
        assert!(matches!(
            parse(0, "IF smoke=yes THEN dev1 set-color x"),
            Err(ParseError::Action(_))
        ));
    }

    #[test]
    fn table2_counts_match_paper() {
        let pool = default_target_pool();
        let mut rng = StdRng::seed_from_u64(7);
        let corpus = table2_corpus(&pool, &mut rng);
        assert_eq!(corpus.len(), 3);
        for (anchor, recipes) in &corpus {
            assert_eq!(recipes.len(), anchor.paper_count());
        }
        let total: usize = corpus.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, 478);
        // Recipe ids are corpus-unique.
        let mut ids: Vec<u32> = corpus.iter().flat_map(|(_, r)| r.iter().map(|x| x.id)).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 478);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let pool = default_target_pool();
        let a = table2_corpus(&pool, &mut StdRng::seed_from_u64(9));
        let b = table2_corpus(&pool, &mut StdRng::seed_from_u64(9));
        let c = table2_corpus(&pool, &mut StdRng::seed_from_u64(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn contradiction_semantics() {
        let on = Recipe {
            id: 0,
            trigger: Trigger::EnvEquals(EnvVar::Smoke, "yes"),
            action: RecipeAction { target: DeviceId(1), action: ControlAction::TurnOn },
        };
        let off_same_state = Recipe {
            id: 1,
            trigger: Trigger::Event(DeviceClass::Camera, EventKind::MotionStart),
            action: RecipeAction { target: DeviceId(1), action: ControlAction::TurnOff },
        };
        let off_disjoint = Recipe {
            id: 2,
            trigger: Trigger::EnvEquals(EnvVar::Smoke, "no"),
            action: RecipeAction { target: DeviceId(1), action: ControlAction::TurnOff },
        };
        let off_other_dev = Recipe {
            id: 3,
            trigger: Trigger::Event(DeviceClass::Camera, EventKind::MotionStart),
            action: RecipeAction { target: DeviceId(2), action: ControlAction::TurnOff },
        };
        assert!(on.contradicts(&off_same_state)); // the paper's ambiguity case
        assert!(!on.contradicts(&off_disjoint)); // smoke=yes and smoke=no are exclusive
        assert!(!on.contradicts(&off_other_dev));
        assert!(!on.contradicts(&on));
    }

    #[test]
    fn opposed_actions_table() {
        use ControlAction::*;
        assert!(actions_opposed(Open, Close));
        assert!(actions_opposed(Lock, Unlock));
        assert!(actions_opposed(SetColor(1), SetColor(2)));
        assert!(!actions_opposed(SetColor(1), SetColor(1)));
        assert!(!actions_opposed(TurnOn, Open));
        assert!(actions_opposed(SetTarget(180), SetTarget(350)));
    }
}
