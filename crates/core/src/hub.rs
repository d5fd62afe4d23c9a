//! The automation hub: the IFTTT bridge of the paper's deployments.
//!
//! The hub is a LAN endpoint that (a) receives device events and
//! telemetry, (b) executes the recipe corpus — "If Nest Protect detects
//! smoke, turn the lights on" — by sending authenticated control
//! messages, and (c) is the sensor channel through which the controller
//! learns the environment. It is also, as the paper's break-in example
//! shows, an attack amplifier: recipes fire on environment conditions
//! regardless of *why* the environment changed.

use iotdev::device::{AdminCreds, DeviceClass, DeviceId, OutMessage};
use iotdev::env::DiscreteEnv;
use iotdev::proto::{ports, AppMessage, ControlAuth, EventKind};
use iotnet::addr::Ipv4Addr;
use iotnet::hash::WordMap;
use iotpolicy::recipe::{Recipe, Trigger};

/// The hub.
#[derive(Debug)]
pub struct Hub {
    /// The hub's own address (devices report here; devices treat it as
    /// their owner).
    pub ip: Ipv4Addr,
    recipes: Vec<Recipe>,
    /// Device directory: id → (ip, class).
    pub directory: WordMap<DeviceId, (Ipv4Addr, DeviceClass)>,
    ip_to_class: WordMap<Ipv4Addr, DeviceClass>,
    creds: AdminCreds,
    prev_env: Option<DiscreteEnv>,
    /// Recipes fired so far.
    pub fired: u64,
}

impl Hub {
    /// A hub at `ip` holding the owner credentials used for actuation —
    /// its identity, together with what [`Hub::register`] and
    /// [`Hub::add_recipe`] then configure; what it has seen and done is
    /// written by [`Hub::reset_runtime`].
    pub fn new(ip: Ipv4Addr, creds: AdminCreds) -> Hub {
        let mut hub = Hub {
            ip,
            recipes: Vec::new(),
            directory: WordMap::default(),
            ip_to_class: WordMap::default(),
            creds,
            prev_env: None,
            fired: 0,
        };
        hub.reset_runtime();
        hub
    }

    /// Bring the hub to its t = 0 state (environment edge-detector,
    /// fired counter), keeping the registered recipes, directory and
    /// credentials. The constructor ends here, so the hub a resident
    /// world (E26) reuses across rounds is a cold-built one.
    pub fn reset_runtime(&mut self) {
        self.prev_env = None;
        self.fired = 0;
    }

    /// Register a device in the directory.
    pub fn register(&mut self, id: DeviceId, ip: Ipv4Addr, class: DeviceClass) {
        self.directory.insert(id, (ip, class));
        self.ip_to_class.insert(ip, class);
    }

    /// Install a recipe.
    pub fn add_recipe(&mut self, recipe: Recipe) {
        self.recipes.push(recipe);
    }

    fn actuate(&mut self, recipe_idx: usize) -> Option<OutMessage> {
        let recipe = &self.recipes[recipe_idx];
        let (target_ip, _) = *self.directory.get(&recipe.action.target)?;
        self.fired += 1;
        Some(OutMessage {
            dst: target_ip,
            dst_port: ports::CONTROL,
            src_port: ports::CONTROL,
            msg: AppMessage::Control {
                action: recipe.action.action,
                auth: ControlAuth::Password {
                    user: self.creds.user.clone().into(),
                    pass: self.creds.pass.clone().into(),
                },
            },
        })
    }

    /// Feed a device event (arrived on the telemetry plane); returns the
    /// actuations any event-triggered recipes produce.
    pub(crate) fn on_event(&mut self, from: Ipv4Addr, event: EventKind) -> Vec<OutMessage> {
        let Some(&class) = self.ip_to_class.get(&from) else { return Vec::new() };
        let hits: Vec<usize> = self
            .recipes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.trigger == Trigger::Event(class, event))
            .map(|(i, _)| i)
            .collect();
        hits.into_iter().filter_map(|i| self.actuate(i)).collect()
    }

    /// Feed the per-tick environment snapshot; env-triggered recipes fire
    /// on *edges* (a value becoming the trigger value), exactly like
    /// IFTTT.
    pub fn on_env(&mut self, env: DiscreteEnv) -> Vec<OutMessage> {
        let prev = self.prev_env.replace(env);
        let hits: Vec<usize> = self
            .recipes
            .iter()
            .enumerate()
            .filter(|(_, r)| match r.trigger {
                Trigger::EnvEquals(var, value) => {
                    env.get(var) == value && prev.is_none_or(|p| p.get(var) != value)
                }
                Trigger::Event(..) => false,
            })
            .map(|(i, _)| i)
            .collect();
        hits.into_iter().filter_map(|i| self.actuate(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotdev::env::Environment;
    use iotdev::proto::ControlAction;
    use iotpolicy::recipe::RecipeAction;

    fn hub_with_smoke_recipe() -> Hub {
        let mut hub = Hub::new(Ipv4Addr::new(10, 0, 0, 1), AdminCreds::owner_default());
        hub.register(DeviceId(0), Ipv4Addr::new(10, 0, 0, 5), DeviceClass::FireAlarm);
        hub.register(DeviceId(1), Ipv4Addr::new(10, 0, 0, 6), DeviceClass::LightBulb);
        hub.add_recipe(Recipe {
            id: 0,
            trigger: Trigger::Event(DeviceClass::FireAlarm, EventKind::SmokeAlarm),
            action: RecipeAction { target: DeviceId(1), action: ControlAction::SetColor(1) },
        });
        hub
    }

    #[test]
    fn event_recipe_fires_with_owner_auth() {
        let mut hub = hub_with_smoke_recipe();
        let out = hub.on_event(Ipv4Addr::new(10, 0, 0, 5), EventKind::SmokeAlarm);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, Ipv4Addr::new(10, 0, 0, 6));
        match &out[0].msg {
            AppMessage::Control { action, auth } => {
                assert_eq!(*action, ControlAction::SetColor(1));
                assert!(matches!(auth, ControlAuth::Password { .. }));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(hub.fired, 1);
    }

    #[test]
    fn wrong_event_or_unknown_sender_is_ignored() {
        let mut hub = hub_with_smoke_recipe();
        assert!(hub.on_event(Ipv4Addr::new(10, 0, 0, 5), EventKind::SmokeClear).is_empty());
        assert!(hub.on_event(Ipv4Addr::new(9, 9, 9, 9), EventKind::SmokeAlarm).is_empty());
    }

    #[test]
    fn env_recipes_fire_on_edges_only() {
        let mut hub = Hub::new(Ipv4Addr::new(10, 0, 0, 1), AdminCreds::owner_default());
        hub.register(DeviceId(2), Ipv4Addr::new(10, 0, 0, 7), DeviceClass::WindowActuator);
        hub.add_recipe(Recipe {
            id: 1,
            trigger: Trigger::EnvEquals(iotdev::env::EnvVar::Temperature, "high"),
            action: RecipeAction { target: DeviceId(2), action: ControlAction::Open },
        });
        let mut env = Environment::new();
        // First snapshot: normal. No fire.
        assert!(hub.on_env(env.discretize()).is_empty());
        env.temperature_c = 35.0;
        // Edge to high: fires once.
        assert_eq!(hub.on_env(env.discretize()).len(), 1);
        // Still high: no repeat.
        assert!(hub.on_env(env.discretize()).is_empty());
        env.temperature_c = 21.0;
        assert!(hub.on_env(env.discretize()).is_empty());
        env.temperature_c = 35.0;
        // New edge: fires again.
        assert_eq!(hub.on_env(env.discretize()).len(), 1);
        assert_eq!(hub.fired, 2);
    }

    #[test]
    fn very_first_snapshot_counts_as_edge() {
        let mut hub = Hub::new(Ipv4Addr::new(10, 0, 0, 1), AdminCreds::owner_default());
        hub.register(DeviceId(2), Ipv4Addr::new(10, 0, 0, 7), DeviceClass::WindowActuator);
        hub.add_recipe(Recipe {
            id: 1,
            trigger: Trigger::EnvEquals(iotdev::env::EnvVar::Temperature, "high"),
            action: RecipeAction { target: DeviceId(2), action: ControlAction::Open },
        });
        let mut env = Environment::new();
        env.temperature_c = 35.0;
        assert_eq!(hub.on_env(env.discretize()).len(), 1);
    }
}
