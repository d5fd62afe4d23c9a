//! The shared physical environment.
//!
//! IoT devices are coupled not only through explicit packets but through
//! the physical world: the paper's running example is an attacker who
//! turns off a smart plug powering the air-conditioner, which raises the
//! temperature, which triggers an IFTTT rule that opens the windows —
//! a physical break-in achieved without ever touching the window actuator.
//!
//! The environment holds a small set of continuous and boolean variables
//! with simple first-order dynamics, plus a **discretization** into the
//! `EnvVar = value` form the policy layer (§3.2 of the paper) operates on.

/// Discrete environmental variables, as seen by the policy layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EnvVar {
    /// Room temperature, discretized Low / Normal / High.
    Temperature,
    /// Smoke present, Yes / No.
    Smoke,
    /// Ambient light, Dark / Bright.
    Light,
    /// Somebody at home, Present / Absent.
    Occupancy,
    /// Window actuator position, Open / Closed.
    Window,
    /// Front door lock, Locked / Unlocked.
    Door,
    /// Mains power draw, Normal / High (the Wemo Insight's own metric).
    PowerDraw,
}

impl EnvVar {
    /// All modelled variables.
    pub const ALL: [EnvVar; 7] = [
        EnvVar::Temperature,
        EnvVar::Smoke,
        EnvVar::Light,
        EnvVar::Occupancy,
        EnvVar::Window,
        EnvVar::Door,
        EnvVar::PowerDraw,
    ];

    /// The discrete values this variable ranges over.
    pub fn domain(self) -> &'static [&'static str] {
        match self {
            EnvVar::Temperature => &["low", "normal", "high"],
            EnvVar::Smoke => &["no", "yes"],
            EnvVar::Light => &["dark", "bright"],
            EnvVar::Occupancy => &["absent", "present"],
            EnvVar::Window => &["closed", "open"],
            EnvVar::Door => &["locked", "unlocked"],
            EnvVar::PowerDraw => &["normal", "high"],
        }
    }
}

/// The continuous physical state plus actuation inputs.
///
/// Devices write through typed setters (the actuation surface); dynamics
/// advance on [`Environment::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Room temperature in °C.
    pub temperature_c: f64,
    /// Outdoor/ambient temperature the room relaxes toward.
    pub ambient_c: f64,
    /// Smoke density (0 = clear; ≥ smoke threshold = alarm-worthy).
    pub smoke_density: f64,
    /// Ambient light level in arbitrary lux-like units.
    pub light_level: f64,
    /// Daylight contribution (scenario-driven).
    pub daylight: f64,
    /// Whether anyone is home (scenario-driven).
    pub occupied: bool,
    /// Window actuator position.
    pub window_open: bool,
    /// Door lock state.
    pub door_locked: bool,

    // ----- actuation inputs (written by devices each tick) -----
    /// Air-conditioner duty (0..1); cools toward `ac_setpoint_c`. Written
    /// by the thermostat.
    pub ac_duty: f64,
    /// AC setpoint in °C.
    pub ac_setpoint_c: f64,
    /// Whether the AC's power source (a smart plug, in the paper's
    /// attack scenario) is on. The AC only runs when powered.
    pub ac_breaker_on: bool,
    /// Oven heat output (0..1). Written by the oven.
    pub oven_duty: f64,
    /// Whether the oven's power source is on (the Wemo in Figure 5).
    pub oven_breaker_on: bool,
    /// Number of lit bulbs (each adds light).
    pub bulbs_on: u32,
    /// Total device power draw in watts (plugs report in).
    pub power_w: f64,

    // ----- hazard bookkeeping -----
    /// Seconds the oven has been on while nobody is home.
    pub unattended_oven_s: f64,
}

impl Default for Environment {
    fn default() -> Self {
        Environment {
            temperature_c: 21.0,
            ambient_c: 28.0,
            smoke_density: 0.0,
            light_level: 0.0,
            daylight: 50.0,
            occupied: true,
            window_open: false,
            door_locked: true,
            ac_duty: 0.0,
            ac_setpoint_c: 21.0,
            ac_breaker_on: true,
            oven_duty: 0.0,
            oven_breaker_on: true,
            bulbs_on: 0,
            power_w: 0.0,
            unattended_oven_s: 0.0,
        }
    }
}

/// Thresholds used by [`Environment::discretize`].
pub mod thresholds {
    /// Below this, Temperature = low.
    pub(crate) const TEMP_LOW_C: f64 = 17.0;
    /// Above this, Temperature = high.
    pub(crate) const TEMP_HIGH_C: f64 = 27.0;
    /// At or above this smoke density, Smoke = yes.
    pub(crate) const SMOKE_ALARM: f64 = 0.5;
    /// At or above this light level, Light = bright.
    pub(crate) const LIGHT_BRIGHT: f64 = 30.0;
    /// Above this wattage, PowerDraw = high.
    pub(crate) const POWER_HIGH_W: f64 = 1500.0;
}

impl Environment {
    /// A fresh environment with default initial conditions.
    pub fn new() -> Environment {
        Environment::default()
    }

    /// Reset the per-tick accumulator inputs (bulb count, power draw)
    /// before devices write their contributions for this tick.
    pub fn begin_tick(&mut self) {
        self.bulbs_on = 0;
        self.power_w = 0.0;
    }

    /// Advance the physical dynamics by `dt_s` seconds.
    ///
    /// * Temperature relaxes toward ambient; the AC pulls it toward its
    ///   setpoint; the oven and an open window add/exchange heat.
    /// * Smoke builds when the oven runs unattended past a grace period
    ///   (the fire-hazard coupling in the paper's Figure 5 scenario) and
    ///   decays otherwise, faster with a window open.
    /// * Light is daylight plus bulbs.
    pub fn step(&mut self, dt_s: f64) {
        let ac_effective = if self.ac_breaker_on { self.ac_duty } else { 0.0 };
        let oven_effective = if self.oven_breaker_on { self.oven_duty } else { 0.0 };

        // Temperature dynamics: first-order relaxation.
        let leak_rate = if self.window_open { 0.02 } else { 0.004 };
        let towards_ambient = (self.ambient_c - self.temperature_c) * leak_rate;
        let ac_pull = (self.ac_setpoint_c - self.temperature_c).min(0.0) * 0.05 * ac_effective;
        let oven_heat = 0.08 * oven_effective;
        self.temperature_c += (towards_ambient + ac_pull + oven_heat) * dt_s;

        // Unattended-oven fire hazard.
        if oven_effective > 0.0 && !self.occupied {
            self.unattended_oven_s += dt_s;
        } else {
            self.unattended_oven_s = 0.0;
        }
        if self.unattended_oven_s > 120.0 {
            self.smoke_density += 0.01 * dt_s * oven_effective;
        } else {
            let decay = if self.window_open { 0.02 } else { 0.005 };
            self.smoke_density = (self.smoke_density - decay * dt_s).max(0.0);
        }
        self.smoke_density = self.smoke_density.min(5.0);

        // Light.
        self.light_level = self.daylight + self.bulbs_on as f64 * 40.0;
    }

    /// Where the continuous variables sit against the thresholds: the
    /// temperature band (0 low, 1 normal, 2 high), smoke at alarm level,
    /// light at bright level. This is the part of
    /// [`Environment::discretize`] that physics can move — the other four
    /// discrete variables are positions and inputs [`Environment::step`]
    /// never writes — so between two snapshots with only physics in
    /// between, the discretization moved iff this did, and comparing it
    /// is three small values instead of seven strings.
    pub fn bands(&self) -> (u8, bool, bool) {
        use thresholds::*;
        let temperature = if self.temperature_c < TEMP_LOW_C {
            0
        } else if self.temperature_c > TEMP_HIGH_C {
            2
        } else {
            1
        };
        (temperature, self.smoke_density >= SMOKE_ALARM, self.light_level >= LIGHT_BRIGHT)
    }

    /// Whether `other` holds this environment bit for bit: every float by
    /// [`f64::to_bits`] (so `-0.0` is not `0.0` and a NaN equals itself),
    /// every other field by value. [`Environment::step`] is a pure
    /// function of these bits and its `dt`, so two environments for which
    /// this holds step to the same bits. The destructuring is exhaustive:
    /// a field added to the struct does not compile here until it is
    /// compared.
    pub fn same_bits(&self, other: &Environment) -> bool {
        let Environment {
            temperature_c,
            ambient_c,
            smoke_density,
            light_level,
            daylight,
            occupied,
            window_open,
            door_locked,
            ac_duty,
            ac_setpoint_c,
            ac_breaker_on,
            oven_duty,
            oven_breaker_on,
            bulbs_on,
            power_w,
            unattended_oven_s,
        } = self;
        let floats = [
            (temperature_c, other.temperature_c),
            (ambient_c, other.ambient_c),
            (smoke_density, other.smoke_density),
            (light_level, other.light_level),
            (daylight, other.daylight),
            (ac_duty, other.ac_duty),
            (ac_setpoint_c, other.ac_setpoint_c),
            (oven_duty, other.oven_duty),
            (power_w, other.power_w),
            (unattended_oven_s, other.unattended_oven_s),
        ];
        floats.iter().all(|(a, b)| a.to_bits() == b.to_bits())
            && (*occupied, *window_open, *door_locked, *ac_breaker_on, *oven_breaker_on, *bulbs_on)
                == (
                    other.occupied,
                    other.window_open,
                    other.door_locked,
                    other.ac_breaker_on,
                    other.oven_breaker_on,
                    other.bulbs_on,
                )
    }

    /// Discretize into the policy layer's `EnvVar = value` snapshot.
    pub fn discretize(&self) -> DiscreteEnv {
        let (temperature, smoke, bright) = self.bands();
        DiscreteEnv {
            temperature: match temperature {
                0 => "low",
                1 => "normal",
                _ => "high",
            },
            smoke: if smoke { "yes" } else { "no" },
            light: if bright { "bright" } else { "dark" },
            occupancy: if self.occupied { "present" } else { "absent" },
            window: if self.window_open { "open" } else { "closed" },
            door: if self.door_locked { "locked" } else { "unlocked" },
            power_draw: if self.power_w > thresholds::POWER_HIGH_W { "high" } else { "normal" },
        }
    }
}

/// The discretized environment: one value per [`EnvVar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiscreteEnv {
    /// Temperature band.
    pub temperature: &'static str,
    /// Smoke present?
    pub smoke: &'static str,
    /// Light band.
    pub light: &'static str,
    /// Occupancy.
    pub occupancy: &'static str,
    /// Window position.
    pub window: &'static str,
    /// Door lock.
    pub door: &'static str,
    /// Power-draw band.
    pub power_draw: &'static str,
}

impl DiscreteEnv {
    /// Value of one variable.
    pub fn get(&self, var: EnvVar) -> &'static str {
        match var {
            EnvVar::Temperature => self.temperature,
            EnvVar::Smoke => self.smoke,
            EnvVar::Light => self.light,
            EnvVar::Occupancy => self.occupancy,
            EnvVar::Window => self.window,
            EnvVar::Door => self.door,
            EnvVar::PowerDraw => self.power_draw,
        }
    }
}

/// A partial assignment of discrete values: one slot per [`EnvVar`],
/// empty until a value for that variable is known.
///
/// This is what a consumer of environment *reports* keeps (the
/// controller's view, a replay log): a [`DiscreteEnv`] is total, a report
/// may name any subset of the variables. A fixed array indexed by the
/// variable, so a lookup is an index and comparing a whole report against
/// the stored values touches no allocator and no tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvValues([Option<&'static str>; EnvVar::ALL.len()]);

impl EnvValues {
    /// The assignment a report of `(variable, value)` pairs describes
    /// (the last value wins where a variable repeats).
    pub fn from_pairs(pairs: &[(EnvVar, &'static str)]) -> EnvValues {
        let mut values = EnvValues::default();
        for &(var, value) in pairs {
            values.set(var, value);
        }
        values
    }

    /// The value of `var`, if known.
    pub fn get(&self, var: EnvVar) -> Option<&'static str> {
        self.0[var as usize]
    }

    /// Store `value` for `var`; returns whether the slot changed.
    pub fn set(&mut self, var: EnvVar, value: &'static str) -> bool {
        let slot = &mut self.0[var as usize];
        let changed = *slot != Some(value);
        *slot = Some(value);
        changed
    }

    /// The known `(variable, value)` pairs, in [`EnvVar::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (EnvVar, &'static str)> + '_ {
        EnvVar::ALL.iter().zip(&self.0).filter_map(|(var, value)| value.map(|v| (*var, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_are_indexed_by_variable() {
        // `EnvValues` indexes by discriminant: `ALL` must list every
        // variable at its own position.
        for (i, var) in EnvVar::ALL.iter().enumerate() {
            assert_eq!(*var as usize, i);
        }
        let mut values = EnvValues::default();
        assert_eq!(values.get(EnvVar::Smoke), None);
        assert!(values.set(EnvVar::Smoke, "yes"));
        assert!(!values.set(EnvVar::Smoke, "yes"));
        assert!(values.set(EnvVar::Smoke, "no"));
        assert!(values.set(EnvVar::Temperature, "high"));
        let pairs: Vec<_> = values.iter().collect();
        assert_eq!(pairs, [(EnvVar::Temperature, "high"), (EnvVar::Smoke, "no")]);
        assert_eq!(EnvValues::from_pairs(&pairs), values);
        let repeated = [(EnvVar::Door, "locked"), (EnvVar::Door, "unlocked")];
        assert_eq!(EnvValues::from_pairs(&repeated).get(EnvVar::Door), Some("unlocked"));
    }

    #[test]
    fn default_discretization_is_calm() {
        let env = Environment::new();
        let d = env.discretize();
        assert_eq!(d.temperature, "normal");
        assert_eq!(d.smoke, "no");
        assert_eq!(d.occupancy, "present");
        assert_eq!(d.window, "closed");
        assert_eq!(d.door, "locked");
        assert_eq!(d.get(EnvVar::Smoke), "no");
    }

    #[test]
    fn physics_moves_the_discretization_only_through_its_bands() {
        // Rooms straddling every threshold, every input on and off: one
        // `step` changes `discretize()` exactly when it changes `bands()`.
        let mut moved = 0;
        for bits in 0u32..64 {
            let flag = |i: u32| bits >> i & 1 == 1;
            for temperature_c in [16.999, 17.0, 26.999, 27.0, 27.001] {
                for smoke_density in [0.0, 0.4995, 0.5, 0.5005] {
                    for unattended_oven_s in [0.0, 119.95, 500.0] {
                        let before = Environment {
                            temperature_c,
                            smoke_density,
                            unattended_oven_s,
                            occupied: flag(0),
                            window_open: flag(1),
                            door_locked: flag(2),
                            ac_breaker_on: flag(3),
                            ac_duty: if flag(4) { 1.0 } else { 0.0 },
                            oven_duty: if flag(5) { 1.0 } else { 0.0 },
                            daylight: if flag(5) { 29.0 } else { 0.0 },
                            bulbs_on: bits % 2,
                            power_w: 1400.0 + 200.0 * f64::from(bits % 2),
                            ..Environment::new()
                        };
                        let mut after = before.clone();
                        after.step(0.1);
                        let same_bands = after.bands() == before.bands();
                        assert_eq!(after.discretize() == before.discretize(), same_bands);
                        moved += u32::from(!same_bands);
                    }
                }
            }
        }
        assert!(moved > 100, "only {moved} rooms crossed a threshold");
    }

    #[test]
    fn same_bits_compares_every_field_by_its_bits() {
        let room = Environment { ambient_c: 31.5, bulbs_on: 2, ..Environment::new() };
        assert!(room.same_bits(&room.clone()));
        let moved: [fn(&mut Environment); 16] = [
            |e| e.temperature_c += 1e-12,
            |e| e.ambient_c = 30.0,
            |e| e.smoke_density = -0.0,
            |e| e.light_level = 1.0,
            |e| e.daylight = 0.0,
            |e| e.occupied = false,
            |e| e.window_open = true,
            |e| e.door_locked = false,
            |e| e.ac_duty = 0.5,
            |e| e.ac_setpoint_c = 20.0,
            |e| e.ac_breaker_on = false,
            |e| e.oven_duty = 1.0,
            |e| e.oven_breaker_on = false,
            |e| e.bulbs_on = 3,
            |e| e.power_w = 60.0,
            |e| e.unattended_oven_s = 0.1,
        ];
        for (i, change) in moved.iter().enumerate() {
            let mut other = room.clone();
            change(&mut other);
            assert!(!room.same_bits(&other), "field {i} changed unseen");
        }
        // Bits, not `==`: -0.0 == 0.0 (above, unequal bits), NaN != NaN.
        let nan = Environment { power_w: f64::NAN, ..room.clone() };
        assert!(nan.same_bits(&nan.clone()) && nan != nan.clone());
    }

    #[test]
    fn temperature_rises_without_ac() {
        let mut env = Environment::new();
        env.ambient_c = 35.0;
        for _ in 0..2000 {
            env.step(1.0);
        }
        assert!(env.temperature_c > 27.0, "temp {}", env.temperature_c);
        assert_eq!(env.discretize().temperature, "high");
    }

    #[test]
    fn ac_holds_temperature_down() {
        let mut env = Environment::new();
        env.ambient_c = 35.0;
        env.ac_duty = 1.0;
        env.ac_setpoint_c = 21.0;
        for _ in 0..2000 {
            env.step(1.0);
        }
        assert!(env.temperature_c < 27.0, "temp {}", env.temperature_c);
    }

    #[test]
    fn open_window_leaks_heat_faster() {
        let mut closed = Environment::new();
        closed.ambient_c = 35.0;
        let mut open = closed.clone();
        open.window_open = true;
        for _ in 0..300 {
            closed.step(1.0);
            open.step(1.0);
        }
        assert!(open.temperature_c > closed.temperature_c);
    }

    #[test]
    fn unattended_oven_eventually_smokes() {
        let mut env = Environment::new();
        env.occupied = false;
        env.oven_duty = 1.0;
        for _ in 0..400 {
            env.step(1.0);
        }
        assert!(env.smoke_density >= thresholds::SMOKE_ALARM);
        assert_eq!(env.discretize().smoke, "yes");
    }

    #[test]
    fn attended_oven_does_not_smoke() {
        let mut env = Environment::new();
        env.occupied = true;
        env.oven_duty = 1.0;
        for _ in 0..400 {
            env.step(1.0);
        }
        assert_eq!(env.smoke_density, 0.0);
    }

    #[test]
    fn smoke_decays_faster_with_window_open() {
        let mut a = Environment::new();
        a.smoke_density = 1.0;
        let mut b = a.clone();
        b.window_open = true;
        for _ in 0..30 {
            a.step(1.0);
            b.step(1.0);
        }
        assert!(b.smoke_density < a.smoke_density);
    }

    #[test]
    fn bulbs_light_the_room() {
        let mut env = Environment::new();
        env.daylight = 0.0;
        env.step(1.0);
        assert_eq!(env.discretize().light, "dark");
        env.bulbs_on = 1;
        env.step(1.0);
        assert_eq!(env.discretize().light, "bright");
    }

    #[test]
    fn env_var_domains_nonempty_and_distinct() {
        for v in EnvVar::ALL {
            let dom = v.domain();
            assert!(dom.len() >= 2);
            let mut uniq = dom.to_vec();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), dom.len());
        }
    }
}
