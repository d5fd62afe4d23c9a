//! Replayable minimal-repro artifacts.
//!
//! A shrunk violation is saved as a small, human-readable scenario file
//! (RON-style `key=value` lines, one clause per line) that is *complete*:
//! parsing it back yields the exact [`ScenarioSpec`] — seed included —
//! so `oracle::run(&parse(file)?)` reproduces the violation with no
//! other state. The corpus under `tests/repros/` is parsed and replayed
//! by a regression test on every CI run.
//!
//! Grammar (order significant only within a section; `#` starts a
//! comment line):
//!
//! ```text
//! seed=<u64>            edges=<u8>           horizon=<u32 secs>
//! weakness=none|fail-open|no-quarantine
//! device=row:<1..=7> | device=clean:<class-name>
//! recipe=<env-var>:<value>:<target-index>
//! fault=crash:<at-secs>:<device> | fault=flap:<device>:<down>:<up>
//!     | fault=outage:<at-secs>:<dur-secs>
//! step=wait:<secs> | step=probe:<device> | step=exploit:<device>
//! ```

use crate::spec::{AttackStep, DeviceSpec, FaultSpec, RecipeSpec, ScenarioSpec, Weakness};
use iotdev::device::DeviceClass;
use iotdev::env::EnvVar;

fn env_var_label(var: EnvVar) -> &'static str {
    match var {
        EnvVar::Temperature => "temperature",
        EnvVar::Smoke => "smoke",
        EnvVar::Light => "light",
        EnvVar::Occupancy => "occupancy",
        EnvVar::Window => "window",
        EnvVar::Door => "door",
        EnvVar::PowerDraw => "power-draw",
    }
}

fn parse_env_var(s: &str) -> Option<EnvVar> {
    EnvVar::ALL.into_iter().find(|v| env_var_label(*v) == s)
}

fn parse_class(s: &str) -> Option<DeviceClass> {
    DeviceClass::ALL.into_iter().find(|c| c.name() == s)
}

/// Intern a parsed trigger value into the variable's `'static` domain.
fn intern_value(var: EnvVar, s: &str) -> Option<&'static str> {
    var.domain().iter().copied().find(|v| *v == s)
}

/// Render `spec` as a replayable artifact.
pub fn render(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    out.push_str("# iotsec-vet minimal repro (E23); replay: iotsec_fuzz::artifact::parse\n");
    out.push_str(&format!("seed={}\n", spec.seed));
    out.push_str(&format!("edges={}\n", spec.edges));
    out.push_str(&format!("horizon={}\n", spec.horizon_secs));
    out.push_str(&format!("weakness={}\n", spec.weakness.label()));
    for d in &spec.devices {
        match d {
            DeviceSpec::Row(r) => out.push_str(&format!("device=row:{r}\n")),
            DeviceSpec::Clean(c) => out.push_str(&format!("device=clean:{}\n", c.name())),
        }
    }
    for r in &spec.recipes {
        out.push_str(&format!("recipe={}:{}:{}\n", env_var_label(r.var), r.value, r.target));
    }
    for f in &spec.faults {
        match *f {
            FaultSpec::CrashUmbox { at_secs, device } => {
                out.push_str(&format!("fault=crash:{at_secs}:{device}\n"))
            }
            FaultSpec::FlapUplink { device, down_secs, up_secs } => {
                out.push_str(&format!("fault=flap:{device}:{down_secs}:{up_secs}\n"))
            }
            FaultSpec::CtlOutage { at_secs, dur_secs } => {
                out.push_str(&format!("fault=outage:{at_secs}:{dur_secs}\n"))
            }
        }
    }
    for s in &spec.attack {
        match *s {
            AttackStep::Wait(secs) => out.push_str(&format!("step=wait:{secs}\n")),
            AttackStep::Probe(d) => out.push_str(&format!("step=probe:{d}\n")),
            AttackStep::Exploit(d) => out.push_str(&format!("step=exploit:{d}\n")),
        }
    }
    out
}

/// Parse an artifact back into a validated [`ScenarioSpec`].
pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec {
        seed: 0,
        edges: 0,
        horizon_secs: 0,
        weakness: Weakness::None,
        devices: Vec::new(),
        recipes: Vec::new(),
        faults: Vec::new(),
        attack: Vec::new(),
    };
    let mut saw_seed = false;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) =
            line.split_once('=').ok_or_else(|| format!("line {}: no '=' in {line:?}", n + 1))?;
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", n + 1);
        let fields: Vec<&str> = value.split(':').collect();
        match key {
            "seed" => {
                spec.seed = value.parse().map_err(|_| err("bad seed"))?;
                saw_seed = true;
            }
            "edges" => spec.edges = value.parse().map_err(|_| err("bad edges"))?,
            "horizon" => spec.horizon_secs = value.parse().map_err(|_| err("bad horizon"))?,
            "weakness" => {
                spec.weakness = Weakness::parse(value).ok_or_else(|| err("unknown weakness"))?
            }
            "device" => match fields.as_slice() {
                ["row", r] => {
                    spec.devices.push(DeviceSpec::Row(r.parse().map_err(|_| err("bad row"))?))
                }
                ["clean", c] => spec
                    .devices
                    .push(DeviceSpec::Clean(parse_class(c).ok_or_else(|| err("unknown class"))?)),
                _ => return Err(err("bad device clause")),
            },
            "recipe" => match fields.as_slice() {
                [var, val, target] => {
                    let var = parse_env_var(var).ok_or_else(|| err("unknown env var"))?;
                    spec.recipes.push(RecipeSpec {
                        var,
                        value: intern_value(var, val).ok_or_else(|| err("value not in domain"))?,
                        target: target.parse().map_err(|_| err("bad target"))?,
                    });
                }
                _ => return Err(err("bad recipe clause")),
            },
            "fault" => match fields.as_slice() {
                ["crash", at, dev] => spec.faults.push(FaultSpec::CrashUmbox {
                    at_secs: at.parse().map_err(|_| err("bad time"))?,
                    device: dev.parse().map_err(|_| err("bad device"))?,
                }),
                ["flap", dev, down, up] => spec.faults.push(FaultSpec::FlapUplink {
                    device: dev.parse().map_err(|_| err("bad device"))?,
                    down_secs: down.parse().map_err(|_| err("bad time"))?,
                    up_secs: up.parse().map_err(|_| err("bad time"))?,
                }),
                ["outage", at, dur] => spec.faults.push(FaultSpec::CtlOutage {
                    at_secs: at.parse().map_err(|_| err("bad time"))?,
                    dur_secs: dur.parse().map_err(|_| err("bad duration"))?,
                }),
                _ => return Err(err("bad fault clause")),
            },
            "step" => match fields.as_slice() {
                ["wait", s] => {
                    spec.attack.push(AttackStep::Wait(s.parse().map_err(|_| err("bad secs"))?))
                }
                ["probe", d] => {
                    spec.attack.push(AttackStep::Probe(d.parse().map_err(|_| err("bad device"))?))
                }
                ["exploit", d] => {
                    spec.attack.push(AttackStep::Exploit(d.parse().map_err(|_| err("bad device"))?))
                }
                _ => return Err(err("bad step clause")),
            },
            _ => return Err(err("unknown key")),
        }
    }
    if !saw_seed {
        return Err("artifact has no seed".into());
    }
    if spec.horizon_secs == 0 {
        return Err("artifact has no horizon".into());
    }
    spec.validate()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn round_trips_every_generated_scenario() {
        for seed in 0..100u64 {
            let spec = generate(seed, &GenConfig::weakened(Weakness::FailOpen));
            let text = render(&spec);
            let back = parse(&text).expect("parse back");
            assert_eq!(spec, back, "seed {seed} did not round-trip:\n{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("").is_err()); // no seed
        assert!(parse("seed=1\nhorizon=10\ndevice=row:9\n").is_err()); // bad row
        assert!(parse("seed=1\nhorizon=10\ndevice=row:1\nstep=exploit:5\n").is_err()); // range
        assert!(parse("seed=1\nhorizon=10\nrecipe=occupancy:sideways:0\n").is_err()); // domain
        assert!(parse("seed=1\nhorizon=10\ndevice=row:5\nfault=flap:0:8:2\n").is_err()); // heal first
        assert!(parse("seed=x\n").is_err());
        assert!(parse("wibble=1\n").is_err());
    }

    #[test]
    fn parse_bounds_the_device_count() {
        use crate::spec::MAX_DEVICES;
        assert_eq!(MAX_DEVICES, 8 * crate::gen::MAX_DEVICES);
        let text = |n: usize| format!("seed=1\nhorizon=10\n{}", "device=row:1\n".repeat(n));
        assert_eq!(parse(&text(MAX_DEVICES)).expect("at the bound").devices.len(), MAX_DEVICES);
        assert!(parse(&text(MAX_DEVICES + 1)).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# hello\n\nseed=3\nhorizon=10\ndevice=row:1\nstep=exploit:0\n";
        let spec = parse(text).expect("parses");
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.devices.len(), 1);
    }
}
