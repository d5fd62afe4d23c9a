//! Fleet-chaos fuzzing (E25): seeded fault-schedule grammar, trace
//! oracle and ddmin shrinker for the aggregation tier.
//!
//! The E23 pipeline vets one home against scripted device faults; this
//! module vets the *fleet* recovery stack against generated
//! [`FleetChaos`] schedules. A [`FleetSpec`] names a complete
//! experiment — fleet shape, round count, every fault-axis intensity
//! and the [`RecoveryPolicy`] under test — and lowers to a synthetic
//! fleet run (outcome digests mix seed and intel length, so a case
//! costs microseconds while exercising the real coordinator barrier).
//! The oracle is [`iotsec_fleet::check_fleet_trace`]: a spec violates
//! iff the checker finds a violation in the run's trace stream.
//!
//! A sound [`RecoveryPolicy::standard`] arm must survive every
//! generated schedule; the [`FleetWeakness`] arms (retry disabled,
//! reconciliation disabled, silent staleness) exist to prove the
//! oracle has teeth, and [`shrink_fleet`] ddmin-minimizes whatever the
//! weakened arms trip over into the replayable artifacts under
//! `tests/repros/fleet/`.

use iotdev::registry::Sku;
use iotlearn::signature::{AttackSignature, Matcher, Severity};
use iotsec_fleet::fleet::{Fleet, FleetConfig, HomeOutcome, HomeWorld};
use iotsec_fleet::{check_fleet_trace, FleetChaos, FleetTraceSpec, FleetViolation, RecoveryPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trace::digest::Fnv64;
use trace::tracer::{TraceConfig, Tracer};

/// Settling rounds the oracle grants after a budget deadline or the
/// last fault before judging (mirrors the fleet test suite).
pub const GRACE: u32 = 2;

/// The largest fleet a spec may name. `generate_fleet` draws at most 32
/// homes and `shrink_fleet` only ever shrinks, so a repro is never
/// larger; 8× that leaves room for hand-written cases while a hostile
/// `homes=4294967295` is an error, not a 4·10⁹-slot allocation.
const MAX_HOMES: u32 = 256;

/// The longest run a spec may name: generated specs run at most
/// `14 + 6 + 8 + GRACE` = 30 rounds, and 8× that bounds a replay to
/// milliseconds instead of ~4·10⁹ rounds.
const MAX_ROUNDS: u32 = 240;

/// The seeded weaknesses of ISSUE E25 — each is a one-flag
/// [`RecoveryPolicy`] mutation the oracle must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetWeakness {
    /// The full recovery stack.
    None,
    /// Dropped flushes are never retried (`lost-discovery`).
    NoRetry,
    /// Rejoined/behind neighborhoods are never fast-forwarded
    /// (`unrecovered`).
    NoReconcile,
    /// Budget overruns are never declared (`staleness-budget`).
    UnboundedStaleness,
}

impl FleetWeakness {
    /// Stable artifact label.
    pub fn label(self) -> &'static str {
        match self {
            FleetWeakness::None => "none",
            FleetWeakness::NoRetry => "no-retry",
            FleetWeakness::NoReconcile => "no-reconcile",
            FleetWeakness::UnboundedStaleness => "unbounded-staleness",
        }
    }

    /// The recovery policy this weakness degrades `base` to.
    pub fn apply(self, base: RecoveryPolicy) -> RecoveryPolicy {
        match self {
            FleetWeakness::None => base,
            FleetWeakness::NoRetry => RecoveryPolicy { retry: false, ..base },
            FleetWeakness::NoReconcile => RecoveryPolicy { reconcile: false, ..base },
            FleetWeakness::UnboundedStaleness => RecoveryPolicy { declare_degraded: false, ..base },
        }
    }
}

/// One complete fleet-chaos experiment: shape, rounds, schedule
/// (including the recovery policy under test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSpec {
    /// Fleet seed (drives per-home seeds).
    pub fleet_seed: u64,
    /// Homes in the fleet.
    pub homes: u32,
    /// Homes per neighborhood aggregator.
    pub neighborhood: u32,
    /// Rounds to run (also the checker's judging window).
    pub rounds: u32,
    /// The fault schedule + recovery policy.
    pub chaos: FleetChaos,
}

impl FleetSpec {
    /// Structural sanity: every probability in per-mille range, shape
    /// non-degenerate and no larger than 256 homes × 240 rounds (8× what
    /// the generator draws), enough rounds for the checker to judge
    /// anything.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_HOMES).contains(&self.homes) {
            return Err(format!("homes must be in 1..={MAX_HOMES}: {}", self.homes));
        }
        if self.neighborhood == 0 {
            return Err("neighborhood must be >= 1".into());
        }
        if !(1..=MAX_ROUNDS).contains(&self.rounds) {
            return Err(format!("rounds must be in 1..={MAX_ROUNDS}: {}", self.rounds));
        }
        if self.chaos.partition_rounds == 0 {
            return Err("partition-rounds must be >= 1".into());
        }
        for (label, pm) in [
            ("drop-pm", self.chaos.drop_pm),
            ("dup-pm", self.chaos.dup_pm),
            ("reorder-pm", self.chaos.reorder_pm),
            ("crash-pm", self.chaos.crash_pm),
            ("partition-pm", self.chaos.partition_pm),
            ("delay-pm", self.chaos.delay_pm),
        ] {
            if pm > 1000 {
                return Err(format!("{label} out of per-mille range: {pm}"));
            }
        }
        Ok(())
    }

    /// The checker spec this experiment is judged against.
    pub fn trace_spec(&self) -> FleetTraceSpec {
        FleetTraceSpec {
            homes: self.homes,
            rounds: self.rounds,
            staleness_budget: self.chaos.policy.staleness_budget,
            grace: GRACE,
        }
    }
}

/// The synthetic home family behind the oracle: attacked while intel is
/// empty, defended after; home 0 is the sentinel discoverer. Outcome
/// digests mix `(seed, intel len)` so memoization and digests behave
/// like the real scenario's at none of the cost.
struct SyntheticHome;

impl HomeWorld for SyntheticHome {
    type Resident = ();

    fn run_home(&self, _home: u32, seed: u64, intel: &[AttackSignature]) -> HomeOutcome {
        let mut h = Fnv64::new();
        h.write_u64(seed);
        h.write_u64(intel.len() as u64);
        let attacked = intel.is_empty();
        HomeOutcome {
            digest: h.finish(),
            compromised: u32::from(attacked),
            leaked: 0,
            blocks: u64::from(!attacked),
            events: 3,
            discovered: attacked,
            flagged: 0,
        }
    }

    fn discovery(&self, home: u32) -> Option<AttackSignature> {
        (home == 0).then(|| {
            AttackSignature::new(
                Sku::new("vet", "fleet-cam", "1"),
                "default-credentials",
                Matcher::MatchAll,
                Severity::Medium,
            )
        })
    }
}

/// Run the experiment and return every checker violation (empty = the
/// recovery stack upheld all judged invariants).
pub fn fleet_violations(spec: &FleetSpec) -> Vec<FleetViolation> {
    let tracer = Tracer::new(TraceConfig::control_only());
    let cfg = FleetConfig {
        homes: spec.homes,
        neighborhood: spec.neighborhood,
        chunk: 3,
        threads: 1,
        seed: spec.fleet_seed,
    };
    let mut fleet = Fleet::with_chaos(SyntheticHome, cfg, spec.chaos, tracer.clone());
    fleet.run(spec.rounds);
    check_fleet_trace(&tracer.events(), &spec.trace_spec())
}

/// One `u64` seed → one [`FleetSpec`] with the given weakness arm, via
/// a dedicated rng stream (same discipline as [`crate::gen`]). Horizons
/// stay short relative to the round count so the post-fault judging
/// window always opens, and every schedule enables at least one fault
/// axis so weakened arms have weather to fail in.
pub fn generate_fleet(seed: u64, weakness: FleetWeakness) -> FleetSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE_7CA0_5E25_0001);
    let pm = |rng: &mut StdRng| if rng.gen_range(0..3) == 0 { 0 } else { rng.gen_range(50..800) };
    let mut chaos = FleetChaos {
        drop_pm: pm(&mut rng),
        dup_pm: pm(&mut rng),
        reorder_pm: pm(&mut rng),
        crash_pm: pm(&mut rng),
        partition_pm: pm(&mut rng),
        partition_rounds: rng.gen_range(1..4),
        delay_pm: pm(&mut rng),
        ..FleetChaos::new(rng.gen())
    }
    .with_horizon(rng.gen_range(2..7));
    if chaos.drop_pm + chaos.dup_pm + chaos.crash_pm + chaos.partition_pm + chaos.delay_pm == 0 {
        chaos.drop_pm = 400; // no dead schedules: every spec has weather
    }
    chaos.policy = weakness.apply(RecoveryPolicy::standard());
    let rounds = 14 + chaos.horizon + chaos.policy.staleness_budget + GRACE;
    FleetSpec {
        fleet_seed: rng.gen(),
        homes: rng.gen_range(4..33),
        neighborhood: rng.gen_range(1..8),
        rounds,
        chaos,
    }
}

/// A minimized, replayable fleet-chaos violation.
#[derive(Debug, Clone)]
pub struct FleetRepro {
    /// The 1-minimal spec.
    pub spec: FleetSpec,
    /// The violations it still produces.
    pub violations: Vec<FleetViolation>,
    /// Rendered artifact with `# violation=` trailers.
    pub artifact: String,
    /// Oracle runs the shrink spent.
    pub oracle_runs: u32,
}

/// Shrink `spec` to a 1-minimal violating experiment (ddmin over the
/// schedule's axes, then the shape). Returns `None` when the input does
/// not violate. Pure: same input, same minimal repro, every time.
pub fn shrink_fleet(spec: &FleetSpec) -> Option<FleetRepro> {
    let mut runs: u32 = 1;
    if fleet_violations(spec).is_empty() {
        return None;
    }
    let mut cur = *spec;
    let try_edit = |cur: &mut FleetSpec, cand: FleetSpec, runs: &mut u32| -> bool {
        *runs += 1;
        if !fleet_violations(&cand).is_empty() {
            *cur = cand;
            true
        } else {
            false
        }
    };
    loop {
        let mut changed = false;

        // Axis 1: zero out whole fault axes.
        for zero in [
            (&|s: &mut FleetSpec| s.chaos.drop_pm = 0) as &dyn Fn(&mut FleetSpec),
            &|s| s.chaos.dup_pm = 0,
            &|s| s.chaos.reorder_pm = 0,
            &|s| s.chaos.crash_pm = 0,
            &|s| s.chaos.partition_pm = 0,
            &|s| s.chaos.delay_pm = 0,
        ] {
            let mut cand = cur;
            zero(&mut cand);
            if cand != cur {
                changed |= try_edit(&mut cur, cand, &mut runs);
            }
        }

        // Axis 2: shrink the fleet (homes, then neighborhood size).
        while cur.homes > 1 {
            let cand = FleetSpec { homes: (cur.homes / 2).max(1), ..cur };
            if !try_edit(&mut cur, cand, &mut runs) {
                break;
            }
            changed = true;
        }
        while cur.neighborhood > 1 {
            let cand = FleetSpec { neighborhood: (cur.neighborhood / 2).max(1), ..cur };
            if !try_edit(&mut cur, cand, &mut runs) {
                break;
            }
            changed = true;
        }

        // Axis 3: shorten the run and the fault window.
        while cur.rounds > 4 {
            let cand = FleetSpec { rounds: (cur.rounds / 2).max(4), ..cur };
            if !try_edit(&mut cur, cand, &mut runs) {
                break;
            }
            changed = true;
        }
        while cur.chaos.horizon > 1 {
            let mut cand = cur;
            cand.chaos.horizon = (cur.chaos.horizon / 2).max(1);
            if !try_edit(&mut cur, cand, &mut runs) {
                break;
            }
            changed = true;
        }
        while cur.chaos.partition_rounds > 1 {
            let mut cand = cur;
            cand.chaos.partition_rounds = (cur.chaos.partition_rounds / 2).max(1);
            if !try_edit(&mut cur, cand, &mut runs) {
                break;
            }
            changed = true;
        }

        if !changed {
            break;
        }
    }
    let violations = fleet_violations(&cur);
    runs += 1;
    debug_assert!(!violations.is_empty(), "shrink lost the violation");
    let mut text = render_fleet(&cur);
    for v in &violations {
        text.push_str(&format!(
            "# violation={} subject={} round={}\n",
            v.invariant, v.subject, v.round
        ));
    }
    Some(FleetRepro { spec: cur, violations, artifact: text, oracle_runs: runs })
}

fn onoff(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// Render `spec` as a replayable `key=value` artifact
/// (`tests/repros/fleet/*.repro`).
pub fn render_fleet(spec: &FleetSpec) -> String {
    let c = &spec.chaos;
    let p = &c.policy;
    let mut out = String::new();
    out.push_str(
        "# iotsec fleet-chaos minimal repro (E25); replay: iotsec_fuzz::fleet::parse_fleet\n",
    );
    out.push_str(&format!("fleet-seed={}\n", spec.fleet_seed));
    out.push_str(&format!("homes={}\n", spec.homes));
    out.push_str(&format!("neighborhood={}\n", spec.neighborhood));
    out.push_str(&format!("rounds={}\n", spec.rounds));
    out.push_str(&format!("chaos-seed={}\n", c.seed));
    out.push_str(&format!("drop-pm={}\n", c.drop_pm));
    out.push_str(&format!("dup-pm={}\n", c.dup_pm));
    out.push_str(&format!("reorder-pm={}\n", c.reorder_pm));
    out.push_str(&format!("crash-pm={}\n", c.crash_pm));
    out.push_str(&format!("partition-pm={}\n", c.partition_pm));
    out.push_str(&format!("partition-rounds={}\n", c.partition_rounds));
    out.push_str(&format!("delay-pm={}\n", c.delay_pm));
    out.push_str(&format!("horizon={}\n", c.horizon));
    out.push_str(&format!("retry={}\n", onoff(p.retry)));
    out.push_str(&format!("reconcile={}\n", onoff(p.reconcile)));
    out.push_str(&format!("staleness-budget={}\n", p.staleness_budget));
    out.push_str(&format!("declare-degraded={}\n", onoff(p.declare_degraded)));
    out.push_str(&format!("max-backoff={}\n", p.max_backoff));
    out
}

/// Parse an artifact back into a validated [`FleetSpec`].
pub fn parse_fleet(text: &str) -> Result<FleetSpec, String> {
    let mut spec = FleetSpec {
        fleet_seed: 0,
        homes: 0,
        neighborhood: 0,
        rounds: 0,
        chaos: FleetChaos {
            drop_pm: 0,
            dup_pm: 0,
            reorder_pm: 0,
            crash_pm: 0,
            partition_pm: 0,
            partition_rounds: 1,
            delay_pm: 0,
            ..FleetChaos::new(0)
        },
    };
    let parse_onoff = |v: &str| match v {
        "on" => Some(true),
        "off" => Some(false),
        _ => None,
    };
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) =
            line.split_once('=').ok_or_else(|| format!("line {}: no '=' in {line:?}", n + 1))?;
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", n + 1);
        match key {
            "fleet-seed" => spec.fleet_seed = value.parse().map_err(|_| err("bad seed"))?,
            "homes" => spec.homes = value.parse().map_err(|_| err("bad homes"))?,
            "neighborhood" => {
                spec.neighborhood = value.parse().map_err(|_| err("bad neighborhood"))?
            }
            "rounds" => spec.rounds = value.parse().map_err(|_| err("bad rounds"))?,
            "chaos-seed" => spec.chaos.seed = value.parse().map_err(|_| err("bad seed"))?,
            "drop-pm" => spec.chaos.drop_pm = value.parse().map_err(|_| err("bad pm"))?,
            "dup-pm" => spec.chaos.dup_pm = value.parse().map_err(|_| err("bad pm"))?,
            "reorder-pm" => spec.chaos.reorder_pm = value.parse().map_err(|_| err("bad pm"))?,
            "crash-pm" => spec.chaos.crash_pm = value.parse().map_err(|_| err("bad pm"))?,
            "partition-pm" => spec.chaos.partition_pm = value.parse().map_err(|_| err("bad pm"))?,
            "partition-rounds" => {
                spec.chaos.partition_rounds = value.parse().map_err(|_| err("bad rounds"))?
            }
            "delay-pm" => spec.chaos.delay_pm = value.parse().map_err(|_| err("bad pm"))?,
            "horizon" => spec.chaos.horizon = value.parse().map_err(|_| err("bad horizon"))?,
            "retry" => {
                spec.chaos.policy.retry = parse_onoff(value).ok_or_else(|| err("bad flag"))?
            }
            "reconcile" => {
                spec.chaos.policy.reconcile = parse_onoff(value).ok_or_else(|| err("bad flag"))?
            }
            "staleness-budget" => {
                spec.chaos.policy.staleness_budget = value.parse().map_err(|_| err("bad budget"))?
            }
            "declare-degraded" => {
                spec.chaos.policy.declare_degraded =
                    parse_onoff(value).ok_or_else(|| err("bad flag"))?
            }
            "max-backoff" => {
                spec.chaos.policy.max_backoff = value.parse().map_err(|_| err("bad backoff"))?
            }
            _ => return Err(err("unknown key")),
        }
    }
    spec.validate()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_generated_spec() {
        for seed in 0..50u64 {
            for weakness in [
                FleetWeakness::None,
                FleetWeakness::NoRetry,
                FleetWeakness::NoReconcile,
                FleetWeakness::UnboundedStaleness,
            ] {
                let spec = generate_fleet(seed, weakness);
                spec.validate().expect("generated specs validate");
                let text = render_fleet(&spec);
                let back = parse_fleet(&text).expect("parse back");
                assert_eq!(spec, back, "seed {seed} did not round-trip:\n{text}");
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_fleet("").is_err()); // zero homes
        assert!(parse_fleet("homes=4\nneighborhood=2\nrounds=0\n").is_err());
        assert!(parse_fleet("homes=257\nneighborhood=2\nrounds=8\n").is_err());
        assert!(parse_fleet("homes=4\nneighborhood=2\nrounds=241\n").is_err());
        assert!(parse_fleet("homes=256\nneighborhood=2\nrounds=240\n").is_ok());
        assert!(parse_fleet("homes=4\nneighborhood=2\nrounds=8\ndrop-pm=2000\n").is_err());
        assert!(parse_fleet("homes=4\nneighborhood=2\nrounds=8\nretry=maybe\n").is_err());
        assert!(parse_fleet("homes=4\nneighborhood=2\nrounds=8\nwibble=1\n").is_err());
    }

    #[test]
    fn the_sound_policy_survives_the_generated_family() {
        for seed in 0..40u64 {
            let spec = generate_fleet(seed, FleetWeakness::None);
            let violations = fleet_violations(&spec);
            assert!(
                violations.is_empty(),
                "sound policy violated on seed {seed}: {violations:?}\n{}",
                render_fleet(&spec)
            );
        }
    }

    /// Each weakened arm is caught somewhere in a modest seed sweep, and
    /// the shrunk repro still reproduces the same invariant.
    #[test]
    fn weakened_arms_are_caught_and_shrink_to_replayable_repros() {
        for (weakness, invariant) in [
            (FleetWeakness::NoRetry, "lost-discovery"),
            (FleetWeakness::NoReconcile, "unrecovered"),
            (FleetWeakness::UnboundedStaleness, "staleness-budget"),
        ] {
            let mut caught = false;
            for seed in 0..64u64 {
                let spec = generate_fleet(seed, weakness);
                let violations = fleet_violations(&spec);
                if violations.iter().any(|v| v.invariant == invariant) {
                    let repro = shrink_fleet(&spec).expect("violating spec shrinks");
                    assert!(
                        repro.violations.iter().any(|v| v.invariant == invariant),
                        "{}: shrink lost {invariant}",
                        weakness.label()
                    );
                    let replayed = parse_fleet(&repro.artifact).expect("artifact replays");
                    assert_eq!(replayed, repro.spec);
                    assert!(
                        repro.spec.homes <= spec.homes && repro.spec.rounds <= spec.rounds,
                        "shrink must not grow the spec"
                    );
                    caught = true;
                    break;
                }
            }
            assert!(caught, "{}: no seed in the sweep tripped {invariant}", weakness.label());
        }
    }
}
