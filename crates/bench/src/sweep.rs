//! The parallel sweep engine: a runner for independent world instances
//! (the E16 tentpole).
//!
//! [`iotsec::world::World`] is deliberately single-threaded (`Rc` and
//! `RefCell` throughout), so the unit of parallelism is one *whole
//! world*: each job is a `(scenario, seed, population)` triple, built
//! and run entirely inside whichever worker thread claims it. The job
//! list is fixed before any worker starts and jobs never spawn jobs, so
//! workers claim job indices off one shared atomic cursor, and every
//! result lands in a slot indexed by its job id: the merged output is a
//! pure function of the job list — `--threads 1` and `--threads N`
//! produce byte-identical sweeps.

use crate::exp_world::exploit_landed;
use iotnet::time::SimDuration;
use iotsec::defense::Defense;
use iotsec::scenario;
use iotsec::world::World;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use trace::{TraceConfig, Tracer};

/// Which canned scenario a sweep job instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepScenario {
    /// [`scenario::scaled_home`] with no defense: the attacker sweep
    /// lands everywhere (upper bound on attack traffic).
    HomeUndefended,
    /// [`scenario::scaled_home`] under full IoTSec: every exploit is
    /// absorbed by the enforcement path (upper bound on µmbox work).
    HomeIoTSec,
}

impl SweepScenario {
    /// Stable label (used in tables, digests and JSON).
    pub fn label(&self) -> &'static str {
        match self {
            SweepScenario::HomeUndefended => "home-undefended",
            SweepScenario::HomeIoTSec => "home-iotsec",
        }
    }

    fn defense(&self) -> Defense {
        match self {
            SweepScenario::HomeUndefended => Defense::None,
            SweepScenario::HomeIoTSec => Defense::iotsec(),
        }
    }
}

/// One independent world instance in a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldJob {
    /// Scenario to instantiate.
    pub scenario: SweepScenario,
    /// Deployment seed.
    pub seed: u64,
    /// Extra clean background devices (the population axis).
    pub population: u32,
}

/// The deterministic outcome of one world job, plus the engine counters
/// (events, flow-cache lookups and hits) it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldOutcome {
    /// The job that produced this outcome.
    pub job: WorldJob,
    /// Devices compromised.
    pub compromised: usize,
    /// Devices with data exposure.
    pub privacy_leaked: usize,
    /// Reflection bytes at the victim.
    pub ddos_bytes: u64,
    /// Campaign steps that succeeded.
    pub steps_succeeded: usize,
    /// µmbox drops + intercepts.
    pub umbox_blocks: u64,
    /// Whether the Table-1 row-1 exploit class landed (sanity anchor).
    pub camera_leaked: bool,
    /// Simulation events the engine processed.
    pub events_processed: u64,
    /// Flow-decision-cache lookups.
    pub cache_lookups: u64,
    /// Flow-decision-cache hits.
    pub cache_hits: u64,
}

impl WorldOutcome {
    /// Canonical one-line digest. The determinism acceptance check
    /// compares these byte-for-byte between serial and parallel runs;
    /// every field in here — including the engine counters — must be a
    /// pure function of the job.
    pub fn digest(&self) -> String {
        format!(
            "{}/s{}/p{}: c={} l={} d={} ok={} ub={} cam={} ev={} cl={} ch={}",
            self.job.scenario.label(),
            self.job.seed,
            self.job.population,
            self.compromised,
            self.privacy_leaked,
            self.ddos_bytes,
            self.steps_succeeded,
            self.umbox_blocks,
            self.camera_leaked,
            self.events_processed,
            self.cache_lookups,
            self.cache_hits,
        )
    }
}

/// Build and run one world job to completion (entirely on the calling
/// thread — `World` never crosses a thread boundary).
pub fn run_world_job(job: &WorldJob) -> WorldOutcome {
    run_world_job_with(job, Tracer::disabled())
}

/// Run one world job with trace emission, returning the outcome and the
/// canonical JSONL trace. `Tracer` is deliberately `!Send`, so each
/// sweep worker constructs its own from the (`Copy`) `config` — the
/// trace string, unlike the tracer, crosses threads fine.
pub fn run_world_job_traced(job: &WorldJob, config: TraceConfig) -> (WorldOutcome, String) {
    let tracer = Tracer::new(config);
    let outcome = run_world_job_with(job, tracer.clone());
    (outcome, tracer.to_jsonl())
}

fn run_world_job_with(job: &WorldJob, tracer: Tracer) -> WorldOutcome {
    let (d, _) = scenario::scaled_home(job.scenario.defense(), job.seed, job.population);
    let mut w = World::new_traced(&d, tracer);
    w.env.occupied = true;
    w.run_until_attack_done(SimDuration::from_secs(300));
    let m = w.report();
    let (cache_lookups, cache_hits) = w.net.cache_stats();
    WorldOutcome {
        job: *job,
        compromised: m.compromised.len(),
        privacy_leaked: m.privacy_leaked.len(),
        ddos_bytes: m.ddos_bytes_at_victim,
        steps_succeeded: m.steps_succeeded(),
        umbox_blocks: m.umbox_drops + m.umbox_intercepts,
        camera_leaked: exploit_landed(1, &m),
        events_processed: w.net.events_processed(),
        cache_lookups,
        cache_hits,
    }
}

/// Run `run(index, &job)` over every job across `threads` workers and
/// return the results in job order. `threads <= 1` is a plain serial
/// loop (the reference the parallel path must match byte-for-byte);
/// otherwise each worker claims the next unclaimed job index and writes
/// its result into the slot for that index, which *is* the
/// canonical-order merge.
pub fn run_sweep<J, R, F>(jobs: Vec<J>, threads: usize, run: F) -> Vec<R>
where
    J: Send + Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter().enumerate().map(|(i, j)| run(i, j)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // Relaxed: the cursor only hands out indices; the jobs it
                // indexes were shared before the workers started.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                *slots[i].lock().unwrap() = Some(run(i, job));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every job produces exactly one result"))
        .collect()
}

/// The world-level sweep: run every [`WorldJob`] across `threads`
/// workers and return the outcomes in job order.
pub fn sweep_worlds(jobs: &[WorldJob], threads: usize) -> Vec<WorldOutcome> {
    run_sweep(jobs.to_vec(), threads, |_, job| run_world_job(job))
}

/// The engine work a sweep did, folded from its outcomes:
/// `(events processed, cache lookups, cache hits)`.
pub fn totals(outcomes: &[WorldOutcome]) -> (u64, u64, u64) {
    outcomes.iter().fold((0, 0, 0), |(events, lookups, hits), o| {
        (events + o.events_processed, lookups + o.cache_lookups, hits + o.cache_hits)
    })
}

/// The traced sweep: every job runs with its own tracer and the results
/// come back in job order, so the merged `(outcome, trace)` list is a
/// pure function of the job list — `--threads 1` and `--threads N` must
/// produce byte-identical traces (the differential harness pins this).
pub fn sweep_worlds_traced(
    jobs: &[WorldJob],
    threads: usize,
    config: TraceConfig,
) -> Vec<(WorldOutcome, String)> {
    run_sweep(jobs.to_vec(), threads, move |_, job| run_world_job_traced(job, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sweep_preserves_job_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let serial = run_sweep(jobs.clone(), 1, |i, j| (i, j * 3));
        let parallel = run_sweep(jobs, 4, |i, j| (i, j * 3));
        assert_eq!(serial, parallel);
        assert_eq!(parallel[17], (17, 51));
    }

    #[test]
    fn world_sweep_is_thread_count_invariant() {
        let jobs = [
            WorldJob { scenario: SweepScenario::HomeIoTSec, seed: 7, population: 0 },
            WorldJob { scenario: SweepScenario::HomeUndefended, seed: 7, population: 4 },
        ];
        let serial = sweep_worlds(&jobs, 1);
        let parallel = sweep_worlds(&jobs, 2);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 2);
        assert_eq!(totals(&serial), totals(&parallel));
        assert!(totals(&serial).0 > 0, "worlds must actually process events");
    }
}
