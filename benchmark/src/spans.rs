//! In-memory spans recorded around calls into each layer, and the
//! self-time arithmetic over them.
//!
//! Spans are recorded from the benchmark's side of every boundary (the
//! library crates carry no instrumentation). They stay in memory for the
//! whole run and are written out once, at exit. A layer's *self* time is
//! its span minus the part of that interval its children cover — a union,
//! so children that ran in parallel on two workers are not counted twice.

use crate::json::{obj, Value};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One `Fleet::round` call (parent of that round's home spans).
    Round,
    /// One home: a cold home op, or one home-round inside a fleet round.
    Home,
    /// World construction (cold build, or a resident slot's first use).
    Build,
    /// `apply_intel_delta` on a resident world.
    Delta,
    /// `rebind_home` on a resident world.
    Rebind,
    /// `run_until_attack_done`.
    Run,
    /// Folding the finished world into its outcome/report.
    Outcome,
    /// `explore_packed` (one exhaustive sweep).
    Sweep,
    /// `bfs_packed` (one frontier BFS).
    Bfs,
    /// `check_fleet_trace` after a chaos episode.
    CheckTrace,
}

impl Kind {
    /// The layer-qualified name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Round => "fleet.round",
            Kind::Home => "core.home",
            Kind::Build => "core.build",
            Kind::Delta => "core.delta",
            Kind::Rebind => "core.rebind",
            Kind::Run => "core.run",
            Kind::Outcome => "core.outcome",
            Kind::Sweep => "iotpolicy.sweep",
            Kind::Bfs => "iotpolicy.bfs",
            Kind::CheckTrace => "fleet.check_trace",
        }
    }
}

/// One recorded interval. `parent == 0` marks a root; ids start at 1.
/// Times are nanoseconds since the sink was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub kind: Kind,
    pub round: u32,
    pub home: u32,
    pub worker: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Deterministic counters read at the same boundaries the spans wrap:
/// what the homes that ran a world did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomeCounts {
    pub homes: u64,
    /// World ticks advanced.
    pub ticks: u64,
    /// Engine events processed.
    pub events: u64,
    /// µmbox drops + intercepts.
    pub blocks: u64,
    /// Switch decision-cache lookups and hits.
    pub cache_lookups: u64,
    pub cache_hits: u64,
}

impl HomeCounts {
    fn add(&mut self, o: &HomeCounts) {
        self.homes += o.homes;
        self.ticks += o.ticks;
        self.events += o.events;
        self.blocks += o.blocks;
        self.cache_lookups += o.cache_lookups;
        self.cache_hits += o.cache_hits;
    }
}

#[derive(Default)]
struct Lane {
    spans: Vec<Span>,
    counts: HomeCounts,
}

/// Where workers put spans. One lane per worker keeps its lock
/// uncontended, and a home takes it once, when it finishes.
pub struct SpanSink {
    origin: Instant,
    /// Off during set-up: only the timed window is recorded and counted.
    recording: AtomicBool,
    next_id: AtomicU32,
    /// The fleet round being executed and its span: the parent every home
    /// span of that round names. Written by the driver thread between
    /// rounds, read by workers during one.
    round: AtomicU32,
    round_span: AtomicU32,
    lanes: Vec<Mutex<Lane>>,
}

/// Most phases one home records (delta, rebind, run, outcome).
const MAX_PHASES: usize = 4;

/// One home being traced: phases are cut at successive clock reads and
/// everything is handed to the sink in one go at [`HomeTrace::finish`].
pub struct HomeTrace<'a> {
    sink: &'a SpanSink,
    home: Span,
    phases: [Span; MAX_PHASES],
    len: usize,
    /// Where the next phase starts.
    cursor_ns: u64,
}

impl HomeTrace<'_> {
    /// Close the phase that started where the previous one ended.
    pub fn phase(&mut self, kind: Kind) {
        let now = self.sink.now();
        self.phases[self.len] = Span {
            id: self.home.id + 1 + self.len as u32,
            parent: self.home.id,
            kind,
            start_ns: self.cursor_ns,
            end_ns: now,
            ..self.home
        };
        self.len += 1;
        self.cursor_ns = now;
    }

    /// Close the home span and record it, its phases and its counters.
    pub fn finish(mut self, counts: HomeCounts) {
        self.home.end_ns = self.sink.now();
        let mut lane = self.sink.lane(self.home.worker);
        lane.spans.push(self.home);
        lane.spans.extend_from_slice(&self.phases[..self.len]);
        lane.counts.add(&counts);
    }
}

impl SpanSink {
    pub fn new(workers: usize) -> SpanSink {
        SpanSink {
            origin: Instant::now(),
            recording: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            round: AtomicU32::new(0),
            round_span: AtomicU32::new(0),
            lanes: (0..workers.max(1)).map(|_| Mutex::default()).collect(),
        }
    }

    /// Start or stop recording. Flipped by the driver thread between
    /// rounds, never while workers run.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// Nanoseconds since the sink was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserve `n` consecutive ids; returns the first.
    fn reserve(&self, n: u32) -> u32 {
        self.next_id.fetch_add(n, Ordering::Relaxed)
    }

    fn lane(&self, worker: u32) -> std::sync::MutexGuard<'_, Lane> {
        self.lanes[worker as usize % self.lanes.len()]
            .lock()
            .expect("a span lane is never held across a panic")
    }

    /// Record a finished span on `worker`'s lane.
    fn close(&self, span: Span) {
        self.lane(span.worker).spans.push(span);
    }

    /// A root span of `kind` from `start_ns` to now (sweeps, checks).
    pub fn root(&self, kind: Kind, round: u32, start_ns: u64) {
        let id = self.reserve(1);
        let end_ns = self.now();
        self.close(Span { id, parent: 0, kind, round, home: 0, worker: 0, start_ns, end_ns });
    }

    /// Start tracing home `home` on `worker`, under the current fleet
    /// round if one is open (cold homes are roots).
    pub fn home(&self, home: u32, worker: u32) -> HomeTrace<'_> {
        let now = self.now();
        let span = Span {
            id: self.reserve(1 + MAX_PHASES as u32),
            parent: self.round_span.load(Ordering::SeqCst),
            kind: Kind::Home,
            round: self.round.load(Ordering::SeqCst),
            home,
            worker,
            start_ns: now,
            end_ns: now,
        };
        HomeTrace { sink: self, home: span, phases: [span; MAX_PHASES], len: 0, cursor_ns: now }
    }

    /// Open round `round`; home spans recorded until `end_round` hang
    /// under it. `SeqCst`: these two publish the parent to worker threads.
    pub fn begin_round(&self, round: u32) -> Span {
        let id = self.reserve(1);
        self.round.store(round, Ordering::SeqCst);
        self.round_span.store(id, Ordering::SeqCst);
        let now = self.now();
        Span {
            id,
            parent: 0,
            kind: Kind::Round,
            round,
            home: 0,
            worker: 0,
            start_ns: now,
            end_ns: now,
        }
    }

    pub fn end_round(&self, mut span: Span) {
        span.end_ns = self.now();
        self.round_span.store(0, Ordering::SeqCst);
        self.close(span);
    }

    /// Drain every lane's spans, ordered by id (allocation order).
    pub fn take(&self) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for worker in 0..self.lanes.len() {
            all.append(&mut self.lane(worker as u32).spans);
        }
        all.sort_by_key(|s| s.id);
        all
    }

    /// The counters of every home recorded so far.
    pub fn counts(&self) -> HomeCounts {
        let mut total = HomeCounts::default();
        for worker in 0..self.lanes.len() {
            total.add(&self.lane(worker as u32).counts);
        }
        total
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<(usize, u64, u64)> = spans
        .iter()
        .filter_map(|c| {
            let &p = index.get(&c.parent)?;
            let start = c.start_ns.max(spans[p].start_ns);
            let end = c.end_ns.min(spans[p].end_ns);
            (start < end).then_some((p, start, end))
        })
        .collect();
    children.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut i = 0;
    while i < children.len() {
        let p = children[i].0;
        let (mut lo, mut hi) = (children[i].1, children[i].2);
        i += 1;
        while i < children.len() && children[i].0 == p {
            let (_, s, e) = children[i];
            if s > hi {
                covered[p] += hi - lo;
                (lo, hi) = (s, e);
            } else {
                hi = hi.max(e);
            }
            i += 1;
        }
        covered[p] += hi - lo;
    }
    spans.iter().zip(covered).map(|(s, c)| s.dur_ns() - c).collect()
}

/// Write spans as JSON lines: one object per span, parents before
/// children (id order), `self_ns` precomputed.
pub fn write_jsonl(
    path: &std::path::Path,
    workload: &str,
    spans: &[Span],
    self_ns: &[u64],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(self_ns) {
        let line = obj([
            ("workload", Value::Str(workload.to_string())),
            ("id", Value::Num(f64::from(s.id))),
            ("parent", Value::Num(f64::from(s.parent))),
            ("name", Value::Str(s.kind.name().to_string())),
            ("round", Value::Num(f64::from(s.round))),
            ("home", Value::Num(f64::from(s.home))),
            ("worker", Value::Num(f64::from(s.worker))),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("dur_ns", Value::Num(s.dur_ns() as f64)),
            ("self_ns", Value::Num(*own as f64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, kind: Kind, worker: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, kind, round: 0, home: 0, worker, start_ns, end_ns }
    }

    /// round[0,1000] ⊃ home A[100,400] ⊃ {rebind[100,150], run[150,380]}
    ///               ⊃ home B[400,900] ⊃ {run[420,900]}
    #[test]
    fn serial_tree_self_times_add_up_to_the_root() {
        let spans = vec![
            span(1, 0, Kind::Round, 0, 0, 1000),
            span(2, 1, Kind::Home, 0, 100, 400),
            span(3, 2, Kind::Rebind, 0, 100, 150),
            span(4, 2, Kind::Run, 0, 150, 380),
            span(5, 1, Kind::Home, 0, 400, 900),
            span(6, 5, Kind::Run, 0, 420, 900),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![200, 20, 50, 230, 20, 480]);
        // Children never exceed their parent, and the leaves plus every
        // inner node's self time tile the root exactly.
        for (s, o) in spans.iter().zip(&own) {
            assert!(*o <= s.dur_ns());
        }
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
        let total = spans[0].dur_ns() as f64;
        let shares: f64 = own.iter().map(|&o| o as f64 / total).sum();
        assert!((shares - 1.0).abs() < 1e-9);
    }

    /// Two workers overlap inside one round: the union, not the sum, is
    /// what the round does not own.
    #[test]
    fn parallel_children_are_counted_once() {
        let spans = vec![
            span(1, 0, Kind::Round, 0, 0, 1000),
            span(2, 1, Kind::Home, 0, 100, 600),
            span(3, 1, Kind::Home, 1, 200, 900),
            span(4, 1, Kind::Home, 1, 950, 980),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 1000 - (900 - 100) - 30);
        assert_eq!(&own[1..], &[500, 700, 30]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent_and_orphans_are_roots() {
        let spans = vec![
            span(1, 0, Kind::Home, 0, 100, 200),
            span(2, 1, Kind::Run, 0, 50, 150),
            span(3, 1, Kind::Run, 0, 190, 400),
            span(4, 99, Kind::Run, 0, 0, 10),
        ];
        assert_eq!(self_times(&spans), vec![40, 100, 210, 10]);
    }

    #[test]
    fn sink_files_a_home_under_the_open_round_and_drains_in_id_order() {
        let sink = SpanSink::new(2);
        let round = sink.begin_round(7);
        let mut home = sink.home(42, 1);
        home.phase(Kind::Rebind);
        home.phase(Kind::Run);
        home.finish(HomeCounts { homes: 1, ticks: 123, events: 49, ..HomeCounts::default() });
        sink.end_round(round);
        let orphan = sink.home(1, 0);
        orphan.finish(HomeCounts { homes: 1, ..HomeCounts::default() });

        let spans = sink.take();
        let kinds: Vec<Kind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [Kind::Round, Kind::Home, Kind::Rebind, Kind::Run, Kind::Home]);
        assert!(spans.windows(2).all(|w| w[0].id < w[1].id));
        let home = spans[1];
        assert_eq!((home.parent, home.round, home.home, home.worker), (round.id, 7, 42, 1));
        assert!(spans[2..4].iter().all(|p| p.parent == home.id && p.home == 42 && p.worker == 1));
        // Phases tile the home from its start: each begins where the last ended.
        assert_eq!(spans[2].start_ns, home.start_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert!(spans[3].end_ns <= home.end_ns);
        // No round open any more: the next home is a root.
        assert_eq!(spans[4].parent, 0);
        assert_eq!(
            sink.counts(),
            HomeCounts { homes: 2, ticks: 123, events: 49, ..HomeCounts::default() }
        );
        assert!(sink.take().is_empty());
    }
}
