//! Schedule-space exploration: drive many schedules at a program until one
//! fails, with deterministic parallel fan-out and prefix-sharing snapshot
//! reuse.
//!
//! Three strategies share one wave engine. Schedule 0 is always the
//! probe — the non-preemptive default run — and each strategy supplies
//! only a private frontier: where the next candidates come from and what
//! an executed run feeds back.
//!
//! * **PCT** — candidates are independent randomized-priority runs seeded
//!   `seed+1, seed+2, …`; the probe measures `k` (decisions per run) and
//!   nothing flows back from a run.
//! * **Bounded preemption** — systematic breadth-first enumeration of the
//!   schedule tree: each executed schedule's consults spawn children that
//!   replay the decisions up to a branch point and pick a different
//!   eligible thread there, as long as the path's preemption count stays
//!   within budget.
//! * **DPOR** — the same tree, but race analysis of each executed run
//!   (see [`super::dpor`]) enqueues only the candidates that reverse a
//!   race.
//!
//! Everything else is written once: wave widths, dedup, snapshot resume,
//! the fan-out, the merge and the observer hooks.
//!
//! Schedules execute in waves fanned across a
//! [`TrialPool`](crate::TrialPool); results merge in schedule-index order.
//! Wave widths ramp 16 → 256 as a function of the wave index only (never
//! of `--jobs`; a keep-going PCT search runs its whole budget as one
//! wave), so the explored set, the failure counts and the first failing
//! schedule are **bit-identical across job counts** — parallelism changes
//! wall time only.
//!
//! Two layers make the systematic searches cheap without changing what
//! they report (both deterministic, both enforced bit-identical by tests):
//!
//! * **Prefix-sharing snapshot tree** — bounded/CHESS neighbors share long
//!   decision prefixes by construction, so executed runs deposit
//!   [`MachineSnapshot`]s keyed by decision prefix into a [`SnapshotTree`]
//!   (LRU-bounded by `--snapshot-budget`), and each candidate resumes from
//!   its deepest retained ancestor instead of interpreting from step zero.
//! * **Decision-trace dedup** — past its forced prefix a candidate
//!   continues deterministically, so every forced-or-longer prefix of an
//!   executed trace identifies a schedule whose whole run is already
//!   known. Candidates hashing into that set are skipped, not re-run.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use super::bounded::{Consult, FrontierScheduler};
use super::decision::DecisionTrace;
use super::dpor::{self, DporCandidate, NodeTable};
use super::pct::{PctConfig, PctScheduler};
use super::point::{PointKind, PointMask};

pub use super::dpor::DporCounters;
use crate::dense::DenseProgram;
use crate::harness::TrialPool;
use crate::machine::{Machine, MachineConfig, MachineSnapshot, SnapshotFootprint};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::outcome::RunOutcome;
use crate::program::Program;
use crate::trace::{TraceEvent, TraceSink};

/// First-wave width; widths double each wave up to [`WAVE_MAX`]. Small
/// early waves keep stop-at-first searches from overshooting the first
/// failure; large late waves amortize the fan-out barrier (the fixed
/// 16-wide waves of the first engine cost PCT its parallel speedup).
const WAVE_BASE: usize = 16;

/// Wave-width ceiling.
const WAVE_MAX: usize = 256;

/// Snapshots one run may deposit into the tree: captures cover decision
/// indices `[frontier, frontier + CAPTURE_PER_RUN)`, exactly where the
/// run's own children branch.
const CAPTURE_PER_RUN: usize = 64;

/// Which search strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExploreStrategy {
    /// PCT randomized priorities with the given bug depth.
    Pct {
        /// Bug depth `d` (see [`PctConfig::depth`]).
        depth: usize,
    },
    /// Bounded-preemption systematic search.
    Bounded {
        /// Maximum preemptions per schedule.
        preemptions: usize,
    },
    /// Dynamic partial-order reduction (see [`super::dpor`]): the bounded
    /// search's frontier, but only race-reversing backtrack candidates are
    /// enqueued. Requires a decision mask containing
    /// [`PointKind::SharedAccess`] (the independence evidence is per-step
    /// footprints); [`explore`] upgrades narrower masks automatically and
    /// the report records the mask actually used.
    Dpor {
        /// Maximum preemptions per schedule.
        preemptions: usize,
    },
}

impl ExploreStrategy {
    /// A stable report label.
    pub fn label(&self) -> String {
        match self {
            ExploreStrategy::Pct { depth } => format!("pct(d={depth})"),
            ExploreStrategy::Bounded { preemptions } => format!("bounded(k={preemptions})"),
            ExploreStrategy::Dpor { preemptions } => format!("dpor(k={preemptions})"),
        }
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The strategy.
    pub strategy: ExploreStrategy,
    /// Base seed (PCT schedule `i` runs with seed `seed + i`, wrapping).
    pub seed: u64,
    /// Maximum schedules to execute.
    pub budget: usize,
    /// Worker threads for the wave fan-out (wall time only — results are
    /// identical across job counts).
    pub jobs: usize,
    /// The decision mask schedules run under.
    pub mask: PointMask,
    /// Stop at the end of the first wave that contains a failure (the
    /// default). `false` exhausts the budget — for measuring failure
    /// density and throughput.
    pub stop_at_first: bool,
    /// Retained snapshots the prefix tree may hold (bounded search only;
    /// `0` disables the cache entirely). Pure perf: reports are
    /// bit-identical at any value.
    pub snapshot_budget: usize,
}

impl ExploreConfig {
    /// Defaults: seed 1, budget 256, sequential, sync mask, stop at first
    /// failure, 8192 retained snapshots. The snapshot default is sized for
    /// CoW images — mostly refcount bumps each, with
    /// [`SNAPSHOT_BYTE_BUDGET`] bounding actual residency.
    pub fn new(strategy: ExploreStrategy) -> Self {
        Self {
            strategy,
            seed: 1,
            budget: 256,
            jobs: 1,
            mask: PointMask::SYNC,
            stop_at_first: true,
            snapshot_budget: 8192,
        }
    }
}

/// A failing schedule the exploration found.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoundSchedule {
    /// Schedule index within the exploration (0 = the probe / root).
    pub index: usize,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The recorded decisions — replayable and minimizable.
    pub trace: DecisionTrace,
}

/// The explorer's self-profiling phase breakdown: wall-time attributed to
/// snapshot capture, snapshot restore, schedule interpretation, and wave
/// assembly/merge, in microseconds. `minimize_us` is filled by the caller
/// that owns minimization (the CLI); the explorer leaves it zero. All
/// fields are wall-clock and therefore nondeterministic — they are zeroed
/// by [`ExploreReport::normalized`] alongside `wall_ms`.
///
/// Timers are collected unconditionally (two `Instant` reads per run and
/// per wave, next to the ones the machine already takes for
/// [`crate::RunStats::wall`]), so the breakdown is present in every report
/// whether or not an observer is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExplorePhases {
    /// µs spent capturing machine snapshots (inside executed runs).
    pub capture_us: u64,
    /// µs spent restoring machine snapshots before resumed runs.
    pub restore_us: u64,
    /// µs spent interpreting schedules (run wall minus capture).
    pub interpret_us: u64,
    /// µs the exploring thread spent assembling waves (dedup + ancestor
    /// lookup) and merging their results.
    pub merge_us: u64,
    /// µs spent minimizing the first failure (CLI-owned; 0 in reports
    /// written by [`explore`] itself).
    pub minimize_us: u64,
}

impl ExplorePhases {
    /// Field-wise difference `self − prev` (saturating) — the per-wave
    /// delta the observer emits.
    fn delta_since(&self, prev: &ExplorePhases) -> ExplorePhases {
        ExplorePhases {
            capture_us: self.capture_us.saturating_sub(prev.capture_us),
            restore_us: self.restore_us.saturating_sub(prev.restore_us),
            interpret_us: self.interpret_us.saturating_sub(prev.interpret_us),
            merge_us: self.merge_us.saturating_sub(prev.merge_us),
            minimize_us: self.minimize_us.saturating_sub(prev.minimize_us),
        }
    }

    /// Sum of all phases, µs.
    pub fn total_us(&self) -> u64 {
        self.capture_us + self.restore_us + self.interpret_us + self.merge_us + self.minimize_us
    }
}

/// What an exploration did.
///
/// The core fields are required when deserializing, which keeps `conair
/// report`'s format sniffing from mistaking other JSON shapes for a
/// report; the fields added later (perf counters, wave widths, the DPOR
/// counters and verdict, the phase breakdown) default when missing, so
/// older reports keep loading. Unknown keys, such as counters of retired
/// reductions, are ignored.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExploreReport {
    /// Strategy label (e.g. `pct(d=3)`).
    pub strategy: String,
    /// Decision-mask bits the exploration ran under.
    pub mask: u8,
    /// The schedule budget.
    pub budget: usize,
    /// Schedules actually executed.
    pub schedules: usize,
    /// Executed schedules that failed (failure, hang, or step-limit).
    pub failures: usize,
    /// The first failing schedule, by schedule index.
    pub first_failure: Option<FoundSchedule>,
    /// Bounded search only: branch points still queued when the
    /// exploration stopped (0 = tree exhausted within budget).
    pub frontier: usize,
    /// Decisions the probe (schedule 0, the non-preemptive default run)
    /// made — PCT's measured `k`.
    pub probe_decisions: u64,
    /// Snapshots deposited into the prefix tree (0 with the cache off).
    #[serde(default)]
    pub snapshots_taken: u64,
    /// Executed schedules that resumed from a retained ancestor snapshot
    /// instead of interpreting from step zero.
    #[serde(default)]
    pub snapshot_hits: u64,
    /// Interpreter steps those resumes skipped (sum of resumed snapshots'
    /// step counters).
    #[serde(default)]
    pub steps_saved: u64,
    /// Candidate schedules skipped because their decision trace was
    /// provably already executed (cache-independent, so *not* zeroed by
    /// [`ExploreReport::normalized`]).
    #[serde(default)]
    pub dedup_skips: u64,
    /// Schedules executed by each fan-out wave, in wave order (the probe
    /// is schedule 0, outside any wave). Deterministic — widths are a
    /// function of the wave index, budget, and stop mode only, never of
    /// `jobs` — so [`ExploreReport::normalized`] keeps them.
    #[serde(default)]
    pub wave_widths: Vec<u64>,
    /// DPOR counters: races detected, backtrack points inserted, sleep-set
    /// skips. All zero for other strategies.
    #[serde(default)]
    pub dpor: DporCounters,
    /// Whether a systematic search (bounded or DPOR) provably covered
    /// every schedule within its preemption bound: the frontier drained
    /// before the budget or a stop-at-first failure ended the run. Always
    /// `false` for PCT. With zero failures this is the `conair verify`
    /// verdict — no failing schedule exists within the bound.
    #[serde(default)]
    pub exhausted: bool,
    /// Wall-clock milliseconds (nondeterministic, like `phases`).
    pub wall_ms: u64,
    /// Self-profiling wall-time breakdown (nondeterministic; zeroed by
    /// [`ExploreReport::normalized`]).
    #[serde(default)]
    pub phases: ExplorePhases,
}

impl ExploreReport {
    /// Failures per thousand executed schedules.
    pub fn failures_per_1k(&self) -> f64 {
        if self.schedules == 0 {
            0.0
        } else {
            self.failures as f64 * 1000.0 / self.schedules as f64
        }
    }

    /// Decision depth of the first failing schedule.
    pub fn first_failure_depth(&self) -> Option<usize> {
        self.first_failure.as_ref().map(|f| f.trace.len())
    }

    /// A copy with the nondeterministic wall time (total and per-phase)
    /// and the cache-dependent perf counters zeroed — equal across
    /// `--jobs` values *and* across snapshot budgets by construction
    /// (asserted in tests and CI). `dedup_skips` is kept: it is a function
    /// of the search alone, not of the cache.
    /// The `dpor` counters are zeroed too (they are deterministic — raw
    /// equality is pinned separately — but zeroing keeps normalized
    /// pre-DPOR and post-DPOR reports comparable); `exhausted` is a
    /// verdict, not a counter, and is kept.
    pub fn normalized(&self) -> Self {
        Self {
            wall_ms: 0,
            snapshots_taken: 0,
            snapshot_hits: 0,
            steps_saved: 0,
            dpor: DporCounters::default(),
            phases: ExplorePhases::default(),
            ..self.clone()
        }
    }
}

/// One executed schedule: outcome + recorded decisions (+ consults and
/// captured snapshots when a frontier scheduler ran it).
struct Executed {
    outcome: RunOutcome,
    trace: DecisionTrace,
    consults: Vec<Consult>,
    /// Decision index of the first recorded consult: the snapshot depth
    /// when the run resumed mid-tree, 0 from scratch.
    consult_base: usize,
    /// Preemptions spent by the decisions before `consult_base`.
    base_preemptions: usize,
    /// Captured snapshots `(decision depth, image)`, ascending depth.
    snaps: Vec<(usize, MachineSnapshot)>,
    /// The run's wall time (capture time included).
    run_wall: Duration,
    /// Portion of `run_wall` spent capturing snapshots.
    capture_wall: Duration,
    /// Wall time spent restoring the resume snapshot (zero from scratch).
    restore_wall: Duration,
    /// Live scheduler decisions (excludes decisions a resume skipped).
    picks: u64,
    /// PCT priority demotions (0 for frontier runs).
    demotions: u64,
    /// Register undo-log depths at the run's rollbacks (prefix samples
    /// repeat across schedules sharing a resumed prefix).
    undo_depth: Histogram,
}

/// A candidate schedule a frontier hands the wave loop.
enum Candidate {
    /// PCT: an independent randomized run under this seed and config.
    Seed(u64, PctConfig),
    /// Bounded search: a forced decision prefix and the preemptions it
    /// spends.
    Branch(Vec<u32>, usize),
    /// DPOR: a race-reversing backtrack candidate.
    Reversal(DporCandidate),
}

impl Candidate {
    /// The forced decision prefix of a systematic-search candidate; `None`
    /// for PCT seeds, which share no prefixes to dedup or resume from.
    fn prefix(&self) -> Option<&[u32]> {
        match self {
            Candidate::Seed(..) => None,
            Candidate::Branch(prefix, _) => Some(prefix),
            Candidate::Reversal(cand) => Some(&cand.prefix),
        }
    }
}

/// How to execute one candidate schedule.
struct RunPlan {
    cand: Candidate,
    /// Deepest retained ancestor `(image, depth, preemptions before it)`,
    /// when the tree held one.
    resume: Option<(Arc<MachineSnapshot>, usize, usize)>,
    /// Maximum snapshots this run may capture (0 = none).
    capture: usize,
}

fn run_frontier<'p>(
    program: &'p Program,
    config: &MachineConfig,
    dense: &Arc<DenseProgram<'p>>,
    plan: &RunPlan,
    mask: PointMask,
) -> Executed {
    let prefix = plan.cand.prefix().unwrap_or_default();
    let mut machine = Machine::with_shared_dense(program, dense.clone(), *config);
    let (mut sched, consult_base, base_preemptions, restore_wall) = match &plan.resume {
        Some((snap, depth, pre)) => {
            let restore_start = Instant::now();
            machine.restore_from(snap);
            (
                FrontierScheduler::resume(prefix.to_vec(), *depth, mask),
                *depth,
                *pre,
                restore_start.elapsed(),
            )
        }
        None => (
            FrontierScheduler::new(prefix.to_vec(), mask),
            0,
            0,
            Duration::ZERO,
        ),
    };
    // Capture where this run's own children will branch: at and past the
    // forced frontier (the depth-0 root state is the machine's initial
    // state — the first consult fires on step one — so skip it).
    let capture_from = prefix.len().max(1);
    let (result, snaps) = machine.run_captured_at_branches(&mut sched, capture_from, plan.capture);
    debug_assert!(!sched.infeasible(), "prefixes come from recorded runs");
    let picks = sched.picks();
    Executed {
        outcome: result.outcome,
        trace: result
            .decisions
            .unwrap_or_else(|| DecisionTrace::new("bounded", 0, mask)),
        consults: sched.into_consults(),
        consult_base,
        base_preemptions,
        snaps,
        run_wall: result.stats.wall,
        capture_wall: result.stats.snapshot_wall,
        restore_wall,
        picks,
        demotions: 0,
        undo_depth: result.metrics.undo_depth,
    }
}

fn run_pct<'p>(
    program: &'p Program,
    config: &MachineConfig,
    dense: &Arc<DenseProgram<'p>>,
    seed: u64,
    cfg: PctConfig,
) -> Executed {
    let mut sched = PctScheduler::new(seed, cfg);
    let result = Machine::with_shared_dense(program, dense.clone(), *config).run(&mut sched);
    let mut trace = result
        .decisions
        .unwrap_or_else(|| DecisionTrace::new("pct", seed, cfg.mask));
    trace.seed = seed;
    Executed {
        outcome: result.outcome,
        trace,
        consults: Vec::new(),
        consult_base: 0,
        base_preemptions: 0,
        snaps: Vec::new(),
        run_wall: result.stats.wall,
        capture_wall: Duration::ZERO,
        restore_wall: Duration::ZERO,
        picks: sched.decisions(),
        demotions: sched.demotions(),
        undo_depth: result.metrics.undo_depth,
    }
}

/// Retained snapshots keyed by decision prefix — a trie over the
/// [`DecisionTrace`] u32 log, stored flat (the keys *are* the paths).
///
/// All lookups and inserts happen on the exploring thread in
/// schedule-index order, so hits, evictions and the LRU clock are
/// deterministic and identical across `--jobs`. Workers only ever read
/// images through the `Arc`.
struct SnapshotTree {
    budget: usize,
    nodes: HashMap<Vec<u32>, TreeNode>,
    clock: u64,
    /// LRU evictions performed so far (registry telemetry).
    evictions: u64,
    /// Running totals of the retained nodes' insert-time footprints.
    /// Snapshots are CoW images, so node count says little about memory
    /// pressure — a node whose pages are all shared with its parent is
    /// nearly free, a node whose run dirtied everything is not. Resident
    /// *owned* bytes is the eviction pressure signal; each node's
    /// contribution is recorded once at insert (on the exploring thread,
    /// after the wave's workers have joined, so it is deterministic and
    /// jobs-invariant) and subtracted verbatim at evict.
    resident_bytes: u64,
    owned_pages: u64,
    shared_pages: u64,
}

/// Resident-bytes ceiling for the snapshot tree. With CoW images the
/// node-count budget alone no longer bounds memory (8192 mostly-shared
/// images are cheap, 8192 fully-dirtied ones are not); eviction also
/// fires when insert-time owned bytes exceed this.
pub(super) const SNAPSHOT_BYTE_BUDGET: u64 = 256 << 20;

struct TreeNode {
    snap: Arc<MachineSnapshot>,
    /// Preemptions spent by the first `depth` decisions of any schedule
    /// through this node (a function of the prefix alone).
    preemptions: usize,
    last_used: u64,
    /// Insert-time sharing accounting, subtracted from the tree totals at
    /// evict — never recomputed, so totals stay deterministic even though
    /// live sharing drifts as neighbors are inserted and dropped.
    footprint: SnapshotFootprint,
}

impl SnapshotTree {
    fn new(budget: usize) -> Self {
        Self {
            budget,
            nodes: HashMap::new(),
            clock: 0,
            evictions: 0,
            resident_bytes: 0,
            owned_pages: 0,
            shared_pages: 0,
        }
    }

    /// Live nodes (tree occupancy).
    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The deepest retained ancestor of `prefix` (depth `1..=len`),
    /// LRU-touched. Depth `len` is the prefix itself — a full hit. Depth 0
    /// is never held: the first consult fires on the run's first step, so
    /// a pre-decision image is the (worthless) initial state.
    fn lookup(&mut self, prefix: &[u32]) -> Option<(Arc<MachineSnapshot>, usize, usize)> {
        if self.budget == 0 {
            return None;
        }
        for depth in (1..=prefix.len()).rev() {
            if let Some(node) = self.nodes.get_mut(&prefix[..depth]) {
                self.clock += 1;
                node.last_used = self.clock;
                return Some((node.snap.clone(), depth, node.preemptions));
            }
        }
        None
    }

    /// Retains `snap` under `key` unless present; over either capacity —
    /// node count, or [`SNAPSHOT_BYTE_BUDGET`] resident owned bytes — the
    /// least-recently-used nodes are evicted first. Subtrees the search
    /// has exhausted stop being looked up, so their nodes age out
    /// naturally. Returns whether a new node was added.
    fn insert(&mut self, key: &[u32], snap: MachineSnapshot, preemptions: usize) -> bool {
        if self.budget == 0 || self.nodes.contains_key(key) {
            return false;
        }
        let footprint = snap.footprint();
        while !self.nodes.is_empty()
            && (self.nodes.len() >= self.budget
                || self.resident_bytes + footprint.owned_bytes > SNAPSHOT_BYTE_BUDGET)
        {
            // The clock is strictly increasing, so the minimum is unique
            // and eviction is deterministic despite the map's iteration
            // order.
            let victim = self
                .nodes
                .iter()
                .min_by_key(|(_, n)| n.last_used)
                .map(|(k, _)| k.clone())
                .expect("tree at capacity is non-empty");
            let node = self.nodes.remove(&victim).expect("victim is live");
            self.resident_bytes -= node.footprint.owned_bytes;
            self.owned_pages -= node.footprint.owned_pages;
            self.shared_pages -= node.footprint.shared_pages;
            self.evictions += 1;
        }
        self.clock += 1;
        self.resident_bytes += footprint.owned_bytes;
        self.owned_pages += footprint.owned_pages;
        self.shared_pages += footprint.shared_pages;
        self.nodes.insert(
            key.to_vec(),
            TreeNode {
                snap: Arc::new(snap),
                preemptions,
                last_used: self.clock,
                footprint,
            },
        );
        true
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_push(mut h: u64, word: u32) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn prefix_hash(decisions: &[u32]) -> u64 {
    decisions.iter().fold(FNV_OFFSET, |h, &d| fnv_push(h, d))
}

/// Marks every forced-or-longer prefix of an executed run's trace as
/// seen. Past its forced prefix a frontier run continues deterministically
/// (non-preemptive default), so a future candidate whose whole forced
/// prefix equals one of these trace prefixes would reproduce this very
/// run decision-for-decision — skipping it loses nothing.
fn note_executed(seen: &mut HashSet<u64>, forced: usize, decisions: &[u32]) {
    let mut h = FNV_OFFSET;
    if forced == 0 {
        seen.insert(h);
    }
    for (i, &d) in decisions.iter().enumerate() {
        h = fnv_push(h, d);
        if i + 1 >= forced {
            seen.insert(h);
        }
    }
}

/// Preemptions spent by the first `depth` decisions of an executed run.
fn preemptions_before(ex: &Executed, depth: usize) -> usize {
    debug_assert!(depth >= ex.consult_base, "capture precedes resume point");
    let local = depth - ex.consult_base;
    ex.base_preemptions
        + ex.consults[..local]
            .iter()
            .filter(|c| c.is_preemption())
            .count()
}

/// Deposits an executed run's captured snapshots into the tree, in
/// ascending depth order.
fn absorb_snapshots(tree: &mut SnapshotTree, report: &mut ExploreReport, ex: &mut Executed) {
    let snaps = std::mem::take(&mut ex.snaps);
    for (depth, snap) in snaps {
        let pre = preemptions_before(ex, depth);
        if tree.insert(&ex.trace.decisions[..depth], snap, pre) {
            report.snapshots_taken += 1;
        }
    }
}

/// Width of wave `i` on the 16 → 256 ramp. A function of the wave index
/// only — never of `jobs` — so the explored schedule set is invariant
/// across job counts.
fn wave_width(wave: usize) -> usize {
    (WAVE_BASE << wave.min(4)).min(WAVE_MAX)
}

/// Observability hooks for [`explore_observed`]: a [`MetricsRegistry`] the
/// explorer updates at wave boundaries, an optional [`TraceSink`]
/// receiving [`TraceEvent::ExploreWave`] (every wave) and
/// [`TraceEvent::ExploreProgress`] (rate-limited by the sampling
/// interval), and the interval itself.
///
/// The observer is strictly read-only with respect to the search: every
/// update reads wave-boundary state the explorer already computed, so an
/// observed exploration's report is bit-identical to an unobserved one
/// (normalized for wall time) — pinned by tests and a CI diff.
pub struct ExploreObserver {
    sink: Option<Box<dyn TraceSink>>,
    registry: MetricsRegistry,
    interval_ms: u64,
    last_sample_ms: Option<u64>,
    last_phases: ExplorePhases,
}

impl ExploreObserver {
    /// An observer updating `registry`, with no sink and a 500 ms progress
    /// sampling interval.
    pub fn new(registry: MetricsRegistry) -> Self {
        Self {
            sink: None,
            registry,
            interval_ms: 500,
            last_sample_ms: None,
            last_phases: ExplorePhases::default(),
        }
    }

    /// Attaches an event sink for the progress/wave stream.
    pub fn with_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Sets the minimum milliseconds between `ExploreProgress` samples
    /// (0 = sample every wave). Wave events are never rate-limited.
    pub fn with_interval_ms(mut self, ms: u64) -> Self {
        self.interval_ms = ms;
        self
    }

    /// The registry this observer updates.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Folds one executed run's per-run telemetry into the registry. The
    /// probe is a frontier run under every strategy, so its decisions
    /// count as bounded ones except in a DPOR search.
    fn observe_run(&mut self, cand: &Candidate, ex: &Executed) {
        match cand {
            Candidate::Branch(..) => self.registry.decisions_bounded.add(ex.picks),
            Candidate::Reversal(_) => self.registry.decisions_dpor.add(ex.picks),
            Candidate::Seed(..) => {
                self.registry.decisions_pct.add(ex.picks);
                self.registry.pct_demotions.add(ex.demotions);
            }
        }
        if !ex.undo_depth.is_empty() {
            self.registry.undo_depth.merge(&ex.undo_depth);
        }
    }

    /// Publishes a completed wave: registry stores/deltas, an
    /// `ExploreWave` event, and — when the sampling interval has elapsed
    /// or the exploration is done — an `ExploreProgress` sample.
    fn observe_wave(&mut self, report: &ExploreReport, elapsed_ms: u64, w: &WaveObs) {
        let phases = report.phases.delta_since(&self.last_phases);
        self.last_phases = report.phases;
        let reg = &self.registry;
        reg.schedules.store(report.schedules as u64);
        reg.failures.store(report.failures as u64);
        reg.waves.add(1);
        reg.wave_width.set(w.width);
        reg.frontier_depth.set(w.frontier);
        reg.snapshot_nodes.set(w.tree_nodes);
        reg.snapshot_resident_bytes.set(w.tree_resident_bytes);
        reg.snapshot_owned_pages.set(w.tree_owned_pages);
        reg.snapshot_shared_pages.set(w.tree_shared_pages);
        reg.snapshot_evictions.store(w.tree_evictions);
        reg.snapshots_taken.store(report.snapshots_taken);
        reg.snapshot_hits.store(report.snapshot_hits);
        reg.steps_saved.store(report.steps_saved);
        reg.dedup_skips.store(report.dedup_skips);
        reg.dpor_races.set(report.dpor.races_detected);
        reg.dpor_backtracks.set(report.dpor.backtrack_points);
        reg.dpor_sleep_skips.set(report.dpor.sleep_skips);
        reg.phase_capture_us.add(phases.capture_us);
        reg.phase_restore_us.add(phases.restore_us);
        reg.phase_interpret_us.add(phases.interpret_us);
        reg.phase_merge_us.add(phases.merge_us);
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        sink.record(TraceEvent::ExploreWave {
            step: elapsed_ms,
            wave: w.wave,
            width: w.width,
            executed: w.executed,
            wall_us: w.wall_us,
            capture_us: phases.capture_us,
            restore_us: phases.restore_us,
            interpret_us: phases.interpret_us,
            merge_us: phases.merge_us,
        });
        let due = w.last
            || match self.last_sample_ms {
                None => true,
                Some(t) => elapsed_ms.saturating_sub(t) >= self.interval_ms,
            };
        if due {
            self.last_sample_ms = Some(elapsed_ms);
            sink.record(TraceEvent::ExploreProgress {
                step: elapsed_ms,
                schedules: report.schedules as u64,
                budget: report.budget as u64,
                failures: report.failures as u64,
                first_failure: report.first_failure.as_ref().map(|f| f.index as u64),
                frontier: w.frontier,
                snapshot_nodes: w.tree_nodes,
                resident_bytes: w.tree_resident_bytes,
                steps_saved: report.steps_saved,
                wave: w.wave + 1,
            });
        }
    }
}

/// Wave-boundary state handed to [`ExploreObserver::observe_wave`].
struct WaveObs {
    wave: u64,
    width: u64,
    executed: u64,
    wall_us: u64,
    frontier: u64,
    tree_nodes: u64,
    tree_evictions: u64,
    tree_resident_bytes: u64,
    tree_owned_pages: u64,
    tree_shared_pages: u64,
    last: bool,
}

/// Running phase-timer accumulators; converted to [`ExplorePhases`] (µs)
/// at each wave boundary.
#[derive(Default)]
struct PhaseClock {
    capture: Duration,
    restore: Duration,
    interpret: Duration,
    merge: Duration,
}

impl PhaseClock {
    /// Attributes one executed run's wall time: capture and restore as
    /// measured, the rest of the run as interpretation.
    fn note_run(&mut self, ex: &Executed) {
        self.capture += ex.capture_wall;
        self.restore += ex.restore_wall;
        self.interpret += ex.run_wall.saturating_sub(ex.capture_wall);
    }

    fn to_phases(&self) -> ExplorePhases {
        ExplorePhases {
            capture_us: self.capture.as_micros() as u64,
            restore_us: self.restore.as_micros() as u64,
            interpret_us: self.interpret.as_micros() as u64,
            merge_us: self.merge.as_micros() as u64,
            minimize_us: 0,
        }
    }
}

/// The strategy-specific half of a search: where candidates come from and
/// what an executed run feeds back. Everything else — wave widths, dedup,
/// snapshot resume, fan-out, the index-order merge and observation — is
/// the one wave loop in [`explore_observed`].
enum Frontier {
    /// PCT: candidates are seeds `seed + i`; nothing flows back from a run.
    Pct { cfg: PctConfig, seed: u64 },
    /// Bounded preemption: breadth-first over branch points; children are
    /// enqueued in (parent schedule index, decision index, thread id)
    /// order, each with the preemptions its forced prefix spends.
    Bounded {
        queue: VecDeque<(Vec<u32>, usize)>,
        preemptions: usize,
    },
    /// DPOR: race analysis of each run, in schedule-index order, inserts
    /// the candidates that reverse its races and updates the node table.
    Dpor {
        queue: VecDeque<DporCandidate>,
        nodes: NodeTable,
        preemptions: usize,
        threads: usize,
    },
}

impl Frontier {
    fn new(ec: &ExploreConfig, probe_decisions: u64, threads: usize) -> Self {
        match ec.strategy {
            ExploreStrategy::Pct { depth } => Frontier::Pct {
                cfg: PctConfig {
                    depth,
                    k: probe_decisions.max(16),
                    mask: ec.mask,
                },
                seed: ec.seed,
            },
            ExploreStrategy::Bounded { preemptions } => Frontier::Bounded {
                queue: VecDeque::new(),
                preemptions,
            },
            ExploreStrategy::Dpor { preemptions } => Frontier::Dpor {
                queue: VecDeque::new(),
                nodes: NodeTable::default(),
                preemptions,
                threads,
            },
        }
    }

    /// Width of wave `wave` with `remaining` budget left. PCT runs are
    /// mutually independent — nothing flows between waves except the
    /// stop-at-first check. Without it, the ramp only inserts fan-out
    /// barriers between runs that never needed to synchronize, so one
    /// wave takes the entire remaining budget; the ramp stays for
    /// stop-at-first searches, where small early waves keep the search
    /// from overshooting the first failure.
    fn width(&self, wave: usize, remaining: usize, stop_at_first: bool) -> usize {
        if !self.systematic() && !stop_at_first {
            remaining
        } else {
            wave_width(wave).min(remaining)
        }
    }

    /// The next candidate, which would run as schedule `index`.
    fn pop(&mut self, index: usize) -> Option<Candidate> {
        match self {
            Frontier::Pct { cfg, seed } => {
                Some(Candidate::Seed(seed.wrapping_add(index as u64), *cfg))
            }
            Frontier::Bounded { queue, .. } => queue
                .pop_front()
                .map(|(prefix, cost)| Candidate::Branch(prefix, cost)),
            Frontier::Dpor {
                queue, preemptions, ..
            } => queue.pop_front().map(|cand| {
                debug_assert!(cand.cost <= *preemptions, "over-budget candidate enqueued");
                Candidate::Reversal(cand)
            }),
        }
    }

    /// Whether `cand`'s run may capture snapshots. A bounded candidate
    /// already at the bound can never enqueue preemptive children of its
    /// own, so its captures would be dead weight (for two-thread programs
    /// every branch past the root is a preemption).
    fn may_capture(&self, cand: &Candidate) -> bool {
        match (self, cand) {
            (Frontier::Bounded { preemptions, .. }, Candidate::Branch(_, cost)) => {
                cost < preemptions
            }
            _ => true,
        }
    }

    /// Feeds an executed run back: its within-bound children (bounded) or
    /// its race reversals (DPOR).
    fn absorb(&mut self, cand: &Candidate, ex: &mut Executed, report: &mut ExploreReport) {
        match self {
            Frontier::Pct { .. } => {}
            Frontier::Bounded { queue, preemptions } => {
                let frontier = cand.prefix().map_or(0, <[u32]>::len);
                push_children(queue, ex, frontier, *preemptions);
            }
            Frontier::Dpor {
                queue,
                nodes,
                preemptions,
                threads,
            } => {
                let Candidate::Reversal(cand) = cand else {
                    unreachable!("a DPOR frontier runs reversal candidates only");
                };
                let own = Arc::new(std::mem::take(&mut ex.consults));
                let analysis = dpor::analyze(
                    cand,
                    &own,
                    ex.consult_base,
                    &ex.trace.decisions,
                    *threads,
                    *preemptions,
                    nodes,
                    prefix_hash,
                );
                report.dpor.races_detected += analysis.races;
                report.dpor.sleep_skips += analysis.sleep_skips;
                report.dpor.backtrack_points += analysis.candidates.len() as u64;
                queue.extend(analysis.candidates);
            }
        }
    }

    /// Candidates still queued (0 for PCT, which generates them).
    fn pending(&self) -> usize {
        match self {
            Frontier::Pct { .. } => 0,
            Frontier::Bounded { queue, .. } => queue.len(),
            Frontier::Dpor { queue, .. } => queue.len(),
        }
    }

    /// Whether candidates are forced prefixes of one schedule tree — the
    /// searches that dedup and snapshot resume serve (not PCT).
    fn systematic(&self) -> bool {
        !matches!(self, Frontier::Pct { .. })
    }

    /// Whether a systematic search has drained its frontier.
    fn exhausted(&self) -> bool {
        self.systematic() && self.pending() == 0
    }
}

/// The exploring thread's state. Waves are assembled from it and merged
/// back into it in schedule-index order, so the cache, the dedup set and
/// the frontier behave identically whatever executes the runs.
struct Search {
    report: ExploreReport,
    frontier: Frontier,
    seen: HashSet<u64>,
    tree: SnapshotTree,
    clock: PhaseClock,
}

impl Search {
    fn done(&self, ec: &ExploreConfig) -> bool {
        self.report.schedules >= ec.budget
            || (ec.stop_at_first && self.report.first_failure.is_some())
    }

    /// Pops up to `room` candidates: already-executed prefixes are
    /// skipped, the rest resume from their deepest retained ancestor.
    fn assemble(&mut self, room: usize, capture: usize) -> Vec<RunPlan> {
        let mut plans: Vec<RunPlan> = Vec::with_capacity(room);
        while plans.len() < room {
            let Some(cand) = self.frontier.pop(self.report.schedules + plans.len()) else {
                break;
            };
            let (resume, capture) = match cand.prefix() {
                None => (None, 0),
                Some(prefix) => {
                    if self.seen.contains(&prefix_hash(prefix)) {
                        self.report.dedup_skips += 1;
                        continue;
                    }
                    let resume = self.tree.lookup(prefix);
                    if let Some((snap, _, _)) = &resume {
                        self.report.snapshot_hits += 1;
                        self.report.steps_saved += snap.step();
                    }
                    let may = self.frontier.may_capture(&cand);
                    (resume, if may { capture } else { 0 })
                }
            };
            plans.push(RunPlan {
                cand,
                resume,
                capture,
            });
        }
        plans
    }

    /// Folds one executed run in as the next schedule index.
    fn merge(&mut self, plan: &RunPlan, mut ex: Executed, observer: Option<&mut ExploreObserver>) {
        let report = &mut self.report;
        if ex.outcome.is_failure() {
            report.failures += 1;
            if report.first_failure.is_none() {
                report.first_failure = Some(FoundSchedule {
                    index: report.schedules,
                    outcome: ex.outcome.clone(),
                    trace: ex.trace.clone(),
                });
            }
        }
        report.schedules += 1;
        if let (true, Some(prefix)) = (self.frontier.systematic(), plan.cand.prefix()) {
            note_executed(&mut self.seen, prefix.len(), &ex.trace.decisions);
            absorb_snapshots(&mut self.tree, report, &mut ex);
        }
        self.frontier.absorb(&plan.cand, &mut ex, report);
        self.clock.note_run(&ex);
        if let Some(obs) = observer {
            obs.observe_run(&plan.cand, &ex);
        }
    }
}

/// Explores schedules of `program` under `config` per `ec`.
///
/// No schedule script is involved: exploration exists to find
/// failure-inducing interleavings *without* hand-written gates.
pub fn explore(program: &Program, config: &MachineConfig, ec: &ExploreConfig) -> ExploreReport {
    explore_observed(program, config, ec, None)
}

/// [`explore`] with observability attached: wave-boundary registry
/// updates, progress/wave events, and the same report. `explore(p, c, e)`
/// is exactly `explore_observed(p, c, e, None)` — the unobserved path
/// allocates no registry and emits no events.
pub fn explore_observed(
    program: &Program,
    config: &MachineConfig,
    ec: &ExploreConfig,
    mut observer: Option<&mut ExploreObserver>,
) -> ExploreReport {
    let start = Instant::now();
    // DPOR's independence evidence is per-step footprints, which cover a
    // whole scheduler transition only when every shared access is itself a
    // decision point — under narrower masks the silent continuation
    // between consults performs shared accesses the footprints never see,
    // breaking the commutation axiom. Upgrade rather than refuse; the
    // report records the mask actually explored.
    let ec_owned: ExploreConfig;
    let ec = if matches!(ec.strategy, ExploreStrategy::Dpor { .. })
        && !ec.mask.contains(PointKind::SharedAccess)
    {
        ec_owned = ExploreConfig {
            mask: PointMask::from_bits(ec.mask.bits() | PointKind::SharedAccess.bit()),
            ..ec.clone()
        };
        &ec_owned
    } else {
        ec
    };
    let mut cfg = *config;
    cfg.record_decisions = true;
    // One lowering shared by every run of the search (and every worker).
    let dense = Arc::new(DenseProgram::new(&program.module));

    // Snapshots only pay off for the systematic trees (PCT runs share no
    // forced prefixes).
    let capture = match ec.strategy {
        ExploreStrategy::Bounded { .. } | ExploreStrategy::Dpor { .. }
            if ec.snapshot_budget > 0 =>
        {
            CAPTURE_PER_RUN
        }
        _ => 0,
    };

    // Schedule 0 under every strategy: the probe — the non-preemptive
    // default schedule (empty forced prefix). It measures PCT's `k`, is
    // the root of the systematic search trees, and catches bugs that need
    // no preemption at all.
    let root = match ec.strategy {
        ExploreStrategy::Dpor { .. } => Candidate::Reversal(DporCandidate::root()),
        _ => Candidate::Branch(Vec::new(), 0),
    };
    let probe = RunPlan {
        cand: root,
        resume: None,
        capture,
    };
    let probe_run = run_frontier(program, &cfg, &dense, &probe, ec.mask);
    let probe_decisions = probe_run.trace.len() as u64;
    let mut s = Search {
        report: ExploreReport {
            strategy: ec.strategy.label(),
            mask: ec.mask.bits(),
            budget: ec.budget,
            probe_decisions,
            ..ExploreReport::default()
        },
        frontier: Frontier::new(ec, probe_decisions, program.threads.len()),
        seen: HashSet::new(),
        tree: SnapshotTree::new(ec.snapshot_budget),
        clock: PhaseClock::default(),
    };
    s.merge(&probe, probe_run, observer.as_deref_mut());

    let pool = TrialPool::new(ec.jobs);
    let mut wave = 0usize;
    while !s.done(ec) {
        let wave_start = Instant::now();
        let room = s
            .frontier
            .width(wave, ec.budget - s.report.schedules, ec.stop_at_first);
        // Once the frontier outgrows the tree budget, FIFO pops lag
        // inserts by more than the LRU can span: every capture would be
        // evicted unused. Stop capturing; while the queue is still small,
        // cap the wave's total inserts near the tree budget so one wide
        // wave cannot evict the ancestors the next wave is about to resume
        // from. Both knobs read only wave-boundary state, so they stay
        // jobs-invariant.
        let wave_capture = if s.frontier.pending() <= ec.snapshot_budget {
            capture.min((ec.snapshot_budget / room.max(1)).max(1))
        } else {
            0
        };
        let assemble_start = Instant::now();
        let plans = s.assemble(room, wave_capture);
        s.clock.merge += assemble_start.elapsed();
        if plans.is_empty() {
            break;
        }
        let results = pool.map(plans.len(), |j| match &plans[j].cand {
            Candidate::Seed(seed, pct) => run_pct(program, &cfg, &dense, *seed, *pct),
            _ => run_frontier(program, &cfg, &dense, &plans[j], ec.mask),
        });
        let merge_start = Instant::now();
        let executed = results.len();
        s.report.wave_widths.push(executed as u64);
        for (plan, ex) in plans.iter().zip(results) {
            s.merge(plan, ex, observer.as_deref_mut());
        }
        s.clock.merge += merge_start.elapsed();
        s.report.phases = s.clock.to_phases();
        if let Some(obs) = observer.as_deref_mut() {
            obs.observe_wave(
                &s.report,
                start.elapsed().as_millis() as u64,
                &WaveObs {
                    wave: wave as u64,
                    width: room as u64,
                    executed: executed as u64,
                    wall_us: wave_start.elapsed().as_micros() as u64,
                    frontier: s.frontier.pending() as u64,
                    tree_nodes: s.tree.len() as u64,
                    tree_evictions: s.tree.evictions,
                    tree_resident_bytes: s.tree.resident_bytes,
                    tree_owned_pages: s.tree.owned_pages,
                    tree_shared_pages: s.tree.shared_pages,
                    last: s.done(ec) || s.frontier.exhausted(),
                },
            );
        }
        wave += 1;
    }

    let mut report = s.report;
    report.frontier = s.frontier.pending();
    report.exhausted = s.frontier.exhausted();
    report.phases = s.clock.to_phases();
    report.wall_ms = start.elapsed().as_millis() as u64;
    report
}

/// Enqueues every within-budget child of an executed schedule: for each
/// consult at or past the forced frontier, each unchosen eligible thread
/// becomes a new prefix.
fn push_children(
    queue: &mut VecDeque<(Vec<u32>, usize)>,
    ex: &Executed,
    frontier: usize,
    preemptions: usize,
) {
    debug_assert!(frontier >= ex.consult_base, "resume point is an ancestor");
    let mut used = ex.base_preemptions;
    for (j, c) in ex.consults.iter().enumerate() {
        let i = ex.consult_base + j;
        if i >= frontier {
            for &alt in &c.eligible {
                if alt == c.chosen {
                    continue;
                }
                let cost = used + usize::from(c.is_preemption_for(alt));
                if cost > preemptions {
                    continue;
                }
                let mut prefix = ex.trace.decisions[..i].to_vec();
                prefix.push(alt.index() as u32);
                queue.push_back((prefix, cost));
            }
        }
        used += usize::from(c.is_preemption());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};

    /// reader asserts a flag that writer sets — fails only when the
    /// reader's load runs before the writer's store.
    fn order_violation() -> Program {
        let mut mb = ModuleBuilder::new("ov");
        let flag = mb.global("flag", 0);
        let mut fb = FuncBuilder::new("reader", 0);
        let v = fb.load_global(flag);
        let ok = fb.cmp(CmpKind::Ne, v, 0);
        fb.assert(ok, "writer must have published");
        fb.ret();
        mb.function(fb.finish());
        let mut fb = FuncBuilder::new("writer", 0);
        fb.store_global(flag, 1);
        fb.ret();
        mb.function(fb.finish());
        Program::from_entry_names(mb.finish(), &["reader", "writer"])
    }

    fn assert_finds_and_replays(strategy: ExploreStrategy, mask: PointMask) {
        let program = order_violation();
        let mut ec = ExploreConfig::new(strategy);
        ec.mask = mask;
        ec.budget = 64;
        let report = explore(&program, &MachineConfig::default(), &ec);
        let found = report.first_failure.as_ref().expect("bug found");
        assert!(found.outcome.is_failure());
        // Replay reproduces the outcome bit-identically.
        let cfg = MachineConfig {
            record_decisions: true,
            ..MachineConfig::default()
        };
        let (replayed, div) = super::super::replay::run_replay(&program, &cfg, &found.trace);
        assert_eq!(div, None, "clean replay");
        assert_eq!(replayed.outcome, found.outcome);
    }

    #[test]
    fn bounded_finds_order_violation() {
        assert_finds_and_replays(ExploreStrategy::Bounded { preemptions: 1 }, PointMask::SYNC);
    }

    #[test]
    fn pct_finds_order_violation() {
        assert_finds_and_replays(ExploreStrategy::Pct { depth: 3 }, PointMask::SYNC_SHARED);
    }

    #[test]
    fn results_identical_across_jobs() {
        let program = order_violation();
        for strategy in [
            ExploreStrategy::Pct { depth: 3 },
            ExploreStrategy::Bounded { preemptions: 2 },
        ] {
            let mut ec = ExploreConfig::new(strategy);
            ec.mask = PointMask::SYNC_SHARED;
            ec.budget = 48;
            ec.stop_at_first = false;
            let reports: Vec<ExploreReport> = [1usize, 2, 4]
                .iter()
                .map(|&jobs| {
                    let mut ec = ec.clone();
                    ec.jobs = jobs;
                    explore(&program, &MachineConfig::default(), &ec).normalized()
                })
                .collect();
            assert_eq!(reports[0], reports[1], "{strategy:?}: 1 vs 2 jobs");
            assert_eq!(reports[0], reports[2], "{strategy:?}: 1 vs 4 jobs");
        }
    }

    #[test]
    fn results_identical_with_cache_off() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 64;
        ec.stop_at_first = false;
        let cached = explore(&program, &MachineConfig::default(), &ec);
        ec.snapshot_budget = 0;
        let uncached = explore(&program, &MachineConfig::default(), &ec);
        assert_eq!(uncached.snapshots_taken, 0);
        assert_eq!(uncached.snapshot_hits, 0);
        assert_eq!(uncached.steps_saved, 0);
        assert_eq!(cached.normalized(), uncached.normalized());
        assert!(cached.snapshot_hits > 0, "the tree explores deep prefixes");
    }

    #[test]
    fn dedup_guard_confirms_schedule_uniqueness() {
        // The frontier discipline (children only at-or-past the forced
        // prefix, deterministic default continuation) generates each
        // distinct schedule at most once — the seen-set is the *runtime
        // enforcement* of that invariant, and this test pins it: on an
        // exhausted tree the guard found nothing to skip, i.e. every
        // executed schedule really was unique.
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 10_000;
        ec.stop_at_first = false;
        let report = explore(&program, &MachineConfig::default(), &ec);
        assert_eq!(report.frontier, 0, "tree exhausted");
        assert_eq!(report.dedup_skips, 0, "enumeration is duplicate-free");
    }

    #[test]
    fn budget_caps_schedules() {
        let program = order_violation();
        // PCT generates schedules indefinitely, so the budget is the only cap.
        let mut ec = ExploreConfig::new(ExploreStrategy::Pct { depth: 3 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 5;
        ec.stop_at_first = false;
        let report = explore(&program, &MachineConfig::default(), &ec);
        assert_eq!(report.schedules, 5);
    }

    #[test]
    fn bounded_search_exhausts_small_trees_under_budget() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 10_000;
        ec.stop_at_first = false;
        let report = explore(&program, &MachineConfig::default(), &ec);
        // The whole tree fits well under the budget and the frontier drains.
        assert!(report.schedules < ec.budget);
        assert_eq!(report.frontier, 0);
        assert!(report.failures >= 1);
    }

    #[test]
    fn dpor_finds_order_violation() {
        // SYNC mask: exercises the automatic SharedAccess upgrade too.
        assert_finds_and_replays(ExploreStrategy::Dpor { preemptions: 1 }, PointMask::SYNC);
    }

    #[test]
    fn dpor_upgrades_mask_and_reports_it() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Dpor { preemptions: 1 });
        ec.mask = PointMask::SYNC;
        ec.budget = 64;
        let report = explore(&program, &MachineConfig::default(), &ec);
        assert_eq!(
            report.mask,
            PointMask::SYNC_SHARED.bits(),
            "report records the mask actually explored"
        );
    }

    #[test]
    fn dpor_results_identical_across_jobs_and_cache() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Dpor { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 10_000;
        ec.stop_at_first = false;
        let base = explore(&program, &MachineConfig::default(), &ec);
        for jobs in [2usize, 4] {
            let mut ec = ec.clone();
            ec.jobs = jobs;
            let r = explore(&program, &MachineConfig::default(), &ec);
            // Raw DPOR counters (not just the normalized report) are
            // functions of the search alone.
            assert_eq!(base.dpor, r.dpor, "{jobs} jobs: dpor counters");
            assert_eq!(base.exhausted, r.exhausted, "{jobs} jobs: verdict");
            assert_eq!(base.normalized(), r.normalized(), "{jobs} jobs");
        }
        let mut ec_off = ec.clone();
        ec_off.snapshot_budget = 0;
        let uncached = explore(&program, &MachineConfig::default(), &ec_off);
        assert_eq!(base.dpor, uncached.dpor, "cache off: dpor counters");
        assert_eq!(base.normalized(), uncached.normalized(), "cache off");
    }

    #[test]
    fn dpor_exhausts_with_fewer_schedules_than_bounded() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 10_000;
        ec.stop_at_first = false;
        let bounded = explore(&program, &MachineConfig::default(), &ec);
        ec.strategy = ExploreStrategy::Dpor { preemptions: 2 };
        let dpor = explore(&program, &MachineConfig::default(), &ec);
        assert!(bounded.exhausted, "bounded drains the whole tree");
        assert!(dpor.exhausted, "dpor drains its reduced tree");
        assert!(
            dpor.schedules <= bounded.schedules,
            "reduction never explores more: {} vs {}",
            dpor.schedules,
            bounded.schedules
        );
        // Both verdicts agree: the bug exists.
        assert!(bounded.failures >= 1);
        assert!(dpor.failures >= 1, "reduction must not lose the bug");
        assert!(dpor.dpor.races_detected >= 1);
        assert!(dpor.dpor.backtrack_points >= 1);
    }

    #[test]
    fn snapshot_tree_lru_evicts_deterministically() {
        use crate::sched::basic::RoundRobin;
        // Build a real snapshot to populate entries with.
        let program = order_violation();
        let cfg = MachineConfig {
            record_decisions: true,
            ..MachineConfig::default()
        };
        let mut sched = RoundRobin::default();
        let (_, snaps) = Machine::new(&program, cfg).run_captured(&mut sched, 1, 1);
        let (_, snap) = snaps.into_iter().next().expect("one capture");

        let mut tree = SnapshotTree::new(2);
        assert!(tree.insert(&[0], snap.clone(), 0));
        assert!(tree.insert(&[0, 1], snap.clone(), 1));
        assert!(!tree.insert(&[0, 1], snap.clone(), 1), "no duplicate keys");
        // Touch [0] so [0, 1] is the LRU victim.
        assert!(tree.lookup(&[0, 7]).is_some());
        assert!(tree.insert(&[1], snap.clone(), 0));
        assert!(
            tree.lookup(&[0, 1]).map(|(_, d, _)| d) == Some(1),
            "evicted to ancestor"
        );
        // Deepest ancestor wins and carries its preemption count.
        assert!(tree.insert(&[1, 2], snap, 1));
        let (_, depth, pre) = tree.lookup(&[1, 2, 3]).expect("ancestor");
        assert_eq!((depth, pre), (2, 1));
        // Budget 0 disables everything.
        let mut off = SnapshotTree::new(0);
        assert!(off.lookup(&[0]).is_none());
    }

    #[test]
    fn report_derived_stats() {
        let mut report = ExploreReport {
            strategy: "pct(d=3)".into(),
            mask: PointMask::SYNC.bits(),
            budget: 100,
            schedules: 50,
            failures: 2,
            first_failure: None,
            frontier: 0,
            probe_decisions: 10,
            snapshots_taken: 7,
            snapshot_hits: 5,
            steps_saved: 900,
            dedup_skips: 3,
            wave_widths: vec![16, 34],
            dpor: DporCounters {
                races_detected: 4,
                backtrack_points: 3,
                sleep_skips: 2,
            },
            exhausted: true,
            wall_ms: 123,
            phases: ExplorePhases {
                capture_us: 10,
                restore_us: 20,
                interpret_us: 30,
                merge_us: 40,
                minimize_us: 50,
            },
        };
        assert!((report.failures_per_1k() - 40.0).abs() < 1e-9);
        assert_eq!(report.first_failure_depth(), None);
        let norm = report.normalized();
        assert_eq!(norm.wall_ms, 0);
        assert_eq!(norm.snapshots_taken, 0);
        assert_eq!(norm.snapshot_hits, 0);
        assert_eq!(norm.steps_saved, 0);
        assert_eq!(norm.dedup_skips, 3, "search-shape counters survive");
        assert_eq!(norm.wave_widths, vec![16, 34], "widths are search shape");
        assert_eq!(norm.dpor, DporCounters::default(), "dpor counters zeroed");
        assert!(norm.exhausted, "the verdict survives normalization");
        assert_eq!(
            norm.phases,
            ExplorePhases::default(),
            "phases are wall time"
        );
        assert_eq!(report.phases.total_us(), 150);
        report.schedules = 0;
        assert_eq!(report.failures_per_1k(), 0.0);
    }

    #[test]
    fn unobserved_explore_allocates_no_registry() {
        let _guard = crate::metrics::registry_test_guard();
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 48;
        ec.stop_at_first = false;
        // A registry allocated before the run must see no counter traffic
        // from it…
        let bystander = MetricsRegistry::new();
        let quiet = bystander.render_prometheus();
        let before = MetricsRegistry::instances();
        let report = explore(&program, &MachineConfig::default(), &ec);
        // …and the run itself must not have allocated any registry.
        assert_eq!(
            MetricsRegistry::instances(),
            before,
            "unobserved explore constructed a registry"
        );
        assert_eq!(
            bystander.render_prometheus(),
            quiet,
            "unobserved explore touched a registry"
        );
        assert!(report.schedules > 0);
    }

    #[test]
    fn observed_explore_reports_identically_and_populates_registry() {
        use crate::trace::EventBuffer;
        let _guard = crate::metrics::registry_test_guard();
        let program = order_violation();
        for strategy in [
            ExploreStrategy::Bounded { preemptions: 2 },
            ExploreStrategy::Pct { depth: 3 },
            ExploreStrategy::Dpor { preemptions: 2 },
        ] {
            let mut ec = ExploreConfig::new(strategy);
            ec.mask = PointMask::SYNC_SHARED;
            ec.budget = 48;
            ec.stop_at_first = false;
            let plain = explore(&program, &MachineConfig::default(), &ec);
            let registry = MetricsRegistry::new();
            let buffer = EventBuffer::new();
            let mut obs = ExploreObserver::new(registry.clone())
                .with_sink(Box::new(buffer.clone()))
                .with_interval_ms(0);
            let observed =
                explore_observed(&program, &MachineConfig::default(), &ec, Some(&mut obs));
            assert_eq!(
                plain.normalized(),
                observed.normalized(),
                "{strategy:?}: observability changed the report"
            );
            assert_eq!(registry.schedules.get(), observed.schedules as u64);
            assert_eq!(registry.failures.get(), observed.failures as u64);
            assert!(registry.waves.get() > 0);
            let events = buffer.take();
            let waves = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::ExploreWave { .. }))
                .count();
            assert_eq!(waves as u64, registry.waves.get());
            let last_progress = events
                .iter()
                .rev()
                .find_map(|e| match e {
                    TraceEvent::ExploreProgress { schedules, .. } => Some(*schedules),
                    _ => None,
                })
                .expect("interval 0 samples every wave");
            assert_eq!(last_progress, observed.schedules as u64);
            match strategy {
                ExploreStrategy::Bounded { .. } => {
                    assert!(registry.decisions_bounded.get() > 0);
                    assert_eq!(registry.snapshots_taken.get(), observed.snapshots_taken);
                }
                ExploreStrategy::Pct { .. } => assert!(registry.decisions_pct.get() > 0),
                ExploreStrategy::Dpor { .. } => {
                    assert!(registry.decisions_dpor.get() > 0);
                    assert_eq!(registry.dpor_races.get(), observed.dpor.races_detected);
                    assert_eq!(
                        registry.dpor_backtracks.get(),
                        observed.dpor.backtrack_points
                    );
                }
            }
            assert!(
                observed.phases.interpret_us > 0 || observed.wall_ms == 0,
                "interpretation dominates a real exploration"
            );
        }
    }

    #[test]
    fn report_deserialize_tolerates_pre_phases_schema() {
        // A PR 5-era report: no `phases`. Core fields required, newer
        // counters default.
        let old = r#"{
            "strategy": "bounded(k=2)", "mask": 3, "budget": 64,
            "schedules": 10, "failures": 1, "first_failure": null,
            "frontier": 0, "probe_decisions": 7, "snapshots_taken": 4,
            "snapshot_hits": 2, "steps_saved": 100, "dedup_skips": 0,
            "wall_ms": 12
        }"#;
        let report: ExploreReport = serde_json::from_str(old).unwrap();
        assert_eq!(report.schedules, 10);
        assert_eq!(report.snapshot_hits, 2);
        assert_eq!(report.phases, ExplorePhases::default());
        assert_eq!(report.dpor, DporCounters::default(), "pre-DPOR: zeroes");
        assert!(!report.exhausted, "pre-DPOR: no verdict claimed");
        // Pre-snapshot-tree (PR 4) reports load too.
        let older = r#"{
            "strategy": "pct(d=3)", "mask": 3, "budget": 64,
            "schedules": 10, "failures": 0, "first_failure": null,
            "frontier": 0, "probe_decisions": 7, "wall_ms": 12
        }"#;
        let report: ExploreReport = serde_json::from_str(older).unwrap();
        assert_eq!(report.steps_saved, 0);
        // Non-report JSON (e.g. a decision trace) still fails: core fields
        // stay required, so format sniffing cannot mis-accept it.
        let trace = r#"{"scheduler": "pct", "seed": 3, "mask": 3, "decisions": []}"#;
        assert!(serde_json::from_str::<ExploreReport>(trace).is_err());
        // And the current schema round-trips.
        let mut current = ExploreReport {
            strategy: "bounded(k=1)".into(),
            mask: 1,
            budget: 8,
            schedules: 8,
            failures: 0,
            first_failure: None,
            frontier: 2,
            probe_decisions: 3,
            snapshots_taken: 1,
            snapshot_hits: 1,
            steps_saved: 9,
            dedup_skips: 0,
            wave_widths: vec![4, 4],
            dpor: DporCounters {
                races_detected: 2,
                backtrack_points: 1,
                sleep_skips: 1,
            },
            exhausted: true,
            wall_ms: 1,
            phases: ExplorePhases::default(),
        };
        current.phases.capture_us = 77;
        let back: ExploreReport =
            serde_json::from_str(&serde_json::to_string(&current).unwrap()).unwrap();
        assert_eq!(back, current);
    }

    /// Seeds a tree with `n` distinct single-decision prefixes captured
    /// from one machine (structurally shared images, so thousands are
    /// cheap) and returns the surviving keys plus the eviction count.
    fn fill_tree(budget: usize, n: u32) -> (SnapshotTree, Vec<Vec<u32>>, u64) {
        let program = order_violation();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut tree = SnapshotTree::new(budget);
        for i in 0..n {
            assert!(tree.insert(&[i], machine.snapshot(), 0));
        }
        let mut keys: Vec<Vec<u32>> = tree.nodes.keys().cloned().collect();
        keys.sort();
        let evictions = tree.evictions;
        (tree, keys, evictions)
    }

    #[test]
    fn snapshot_tree_lru_eviction_is_deterministic_past_4096_nodes() {
        // Overfill a 4096-node tree and check eviction is exact,
        // oldest-first, and bit-identical across repetitions (the LRU
        // clock is strictly increasing, so the HashMap's iteration order
        // never leaks into which node dies).
        let (tree, keys, evictions) = fill_tree(4096, 5000);
        assert_eq!(tree.len(), 4096);
        assert_eq!(evictions, 5000 - 4096);
        let expect: Vec<Vec<u32>> = (904u32..5000).map(|i| vec![i]).collect();
        assert_eq!(keys, expect, "untouched nodes die strictly oldest-first");
        let (_, keys2, evictions2) = fill_tree(4096, 5000);
        assert_eq!((keys, evictions), (keys2, evictions2));
    }

    #[test]
    fn snapshot_tree_lookup_refreshes_lru_rank() {
        let program = order_violation();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut tree = SnapshotTree::new(8);
        for i in 0..8u32 {
            assert!(tree.insert(&[i], machine.snapshot(), 0));
        }
        // Touch the oldest node, then overflow: the refreshed node must
        // outlive its untouched (now-oldest) neighbor.
        assert!(tree.lookup(&[0]).is_some());
        for i in 8..10u32 {
            assert!(tree.insert(&[i], machine.snapshot(), 0));
        }
        assert!(tree.nodes.contains_key([0u32].as_slice()));
        assert!(!tree.nodes.contains_key([1u32].as_slice()));
        assert!(!tree.nodes.contains_key([2u32].as_slice()));
        assert_eq!(tree.evictions, 2);
    }

    #[test]
    fn snapshot_tree_byte_accounting_survives_eviction_churn() {
        // The running resident-bytes/pages totals must equal the sum of
        // the retained nodes' insert-time footprints at every point, or
        // the byte-budget eviction signal drifts over a long search.
        let (tree, _, _) = fill_tree(512, 2000);
        let bytes: u64 = tree.nodes.values().map(|n| n.footprint.owned_bytes).sum();
        let owned: u64 = tree.nodes.values().map(|n| n.footprint.owned_pages).sum();
        let shared: u64 = tree.nodes.values().map(|n| n.footprint.shared_pages).sum();
        assert_eq!(tree.resident_bytes, bytes);
        assert_eq!(tree.owned_pages, owned);
        assert_eq!(tree.shared_pages, shared);
    }
}
