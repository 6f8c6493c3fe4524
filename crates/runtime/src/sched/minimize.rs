//! Delta-debugging minimization of failing decision traces.
//!
//! A failing schedule found by exploration may carry hundreds of decisions
//! that have nothing to do with the bug. The minimizer shrinks the trace
//! while preserving the *failure signature* (outcome class, failure kind,
//! site and thread), in two phases:
//!
//! 1. **Prefix truncation** — binary-search the shortest failing prefix
//!    (decisions after the bug triggers are dead weight; dropping the tail
//!    usually removes most of the trace at `log n` cost).
//! 2. **ddmin chunk removal** — classic delta debugging over the
//!    remaining decisions at progressively finer granularity.
//!
//! Every candidate executes under a lenient [`ReplayScheduler`] with
//! re-recording on. A run re-records every decision point up to its
//! failure, so dropping decisions from a candidate often just lets the
//! default continuation fill them back in; a candidate is therefore
//! accepted only if its failure signature matches **and** its re-recorded
//! trace is *strictly shorter* than the current one. The accepted
//! re-recording becomes the new current trace, so the final result is
//! always the exact decision log of a real failing run — strictly
//! replayable, never longer than the input — and acceptances are bounded
//! by the trace length: the search ends on its own, not on its budget.
//!
//! Two things keep candidates cheap:
//!
//! * **Memo** — ddmin re-issues identical candidates (removing the last
//!   chunk re-creates a prefix phase 1 already tried). Each distinct
//!   candidate runs once per call; a repeat costs no replay and no budget,
//!   so [`MinimizeReport::candidates`] counts replays actually executed.
//! * **Snapshot resume** — the current trace's run keeps one copy-on-write
//!   [`MachineSnapshot`] per decision index. The interpreter is
//!   deterministic, so a candidate that agrees with the current trace on
//!   its first `p` decisions runs identically up to decision `p`: it
//!   restores the image at `p` and replays only its own suffix, capturing
//!   images as it goes. An accepted candidate's captures are spliced onto
//!   the prefix images it shares, so the new current trace is imaged
//!   without a re-run. Retained images are bounded by the explorer's
//!   snapshot byte accounting; a candidate whose image was dropped resumes
//!   from the nearest shallower one. Soundness rests on the snapshot-fork
//!   invariant `tests/snapshot_fork.rs` enforces.
//!
//! The program is lowered once per call and shared by every candidate.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use super::decision::DecisionTrace;
use super::explore::SNAPSHOT_BYTE_BUDGET;
use super::replay::ReplayScheduler;
use crate::dense::DenseProgram;
use crate::machine::{Machine, MachineConfig, MachineSnapshot};
use crate::outcome::RunOutcome;
use crate::program::Program;

/// What a minimization did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinimizeReport {
    /// Decisions in the input trace.
    pub original_len: usize,
    /// Decisions in the minimized trace.
    pub minimized_len: usize,
    /// Candidate replays executed (memoized repeats excluded).
    pub candidates: usize,
    /// Executed candidates that resumed from a retained snapshot instead
    /// of the program's first step.
    #[serde(default)]
    pub resumed: usize,
    /// Interpreter steps the resumed candidates skipped.
    #[serde(default)]
    pub steps_saved: u64,
    /// The minimized trace (the decision log of a real failing run).
    pub trace: DecisionTrace,
    /// The failing outcome the minimized trace reproduces.
    pub outcome: RunOutcome,
}

/// The equivalence class minimization preserves: two runs fail "the same
/// way" when their outcome class, failure kind, site and thread agree.
fn signature(outcome: &RunOutcome) -> Option<String> {
    match outcome {
        RunOutcome::Completed => None,
        RunOutcome::Failed(f) => Some(format!(
            "failed:{:?}:{:?}:{}",
            f.kind,
            f.site,
            f.thread.index()
        )),
        RunOutcome::Hang { .. } => Some("hang".into()),
        RunOutcome::StepLimit => Some("step-limit".into()),
    }
}

/// Length of the longest common prefix of two decision sequences.
fn common_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// How a candidate's run compares with the current trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Same failure, strictly shorter re-recording — adopted as the
    /// current trace.
    Shorter,
    /// Same failure, re-recording as long as the current trace.
    Reproduces,
    /// Another outcome, or a longer re-recording.
    Rejected,
}

/// A retained image of the current run, just before decision `depth`.
struct Image {
    depth: usize,
    snap: MachineSnapshot,
    /// Owned bytes at insert, subtracted verbatim when the image drops.
    bytes: u64,
}

/// One minimization call's state.
struct Minimizer<'p> {
    program: &'p Program,
    config: MachineConfig,
    dense: Arc<DenseProgram<'p>>,
    /// Scheduler name, seed and mask every candidate trace carries.
    template: DecisionTrace,
    sig: String,
    current: DecisionTrace,
    outcome: RunOutcome,
    /// Decisions of the run `images` were captured from — the current
    /// trace, unless the input had to be clamped.
    imaged: Vec<u32>,
    /// Ascending depth; depth 0 (the initial state) is never held.
    images: Vec<Image>,
    resident_bytes: u64,
    memo: HashMap<Vec<u32>, (RunOutcome, DecisionTrace)>,
    candidates: usize,
    resumed: usize,
    steps_saved: u64,
}

impl<'p> Minimizer<'p> {
    /// Replays `decisions` from the deepest retained image on its path,
    /// capturing an image before each decision from just past the resume
    /// point up to `capture_to`.
    fn execute(
        &mut self,
        decisions: &[u32],
        capture_to: usize,
    ) -> (RunOutcome, DecisionTrace, Vec<(usize, MachineSnapshot)>) {
        self.candidates += 1;
        let agree = common_prefix(decisions, &self.imaged);
        let held = self.images.partition_point(|img| img.depth <= agree);
        let mut machine = Machine::with_shared_dense(self.program, self.dense.clone(), self.config);
        let start = match held.checked_sub(1).map(|i| &self.images[i]) {
            Some(img) => {
                machine.restore_from(&img.snap);
                self.resumed += 1;
                self.steps_saved += img.snap.step();
                img.depth
            }
            None => 0,
        };
        let trace = DecisionTrace {
            decisions: decisions.to_vec(),
            ..self.template.clone()
        };
        let mut sched = ReplayScheduler::resume(trace, start);
        let from = start + 1;
        let (result, snaps) =
            machine.run_captured(&mut sched, from, capture_to.saturating_sub(from));
        let rec = result.decisions.expect("minimizer runs record decisions");
        (result.outcome, rec, snaps)
    }

    fn classify(&self, outcome: &RunOutcome, rec: &DecisionTrace) -> Verdict {
        if signature(outcome).as_deref() != Some(self.sig.as_str())
            || rec.len() > self.current.len()
        {
            Verdict::Rejected
        } else if rec.len() < self.current.len() {
            Verdict::Shorter
        } else {
            Verdict::Reproduces
        }
    }

    /// Makes `rec` the current trace: keeps the images it shares with the
    /// imaged run and appends `snaps` (captured from `rec`'s own run) past
    /// them, within the byte budget.
    fn adopt(
        &mut self,
        outcome: RunOutcome,
        rec: DecisionTrace,
        snaps: Vec<(usize, MachineSnapshot)>,
    ) {
        let shared = common_prefix(&self.imaged, &rec.decisions);
        let keep = self.images.partition_point(|img| img.depth <= shared);
        for img in self.images.drain(keep..) {
            self.resident_bytes -= img.bytes;
        }
        for (depth, snap) in snaps.into_iter().filter(|(d, _)| *d > shared) {
            let bytes = snap.footprint().owned_bytes;
            if self.resident_bytes + bytes > SNAPSHOT_BYTE_BUDGET {
                break;
            }
            self.resident_bytes += bytes;
            self.images.push(Image { depth, snap, bytes });
        }
        self.imaged.clone_from(&rec.decisions);
        self.current = rec;
        self.outcome = outcome;
    }

    /// Runs candidate `decisions` (or recalls its memoized run) and adopts
    /// it when it is [`Verdict::Shorter`].
    fn try_candidate(&mut self, decisions: Vec<u32>) -> Verdict {
        if let Some((outcome, rec)) = self.memo.get(&decisions) {
            let verdict = self.classify(outcome, rec);
            if verdict == Verdict::Shorter {
                let (outcome, rec) = (outcome.clone(), rec.clone());
                self.adopt(outcome, rec, Vec::new());
            }
            return verdict;
        }
        // An accepted run is shorter than the current trace, so images
        // past its length are never needed.
        let (outcome, rec, snaps) = self.execute(&decisions, self.current.len());
        let verdict = self.classify(&outcome, &rec);
        if verdict == Verdict::Shorter {
            self.adopt(outcome.clone(), rec.clone(), snaps);
        }
        self.memo.insert(decisions, (outcome, rec));
        verdict
    }
}

/// Minimizes `trace` (a failing schedule of `program` under `config`),
/// executing at most `budget` candidate replays.
///
/// Errors if the input trace does not fail when replayed.
pub fn minimize(
    program: &Program,
    config: &MachineConfig,
    trace: &DecisionTrace,
    budget: usize,
) -> Result<MinimizeReport, String> {
    let mut cfg = *config;
    cfg.record_decisions = true;
    let mut m = Minimizer {
        program,
        config: cfg,
        dense: Arc::new(DenseProgram::new(&program.module)),
        template: DecisionTrace {
            decisions: Vec::new(),
            ..trace.clone()
        },
        sig: String::new(),
        current: trace.clone(),
        outcome: RunOutcome::Completed,
        imaged: Vec::new(),
        images: Vec::new(),
        resident_bytes: 0,
        memo: HashMap::new(),
        candidates: 0,
        resumed: 0,
        steps_saved: 0,
    };

    let (outcome, recorded, snaps) = m.execute(&trace.decisions, trace.len());
    let Some(sig) = signature(&outcome) else {
        return Err("trace does not fail under replay; nothing to minimize".into());
    };
    m.sig = sig;
    // The baseline re-recording is the canonical form of the input (a
    // failing run stops at the failure, so it is never longer — but clamp
    // to the input anyway to keep the no-longer-than-original guarantee;
    // the images then still describe the recorded run).
    m.adopt(outcome, recorded, snaps);
    if m.current.len() > trace.len() {
        m.current = trace.clone();
    }

    // Phase 1: shortest failing prefix by binary search.
    let mut lo = 0usize;
    let mut hi = m.current.len();
    while lo < hi && m.candidates < budget {
        let mid = lo + (hi - lo) / 2;
        match m.try_candidate(m.current.decisions[..mid].to_vec()) {
            Verdict::Shorter => hi = mid.min(m.current.len()),
            Verdict::Reproduces => hi = mid,
            Verdict::Rejected => lo = mid + 1,
        }
    }

    // Phase 2: ddmin-style chunk removal.
    let mut n = 2usize;
    while m.current.len() >= 2 && m.candidates < budget {
        let chunk = m.current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < m.current.len() && m.candidates < budget {
            let current = &m.current.decisions;
            let mut cand: Vec<u32> = current[..start].to_vec();
            cand.extend_from_slice(&current[(start + chunk).min(current.len())..]);
            if m.try_candidate(cand) == Verdict::Shorter {
                reduced = true;
                // Stay at the same offset: the next chunk slid into place.
            } else {
                start += chunk;
            }
        }
        if reduced {
            n = n.saturating_sub(1).max(2);
        } else if chunk <= 1 {
            break;
        } else {
            n = (n * 2).min(m.current.len());
        }
    }

    Ok(MinimizeReport {
        original_len: trace.len(),
        minimized_len: m.current.len(),
        candidates: m.candidates,
        resumed: m.resumed,
        steps_saved: m.steps_saved,
        trace: m.current,
        outcome: m.outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{explore, run_replay, ExploreConfig, ExploreStrategy, PointMask};
    use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};

    fn order_violation() -> Program {
        let mut mb = ModuleBuilder::new("ov");
        let flag = mb.global("flag", 0);
        let mut fb = FuncBuilder::new("reader", 0);
        // Busy filler before the racy load, so traces have slack to shrink.
        for _ in 0..4 {
            fb.marker("spin");
        }
        let v = fb.load_global(flag);
        let ok = fb.cmp(CmpKind::Ne, v, 0);
        fb.assert(ok, "writer must have published");
        fb.ret();
        mb.function(fb.finish());
        let mut fb = FuncBuilder::new("writer", 0);
        for _ in 0..4 {
            fb.marker("wspin");
        }
        fb.store_global(flag, 1);
        fb.ret();
        mb.function(fb.finish());
        Program::from_entry_names(mb.finish(), &["reader", "writer"])
    }

    #[test]
    fn minimized_trace_still_fails_and_is_no_longer() {
        let program = order_violation();
        let config = MachineConfig::default();
        let mut ec = ExploreConfig::new(ExploreStrategy::Pct { depth: 3 });
        ec.mask = PointMask::SYNC_SHARED;
        let report = explore(&program, &config, &ec);
        let found = report.first_failure.expect("bug found");
        let min = minimize(&program, &config, &found.trace, 256).unwrap();
        assert_eq!(signature(&min.outcome), signature(&found.outcome));
        assert!(min.minimized_len <= min.original_len);
        assert_eq!(min.trace.len(), min.minimized_len);
        // The minimized trace replays to the same failure, cleanly.
        let mut cfg = config;
        cfg.record_decisions = true;
        let (replayed, div) = run_replay(&program, &cfg, &min.trace);
        assert_eq!(div, None);
        assert_eq!(replayed.outcome, min.outcome);
    }

    /// An order violation behind a chatty first thread, and the trace of
    /// its default (non-preemptive) run: `chatter` runs every store before
    /// `reader` fails, though preempting `chatter` at once fails sooner.
    fn chatty_order_violation() -> (Program, DecisionTrace) {
        let mut mb = ModuleBuilder::new("chatty");
        let flag = mb.global("flag", 0);
        let noise = mb.global("noise", 0);
        let mut fb = FuncBuilder::new("chatter", 0);
        for i in 0..12 {
            fb.store_global(noise, i);
        }
        fb.ret();
        mb.function(fb.finish());
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
        let program = Program::from_entry_names(mb.finish(), &["chatter", "reader", "writer"]);
        let config = MachineConfig {
            record_decisions: true,
            ..MachineConfig::default()
        };
        let empty = DecisionTrace::new("test", 0, PointMask::SYNC_SHARED);
        let (result, _) = run_replay(&program, &config, &empty);
        assert!(result.outcome.is_failure());
        (program, result.decisions.expect("recorded"))
    }

    #[test]
    fn strict_progress_shrinks_and_terminates_inside_the_budget() {
        let (program, trace) = chatty_order_violation();
        assert!(trace.len() > 12, "chatter's stores are decision points");
        let min = minimize(&program, &MachineConfig::default(), &trace, 65_536).unwrap();
        assert_eq!(min.minimized_len, 1, "{:?}", min.trace);
        assert_eq!(min.trace.decisions, vec![1], "reader runs first and fails");
        // Acceptances are bounded by the trace length and repeats are free,
        // so the search ends long before its budget.
        assert!(min.candidates <= 2 * trace.len(), "{}", min.candidates);
        // Candidates sharing a prefix with the current trace resume from
        // its images instead of re-running that prefix.
        assert!(min.resumed > 0 && min.resumed < min.candidates);
        assert!(min.steps_saved > 0);
        let (replayed, div) = run_replay(&program, &MachineConfig::default(), &min.trace);
        assert_eq!(div, None);
        assert_eq!(replayed.outcome, min.outcome);
    }

    #[test]
    fn report_without_resume_counters_still_loads() {
        let (program, trace) = chatty_order_violation();
        let min = minimize(&program, &MachineConfig::default(), &trace, 64).unwrap();
        let json = serde_json::to_string(&min).unwrap();
        let resumed = format!("\"resumed\":{},", min.resumed);
        let saved = format!("\"steps_saved\":{},", min.steps_saved);
        assert!(json.contains(&resumed) && json.contains(&saved), "{json}");
        let old = json.replace(&resumed, "").replace(&saved, "");
        let loaded: MinimizeReport = serde_json::from_str(&old).unwrap();
        assert_eq!(
            loaded,
            MinimizeReport {
                resumed: 0,
                steps_saved: 0,
                ..min
            }
        );
    }

    #[test]
    fn completing_trace_is_an_error() {
        let program = order_violation();
        let config = MachineConfig::default();
        // An empty trace replays as the default continuation: reader runs
        // first and fails — so force the benign order instead by letting
        // the writer go first.
        let mut benign = DecisionTrace::new("test", 0, PointMask::SYNC_SHARED);
        for _ in 0..64 {
            benign.decisions.push(1);
        }
        let (result, _div) = run_replay(&program, &config, &benign);
        assert!(result.outcome.is_completed(), "writer-first completes");
        assert!(minimize(&program, &config, &benign, 64).is_err());
    }
}
