//! Set-up, the four workloads' operations and their output checks.
//!
//! Every operation is split into a timed part, which makes only the calls
//! a user of the library would make, and an untimed check against a
//! reference the code under test did not produce: the catalog's expected
//! outputs and documented symptoms, the marker positions in the original
//! module, and the failure signature of the run the explorer found.

use std::time::{Duration, Instant};

use conair::{Conair, HardeningPlan};
use conair_bench::BenchConfig;
use conair_ir::{parse_module, validate, validate_hardened, FailureKind, Module};
use conair_runtime::{
    explore, minimize, run_replay, run_scripted, ExploreConfig, ExploreReport, ExploreStrategy,
    Histogram, MachineConfig, PointMask, Program, RunOutcome, RunResult,
};
use conair_transform::harden;
use conair_workloads::{all_workloads, explore_hint, verify_hint, Symptom, Workload};

use crate::trace::Tracer;

/// The apps `verify` runs. MySQL1 and MySQL2 take minutes to exhaust,
/// HTTrack about 11 s and MozillaXP about 24 s, too long for one run.
pub const VERIFY_APPS: [&str; 6] = [
    "FFT",
    "ZSNES",
    "HawkNL",
    "SQLite",
    "MozillaJS",
    "Transmission",
];

/// One catalog app after set-up: the program parsed back from its printed
/// IR, and its survival-mode hardening.
pub struct App {
    pub w: Workload,
    pub text: String,
    pub hardened: Program,
    pub plan: HardeningPlan,
    pub checkpoints_inserted: usize,
    survival: Conair,
    fix: Conair,
}

/// Builds the catalog, prints each app's IR, parses it back and hardens
/// it. Every later operation runs on these parsed programs only.
pub fn setup(tracer: &mut Tracer) -> Result<Vec<App>, String> {
    let catalog = tracer.span("catalog.build", all_workloads);
    let mut apps = Vec::with_capacity(catalog.len());
    for mut w in catalog {
        let name = w.meta.name;
        let text = tracer.span("ir.print", || w.program.module.to_string());
        let module = tracer
            .span("ir.parse", || parse_module(&text))
            .map_err(|e| format!("{name}: printed IR does not parse: {e}"))?;
        if module != w.program.module {
            return Err(format!("{name}: printed IR parses to a different module"));
        }
        tracer
            .span("ir.validate", || validate(&module))
            .map_err(|e| format!("{name}: parsed module invalid: {e:?}"))?;
        w.program = w.program.with_module(module);
        let survival = Conair::survival();
        let plan = tracer.span("analysis.analyze", || survival.analyze(&w.program.module));
        let input = w.program.module.clone();
        let hardened = tracer.span("transform.harden", || harden(input, &plan));
        tracer
            .span("ir.validate", || validate_hardened(&hardened.module))
            .map_err(|e| format!("{name}: hardened module invalid: {e:?}"))?;
        apps.push(App {
            fix: Conair::fix(w.fix_markers.clone()),
            survival,
            hardened: w.program.with_module(hardened.module),
            checkpoints_inserted: hardened.stats.checkpoints,
            plan,
            text,
            w,
        });
    }
    Ok(apps)
}

/// The kinds of trial the machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialKind {
    /// Hardened program, benign script: no failure, checkpoints only.
    Clean,
    /// Hardened program, bug script: the failure is forced, so recovery
    /// rolls back and re-executes.
    Recover,
    /// Unhardened program, benign script: the overhead baseline.
    Base,
}

/// One operation of a workload, with the seeds drawn for it.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Harden { app: usize, fix: bool },
    Survive { app: usize, kind: TrialKind },
    Hunt { app: usize },
    Verify { app: usize },
}

impl Op {
    /// The operation kind, one latency series per kind.
    pub fn label(&self, apps: &[App]) -> String {
        match *self {
            Op::Harden { app, fix } => {
                let mode = if fix { "fix" } else { "survival" };
                format!("harden.{}.{mode}", apps[app].w.meta.name)
            }
            Op::Survive { app, kind } => {
                let k = match kind {
                    TrialKind::Clean => "clean",
                    TrialKind::Recover => "recover",
                    TrialKind::Base => "base",
                };
                format!("survive.{}.{k}", apps[app].w.meta.name)
            }
            Op::Hunt { app } => format!("hunt.{}", apps[app].w.meta.name),
            Op::Verify { app } => format!("verify.{}", apps[app].w.meta.name),
        }
    }
}

/// Counts recorded at the layer boundaries the benchmark calls.
#[derive(Debug, Default)]
pub struct Records {
    pub trials: Vec<TrialRec>,
    pub undo_depth: Histogram,
    pub lock_waits: Histogram,
    /// `PlanStats::optimize_wall` of every `analysis.analyze` call.
    pub optimize_ns: Vec<u64>,
    pub bounded: Vec<ExploreReport>,
    pub dpor: Vec<ExploreReport>,
    /// `(original_len, minimized_len, candidates)` of every minimization.
    pub minimizes: Vec<(usize, usize, usize)>,
    /// Replays of minimized traces that diverged.
    pub divergences: u64,
}

#[derive(Debug, Clone)]
pub struct TrialRec {
    pub kind: TrialKind,
    pub steps: u64,
    pub insts: u64,
    pub context_switches: u64,
    pub checkpoints: u64,
    pub rollbacks: u64,
    pub recovery_steps: Vec<u64>,
}

impl Records {
    fn add_trial(&mut self, kind: TrialKind, r: &RunResult) {
        self.undo_depth.merge(&r.metrics.undo_depth);
        self.lock_waits.merge(&r.metrics.lock_waits);
        let recovery_steps: Vec<u64> = r
            .stats
            .site_recovery
            .values()
            .filter_map(|s| s.recovery_steps())
            .collect();
        self.trials.push(TrialRec {
            kind,
            steps: r.stats.steps,
            insts: r.stats.insts,
            context_switches: r.metrics.context_switches,
            checkpoints: r.stats.checkpoints,
            rollbacks: r.stats.rollbacks,
            recovery_steps,
        });
    }
}

/// What every operation shares: the apps, the machine settings and the
/// explorer's worker count.
pub struct Bench {
    pub apps: Vec<App>,
    /// `conair-bench`'s experiment machine, used for every trial.
    pub trial_machine: MachineConfig,
    /// Explorer workers, the setting `--jobs` gives.
    pub jobs: usize,
}

/// A timed operation's result: its latency, or the check it failed.
pub type OpResult = Result<Duration, String>;

impl Bench {
    pub fn new(apps: Vec<App>) -> Self {
        Self {
            apps,
            trial_machine: BenchConfig::default().machine(),
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    pub fn app_index(&self, name: &str) -> usize {
        self.apps
            .iter()
            .position(|a| a.w.meta.name == name)
            .expect("name is in the Table-2 catalog")
    }

    /// Runs `op` with seeds `(a, b)`, records its counts in `rec` and
    /// checks its outputs. Returns the latency of the timed part.
    pub fn run(&self, op: Op, a: u64, b: u64, tracer: &mut Tracer, rec: &mut Records) -> OpResult {
        match op {
            Op::Harden { app, fix } => self.harden(app, fix, a, tracer, rec),
            Op::Survive { app, kind } => self.trial(app, kind, a, tracer, rec),
            Op::Hunt { app } => self.hunt(app, a, b, tracer, rec),
            Op::Verify { app } => self.verify(app, a, b, tracer, rec),
        }
    }

    /// `harden`: parse the app's IR, analyze, transform, validate.
    fn harden(
        &self,
        app: usize,
        fix: bool,
        trial_seed: u64,
        tracer: &mut Tracer,
        rec: &mut Records,
    ) -> OpResult {
        let a = &self.apps[app];
        let conair = if fix { &a.fix } else { &a.survival };
        let start = Instant::now();
        let module = tracer
            .span("ir.parse", || parse_module(&a.text))
            .map_err(|e| format!("parse: {e}"))?;
        let plan = tracer.span("analysis.analyze", || conair.analyze(&module));
        let hardened = tracer.span("transform.harden", || harden(module, &plan));
        let valid = tracer.span("ir.validate", || validate_hardened(&hardened.module));
        let elapsed = start.elapsed();
        rec.optimize_ns
            .push(plan.stats.optimize_wall.as_nanos() as u64);

        valid.map_err(|e| format!("hardened module invalid: {e:?}"))?;
        markers_recoverable(&a.w.program.module, &a.w.fix_markers, &plan)?;
        let program = a.w.program.with_module(hardened.module);
        let r = run_scripted(&program, &self.trial_machine, &a.w.bug_script, trial_seed);
        expect_correct(&a.w, &r, "bug-forced trial of the hardened program")?;
        Ok(elapsed)
    }

    /// `survive`: one seeded trial. Clean and recover trials run the
    /// hardened program; base trials run the unhardened one.
    pub fn trial(
        &self,
        app: usize,
        kind: TrialKind,
        seed: u64,
        tracer: &mut Tracer,
        rec: &mut Records,
    ) -> OpResult {
        let a = &self.apps[app];
        let (program, script) = match kind {
            TrialKind::Clean => (&a.hardened, &a.w.benign_script),
            TrialKind::Recover => (&a.hardened, &a.w.bug_script),
            TrialKind::Base => (&a.w.program, &a.w.benign_script),
        };
        let start = Instant::now();
        let r = tracer.span("machine.run", || {
            run_scripted(program, &self.trial_machine, script, seed)
        });
        let elapsed = start.elapsed();
        rec.add_trial(kind, &r);
        expect_correct(&a.w, &r, "trial")?;
        Ok(elapsed)
    }

    /// `hunt`: bounded search of the unhardened app with its explore hint,
    /// minimization at the same budget, replay of the minimized trace.
    fn hunt(
        &self,
        app: usize,
        explore_seed: u64,
        backoff_seed: u64,
        tracer: &mut Tracer,
        rec: &mut Records,
    ) -> OpResult {
        let a = &self.apps[app];
        let name = a.w.meta.name;
        let hint = explore_hint(name).expect("catalog app has an explore hint");
        let machine = MachineConfig {
            backoff_seed,
            ..MachineConfig::default()
        };
        let mut ec = ExploreConfig::new(hint.strategy);
        ec.mask = hint.mask;
        ec.budget = hint.budget;
        ec.seed = explore_seed;
        ec.jobs = self.jobs;

        let start = Instant::now();
        let report = tracer.span("bounded.explore", || explore(&a.w.program, &machine, &ec));
        let Some(found) = report.first_failure.clone() else {
            rec.bounded.push(report);
            return Err(format!("no failing schedule within budget {}", hint.budget));
        };
        let min = tracer.span("minimize.run", || {
            minimize(&a.w.program, &machine, &found.trace, hint.budget)
        });
        let replayed = match &min {
            Ok(m) => Some(tracer.span("replay.run", || {
                run_replay(&a.w.program, &machine, &m.trace)
            })),
            Err(_) => None,
        };
        let elapsed = start.elapsed();
        rec.bounded.push(report);

        if !matches_symptom(a.w.meta.symptom, &found.outcome) {
            return Err(format!(
                "found {:?}, documented symptom is {}",
                found.outcome, a.w.meta.symptom
            ));
        }
        let min = min.map_err(|e| format!("minimize: {e}"))?;
        rec.minimizes
            .push((min.original_len, min.minimized_len, min.candidates));
        let (r, divergence) = replayed.expect("replayed when minimize succeeded");
        if let Some(d) = divergence {
            rec.divergences += 1;
            return Err(format!("minimized trace diverged on replay: {d:?}"));
        }
        if signature(&r.outcome) != signature(&found.outcome) {
            return Err(format!(
                "minimized replay fails as {:?}, the search found {:?}",
                r.outcome, found.outcome
            ));
        }
        Ok(elapsed)
    }

    /// `verify`: exhaustive DPOR search of the hardened app, as
    /// `conair verify` runs it.
    fn verify(
        &self,
        app: usize,
        explore_seed: u64,
        backoff_seed: u64,
        tracer: &mut Tracer,
        rec: &mut Records,
    ) -> OpResult {
        let a = &self.apps[app];
        let hint = verify_hint(a.w.meta.name).expect("catalog app has a verify hint");
        let machine = MachineConfig {
            max_retries: hint.max_retries,
            retry_backoff: true,
            backoff_seed,
            ..MachineConfig::default()
        };
        let mut ec = ExploreConfig::new(ExploreStrategy::Dpor {
            preemptions: hint.preemptions,
        });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = hint.budget;
        ec.seed = explore_seed;
        ec.jobs = self.jobs;

        let start = Instant::now();
        let report = tracer.span("dpor.explore", || explore(&a.hardened, &machine, &ec));
        let elapsed = start.elapsed();
        let verdict = (report.exhausted, report.failures, report.schedules);
        rec.dpor.push(report);
        match verdict {
            (true, 0, _) => Ok(elapsed),
            (exhausted, failures, schedules) => Err(format!(
                "not VERIFIED: exhausted {exhausted}, {failures} failures in {schedules} \
                 schedules (budget {})",
                hint.budget
            )),
        }
    }
}

fn expect_correct(w: &Workload, r: &RunResult, what: &str) -> Result<(), String> {
    if !r.outcome.is_completed() {
        return Err(format!("{what} did not complete: {:?}", r.outcome));
    }
    w.verify_outputs(r).map_err(|e| format!("{what}: {e}"))
}

/// Each fix marker names the first failure site after it in its basic
/// block; that site must be judged recoverable.
fn markers_recoverable(
    original: &Module,
    markers: &[String],
    plan: &HardeningPlan,
) -> Result<(), String> {
    for name in markers {
        let m = original
            .marker(name)
            .ok_or_else(|| format!("marker `{name}` missing"))?;
        let site = plan
            .sites
            .iter()
            .filter(|s| s.site.loc.func == m.func && s.site.loc.block == m.block)
            .filter(|s| s.site.loc.inst > m.inst)
            .min_by_key(|s| s.site.loc.inst)
            .ok_or_else(|| format!("no failure site follows marker `{name}`"))?;
        if !site.is_recoverable() {
            return Err(format!("site at marker `{name}` judged {:?}", site.verdict));
        }
    }
    Ok(())
}

/// Whether an outcome shows the documented Table-2 symptom.
fn matches_symptom(symptom: Symptom, outcome: &RunOutcome) -> bool {
    let kind = match outcome {
        RunOutcome::Hang { .. } => return symptom == Symptom::Hang,
        RunOutcome::Failed(f) => f.kind,
        _ => return false,
    };
    matches!(
        (symptom, kind),
        (Symptom::Assertion, FailureKind::AssertionViolation)
            | (Symptom::SegFault, FailureKind::SegFault)
            | (Symptom::WrongOutput, FailureKind::WrongOutput)
    )
}

/// Two runs fail the same way when the outcome class, failure kind, site
/// and thread agree.
fn signature(outcome: &RunOutcome) -> String {
    match outcome {
        RunOutcome::Failed(f) => format!("failed:{:?}:{:?}:{:?}", f.kind, f.site, f.thread),
        RunOutcome::Hang { .. } => "hang".into(),
        RunOutcome::StepLimit => "step-limit".into(),
        RunOutcome::Completed => "completed".into(),
    }
}
