//! The repository benchmark: four closed-loop workloads over the ten
//! Table-2 catalog apps.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <harden|survive|hunt|verify> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process issues one operation at a time, each only after the
//! previous one completes. Every operation's output is checked; a failed
//! check counts in `failed` and makes the process exit with code 1. The
//! last line of standard output is one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `perfbench/README.md` for what each metric measures.

mod ops;
mod reference;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ops::{Bench, Op, Records, TrialKind, VERIFY_APPS};
use stats::{geomean, median, percentile, ratio, Rng};
use trace::Tracer;

/// Set-ups timed back to back before the timed loop; `setup_s` is the
/// median of their scaled times (see [`setup_seconds`]).
const SETUP_REPS: usize = 21;

/// Rounds of the fixed trial probe behind `overhead_insts_pct` and
/// `recovery_steps_gm`: per round and app, one clean trial of the
/// unhardened and of the hardened program on the same seed, and one
/// recover trial.
const PROBE_ROUNDS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Harden,
    Survive,
    Hunt,
    Verify,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("harden", Workload::Harden),
        ("survive", Workload::Survive),
        ("hunt", Workload::Hunt),
        ("verify", Workload::Verify),
    ];

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == s).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|&&(_, w)| w == self)
            .map(|&(n, _)| n)
            .expect("every workload is listed")
    }

    /// One round: every operation kind of the workload once, in a seeded
    /// order. Seeds for each operation are drawn as it is issued.
    fn round(self, bench: &Bench, rng: &mut Rng) -> Vec<Op> {
        let mut apps: Vec<usize> = match self {
            Workload::Verify => VERIFY_APPS.iter().map(|n| bench.app_index(n)).collect(),
            _ => (0..bench.apps.len()).collect(),
        };
        rng.shuffle(&mut apps);
        match self {
            Workload::Harden => apps
                .iter()
                .flat_map(|&app| [false, true].map(|fix| Op::Harden { app, fix }))
                .collect(),
            // Trials alternate between the bug script and the benign one.
            Workload::Survive => apps
                .iter()
                .flat_map(|&app| {
                    [TrialKind::Recover, TrialKind::Clean].map(|kind| Op::Survive { app, kind })
                })
                .collect(),
            Workload::Hunt => apps.into_iter().map(|app| Op::Hunt { app }).collect(),
            Workload::Verify => apps.into_iter().map(|app| Op::Verify { app }).collect(),
        }
    }

    /// Timed work each operation kind gets per round. `hunt` runs from
    /// 3 ms (FFT) to 3.5 s (MySQL2) per operation; repeating the short
    /// ones gives their 10th percentile enough samples to be steady.
    fn min_kind_time(self) -> Duration {
        match self {
            Workload::Hunt => Duration::from_millis(100),
            _ => Duration::ZERO,
        }
    }

    /// One FFT operation of each other workload that drives the machine
    /// or the explorer. The traced run ends with these so that every layer
    /// reports on every workload; `harden`'s layers run in set-up.
    fn sweep(self, bench: &Bench) -> Vec<Op> {
        let app = bench.app_index("FFT");
        let mut ops = Vec::new();
        if self != Workload::Survive {
            ops.push(Op::Survive {
                app,
                kind: TrialKind::Recover,
            });
            ops.push(Op::Survive {
                app,
                kind: TrialKind::Clean,
            });
        }
        if self != Workload::Hunt {
            ops.push(Op::Hunt { app });
        }
        if self != Workload::Verify {
            ops.push(Op::Verify { app });
        }
        ops
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One issued operation: what ran, with which seeds.
struct Issued {
    op: Op,
    seeds: (u64, u64),
}

/// What a closed loop measured.
#[derive(Default)]
struct LoopOut {
    issued: Vec<Issued>,
    /// Index of each round's first operation of every kind. The traced
    /// run replays only these, so that repeated kinds do not outweigh the
    /// others in the per-layer figures.
    round_firsts: Vec<usize>,
    /// Latency in milliseconds of each successful operation, per kind.
    latency_ms: BTreeMap<String, Vec<f64>>,
    /// Reference-work samples taken between operations, in milliseconds.
    reference_ms: Vec<f64>,
    /// Latency of each successful operation over the latest reference
    /// sample before it, per kind.
    cost: BTreeMap<String, Vec<f64>>,
    /// Summed latency of the successful operations.
    busy: Duration,
    ok: u64,
    failed: u64,
}

impl LoopOut {
    fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    /// Runs one operation; returns its latency when every check passed.
    fn issue(
        &mut self,
        bench: &Bench,
        op: Op,
        seeds: (u64, u64),
        tracer: &mut Tracer,
        rec: &mut Records,
    ) -> Option<Duration> {
        let (a, b) = seeds;
        tracer.set_op(self.issued.len() as u64);
        tracer.enter("op");
        let result = bench.run(op, a, b, tracer, rec);
        tracer.exit();
        self.issued.push(Issued { op, seeds });
        let label = op.label(&bench.apps);
        match result {
            Ok(t) => {
                self.ok += 1;
                self.busy += t;
                let ms = t.as_secs_f64() * 1e3;
                if let Some(&reference_ms) = self.reference_ms.last() {
                    self.cost
                        .entry(label.clone())
                        .or_default()
                        .push(ms / reference_ms);
                }
                self.latency_ms.entry(label).or_default().push(ms);
                Some(t)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("check failed: {label} (seeds {a}, {b}): {e}");
                None
            }
        }
    }

    /// Geometric mean over operation kinds of each kind's median latency,
    /// in milliseconds: every kind weighs the same, however long it runs.
    fn op_ms_gm(&self) -> f64 {
        median_gm(&self.latency_ms)
    }

    /// [`LoopOut::op_ms_gm`] with each latency divided by the latest
    /// reference sample taken before its operation.
    ///
    /// On a shared 2-vCPU virtual machine the same work ran up to 1.8x
    /// slower for seconds to minutes at a time. Pairing each operation
    /// with a reference sample at most [`reference::EVERY`] older cancels
    /// those spells; over five runs per workload it kept the spread at
    /// 5-9%, where dividing the kinds' 10th-percentile latencies by the
    /// run's 10th-percentile reference spread 4-19%.
    fn op_cost_gm(&self) -> f64 {
        median_gm(&self.cost)
    }
}

/// Geometric mean over the series of each series' median.
fn median_gm(series: &BTreeMap<String, Vec<f64>>) -> f64 {
    let medians: Vec<f64> = series.values().map(|v| median(v)).collect();
    geomean(&medians)
}

/// Issues whole rounds of operations until `seconds` have passed, so that
/// every operation kind is sampled in every round. Within a round a kind
/// repeats, with fresh seeds, until it has run for the workload's
/// [`Workload::min_kind_time`]. Between operations it samples the
/// reference work.
fn closed_loop(
    workload: Workload,
    bench: &Bench,
    rng: &mut Rng,
    seconds: u64,
    tracer: &mut Tracer,
    rec: &mut Records,
) -> LoopOut {
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = LoopOut::default();
    let mut last_reference: Option<Instant> = None;
    while out.issued.is_empty() || start.elapsed() < deadline {
        for op in workload.round(bench, rng) {
            out.round_firsts.push(out.issued.len());
            let mut spent = Duration::ZERO;
            while spent < workload.min_kind_time() || spent.is_zero() {
                if last_reference.is_none_or(|t| t.elapsed() >= reference::EVERY) {
                    out.reference_ms.push(reference::sample_ms());
                    last_reference = Some(Instant::now());
                }
                let seeds = (rng.next_u64(), rng.next_u64());
                match out.issue(bench, op, seeds, tracer, rec) {
                    Some(t) => spent += t,
                    None => break,
                }
            }
        }
    }
    out
}

/// Times `SETUP_REPS` untraced set-ups back to back and returns the
/// median of their times in seconds, each scaled to a host on which the
/// reference work takes [`reference::NOMINAL_MS`], and the median of
/// their raw times.
///
/// Each set-up is scaled by the faster of two reference samples taken
/// just before it. Raw set-up times moved by up to 38% between identical
/// runs on a shared 2-vCPU virtual machine, with the host's speed; the
/// reference work slows with the host, so the scaled time moves with the
/// set-up's own work only.
fn setup_seconds() -> Result<(f64, f64), String> {
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut scaled = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let reference_ms = (0..2)
            .map(|_| reference::sample_ms())
            .fold(f64::INFINITY, f64::min);
        let start = Instant::now();
        ops::setup(&mut Tracer::new(false))?;
        let seconds = start.elapsed().as_secs_f64();
        raw.push(seconds);
        scaled.push(seconds * reference::NOMINAL_MS / reference_ms);
    }
    Ok((median(&scaled), median(&raw)))
}

/// What the fixed trial probe measured.
#[derive(Default)]
struct Probe {
    base_insts: u64,
    hardened_insts: u64,
    /// Per app, the median per-site recovery steps of its recover trials.
    recovery_medians: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Runs `PROBE_ROUNDS` seeded rounds of trials on every app. Its results
/// are counts, which repeat exactly for a given seed.
fn probe(bench: &Bench, rng: &mut Rng) -> Probe {
    let mut p = Probe::default();
    let mut tracer = Tracer::new(false);
    let mut recovery: Vec<Vec<f64>> = vec![Vec::new(); bench.apps.len()];
    for _ in 0..PROBE_ROUNDS {
        for (app, steps) in recovery.iter_mut().enumerate() {
            let seed = rng.next_u64();
            for kind in [TrialKind::Base, TrialKind::Clean, TrialKind::Recover] {
                p.attempted += 1;
                let mut rec = Records::default();
                if let Err(e) = bench.trial(app, kind, seed, &mut tracer, &mut rec) {
                    p.failed += 1;
                    let name = bench.apps[app].w.meta.name;
                    eprintln!("check failed: probe {name} {kind:?} (seed {seed}): {e}");
                    continue;
                }
                let t = &rec.trials[0];
                match kind {
                    TrialKind::Base => p.base_insts += t.insts,
                    TrialKind::Clean => p.hardened_insts += t.insts,
                    TrialKind::Recover => steps.extend(t.recovery_steps.iter().map(|&s| s as f64)),
                }
            }
        }
    }
    p.recovery_medians = recovery
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    p
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(setup_s: f64, out: &LoopOut, probe: &Probe) -> Metrics {
    vec![
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("op_cost_gm", out.op_cost_gm(), "ref"),
        (
            "overhead_insts_pct",
            100.0 * ratio(probe.hardened_insts as f64, probe.base_insts as f64) - 100.0,
            "%",
        ),
        (
            "recovery_steps_gm",
            geomean(&probe.recovery_medians),
            "steps",
        ),
    ]
}

/// Per-layer metrics of the traced run. Times are mean self time per
/// call of the layer's spans; counts come from the results those calls
/// returned.
fn per_layer(
    workload: Workload,
    bench: &Bench,
    tracer: &Tracer,
    rec: &Records,
    plain_busy: Duration,
    traced_busy: Duration,
) -> Metrics {
    let self_times = tracer.self_times();
    let mean_self_us = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |&(calls, ns)| ratio(ns as f64 / 1e3, calls as f64))
    };
    let total_self_us = |name: &str| self_times.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e3);

    let analyze_calls = self_times.get("analysis.analyze").map_or(0, |e| e.0) as f64;
    // Set-up's plans are the traced set-up's; the rest come from `harden`.
    let setup_optimize_ns: u128 = bench
        .apps
        .iter()
        .map(|a| a.plan.stats.optimize_wall.as_nanos())
        .sum();
    let optimize_us = (rec.optimize_ns.iter().sum::<u64>() as f64 + setup_optimize_ns as f64) / 1e3;
    let analyze_us = ratio(
        total_self_us("analysis.analyze") - optimize_us,
        analyze_calls,
    );

    let hardened: Vec<_> = rec
        .trials
        .iter()
        .filter(|t| t.kind != TrialKind::Base)
        .collect();
    let n = hardened.len() as f64;
    let per_trial = |f: &dyn Fn(&ops::TrialRec) -> u64| {
        ratio(hardened.iter().map(|t| f(t)).sum::<u64>() as f64, n)
    };
    let run_ns: Vec<f64> = tracer
        .durations("machine.run")
        .iter()
        .map(|&ns| ns as f64)
        .collect();
    let steps: u64 = rec.trials.iter().map(|t| t.steps).sum();
    let trial_us = |kind: TrialKind, q: f64| {
        let us: Vec<f64> = rec
            .trials
            .iter()
            .zip(&run_ns)
            .filter(|(t, _)| t.kind == kind)
            .map(|(_, ns)| ns / 1e3)
            .collect();
        percentile(&us, q)
    };
    let rollbacks: u64 = hardened.iter().map(|t| t.rollbacks).sum();
    let recovered: usize = hardened.iter().map(|t| t.recovery_steps.len()).sum();

    // `explore.*` describes the workload's own searches where it has them;
    // the FFT sweep stands in only on workloads that never search.
    let (explores, explore_spans): (Vec<_>, &[&str]) = match workload {
        Workload::Hunt => (rec.bounded.iter().collect(), &["bounded.explore"]),
        Workload::Verify => (rec.dpor.iter().collect(), &["dpor.explore"]),
        _ => (
            rec.bounded.iter().chain(&rec.dpor).collect(),
            &["bounded.explore", "dpor.explore"],
        ),
    };
    let explore_ns: u64 = explore_spans
        .iter()
        .flat_map(|name| tracer.durations(name))
        .sum();
    let explore_sum = |f: &dyn Fn(&conair_runtime::ExploreReport) -> u64| {
        explores.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    let explore_mean = |f: &dyn Fn(&conair_runtime::ExploreReport) -> u64| {
        ratio(explore_sum(f), explores.len() as f64)
    };
    let dpor_mean = |f: &dyn Fn(&conair_runtime::ExploreReport) -> u64| {
        ratio(
            rec.dpor.iter().map(f).sum::<u64>() as f64,
            rec.dpor.len() as f64,
        )
    };
    let dpor_merge_us: u64 = rec.dpor.iter().map(|r| r.phases.merge_us).sum();
    let dpor_us = tracer.durations("dpor.explore").iter().sum::<u64>() as f64 / 1e3;
    let to_bug: Vec<f64> = rec
        .bounded
        .iter()
        .filter_map(|r| r.first_failure.as_ref())
        .map(|f| (f.index + 1) as f64)
        .collect();
    let removed: usize = rec.minimizes.iter().map(|m| m.0 - m.1).sum();
    let candidates: usize = rec.minimizes.iter().map(|m| m.2).sum();

    let plans = bench.apps.iter().map(|a| &a.plan.stats);
    vec![
        ("ir.parse_us", mean_self_us("ir.parse"), "us"),
        ("ir.validate_us", mean_self_us("ir.validate"), "us"),
        ("analysis.analyze_us", analyze_us, "us"),
        (
            "analysis.optimize_us",
            ratio(optimize_us, analyze_calls),
            "us",
        ),
        (
            "analysis.static_points",
            plans.clone().map(|s| s.static_points).sum::<usize>() as f64,
            "count",
        ),
        (
            "analysis.recoverable_sites",
            plans.map(|s| s.recoverable_sites).sum::<usize>() as f64,
            "count",
        ),
        (
            "transform.harden_us",
            mean_self_us("transform.harden"),
            "us",
        ),
        (
            "transform.checkpoints",
            bench
                .apps
                .iter()
                .map(|a| a.checkpoints_inserted)
                .sum::<usize>() as f64,
            "count",
        ),
        (
            "machine.steps_per_s",
            ratio(steps as f64, run_ns.iter().sum::<f64>() / 1e9),
            "1/s",
        ),
        ("machine.insts_per_trial", per_trial(&|t| t.insts), "count"),
        (
            "machine.context_switches_per_trial",
            per_trial(&|t| t.context_switches),
            "count",
        ),
        (
            "checkpoint.saves_per_trial",
            per_trial(&|t| t.checkpoints),
            "count",
        ),
        (
            "checkpoint.rollbacks_per_trial",
            per_trial(&|t| t.rollbacks),
            "count",
        ),
        (
            "checkpoint.undo_depth_p99",
            rec.undo_depth.percentile(0.99).unwrap_or(0) as f64,
            "count",
        ),
        (
            "checkpoint.recovered_per_rollback",
            ratio(recovered as f64, rollbacks as f64),
            "ratio",
        ),
        (
            "locks.wait_steps_p99",
            rec.lock_waits.percentile(0.99).unwrap_or(0) as f64,
            "steps",
        ),
        (
            "harness.trial_us_p50.clean",
            trial_us(TrialKind::Clean, 0.5),
            "us",
        ),
        (
            "harness.trial_us_p90.clean",
            trial_us(TrialKind::Clean, 0.9),
            "us",
        ),
        (
            "harness.trial_us_p50.recover",
            trial_us(TrialKind::Recover, 0.5),
            "us",
        ),
        (
            "harness.trial_us_p90.recover",
            trial_us(TrialKind::Recover, 0.9),
            "us",
        ),
        (
            "explore.schedules_per_s",
            ratio(
                explore_sum(&|r| r.schedules as u64),
                explore_ns as f64 / 1e9,
            ),
            "1/s",
        ),
        (
            "explore.interpret_us",
            explore_mean(&|r| r.phases.interpret_us),
            "us",
        ),
        (
            "explore.capture_us",
            explore_mean(&|r| r.phases.capture_us),
            "us",
        ),
        (
            "explore.restore_us",
            explore_mean(&|r| r.phases.restore_us),
            "us",
        ),
        (
            "explore.merge_us",
            explore_mean(&|r| r.phases.merge_us),
            "us",
        ),
        (
            "explore.snapshot_hit_rate",
            ratio(
                explore_sum(&|r| r.snapshot_hits),
                explore_sum(&|r| r.schedules as u64),
            ),
            "ratio",
        ),
        (
            "explore.steps_saved",
            explore_mean(&|r| r.steps_saved),
            "steps",
        ),
        (
            "dpor.schedules",
            dpor_mean(&|r| r.schedules as u64),
            "count",
        ),
        (
            "dpor.races_detected",
            dpor_mean(&|r| r.dpor.races_detected),
            "count",
        ),
        (
            "dpor.backtrack_points",
            dpor_mean(&|r| r.dpor.backtrack_points),
            "count",
        ),
        (
            "dpor.sleep_skips",
            dpor_mean(&|r| r.dpor.sleep_skips),
            "count",
        ),
        (
            "dpor.merge_share",
            ratio(dpor_merge_us as f64, dpor_us),
            "ratio",
        ),
        ("bounded.explore_us", mean_self_us("bounded.explore"), "us"),
        (
            "bounded.schedules_to_bug",
            ratio(to_bug.iter().sum(), to_bug.len() as f64),
            "count",
        ),
        ("minimize.us", mean_self_us("minimize.run"), "us"),
        (
            "minimize.candidates",
            ratio(candidates as f64, rec.minimizes.len() as f64),
            "count",
        ),
        (
            "minimize.removed_per_candidate",
            ratio(removed as f64, candidates as f64),
            "ratio",
        ),
        ("replay.us", mean_self_us("replay.run"), "us"),
        ("replay.divergences", rec.divergences as f64, "count"),
        (
            "trace.overhead_pct",
            100.0 * ratio(traced_busy.as_secs_f64(), plain_busy.as_secs_f64()) - 100.0,
            "%",
        ),
    ]
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rng = Rng::new(args.seed);
    // The probe draws from its own stream so that its counts do not
    // depend on how many operations the timed loop issued.
    let mut probe_rng = Rng::new(!args.seed);

    // Set-up: catalog build, IR printing and parsing, hardening. This
    // first one is traced and its product is what the workload uses; an
    // untraced run then repeats it for `setup_s`.
    let mut tracer = Tracer::new(args.trace);
    let apps = ops::setup(&mut tracer).unwrap_or_else(|e| {
        eprintln!("perfbench: set-up failed: {e}");
        std::process::exit(1);
    });
    let bench = Bench::new(apps);
    println!(
        "workload {}, seed {}, {} s, explorer jobs {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        bench.jobs
    );
    let setup_s = if args.trace {
        0.0
    } else {
        let (scaled, raw) = setup_seconds().unwrap_or_else(|e| {
            eprintln!("perfbench: repeated set-up failed: {e}");
            std::process::exit(1);
        });
        println!("set-up: {raw:.6} s raw median of {SETUP_REPS}, {scaled:.6} s scaled");
        scaled
    };

    // The measured loop always runs untraced. The traced run then replays
    // one operation of every kind per round twice, with spans off and on.
    let mut untraced = Tracer::new(false);
    let mut rec = Records::default();
    // The replay runs each operation twice, so the loop gets a third of
    // the time.
    let loop_seconds = if args.trace {
        args.seconds.div_ceil(3)
    } else {
        args.seconds
    };
    let out = closed_loop(
        args.workload,
        &bench,
        &mut rng,
        loop_seconds,
        &mut untraced,
        &mut rec,
    );
    let (attempted, failed, metrics) = if args.trace {
        // Each operation runs untraced and traced back to back, the order
        // alternating, so that the host's drift over the run cancels out of
        // the tracing overhead. Only the traced pass feeds the records.
        let mut rec = Records::default();
        let mut plain_rec = Records::default();
        let mut traced = LoopOut::default();
        let mut plain = LoopOut::default();
        // Per kind: (index of its first appearance, pairs run so far). A
        // kind's order flips on every repeat and alternates between kinds,
        // so each order gets its share of the long kinds too.
        let mut kinds: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for &i in &out.round_firsts {
            let x = &out.issued[i];
            let next = kinds.len();
            let (first, pairs) = kinds.entry(x.op.label(&bench.apps)).or_insert((next, 0));
            let plain_first = (*first + *pairs) % 2 == 0;
            *pairs += 1;
            if plain_first {
                plain.issue(&bench, x.op, x.seeds, &mut untraced, &mut plain_rec);
            }
            traced.issue(&bench, x.op, x.seeds, &mut tracer, &mut rec);
            if !plain_first {
                plain.issue(&bench, x.op, x.seeds, &mut untraced, &mut plain_rec);
            }
        }
        let (plain_busy, traced_busy) = (plain.busy, traced.busy);
        for op in args.workload.sweep(&bench) {
            let seeds = (rng.next_u64(), rng.next_u64());
            traced.issue(&bench, op, seeds, &mut tracer, &mut rec);
        }
        let path = spans_path(args.workload.name(), args.seed);
        let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("spans written to {}", path.display());
        (
            out.attempted() + plain.attempted() + traced.attempted(),
            out.failed + plain.failed + traced.failed,
            per_layer(
                args.workload,
                &bench,
                &tracer,
                &rec,
                plain_busy,
                traced_busy,
            ),
        )
    } else {
        let p = probe(&bench, &mut probe_rng);
        (
            out.attempted() + p.attempted,
            out.failed + p.failed,
            end_to_end(setup_s, &out, &p),
        )
    };

    println!(
        "{} operations ({} kinds), {} checks failed, error_rate {}",
        attempted,
        out.latency_ms.len(),
        failed,
        ratio(failed as f64, attempted as f64)
    );
    for (kind, ms) in &out.latency_ms {
        println!(
            "{kind:<36} {:>12.4} ms p10, {:>12.4} ms median of {}",
            percentile(ms, 0.1),
            median(ms),
            ms.len()
        );
    }
    if !args.trace {
        println!(
            "op_ms_gm {:.4} ms, reference median {:.4} ms over {} samples",
            out.op_ms_gm(),
            median(&out.reference_ms),
            out.reference_ms.len()
        );
    }
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    if failed > 0 {
        std::process::exit(1);
    }
}
