//! Golden exploration reports: the explorer's full output — schedule and
//! failure counts, the first failing trace, the snapshot-cache, dedup
//! and DPOR counters, the wave widths and the `exhausted`
//! verdict — for a fixed set of searches, checked against
//! `assets/explore_golden.json`.
//!
//! The other exploration tests compare runs against each other (across
//! `jobs`, snapshot budgets, observers); this one pins absolute values,
//! so a refactor of the search loop that changes *what* is explored is
//! caught even when it changes every configuration the same way. Only
//! the wall-clock fields (`wall_ms`, `phases`) are zeroed.
//!
//! After an intentional change to the search, re-record the asset with
//! `cargo test --test explore_golden -- --ignored record_golden` and
//! review the diff.

use conair::Conair;
use conair_ir::parse_module;
use conair_runtime::{
    explore, ExploreConfig, ExplorePhases, ExploreReport, ExploreStrategy, MachineConfig,
    PointMask, Program,
};
use conair_workloads::{explore_hint, verify_hint, workload_by_name};
use serde::{Deserialize, Serialize};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/assets/explore_golden.json");

/// One pinned search and its report.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenCase {
    name: String,
    report: ExploreReport,
}

/// A `.cir` asset with every zero-parameter function as a thread, as
/// `conair-cli explore` loads it.
fn asset(file: &str) -> Program {
    let path = format!("{}/assets/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let module = parse_module(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let names: Vec<String> = module
        .functions
        .iter()
        .filter(|f| f.num_params == 0)
        .map(|f| f.name.clone())
        .collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    Program::from_entry_names(module, &names)
}

/// The bounded machine the catalog searches run under (as in
/// `tests/exploration.rs`).
fn hunt_machine() -> MachineConfig {
    MachineConfig {
        lock_timeout: 200,
        step_limit: 2_000_000,
        ..MachineConfig::default()
    }
}

/// The fair retry model `conair verify` runs under (as in
/// `tests/verify.rs`).
fn verify_machine(max_retries: u64) -> MachineConfig {
    MachineConfig {
        max_retries,
        retry_backoff: true,
        ..hunt_machine()
    }
}

fn config(strategy: ExploreStrategy, mask: PointMask, budget: usize) -> ExploreConfig {
    let mut ec = ExploreConfig::new(strategy);
    ec.mask = mask;
    ec.budget = budget;
    // Reports are jobs-invariant; running on two workers keeps the
    // fan-out and the index-order merge inside what is pinned.
    ec.jobs = 2;
    ec
}

fn pinned(report: ExploreReport) -> ExploreReport {
    ExploreReport {
        wall_ms: 0,
        phases: ExplorePhases::default(),
        ..report
    }
}

/// The catalog bug search `hunt` runs: bounded search under the
/// workload's `explore_hint`.
fn hunt(name: &str) -> ExploreReport {
    let w = workload_by_name(name).expect("registered workload");
    let hint = explore_hint(name).expect("catalog workload has a hint");
    let mut ec = config(hint.strategy, hint.mask, hint.budget);
    ec.seed = hint.seed;
    explore(&w.program, &hunt_machine(), &ec)
}

/// `conair verify`'s DPOR search of the hardened workload under its
/// `verify_hint`.
fn verify(name: &str) -> ExploreReport {
    let w = workload_by_name(name).expect("registered workload");
    let hint = verify_hint(name).expect("catalog workload has a verify hint");
    let hardened = Conair::survival().harden(&w.program);
    let ec = config(
        ExploreStrategy::Dpor {
            preemptions: hint.preemptions,
        },
        PointMask::SYNC_SHARED,
        hint.budget,
    );
    explore(&hardened.program, &verify_machine(hint.max_retries), &ec)
}

fn run_cases() -> Vec<GoldenCase> {
    let ov = asset("order_violation.cir");
    let dl = asset("deadlock.cir");
    let pct = ExploreStrategy::Pct { depth: 3 };
    let mut cases: Vec<(&str, ExploreReport)> = Vec::new();

    let ec = config(pct, PointMask::SYNC_SHARED, 256);
    cases.push(("pct-ov-stop-at-first", explore(&ov, &hunt_machine(), &ec)));

    let mut ec = config(pct, PointMask::SYNC_SHARED, 128);
    ec.stop_at_first = false;
    cases.push(("pct-ov-keep-going", explore(&ov, &hunt_machine(), &ec)));

    // The probe passes here, so stop-at-first PCT runs ramped waves.
    let w = workload_by_name("HawkNL").expect("registered workload");
    let ec = config(pct, PointMask::SYNC, 256);
    cases.push((
        "pct-hawknl-stop-at-first",
        explore(&w.program, &hunt_machine(), &ec),
    ));

    let mut ec = config(
        ExploreStrategy::Bounded { preemptions: 2 },
        PointMask::SYNC,
        128,
    );
    ec.stop_at_first = false;
    cases.push((
        "bounded-k2-deadlock-keep-going",
        explore(&dl, &hunt_machine(), &ec),
    ));

    // Shared-access points make every shared load and store a branch
    // point; a small snapshot budget that the frontier outgrows pins the
    // cache-pressure guard on captures.
    let fft = workload_by_name("FFT").expect("registered workload");
    let mut ec = config(
        ExploreStrategy::Bounded { preemptions: 2 },
        PointMask::SYNC_SHARED,
        128,
    );
    ec.stop_at_first = false;
    ec.snapshot_budget = 64;
    cases.push((
        "bounded-k2-fft-shared-keep-going",
        explore(&fft.program, &hunt_machine(), &ec),
    ));

    let ec = config(
        ExploreStrategy::Dpor { preemptions: 2 },
        PointMask::SYNC_SHARED,
        256,
    );
    cases.push((
        "dpor-deadlock-stop-at-first",
        explore(&dl, &hunt_machine(), &ec),
    ));

    cases.push(("verify-fft", verify("FFT")));
    cases.push(("verify-hawknl", verify("HawkNL")));
    cases.push(("hunt-mozillajs", hunt("MozillaJS")));
    cases.push(("hunt-mysql2", hunt("MySQL2")));

    cases
        .into_iter()
        .map(|(name, report)| GoldenCase {
            name: name.to_string(),
            report: pinned(report),
        })
        .collect()
}

#[test]
fn explore_reports_match_the_golden_asset() {
    let text = std::fs::read_to_string(GOLDEN_PATH).expect("golden asset present");
    let golden: Vec<GoldenCase> = serde_json::from_str(&text).expect("golden asset parses");
    let actual = run_cases();
    let names = |cases: &[GoldenCase]| cases.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&golden), names(&actual), "pinned case list");
    for (want, got) in golden.iter().zip(&actual) {
        assert_eq!(want.report, got.report, "{}: report drifted", want.name);
    }
}

#[test]
#[ignore = "rewrites the golden asset"]
fn record_golden() {
    let text = serde_json::to_string_pretty(&run_cases()).expect("reports serialize");
    std::fs::write(GOLDEN_PATH, text + "\n").expect("golden asset written");
}
