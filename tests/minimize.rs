//! The minimizer's memo and snapshot resume are pure speed-ups: a
//! test-local reference minimizer runs the same two phases under the same
//! strict-progress rule, but replays every candidate from the program's
//! first step with `run_replay` and remembers nothing. On every catalog
//! app and both `.cir` assets the two must agree exactly — same trace,
//! same outcome, same length — with the reference executing at least as
//! many candidates. A second test pins that minimization now ends on its
//! own, far inside a 65,536-replay budget.

use conair_ir::parse_module;
use conair_runtime::{
    explore, minimize, run_replay, DecisionTrace, ExploreConfig, ExploreStrategy, MachineConfig,
    PointMask, Program, RunOutcome,
};
use conair_workloads::{explore_hint, workload_by_name, WORKLOAD_NAMES};

/// The budget `conair verify` minimizes with: large enough that neither
/// minimizer stops on it here.
const BUDGET: usize = 65_536;

/// The bounded machine the catalog searches run under (as in
/// `tests/exploration.rs`).
fn machine() -> MachineConfig {
    MachineConfig {
        lock_timeout: 200,
        step_limit: 2_000_000,
        ..MachineConfig::default()
    }
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

/// The program and first failing trace of a catalog app (its
/// `explore_hint` search) or of an asset (`deadlock.cir`: the DPOR search
/// `conair verify` runs; `order_violation.cir`: PCT on shared accesses).
fn failing(name: &str) -> (Program, DecisionTrace) {
    let (program, ec) = match name {
        "deadlock.cir" => {
            let mut ec = ExploreConfig::new(ExploreStrategy::Dpor { preemptions: 2 });
            ec.mask = PointMask::SYNC_SHARED;
            ec.budget = BUDGET;
            (asset(name), ec)
        }
        "order_violation.cir" => {
            let mut ec = ExploreConfig::new(ExploreStrategy::Pct { depth: 3 });
            ec.mask = PointMask::SYNC_SHARED;
            ec.budget = 256;
            (asset(name), ec)
        }
        _ => {
            let w = workload_by_name(name).expect("registered workload");
            let hint = explore_hint(name).expect("catalog workload has a hint");
            let mut ec = ExploreConfig::new(hint.strategy);
            ec.mask = hint.mask;
            ec.budget = hint.budget;
            ec.seed = hint.seed;
            (w.program, ec)
        }
    };
    let report = explore(&program, &machine(), &ec);
    let found = report
        .first_failure
        .unwrap_or_else(|| panic!("{name}: no failing schedule"));
    (program, found.trace)
}

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

/// The reference: prefix binary search, then ddmin, accepting a candidate
/// only when it fails the same way with a strictly shorter re-recording —
/// every candidate replayed from scratch, none remembered.
fn reference(
    program: &Program,
    config: &MachineConfig,
    trace: &DecisionTrace,
    budget: usize,
) -> (DecisionTrace, RunOutcome, usize) {
    let mut cfg = *config;
    cfg.record_decisions = true;
    let candidates = std::cell::Cell::new(0usize);
    let run = |decisions: &[u32]| {
        candidates.set(candidates.get() + 1);
        let cand = DecisionTrace {
            decisions: decisions.to_vec(),
            ..trace.clone()
        };
        let (result, _) = run_replay(program, &cfg, &cand);
        (result.outcome, result.decisions.expect("recording on"))
    };
    let (outcome, recorded) = run(&trace.decisions);
    let sig = signature(&outcome).expect("input trace fails");
    let (mut current, mut current_outcome) = if recorded.len() <= trace.len() {
        (recorded, outcome)
    } else {
        (trace.clone(), outcome)
    };
    let same = |o: &RunOutcome| signature(o).as_deref() == Some(sig.as_str());

    // Phase 1: a prefix that fails the same way within the current length
    // narrows the search; only a strictly shorter one is adopted.
    let (mut lo, mut hi) = (0usize, current.len());
    while lo < hi && candidates.get() < budget {
        let mid = lo + (hi - lo) / 2;
        let (o, rec) = run(&current.decisions[..mid]);
        if same(&o) && rec.len() < current.len() {
            hi = mid.min(rec.len());
            current = rec;
            current_outcome = o;
        } else if same(&o) && rec.len() == current.len() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    // Phase 2: ddmin chunk removal.
    let mut n = 2usize;
    while current.len() >= 2 && candidates.get() < budget {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() && candidates.get() < budget {
            let mut cand = current.decisions[..start].to_vec();
            cand.extend_from_slice(&current.decisions[(start + chunk).min(current.len())..]);
            let (o, rec) = run(&cand);
            if same(&o) && rec.len() < current.len() {
                current = rec;
                current_outcome = o;
                reduced = true;
            } else {
                start += chunk;
            }
        }
        if reduced {
            n = n.saturating_sub(1).max(2);
        } else if chunk <= 1 {
            break;
        } else {
            n = (n * 2).min(current.len());
        }
    }
    (current, current_outcome, candidates.get())
}

/// Minimizes `name`'s failing trace both ways and checks they agree.
fn matches_reference(name: &str) {
    let (program, trace) = failing(name);
    let config = machine();
    let min = minimize(&program, &config, &trace, BUDGET)
        .unwrap_or_else(|e| panic!("{name}: minimize failed: {e}"));
    let (ref_trace, ref_outcome, ref_candidates) = reference(&program, &config, &trace, BUDGET);
    eprintln!(
        "{name}: {} -> {} decisions, {} candidates ({} resumed, {} steps saved), reference {}",
        min.original_len,
        min.minimized_len,
        min.candidates,
        min.resumed,
        min.steps_saved,
        ref_candidates
    );
    assert_eq!(min.trace, ref_trace, "{name}: minimized trace differs");
    assert_eq!(min.outcome, ref_outcome, "{name}: outcome differs");
    assert_eq!(min.minimized_len, ref_trace.len(), "{name}: length differs");
    assert!(
        ref_candidates >= min.candidates,
        "{name}: reference ran {ref_candidates} candidates, minimize {}",
        min.candidates
    );
    assert!(ref_candidates < BUDGET, "{name}: reference hit the budget");
    // The result is a real failing run's log: it replays strictly.
    let (replayed, divergence) = run_replay(&program, &config, &min.trace);
    assert_eq!(divergence, None, "{name}: minimized replay diverged");
    assert_eq!(replayed.outcome, min.outcome, "{name}: replay drifted");
}

macro_rules! differential_test {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            matches_reference($name);
        }
    };
}

differential_test!(matches_reference_fft, "FFT");
differential_test!(matches_reference_hawknl, "HawkNL");
differential_test!(matches_reference_httrack, "HTTrack");
differential_test!(matches_reference_mozilla_xp, "MozillaXP");
differential_test!(matches_reference_mozilla_js, "MozillaJS");
differential_test!(matches_reference_mysql1, "MySQL1");
differential_test!(matches_reference_mysql2, "MySQL2");
differential_test!(matches_reference_transmission, "Transmission");
differential_test!(matches_reference_sqlite, "SQLite");
differential_test!(matches_reference_zsnes, "ZSNES");
differential_test!(matches_reference_deadlock_asset, "deadlock.cir");
differential_test!(
    matches_reference_order_violation_asset,
    "order_violation.cir"
);

#[test]
fn every_catalog_app_is_differentially_tested() {
    assert_eq!(WORKLOAD_NAMES.len(), 10, "update tests/minimize.rs");
}

#[test]
fn minimization_terminates_far_inside_its_budget() {
    // Strict progress bounds acceptances by the trace length, and the memo
    // makes repeated candidates free: a linear number of replays, not the
    // whole budget.
    for name in ["deadlock.cir", "FFT", "SQLite", "MozillaJS"] {
        let (program, trace) = failing(name);
        let min = minimize(&program, &machine(), &trace, BUDGET).unwrap();
        let len = min.original_len;
        let bound = 2 * len + len.next_power_of_two().trailing_zeros() as usize + 1;
        assert!(
            min.candidates <= bound,
            "{name}: {} candidates for {len} decisions (bound {bound})",
            min.candidates
        );
    }
}
