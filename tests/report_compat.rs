//! Report-format compatibility: exploration reports recorded *before*
//! the DPOR fields existed (`dpor` counters, the `exhausted` verdict)
//! keep loading, with the new fields defaulting to zero/false — and a
//! modern report round-trips through JSON bit-identically, DPOR counters
//! included. `assets/pre_dpor_report.json` is a checked-in bounded-search
//! report of `assets/order_violation.cir` with every post-PR-5 key
//! stripped, i.e. exactly what an old `--report-out` file looks like.
//! `assets/pruned_bounded_report.json` was written by a build that still
//! had bounded search's independence pruning: it carries that retired
//! reduction's skip counter, which current reports no longer have.

use conair_runtime::{
    explore, DporCounters, ExploreConfig, ExploreReport, ExploreStrategy, MachineConfig, PointMask,
};
use conair_workloads::workload_by_name;

const PRE_DPOR: &str = include_str!("../assets/pre_dpor_report.json");
const PRUNED: &str = include_str!("../assets/pruned_bounded_report.json");

#[test]
fn pre_dpor_reports_still_load() {
    let report: ExploreReport =
        serde_json::from_str(PRE_DPOR).expect("pre-DPOR report deserializes");
    // The era's core fields survive verbatim...
    assert_eq!(report.strategy, "bounded(k=1)");
    assert_eq!(report.budget, 64);
    assert_eq!(report.schedules, 4);
    assert_eq!(report.failures, 2);
    let first = report.first_failure.as_ref().expect("recorded failure");
    assert_eq!(first.index, 0);
    assert_eq!(first.trace.decisions, vec![0]);
    // ...and every field added since defaults to its zero value.
    assert_eq!(report.dpor, DporCounters::default());
    assert!(!report.exhausted);
    assert_eq!(report.snapshots_taken, 0);
    assert_eq!(report.snapshot_hits, 0);
    assert_eq!(report.steps_saved, 0);
    assert!(report.wave_widths.is_empty());
}

#[test]
fn pre_dpor_report_round_trips_through_the_modern_shape() {
    for (name, json) in [("pre-DPOR", PRE_DPOR), ("pruned", PRUNED)] {
        let old: ExploreReport =
            serde_json::from_str(json).unwrap_or_else(|e| panic!("{name} report loads: {e}"));
        // Re-serializing writes the modern shape (all fields present);
        // re-parsing that must be lossless.
        let modern = serde_json::to_string_pretty(&old).expect("report serializes");
        let back: ExploreReport = serde_json::from_str(&modern).expect("modern shape parses");
        assert_eq!(old, back, "{name}");
    }
}

#[test]
fn normalized_zeroes_the_dpor_counters() {
    // A live DPOR report has non-zero race counters; `normalized()` must
    // zero them so normalized pre-DPOR and post-DPOR reports of the same
    // search stay comparable (the CI determinism diffs rely on this).
    let w = workload_by_name("HawkNL").expect("registered workload");
    let mut ec = ExploreConfig::new(ExploreStrategy::Dpor { preemptions: 1 });
    ec.mask = PointMask::SYNC_SHARED;
    ec.budget = 256;
    let config = MachineConfig {
        lock_timeout: 200,
        step_limit: 2_000_000,
        max_retries: 8,
        ..MachineConfig::default()
    };
    let report = explore(&w.program, &config, &ec);
    assert!(
        report.dpor.races_detected > 0,
        "DPOR ran without race analysis"
    );
    let norm = report.normalized();
    assert_eq!(norm.dpor, DporCounters::default());
    assert_eq!(norm.wall_ms, 0);
    // The verdict is kept — it is the point of the report.
    assert_eq!(norm.exhausted, report.exhausted);
    assert_eq!(norm.schedules, report.schedules);

    // And the modern report round-trips with its counters intact.
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: ExploreReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}
