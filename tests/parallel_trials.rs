//! The parallel trial engine must be observationally identical to the
//! sequential one: `run_trials_parallel` merges per-seed results in seed
//! order, so every summary field except wall time matches
//! `run_trials` bit for bit, for any job count.

use conair::Conair;
use conair_runtime::{run_trials, run_trials_parallel, MachineConfig, TrialPool, TrialSummary};
use conair_workloads::all_workloads;

const TRIALS: usize = 8;
const SEED0: u64 = 1;

/// Everything in a [`TrialSummary`] except `wall`, which is the only
/// field allowed to differ between sequential and parallel execution.
fn deterministic_fields(
    s: &TrialSummary,
) -> (
    usize,
    usize,
    usize,
    usize,
    usize,
    f64,
    f64,
    Option<u64>,
    Vec<conair_runtime::Histogram>,
) {
    (
        s.trials,
        s.completed,
        s.failed,
        s.hung,
        s.step_limited,
        s.mean_insts,
        s.mean_retries,
        s.max_recovery_steps,
        vec![
            s.retries_hist.clone(),
            s.recovery_hist.clone(),
            s.checkpoints_hist.clone(),
            s.undo_depth_hist.clone(),
        ],
    )
}

#[test]
fn parallel_trials_match_sequential_over_catalog() {
    let machine = MachineConfig::default();
    let mut any_undo_samples = false;
    for w in all_workloads() {
        let hardened = Conair::survival().harden(&w.program);
        let seq = run_trials(&hardened.program, &machine, &w.bug_script, SEED0, TRIALS);
        assert_eq!(
            seq.checkpoints_hist.count(),
            TRIALS as u64,
            "{}: one checkpoint-count sample per trial",
            w.meta.name
        );
        any_undo_samples |= !seq.undo_depth_hist.is_empty();
        for jobs in [1usize, 4] {
            let par = run_trials_parallel(
                &hardened.program,
                &machine,
                &w.bug_script,
                SEED0,
                TRIALS,
                jobs,
            );
            assert_eq!(
                deterministic_fields(&seq),
                deterministic_fields(&par),
                "{}: jobs={jobs} diverged from sequential",
                w.meta.name
            );
        }
    }
    assert!(
        any_undo_samples,
        "bug-forcing trials must roll back somewhere in the catalog, \
         populating the undo-depth histogram"
    );
}

#[test]
fn parallel_trials_match_on_benign_schedules() {
    // Benign runs exercise the completed/zero-retry path of the merge.
    let machine = MachineConfig::default();
    for w in all_workloads() {
        let hardened = Conair::survival().harden(&w.program);
        let seq = run_trials(&hardened.program, &machine, &w.benign_script, SEED0, TRIALS);
        let par = run_trials_parallel(
            &hardened.program,
            &machine,
            &w.benign_script,
            SEED0,
            TRIALS,
            4,
        );
        assert_eq!(
            deterministic_fields(&seq),
            deterministic_fields(&par),
            "{}: benign parallel run diverged",
            w.meta.name
        );
        assert_eq!(
            par.completed, par.trials,
            "{}: benign runs must complete",
            w.meta.name
        );
    }
}

#[test]
fn pool_workers_are_clamped_to_available_parallelism() {
    // `--jobs N` must never start N OS threads: every pool (trials,
    // experiments, exploration) is clamped to the host's cores. Checked
    // through the worker count, which spawns nothing.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(TrialPool::new(1 << 20).jobs(), cores);
    assert_eq!(TrialPool::new(0).jobs(), 1, "0 means run inline");
    assert_eq!(TrialPool::new(1).jobs(), 1);
}
