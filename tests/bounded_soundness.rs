//! Soundness gate for bounded-preemption search: on 1000 generated
//! programs at each K in {0, 1, 2}, `explore` with
//! `ExploreStrategy::Bounded { preemptions: K }` under shared-access
//! points must find a failure exactly when an unpruned reference
//! enumeration of every schedule within K preemptions does, and must
//! report the search space exhausted whenever it finds none.
//!
//! The reference is deliberately naive — every run starts from scratch
//! under a [`FrontierScheduler`], and every eligible alternative within
//! the bound is enqueued: no dedup, no snapshots, no pruning — so it can
//! be checked by reading it. The explorer's reductions (snapshot resume,
//! decision-trace dedup) must not change the verdict.
//!
//! DPOR is not gated here: its bounded variant drops race reversals that
//! cost more than the bound without adding the conservative backtrack
//! points bounded POR needs, so it is known to miss failures that this
//! reference finds.

use conair_ir::{parse_module, CmpKind, FuncBuilder, ModuleBuilder};
use conair_runtime::{
    explore, ExploreConfig, ExploreStrategy, FrontierScheduler, Machine, MachineConfig, PointMask,
    Program,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generated programs per preemption bound.
const PROGRAMS: u64 = 1000;
/// Schedules the reference and the explorer may run per program — far
/// above what the generated programs need, so every search completes.
const BUDGET: usize = 200_000;

fn machine() -> MachineConfig {
    MachineConfig {
        step_limit: 10_000,
        ..MachineConfig::default()
    }
}

/// Whether any schedule within `k` preemptions fails, by brute force.
/// `None` when the budget ran out first.
fn reference_fails(program: &Program, config: &MachineConfig, k: usize) -> Option<bool> {
    let mask = PointMask::SYNC_SHARED;
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    let mut runs = 0;
    while let Some(prefix) = stack.pop() {
        if runs == BUDGET {
            return None;
        }
        runs += 1;
        let mut sched = FrontierScheduler::new(prefix.clone(), mask);
        let result = Machine::new(program, *config).run(&mut sched);
        if result.outcome.is_failure() {
            return Some(true);
        }
        let consults = sched.consults();
        let mut used = 0;
        for (i, c) in consults.iter().enumerate() {
            if i >= prefix.len() {
                for &alt in c.eligible.iter().filter(|&&t| t != c.chosen) {
                    if used + usize::from(c.is_preemption_for(alt)) <= k {
                        let mut child: Vec<u32> = consults[..i]
                            .iter()
                            .map(|c| c.chosen.index() as u32)
                            .collect();
                        child.push(alt.index() as u32);
                        stack.push(child);
                    }
                }
            }
            used += usize::from(c.is_preemption());
        }
    }
    Some(false)
}

/// A seeded random program: 2–3 threads of 2–5 operations each over
/// three globals and one lock. The operations are a store of a constant,
/// a load asserting the value differs from a constant, and a locked
/// increment.
fn generate(seed: u64) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mb = ModuleBuilder::new("rnd");
    let globals: Vec<_> = (0..3).map(|i| mb.global(format!("g{i}"), 0)).collect();
    let lock = mb.lock("m");
    let threads = rng.gen_range(2..4usize);
    let mut names = Vec::new();
    for t in 0..threads {
        let name = format!("t{t}");
        let mut fb = FuncBuilder::new(name.clone(), 0);
        for _ in 0..rng.gen_range(2..6usize) {
            let g = globals[rng.gen_range(0..3usize)];
            match rng.gen_range(0..3u32) {
                0 => {
                    fb.store_global(g, rng.gen_range(1..4i64));
                }
                1 => {
                    let v = fb.load_global(g);
                    let ok = fb.cmp(CmpKind::Ne, v, rng.gen_range(1..4i64));
                    fb.assert(ok, "v != bad");
                }
                _ => {
                    fb.lock(lock);
                    let v = fb.load_global(g);
                    let next = fb.add(v, 1);
                    fb.store_global(g, next);
                    fb.unlock(lock);
                }
            }
        }
        fb.ret();
        mb.function(fb.finish());
        names.push(name);
    }
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    Program::from_entry_names(mb.finish(), &names)
}

fn bounded(k: usize) -> ExploreConfig {
    let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: k });
    ec.mask = PointMask::SYNC_SHARED;
    ec.budget = BUDGET;
    ec
}

#[test]
fn bounded_search_agrees_with_the_unpruned_reference() {
    let config = machine();
    for k in 0..=2 {
        let mut failing = 0;
        for seed in 0..PROGRAMS {
            let program = generate(seed);
            let want = reference_fails(&program, &config, k)
                .unwrap_or_else(|| panic!("seed {seed}, K={k}: reference budget exhausted"));
            let report = explore(&program, &config, &bounded(k));
            assert_eq!(
                report.failures > 0,
                want,
                "seed {seed}, K={k}: bounded search disagrees with the reference"
            );
            assert!(
                want || report.exhausted,
                "seed {seed}, K={k}: a clean verdict must cover the whole tree"
            );
            failing += usize::from(want);
        }
        assert!(
            failing > 0 && failing < PROGRAMS as usize,
            "K={k}: the generator must produce both failing and clean programs ({failing})"
        );
    }
}

#[test]
fn pruning_counterexample_fails_within_one_preemption() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/assets/bounded_pruning_counterexample.cir"
    );
    let text = std::fs::read_to_string(path).expect("asset present");
    let module = parse_module(&text).expect("asset parses");
    let program = Program::from_entry_names(module, &["t0", "t1"]);
    let mut ec = bounded(1);
    ec.stop_at_first = false;
    let report = explore(&program, &machine(), &ec);
    assert!(report.exhausted, "{report:?}");
    assert!(
        report.failures >= 1,
        "t0:`stg`, then t1 to the end, then t0 fails within one preemption: {report:?}"
    );
    assert_eq!(reference_fails(&program, &machine(), 1), Some(true));
}
