//! The fixed reference work that `op_cost_gm` and `setup_s` are
//! measured against.
//!
//! On a shared 2-vCPU virtual machine the same operations ran up to 1.8x
//! slower for seconds to minutes at a time, so raw operation times spread
//! by 20-37% between runs. Timing this fixed work in the same run and
//! dividing by it cancels most of that. The slowdowns came from memory
//! contention: a register-only integer loop did not slow at all, a
//! 4000-key map workload slowed by much less than the library did, and
//! work with a larger working set and many small allocations tracked it
//! best. So the reference does that kind of work: ordered and hashed maps
//! over 16k keys, and formatting, cloning and hashing 15k short strings.
//! It depends on nothing in the repository, so a change to the code under
//! test moves the ratio by its own effect alone.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use crate::stats::Rng;

/// Minimum wall time between two reference samples in a closed loop: a
/// sample takes about 9 ms, so sampling costs under 5% of a run.
pub const EVERY: Duration = Duration::from_millis(200);

/// The reference work's time, in milliseconds, on the host `setup_s` is
/// expressed for: about its time on the 2-vCPU Intel Xeon virtual machine
/// the seed-state numbers in `perfbench/README.md` come from.
pub const NOMINAL_MS: f64 = 9.0;

/// Runs the reference work once and returns how long it took, in
/// milliseconds.
pub fn sample_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(work());
    start.elapsed().as_secs_f64() * 1e3
}

fn work() -> u64 {
    let mut rng = Rng::new(77);
    let keys: Vec<u64> = (0..16_000).map(|_| rng.next_u64() % 1_000_000).collect();
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    for (i, &k) in keys.iter().enumerate() {
        ordered.insert(k, i as u64);
        hashed.insert(k, i as u64);
    }
    let mut acc = 0u64;
    for k in &keys {
        acc = acc.wrapping_add(ordered[k]).wrapping_add(hashed[k]);
    }
    let lines: Vec<Vec<String>> = (0..300)
        .map(|_| {
            (0..50)
                .map(|i| {
                    let (r, imm) = (rng.next_u64() % 64, rng.next_u64() % 1000);
                    format!("%r{i} = add %r{r}, {imm}")
                })
                .collect()
        })
        .collect();
    let copy = lines.clone();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for (i, line) in copy.iter().flatten().enumerate() {
        index.insert(line, i);
    }
    let words: usize = copy.iter().flatten().map(|l| l.split(' ').count()).sum();
    acc ^ (index.len() + words) as u64
}
