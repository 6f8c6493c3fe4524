//! # conair-workloads
//!
//! The benchmark suite of the ConAir reproduction: the ten real-world-bug
//! applications of paper Table 2 and the four atomicity-violation
//! microbenchmarks of Figure 2, expressed as `conair-ir` programs.
//!
//! Each application embeds its documented bug kernel (root cause, failure
//! symptom, recoverability) in deterministic application-scale filler whose
//! potential-failure-site mix follows the app's Table-4 row (scaled ~10×).
//! Bug manifestation is forced by [`conair_runtime::ScheduleScript`] gates —
//! the reproducible analog of the sleeps the paper injects into buggy code
//! regions.
//!
//! ## Example
//!
//! ```rust
//! use conair_workloads::workload_by_name;
//! use conair_runtime::{run_scripted, MachineConfig, RunOutcome};
//!
//! let w = workload_by_name("MySQL2").unwrap();
//! // Under the bug-forcing script the original program fails:
//! let r = run_scripted(&w.program, &MachineConfig::default(), &w.bug_script, 1);
//! assert!(matches!(r.outcome, RunOutcome::Failed(_)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
mod explore;
mod filler;
mod meta;
mod micro;
mod registry;
mod spec;
mod stress;

pub use explore::{explore_hint, verify_hint, ExploreHint, VerifyHint};
pub use filler::{emit_filler, Filler, SiteProfile, WorkProfile};
pub use meta::{meta_by_name, RootCause, Symptom, WorkloadMeta, TABLE2};
pub use micro::{build_micro, AtomicityPattern, MicroWorkload};
pub use registry::{all_workloads, workload_by_name, WORKLOAD_NAMES};
pub use spec::Workload;
pub use stress::rollback_dense_program;
