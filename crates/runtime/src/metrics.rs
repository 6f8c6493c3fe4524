//! Run metrics: low-cost aggregate distributions collected by the machine
//! alongside [`crate::RunStats`], the bucketed [`Histogram`] they are
//! built from, and the exploration [`MetricsRegistry`] — typed atomic
//! counters/gauges/histograms sampled at wave boundaries and exported in
//! Prometheus text format.
//!
//! Metrics differ from [`crate::RunStats`] in two ways: they are
//! distributional (histograms with percentiles, not single counters), and
//! every field is serde-serializable so the CLI and bench exporters can
//! embed them in JSON reports without projection glue.
//!
//! The registry follows the same zero-cost-when-disabled discipline as the
//! [`crate::TraceSink`] layer: an unobserved exploration constructs no
//! registry and performs no atomic traffic at all (pinned by a test via
//! [`MetricsRegistry::instances`]), and observing one never changes what
//! it reports — registry updates read wave-boundary state the search
//! already computed.

use std::fmt::Write as _;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use conair_ir::SiteId;
use serde::{Deserialize, Serialize};

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `b` holds values whose bit length is `b` (bucket 0 holds only the
/// value 0), so recording is O(1) and the memory footprint is fixed at 65
/// counters regardless of sample count. Percentiles are therefore
/// approximate: [`Histogram::percentile`] returns the *upper bound* of the
/// bucket containing the requested quantile, an over-estimate by at most 2×.
/// The bucket vector is allocated lazily on the first sample, so an empty
/// histogram is pointer-sized and cloning one (as every machine snapshot
/// does for the `RunMetrics` histograms) allocates nothing. Equality is
/// semantic: an empty histogram equals an all-zero-bucket one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && (0..BUCKETS).all(|b| {
                self.counts.get(b).copied().unwrap_or(0)
                    == other.counts.get(b).copied().unwrap_or(0)
            })
    }
}

impl Eq for Histogram {}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of power-of-two buckets (bit lengths 0..=64).
const BUCKETS: usize = 65;

/// Bucket index of a value: its bit length.
fn bucket(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket.
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// An empty histogram. Allocation-free: buckets materialize on the
    /// first [`Histogram::record`].
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, if any samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket containing the quantile sample, clamped to the observed
    /// maximum. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based (nearest-rank definition).
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_hi(b).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lo, hi, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
                (lo, bucket_hi(b), c)
            })
    }

    /// A compact `p50/p90/max` rendering for reports.
    pub fn summary(&self) -> String {
        match (self.percentile(0.5), self.percentile(0.9), self.max()) {
            (Some(p50), Some(p90), Some(max)) => {
                format!("p50≤{p50} p90≤{p90} max={max} (n={})", self.total)
            }
            _ => "no samples".to_string(),
        }
    }

    /// Approximate heap bytes held (the lazily-allocated bucket vector).
    pub fn approx_bytes(&self) -> u64 {
        self.counts.len() as u64 * 8
    }
}

/// Distributional metrics of one run, collected by the machine at the same
/// points where [`crate::TraceEvent`]s are emitted — but unconditionally,
/// since each is a counter bump or an O(1) histogram record.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Rollbacks attempted per site, sorted by site id (the serializable
    /// projection of [`crate::RunStats::site_recovery`] retries).
    pub per_site_retries: Vec<(SiteId, u64)>,
    /// Steps from a site's first failure detection to its recovery
    /// completion, one sample per site that recovered.
    pub rollback_latency: Histogram,
    /// Steps spent blocked per lock acquisition that had to wait (timed-out
    /// waits included).
    pub lock_waits: Histogram,
    /// Register undo-log depth at each rollback: how many registers the
    /// epoch wrote (and restore walked back) — the per-rollback cost of the
    /// featherweight checkpoint representation, one sample per rollback.
    pub undo_depth: Histogram,
    /// Checkpoint instructions executed.
    pub checkpoint_executions: u64,
    /// Checkpoint executions that were re-executions after a rollback (the
    /// rest are first-time captures).
    pub checkpoint_reexecutions: u64,
    /// Heap blocks freed by compensation during rollbacks.
    pub compensation_frees: u64,
    /// Locks force-released by compensation during rollbacks.
    pub compensation_unlocks: u64,
    /// Scheduler picks that switched away from the previously running
    /// thread.
    pub context_switches: u64,
    /// Scheduler decisions recorded (0 unless
    /// [`crate::MachineConfig::record_decisions`] was set).
    pub sched_decisions: u64,
    /// The recorded schedule's [`crate::DecisionTrace::hash`] (0 when not
    /// recording) — two runs with the same hash executed the same
    /// interleaving.
    pub decision_trace_hash: u64,
    /// Machine snapshots captured during this run (0 outside
    /// [`crate::Machine::run_captured`]). A run resumed from a snapshot
    /// inherits the donor's count at the capture point.
    pub snapshots_taken: u64,
}

impl RunMetrics {
    /// Total retries over all sites (mirrors
    /// [`crate::RunStats::total_retries`]).
    pub fn total_retries(&self) -> u64 {
        self.per_site_retries.iter().map(|(_, r)| r).sum()
    }

    /// First-time checkpoint captures (executions minus re-executions).
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoint_executions - self.checkpoint_reexecutions
    }

    /// Approximate heap bytes held — snapshot-tree eviction accounting.
    pub fn approx_bytes(&self) -> u64 {
        std::mem::size_of::<RunMetrics>() as u64
            + self.per_site_retries.len() as u64 * std::mem::size_of::<(SiteId, u64)>() as u64
            + self.rollback_latency.approx_bytes()
            + self.lock_waits.approx_bytes()
            + self.undo_depth.approx_bytes()
    }
}

/// A monotone atomic counter.
///
/// All operations use relaxed ordering: registry values are sampled at wave
/// boundaries for telemetry, never used for synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the counter with an absolute running total computed
    /// elsewhere (e.g. an [`crate::ExploreReport`] field). The stored value
    /// must be monotone across calls for Prometheus counter semantics to
    /// hold; the explorer only stores totals that grow wave over wave.
    pub fn store(&self, total: u64) {
        self.0.store(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic counterpart of [`Histogram`]: same power-of-two bucketing, but
/// every cell is an `AtomicU64` so wave-boundary merges never need a lock.
/// The bucket array is fixed-size, so recording and merging allocate
/// nothing.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 65],
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Folds a per-run [`Histogram`] into this one. Bucket boundaries are
    /// identical (bit-length bucketing), so counts transfer exactly; each
    /// bucket's samples are attributed its lower bound when updating `sum`,
    /// which under-estimates by at most 2×.
    pub fn merge(&self, h: &Histogram) {
        for (lo, _, count) in h.buckets() {
            self.buckets[bucket(lo)].fetch_add(count, Ordering::Relaxed);
        }
        self.total.fetch_add(h.count(), Ordering::Relaxed);
        self.sum.fetch_add(
            h.buckets().map(|(lo, _, c)| lo.saturating_mul(c)).sum(),
            Ordering::Relaxed,
        );
        self.max.fetch_max(h.max().unwrap_or(0), Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all samples (bucket lower bounds for merged histograms).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Non-empty buckets as `(upper_bound, count)`, ascending.
    pub fn nonempty_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then_some((bucket_hi(b), c))
            })
            .collect()
    }
}

/// Count of [`MetricsRegistry`] allocations over the process lifetime.
/// Exists so tests can pin the zero-cost invariant: an unobserved
/// exploration must not construct a registry.
static REGISTRY_INSTANCES: AtomicU64 = AtomicU64::new(0);

/// Serializes tests that allocate registries or probe
/// [`MetricsRegistry::instances`] — the counter is process-global and the
/// test harness runs tests concurrently.
#[cfg(test)]
pub(crate) static REGISTRY_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Acquires [`REGISTRY_TEST_LOCK`], surviving poisoning from a failed
/// test.
#[cfg(test)]
pub(crate) fn registry_test_guard() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The exploration metrics registry: one typed field per metric, all
/// atomic, shared by cloning the handle. Construction is the only
/// allocation; updates are relaxed atomic stores on fixed fields, so an
/// attached registry adds no per-schedule allocation to the explorer.
///
/// The explorer writes it only at wave boundaries (see
/// [`crate::ExploreObserver`]); anything — a ticker, an exporter, the
/// future daemon — may read it concurrently.
#[derive(Debug, Default)]
pub struct RegistryInner {
    /// Schedules executed so far.
    pub schedules: Counter,
    /// Failing schedules found so far.
    pub failures: Counter,
    /// Exploration waves completed.
    pub waves: Counter,
    /// Planned width of the most recent wave (the 16→256 ramp).
    pub wave_width: Gauge,
    /// Frontier queue depth after the most recent wave (bounded search).
    pub frontier_depth: Gauge,
    /// Live nodes in the prefix-sharing snapshot tree.
    pub snapshot_nodes: Gauge,
    /// Bytes of word/thread data the snapshot tree holds that no other
    /// image shares — the eviction-by-bytes pressure signal.
    pub snapshot_resident_bytes: Gauge,
    /// Memory pages/heap blocks across retained snapshots owned solely by
    /// their snapshot (evicting would release them).
    pub snapshot_owned_pages: Gauge,
    /// Memory pages/heap blocks across retained snapshots structurally
    /// shared with another image (refcount bumps, no resident cost).
    pub snapshot_shared_pages: Gauge,
    /// Snapshot-tree LRU evictions so far.
    pub snapshot_evictions: Counter,
    /// Machine snapshots captured so far.
    pub snapshots_taken: Counter,
    /// Runs that resumed from a snapshot instead of replaying from the
    /// root.
    pub snapshot_hits: Counter,
    /// Interpreter steps skipped thanks to snapshot resume.
    pub steps_saved: Counter,
    /// Schedule prefixes skipped by decision-trace dedup.
    pub dedup_skips: Counter,
    /// Live scheduler decisions made by bounded (frontier) schedulers.
    pub decisions_bounded: Counter,
    /// Live scheduler decisions made by PCT schedulers.
    pub decisions_pct: Counter,
    /// Live scheduler decisions made during DPOR exploration.
    pub decisions_dpor: Counter,
    /// Reversible races the DPOR analysis detected so far.
    pub dpor_races: Gauge,
    /// Backtrack candidates the DPOR analysis inserted so far.
    pub dpor_backtracks: Gauge,
    /// Backtrack alternatives skipped because the sleep set proved them
    /// redundant.
    pub dpor_sleep_skips: Gauge,
    /// PCT priority demotions applied at change points.
    pub pct_demotions: Counter,
    /// Register undo-log depth per rollback, across all executed schedules
    /// (schedules sharing a resumed prefix each count the prefix's
    /// rollbacks).
    pub undo_depth: AtomicHistogram,
    /// Explorer wall-time spent capturing machine snapshots, µs.
    pub phase_capture_us: Counter,
    /// Explorer wall-time spent restoring machine snapshots, µs.
    pub phase_restore_us: Counter,
    /// Explorer wall-time spent interpreting schedules, µs.
    pub phase_interpret_us: Counter,
    /// Explorer wall-time spent assembling and merging waves, µs.
    pub phase_merge_us: Counter,
    /// Wall-time spent minimizing the first failure, µs (filled by the
    /// CLI, which owns minimization).
    pub phase_minimize_us: Counter,
}

/// Shared handle to a [`RegistryInner`]; clone to hand the same registry to
/// the explorer and a reader.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for MetricsRegistry {
    type Target = RegistryInner;

    fn deref(&self) -> &RegistryInner {
        &self.inner
    }
}

impl MetricsRegistry {
    /// Allocates a fresh all-zero registry.
    pub fn new() -> Self {
        REGISTRY_INSTANCES.fetch_add(1, Ordering::Relaxed);
        Self {
            inner: Arc::new(RegistryInner::default()),
        }
    }

    /// Registries allocated so far in this process. Tests use the
    /// difference across an unobserved exploration to pin the zero-cost
    /// invariant.
    pub fn instances() -> u64 {
        REGISTRY_INSTANCES.load(Ordering::Relaxed)
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        };
        counter("conair_explore_schedules_total", self.schedules.get());
        counter("conair_explore_failures_total", self.failures.get());
        counter("conair_explore_waves_total", self.waves.get());
        counter(
            "conair_explore_snapshot_evictions_total",
            self.snapshot_evictions.get(),
        );
        counter(
            "conair_explore_snapshots_taken_total",
            self.snapshots_taken.get(),
        );
        counter(
            "conair_explore_snapshot_hits_total",
            self.snapshot_hits.get(),
        );
        counter("conair_explore_steps_saved_total", self.steps_saved.get());
        counter("conair_explore_dedup_skips_total", self.dedup_skips.get());
        counter(
            "conair_explore_pct_demotions_total",
            self.pct_demotions.get(),
        );
        let _ = writeln!(
            out,
            "# TYPE conair_explore_decisions_total counter\n\
             conair_explore_decisions_total{{scheduler=\"bounded\"}} {}\n\
             conair_explore_decisions_total{{scheduler=\"pct\"}} {}\n\
             conair_explore_decisions_total{{scheduler=\"dpor\"}} {}",
            self.decisions_bounded.get(),
            self.decisions_pct.get(),
            self.decisions_dpor.get(),
        );
        let _ = writeln!(out, "# TYPE conair_explore_phase_seconds_total counter");
        for (phase, us) in [
            ("capture", self.phase_capture_us.get()),
            ("restore", self.phase_restore_us.get()),
            ("interpret", self.phase_interpret_us.get()),
            ("merge", self.phase_merge_us.get()),
            ("minimize", self.phase_minimize_us.get()),
        ] {
            let _ = writeln!(
                out,
                "conair_explore_phase_seconds_total{{phase=\"{phase}\"}} {:.6}",
                us as f64 / 1e6
            );
        }
        let mut gauge = |name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        };
        gauge("conair_explore_dpor_races", self.dpor_races.get());
        gauge("conair_explore_dpor_backtracks", self.dpor_backtracks.get());
        gauge(
            "conair_explore_dpor_sleep_skips",
            self.dpor_sleep_skips.get(),
        );
        gauge("conair_explore_wave_width", self.wave_width.get());
        gauge("conair_explore_frontier_depth", self.frontier_depth.get());
        gauge("conair_explore_snapshot_nodes", self.snapshot_nodes.get());
        gauge(
            "conair_explore_snapshot_resident_bytes",
            self.snapshot_resident_bytes.get(),
        );
        gauge(
            "conair_explore_snapshot_owned_pages",
            self.snapshot_owned_pages.get(),
        );
        gauge(
            "conair_explore_snapshot_shared_pages",
            self.snapshot_shared_pages.get(),
        );
        let _ = writeln!(out, "# TYPE conair_explore_undo_depth histogram");
        let mut cumulative = 0u64;
        for (hi, count) in self.undo_depth.nonempty_buckets() {
            cumulative += count;
            let _ = writeln!(
                out,
                "conair_explore_undo_depth_bucket{{le=\"{hi}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "conair_explore_undo_depth_bucket{{le=\"+Inf\"}} {}\n\
             conair_explore_undo_depth_sum {}\n\
             conair_explore_undo_depth_count {}",
            self.undo_depth.count(),
            self.undo_depth.sum(),
            self.undo_depth.count(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.summary(), "no samples");
    }

    #[test]
    fn empty_histogram_clones_without_buckets() {
        // Snapshot capture clones RunMetrics; when tracing is off the
        // histograms are empty and the clone must not allocate buckets.
        let h = Histogram::new();
        assert_eq!(h.approx_bytes(), 0);
        assert_eq!(h.clone().approx_bytes(), 0);

        // Merging an empty histogram into a lazy one stays lazy.
        let mut lazy = Histogram::new();
        lazy.merge(&h);
        assert_eq!(lazy.approx_bytes(), 0);

        // Equality is semantic: a pre-lazy-format histogram with 65 zero
        // buckets equals a bucketless empty one.
        let eager: Histogram = serde_json::from_str(&format!(
            "{{\"counts\":{:?},\"total\":0,\"sum\":0,\"min\":{},\"max\":0}}",
            vec![0u64; 65],
            u64::MAX
        ))
        .expect("old-format histogram parses");
        assert_eq!(eager.approx_bytes(), 65 * 8);
        assert_eq!(eager, h);

        // And recording still works after a lazy merge.
        let mut recorded = Histogram::new();
        recorded.record(7);
        let mut merged = Histogram::new();
        merged.merge(&recorded);
        assert_eq!(merged, recorded);
        assert_ne!(merged, h);
    }

    #[test]
    fn records_and_bounds() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.sum(), 1106);
        // p100 is clamped to the observed max, not the bucket bound.
        assert_eq!(h.percentile(1.0), Some(1000));
        // p50 lands in the bucket of 2..=3.
        assert_eq!(h.percentile(0.5), Some(3));
    }

    #[test]
    fn percentile_is_upper_bound_of_quantile_bucket() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(5); // bucket 3: 4..=7
        }
        h.record(1_000_000);
        assert_eq!(h.percentile(0.5), Some(7));
        assert_eq!(h.percentile(0.99), Some(7));
        assert_eq!(h.percentile(1.0), Some(1_000_000));
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        a.record(4);
        let mut b = Histogram::new();
        b.record(1024);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(1024));
        assert_eq!(a.buckets().count(), 3);
    }

    #[test]
    fn registry_renders_prometheus() {
        let _guard = registry_test_guard();
        let reg = MetricsRegistry::new();
        reg.schedules.add(5);
        reg.schedules.add(3);
        reg.failures.store(2);
        reg.wave_width.set(64);
        reg.decisions_bounded.add(17);
        reg.phase_capture_us.add(1_500_000);
        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(100);
        reg.undo_depth.merge(&h);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE conair_explore_schedules_total counter"));
        assert!(text.contains("conair_explore_schedules_total 8"));
        assert!(text.contains("conair_explore_failures_total 2"));
        assert!(text.contains("# TYPE conair_explore_wave_width gauge"));
        assert!(text.contains("conair_explore_wave_width 64"));
        assert!(text.contains("conair_explore_decisions_total{scheduler=\"bounded\"} 17"));
        assert!(text.contains("conair_explore_phase_seconds_total{phase=\"capture\"} 1.500000"));
        assert!(text.contains("conair_explore_undo_depth_bucket{le=\"3\"} 2"));
        assert!(text.contains("conair_explore_undo_depth_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("conair_explore_undo_depth_count 3"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in line: {line}"
            );
            assert!(parts.next().unwrap().starts_with("conair_explore_"));
        }
    }

    #[test]
    fn registry_instance_probe_counts_allocations() {
        let _guard = registry_test_guard();
        let before = MetricsRegistry::instances();
        let reg = MetricsRegistry::new();
        let clone = reg.clone();
        clone.schedules.add(1);
        // Clones share the same inner registry and do not count as new
        // allocations.
        assert_eq!(MetricsRegistry::instances(), before + 1);
        assert_eq!(reg.schedules.get(), 1);
    }

    #[test]
    fn atomic_histogram_merge_matches_bucketing() {
        let mut h = Histogram::new();
        for v in [0, 1, 7, 900] {
            h.record(v);
        }
        let a = AtomicHistogram::default();
        a.merge(&h);
        a.record(7);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), Some(900));
        let buckets = a.nonempty_buckets();
        // 0 → le=0, 1 → le=1, 7×2 → le=7, 900 → le=1023.
        assert_eq!(buckets, vec![(0, 1), (1, 1), (7, 2), (1023, 1)]);
    }

    #[test]
    fn metrics_roundtrip_serde() {
        let mut m = RunMetrics::default();
        m.per_site_retries.push((SiteId(2), 7));
        m.rollback_latency.record(42);
        m.checkpoint_executions = 3;
        m.checkpoint_reexecutions = 1;
        let json = serde_json::to_string(&m).unwrap();
        let back: RunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_retries(), 7);
        assert_eq!(back.checkpoints_taken(), 2);
    }
}
