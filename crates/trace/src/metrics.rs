//! The metrics plane: a process-global registry of what no run
//! statistics struct counts, and the exposition of every counter family.
//!
//! Most counters of the workspace live in plain structs, one value per
//! run or per server: `PdceStats` (rounds, rollbacks, TV checks), its
//! `CacheStats` and `SolverStats`, and the serve daemon's health
//! fields. Those structs are the store; a [`CounterFamily`] names how
//! one of their fields is exposed, and [`Snapshot::push_counter`]
//! renders the field's value into a snapshot at exposition time.
//!
//! The registry holds the rest: wall-clock histograms and the counters
//! of the batch pool and the idle poll loop, which belong to no run.
//! Registration takes a short-lived lock once per series; every update
//! after that is a handful of relaxed atomic read-modify-writes on
//! shared `AtomicU64`s, so the hot path is lock-free and safe to hit
//! from every worker of the `pdce-par` pool concurrently. Families
//! whose samples are wall-clock measurements are registered with
//! [`Stability::Timing`] and excluded from the deterministic rendering
//! used by stability checks.
//!
//! Exposition is snapshot-based: [`Registry::snapshot`] captures every
//! registered series, the owners of the struct-held counts push theirs,
//! and the result renders as Prometheus text exposition
//! ([`Snapshot::prometheus`]) or a human table ([`Snapshot::human_table`]);
//! histograms answer quantile queries ([`HistogramSnapshot::quantile`]).

pub use crate::{alloc, events};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Global recording gate. Metrics are always-on by default; the overhead
/// A/B in `pdce report` flips this off for its baseline series so the cost
/// of the instrumentation itself can be measured in-process.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Run `f` with recording suppressed, restoring the previous state after.
/// The gate is process-global, so this is meant for single-workload A/B
/// harnesses, not for scoping individual threads; the registry itself
/// stays registered and readable either way.
pub fn suppressed<T>(f: impl FnOnce() -> T) -> T {
    let was = ENABLED.swap(false, Ordering::Relaxed);
    let out = f();
    ENABLED.store(was, Ordering::Relaxed);
    out
}

/// Whether a family's samples are reproducible across runs and `--jobs`
/// values. Timing families (wall-clock or allocator measurements) are
/// excluded from [`Snapshot::prometheus_deterministic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    Deterministic,
    Timing,
}

impl Stability {
    fn label(self) -> &'static str {
        match self {
            Stability::Deterministic => "deterministic",
            Stability::Timing => "timing",
        }
    }
}

/// A counter family whose values live in a struct field rather than in
/// the registry: its exposition facts, rendered into a [`Snapshot`]
/// with [`Snapshot::push_counter`] wherever the struct is exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterFamily {
    pub name: &'static str,
    pub help: &'static str,
    pub stability: Stability,
}

/// Monotone counter. Updates are relaxed atomic adds.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn add(&self, n: u64) {
        if n != 0 && ENABLED.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets. Bucket 0 holds the value 0; bucket `i >= 1`
/// holds values `v` with `bit_length(v) == i`, i.e. `2^(i-1) <= v < 2^i`.
/// The last bucket additionally absorbs everything wider, so every u64 has
/// a home and `observe` is a single `leading_zeros` plus one atomic add.
pub const BUCKETS: usize = 64;

/// Index of the log2 bucket for `v`.
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper edge of bucket `i` (`0` for bucket 0, `2^i - 1` above).
/// Quantile estimates report this edge, so they are conservative (an upper
/// bound) and — crucially — a pure function of the bucket counts, which
/// keeps them bit-identical for any merge order or `--jobs` value.
pub fn bucket_upper_edge(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Log2-bucketed histogram: 64 atomic buckets plus count and sum.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub fn observe(&self, v: u64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of a histogram's buckets; plain data, mergeable and
/// subtractable, with quantile estimation off the bucket edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Bucket-wise addition. Addition commutes, so merging per-thread
    /// snapshots yields the same result for every shard order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Bucket-wise subtraction of an earlier snapshot of the same series.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }

    /// Upper-edge estimate of quantile `q` in [0, 1]: the inclusive upper
    /// edge of the bucket containing the `ceil(q * count)`-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper_edge(i);
            }
        }
        bucket_upper_edge(BUCKETS - 1)
    }

    /// Upper edge of the highest non-empty bucket (an upper bound on the
    /// largest observed sample).
    pub fn max_estimate(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(bucket_upper_edge)
            .unwrap_or(0)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(&'static str, String)>,
    metric: Metric,
}

struct Family {
    name: &'static str,
    help: &'static str,
    stability: Stability,
    series: Vec<Series>,
}

fn same_labels(have: &[(&'static str, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len() && have.iter().zip(want).all(|(a, b)| a.0 == b.0 && a.1 == b.1)
}

/// Named collection of metric families. Registration (and snapshotting)
/// takes a mutex; the handles it returns are shared atomics, so recording
/// never locks. Instrumentation sites cache their handle in a `LazyLock`
/// and pay the lock exactly once per process.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    pub const fn new() -> Self {
        Registry {
            families: Mutex::new(Vec::new()),
        }
    }

    /// The series of `name` with `labels`, made by `make` on first use.
    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        stability: Stability,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut families = self.families.lock().unwrap();
        let at = match families.iter().position(|f| f.name == name) {
            Some(at) => at,
            None => {
                families.push(Family {
                    name,
                    help,
                    stability,
                    series: Vec::new(),
                });
                families.len() - 1
            }
        };
        let family = &mut families[at];
        if let Some(existing) = family
            .series
            .iter()
            .find(|s| same_labels(&s.labels, labels))
        {
            return existing.metric.clone();
        }
        let metric = make();
        family.series.push(Series {
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
            metric: metric.clone(),
        });
        metric
    }

    /// Register (or look up) a counter series.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        stability: Stability,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        match self.register(name, help, stability, labels, || {
            Metric::Counter(Arc::default())
        }) {
            Metric::Counter(c) => c,
            Metric::Histogram(_) => panic!("metric family {name} re-registered as a counter"),
        }
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        stability: Stability,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, stability, labels, || {
            Metric::Histogram(Arc::default())
        }) {
            Metric::Histogram(h) => h,
            Metric::Counter(_) => panic!("metric family {name} re-registered as a histogram"),
        }
    }

    /// Capture every registered series. Series are sorted by
    /// (family name, label values) so the snapshot order — and therefore
    /// every rendering — is independent of registration order across
    /// threads.
    pub fn snapshot(&self) -> Snapshot {
        let families = self.families.lock().unwrap();
        let mut series = Vec::new();
        for f in families.iter() {
            for s in &f.series {
                series.push(SeriesSnapshot {
                    name: f.name,
                    help: f.help,
                    stability: f.stability,
                    labels: s.labels.iter().map(|(k, v)| (*k, v.clone())).collect(),
                    value: match &s.metric {
                        Metric::Counter(c) => Value::Counter(c.get()),
                        Metric::Histogram(h) => Value::Histogram(h.snapshot()),
                    },
                });
            }
        }
        series.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        Snapshot { series }
    }
}

/// The process-global registry of the histograms and the pool and poll
/// loop counters.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// One series' value at snapshot time. The histogram variant inlines
/// its 64 buckets: snapshots are cold-path plain data.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Counter(u64),
    Histogram(HistogramSnapshot),
}

/// One series at snapshot time.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    pub name: &'static str,
    pub help: &'static str,
    pub stability: Stability,
    pub labels: Vec<(&'static str, String)>,
    pub value: Value,
}

impl SeriesSnapshot {
    /// The series' labels, plus `extra` if given, as `{k="v",...}`
    /// (empty without labels).
    fn label_string(&self, extra: Option<(&str, &str)>) -> String {
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| (*k, v.as_str()))
            .chain(extra)
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        if inner.is_empty() {
            return String::new();
        }
        format!("{{{}}}", inner.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Deterministically ordered, plain-data capture of the registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub series: Vec<SeriesSnapshot>,
}

impl Snapshot {
    /// Adds one series of a struct-held counter family, keeping the
    /// snapshot's (name, labels) order.
    pub fn push_counter(
        &mut self,
        family: &CounterFamily,
        labels: &[(&'static str, &str)],
        value: u64,
    ) {
        let series = SeriesSnapshot {
            name: family.name,
            help: family.help,
            stability: family.stability,
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
            value: Value::Counter(value),
        };
        let at = self
            .series
            .partition_point(|s| (s.name, &s.labels) < (series.name, &series.labels));
        self.series.insert(at, series);
    }

    /// Look up a counter's value by family name and exact label set.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let series = self
            .series
            .iter()
            .find(|s| s.name == name && same_labels(&s.labels, labels));
        match series?.value {
            Value::Counter(v) => Some(v),
            Value::Histogram(_) => None,
        }
    }

    /// Sum of a counter family across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                Value::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Prometheus text exposition of every series. Families carry a
    /// non-standard `# STABILITY` comment so consumers (and the byte-
    /// stability check) can tell reproducible series from timing series.
    pub fn prometheus(&self) -> String {
        self.render(|_| true)
    }

    /// Prometheus text exposition restricted to deterministic families.
    /// This rendering is byte-stable across runs and `--jobs` values.
    pub fn prometheus_deterministic(&self) -> String {
        self.render(|s| s.stability == Stability::Deterministic)
    }

    fn render(&self, keep: impl Fn(&SeriesSnapshot) -> bool) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for s in self.series.iter().filter(|s| keep(s)) {
            if last_family != Some(s.name) {
                writeln!(out, "# HELP {} {}", s.name, s.help).unwrap();
                let kind = match s.value {
                    Value::Counter(_) => "counter",
                    Value::Histogram(_) => "histogram",
                };
                writeln!(out, "# TYPE {} {kind}", s.name).unwrap();
                writeln!(out, "# STABILITY {} {}", s.name, s.stability.label()).unwrap();
                last_family = Some(s.name);
            }
            let labels = s.label_string(None);
            match &s.value {
                Value::Counter(v) => writeln!(out, "{}{} {}", s.name, labels, v).unwrap(),
                Value::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &b) in h.buckets.iter().enumerate() {
                        if b == 0 && i != 0 {
                            continue;
                        }
                        cum += b;
                        writeln!(
                            out,
                            "{}_bucket{} {}",
                            s.name,
                            s.label_string(Some(("le", &bucket_upper_edge(i).to_string()))),
                            cum
                        )
                        .unwrap();
                    }
                    writeln!(
                        out,
                        "{}_bucket{} {}",
                        s.name,
                        s.label_string(Some(("le", "+Inf"))),
                        h.count
                    )
                    .unwrap();
                    writeln!(out, "{}_sum{} {}", s.name, labels, h.sum).unwrap();
                    writeln!(out, "{}_count{} {}", s.name, labels, h.count).unwrap();
                }
            }
        }
        out
    }

    /// Compact human rendering appended to `--stats` by `--metrics`.
    pub fn human_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("metrics:\n");
        for s in &self.series {
            match &s.value {
                Value::Counter(0) => {}
                Value::Counter(v) => {
                    writeln!(out, "  {}{} = {}", s.name, s.label_string(None), v).unwrap()
                }
                Value::Histogram(h) if h.count == 0 => {}
                Value::Histogram(h) => writeln!(
                    out,
                    "  {}{} count={} p50<={} p90<={} p99<={} max<={}",
                    s.name,
                    s.label_string(None),
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.max_estimate(),
                )
                .unwrap(),
            }
        }
        out
    }
}
