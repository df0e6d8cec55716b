//! The machine-readable benchmark summary: `BENCH_PDE.json`.
//!
//! Every section of the `report` binary is one [`Record`]: an id, a
//! workload description and named [`Series`] — the median and
//! interquartile range of `n` samples, plus integer counters. The
//! acceptance bars live in one in-code table, [`BARS`]; a bar's verdict
//! is a pure function of a record's numbers ([`Bar::judge`]). Timing
//! series come from [`paired`], the one measurement rule behind every
//! timing bar. [`validate`] re-derives the bar list and every verdict
//! from the table and the document's numbers, so it never trusts a
//! threshold or verdict written in the document.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pdce_trace::json::{self, Value};
use pdce_trace::SolverStats;

/// Schema version stamped into the document; bump on breaking changes.
pub const SCHEMA_VERSION: u64 = 11;

/// The records every document carries, in emission order.
pub const RECORD_IDS: [&str; 8] = [
    "figures", "sweep", "tracing", "tv", "csr", "metrics", "serve", "recovery",
];

/// The `--wall-ms` admission cap of the serving section; its warm p99
/// latency must stay within it.
pub const SERVE_WALL_MS: u64 = 200;

/// Fewest measured pairs behind a [`paired`] series.
pub const MIN_PAIRS: usize = 20;

/// Most measured pairs behind a [`paired`] series; a bar whose range
/// still straddles its threshold here fails.
pub const MAX_PAIRS: usize = 40;

/// Runs of each side behind one [`paired`] pair, interleaved with the
/// other side's; the fastest is kept, which drops scheduler spikes from
/// the per-pair statistic.
pub const SIDE_RUNS: usize = 3;

/// One acceptance bar: `metric op threshold` over record `record`.
///
/// `metric` names a series, whose whole `[q1, q3]` range must clear the
/// bar, or `series.counter`, which must. A series name ending in `*`
/// matches every series with that prefix; a metric that matches nothing
/// fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bar {
    /// Id of the record the bar reads.
    pub record: &'static str,
    /// What the bar reads.
    pub metric: &'static str,
    /// One of `<`, `<=`, `==`, `>=`, `>`.
    pub op: &'static str,
    /// The threshold.
    pub threshold: f64,
}

const fn bar(record: &'static str, metric: &'static str, op: &'static str, threshold: f64) -> Bar {
    Bar {
        record,
        metric,
        op,
        threshold,
    }
}

/// Every acceptance bar; the only place thresholds live.
pub const BARS: [Bar; 14] = [
    // Every worked example reproduces the paper's expected output.
    bar("figures", "*.reproduced", "==", 1.0),
    // Per-round translation validation costs under 10% over none, and
    // the validated side really ran round checks.
    bar("tv", "tv_overhead_pct", "<", 10.0),
    bar("tv", "on_ns.tv_checks", ">", 0.0),
    // One shared CSR view saves at least 10% over per-consumer rebuilds.
    bar("csr", "csr_walltime_reduction_pct", ">=", 10.0),
    // Metrics recording costs under 2%, the deterministic exposition is
    // byte-stable across --jobs, and pass latency quantiles exist.
    bar("metrics", "metrics_overhead_pct", "<", 2.0),
    bar("metrics", "snapshot_stable", "==", 1.0),
    bar("metrics", "pass_latency:*", ">=", 0.0),
    // Warm serving sustains 10k req/s with p99 within the admission
    // cap, answers byte-identically, and is at least 30% faster.
    bar("serve", "req_per_sec", ">=", 10_000.0),
    bar("serve", "p99_ns", "<=", SERVE_WALL_MS as f64 * 1e6),
    bar("serve", "warm_identical", "==", 1.0),
    bar("serve", "warm_speedup_pct", ">=", 30.0),
    // The crash drill loses nothing and changes no byte; journaling
    // costs under 5%.
    bar("recovery", "requests_lost", "==", 0.0),
    bar("recovery", "warm_identical_after_crash", "==", 1.0),
    bar("recovery", "wal_overhead_pct", "<", 5.0),
];

/// Where `[lo, hi]` falls against `op threshold`: `Some(true)` when the
/// whole range clears it, `Some(false)` when the whole range misses it,
/// `None` when it straddles.
fn decide(op: &str, threshold: f64, lo: f64, hi: f64) -> Option<bool> {
    let holds = |v: f64| match op {
        "<" => v < threshold,
        "<=" => v <= threshold,
        "==" => v == threshold,
        ">=" => v >= threshold,
        ">" => v > threshold,
        _ => false,
    };
    (holds(lo) == holds(hi)).then_some(holds(lo))
}

impl Bar {
    /// Judges the bar on `record`'s numbers; `Err` says what missed. A
    /// straddling range is a miss.
    pub fn judge(&self, record: Option<&Record>) -> Result<(), String> {
        let (id, metric) = (self.record, self.metric);
        let record = record.ok_or_else(|| format!("{id}.{metric}: record missing"))?;
        let (pattern, counter) = match metric.split_once('.') {
            Some((series, counter)) => (series, Some(counter)),
            None => (metric, None),
        };
        let matched: Vec<&Series> = (record.series.iter())
            .filter(|s| match pattern.strip_suffix('*') {
                Some(prefix) => s.name.starts_with(prefix),
                None => s.name == pattern,
            })
            .collect();
        if matched.is_empty() {
            return Err(format!("{id}.{metric}: no series matches"));
        }
        let mut misses = Vec::new();
        for s in matched {
            let (what, lo, hi) = match counter {
                Some(c) => {
                    let v = s.counters.get(c).map_or(f64::NAN, |&v| v as f64);
                    (format!("{}.{c} {v}", s.name), v, v)
                }
                None => {
                    let (q1, q3, m, n) = (s.q1, s.q3, s.median, s.n);
                    (
                        format!("{} [q1 {q1}, q3 {q3}] (median {m}, n {n})", s.name),
                        q1,
                        q3,
                    )
                }
            };
            if decide(self.op, self.threshold, lo, hi) != Some(true) {
                let (op, t) = (self.op, self.threshold);
                misses.push(format!("{id}.{what} misses the {op} {t} bar"));
            }
        }
        if misses.is_empty() {
            Ok(())
        } else {
            Err(misses.join("; "))
        }
    }
}

/// One named series: median and interquartile range of `n` samples,
/// plus integer counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Name, unique within its record and free of `.`.
    pub name: String,
    /// Median sample.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind the quartiles.
    pub n: u64,
    /// Named counters.
    pub counters: BTreeMap<String, u64>,
}

impl Series {
    /// The quartiles of `samples` (at least one), linearly interpolated
    /// and rounded to three decimals so the written document re-reads as
    /// exactly the numbers that were judged.
    pub fn of(name: &str, samples: &[f64]) -> Series {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            let pos = p * (sorted.len() - 1) as f64;
            let (i, frac) = (pos as usize, pos.fract());
            let next = sorted.get(i + 1).unwrap_or(&sorted[i]);
            ((sorted[i] + (next - sorted[i]) * frac) * 1000.0).round() / 1000.0
        };
        Series {
            name: name.to_string(),
            median: quantile(0.5),
            q1: quantile(0.25),
            q3: quantile(0.75),
            n: sorted.len() as u64,
            counters: BTreeMap::new(),
        }
    }

    /// A single measured or derived value.
    pub fn value(name: &str, v: f64) -> Series {
        Series::of(name, &[v])
    }

    /// Adds a counter.
    pub fn with(mut self, counter: &str, v: u64) -> Series {
        self.counters.insert(counter.to_string(), v);
        self
    }

    /// Adds the data-flow solver counters.
    pub fn with_solver(self, s: &SolverStats) -> Series {
        self.with("problems", s.problems)
            .with("evaluations", s.evaluations)
            .with("revisits", s.revisits)
            .with("word_ops", s.word_ops)
            .with("priority_pops", s.priority_pops)
    }
}

/// One section of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// One of [`RECORD_IDS`].
    pub id: String,
    /// What was measured.
    pub workload: String,
    /// The measured series.
    pub series: Vec<Series>,
}

/// The complete document.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// The records, in [`RECORD_IDS`] order.
    pub records: Vec<Record>,
}

impl Document {
    /// The record with id `id`, if present.
    fn record(&self, id: &str) -> Option<&Record> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Serializes the document, one series or bar per line, stamping each
    /// record with its bars from [`BARS`] and their verdicts.
    pub fn to_json(&self) -> String {
        let sep = |i: usize| if i == 0 { "\n" } else { ",\n" };
        let mut out = format!(
            "{{\n\"schema_version\":{SCHEMA_VERSION},\n\"quick\":{},\n\"records\":[",
            self.quick
        );
        for (i, r) in self.records.iter().enumerate() {
            let (id, workload) = (json::escaped(&r.id), json::escaped(&r.workload));
            let _ = write!(
                out,
                "{}{{\"id\":{id},\"workload\":{workload},\"series\":[",
                sep(i)
            );
            for (j, s) in r.series.iter().enumerate() {
                let counters: Vec<String> = (s.counters.iter())
                    .map(|(k, v)| format!("{}:{v}", json::escaped(k)))
                    .collect();
                let _ = write!(
                    out,
                    "{}{{\"name\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"counters\":{{{}}}}}",
                    sep(j),
                    json::escaped(&s.name),
                    s.median,
                    s.q1,
                    s.q3,
                    s.n,
                    counters.join(",")
                );
            }
            out.push_str("\n],\"bars\":[");
            for (j, b) in BARS.iter().filter(|b| b.record == r.id).enumerate() {
                let verdict = if b.judge(Some(r)).is_ok() {
                    "pass"
                } else {
                    "fail"
                };
                let _ = write!(
                    out,
                    "{}{{\"metric\":{},\"op\":\"{}\",\"threshold\":{},\"verdict\":\"{verdict}\"}}",
                    sep(j),
                    json::escaped(b.metric),
                    b.op,
                    b.threshold
                );
            }
            out.push_str("\n]}");
        }
        out + "\n]\n}\n"
    }

    /// Reads a document's records back, checking its structure; the
    /// bars are not read (see [`validate`]).
    fn parse(text: &str) -> Result<Document, String> {
        let doc = json::parse(text)?;
        let get = |v: &'_ Value, key: &str| {
            v.get(key)
                .cloned()
                .ok_or_else(|| format!("missing key `{key}`"))
        };
        let num = |v: &Value, key: &str| {
            get(v, key)?
                .as_num()
                .ok_or(format!("`{key}` is not a number"))
        };
        let text = |v: &Value, key: &str| match get(v, key)? {
            Value::Str(s) => Ok(s),
            _ => Err(format!("`{key}` is not a string")),
        };
        let arr = |v: &Value, key: &str| match get(v, key)? {
            Value::Arr(a) => Ok(a),
            _ => Err(format!("`{key}` is not an array")),
        };
        if num(&doc, "schema_version")? != SCHEMA_VERSION as f64 {
            return Err(format!("schema_version is not {SCHEMA_VERSION}"));
        }
        let quick = get(&doc, "quick")?
            .as_bool()
            .ok_or("`quick` is not a bool")?;
        let mut records = Vec::new();
        for r in arr(&doc, "records")? {
            let id = text(&r, "id")?;
            let mut series = Vec::new();
            for s in arr(&r, "series")? {
                let name = text(&s, "name")?;
                let ctx = |e: String| format!("{id} `{name}`: {e}");
                let [median, q1, q3, n] =
                    ["median", "q1", "q3", "n"].map(|k| num(&s, k).map_err(ctx));
                let (median, q1, q3, n) = (median?, q1?, q3?, n?);
                if !(q1 <= median && median <= q3 && n >= 1.0 && n.fract() == 0.0) {
                    return Err(ctx("quartiles out of order or `n` not a count".into()));
                }
                let Value::Obj(map) = get(&s, "counters").map_err(ctx)? else {
                    return Err(ctx("`counters` is not an object".into()));
                };
                let mut counters = BTreeMap::new();
                for (k, c) in map {
                    match c.as_num() {
                        Some(c) if c >= 0.0 && c.fract() == 0.0 => counters.insert(k, c as u64),
                        _ => return Err(ctx(format!("counter `{k}` is not a count"))),
                    };
                }
                let n = n as u64;
                series.push(Series {
                    name,
                    median,
                    q1,
                    q3,
                    n,
                    counters,
                });
            }
            let workload = text(&r, "workload")?;
            records.push(Record {
                id,
                workload,
                series,
            });
        }
        if let Some(missing) = RECORD_IDS
            .iter()
            .find(|id| !records.iter().any(|r| r.id == **id))
        {
            return Err(format!("record `{missing}` is missing"));
        }
        Ok(Document { quick, records })
    }
}

/// One side's result in a [`paired`] measurement: its wall time in
/// nanoseconds, alone or with what the run produced.
pub trait Timed {
    /// Wall time of the run, nanoseconds.
    fn ns(&self) -> f64;
}

impl Timed for f64 {
    fn ns(&self) -> f64 {
        *self
    }
}

impl<T> Timed for (f64, T) {
    fn ns(&self) -> f64 {
        self.0
    }
}

/// The fastest of `runs`.
fn fastest<T: Timed>(runs: Vec<T>) -> T {
    (runs.into_iter())
        .min_by(|x, y| x.ns().total_cmp(&y.ns()))
        .expect("SIDE_RUNS > 0")
}

/// Measures interleaved A/B pairs for record `record`: each pair runs
/// `a` and `b` alternately [`SIDE_RUNS`] times each (which side goes
/// first alternates between pairs), keeps each side's fastest run, and
/// `stats` turns the two into one sample per name in `names`. After one
/// unrecorded warm-up pair it measures [`MIN_PAIRS`] pairs, then adds
/// pairs while the interquartile range of any [`BARS`] entry on these
/// names straddles its threshold, up to [`MAX_PAIRS`].
pub fn paired<A: Timed, B: Timed>(
    record: &str,
    names: &[&str],
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
    mut stats: impl FnMut(A, B) -> Vec<f64>,
) -> Vec<Series> {
    let bars: Vec<(usize, &Bar)> = (BARS.iter())
        .filter(|bar| bar.record == record)
        .filter_map(|bar| Some((names.iter().position(|n| *n == bar.metric)?, bar)))
        .collect();
    a();
    b();
    let mut samples = vec![Vec::new(); names.len()];
    for pair in 0..MAX_PAIRS {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for _ in 0..SIDE_RUNS {
            if pair % 2 == 0 {
                xs.push(a());
                ys.push(b());
            } else {
                ys.push(b());
                xs.push(a());
            }
        }
        let (x, y) = (fastest(xs), fastest(ys));
        for (column, v) in samples.iter_mut().zip(stats(x, y)) {
            column.push(v);
        }
        let decided = bars.iter().all(|&(i, bar)| {
            let s = Series::of("", &samples[i]);
            decide(bar.op, bar.threshold, s.q1, s.q3).is_some()
        });
        if pair + 1 >= MIN_PAIRS && decided {
            break;
        }
    }
    (names.iter().zip(&samples))
        .map(|(name, column)| Series::of(name, column))
        .collect()
}

/// Validates an emitted `BENCH_PDE.json`: well-formed JSON of this
/// schema version carrying every record of [`RECORD_IDS`], written
/// exactly as [`Document::to_json`] writes its own numbers — so its bar
/// list, thresholds and verdicts are the table's — and every bar
/// passing.
///
/// # Errors
///
/// Structural problems fail fast with the first violation. A document
/// that differs from its canonical form and every failed bar are
/// collected and reported together, so one regressed number never
/// masks another.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = Document::parse(text)?;
    let canonical = doc.to_json();
    let mut failures = Vec::new();
    if text != canonical {
        let mut lines = text.lines().zip(canonical.lines()).enumerate();
        failures.push(match lines.find(|(_, (got, want))| got != want) {
            Some((i, (got, want))) => format!(
                "line {} reads `{got}`, but the bar table and the document's numbers \
                 give `{want}`",
                i + 1
            ),
            None => "the document's length differs from its canonical form".into(),
        });
    }
    failures.extend(
        BARS.iter()
            .filter_map(|b| b.judge(doc.record(b.record)).err()),
    );
    match failures.len() {
        0 => Ok(()),
        1 => Err(failures.remove(0)),
        n => Err(format!(
            "{n} acceptance bars failed:\n  - {}",
            failures.join("\n  - ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document passing every bar.
    fn sample() -> Document {
        let v = Series::value;
        let records = [
            (
                "figures",
                vec![v("F1→F2", 52e3).with("reproduced", 1).with("word_ops", 900)],
            ),
            ("sweep", vec![v("pde:24", 1e6).with("blocks", 25)]),
            (
                "tracing",
                vec![Series::of("disabled_ab_delta_pct", &[-1.0, 0.4, 2.0])],
            ),
            (
                "tv",
                vec![
                    Series::of("tv_overhead_pct", &[4.5, 5.0, 5.5]),
                    v("on_ns", 1e6).with("tv_checks", 6),
                ],
            ),
            ("csr", vec![v("csr_walltime_reduction_pct", 23.1)]),
            (
                "metrics",
                vec![
                    v("metrics_overhead_pct", 0.8),
                    v("snapshot_stable", 1.0),
                    v("pass_latency:pde", 524_287.0),
                ],
            ),
            (
                "serve",
                vec![
                    v("req_per_sec", 4e4),
                    v("p99_ns", 11e4),
                    v("warm_identical", 1.0),
                    v("warm_speedup_pct", 90.0),
                ],
            ),
            (
                "recovery",
                vec![
                    v("requests_lost", 0.0),
                    v("warm_identical_after_crash", 1.0),
                    v("wal_overhead_pct", 2.0),
                ],
            ),
        ];
        Document {
            quick: true,
            records: (records.into_iter())
                .map(|(id, series)| Record {
                    id: id.into(),
                    workload: format!("{id} workload"),
                    series,
                })
                .collect(),
        }
    }

    /// Sets `metric` (a series, or `series.counter`; `*` picks the first
    /// series) of record `id` to `v`.
    fn set(doc: &mut Document, id: &str, metric: &str, v: f64) {
        let r = doc.records.iter_mut().find(|r| r.id == id).unwrap();
        let (name, counter) = metric
            .split_once('.')
            .map_or((metric, None), |(s, c)| (s, Some(c)));
        let s = r
            .series
            .iter_mut()
            .find(|s| name == "*" || s.name == name)
            .unwrap();
        match counter {
            Some(c) => *s.counters.get_mut(c).unwrap() = v as u64,
            None => (s.median, s.q1, s.q3) = (v, v, v),
        }
    }

    /// Drives each bar of record `id` just past its threshold — and to
    /// it, for the strict `<` and `>` bars — and checks that validation
    /// fails on exactly that bar, by name.
    fn assert_bars_enforced(id: &str) {
        let bars: Vec<&Bar> = BARS
            .iter()
            .filter(|b| b.record == id && !b.metric.ends_with('*'))
            .collect();
        assert!(!bars.is_empty(), "record {id} has no bars");
        for b in bars {
            let t = b.threshold;
            let values = match b.op {
                "<" => vec![t + 0.001, t],
                ">" => vec![t],
                "<=" => vec![t + 1.0],
                ">=" => vec![t - 0.001],
                _ => vec![if t >= 1.0 { t - 1.0 } else { t + 1.0 }],
            };
            for v in values {
                let mut doc = sample();
                set(&mut doc, id, b.metric, v);
                let err = validate(&doc.to_json()).unwrap_err();
                let name = b.metric.rsplit('.').next().unwrap();
                assert!(
                    err.contains(name) && !err.contains("bars failed"),
                    "{} at {v}: {err}",
                    b.metric
                );
            }
        }
    }

    #[test]
    fn emitted_document_validates() {
        let text = sample().to_json();
        validate(&text).expect("schema-valid");
        assert!(text.contains("\"schema_version\":11"));
        assert_eq!(text.matches("\"verdict\":\"pass\"").count(), BARS.len());
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
        assert_eq!(Document::parse(&sample().to_json()), Ok(sample()));
    }

    #[test]
    fn validation_rejects_violations() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        // A failed figure reproduction fails its bar: the summary must
        // never silently publish a broken corpus.
        assert_bars_enforced("figures");
        // Tampered counters and missing records are caught.
        let good = sample().to_json();
        for bad in [
            "\"word_ops\":\"x\"",
            "\"word_ops\":-900",
            "\"word_ops\":0.5",
        ] {
            let err = validate(&good.replace("\"word_ops\":900", bad)).unwrap_err();
            assert!(err.contains("word_ops"), "{err}");
        }
        let mut doc = sample();
        doc.records.retain(|r| r.id != "sweep");
        assert!(validate(&doc.to_json()).unwrap_err().contains("sweep"));
    }

    #[test]
    fn validation_enforces_tv_overhead_bar() {
        assert_bars_enforced("tv");
    }

    #[test]
    fn validation_enforces_csr_walltime_bar() {
        assert_bars_enforced("csr");
    }

    #[test]
    fn validation_enforces_metrics_overhead_bar() {
        assert_bars_enforced("metrics");
    }

    #[test]
    fn validation_requires_stable_snapshots_and_pass_latency() {
        let mut doc = sample();
        set(&mut doc, "metrics", "snapshot_stable", 0.0);
        assert!(validate(&doc.to_json())
            .unwrap_err()
            .contains("snapshot_stable"));
        let mut doc = sample();
        doc.records[5]
            .series
            .retain(|s| !s.name.starts_with("pass_latency"));
        assert!(validate(&doc.to_json())
            .unwrap_err()
            .contains("pass_latency"));
    }

    #[test]
    fn validation_enforces_serve_bars() {
        assert_bars_enforced("serve");
        // p99 exactly at the admission cap passes (the bar is `<=`).
        let mut doc = sample();
        set(&mut doc, "serve", "p99_ns", SERVE_WALL_MS as f64 * 1e6);
        validate(&doc.to_json()).expect("p99 at the cap passes");
    }

    #[test]
    fn validation_requires_tv_checks_behind_the_ab() {
        let mut doc = sample();
        set(&mut doc, "tv", "on_ns.tv_checks", 0.0);
        assert!(validate(&doc.to_json()).unwrap_err().contains("tv_checks"));
    }

    #[test]
    fn validation_enforces_recovery_bars() {
        assert_bars_enforced("recovery");
    }

    #[test]
    fn validation_reports_every_violated_bar_at_once() {
        let mut doc = sample();
        set(&mut doc, "recovery", "requests_lost", 1.0);
        set(&mut doc, "recovery", "warm_identical_after_crash", 0.0);
        set(&mut doc, "serve", "warm_speedup_pct", 0.0);
        let err = validate(&doc.to_json()).unwrap_err();
        assert!(err.contains("3 acceptance bars failed"), "{err}");
        for name in [
            "requests_lost",
            "warm_identical_after_crash",
            "warm_speedup_pct",
        ] {
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn validation_rejects_a_document_whose_bars_differ_from_the_table() {
        let good = sample().to_json();
        let tv =
            "{\"metric\":\"tv_overhead_pct\",\"op\":\"<\",\"threshold\":10,\"verdict\":\"pass\"}";
        let cases = [
            good.replace(&format!("\n{tv},"), "\n"),
            good.replace(tv, &tv.replace("\"<\"", "\"<=\"")),
            good.replace(tv, &tv.replace(":10,", ":50,")),
            good.replace(tv, &tv.replace("pass", "fail")),
            good.replace(tv, &format!("{tv},\n{}", tv.replace("tv_", "xx_"))),
        ];
        for text in cases {
            assert_ne!(text, good);
            let err = validate(&text).unwrap_err();
            assert!(
                err.contains("the bar table") && err.contains("_overhead_pct"),
                "{err}"
            );
        }
    }

    #[test]
    fn paired_decision_rule_on_synthetic_samples() {
        let tv = |values: &[f64]| {
            let mut next = values.iter().cycle();
            let series = paired(
                "tv",
                &["tv_overhead_pct"],
                || 0.0,
                || 0.0,
                |_, _| vec![*next.next().unwrap()],
            );
            let record = Record {
                id: "tv".into(),
                workload: String::new(),
                series,
            };
            (
                record.series[0].n as usize,
                BARS[1].judge(Some(&record)).is_ok(),
            )
        };
        // A clear pass and a clear fail stop at the minimum; a range
        // straddling the threshold extends to the cap, then fails.
        assert_eq!(tv(&[1.0, 2.0, 3.0]), (MIN_PAIRS, true));
        assert_eq!(tv(&[30.0, 25.0, 35.0]), (MIN_PAIRS, false));
        assert_eq!(tv(&[5.0, 15.0]), (MAX_PAIRS, false));
        // After the warm-up pair, the first pair runs A first, the next
        // B; each side keeps the fastest of its runs.
        let order = std::cell::RefCell::new(String::new());
        let side = |c: char| {
            let order = &order;
            let mut ns = 10.0;
            move || {
                order.borrow_mut().push(c);
                ns -= 1.0;
                (ns, c)
            }
        };
        let mut kept = Vec::new();
        paired("tracing", &["x"], side('a'), side('b'), |x, y| {
            kept.push((x.0, y.0));
            vec![0.0]
        });
        let start = ["ab", &"ab".repeat(SIDE_RUNS), &"ba".repeat(SIDE_RUNS)].concat();
        assert!(order.into_inner().starts_with(&start));
        let first = 10.0 - 1.0 - SIDE_RUNS as f64;
        assert_eq!(kept[0], (first, first));
    }
}
