//! `mg-telemetry`: always-on runtime metrics for the harness and service.
//!
//! This is the *system* telemetry layer — distinct from the pipeline
//! observer (`SimOptions::obs`), which explains simulated cycles.
//! Telemetry explains the machinery around the simulator: the
//! work-stealing runner, the retry/watchdog supervisor, the cache
//! tiers, the journal, and the mg-serve queue/worker pool.
//! It is compiled in unconditionally and designed so an idle metric
//! costs nothing and a hot one costs a relaxed atomic.
//!
//! Three primitives, one registry:
//!
//! - [`Counter`]: a monotonically increasing `AtomicU64`.
//! - [`Gauge`]: a signed `AtomicI64` level (queue depth, workers busy).
//! - [`TeleHist`]: a log-bucketed latency histogram — fixed octave ×
//!   sub-bucket layout of `AtomicU64` buckets with ≤ 1/8 relative
//!   bucket width, lock-free on the record path, plus exact `count`,
//!   `sum`, and `max` side-channels so `p100` and the mean are exact.
//!
//! Metrics live in a process-global [`Registry`]: registration takes a
//! mutex (cold path, once per call site via the [`tele_counter!`],
//! [`tele_gauge!`] and [`tele_hist!`] macros), updates touch only the
//! returned `Arc`'d atomics (hot path, no lock). [`Registry::snapshot`]
//! produces a serializable, mergeable [`TelemetrySnapshot`] that
//! renders to Prometheus text exposition format for the mg-serve
//! `/metrics` listener and to JSON for `results/TELEMETRY_<bin>.json`.
//!
//! # Naming taxonomy
//!
//! `mg_<subsystem>_<what>[_<unit>][_total]`, Prometheus-style:
//! counters end in `_total`, histograms of durations end in `_us`
//! (microseconds), gauges are bare levels. Fixed label sets are folded
//! into the name verbatim (e.g. `mg_serve_rejects_total{code="QueueFull"}`)
//! so the registry stays a flat string map.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// Default sub-bucket resolution: 2^3 = 8 sub-buckets per octave,
/// bounding bucket relative width at 1/8 (12.5%).
pub const DEFAULT_SUB_BITS: u32 = 3;

/// A monotonically increasing counter. Updates are relaxed atomics.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Creates a counter starting at zero (registry use; prefer
    /// [`counter`] / [`tele_counter!`]).
    pub fn new() -> Counter {
        Counter {
            v: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A signed level that can move both ways (queue depth, busy workers).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero (registry use; prefer [`gauge`] /
    /// [`tele_gauge!`]).
    pub fn new() -> Gauge {
        Gauge {
            v: AtomicI64::new(0),
        }
    }

    /// Sets the gauge to an absolute value.
    #[inline]
    pub fn set(&self, n: i64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Moves the gauge by a signed delta.
    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of buckets for a given sub-bucket resolution.
///
/// Values below `2^s` get one exact bucket each; every octave `[2^e,
/// 2^(e+1))` for `e in s..64` gets `2^s` sub-buckets. The top octave's
/// upper half never overflows `u64`, so the layout covers the full
/// `u64` range with no overflow bucket.
pub fn bucket_count(sub_bits: u32) -> usize {
    (((63 - sub_bits) as usize) << sub_bits) + (1usize << (sub_bits + 1))
}

/// Bucket index for value `v` under `sub_bits` resolution.
#[inline]
pub fn bucket_index(v: u64, sub_bits: u32) -> usize {
    if v < (1u64 << sub_bits) {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let shift = exp - sub_bits;
        (((exp - sub_bits) as usize) << sub_bits) + ((v >> shift) as usize)
    }
}

/// Inclusive `[lower, upper]` value range of bucket `i` under
/// `sub_bits` resolution.
pub fn bucket_bounds(i: usize, sub_bits: u32) -> (u64, u64) {
    let small = 1usize << sub_bits;
    if i < small {
        (i as u64, i as u64)
    } else {
        // Invert bucket_index: i = ((exp - s) << s) + m with m in
        // [2^s, 2^(s+1)).
        let exp = ((i - small) >> sub_bits) as u32 + sub_bits;
        let m = ((i & (small - 1)) + small) as u64;
        let shift = exp - sub_bits;
        let lower = m << shift;
        let upper = ((((m as u128) + 1) << shift) - 1).min(u64::MAX as u128) as u64;
        (lower, upper)
    }
}

/// Lock-free log-bucketed histogram. Record path is four relaxed
/// atomics (bucket, count, sum, max); snapshots are cheap copies.
#[derive(Debug)]
pub struct TeleHist {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    sub_bits: u32,
}

impl Default for TeleHist {
    fn default() -> TeleHist {
        TeleHist::new()
    }
}

impl TeleHist {
    /// Creates an empty histogram at [`DEFAULT_SUB_BITS`] resolution.
    pub fn new() -> TeleHist {
        TeleHist::with_sub_bits(DEFAULT_SUB_BITS)
    }

    /// Creates an empty histogram with `2^sub_bits` sub-buckets per
    /// octave (`sub_bits` clamped to `1..=6`).
    pub fn with_sub_bits(sub_bits: u32) -> TeleHist {
        let sub_bits = sub_bits.clamp(1, 6);
        let n = bucket_count(sub_bits);
        let buckets = (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        TeleHist {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            sub_bits,
        }
    }

    /// Records one observation. Saturates `sum` instead of wrapping.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v, self.sub_bits)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // fetch_update would loop; a saturating two-step is fine under
        // relaxed semantics because sum is only ever read in snapshots.
        let prev = self.sum.fetch_add(v, Ordering::Relaxed);
        if prev.checked_add(v).is_none() {
            self.sum.store(u64::MAX, Ordering::Relaxed);
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in whole microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the live buckets into a mergeable, serializable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            sub_bits: self.sub_bits,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`TeleHist`]: plain `u64` buckets plus the
/// exact `count` / `sum` / `max` side-channels. Snapshots merge
/// bucket-wise (exactly — octave sub-buckets nest across resolutions,
/// so cross-width merges fold the finer layout into the coarser one
/// without approximation beyond the coarser layout's own width).
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Sub-bucket resolution this snapshot was recorded at.
    pub sub_bits: u32,
    /// One count per bucket; length is `bucket_count(sub_bits)`.
    pub buckets: Vec<u64>,
    /// Exact number of observations.
    pub count: u64,
    /// Exact sum of observations (saturating).
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
}

impl HistSnapshot {
    /// An empty snapshot at the given resolution.
    pub fn empty(sub_bits: u32) -> HistSnapshot {
        let sub_bits = sub_bits.clamp(1, 6);
        HistSnapshot {
            sub_bits,
            buckets: vec![0; bucket_count(sub_bits)],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Re-buckets this snapshot into a coarser (or equal) resolution.
    /// Exact: every source bucket lies inside exactly one target
    /// bucket because sub-bucket boundaries nest between resolutions.
    pub fn fold_to(&self, sub_bits: u32) -> HistSnapshot {
        let sub_bits = sub_bits.clamp(1, self.sub_bits);
        if sub_bits == self.sub_bits {
            return self.clone();
        }
        let mut out = HistSnapshot::empty(sub_bits);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                let (lower, _) = bucket_bounds(i, self.sub_bits);
                out.buckets[bucket_index(lower, sub_bits)] += n;
            }
        }
        out.count = self.count;
        out.sum = self.sum;
        out.max = self.max;
        out
    }

    /// Merges `other` into `self`. Same-width merges add bucket-wise;
    /// cross-width merges first fold the finer snapshot down to the
    /// coarser resolution (which then becomes `self`'s resolution).
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 && other.buckets.iter().all(|&b| b == 0) {
            return;
        }
        if self.sub_bits != other.sub_bits {
            let common = self.sub_bits.min(other.sub_bits);
            let folded_self = self.fold_to(common);
            let folded_other = other.fold_to(common);
            *self = folded_self;
            return self.merge(&folded_other);
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Quantile `q` in `[0, 1]`. Returns the upper bound of the bucket
    /// holding the `ceil(q * count)`-th observation, clamped to the
    /// exact recorded `max` (so `quantile(1.0)` is exact). Zero when
    /// empty. Accurate to the bucket's relative width (≤ `1 / 2^sub_bits`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(n);
            if cum >= target {
                return bucket_bounds(i, self.sub_bits).1.min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded observations (exact from `sum` / `count`).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Hist(Arc<TeleHist>),
}

/// A named collection of metrics. One process-global instance lives
/// behind [`global`]; tests may build private registries.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn hist(&self, name: &str) -> Arc<TeleHist> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Hist(Arc::new(TeleHist::new())))
        {
            Metric::Hist(h) => Arc::clone(h),
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Copies every registered metric into a serializable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock().unwrap();
        let mut snap = TelemetrySnapshot::default();
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Hist(h) => {
                    snap.hists.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A serializable point-in-time copy of a [`Registry`]. This is the
/// wire/disk form: the mg-serve `Stats` verb carries one, `run_cli`
/// writes one to `results/TELEMETRY_<bin>.json`, and `/metrics`
/// renders one to Prometheus text.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by metric name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl TelemetrySnapshot {
    /// Merges `other` into `self`: counters and gauges add (shard
    /// semantics — queue depths across shards sum), histograms merge
    /// bucket-wise per [`HistSnapshot::merge`].
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.hists {
            self.hists
                .entry(name.clone())
                .or_insert_with(|| HistSnapshot::empty(h.sub_bits))
                .merge(h);
        }
    }

    /// Counter value by name, zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, zero if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4). Histogram buckets are collapsed to cumulative
    /// counts at power-of-two `le` bounds so a 496-bucket histogram
    /// renders as at most ~64 lines.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let base = |name: &str| -> String {
            match name.find('{') {
                Some(i) => name[..i].to_string(),
                None => name.to_string(),
            }
        };
        let mut type_line = |out: &mut String, name: &str, kind: &'static str| {
            let b = base(name);
            if typed.insert(b.clone()) {
                let _ = writeln!(out, "# TYPE {b} {kind}");
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, name, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, name, "gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.hists {
            type_line(&mut out, name, "histogram");
            let mut cum = 0u64;
            let mut next_bound = 1u64 << (h.sub_bits + 1);
            let mut i = 0usize;
            while i < h.buckets.len() {
                let (_, upper) = bucket_bounds(i, h.sub_bits);
                if upper >= next_bound {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", next_bound - 1);
                    if cum >= h.count {
                        break;
                    }
                    next_bound = next_bound.saturating_mul(2);
                    continue;
                }
                cum += h.buckets[i];
                i += 1;
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry every subsystem records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Get-or-register a counter in the global registry (cold path; cache
/// the handle — see [`tele_counter!`]).
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Get-or-register a gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Get-or-register a histogram in the global registry.
pub fn hist(name: &str) -> Arc<TeleHist> {
    global().hist(name)
}

/// Snapshot of the global registry.
pub fn snapshot() -> TelemetrySnapshot {
    global().snapshot()
}

/// A cached handle to a global-registry counter: the registry mutex is
/// taken once per call site, after which each use is a relaxed atomic.
#[macro_export]
macro_rules! tele_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::telemetry::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::telemetry::counter($name))
    }};
}

/// A cached handle to a global-registry gauge (see [`tele_counter!`]).
#[macro_export]
macro_rules! tele_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::telemetry::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::telemetry::gauge($name))
    }};
}

/// A cached handle to a global-registry histogram (see [`tele_counter!`]).
#[macro_export]
macro_rules! tele_hist {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::telemetry::TeleHist>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::telemetry::hist($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_roundtrips_into_bounds() {
        for s in 1..=6u32 {
            for &v in &[0u64, 1, 2, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, u64::MAX] {
                let i = bucket_index(v, s);
                let (lo, hi) = bucket_bounds(i, s);
                assert!(lo <= v && v <= hi, "v={v} s={s} i={i} lo={lo} hi={hi}");
                assert!(i < bucket_count(s));
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = TeleHist::new();
        for v in 0..8 {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..8 {
            assert_eq!(s.buckets[v as usize], 1, "value {v}");
        }
    }

    #[test]
    fn registry_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.add(3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("clash");
        r.gauge("clash");
    }

    #[test]
    fn prometheus_text_has_type_lines() {
        let r = Registry::new();
        r.counter("mg_a_total").add(5);
        r.gauge("mg_b").set(-2);
        r.hist("mg_c_us").record(100);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE mg_a_total counter"));
        assert!(text.contains("mg_a_total 5"));
        assert!(text.contains("mg_b -2"));
        assert!(text.contains("# TYPE mg_c_us histogram"));
        assert!(text.contains("mg_c_us_count 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
    }

    #[test]
    fn labeled_counters_share_one_type_line() {
        let r = Registry::new();
        r.counter("mg_rej_total{code=\"A\"}").add(1);
        r.counter("mg_rej_total{code=\"B\"}").add(2);
        let text = r.snapshot().to_prometheus();
        assert_eq!(text.matches("# TYPE mg_rej_total counter").count(), 1);
        assert!(text.contains("mg_rej_total{code=\"A\"} 1"));
        assert!(text.contains("mg_rej_total{code=\"B\"} 2"));
    }
}
