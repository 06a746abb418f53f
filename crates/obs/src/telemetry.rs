//! `mg-telemetry`: always-on runtime metrics for the harness and service.
//!
//! This is the *system* telemetry layer — distinct from the pipeline
//! observer (`SimOptions::obs`), which explains simulated cycles.
//! Telemetry explains the machinery around the simulator: the
//! work-stealing runner, the watchdog supervisor, the cache
//! tiers, the journal, and the mg-serve queue/worker pool.
//! It is compiled in unconditionally and designed so an idle metric
//! costs nothing and a hot one costs a relaxed atomic.
//!
//! Three primitives, one registry:
//!
//! - [`Counter`]: a monotonically increasing `AtomicU64`.
//! - [`Gauge`]: a signed `AtomicI64` level (queue depth, workers busy).
//! - [`TeleHist`]: a log-bucketed latency histogram — one fixed octave
//!   × sub-bucket layout ([`SUB_BITS`], [`BUCKETS`]) of `AtomicU64`
//!   buckets with ≤ 1/8 relative bucket width, lock-free on the record
//!   path, plus exact `count`, `sum`, and `max` side-channels so `p100`
//!   and the mean are exact. Every histogram and snapshot shares the
//!   layout.
//!
//! Metrics live in a process-global [`Registry`]: registration takes a
//! mutex (cold path, once per call site via the [`tele_counter!`],
//! [`tele_gauge!`] and [`tele_hist!`] macros), updates touch only the
//! returned `Arc`'d atomics (hot path, no lock). [`Registry::snapshot`]
//! produces a serializable [`TelemetrySnapshot`]: the mg-serve `Stats`
//! verb carries one over the wire and `run_cli` writes one to
//! `results/TELEMETRY_<bin>.json`.
//!
//! # Naming taxonomy
//!
//! `mg_<subsystem>_<what>[_<unit>][_total]`: counters end in `_total`, histograms of durations end in `_us`
//! (microseconds), gauges are bare levels. Fixed label sets are folded
//! into the name verbatim (e.g. `mg_serve_rejects_total{code="QueueFull"}`)
//! so the registry stays a flat string map.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution of every histogram: 2^3 = 8 sub-buckets per
/// octave, bounding bucket relative width at 1/8 (12.5%).
pub const SUB_BITS: u32 = 3;

/// Number of buckets in every histogram.
///
/// Values below `2^SUB_BITS` get one exact bucket each; every octave
/// `[2^e, 2^(e+1))` for `e in SUB_BITS..64` gets `2^SUB_BITS`
/// sub-buckets. The top octave's upper half never overflows `u64`, so
/// the layout covers the full `u64` range with no overflow bucket.
pub const BUCKETS: usize = (((63 - SUB_BITS) as usize) << SUB_BITS) + (1usize << (SUB_BITS + 1));

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

/// Bucket index for value `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < (1u64 << SUB_BITS) {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        (((exp - SUB_BITS) as usize) << SUB_BITS) + ((v >> shift) as usize)
    }
}

/// Inclusive `[lower, upper]` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let small = 1usize << SUB_BITS;
    if i < small {
        (i as u64, i as u64)
    } else {
        // Invert bucket_index: i = ((exp - s) << s) + m with m in
        // [2^s, 2^(s+1)).
        let exp = ((i - small) >> SUB_BITS) as u32 + SUB_BITS;
        let m = ((i & (small - 1)) + small) as u64;
        let shift = exp - SUB_BITS;
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
}

impl Default for TeleHist {
    fn default() -> TeleHist {
        TeleHist::new()
    }
}

impl TeleHist {
    /// Creates an empty histogram.
    pub fn new() -> TeleHist {
        TeleHist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Saturates `sum` instead of wrapping.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
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

    /// Copies the live buckets into a serializable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            sub_bits: SUB_BITS,
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
/// exact `count` / `sum` / `max` side-channels. Every snapshot shares
/// one bucket layout. The default is the empty snapshot.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Sub-bucket resolution of the layout: always [`SUB_BITS`], kept so
    /// the serialized form describes its own buckets.
    pub sub_bits: u32,
    /// One count per bucket; length is [`BUCKETS`].
    pub buckets: Vec<u64>,
    /// Exact number of observations.
    pub count: u64,
    /// Exact sum of observations (saturating).
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            sub_bits: SUB_BITS,
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Quantile `q` in `[0, 1]`. Returns the upper bound of the bucket
    /// holding the `ceil(q * count)`-th observation, clamped to the
    /// exact recorded `max` (so `quantile(1.0)` is exact). Zero when
    /// empty. Accurate to the bucket's relative width (≤ `1 / 2^SUB_BITS`).
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
                return bucket_bounds(i).1.min(self.max);
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
/// wire/disk form: the mg-serve `Stats` verb carries one and `run_cli`
/// writes one to `results/TELEMETRY_<bin>.json`.
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
    /// Counter value by name, zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
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
        for &v in &[0u64, 1, 2, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            assert!(i < BUCKETS);
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

        // A snapshot copies every kind, labeled names included.
        r.counter("mg_a_total").add(5);
        r.counter("mg_rej_total{code=\"A\"}").add(1);
        r.gauge("mg_b").set(-2);
        r.hist("mg_c_us").record(100);
        let snap = r.snapshot();
        assert_eq!(snap.counter("mg_a_total"), 5);
        assert_eq!(
            snap.counter("mg_rej_total{code=\"A\"}"),
            1,
            "labels fold into the name"
        );
        assert_eq!(
            snap.counter("mg_absent_total"),
            0,
            "absent counters read zero"
        );
        assert_eq!(snap.gauges["mg_b"], -2);
        assert_eq!(snap.hists["mg_c_us"].count, 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("clash");
        r.gauge("clash");
    }
}
