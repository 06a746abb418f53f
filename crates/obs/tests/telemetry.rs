//! Property tests for the telemetry histogram and the span tracer.
//!
//! The histogram's contract is precise: `count`, `sum` (saturating),
//! and `max` are exact side-channels; quantiles are bucket upper
//! bounds, so they over-estimate by at most the bucket's relative
//! width (`1 / 2^SUB_BITS`); and merges add bucket-wise, from any
//! snapshot including the default empty one. Each of those claims gets
//! a test here, the statistical ones generative and driven by a seeded
//! generator so runs are reproducible.

use mg_obs::telemetry::{bucket_index, HistSnapshot, TeleHist, TelemetrySnapshot, BUCKETS};
use mg_obs::{span, ChromeTrace, TraceEvent};
use proptest::prelude::*;

/// Seeded value generator mixing magnitudes from single digits up to
/// near `u64::MAX`, so buckets from the exact small-value range, many
/// octaves, and the top octave all get exercised.
fn values_from_seed(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let raw = next();
            // Pick a magnitude: shift the raw draw down by 0..64 bits.
            let shift = (next() % 65) as u32;
            raw.checked_shr(shift).unwrap_or(0)
        })
        .collect()
}

/// The exact `q`-quantile under the histogram's own definition: the
/// `max(1, ceil(q * n))`-th smallest observation.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let k = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[k.min(sorted.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exact side-channels plus the quantile error bound: the reported
    /// quantile is at least the exact one and overshoots by at most
    /// `v >> SUB_BITS` (one bucket width).
    #[test]
    fn quantiles_are_within_one_bucket_width(seed in 0u64..512) {
        let n = 1 + (seed as usize % 200);
        let values = values_from_seed(seed, n);
        let hist = TeleHist::new();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();

        prop_assert_eq!(snap.count, n as u64);
        let expect_sum = values.iter().fold(0u64, |a, &v| a.saturating_add(v));
        prop_assert_eq!(snap.sum, expect_sum);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        prop_assert_eq!(snap.quantile(1.0), snap.max, "q=1 is exact");

        for &q in &[0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let got = snap.quantile(q);
            prop_assert!(got >= exact, "q={q}: {got} < exact {exact}");
            prop_assert!(
                got <= exact.saturating_add(exact >> snap.sub_bits),
                "q={q}: {got} overshoots exact {exact} by more than a bucket"
            );
        }
    }

    /// Quantiles never regress as q grows.
    #[test]
    fn quantiles_are_monotone(seed in 0u64..256) {
        let values = values_from_seed(seed, 64);
        let hist = TeleHist::new();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let mut prev = 0u64;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let cur = snap.quantile(q);
            prop_assert!(cur >= prev, "quantile({q}) = {cur} < {prev}");
            prev = cur;
        }
    }

    /// Merge is bucket-wise addition (commutative).
    #[test]
    fn same_width_merge_commutes(seed in 0u64..128) {
        let a_vals = values_from_seed(seed, 30);
        let b_vals = values_from_seed(seed ^ 0xDEAD_BEEF, 30);
        let record = |vals: &[u64]| {
            let h = TeleHist::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let (a, b) = (record(&a_vals), record(&b_vals));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }
}

#[test]
fn saturation_at_u64_max_does_not_wrap() {
    let hist = TeleHist::new();
    hist.record(u64::MAX);
    hist.record(u64::MAX);
    hist.record(5);
    let snap = hist.snapshot();
    assert_eq!(snap.count, 3);
    assert_eq!(snap.sum, u64::MAX, "sum saturates instead of wrapping");
    assert_eq!(snap.max, u64::MAX);
    assert_eq!(snap.quantile(1.0), u64::MAX);
    assert_eq!(snap.quantile(0.1), 5, "small values stay exact");
    // The top bucket exists: no overflow bucket, no panic.
    assert!(bucket_index(u64::MAX) < BUCKETS);
}

#[test]
fn merging_an_empty_snapshot_is_identity() {
    let hist = TeleHist::new();
    for v in [1u64, 100, 10_000] {
        hist.record(v);
    }
    let before = hist.snapshot();
    let mut after = before.clone();
    after.merge(&HistSnapshot::default());
    assert_eq!(after, before);
}

#[test]
fn merging_into_a_default_snapshot_copies_the_other() {
    let hist = TeleHist::new();
    for v in [0u64, 7, 100, 10_000, u64::MAX] {
        hist.record(v);
    }
    let recorded = hist.snapshot();
    let mut merged = HistSnapshot::default();
    merged.merge(&recorded);
    assert_eq!(merged, recorded);
    assert_eq!(merged.quantile(1.0), u64::MAX);
}

#[test]
fn telemetry_merge_takes_a_histogram_present_on_one_side() {
    let hist = TeleHist::new();
    hist.record(42);
    let mut with_hist = TelemetrySnapshot::default();
    with_hist
        .hists
        .insert("mg_x_us".to_string(), hist.snapshot());
    with_hist.counters.insert("mg_y_total".to_string(), 2);

    // Missing on the receiving side: the histogram is copied in.
    let mut merged = TelemetrySnapshot::default();
    merged.merge(&with_hist);
    assert_eq!(merged, with_hist);

    // Missing on the merged-in side: the histogram is unchanged.
    let mut without_hist = TelemetrySnapshot::default();
    without_hist.counters.insert("mg_y_total".to_string(), 3);
    merged.merge(&without_hist);
    assert_eq!(merged.hists["mg_x_us"], hist.snapshot());
    assert_eq!(merged.counter("mg_y_total"), 5);
}

/// Span nesting and the Chrome-trace round trip share one test: the
/// span buffer is process-global, so interleaving with a second span
/// test would race on `drain()`.
#[test]
fn span_nesting_and_chrome_trace_round_trip() {
    span::set_enabled(true);
    let _ = span::drain(); // start from an empty buffer
    {
        let outer = span::span("sweep", "outer");
        assert_eq!(outer.depth(), 1, "1 = outermost");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let inner = span::span("bench", "inner");
            assert_eq!(inner.depth(), 2, "nesting tracked per thread");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    std::thread::Builder::new()
        .name("mg-test-span".to_string())
        .spawn(|| {
            let _s = span::span("cell", "threaded");
        })
        .unwrap()
        .join()
        .unwrap();
    span::set_enabled(false);

    let events = span::drain();
    let complete: Vec<&TraceEvent> = events.iter().filter(|e| e.ph == "X").collect();
    assert_eq!(complete.len(), 3, "outer, inner, threaded");
    let by_name = |n: &str| *complete.iter().find(|e| e.name == n).unwrap();
    let (outer, inner) = (by_name("outer"), by_name("inner"));
    assert!(inner.ts >= outer.ts, "inner starts inside outer");
    assert!(
        inner.ts + inner.dur <= outer.ts + outer.dur,
        "inner ends before outer"
    );
    assert_eq!(outer.args.get("depth").map(String::as_str), Some("1"));
    assert_eq!(inner.args.get("depth").map(String::as_str), Some("2"));
    let threaded = by_name("threaded");
    assert_ne!(threaded.tid, outer.tid, "other thread, other tid");
    assert!(
        events
            .iter()
            .any(|e| e.ph == "M" && e.args.get("name").map(String::as_str) == Some("mg-test-span")),
        "thread-name metadata emitted for the named thread"
    );

    // Round trip: what Perfetto loads is exactly what was recorded.
    let json = serde_json::to_string(&span::chrome_trace(events.clone())).unwrap();
    let back: ChromeTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back.displayTimeUnit, "ms");
    assert_eq!(back.traceEvents, events);
}
