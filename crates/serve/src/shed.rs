//! Load shedding: admission control for the worker queue.
//!
//! A queue that only rejects when *full* still lets latency grow
//! without bound — by the time the 64th job is queued behind one slow
//! worker, every accepted job waits minutes. [`Shed`] refuses work
//! earlier, on either of two signals:
//!
//! * **queue depth** — jobs admitted but not yet claimed by a worker;
//! * **recent queue-wait p99** — the tail of how long claimed jobs sat
//!   queued, measured over a short rotating window (current + previous
//!   [`TeleHist`] buckets, so the estimate forgets old load within two
//!   window lengths instead of averaging over the process lifetime).
//!
//! A shed job gets a typed [`crate::protocol::ErrorCode::Overloaded`]
//! reject carrying a `retry_after_ms` hint — the larger of the
//! configured floor and the recent p99, i.e. "come back when the
//! backlog you would have joined has likely cleared". Only would-be
//! *owners* are ever shed: coalescing onto an in-flight execution or
//! replaying a finished one adds no queue load, so those are always
//! admitted.
//!
//! Both thresholds are optional ([`ShedConfig`]); with neither set the
//! shed admits everything and only the bounded queue itself pushes
//! back.

use mg_obs::telemetry::{HistSnapshot, TeleHist};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Thresholds for [`Shed`]; `None` disables that signal.
#[derive(Clone, Debug, Default)]
pub struct ShedConfig {
    /// Shed when this many jobs are already queued.
    pub depth: Option<usize>,
    /// Shed when the recent queue-wait p99 exceeds this.
    pub wait_p99: Option<Duration>,
    /// Floor for the `retry_after_ms` hint on shed rejects.
    pub retry_after: Duration,
}

/// Why a job was shed, with the backoff hint to send the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Overload {
    /// Human-readable reason (which signal tripped, at what value).
    pub detail: String,
    /// Suggested client backoff.
    pub retry_after_ms: u64,
}

struct Windows {
    current: TeleHist,
    previous: HistSnapshot,
    rotated_at: Instant,
}

/// The admission controller. One per server, shared behind an `Arc`.
pub struct Shed {
    cfg: ShedConfig,
    window: Duration,
    state: Mutex<Windows>,
}

/// How long one wait-observation window lasts; the p99 estimate spans
/// the current and previous windows, so it covers 10–20 s of history.
const WINDOW: Duration = Duration::from_secs(10);

impl Shed {
    /// A controller with the given thresholds and the default window.
    pub fn new(cfg: ShedConfig) -> Shed {
        Shed::with_window(cfg, WINDOW)
    }

    /// A controller with an explicit window length (tests use tiny
    /// windows to exercise rotation deterministically).
    pub fn with_window(cfg: ShedConfig, window: Duration) -> Shed {
        Shed {
            cfg,
            window,
            state: Mutex::new(Windows {
                current: TeleHist::new(),
                previous: HistSnapshot::default(),
                rotated_at: Instant::now(),
            }),
        }
    }

    /// Records how long a claimed job sat queued. Workers call this at
    /// claim time, mirroring the `mg_serve_queue_wait_us` histogram but
    /// windowed so the p99 tracks *recent* load.
    pub fn record_wait(&self, wait: Duration) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        Self::rotate_if_due(&mut s, self.window);
        s.current.record_duration(wait);
    }

    /// The queue-wait p99 over the last one-to-two windows.
    pub fn recent_wait_p99(&self) -> Duration {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        Self::rotate_if_due(&mut s, self.window);
        let mut merged = s.current.snapshot();
        merged.merge(&s.previous);
        Duration::from_micros(merged.quantile(0.99))
    }

    fn rotate_if_due(s: &mut Windows, window: Duration) {
        if s.rotated_at.elapsed() >= window {
            s.previous = s.current.snapshot();
            s.current = TeleHist::new();
            s.rotated_at = Instant::now();
        }
    }

    /// Admission check for a would-be owner, given the current queue
    /// depth. `Err` carries the typed overload with its backoff hint.
    pub fn admit(&self, queue_depth: usize) -> Result<(), Overload> {
        if let Some(limit) = self.cfg.depth {
            if queue_depth >= limit {
                return Err(self.overload(format!(
                    "queue depth {queue_depth} at the {limit}-job shed threshold"
                )));
            }
        }
        if let Some(limit) = self.cfg.wait_p99 {
            let p99 = self.recent_wait_p99();
            if p99 > limit {
                return Err(self.overload(format!(
                    "recent queue-wait p99 {}ms over the {}ms shed threshold",
                    p99.as_millis(),
                    limit.as_millis()
                )));
            }
        }
        Ok(())
    }

    fn overload(&self, detail: String) -> Overload {
        let hint = self.recent_wait_p99().max(self.cfg.retry_after);
        Overload {
            detail,
            retry_after_ms: u64::try_from(hint.as_millis()).unwrap_or(u64::MAX).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(depth: Option<usize>, wait_p99_ms: Option<u64>) -> ShedConfig {
        ShedConfig {
            depth,
            wait_p99: wait_p99_ms.map(Duration::from_millis),
            retry_after: Duration::from_millis(100),
        }
    }

    #[test]
    fn unconfigured_shed_admits_everything() {
        let shed = Shed::new(ShedConfig::default());
        shed.record_wait(Duration::from_secs(30));
        assert!(shed.admit(usize::MAX).is_ok());
    }

    #[test]
    fn depth_threshold_sheds_with_a_floored_hint() {
        let shed = Shed::new(cfg(Some(4), None));
        assert!(shed.admit(3).is_ok());
        let over = shed.admit(4).unwrap_err();
        assert!(over.detail.contains("queue depth 4"), "{}", over.detail);
        assert_eq!(over.retry_after_ms, 100, "no wait data: the floor wins");
    }

    #[test]
    fn wait_p99_threshold_sheds_and_scales_the_hint() {
        let shed = Shed::new(cfg(None, Some(50)));
        assert!(shed.admit(0).is_ok(), "no observations yet");
        for _ in 0..100 {
            shed.record_wait(Duration::from_millis(400));
        }
        let over = shed.admit(0).unwrap_err();
        assert!(over.detail.contains("queue-wait p99"), "{}", over.detail);
        assert!(
            over.retry_after_ms >= 400,
            "hint {}ms tracks the observed tail",
            over.retry_after_ms
        );
    }

    #[test]
    fn old_load_rotates_out_of_the_estimate() {
        // A zero-length window rotates on every touch: after two
        // touches with no new observations, the estimate is empty.
        let shed = Shed::with_window(cfg(None, Some(50)), Duration::ZERO);
        for _ in 0..100 {
            shed.record_wait(Duration::from_millis(400));
        }
        assert!(shed.admit(0).is_err(), "tail is hot right after the burst");
        assert_eq!(
            shed.recent_wait_p99(),
            Duration::ZERO,
            "history rotated out"
        );
        assert!(
            shed.admit(0).is_ok(),
            "estimate recovered with the load gone"
        );
    }
}
