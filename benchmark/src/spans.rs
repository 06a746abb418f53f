//! Spans recorded around calls into the measured layers, kept in memory
//! and written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of it covered by
//! its children. Per worker and parallel phase, self times plus the idle
//! tail at the end of the phase plus an explicit `unattributed` residue
//! add up to the phase's wall time; a large residue means the spans miss
//! work.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub worker: usize,
    /// Bench or bench/cell the span works for (empty: the parent's).
    pub id: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one task on one worker thread.
pub struct Recorder {
    t0: Instant,
    worker: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The worker index of the current thread: `mg-worker-<n>` threads of
/// the sweep runner's pool report `n`, any other thread 0.
pub fn current_worker() -> usize {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("mg-worker-"))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

impl Recorder {
    pub fn new(t0: Instant) -> Recorder {
        Recorder {
            t0,
            worker: current_worker(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: String) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            worker: self.worker,
            id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `idx`, which must be the innermost open one.
    pub fn end(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Times one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, String::new());
        let out = f();
        self.end(s);
        out
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }
}

/// Appends one task's spans to `all`, rebasing parent indices.
pub fn absorb(all: &mut Vec<Span>, task: Vec<Span>) {
    let base = all.len();
    all.extend(task.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times per span name.
pub fn self_by_name(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, &t) in spans.iter().zip(selfs) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Sum of whole durations per span name, for spans not nested in a span
/// of the same name.
pub fn inclusive_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        let mut up = s.parent;
        let mut nested = false;
        while let Some(p) = up {
            nested |= spans[p].name == s.name;
            up = spans[p].parent;
        }
        if !nested {
            *out.entry(s.name).or_insert(0) += s.duration_ns();
        }
    }
    out
}

/// Where the workers' wall time went during parallel phases.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Conservation {
    /// Sum over workers of the phase wall time.
    pub wall_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
    /// Idle time after a worker's last task, before the phase ended.
    pub tail_ns: u64,
    /// Wall time no span and no tail accounts for.
    pub unattributed_ns: i64,
}

impl Conservation {
    /// Accounts one phase that ran from `start_ns` to `end_ns` on
    /// `workers` workers; `spans` are the spans recorded during it.
    pub fn add_phase(&mut self, start_ns: u64, end_ns: u64, workers: usize, spans: &[Span]) {
        let selfs = self_times(spans);
        for w in 0..workers {
            let wall = end_ns - start_ns;
            let own = || spans.iter().zip(&selfs).filter(|(s, _)| s.worker == w);
            let self_ns: u64 = own().map(|(_, &t)| t).sum();
            let last_end = own().map(|(s, _)| s.end_ns).max().unwrap_or(start_ns);
            let tail = end_ns.saturating_sub(last_end);
            self.wall_ns += wall;
            self.self_ns += self_ns;
            self.tail_ns += tail;
            self.unattributed_ns += wall as i64 - self_ns as i64 - tail as i64;
        }
    }

    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// The span list as JSON, each span with its resolved id.
pub fn to_json(spans: &[Span]) -> Value {
    let resolved = |mut i: usize| loop {
        if !spans[i].id.is_empty() {
            return spans[i].id.clone();
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return String::new(),
        }
    };
    Value::Seq(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("worker".into(), Value::U64(s.worker as u64)),
                    ("id".into(), Value::Str(resolved(i))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            worker: 0,
            id: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("task", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("simulate", 20, 50, Some(1)),
            span("cell", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        // Self times of a tree add up to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by = self_by_name(&spans, &self_times(&spans));
        assert_eq!(by["cell"], 50);
        assert_eq!(inclusive_by_name(&spans)["cell"], 80);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("task", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn inclusive_time_skips_nested_namesakes() {
        let spans = vec![
            span("context", 0, 50, None),
            span("context", 5, 45, Some(0)),
        ];
        assert_eq!(inclusive_by_name(&spans)["context"], 50);
    }

    #[test]
    fn conservation_adds_up_to_wall_time() {
        let mut spans = vec![
            span("task", 5, 60, None),
            span("simulate", 10, 50, Some(0)),
            span("task", 62, 80, None),
        ];
        let mut other = span("task", 0, 95, None);
        other.worker = 1;
        spans.push(other);
        let mut c = Conservation::default();
        c.add_phase(0, 100, 2, &spans);
        assert_eq!(c.wall_ns, 200);
        assert_eq!(c.self_ns, 55 + 18 + 95);
        assert_eq!(c.tail_ns, 20 + 5);
        // Worker 0 lost 5ns before its first task and 2ns between tasks.
        assert_eq!(c.unattributed_ns, 7);
        assert_eq!(
            c.self_ns as i64 + c.tail_ns as i64 + c.unattributed_ns,
            c.wall_ns as i64
        );
    }

    #[test]
    fn recorder_nests_and_absorb_rebases() {
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0);
        let task = rec.begin("task", "b".into());
        let x = rec.time("gen", || 41 + 1);
        rec.end(task);
        let spans = rec.finish();
        assert_eq!(x, 42);
        assert_eq!(spans[1].parent, Some(0));
        let mut all = vec![span("other", 0, 1, None)];
        absorb(&mut all, spans);
        assert_eq!(all[2].parent, Some(1));
        let json = serde_json::to_string(&to_json(&all)).unwrap();
        assert!(json.contains("\"id\":\"b\""), "{json}");
    }
}
