//! Spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent and run (iteration) id.
//! Spans are kept in memory and written as JSON lines when the benchmark
//! ends, each with its self time: its duration minus the part of its
//! interval covered by its children. With recording off, [`Spans::open`]
//! and [`Spans::close`] only read the clock, so untraced runs time their
//! phases through the same calls.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub run: u64,
    pub start: Duration,
    pub end: Duration,
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    run: u64,
    start: Instant,
}

impl Open {
    /// The id children pass as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The span store of one benchmark run.
pub struct Spans {
    recording: bool,
    epoch: Instant,
    inner: Mutex<(u64, Vec<Span>)>,
}

impl Spans {
    /// A store that records (`recording`) or only times.
    pub fn new(recording: bool) -> Spans {
        Spans {
            recording,
            epoch: Instant::now(),
            inner: Mutex::new((1, Vec::new())),
        }
    }

    /// Start a span named `name` under `parent` in iteration `run`.
    pub fn open(&self, name: &'static str, parent: Option<&Open>, run: u64) -> Open {
        let id = if self.recording {
            let mut g = self.inner.lock().expect("span store poisoned");
            g.0 += 1;
            g.0
        } else {
            0
        };
        Open {
            id,
            parent: parent.map(Open::id),
            name,
            run,
            start: Instant::now(),
        }
    }

    /// End `open`; returns its duration.
    pub fn close(&self, open: Open) -> Duration {
        let end = Instant::now();
        let took = end - open.start;
        if self.recording {
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                run: open.run,
                start: open.start - self.epoch,
                end: end - self.epoch,
            };
            self.inner.lock().expect("span store poisoned").1.push(span);
        }
        took
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let sp = self.open(name, parent, run);
        let out = f();
        (out, self.close(sp))
    }

    /// Every recorded span, in order of ending.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.inner.lock().expect("span store poisoned").1)
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals clipped to it (children may overlap, e.g. the
/// reader thread beside the sender's calls).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(Duration, Duration)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// The spans as JSON lines (times in microseconds since the run began).
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"run\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}\n",
            s.id,
            s.name,
            s.run,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            (s.end - s.start).as_secs_f64() * 1e6,
            own.as_secs_f64() * 1e6,
        ));
    }
    out
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, Duration)> {
    let mut by: Vec<(&'static str, Duration)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match by.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, d)) => *d += own,
            None => by.push((s.name, own)),
        }
    }
    by.sort_by_key(|&(_, own)| std::cmp::Reverse(own));
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            run: 0,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60), // overlaps span 2
            span(4, Some(2), 10, 20),
            span(5, Some(1), 90, 120), // runs past its parent
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_millis(100 - 50 - 10));
        assert_eq!(own[1], Duration::from_millis(30 - 10));
        assert_eq!(own[2], Duration::from_millis(30));
        assert_eq!(own[3], Duration::from_millis(10));
    }

    #[test]
    fn untraced_store_times_but_keeps_nothing() {
        let spans = Spans::new(false);
        let (v, took) = spans.time("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(took >= Duration::ZERO);
        assert!(spans.take().is_empty());
        let traced = Spans::new(true);
        let root = traced.open("root", None, 3);
        traced.time("child", Some(&root), 3, || ());
        traced.close(root);
        let got = traced.take();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].parent, Some(got[1].id));
        assert!(to_jsonl(&got).lines().count() == 2);
    }
}
