//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer's public API in a
//! span: name, start, end, the span that caused it, and the id of the
//! sweep point it belongs to. Spans are appended to one vector under a
//! mutex (a few thousand per run, so contention is negligible next to the
//! millisecond-scale calls they wrap) and written out when the run ends.
//! Self time — a span's duration minus the part of it its children
//! cover — is computed from the finished list.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of the point a span belongs to when it serves the whole run (set-up,
/// store open, scheduling) rather than one sweep point.
pub const NO_POINT: u64 = u64::MAX;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub point: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. Shared by reference across worker threads.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

/// An open span; closes (and is recorded) on [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    name: &'static str,
    point: u64,
    start_ns: u64,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or one whose spans cost a
    /// branch and are dropped, so traced and untraced runs share code.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: Option<u64>, point: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                name,
                point,
                start_ns: 0,
            };
        }
        // Ids only need to be unique; they publish no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            name,
            point,
            start_ns: self.now_ns(),
        }
    }

    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            point: open.point,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(span);
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        point: u64,
        f: impl FnOnce(&Open) -> R,
    ) -> R {
        let open = self.begin(name, parent, point);
        let out = f(&open);
        self.end(open);
        out
    }

    pub fn finish(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span list lock poisoned");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (children may run on other threads; overlapping children
/// count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    out
}

/// Share of `root`'s duration that no other span covers, subtracted from
/// one: the fraction of the traced wall attributed to layer spans.
pub fn coverage(spans: &[Span], root: &Span) -> f64 {
    let self_ns = self_times(spans)[&root.id];
    1.0 - self_ns as f64 / root.dur_ns().max(1) as f64
}

/// Tab-separated dump: one span per line.
pub fn to_tsv(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut s = String::from("id\tparent\tname\tpoint\tstart_ns\tend_ns\tself_ns\n");
    for sp in spans {
        let _ = writeln!(
            s,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            sp.id,
            sp.parent.map_or_else(|| "-".to_string(), |p| p.to_string()),
            sp.name,
            if sp.point == NO_POINT {
                "-".to_string()
            } else {
                sp.point.to_string()
            },
            sp.start_ns,
            sp.end_ns,
            selfs[&sp.id]
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            point: NO_POINT,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(3), 30, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 0);
        assert_eq!(coverage(&spans, &spans[0]), 0.5);
    }
}
