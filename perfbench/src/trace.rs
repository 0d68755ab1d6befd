//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer of the program.
//!
//! A span has a name, a start and an end (microseconds since the tracer
//! was created), the span that caused it, and a request id shared by
//! every span of one operation. Spans stay in memory while the workload
//! runs and are written out as JSON lines when it ends. A disabled
//! tracer records nothing; the untraced end-to-end runs use one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// A span recorder; a disabled one (`Tracer::new(false)`) records
/// nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::end`] closes it.
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, for children (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span named `name` under `parent` for `request`.
    pub fn start(&self, name: &'static str, parent: u64, request: u64) -> Open {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            request,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` and keeps it.
    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_us: micros(open.start - self.origin),
            end_us: micros(end - self.origin),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.start(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `(count, total ms, self ms)` per span name. A span's self time is its
/// duration minus the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_us - s.start_us;
        let covered = children
            .get(&s.id)
            .map(|c| union_within(c, s.start_us, s.end_us))
            .unwrap_or(0.0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total / 1000.0;
        e.2 += (total - covered).max(0.0) / 1000.0;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (mut covered, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.id, s.parent, s.request, s.name, s.start_us, s.end_us
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let iv = [(0.0, 4.0), (2.0, 6.0), (8.0, 12.0)];
        assert_eq!(union_within(&iv, 1.0, 10.0), 5.0 + 2.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let parent = t.start("outer", 0, 7);
        let pid = parent.id();
        t.span("inner", pid, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(parent);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.request == 7));
        let st = self_times(&spans);
        let (n, total, own) = st["outer"];
        assert_eq!(n, 1);
        assert!(total >= 5.0 && own < total, "{total} {own}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", 0, 1, || ());
        assert!(t.spans().is_empty());
    }
}
