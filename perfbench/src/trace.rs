//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a crate's public
//! functions in a span: name, start, end, the span that caused it and a
//! request id shared by every span of one request. Spans stay in memory
//! until the run ends and are then written out as JSON lines. With tracing
//! off (the run that measures the end-to-end metrics) a span costs one
//! relaxed load.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One recorded interval. `parent` and `req` are 0 when absent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds of `t` since the recorder's epoch.
pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh span id (0 while tracing is off), for a span whose children
/// start before it is recorded, possibly on another thread.
pub fn reserve_id() -> u64 {
    if enabled() {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Records a finished span whose id was taken with [`reserve_id`].
pub fn record(id: u64, parent: u64, req: u64, name: &'static str, start: Instant, end: Instant) {
    if id == 0 {
        return;
    }
    let span = Span {
        id,
        parent,
        req,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
    };
    SPANS.lock().expect("span buffer lock poisoned").push(span);
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id != 0 {
            record(
                self.id,
                self.parent,
                self.req,
                self.name,
                self.start,
                Instant::now(),
            );
        }
    }
}

/// Opens a span under `parent` for request `req`.
pub fn span(name: &'static str, parent: u64, req: u64) -> Guard {
    let id = reserve_id();
    Guard {
        id,
        parent,
        req,
        name,
        start: if id == 0 { epoch() } else { Instant::now() },
    }
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock poisoned"))
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Mean self time (µs) of the spans of each name.
pub fn mean_self_us(spans: &[Span]) -> HashMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut sums: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in spans {
        let e = sums.entry(s.name).or_default();
        e.0 += 1;
        e.1 += selfs[&s.id];
    }
    sums.into_iter()
        .map(|(name, (calls, own))| (name, own as f64 / calls as f64 / 1e3))
        .collect()
}

/// Writes `spans` as JSON lines (with each span's self time) to `path`.
pub fn dump(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{}}}"#,
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children [10,30) and [20,40) overlap; [90,120) is clipped to the
        // parent's end at 100.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 10);
        assert_eq!(selfs[&2], 20);
    }
}
