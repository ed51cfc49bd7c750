//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Tracing is off unless [`enable`] was called; a span on a disabled
//! recorder costs one relaxed load.  Spans nest per thread (a span's
//! parent is the innermost span open on the same thread), are kept in
//! memory and written out once at the end of a run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// The enclosing span on the same thread, 0 at top level.
    pub parent: u64,
    /// Layer call name, e.g. `"store.query"`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Turns recording on or off for spans opened from now on.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; records itself when dropped.
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span named `name` (inert when tracing is off).
pub fn span(name: &'static str) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied().unwrap_or(0);
        o.push(id);
        parent
    });
    Span {
        id,
        parent,
        name,
        start_ns: epoch().elapsed().as_nanos() as u64,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = epoch().elapsed().as_nanos() as u64;
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Takes every span recorded so far.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"))
}

/// Self time per span name in milliseconds: each span's duration minus
/// the durations of its children.  Children nest inside their parent on
/// one thread, so their intervals are disjoint sub-intervals of it.
pub fn self_time_ms(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// The spans as JSON lines (`id`, `parent`, `name`, `start_ns`, `end_ns`).
pub fn to_json_lines(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = |id, parent, name, start_ns, end_ns| SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            rec(2, 1, "child", 1_000_000, 3_000_000),
            rec(3, 1, "child", 4_000_000, 5_000_000),
            rec(1, 0, "parent", 0, 10_000_000),
        ];
        let t = self_time_ms(&spans);
        assert_eq!(t["parent"], 7.0);
        assert_eq!(t["child"], 3.0);
    }
}
