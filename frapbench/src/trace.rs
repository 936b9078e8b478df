//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! [`Guard`]: name (`<layer>.<operation>`), start, end, the enclosing
//! span, and the request id the call serves. Spans stay in per-thread
//! buffers while the run measures and are gathered and written out when
//! it ends. Calls on paths faster than about a million per second are
//! sampled 1-in-N through [`sampled`]; a sampled span carries weight N so
//! layer totals stay estimates of the whole, while the caller keeps exact
//! counts itself. With tracing off a guard costs one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many calls this span stands for (N for a 1-in-N sample).
    pub weight: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans kept per run; later ones are counted but dropped.
const MAX_SPANS: u64 = 2_000_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    stack: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    name: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    start_ns: u64,
    weight: u32,
}

impl Guard {
    const OFF: Guard = Guard {
        name: "",
        id: 0,
        parent: 0,
        req: 0,
        start_ns: 0,
        weight: 0,
    };

    /// Renames the span before it closes, for calls whose outcome picks
    /// the name (an admission that turned out to be a rejection).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }

    fn open(name: &'static str, req: u64, weight: u32) -> Guard {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let parent = l.stack.last().copied().unwrap_or(0);
            l.stack.push(id);
            parent
        });
        Guard {
            name,
            id,
            parent,
            req,
            start_ns: now_ns(),
            weight,
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.weight == 0 {
            return;
        }
        let end_ns = now_ns();
        let span = Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            req: self.req,
            start_ns: self.start_ns,
            end_ns,
            weight: self.weight,
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            if self.id < MAX_SPANS {
                l.spans.push(span);
            } else {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
}

/// Opens a span around one call, when tracing is on.
pub fn span(name: &'static str, req: u64) -> Guard {
    if enabled() {
        Guard::open(name, req, 1)
    } else {
        Guard::OFF
    }
}

/// Opens a span for one call in `every`, counting calls in `tick`.
pub fn sampled(name: &'static str, req: u64, tick: &mut u64, every: u32) -> Guard {
    *tick += 1;
    if enabled() && (*tick).is_multiple_of(u64::from(every)) {
        Guard::open(name, req, every)
    } else {
        Guard::OFF
    }
}

/// Moves the calling thread's spans to the shared sink. Every thread
/// that records calls this before it ends.
pub fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        SINK.lock().expect("span sink poisoned").extend(spans);
    }
}

/// Every span recorded so far (after [`flush_thread`] on each thread).
pub fn take_all() -> Vec<Span> {
    flush_thread();
    let mut spans = std::mem::take(&mut *SINK.lock().expect("span sink poisoned"));
    spans.sort_by_key(|s| s.start_ns);
    spans
}

/// Spans dropped past the per-run cap.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Per-layer self time in nanoseconds, weighted: each span's duration
/// minus the durations of its direct children.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer()).or_default() += own as f64 * f64::from(s.weight);
    }
    out
}

/// Durations in nanoseconds of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Writes the spans as CSV (`name,id,parent,req,start_ns,end_ns,weight`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,id,parent,req,start_ns,end_ns,weight")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns, s.weight
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 0,
            start_ns: start,
            end_ns: end,
            weight: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("experiments.fig4", 1, 0, 0, 100),
            span("sim.run", 2, 1, 10, 40),
            span("core.try_admit", 3, 2, 20, 25),
        ];
        let self_ns = layer_self_ns(&spans);
        assert_eq!(self_ns["experiments"], 70.0);
        assert_eq!(self_ns["sim"], 25.0);
        assert_eq!(self_ns["core"], 5.0);
    }
}
