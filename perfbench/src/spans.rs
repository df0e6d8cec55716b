//! In-memory span recorder for the traced run. A span has a name, a
//! start and end (ns since the recorder's epoch), a parent and the op it
//! belongs to. Spans are timed from the benchmark's own code around
//! calls into the program's public functions; nothing inside the
//! program is instrumented.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u32> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off (off: [`span`] costs one atomic load).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Takes every recorded span, leaving the recorder empty.
pub fn drain() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Where a span hangs: the op it belongs to and its parent span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Context {
    pub op: u32,
    pub parent: u32,
}

/// The calling thread's current op and innermost open span, to carry
/// into another thread with [`adopt`].
pub fn context() -> Context {
    Context {
        op: OP.with(Cell::get),
        parent: STACK.with(|s| s.borrow().last().copied().unwrap_or(0)),
    }
}

/// Makes `ctx` the calling thread's context until the guard drops.
pub fn adopt(ctx: Context) -> Adopted {
    let prev_op = OP.with(|o| o.replace(ctx.op));
    STACK.with(|s| s.borrow_mut().push(ctx.parent));
    Adopted { prev_op }
}

/// Restores the previous context on drop.
pub struct Adopted {
    prev_op: u32,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        STACK.with(|s| s.borrow_mut().pop());
        OP.with(|o| o.set(self.prev_op));
    }
}

/// Sets the calling thread's op id.
pub fn set_op(op: u32) {
    OP.with(|o| o.set(op));
}

/// An open span; it closes when dropped.
pub struct Guard {
    rec: Option<SpanRec>,
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { rec: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        rec: Some(SpanRec {
            id,
            parent,
            op: OP.with(Cell::get),
            name,
            start_ns: now_ns(),
            end_ns: 0,
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            rec.end_ns = now_ns();
            STACK.with(|s| s.borrow_mut().pop());
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(rec);
            }
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    f()
}

/// Self time per span name, in ns: each span's duration minus the part
/// of it its direct children cover.
pub fn self_time_ns(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// The span file: one JSON object per line, in closing order.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}
