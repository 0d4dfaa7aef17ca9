//! Span tracing on the virtual clock: trace contexts, the per-thread
//! scope, and the lock-free span buffers.
//!
//! The design rule that makes tracing time-transparent: **this module
//! never reads a clock**. Every span's `start`/`end` are virtual
//! nanoseconds supplied by the instrumented code from the clock it
//! already holds, and the only global state a disabled tracer touches is
//! one relaxed `AtomicBool` plus an unset thread-local.
//!
//! Scope propagation is thread-local, installed at trace *roots* (the
//! `g*` entry points, a thread adopting a context handed to it) and
//! read by [`span`] at every instrumented stage in
//! between — so no function signature on the hot path had to change to
//! carry a context argument.

use std::cell::{Cell, RefCell};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A trace context: the per-`g*`-call trace id plus the current parent
/// span. `trace == 0` means "no context" (tracing off, or a frame from
/// an un-instrumented peer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id, minted once per `g*` call. Zero = none.
    pub trace: u64,
    /// The span under which new work nests. Zero = none.
    pub span: u64,
}

impl TraceCtx {
    /// The absent context.
    pub const NONE: TraceCtx = TraceCtx { trace: 0, span: 0 };

    /// Whether this is the absent context.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }
}

/// One finished span: a node of the causal tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id (unique within the tracer).
    pub span: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Stage name (`"gread"`, `"pread"`, `"net_roundtrip"`, ...).
    pub name: &'static str,
    /// Virtual start, in nanoseconds.
    pub start: u64,
    /// Virtual end, in nanoseconds.
    pub end: u64,
    /// Numeric attributes (`("bytes", n)`, `("chunk", j)`, ...).
    pub attrs: Vec<(&'static str, u64)>,
}

const N_SHARDS: usize = 16;

struct Node {
    rec: SpanRecord,
    next: *mut Node,
}

/// A lock-free push list (Treiber stack) of finished spans.
struct Shard {
    head: AtomicPtr<Node>,
}

impl Shard {
    fn push(&self, rec: SpanRecord) {
        let node = Box::into_raw(Box::new(Node {
            rec,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `node` came from Box::into_raw above and is not yet
            // shared — it is published only by the successful CAS below.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(cur) => head = cur,
            }
        }
    }

    fn drain(&self, out: &mut Vec<SpanRecord>) {
        let mut p = self.head.swap(ptr::null_mut(), Ordering::AcqRel);
        while !p.is_null() {
            // SAFETY: the swap above took sole ownership of the whole
            // list; every node in it was created by Box::into_raw in
            // `push` and is reachable exactly once.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
            out.push(node.rec);
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.drain(&mut Vec::new());
    }
}

struct TracerInner {
    enabled: AtomicBool,
    /// Id mint for traces and spans (shared namespace; starts at 1 so 0
    /// stays "none").
    next_id: AtomicU64,
    shards: [Shard; N_SHARDS],
}

impl TracerInner {
    fn mint(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, rec: SpanRecord) {
        self.shards[shard_of()].push(rec);
    }
}

/// Round-robin shard assignment per thread, so concurrent workers never
/// contend on one list head.
fn shard_of() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static MINE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    MINE.with(|m| {
        if m.get() == usize::MAX {
            m.set(NEXT.fetch_add(1, Ordering::Relaxed) % N_SHARDS);
        }
        m.get()
    })
}

/// The span sink: owned by a `GpufsHost`, shared (cloned) into mounts
/// and daemon workers. Off by default; enabling it changes
/// nothing about the simulation's virtual time (see the module docs).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A fresh, disabled tracer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(false),
                next_id: AtomicU64::new(1),
                shards: std::array::from_fn(|_| Shard {
                    head: AtomicPtr::new(ptr::null_mut()),
                }),
            }),
        }
    }

    /// Turn span collection on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being collected.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Open a root span: mints a fresh trace id and installs this thread's
    /// scope so nested [`span`] calls (and wire frames capturing
    /// [`current`]) attach to it. Inert when disabled.
    pub fn root(&self, name: &'static str) -> RootSpan {
        if !self.enabled() {
            return RootSpan { state: None };
        }
        let trace = self.inner.mint();
        let span = self.inner.mint();
        let prior = SCOPE.replace(Some(Scope {
            tracer: Arc::clone(&self.inner),
            trace,
            parents: vec![span],
        }));
        RootSpan {
            state: Some(RootState {
                tracer: Arc::clone(&self.inner),
                name,
                trace,
                span,
                prior,
            }),
        }
    }

    /// Adopt a context handed over from another thread: installs this
    /// thread's scope so its spans nest under the caller's. Inert when
    /// disabled or the context is absent.
    pub fn adopt(&self, ctx: TraceCtx) -> ScopeGuard {
        if !self.enabled() || ctx.is_none() {
            return ScopeGuard { prior: None };
        }
        let prior = SCOPE.replace(Some(Scope {
            tracer: Arc::clone(&self.inner),
            trace: ctx.trace,
            parents: vec![ctx.span],
        }));
        ScopeGuard { prior: Some(prior) }
    }

    /// Drain every finished span, sorted by `(trace, start, span)`.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            shard.drain(&mut out);
        }
        out.sort_by_key(|r| (r.trace, r.start, r.span));
        out
    }
}

struct Scope {
    tracer: Arc<TracerInner>,
    trace: u64,
    parents: Vec<u64>,
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// The calling thread's current context — what a request handed to
/// another thread or host should carry. [`TraceCtx::NONE`] when tracing
/// is off or no root is open.
#[must_use]
pub fn current() -> TraceCtx {
    SCOPE.with(|s| {
        s.borrow().as_ref().map_or(TraceCtx::NONE, |sc| TraceCtx {
            trace: sc.trace,
            span: sc.parents.last().copied().unwrap_or(0),
        })
    })
}

/// Open a child span under the current scope. Inert (and free beyond the
/// thread-local check) when no scope is installed.
pub fn span(name: &'static str) -> Span {
    SCOPE.with(|s| {
        let mut b = s.borrow_mut();
        let Some(sc) = b.as_mut() else {
            return Span { state: None };
        };
        let id = sc.tracer.mint();
        let parent = sc.parents.last().copied().unwrap_or(0);
        let state = SpanState {
            tracer: Arc::clone(&sc.tracer),
            name,
            trace: sc.trace,
            span: id,
            parent,
        };
        sc.parents.push(id);
        Span { state: Some(state) }
    })
}

/// Re-parent the current scope onto a context decoded from a wire frame
/// (decode-side attribution on the storage server). Uses the already
/// installed tracer; inert when the context is absent or no scope
/// exists on this thread.
pub fn adopt_remote(ctx: TraceCtx) -> ScopeGuard {
    if ctx.is_none() {
        return ScopeGuard { prior: None };
    }
    SCOPE.with(|s| {
        let tracer = match s.borrow().as_ref() {
            Some(sc) => Arc::clone(&sc.tracer),
            None => return ScopeGuard { prior: None },
        };
        let prior = s.replace(Some(Scope {
            tracer,
            trace: ctx.trace,
            parents: vec![ctx.span],
        }));
        ScopeGuard { prior: Some(prior) }
    })
}

struct RootState {
    tracer: Arc<TracerInner>,
    name: &'static str,
    trace: u64,
    span: u64,
    prior: Option<Scope>,
}

/// Guard for a root span. Must be `finish`ed with the caller's virtual
/// start/end times to emit; dropping it unfinished restores the prior
/// scope and records nothing.
#[must_use]
pub struct RootSpan {
    state: Option<RootState>,
}

impl RootSpan {
    /// The context this root installed ([`TraceCtx::NONE`] when inert).
    #[must_use]
    pub fn ctx(&self) -> TraceCtx {
        self.state.as_ref().map_or(TraceCtx::NONE, |st| TraceCtx {
            trace: st.trace,
            span: st.span,
        })
    }

    /// Emit the root record with explicit virtual times and attributes,
    /// restoring the thread's prior scope.
    pub fn finish_attrs(mut self, start: u64, end: u64, attrs: &[(&'static str, u64)]) {
        if let Some(mut st) = self.state.take() {
            SCOPE.with(|s| *s.borrow_mut() = st.prior.take());
            st.tracer.push(SpanRecord {
                trace: st.trace,
                span: st.span,
                parent: 0,
                name: st.name,
                start,
                end,
                attrs: attrs.to_vec(),
            });
        }
    }

    /// [`RootSpan::finish_attrs`] without attributes.
    pub fn finish(self, start: u64, end: u64) {
        self.finish_attrs(start, end, &[]);
    }
}

impl Drop for RootSpan {
    fn drop(&mut self) {
        if let Some(mut st) = self.state.take() {
            SCOPE.with(|s| *s.borrow_mut() = st.prior.take());
        }
    }
}

/// Guard restoring the thread's prior scope when an adopted context goes
/// out of scope.
#[must_use]
pub struct ScopeGuard {
    prior: Option<Option<Scope>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(prior) = self.prior.take() {
            SCOPE.with(|s| *s.borrow_mut() = prior);
        }
    }
}

struct SpanState {
    tracer: Arc<TracerInner>,
    name: &'static str,
    trace: u64,
    span: u64,
    parent: u64,
}

/// Guard for a child span. `finish` it with the caller's virtual times
/// to emit; dropping it unfinished just unwinds the parent stack.
#[must_use]
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// Whether a scope was present when this span opened.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    fn unwind(id: u64) {
        SCOPE.with(|s| {
            if let Some(sc) = s.borrow_mut().as_mut() {
                if sc.parents.last() == Some(&id) {
                    sc.parents.pop();
                }
            }
        });
    }

    /// Emit the span with explicit virtual times and attributes.
    pub fn finish_attrs(mut self, start: u64, end: u64, attrs: &[(&'static str, u64)]) {
        if let Some(st) = self.state.take() {
            Self::unwind(st.span);
            st.tracer.push(SpanRecord {
                trace: st.trace,
                span: st.span,
                parent: st.parent,
                name: st.name,
                start,
                end,
                attrs: attrs.to_vec(),
            });
        }
    }

    /// [`Span::finish_attrs`] without attributes.
    pub fn finish(self, start: u64, end: u64) {
        self.finish_attrs(start, end, &[]);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(st) = self.state.take() {
            Self::unwind(st.span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_fully_inert() {
        let t = Tracer::new();
        let root = t.root("gread");
        assert_eq!(root.ctx(), TraceCtx::NONE);
        assert_eq!(current(), TraceCtx::NONE);
        let sp = span("child");
        assert!(!sp.is_active());
        sp.finish(1, 2);
        root.finish(0, 3);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn spans_nest_and_records_form_a_tree() {
        let t = Tracer::new();
        t.set_enabled(true);
        let root = t.root("gread");
        let rctx = root.ctx();
        assert_eq!(current().trace, rctx.trace);
        let a = span("pin_miss");
        let actx = current();
        assert_eq!(actx.trace, rctx.trace);
        assert_ne!(actx.span, rctx.span, "child is the new parent");
        let b = span("rpc");
        b.finish_attrs(10, 20, &[("pages", 4)]);
        a.finish(5, 25);
        assert_eq!(current(), rctx, "stack unwound to the root");
        root.finish(0, 30);
        assert_eq!(current(), TraceCtx::NONE);

        let spans = t.snapshot();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let (g, pm, rpc) = (by_name("gread"), by_name("pin_miss"), by_name("rpc"));
        assert_eq!(g.parent, 0);
        assert_eq!(pm.parent, g.span);
        assert_eq!(rpc.parent, pm.span);
        assert!(spans.iter().all(|s| s.trace == rctx.trace));
        assert_eq!(rpc.attrs, vec![("pages", 4)]);
        assert!(t.snapshot().is_empty(), "snapshot drains");
    }

    #[test]
    fn adopt_carries_a_context_across_threads() {
        let t = Tracer::new();
        t.set_enabled(true);
        let root = t.root("gwrite");
        let ctx = current();
        let t2 = t.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _g = t2.adopt(ctx);
                let sp = span("serve");
                sp.finish(100, 200);
            });
        });
        root.finish(0, 300);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        let serve = spans.iter().find(|s| s.name == "serve").unwrap();
        assert_eq!(serve.parent, ctx.span);
        assert_eq!(serve.trace, ctx.trace);
    }

    #[test]
    fn adopt_remote_reparents_within_a_scope() {
        let t = Tracer::new();
        t.set_enabled(true);
        let root = t.root("proxy");
        let outer = current();
        {
            let _g = adopt_remote(TraceCtx {
                trace: outer.trace,
                span: 999,
            });
            let sp = span("server_pread");
            sp.finish(1, 2);
        }
        assert_eq!(current(), outer, "scope restored");
        root.finish(0, 5);
        let spans = t.snapshot();
        let srv = spans.iter().find(|s| s.name == "server_pread").unwrap();
        assert_eq!(srv.parent, 999);
        // With no scope installed, adopt_remote is inert.
        let _g = adopt_remote(outer);
        assert_eq!(current(), TraceCtx::NONE);
    }

    #[test]
    fn dropped_guards_unwind_without_emitting() {
        let t = Tracer::new();
        t.set_enabled(true);
        let root = t.root("gread");
        let ctx = root.ctx();
        {
            let _sp = span("abandoned");
        }
        assert_eq!(current(), ctx, "drop unwound the stack");
        drop(root);
        assert_eq!(current(), TraceCtx::NONE);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn concurrent_pushes_all_land() {
        let t = Tracer::new();
        t.set_enabled(true);
        std::thread::scope(|s| {
            for k in 0..8u64 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        let root = t.root("w");
                        root.finish(k * 1000 + i, k * 1000 + i + 1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().len(), 800);
    }
}
