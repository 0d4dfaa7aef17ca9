//! Observability for the GPUfs reproduction: span tracing and unified
//! metrics on the **virtual clock**.
//!
//! The simulation's figures are explanations of time — where a GPU file
//! fault spends its nanoseconds across pin, RPC, daemon pread, DMA, and
//! the network hop. This crate turns those stages into data:
//!
//! * **Span tracing** ([`Tracer`], [`SpanRecord`]) — a trace id is
//!   minted per `g*` call and carried through the RPC serve path, the
//!   daemon pipeline, and the remote wire protocol. Each stage emits
//!   `(span, parent, start_vns, end_vns, attrs)` into per-thread
//!   lock-free buffers drained at [`Tracer::snapshot`], so a
//!   single fault renders as a causal tree: `gread → pin_miss →
//!   rpc:ReadPages → [pread ∥ dma] → net_roundtrip → server:ReadPages`.
//! * **Metrics registry** ([`Registry`], [`Counter`]) — one typed home
//!   for the counter sheets and read-through probes, with hierarchical
//!   [`Labels`] (gpu/tenant) and a cheap snapshot. Aggregate sheets are
//!   *sum views* over leaf cells ([`Counter::sum`]), so per-tenant and
//!   per-GPU totals cannot drift from the aggregate: there is exactly
//!   one write path.
//! * **Latency digest** ([`Histogram`]) — log-octave virtual-time
//!   buckets; the traffic harness's per-tenant tail reports build on it.
//! * **Exporters** ([`chrome_trace_json`], [`folded_stacks`]) — Chrome
//!   trace-event JSON (loads in Perfetto / `chrome://tracing`) and a
//!   flamegraph-ready folded-stack dump.
//!
//! ## Time transparency
//!
//! Tracing is compiled in but **off by default**, and it is structurally
//! incapable of perturbing the simulation: every span's start and end
//! are virtual timestamps *supplied by the caller* — this crate never
//! reads or advances any clock, takes no locks on the hot path (span
//! buffers are lock-free push lists), and when disabled every call is a
//! branch on an unset thread-local. The `trace_equiv` integration test
//! asserts bit-identical virtual finish times and counter sheets with
//! tracing on vs off.

mod counter;
mod export;
mod hist;
mod registry;
mod trace;

pub use counter::Counter;
pub use export::{chrome_trace_json, folded_stacks};
pub use hist::Histogram;
pub use registry::{Labels, Registry};
pub use trace::{
    adopt_remote, current, span, RootSpan, ScopeGuard, Span, SpanRecord, TraceCtx, Tracer,
};
