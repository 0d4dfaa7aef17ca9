//! Observer-effect guard for the span tracer: tracing is compiled in
//! everywhere (the `g*` entry points, the pin path, the daemon
//! pipeline, the wire protocol, the dirty-page cap's sweep), so it must
//! be *time-transparent* — a run with tracing enabled must produce the
//! same bit-identical virtual finish time and the same counter sheets
//! as a run with tracing off (the default). The moment an instrumented
//! stage reads the clock differently, charges the link for the trace
//! ctx riding a wire frame, or bumps a counter it shouldn't, this
//! fails.

mod common;

use common::fig4_smoke_point;

#[test]
fn fig4_smoke_point_is_identical_with_tracing_on_and_off() {
    let on = fig4_smoke_point(true);
    let off = fig4_smoke_point(false);
    // Virtual time bit-identical and every counter sheet equal: the
    // tracer observed the run without altering it.
    assert_eq!(on.end_ns, off.end_ns, "tracing perturbed virtual time");
    assert_eq!(on.registry, off.registry, "tracing perturbed a counter");
    assert!(on.spans > 0 && off.spans == 0);
}
