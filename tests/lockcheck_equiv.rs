//! Observer-effect guard for the lockcheck instrumentation: one
//! Figure-4-style smoke point (sequential read walk with readahead) run
//! twice in one process — detector enabled, then runtime-disabled —
//! must produce the same registry snapshot and a bit-identical virtual
//! finish time. The checker may only watch; the moment it perturbs lock
//! semantics or the simulated clock, this fails.

mod common;

use common::fig4_smoke_point;
use parking_lot::lockcheck;

#[test]
fn fig4_smoke_point_is_identical_with_lockcheck_on_and_off() {
    // `cargo test` compiles the shim with the `lockcheck` feature (via
    // the workspace dev-dependency), so unless the run was started with
    // LOCKCHECK=0 the first pass below actually exercises the detector.
    let compiled_in = lockcheck::enabled();

    lockcheck::set_enabled(true);
    let waived_before = lockcheck::waived_count();
    let on = fig4_smoke_point(false);
    if compiled_in {
        let reports = lockcheck::take_reports();
        assert!(
            reports.is_empty(),
            "clean run reports nothing: {reports:#?}"
        );
        assert!(
            lockcheck::waived_count() > waived_before,
            "the gopen path-lock waiver (lockcheck.toml) is exercised"
        );
    }

    lockcheck::set_enabled(false);
    let off = fig4_smoke_point(false);
    lockcheck::set_enabled(true);

    // Virtual time bit-identical and the full registry snapshot equal:
    // the checker observed the run without altering it.
    assert_eq!(on, off, "lockcheck perturbed the run");
}
