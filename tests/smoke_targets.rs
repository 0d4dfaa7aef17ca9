//! Smoke test against bench/example rot: builds every example and bench
//! target, checks that the full expected target set is still declared,
//! and runs the example so its assertion checks something.
//!
//! `cargo test` only compiles test targets, so a broken bench or example
//! would otherwise go unnoticed until someone runs `cargo bench`. This
//! test shells back out to cargo (cheap when the targets are already
//! built) so the tier-1 suite fails the moment any of them stops
//! compiling, is dropped from the manifests, or (the example) fails.

use std::process::Command;

const EXAMPLES: &[&str] = &["quickstart"];

const BENCHES: &[&str] = &[
    "ablation_design",
    "fig4_seq_read",
    "fig5_breakdown",
    "fig6_random_read",
    "fig7_cache_access",
    "fig8_matvec",
    "table2_cache_size",
    "table3_imgmatch",
    "table4_grep",
];

fn cargo() -> Command {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

#[test]
fn all_examples_and_benches_compile() {
    let output = cargo()
        .args(["build", "--examples", "--benches"])
        .output()
        .expect("failed to spawn cargo");
    assert!(
        output.status.success(),
        "`cargo build --examples --benches` failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn quickstart_runs() {
    let output = cargo()
        .args(["run", "-q", "--example", "quickstart"])
        .output()
        .expect("failed to spawn cargo");
    assert!(
        output.status.success(),
        "`cargo run --example quickstart` failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn expected_target_set_is_declared() {
    let output = cargo()
        .args(["metadata", "--format-version", "1", "--no-deps"])
        .output()
        .expect("failed to spawn cargo");
    assert!(output.status.success(), "cargo metadata failed");
    let metadata = String::from_utf8_lossy(&output.stdout);

    // Naive but dependency-free: each target appears in the metadata as a
    // ["kind"],"name" pair. Enough to catch a target being deleted or
    // renamed without updating this list.
    for example in EXAMPLES {
        let needle = format!("[\"example\"],\"crate_types\":[\"bin\"],\"name\":\"{example}\"");
        assert!(
            metadata.contains(&needle),
            "example target {example} missing"
        );
    }
    for bench in BENCHES {
        let needle = format!("[\"bench\"],\"crate_types\":[\"bin\"],\"name\":\"{bench}\"");
        assert!(metadata.contains(&needle), "bench target {bench} missing");
    }
}
