//! Workspace automation tasks (`cargo run -p xtask -- <task>`).
//!
//! * `lint`: a source-level analysis pass over the workspace enforcing
//!   repo invariants that clippy can't express — see [`lint`] for the
//!   rule set. CI runs it as its own job; it exits non-zero with one
//!   line per finding.
//! * `loc`: the program's size, non-test non-blank lines per crate
//!   ([`loc`]). A measurement, not a gate.

mod lint;
mod loc;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- lint [--rules]\n       cargo run -p xtask -- loc";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::run(&args[1..]),
        Some("loc") => loc::run(),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Every `.rs` file of the repository as (workspace-relative path with
/// `/` separators, text), sorted by path.
fn repo_files() -> Vec<(String, String)> {
    // xtask lives at <root>/xtask, so the workspace root is one up from
    // this crate's manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory");
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths);
    paths.sort();
    paths
        .iter()
        .filter_map(|file| {
            let text = std::fs::read_to_string(file).ok()?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .replace('\\', "/");
            Some((rel, text))
        })
        .collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Build outputs and hidden directories (`.git`, the
            // benchmark driver's `.bench_build`) hold no repository code.
            let name = entry.file_name();
            if name != "target" && !name.to_string_lossy().starts_with('.') {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
