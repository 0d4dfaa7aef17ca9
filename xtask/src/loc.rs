//! The `xtask loc` count: the program's non-test, non-blank `.rs` lines,
//! per crate and in total.
//!
//! Only `crates/*/src` is counted: a crate's `benches/` and `tests/` are
//! not. Each file is cut at a `#[cfg(test)]` line followed by
//! `mod tests`, the unit-test module that closes a file in this tree;
//! any other `#[cfg(test)]` item stays counted. Blank lines are not
//! counted.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Entry point for `cargo run -p xtask -- loc`.
pub fn run() -> ExitCode {
    let files = crate::repo_files();
    let per_crate = count(
        files
            .iter()
            .map(|(rel, text)| (rel.as_str(), text.as_str())),
    );
    for (krate, lines) in &per_crate {
        println!("{krate:<10} {lines:>6}");
    }
    println!("{:<10} {:>6}", "total", per_crate.values().sum::<usize>());
    ExitCode::SUCCESS
}

/// Counted lines per crate of `files`, each a (workspace-relative path,
/// text) pair.
fn count<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> BTreeMap<&'a str, usize> {
    let mut per_crate = BTreeMap::new();
    for (rel, text) in files {
        let mut parts = rel.split('/');
        if let (Some("crates"), Some(krate), Some("src")) =
            (parts.next(), parts.next(), parts.next())
        {
            *per_crate.entry(krate).or_default() += code_lines(text);
        }
    }
    per_crate
}

/// Non-blank lines of `text` before its `#[cfg(test)]` + `mod tests`.
fn code_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    let cut = lines
        .windows(2)
        .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod tests"))
        .unwrap_or(lines.len());
    lines[..cut].iter().filter(|l| !l.trim().is_empty()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_non_test_non_blank_lines_under_each_crates_src() {
        let lib = "//! A crate.\n\nfn a() {}\n\n#[cfg(test)]\nfn only_in_tests() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let files = [
            // 4 counted: the doc line, `fn a`, and the `#[cfg(test)]` fn
            // with its attribute; the blank lines and `mod tests` are not.
            ("crates/one/src/lib.rs", lib),
            ("crates/one/src/deep/mod.rs", "fn b() {}\n   \nfn c() {}\n"),
            ("crates/one/benches/bench.rs", "fn skipped() {}\n"),
            ("crates/one/tests/it.rs", "fn skipped() {}\n"),
            ("crates/two/src/lib.rs", "fn d() {}"),
            ("tests/top.rs", "fn skipped() {}\n"),
            ("xtask/src/main.rs", "fn skipped() {}\n"),
        ];
        let per_crate = count(files);
        assert_eq!(per_crate, BTreeMap::from([("one", 6), ("two", 1)]));
    }
}
