//! The `xtask lint` pass: source-level workspace invariants.
//!
//! Eight rules, motivated by the lockcheck layer, the repo's
//! concurrency-bug history (see ISSUE 6 / ARCHITECTURE.md), the
//! cross-host storage tier's layering, the metrics registry's
//! single-attribution-path design, and a public surface that is only as
//! wide as its callers:
//!
//! * **`std-sync`** — no direct `std::sync::{Mutex, RwLock, Condvar}`
//!   anywhere under `crates/`: every lock must go through the
//!   `shims/parking_lot` shim so the lockcheck detector sees it. The
//!   shim itself (under `shims/`) is the one place std locks may live.
//! * **`unwrap`** — no `.unwrap()` / `.expect(` in non-test code under
//!   `crates/core/src/{daemon,cache,cluster,remote}` and `rpc.rs`: the
//!   daemon serves a fleet, and a panic there strands every spinning
//!   threadblock. Handle the error or propagate it. Under `remote/`
//!   ([`PANIC_SCOPE`]) the rule also covers `unreachable!` / `panic!`:
//!   what that code matches on is a peer's bytes, so "cannot happen" is
//!   the peer's to decide, and it must come back as a typed error.
//! * **`wait`** — no `thread::sleep`, `yield_now`, `thread::park`,
//!   `park_timeout` or `Condvar` in non-test code under `crates/` outside
//!   `crates/simtime/src/`: every real-time wait on another actor goes
//!   through `simtime::ClockBoard`, so one type knows when an actor is
//!   blocked; an ad-hoc sleep or spin hides ordering bugs and skews the
//!   virtual clock's real-time envelope.
//! * **`unsafe-safety`** — every `unsafe` in non-test code under
//!   `crates/` needs a `// SAFETY:` comment (or a `# Safety` doc
//!   section) within the six preceding lines.
//! * **`hot-mutex`** — no `Mutex`/`RwLock`/`parking_lot::` tokens in
//!   the lock-free hot path ([`HOT_LOCKFREE`], currently the paging
//!   layer): the paper's §4.2 protocol keeps `pin_page` mutex-free, and
//!   a convenient slow-path lock quietly reintroduces the Figure-7
//!   convoy. The fpage seqlock (`fp.lock()`) is part of the protocol
//!   and does not trip this rule. Nor may that code `Arc::clone`: a
//!   page pin borrows its file, and a refcount bump per pin is a write
//!   to one line every resident threadblock shares.
//! * **`proxy-hostfs`** — no `HostFs` token in the non-test host-proxy
//!   code ([`PROXY_NO_HOSTFS`]: the proxy, its page cache, and its
//!   `Backing` impl): everything the proxy learns about server state
//!   must arrive through the wire protocol, or the cross-host split
//!   silently degenerates to shared-memory peeking and the zero-net
//!   transparency test stops proving anything. And the converse
//!   ([`ENGINE_NO_BACKEND`]): the daemon's dispatch, engine and DMA lane
//!   name none of [`BACKEND_TYPES`] — they know their storage only as
//!   `dyn Backing`, so a second serve path for one kind of storage has
//!   nowhere to start.
//! * **`adhoc-counter`** — no raw `AtomicU64` in non-test `crates/core`
//!   code outside the data-plane files ([`ADHOC_COUNTER_ALLOWED`]):
//!   counters belong to `obs::Counter` and the metrics registry, whose
//!   leaf/sum-view split is what makes every per-GPU / per-tenant /
//!   per-host rollup reconcile by construction. A stray atomic counter
//!   is invisible to `Registry::snapshot` and reopens the counter-drift
//!   bugs the registry closed.
//! * **`dead-pub`** — every `pub` or `pub(crate)` fn in non-test code
//!   under `crates/*/src/` is named in some other `.rs` file of the
//!   repository (another crate, `tests/`, a bench target, `examples/`,
//!   `xtask/` or `benchmark/`). A fn only its own file calls is private;
//!   one only its own file's tests call is `#[cfg(test)]`; one nothing
//!   calls is deleted. The rule matches on names, not paths: any other
//!   file that names a fn clears it, so a dead fn with a common name
//!   (`new`, `len`) goes unflagged. Unlike the rules above it reads the
//!   whole tree at once ([`lint_tree`]).
//!
//! A finding is fixed or waived, never ignored: waivers are inline
//! `// lint:allow <rule> -- <reason>` comments on the offending line or
//! the line above, and the reason is mandatory. File-scoped exemptions
//! live in the lists below, each with a comment.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where the `wait` rule does not apply: the one wait type's crate.
const WAIT_HOME: &str = "crates/simtime/src/";

/// The tokens of a real-time wait outside [`WAIT_HOME`].
const WAIT_TOKENS: &[&str] = &[
    "thread::sleep",
    "yield_now",
    "thread::park",
    "park_timeout",
    "Condvar",
];

/// Directories under `crates/core/src/` (plus `rpc.rs`) where the
/// `unwrap` rule applies: the daemon-facing production paths.
const UNWRAP_SCOPE: &[&str] = &[
    "crates/core/src/daemon/",
    "crates/core/src/cache/",
    "crates/core/src/cluster/",
    "crates/core/src/remote/",
    "crates/core/src/rpc.rs",
];

/// Where the `unwrap` rule also forbids `unreachable!` / `panic!`: the
/// wire tier, whose match arms are chosen by a peer's response.
const PANIC_SCOPE: &[&str] = &["crates/core/src/remote/"];

/// Files whose non-test code must stay mutex-free and `Arc::clone`-free
/// (the `hot-mutex` rule): the page-lookup hot path. A mutex here puts
/// every concurrent threadblock back in the Figure-7 convoy the
/// lock-free protocol exists to avoid, and a refcount bump makes every
/// hit write a line all blocks share, so introducing either demands an
/// inline waiver with a measured justification.
const HOT_LOCKFREE: &[&str] = &["crates/core/src/cache/paging.rs"];

/// Files on the host side of the wire (the `proxy-hostfs` rule): the
/// proxy, its page cache, and its `Backing` impl. None of them
/// may name `HostFs` — the storage server is the sole owner of the file
/// system, and the proxy talks to it only in frames. Reaching around the
/// wire here would un-split the tier while every test keeps passing.
const PROXY_NO_HOSTFS: &[&str] = &[
    "crates/core/src/remote/proxy.rs",
    "crates/core/src/remote/cache.rs",
    "crates/core/src/remote/client.rs",
];

/// The converse file list of the `proxy-hostfs` rule: the one serve path
/// — dispatch, staged engine, DMA lane. What these serve against is a
/// `dyn Backing`; code here that names an implementor ([`BACKEND_TYPES`])
/// serves one kind of storage only, which is the first line of a second
/// serve path.
const ENGINE_NO_BACKEND: &[&str] = &[
    "crates/core/src/daemon/handlers.rs",
    "crates/core/src/daemon/pipeline.rs",
    "crates/core/src/daemon/lane.rs",
];

/// The `Backing` implementors and the wire vocabulary only one of them
/// speaks.
const BACKEND_TYPES: &[&str] = &["HostFs", "HostProxy", "WireRequest", "WireResponse"];

/// Files under `crates/core/src/` where raw `AtomicU64` is data-plane
/// state, not an ad-hoc counter (the `adhoc-counter` rule). Every entry
/// needs a justification here.
const ADHOC_COUNTER_ALLOWED: &[&str] = &[
    // The fpage seqlock version word and the global file-uid mint: the
    // paper's §4.2 concurrency protocol itself, not metrics.
    "crates/core/src/cache/radix.rs",
    // Frame identity/ready-time words read under the seqlock protocol.
    "crates/core/src/cache/frames.rs",
    // File metadata mirrored to GPU-visible memory (size, generation,
    // readahead stream state, flush horizon) — shared state, not tallies.
    "crates/core/src/table.rs",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    StdSync,
    Unwrap,
    Wait,
    UnsafeSafety,
    HotMutex,
    ProxyHostFs,
    AdhocCounter,
    DeadPub,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::StdSync => "std-sync",
            Rule::Unwrap => "unwrap",
            Rule::Wait => "wait",
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::HotMutex => "hot-mutex",
            Rule::ProxyHostFs => "proxy-hostfs",
            Rule::AdhocCounter => "adhoc-counter",
            Rule::DeadPub => "dead-pub",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug)]
struct Finding {
    path: String,
    line: usize,
    rule: Rule,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Entry point for `cargo run -p xtask -- lint`.
pub fn run(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--rules") {
        print!("{}", RULES_HELP);
        return ExitCode::SUCCESS;
    }
    let root = workspace_root();
    let mut paths = Vec::new();
    collect_rs_files(&root, &mut paths);
    paths.sort();
    let files: Vec<(String, String)> = paths
        .iter()
        .filter_map(|file| {
            let text = std::fs::read_to_string(file).ok()?;
            let rel = file
                .strip_prefix(&root)
                .unwrap_or(file)
                .to_string_lossy()
                .replace('\\', "/");
            Some((rel, text))
        })
        .collect();
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for (rel, text) in files.iter().filter(|(rel, _)| rel.starts_with("crates/")) {
        scanned += 1;
        findings.extend(lint_file(rel, text));
    }
    findings.extend(lint_tree(&files));
    if findings.is_empty() {
        println!("xtask lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "xtask lint: {} finding(s) in {scanned} files (fix, or waive with `// lint:allow <rule> -- <reason>`)",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

const RULES_HELP: &str = "\
xtask lint rules:
  std-sync       no std::sync::{Mutex,RwLock,Condvar} under crates/ (use the
                 parking_lot shim so lockcheck sees every acquisition)
  unwrap         no .unwrap()/.expect( in non-test daemon/cache/cluster/remote/rpc
                 code, nor unreachable!/panic! in non-test remote/ code (a peer
                 picks those match arms: return a typed error)
  wait           no thread::sleep/yield_now/thread::park/park_timeout/Condvar in
                 non-test code under crates/ outside crates/simtime/src/ (wait
                 on a simtime::ClockBoard)
  unsafe-safety  every unsafe needs a // SAFETY: comment within 6 lines above
  hot-mutex      no Mutex/RwLock/parking_lot:: in the lock-free page-lookup
                 hot path (crates/core/src/cache/paging.rs) — the fpage
                 seqlock is the only sanctioned lock there — and no
                 Arc::clone in its non-test code: a pin borrows its file
  proxy-hostfs   no HostFs token in non-test host-proxy code
                 (crates/core/src/remote/{proxy,cache,client}.rs) — the
                 proxy reaches the storage server only through the wire
                 protocol, never by touching the file system directly;
                 nor HostFs/HostProxy/WireRequest/WireResponse in the one
                 serve path (crates/core/src/daemon/{handlers,pipeline,lane}.rs)
                 — it knows its storage only as dyn Backing
  adhoc-counter  no raw AtomicU64 in non-test crates/core code outside the
                 data-plane files (radix/frames/table) — counters go through
                 obs::Counter and the registry so every rollup reconciles
  dead-pub       every pub/pub(crate) fn in non-test crates/*/src code is named
                 in some other .rs file of the repo (crates, tests, benches,
                 examples, xtask, benchmark): else make it private, #[cfg(test)]
                 or delete it. Matches on names, so a common name goes unflagged
waive a finding inline: // lint:allow <rule> -- <reason>   (reason required)
";

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the workspace root is one up from
    // this crate's manifest.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory")
        .to_path_buf()
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

/// Lint one file's text; `rel` is the workspace-relative path used for
/// scoping and reporting.
fn lint_file(rel: &str, text: &str) -> Vec<Finding> {
    let lines: Vec<&str> = text.lines().collect();
    let mut stripper = Stripper::default();
    let code: Vec<String> = lines.iter().map(|l| stripper.code_of(l)).collect();
    let in_test = test_regions(&code);
    let unwrap_scoped = UNWRAP_SCOPE.iter().any(|p| rel.starts_with(p));
    let panic_scoped = PANIC_SCOPE.iter().any(|p| rel.starts_with(p));
    let wait_scoped = !rel.starts_with(WAIT_HOME);
    let hot_lockfree = HOT_LOCKFREE.contains(&rel);
    let proxy_no_hostfs = PROXY_NO_HOSTFS.contains(&rel);
    let engine_no_backend = ENGINE_NO_BACKEND.contains(&rel);
    let adhoc_scoped = rel.starts_with("crates/core/src/") && !ADHOC_COUNTER_ALLOWED.contains(&rel);
    let mut findings = Vec::new();
    for (i, code_line) in code.iter().enumerate() {
        let lineno = i + 1;
        let mut report = |rule: Rule, message: String| {
            if !allowed(&lines, i, rule) {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: lineno,
                    rule,
                    message,
                });
            }
        };
        // std-sync applies to test code too: a std lock in a test is just
        // as invisible to the lockcheck detector.
        if let Some(what) = std_sync_use(code_line) {
            report(
                Rule::StdSync,
                format!("direct std::sync::{what}; route it through the parking_lot shim so lockcheck sees it"),
            );
        }
        if in_test[i] {
            continue;
        }
        if unwrap_scoped {
            if code_line.contains(".unwrap()") {
                report(
                    Rule::Unwrap,
                    ".unwrap() in daemon/cache/cluster/rpc production code; handle or propagate"
                        .into(),
                );
            }
            if code_line.contains(".expect(") {
                report(
                    Rule::Unwrap,
                    ".expect( in daemon/cache/cluster/rpc production code; handle or propagate"
                        .into(),
                );
            }
        }
        if panic_scoped {
            for mac in ["unreachable!", "panic!"] {
                if code_line.contains(mac) {
                    report(
                        Rule::Unwrap,
                        format!(
                            "{mac} in wire-tier production code; return a typed protocol error"
                        ),
                    );
                }
            }
        }
        if wait_scoped {
            if let Some(what) = WAIT_TOKENS.iter().find(|w| code_line.contains(*w)) {
                report(
                    Rule::Wait,
                    format!("{what} outside simtime; wait on a simtime::ClockBoard"),
                );
            }
        }
        if has_word(code_line, "unsafe") && !safety_documented(&lines, &code, i) {
            report(
                Rule::UnsafeSafety,
                "unsafe without a // SAFETY: comment within the 6 preceding lines".into(),
            );
        }
        if hot_lockfree {
            if let Some(what) = mutex_use(code_line) {
                report(
                    Rule::HotMutex,
                    format!(
                        "{what} in the lock-free page-lookup hot path; \
                         pin_page must stay mutex-free (paper §4.2) — \
                         waive only with a measured justification"
                    ),
                );
            }
            if code_line.contains("Arc::clone") {
                report(
                    Rule::HotMutex,
                    "Arc::clone in the lock-free page-lookup hot path; a pin \
                     borrows its file, since a refcount bump per hit writes a \
                     line every resident block shares — waive only with a \
                     stated reason"
                        .into(),
                );
            }
        }
        if proxy_no_hostfs && has_word(code_line, "HostFs") {
            report(
                Rule::ProxyHostFs,
                "HostFs touched from host-proxy code; the proxy must reach \
                 the storage server only through the wire protocol"
                    .into(),
            );
        }
        if engine_no_backend {
            if let Some(what) = BACKEND_TYPES.iter().find(|w| has_word(code_line, w)) {
                report(
                    Rule::ProxyHostFs,
                    format!(
                        "{what} named in the daemon's serve path; handlers, \
                         pipeline and lane know their storage only as `dyn Backing`"
                    ),
                );
            }
        }
        if adhoc_scoped && has_word(code_line, "AtomicU64") {
            report(
                Rule::AdhocCounter,
                "raw AtomicU64 in crates/core outside the data-plane files; \
                 counters go through obs::Counter and the registry so every \
                 rollup reconciles — waive only for non-counter shared state"
                    .into(),
            );
        }
    }
    findings
}

/// The cross-file `dead-pub` rule over `(workspace-relative path, text)`
/// pairs: every `.rs` file of the repository, of which those under
/// `crates/*/src/` are checked. A fn counts as called from elsewhere when
/// its name appears as a word in the code (not the comments) of any
/// other file, test code included.
fn lint_tree(files: &[(String, String)]) -> Vec<Finding> {
    let stripped: Vec<Vec<String>> = files
        .iter()
        .map(|(_, text)| {
            let mut stripper = Stripper::default();
            text.lines().map(|l| stripper.code_of(l)).collect()
        })
        .collect();
    // How many files name each identifier: a fn's own file always does.
    let mut named_in: HashMap<&str, usize> = HashMap::new();
    for code in &stripped {
        let words: HashSet<&str> = code.iter().flat_map(|l| words(l)).collect();
        for w in words {
            *named_in.entry(w).or_default() += 1;
        }
    }
    let mut findings = Vec::new();
    for ((rel, text), code) in files.iter().zip(&stripped) {
        if !is_crate_src(rel) {
            continue;
        }
        let lines: Vec<&str> = text.lines().collect();
        let in_test = test_regions(code);
        for (i, code_line) in code.iter().enumerate() {
            let Some(name) = pub_fn_name(code_line) else {
                continue;
            };
            if in_test[i] || named_in.get(name).copied().unwrap_or(0) > 1 {
                continue;
            }
            if !allowed(&lines, i, Rule::DeadPub) {
                findings.push(Finding {
                    path: rel.clone(),
                    line: i + 1,
                    rule: Rule::DeadPub,
                    message: format!(
                        "pub fn `{name}` is named in no other file; make it private, \
                         #[cfg(test)], or delete it"
                    ),
                });
            }
        }
    }
    findings
}

/// Whether `rel` is library source of a workspace crate: `crates/<x>/src/…`.
fn is_crate_src(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .is_some_and(|(_, r)| r.starts_with("src/"))
}

/// The identifiers on a stripped code line.
fn words(code_line: &str) -> impl Iterator<Item = &str> {
    code_line
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The name of the fn a stripped code line declares `pub` or
/// `pub(crate)`, qualifiers (`const`, `unsafe`, `async`) allowed.
fn pub_fn_name(code_line: &str) -> Option<&str> {
    let rest = code_line.trim_start();
    let mut rest = rest
        .strip_prefix("pub(crate) ")
        .or_else(|| rest.strip_prefix("pub "))?
        .trim_start();
    for qualifier in ["const ", "unsafe ", "async "] {
        if let Some(r) = rest.strip_prefix(qualifier) {
            rest = r.trim_start();
        }
    }
    words(rest.strip_prefix("fn ")?).next()
}

/// `Some(token)` when the stripped code line references a mutex-family
/// lock type — any `Mutex`/`RwLock` identifier (std or shim) or a
/// `parking_lot::` path. The fpage seqlock's `fp.lock()` carries none of
/// these tokens, so the paper's own protocol passes untouched.
fn mutex_use(code_line: &str) -> Option<&'static str> {
    for what in ["Mutex", "RwLock"] {
        if has_word(code_line, what) {
            return Some(what);
        }
    }
    code_line
        .contains("parking_lot::")
        .then_some("parking_lot::")
}

/// `Some(name)` when the stripped code line uses a std::sync lock type.
fn std_sync_use(code_line: &str) -> Option<&'static str> {
    for what in ["Mutex", "RwLock", "Condvar"] {
        if code_line.contains(&format!("std::sync::{what}")) {
            return Some(what);
        }
        // `use std::sync::{..., Mutex, ...}` (possibly renamed).
        if let Some(rest) = code_line.trim_start().strip_prefix("use std::sync::") {
            if rest.contains(what) {
                return Some(what);
            }
        }
    }
    None
}

/// Whether line `i` (or the line above) carries a `lint:allow <rule>`
/// waiver *with a reason* (`-- <why>`). Reasonless allows don't count —
/// no silent suppressions.
fn allowed(lines: &[&str], i: usize, rule: Rule) -> bool {
    let pat = format!("lint:allow {}", rule.name());
    let has = |line: &str| {
        line.split(&pat).nth(1).is_some_and(|rest| {
            rest.contains("--")
                && rest
                    .split("--")
                    .nth(1)
                    .is_some_and(|r| !r.trim().is_empty())
        })
    };
    has(lines[i]) || (i > 0 && has(lines[i - 1]))
}

/// Whether an `unsafe` at line `i` is documented. An `unsafe` block (or
/// impl) needs a `SAFETY:` comment on the same line or within the 6
/// above; an `unsafe fn` declaration may instead carry a `# Safety`
/// section anywhere in its contiguous doc-comment/attribute block (which
/// routinely runs longer than 6 lines once `# Panics` etc. are present).
fn safety_documented(lines: &[&str], code: &[String], i: usize) -> bool {
    let lo = i.saturating_sub(6);
    let documents = |l: &str| l.contains("SAFETY:") || l.contains("# Safety");
    if lines[lo..=i].iter().any(|l| documents(l)) {
        return true;
    }
    if !code[i].contains("unsafe fn") {
        return false;
    }
    // Walk the doc/attribute block immediately above the declaration.
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim_start();
        if t.starts_with("///") || t.starts_with("//") || t.starts_with("#[") {
            if documents(t) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Word-boundary containment check on a stripped code line.
fn has_word(code_line: &str, word: &str) -> bool {
    let bytes = code_line.as_bytes();
    let mut from = 0;
    while let Some(pos) = code_line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let post_ok =
            end == bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Mark the lines belonging to `#[cfg(test)]` items (the attribute, any
/// stacked attributes, and the item's body up to its matching close).
/// Operates on stripped code lines, so braces in strings/comments don't
/// corrupt the depth count.
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let trimmed = code[i].trim_start();
        let is_cfg_test =
            trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        in_test[i] = true;
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i + 1;
        // Cover stacked attributes and the item header, then balance
        // braces to the end of the item. A braceless item (`mod x;`)
        // ends at the first `;` before any `{`.
        while j < code.len() {
            in_test[j] = true;
            for ch in code[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    ';' if !opened && depth == 0 => {
                        depth = i64::MIN; // sentinel: item over
                        break;
                    }
                    _ => {}
                }
            }
            if depth == i64::MIN || (opened && depth <= 0) {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    in_test
}

/// Per-file comment/string stripper: returns each line with comment text
/// and string/char-literal contents blanked, carrying block-comment and
/// raw/normal string state across lines.
#[derive(Default)]
struct Stripper {
    /// Nesting depth of `/* */` block comments.
    comment_depth: u32,
    /// `Some(hashes)` while inside a raw string `r#"..."#`.
    raw_string: Option<u32>,
    /// Inside a normal `"` string that continued past a line end.
    in_string: bool,
}

impl Stripper {
    fn code_of(&mut self, line: &str) -> String {
        let chars: Vec<char> = line.chars().collect();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        while i < chars.len() {
            if self.comment_depth > 0 {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    self.comment_depth -= 1;
                    i += 2;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    self.comment_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                out.push(' ');
                continue;
            }
            if let Some(hashes) = self.raw_string {
                if chars[i] == '"' && closes_raw(&chars, i + 1, hashes) {
                    self.raw_string = None;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
                out.push(' ');
                continue;
            }
            if self.in_string {
                match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        self.in_string = false;
                        i += 1;
                    }
                    _ => i += 1,
                }
                out.push(' ');
                continue;
            }
            match chars[i] {
                '/' if chars.get(i + 1) == Some(&'/') => break, // line comment
                '/' if chars.get(i + 1) == Some(&'*') => {
                    self.comment_depth += 1;
                    out.push(' ');
                    i += 2;
                }
                'r' if is_raw_string_start(&chars, i) => {
                    let hashes = count_hashes(&chars, i + 1);
                    self.raw_string = Some(hashes);
                    out.push(' ');
                    i += 2 + hashes as usize; // r, hashes, opening quote
                }
                '"' => {
                    self.in_string = true;
                    out.push(' ');
                    i += 1;
                }
                '\'' => {
                    // Char literal vs lifetime: a char literal closes with
                    // `'` within a few chars; a lifetime never does.
                    if let Some(len) = char_literal_len(&chars, i) {
                        out.push(' ');
                        i += len;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        out
    }
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // `r"` or `r#...#"`, not preceded by an identifier char (so `for`,
    // `attr` etc. don't trigger).
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn count_hashes(chars: &[char], mut i: usize) -> u32 {
    let mut n = 0;
    while chars.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    n
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If a char literal starts at `i` (which holds `'`), its total length;
/// `None` for lifetimes.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            // Escape: find the closing quote within a small window
            // (`'\n'`, `'\u{7f}'`, ...).
            (i + 3..(i + 12).min(chars.len()))
                .find(|&j| chars[j] == '\'')
                .map(|j| j - i + 1)
        }
        _ => (chars.get(i + 2) == Some(&'\'')).then_some(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_all(text: &str) -> Vec<String> {
        let mut s = Stripper::default();
        text.lines().map(|l| s.code_of(l)).collect()
    }

    #[test]
    fn stripper_removes_comments_and_string_contents() {
        let code = strip_all(
            r#"let a = 1; // std::sync::Mutex in a comment
let s = "std::sync::Mutex in a string";
/* block std::sync::Mutex
still comment */ let b = 2;
let c = '{'; let lt: &'static str = "x";"#,
        );
        assert!(!code[0].contains("Mutex"));
        assert!(code[0].contains("let a = 1;"));
        assert!(!code[1].contains("Mutex"));
        assert!(!code[2].contains("Mutex"));
        assert!(code[3].contains("let b = 2;"));
        assert!(!code[4].contains('{'), "char-literal brace stripped");
        assert!(code[4].contains("'static"), "lifetime preserved");
    }

    #[test]
    fn test_regions_cover_cfg_test_items() {
        let code = strip_all(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn prod2() {}\n",
        );
        let mask = test_regions(&code);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn test_regions_handle_braceless_items_and_stacked_attrs() {
        let code = strip_all(
            "#[cfg(test)]\n#[allow(dead_code)]\nmod testutil;\nfn prod() { a.unwrap() }\n",
        );
        let mask = test_regions(&code);
        assert_eq!(mask, vec![true, true, true, false]);
    }

    #[test]
    fn std_sync_rule_fires_through_use_and_path() {
        let f = lint_file("crates/x/src/lib.rs", "use std::sync::{Arc, Mutex};\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule.name(), "std-sync");
        let f = lint_file(
            "crates/x/src/lib.rs",
            "let m = std::sync::RwLock::new(0);\n",
        );
        assert_eq!(f.len(), 1);
        // Arc/mpsc/atomics are fine.
        let f = lint_file(
            "crates/x/src/lib.rs",
            "use std::sync::{Arc, mpsc};\nuse std::sync::atomic::AtomicU64;\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn unwrap_rule_scopes_to_daemon_paths_and_skips_tests() {
        let text = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let f = lint_file("crates/core/src/daemon/mod.rs", text);
        assert_eq!(f.len(), 1, "only the non-test unwrap: {f:?}");
        assert_eq!(f[0].line, 1);
        let f = lint_file("crates/core/src/api.rs", text);
        assert!(f.is_empty(), "outside the scoped paths: {f:?}");
        let f = lint_file("crates/core/src/cache/paging.rs", "v.expect(\"x\");\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unwrap_rule_covers_panicking_macros_in_the_wire_tier_only() {
        let text = "fn f() { match r { Ok(x) => x, _ => unreachable!(\"shape\") } }\n\
                    fn g() { panic!(\"peer\") }\n\
                    #[cfg(test)]\nmod tests { fn t() { panic!(\"fine\") } }\n";
        let f = lint_file("crates/core/src/remote/client.rs", text);
        assert_eq!(f.len(), 2, "both non-test macros, not the test one: {f:?}");
        assert!(f.iter().all(|x| x.rule.name() == "unwrap"));
        let f = lint_file("crates/core/src/cache/paging.rs", text);
        assert!(
            f.is_empty(),
            "outside remote/ the macros are allowed: {f:?}"
        );
        let f = lint_file("crates/core/src/remote/proxy.rs", "x.expect(\"y\");\n");
        assert_eq!(f.len(), 1, "remote/ is inside the unwrap scope too");
    }

    #[test]
    fn wait_rule_exempts_simtime_and_tests_only() {
        for call in [
            "std::thread::sleep(d)",
            "std::thread::yield_now()",
            "std::thread::park()",
            "std::thread::park_timeout(d)",
            "let c = parking_lot::Condvar::new()",
        ] {
            let text = format!("fn f() {{ {call}; }}\n");
            let f = lint_file("crates/core/src/cluster/fleet.rs", &text);
            assert_eq!(f.len(), 1, "{call}: {f:?}");
            assert_eq!(f[0].rule.name(), "wait");
            assert!(lint_file("crates/simtime/src/board.rs", &text).is_empty());
            let test = format!("#[cfg(test)]\nmod tests {{ {text} }}\n");
            assert!(lint_file("crates/core/src/cluster/fleet.rs", &test).is_empty());
        }
    }

    #[test]
    fn unsafe_rule_requires_safety_comment() {
        let bad = "fn f() { unsafe { g() } }\n";
        assert_eq!(lint_file("crates/x/src/lib.rs", bad).len(), 1);
        let good = "// SAFETY: g has no preconditions here.\nfn f() { unsafe { g() } }\n";
        assert!(lint_file("crates/x/src/lib.rs", good).is_empty());
        let impl_good = "// SAFETY: all fields are Send.\nunsafe impl Send for X {}\n";
        assert!(lint_file("crates/x/src/lib.rs", impl_good).is_empty());
    }

    #[test]
    fn unsafe_fn_accepts_a_safety_doc_section_beyond_the_window() {
        // `# Safety` more than 6 lines up, separated by a `# Panics`
        // section — the doc block is scanned in full for declarations.
        let decl = "\
/// Does a thing.
///
/// # Safety
///
/// Caller must pin the page.
///
/// # Panics
///
/// Panics when out of bounds.
#[must_use]
pub unsafe fn slice(&self) -> &[u8] { todo!() }
";
        assert!(lint_file("crates/x/src/lib.rs", decl).is_empty());
        // But an unsafe *block* still needs a nearby SAFETY comment.
        let block = "/// # Safety\n/// docs\nfn f() {\n\n\n\n\n\n\n    unsafe { g() }\n}\n";
        assert_eq!(lint_file("crates/x/src/lib.rs", block).len(), 1);
    }

    #[test]
    fn inline_allow_requires_a_reason() {
        let with_reason =
            "// lint:allow wait -- measured: only reached in shutdown, bounded 1ms\nfn f() { std::thread::sleep(d); }\n";
        assert!(lint_file("crates/x/src/lib.rs", with_reason).is_empty());
        let without_reason = "// lint:allow wait\nfn f() { std::thread::sleep(d); }\n";
        assert_eq!(lint_file("crates/x/src/lib.rs", without_reason).len(), 1);
        let wrong_rule = "// lint:allow unwrap -- reasons\nfn f() { std::thread::sleep(d); }\n";
        assert_eq!(lint_file("crates/x/src/lib.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn hot_mutex_rule_guards_the_paging_hot_path() {
        // Any mutex-family token in paging.rs fires, once per line.
        let text = "use parking_lot::Mutex;\nfn f(m: &Mutex<u32>) { let _g = m.lock(); }\n";
        let f = lint_file("crates/core/src/cache/paging.rs", text);
        assert_eq!(f.len(), 2, "both mutex lines flagged: {f:?}");
        assert!(f.iter().all(|x| x.rule.name() == "hot-mutex"));
        // The rule is scoped: the same code elsewhere is fine (the shim
        // Mutex is legal outside the hot path).
        assert!(lint_file("crates/core/src/cache/radix.rs", text).is_empty());
        // The fpage seqlock is the protocol, not a mutex.
        assert!(lint_file("crates/core/src/cache/paging.rs", "fp.lock();\n").is_empty());
        // RwLock fires too.
        let f = lint_file("crates/core/src/cache/paging.rs", "let l: RwLock<u8>;\n");
        assert_eq!(f.len(), 1);
        // A bare `parking_lot::` path fires even when the import renames
        // the lock away from the Mutex/RwLock tokens.
        let f = lint_file(
            "crates/core/src/cache/paging.rs",
            "use parking_lot::const_mutex as m;\n",
        );
        assert_eq!(f.len(), 1);
        // Waivers need a reason, as everywhere.
        let waived = "// lint:allow hot-mutex -- cold miss path only; measured zero contention\nuse parking_lot::Mutex;\n";
        assert!(lint_file("crates/core/src/cache/paging.rs", waived).is_empty());
        let reasonless = "// lint:allow hot-mutex\nuse parking_lot::Mutex;\n";
        assert_eq!(
            lint_file("crates/core/src/cache/paging.rs", reasonless).len(),
            1
        );
    }

    #[test]
    fn hot_mutex_rule_rejects_arc_clone_in_the_paging_hot_path() {
        // A refcount bump in non-test paging code fires, once per line,
        // in either spelling.
        let text = "let f = Arc::clone(file);\nlet g = std::sync::Arc::clone(&h);\n";
        let f = lint_file("crates/core/src/cache/paging.rs", text);
        assert_eq!(f.len(), 2, "both clones flagged: {f:?}");
        assert!(f.iter().all(|x| x.rule.name() == "hot-mutex"));
        // Scoped to the hot path: the same clone elsewhere is fine.
        assert!(lint_file("crates/core/src/api.rs", text).is_empty());
        // Test code may clone freely.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { let g = Arc::clone(&h); }\n}\n";
        assert!(lint_file("crates/core/src/cache/paging.rs", in_test).is_empty());
        // A clone a change really needs takes a reasoned waiver.
        let waived = "// lint:allow hot-mutex -- the batch outlives the caller's borrow\nlet f = Arc::clone(file);\n";
        assert!(lint_file("crates/core/src/cache/paging.rs", waived).is_empty());
        let reasonless = "// lint:allow hot-mutex\nlet f = Arc::clone(file);\n";
        assert_eq!(
            lint_file("crates/core/src/cache/paging.rs", reasonless).len(),
            1
        );
    }

    #[test]
    fn proxy_hostfs_rule_keeps_the_proxy_behind_the_wire() {
        // Any `HostFs` token in the scoped files fires, once per line.
        let text = "use hostfs::HostFs;\nfn f(fs: &HostFs) {}\n";
        for file in [
            "crates/core/src/remote/proxy.rs",
            "crates/core/src/remote/cache.rs",
            "crates/core/src/remote/client.rs",
        ] {
            let f = lint_file(file, text);
            assert_eq!(f.len(), 2, "{file}: both lines flagged: {f:?}");
            assert!(f.iter().all(|x| x.rule.name() == "proxy-hostfs"));
        }
        // The server and the rest of the tree own the file system.
        assert!(lint_file("crates/core/src/remote/server.rs", text).is_empty());
        assert!(lint_file("crates/core/src/daemon/mod.rs", text).is_empty());
        assert!(lint_file("crates/core/src/daemon/backing.rs", text).is_empty());
        // The converse: the one serve path names neither implementor of
        // its `Backing`, nor the wire vocabulary — once per line.
        let fork = "use hostfs::{FsError, HostFs};\nfn serve(p: &HostProxy) {}\n\
                    fn ask(r: &WireRequest) -> WireResponse {}\nfn ok(b: &dyn Backing) {}\n";
        for file in ["handlers", "pipeline", "lane"] {
            let f = lint_file(&format!("crates/core/src/daemon/{file}.rs"), fork);
            assert_eq!(f.len(), 3, "{file}: every line but the last: {f:?}");
            assert!(f.iter().all(|x| x.rule.name() == "proxy-hostfs"));
        }
        assert!(lint_file(
            "crates/core/src/remote/client.rs",
            "fn f(r: WireRequest) {}\n"
        )
        .is_empty());
        assert!(lint_file(
            "crates/core/src/daemon/pipeline.rs",
            "use hostfs::HostFd;\n#[cfg(test)]\nmod tests {\n    use hostfs::HostFs;\n}\n",
        )
        .is_empty());
        // Word boundaries: config/descriptor types carrying the prefix
        // are not the file system.
        assert!(lint_file(
            "crates/core/src/remote/proxy.rs",
            "use hostfs::{FsError, HostFsConfig};\nlet fd: HostFd = 0;\n",
        )
        .is_empty());
        // Test fixtures may build a server-side fs directly.
        assert!(lint_file(
            "crates/core/src/remote/proxy.rs",
            "#[cfg(test)]\nmod tests {\n    use hostfs::HostFs;\n}\n",
        )
        .is_empty());
        // Comments and docs don't trip the stripper-fed check.
        assert!(lint_file(
            "crates/core/src/remote/proxy.rs",
            "/// Mirrors `HostFs::reset_device_time`.\nfn f() {}\n",
        )
        .is_empty());
        // Waivers need a reason, as everywhere.
        let waived = "// lint:allow proxy-hostfs -- bootstrap only: handing the Arc to the server\nuse hostfs::HostFs;\n";
        assert!(lint_file("crates/core/src/remote/proxy.rs", waived).is_empty());
        let reasonless = "// lint:allow proxy-hostfs\nuse hostfs::HostFs;\n";
        assert_eq!(
            lint_file("crates/core/src/remote/proxy.rs", reasonless).len(),
            1
        );
    }

    #[test]
    fn adhoc_counter_rule_routes_counters_through_the_registry() {
        let text = "struct S { hits: AtomicU64 }\n";
        // Fires in general core code...
        let f = lint_file("crates/core/src/daemon/mod.rs", text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule.name(), "adhoc-counter");
        // ...but not in the data-plane allowlist, outside crates/core,
        // or in test code.
        assert!(lint_file("crates/core/src/cache/radix.rs", text).is_empty());
        assert!(lint_file("crates/core/src/table.rs", text).is_empty());
        assert!(lint_file("crates/obs/src/trace.rs", text).is_empty());
        assert!(lint_file("crates/workloads/src/traffic.rs", text).is_empty());
        assert!(lint_file(
            "crates/core/src/daemon/mod.rs",
            "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n}\n",
        )
        .is_empty());
        // Other atomic widths are not counters-by-convention.
        assert!(lint_file(
            "crates/core/src/daemon/mod.rs",
            "struct S { flag: AtomicBool, n: AtomicUsize }\n",
        )
        .is_empty());
        // Waivers need a reason, as everywhere.
        let waived = "// lint:allow adhoc-counter -- virtual-time frontier word, not a counter\nlet t = AtomicU64::new(0);\n";
        assert!(lint_file("crates/core/src/mount.rs", waived).is_empty());
        let reasonless = "// lint:allow adhoc-counter\nlet t = AtomicU64::new(0);\n";
        assert_eq!(lint_file("crates/core/src/mount.rs", reasonless).len(), 1);
    }

    fn tree(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect();
        lint_tree(&files)
    }

    #[test]
    fn dead_pub_flags_a_fn_no_other_file_names() {
        let lib = "pub fn lonely() {}\npub(crate) const fn inner() -> u8 { 0 }\nfn private() {}\n";
        let f = tree(&[("crates/x/src/lib.rs", lib)]);
        assert_eq!(f.len(), 2, "both pub fns, not the private one: {f:?}");
        assert!(f.iter().all(|x| x.rule.name() == "dead-pub"));
        assert_eq!((f[0].line, f[1].line), (1, 2));
        // A call from its own file is not a caller elsewhere.
        let own = "pub fn lonely() {}\nfn user() { lonely() }\n";
        assert_eq!(tree(&[("crates/x/src/lib.rs", own)]).len(), 1);
        // Only crates/*/src is checked: a bench target's or test's own
        // pub fns are not library surface.
        assert!(tree(&[("crates/x/benches/b.rs", lib), ("tests/t.rs", lib)]).is_empty());
    }

    #[test]
    fn dead_pub_is_cleared_by_any_other_file_naming_the_fn() {
        let lib = "pub fn shared() {}\n";
        for other in [
            "crates/y/src/lib.rs",
            "tests/integration.rs",
            "crates/bench/benches/fig4.rs",
            "examples/quickstart.rs",
            "xtask/src/main.rs",
            "benchmark/src/rig.rs",
        ] {
            let f = tree(&[
                ("crates/x/src/lib.rs", lib),
                (other, "fn t() { x::shared(); }\n"),
            ]);
            assert!(f.is_empty(), "{other}: {f:?}");
        }
        // A mention in a comment or a string is not a call.
        let f = tree(&[
            ("crates/x/src/lib.rs", lib),
            ("tests/t.rs", "// shared\nlet s = \"shared\";\n"),
        ]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn dead_pub_takes_a_reasoned_waiver_and_skips_test_items() {
        let waived =
            "// lint:allow dead-pub -- tests reach it through a re-export\npub fn kept() {}\n";
        assert!(tree(&[("crates/x/src/lib.rs", waived)]).is_empty());
        let reasonless = "// lint:allow dead-pub\npub fn kept() {}\n";
        assert_eq!(tree(&[("crates/x/src/lib.rs", reasonless)]).len(), 1);
        let test_only = "#[cfg(test)]\npub fn oracle() -> u8 { 1 }\n\
                         #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        assert!(tree(&[("crates/x/src/lib.rs", test_only)]).is_empty());
    }

    #[test]
    fn unsafe_in_word_positions_only() {
        assert!(has_word("unsafe impl Send for X {}", "unsafe"));
        assert!(!has_word("let not_unsafe_name = 1;", "unsafe"));
        assert!(!has_word("unsafety", "unsafe"));
    }
}
