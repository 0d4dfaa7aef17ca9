//! Runtime lock-correctness checker (the `lockcheck` feature).
//!
//! Every `Mutex`/`RwLock` acquisition and `Condvar` re-acquisition in this
//! shim reports into a process-global registry that maintains three views
//! of the program's locking behaviour:
//!
//! 1. **Lock-order graph** — a directed edge `A → B` is recorded whenever
//!    a thread *blocks* (calls a blocking acquire) on `B` while holding
//!    `A`. A cycle in this graph is a potential deadlock even if no run
//!    ever interleaves into it: one clean pass over an ABBA inversion is
//!    enough to close the cycle and fail the test. `try_lock` acquisitions
//!    never add edges (they cannot wait, so they cannot contribute to a
//!    deadlock), but the locks they hold do appear as edge *sources* for
//!    later blocking acquisitions.
//! 2. **Wait-for graph** — while a thread is blocked on a lock, the
//!    registry knows which thread holds that lock and what *that* thread
//!    is blocked on. A cycle here is a deadlock that is happening right
//!    now; instead of hanging, the detecting thread panics with every
//!    participating thread's held-lock stack and wanted lock.
//! 3. **Blocking regions** — [`blocking_region`] marks a code region that
//!    performs a blocking round-trip to another thread or process (the
//!    RPC hub's daemon round-trip is the canonical one). Entering such a
//!    region while holding any shim lock is the repo's canonical
//!    latent-hang shape and is reported immediately.
//!
//! All three checks panic on detection, which is what gates CI: a seeded
//! violation fails `cargo test` instead of timing out. Reports are also
//! appended to an in-process log (see [`take_reports`]) so tests can
//! assert on report *content* after catching the panic.
//!
//! ## Scope and non-goals
//!
//! * The checker sees only locks that go through this shim (which the
//!   `xtask lint` pass enforces for `crates/`) plus any custom lock that
//!   calls the [`custom_acquired`]/[`custom_released`] hooks.
//! * The re-acquisition a `Condvar::wait` performs internally is recorded
//!   in the order graph but not interposed in the wait-for graph.
//! * `RwLock` read-recursion by one thread is deliberately not flagged
//!   (it is part of the shim's supported semantics; see the semantics
//!   tests), though a shared→exclusive upgrade on one thread is.
//!
//! ## Waivers
//!
//! A finding can be waived by a named entry in `lockcheck.toml` at the
//! workspace root (or the path named by `LOCKCHECK_TOML`). A waiver lists
//! `match` substrings; a report is suppressed only if *every* substring
//! occurs in the report text, and each suppression is counted (see
//! [`waived_count`]) — there are no silent suppressions.
//!
//! ## Runtime control
//!
//! The feature compiles the instrumentation in; the `LOCKCHECK` env var
//! (`0` disables) and [`set_enabled`] gate it at runtime, which is what
//! lets the equivalence tests compare checked and unchecked behaviour in
//! one process. Individual checks toggle via [`configure`].

use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

/// How a lock is being held: shared (`RwLock` readers) or exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Shared acquisition (a read lock).
    Shared,
    /// Exclusive acquisition (a mutex or write lock).
    Exclusive,
}

/// Acquisition site: the `#[track_caller]` location of the lock call.
pub type Site = &'static Location<'static>;

#[derive(Debug, Clone, Copy)]
struct Held {
    id: u64,
    what: &'static str,
    site: Site,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
struct Want {
    id: u64,
    what: &'static str,
    site: Site,
}

#[derive(Debug, Default)]
struct ThreadRec {
    name: String,
    held: Vec<Held>,
    want: Option<Want>,
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    from_site: Site,
    to_site: Site,
}

#[derive(Debug, Default)]
struct Registry {
    /// Lock-order graph: `from → (to → first edge's sites)`.
    edges: HashMap<u64, HashMap<u64, Edge>>,
    /// Per-thread held stacks and current wants. A lock's holders are
    /// found by scanning the held stacks, which only the contended wait
    /// path does: an acquisition touches no state but its own thread's.
    threads: HashMap<ThreadId, ThreadRec>,
    /// Every unwaived report emitted (including ones that then
    /// panicked). Waived findings are only counted, never recorded.
    reports: Vec<String>,
    /// Findings suppressed by a `lockcheck.toml` waiver.
    waived: u64,
}

static REGISTRY: StdMutex<Option<Registry>> = StdMutex::new(None);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ORDER_CHECK: AtomicBool = AtomicBool::new(true);
static WAITFOR_CHECK: AtomicBool = AtomicBool::new(true);
static BLOCKING_CHECK: AtomicBool = AtomicBool::new(true);
static ENABLED: OnceLock<AtomicBool> = OnceLock::new();

fn enabled_flag() -> &'static AtomicBool {
    ENABLED.get_or_init(|| {
        let on = !matches!(std::env::var("LOCKCHECK").as_deref(), Ok("0"));
        AtomicBool::new(on)
    })
}

/// Whether the checker is currently active.
#[must_use]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Enable or disable the checker at runtime (the `LOCKCHECK` env var sets
/// the initial state; `LOCKCHECK=0` starts disabled). Disabling does not
/// clear already-recorded state.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// Toggle the individual checks: lock-order cycles, wait-for deadlocks,
/// and locks held across blocking regions. All default to on.
pub fn configure(order: bool, waitfor: bool, blocking: bool) {
    ORDER_CHECK.store(order, Ordering::Relaxed);
    WAITFOR_CHECK.store(waitfor, Ordering::Relaxed);
    BLOCKING_CHECK.store(blocking, Ordering::Relaxed);
}

/// Drain and return every report emitted so far (panicking detections
/// append their report before unwinding).
#[must_use]
pub fn take_reports() -> Vec<String> {
    with_registry(|r| std::mem::take(&mut r.reports))
}

/// Number of reports emitted so far (without draining them).
#[must_use]
pub fn report_count() -> usize {
    with_registry(|r| r.reports.len())
}

/// Number of findings suppressed by `lockcheck.toml` waivers.
#[must_use]
pub fn waived_count() -> u64 {
    with_registry(|r| r.waived)
}

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    f(guard.get_or_insert_with(Registry::default))
}

/// Assign (or fetch) the registry id of a lock from its id cell. Cells
/// start at 0 (= unassigned); ids are process-unique and never reused.
pub fn ensure_id(cell: &AtomicU64) -> u64 {
    let cur = cell.load(Ordering::Relaxed);
    if cur != 0 {
        return cur;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    match cell.compare_exchange(0, id, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => id,
        Err(winner) => winner,
    }
}

fn thread_label(rec: &ThreadRec, tid: ThreadId) -> String {
    if rec.name.is_empty() {
        format!("{tid:?}")
    } else {
        format!("\"{}\" ({tid:?})", rec.name)
    }
}

fn held_stack(rec: &ThreadRec) -> String {
    if rec.held.is_empty() {
        return "      (no locks held)".into();
    }
    rec.held
        .iter()
        .map(|h| {
            format!(
                "      #{} {} ({:?}) acquired at {}",
                h.id, h.what, h.kind, h.site
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------------------
// Waivers (lockcheck.toml)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Waiver {
    name: String,
    matches: Vec<String>,
}

fn waivers() -> &'static [Waiver] {
    static WAIVERS: OnceLock<Vec<Waiver>> = OnceLock::new();
    WAIVERS.get_or_init(|| {
        let path = std::env::var("LOCKCHECK_TOML").ok().or_else(find_toml);
        path.and_then(|p| std::fs::read_to_string(p).ok())
            .map(|text| parse_waivers(&text))
            .unwrap_or_default()
    })
}

fn find_toml() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("lockcheck.toml");
        if candidate.is_file() {
            return candidate.to_str().map(String::from);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Minimal parser for the subset of TOML `lockcheck.toml` uses:
/// `[[waiver]]` tables with `name`, `reason`, and `match` (string array)
/// keys. Unknown keys are ignored; `reason` is for the human reader.
fn parse_waivers(text: &str) -> Vec<Waiver> {
    let mut out = Vec::new();
    let mut cur: Option<Waiver> = None;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line == "[[waiver]]" {
            if let Some(w) = cur.take() {
                out.push(w);
            }
            cur = Some(Waiver {
                name: String::new(),
                matches: Vec::new(),
            });
            continue;
        }
        let Some(w) = cur.as_mut() else { continue };
        if let Some(rest) = line.strip_prefix("name") {
            if let Some(v) = parse_toml_string(rest) {
                w.name = v;
            }
        } else if let Some(rest) = line.strip_prefix("match") {
            w.matches = parse_toml_string_array(rest);
        }
    }
    if let Some(w) = cur.take() {
        out.push(w);
    }
    out
}

fn parse_toml_string(after_key: &str) -> Option<String> {
    let rest = after_key.trim_start().strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next().map(String::from)
}

fn parse_toml_string_array(after_key: &str) -> Vec<String> {
    let Some(rest) = after_key.trim_start().strip_prefix('=') else {
        return Vec::new();
    };
    rest.split('"')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

/// Whether a report is waived: some waiver's `match` substrings all occur
/// in the report text. Counts the suppression.
fn check_waived(report: &str) -> bool {
    let hit = waivers()
        .iter()
        .find(|w| !w.matches.is_empty() && w.matches.iter().all(|m| report.contains(m)));
    match hit {
        Some(_) => {
            with_registry(|r| r.waived += 1);
            true
        }
        None => false,
    }
}

/// Dispose of a fresh finding: a waived one is counted and dropped (a
/// deliberately accepted pattern must not dirty [`report_count`]); an
/// unwaived one is recorded for [`take_reports`] and then panics.
///
/// Must be called *outside* [`with_registry`] — the waiver lookup and the
/// panic both need the registry lock released.
fn dispose(report: String) {
    if check_waived(&report) {
        return;
    }
    with_registry(|r| r.reports.push(report.clone()));
    panic!("{report}");
}

// ---------------------------------------------------------------------------
// Acquisition hooks
// ---------------------------------------------------------------------------

/// Record the *intent* to block on lock `id`: adds lock-order edges from
/// every held lock and panics if one of them closes a cycle (or if the
/// acquisition is an immediate self-deadlock). Call before any blocking
/// acquire; harmless if the fast path then succeeds without waiting.
///
/// # Panics
///
/// Panics when the new edges close a lock-order cycle, or when the thread
/// already holds `id` in a conflicting mode (self-deadlock).
pub fn pre_blocking_acquire(id: u64, what: &'static str, site: Site, kind: Kind) {
    let tid = std::thread::current().id();
    let report = with_registry(|r| {
        let rec = r.threads.entry(tid).or_default();
        if rec.name.is_empty() {
            rec.name = std::thread::current().name().unwrap_or("").to_string();
        }
        // Same-lock reacquisition: shared-after-shared is supported
        // (RwLock read recursion); anything else deadlocks against
        // ourselves right here.
        if let Some(prior) = rec.held.iter().find(|h| h.id == id) {
            if kind == Kind::Shared && prior.kind == Kind::Shared {
                return None;
            }
            let report = format!(
                "lockcheck: self-deadlock\n  thread {} blocking on {} #{id} ({kind:?}) at {site}\n  while already holding it ({:?}) from {}\n    held locks:\n{}",
                thread_label(rec, tid),
                what,
                prior.kind,
                prior.site,
                held_stack(rec),
            );
            return Some(report);
        }
        if !ORDER_CHECK.load(Ordering::Relaxed) {
            return None;
        }
        // By index: the held stack is read while the order graph grows,
        // without copying the stack.
        for i in 0..rec.held.len() {
            let h = r.threads[&tid].held[i];
            if h.id == id {
                continue;
            }
            let slot = r.edges.entry(h.id).or_default();
            if slot.contains_key(&id) {
                continue;
            }
            slot.insert(
                id,
                Edge {
                    from_site: h.site,
                    to_site: site,
                },
            );
            // New edge h.id → id: a path id ⇝ h.id now closes a cycle.
            if let Some(path) = find_path(&r.edges, id, h.id) {
                let mut lines = vec![format!(
                    "lockcheck: lock-order cycle ({} #{} acquired at {site} while holding #{} from {})",
                    what, id, h.id, h.site
                )];
                lines.push(format!(
                    "  cycle: {}",
                    describe_cycle(&r.edges, &path, h.id)
                ));
                return Some(lines.join("\n"));
            }
        }
        None
    });
    if let Some(report) = report {
        dispose(report);
    }
}

/// Depth-first search for a path `from ⇝ to` in the order graph.
fn find_path(edges: &HashMap<u64, HashMap<u64, Edge>>, from: u64, to: u64) -> Option<Vec<u64>> {
    fn dfs(
        edges: &HashMap<u64, HashMap<u64, Edge>>,
        cur: u64,
        to: u64,
        seen: &mut Vec<u64>,
        path: &mut Vec<u64>,
    ) -> bool {
        if seen.contains(&cur) {
            return false;
        }
        seen.push(cur);
        path.push(cur);
        if cur == to {
            return true;
        }
        if let Some(next) = edges.get(&cur) {
            for &n in next.keys() {
                if dfs(edges, n, to, seen, path) {
                    return true;
                }
            }
        }
        path.pop();
        false
    }
    let mut seen = Vec::new();
    let mut path = Vec::new();
    dfs(edges, from, to, &mut seen, &mut path).then_some(path)
}

fn describe_cycle(edges: &HashMap<u64, HashMap<u64, Edge>>, path: &[u64], closing: u64) -> String {
    let mut hops = Vec::new();
    for pair in path.windows(2) {
        if let Some(e) = edges.get(&pair[0]).and_then(|m| m.get(&pair[1])) {
            hops.push(format!(
                "#{} (held at {}) -> #{} (wanted at {})",
                pair[0], e.from_site, pair[1], e.to_site
            ));
        }
    }
    hops.push(format!("#{closing} -> back to #{}", path[0]));
    hops.join("; ")
}

/// Record a successful acquisition: the lock joins the thread's held
/// stack.
pub fn acquired(id: u64, what: &'static str, site: Site, kind: Kind) {
    let tid = std::thread::current().id();
    with_registry(|r| {
        let rec = r.threads.entry(tid).or_default();
        if rec.name.is_empty() {
            rec.name = std::thread::current().name().unwrap_or("").to_string();
        }
        rec.held.push(Held {
            id,
            what,
            site,
            kind,
        });
    });
}

/// Record a release: drops the most recent matching entry from the held
/// stack. Tolerates unbalanced calls (a lock acquired while the checker
/// was disabled releases as a no-op).
pub fn released(id: u64) {
    let tid = std::thread::current().id();
    with_registry(|r| {
        if let Some(rec) = r.threads.get_mut(&tid) {
            if let Some(pos) = rec.held.iter().rposition(|h| h.id == id) {
                rec.held.remove(pos);
            }
        }
    });
}

/// Hook for custom (non-shim) locks: record an acquisition that did not
/// go through `Mutex`/`RwLock`. Pair with [`custom_released`]. The lock
/// participates in held stacks (and thus blocking-region and lock-order
/// source checks) under the id from `cell`.
#[track_caller]
pub fn custom_acquired(cell: &AtomicU64, what: &'static str) -> u64 {
    let id = ensure_id(cell);
    acquired(id, what, Location::caller(), Kind::Exclusive);
    id
}

/// Release a custom-lock acquisition recorded by [`custom_acquired`].
pub fn custom_released(id: u64) {
    released(id);
}

// ---------------------------------------------------------------------------
// Wait-for graph
// ---------------------------------------------------------------------------

struct WaitGuard {
    tid: ThreadId,
}

impl Drop for WaitGuard {
    fn drop(&mut self) {
        with_registry(|r| {
            if let Some(rec) = r.threads.get_mut(&self.tid) {
                rec.want = None;
            }
        });
    }
}

/// Blocking-acquire loop with deadlock detection: spins on `try_acquire`
/// while registered in the wait-for graph, panicking (instead of hanging)
/// if the graph develops a cycle through this thread.
///
/// # Panics
///
/// Panics when this thread's wait is part of a wait-for cycle.
pub fn wait_acquire(
    id: u64,
    what: &'static str,
    site: Site,
    mut try_acquire: impl FnMut() -> bool,
) {
    if try_acquire() {
        return;
    }
    let tid = std::thread::current().id();
    with_registry(|r| {
        r.threads.entry(tid).or_default().want = Some(Want { id, what, site });
    });
    let _unregister = WaitGuard { tid };
    let mut spins = 0u32;
    loop {
        if try_acquire() {
            return;
        }
        if WAITFOR_CHECK.load(Ordering::Relaxed) {
            if let Some(report) = deadlock_report(tid) {
                dispose(report);
            }
        }
        spins += 1;
        if spins < 64 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// If `tid`'s registered want is part of a wait-for cycle, build the
/// report (each participating thread's held stack and wanted lock).
fn deadlock_report(tid: ThreadId) -> Option<String> {
    with_registry(|r| {
        let mut chain: Vec<ThreadId> = vec![tid];
        loop {
            let cur = *chain.last().expect("chain starts non-empty");
            let want = r.threads.get(&cur).and_then(|rec| rec.want)?;
            // Shared holders can block an exclusive want as well as an
            // exclusive holder can, so follow the first blocked holder
            // found.
            let holders = r
                .threads
                .iter()
                .filter(|(&t, rec)| t != cur && rec.held.iter().any(|h| h.id == want.id));
            let mut next = None;
            for (&holder, _) in holders {
                if chain.contains(&holder) {
                    // Cycle closed.
                    chain.push(holder);
                    let mut lines =
                        vec!["lockcheck: deadlock (wait-for cycle), would hang:".to_string()];
                    for t in &chain[..chain.len() - 1] {
                        let rec = r.threads.get(t)?;
                        let w = rec.want?;
                        lines.push(format!(
                            "  thread {} waiting for {} #{} at {}",
                            thread_label(rec, *t),
                            w.what,
                            w.id,
                            w.site
                        ));
                        lines.push("    holding:".into());
                        lines.push(held_stack(rec));
                    }
                    return Some(lines.join("\n"));
                }
                if r.threads.get(&holder).and_then(|rec| rec.want).is_some() {
                    next = Some(holder);
                    break;
                }
            }
            chain.push(next?);
        }
    })
}

// ---------------------------------------------------------------------------
// Blocking regions
// ---------------------------------------------------------------------------

/// Run `f`, first checking that the calling thread holds no shim locks:
/// a lock held across a blocking round-trip (an RPC to the host daemon,
/// a cross-thread join) is the repo's canonical latent-hang shape.
///
/// With the `lockcheck` feature off (or the checker disabled) this is a
/// plain passthrough.
///
/// # Panics
///
/// Panics when the thread enters the region holding locks and the finding
/// is not waived in `lockcheck.toml`.
#[track_caller]
pub fn blocking_region<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if enabled() && BLOCKING_CHECK.load(Ordering::Relaxed) {
        let site = Location::caller();
        let tid = std::thread::current().id();
        let report = with_registry(|r| {
            let rec = r.threads.entry(tid).or_default();
            if rec.held.is_empty() {
                return None;
            }
            let report = format!(
                "lockcheck: lock held across blocking region \"{name}\" at {site}\n  thread {}\n    holding:\n{}",
                thread_label(rec, tid),
                held_stack(rec),
            );
            Some(report)
        });
        if let Some(report) = report {
            dispose(report);
        }
    }
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_parser_reads_waiver_tables() {
        let text = r#"
# comment
[[waiver]]
name = "first"
reason = "why"
match = ["alpha", "beta"]

[[waiver]]
name = "second"
match = ["gamma"]
"#;
        let ws = parse_waivers(text);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].name, "first");
        assert_eq!(ws[0].matches, vec!["alpha", "beta"]);
        assert_eq!(ws[1].name, "second");
        assert_eq!(ws[1].matches, vec!["gamma"]);
    }

    #[test]
    fn ids_are_unique_and_sticky() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let ia = ensure_id(&a);
        let ib = ensure_id(&b);
        assert_ne!(ia, ib);
        assert_eq!(ensure_id(&a), ia);
    }
}
