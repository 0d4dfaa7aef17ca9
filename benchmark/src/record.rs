//! What one iteration of a workload hands back, and the per-threadblock
//! log the kernels fill while they run.
//!
//! The benchmark measures from outside: around each g* call it reads the
//! block's virtual clock (`blk.now()`), and — in a traced run only — the
//! host clock, and pushes a host-time span. Nothing here reaches into
//! the program.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use gpufs::GpufsResult;
use gpusim::BlockCtx;

use crate::stats::percentile;

/// The g* calls the api rows distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `gopen`.
    Gopen = 0,
    /// `gread`.
    Gread = 1,
    /// `gwrite`.
    Gwrite = 2,
    /// `gmmap` (the `gmunmap` that follows is not a data call).
    Gmmap = 3,
    /// `gfsync`.
    Gfsync = 4,
    /// `gclose`.
    Gclose = 5,
}

/// The workload-specific sample sets of [`BlockLog::extra`].
#[derive(Debug, Clone, Copy)]
pub enum Extra {
    /// Open-loop session latency: close time minus *due* arrival.
    Session = 0,
    /// Open-loop start lateness: how long after its due arrival a
    /// session began.
    Lateness = 1,
    /// The data calls `virt_op_*` is taken over, when that is a subset
    /// of the logged ones.
    Ops = 2,
}

/// A host-time span recorded by the benchmark around a call into a
/// layer: `(name, start, end, parent, iteration)`, nanoseconds since the
/// run's epoch.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// What was called.
    pub name: &'static str,
    /// Host ns since the run epoch.
    pub start: u64,
    /// Host ns since the run epoch.
    pub end: u64,
    /// Id of the enclosing span (0 = none).
    pub parent: u64,
    /// This span's id.
    pub id: u64,
    /// Iteration the span belongs to.
    pub iter: u32,
    /// Thread lane: 0 for the driver thread, `b + 1` for threadblock `b`.
    pub lane: u32,
}

/// How an iteration is observed.
#[derive(Debug, Clone, Copy)]
pub struct Observe {
    /// Traced run: host-clock reads around every g* call and
    /// `set_tracing(true)` on the hosts.
    pub traced: bool,
    /// Also keep a host span per g* call (first traced iteration only —
    /// the trace file is a sample, the statistics are not).
    pub call_spans: bool,
    /// Host epoch of the run.
    pub epoch: Instant,
    /// Iteration number, for span ids.
    pub iter: u32,
    /// Parent id for spans recorded inside kernels (the launch span).
    pub launch_span: u64,
}

impl Observe {
    /// Plain observation from `epoch` on: no tracer, no host clock around
    /// calls, no spans.
    #[must_use]
    pub fn untraced(epoch: Instant) -> Self {
        Self {
            traced: false,
            call_spans: false,
            epoch,
            iter: 0,
            launch_span: 0,
        }
    }

    /// Host ns since the run epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One threadblock's log. Each block locks its own slot once per kernel,
/// so the mutex is never contended.
#[derive(Debug, Default)]
pub struct BlockLog {
    /// Virtual ns per call, by [`Call`].
    pub virt: [Vec<u32>; 6],
    /// Host ns per call, by [`Call`] (traced runs only).
    pub host: [Vec<u32>; 6],
    /// Host spans (first traced iteration only).
    pub spans: Vec<HostSpan>,
    /// Payload bytes the data calls returned.
    pub bytes: u64,
    /// Calls that returned `Err`, plus oracle mismatches.
    pub failed: u64,
    /// Virtual-ns samples a workload wants percentiles of, by
    /// [`Extra`].
    pub extra: [Vec<u32>; 3],
}

impl BlockLog {
    /// Run one g* call, logging its virtual (and, traced, host) cost.
    /// An `Err` is counted as a failed operation and yields `None`.
    pub fn call<T>(
        &mut self,
        obs: &Observe,
        kind: Call,
        blk: &mut BlockCtx<'_>,
        f: impl FnOnce(&mut BlockCtx<'_>) -> GpufsResult<T>,
    ) -> Option<T> {
        let v0 = blk.now();
        let h0 = obs.traced.then(|| obs.now());
        let out = f(blk);
        if let Some(h0) = h0 {
            let h1 = obs.now();
            self.host[kind as usize].push(clamp_u32(h1 - h0));
            if obs.call_spans {
                let lane = blk.block_id() as u32 + 1;
                self.spans.push(HostSpan {
                    name: crate::spec::CALLS[kind as usize],
                    start: h0,
                    end: h1,
                    parent: obs.launch_span,
                    id: span_id(obs.iter, lane, self.spans.len() as u64 + 1),
                    iter: obs.iter,
                    lane,
                });
            }
        }
        self.virt[kind as usize].push(clamp_u32(blk.now() - v0));
        match out {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

/// A nanosecond count as a sample (saturating: 4.29 s is off any chart).
#[must_use]
pub fn clamp_u32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// A span id unique across iterations, lanes (fewer than 4096) and
/// sequence numbers: 20 bits, 12 bits, 32 bits.
#[must_use]
pub fn span_id(iter: u32, lane: u32, seq: u64) -> u64 {
    (u64::from(iter) << 44) | (u64::from(lane & 0xfff) << 32) | (seq & 0xffff_ffff)
}

/// The logs of one kernel launch, one slot per block.
#[derive(Debug)]
pub struct Logs(Vec<Mutex<BlockLog>>);

impl Logs {
    /// `blocks` empty logs.
    #[must_use]
    pub fn new(blocks: usize) -> Self {
        Self((0..blocks).map(|_| Mutex::default()).collect())
    }

    /// Block `id`'s log.
    ///
    /// # Panics
    ///
    /// Panics if another block of the same id panicked while logging.
    pub fn of(&self, id: usize) -> MutexGuard<'_, BlockLog> {
        self.0[id].lock().expect("a threadblock panicked mid-log")
    }

    /// Fold every block's log into `out`.
    pub fn drain_into(self, out: &mut IterOut) {
        for slot in self.0 {
            let log = slot.into_inner().expect("a threadblock panicked mid-log");
            out.bytes += log.bytes;
            out.failed += log.failed;
            for k in 0..6 {
                out.virt[k].extend_from_slice(&log.virt[k]);
                out.host[k].extend_from_slice(&log.host[k]);
            }
            for k in 0..3 {
                out.extra[k].extend_from_slice(&log.extra[k]);
            }
            out.host_spans.extend(log.spans);
        }
    }
}

/// Per-layer values of one iteration, by metric name.
pub type Sheet = BTreeMap<&'static str, f64>;

/// Everything one iteration produced.
#[derive(Debug, Default)]
pub struct IterOut {
    /// Virtual ns the timed kernel launch(es) took.
    pub virt_ns: u64,
    /// The timed region (the launches only; an iteration with several
    /// launches adds them up).
    pub timed: Timed,
    /// Payload bytes moved by data calls (or scanned, for the search).
    pub bytes: u64,
    /// Operations attempted, when the workload counts something other
    /// than logged data calls (the search counts images).
    pub ops_override: Option<u64>,
    /// `Err` returns and oracle mismatches.
    pub failed: u64,
    /// Virtual ns per call, by [`Call`].
    pub virt: [Vec<u32>; 6],
    /// Host ns per call, by [`Call`] (traced only).
    pub host: [Vec<u32>; 6],
    /// Workload-specific virtual-ns samples, by [`Extra`].
    pub extra: [Vec<u32>; 3],
    /// Samples `virt_op_*` are taken over, when they are not simply
    /// every data call (the victim tenant's calls).
    pub op_samples_override: Option<Vec<u32>>,
    /// `virt_op_p50_us` and `virt_op_p99_us` in virtual ns, when the
    /// workload has no per-call samples to take percentiles of (the
    /// search: the median GPU's and the slowest GPU's cost per work item).
    pub op_cost_override: Option<(f64, f64)>,
    /// Per-layer counts and ratios read after the iteration.
    pub sheet: Sheet,
    /// Host spans the benchmark recorded (traced only).
    pub host_spans: Vec<HostSpan>,
    /// The program's virtual-time spans (traced only).
    pub virt_spans: Vec<obs::SpanRecord>,
}

/// How long a timed region took on the host clock, and how much of the
/// CPUs' time the hypervisor took away meanwhile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Host ns.
    pub host_ns: u64,
    /// Hypervisor steal ticks (10 ms, all CPUs).
    pub steal_ticks: u64,
}

impl Timed {
    /// Whether the hypervisor took more than 2 % of the CPUs' time away.
    /// Such a reading measured the neighbours, not the program; runs
    /// leave it out of their medians when enough undisturbed ones remain.
    #[must_use]
    pub fn disturbed(&self) -> bool {
        let stolen_ns = self.steal_ticks as f64 * 1e7;
        stolen_ns > 0.02 * self.host_ns as f64 * crate::sys::nproc() as f64
    }
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, more: Self) {
        self.host_ns += more.host_ns;
        self.steal_ticks += more.steal_ticks;
    }
}

/// The host clock around one timed region, with the hypervisor's steal
/// counter read just outside it.
pub struct HostTimer {
    steal: u64,
    start: Instant,
}

impl HostTimer {
    /// Start timing.
    #[must_use]
    pub fn start() -> Self {
        let steal = crate::sys::steal_ticks();
        Self {
            steal,
            start: Instant::now(),
        }
    }

    /// Stop timing.
    #[must_use]
    pub fn stop(self) -> Timed {
        let host_ns = self.start.elapsed().as_nanos() as u64;
        Timed {
            host_ns,
            steal_ticks: crate::sys::steal_ticks().saturating_sub(self.steal),
        }
    }
}

impl IterOut {
    /// Data calls logged (or the workload's own count).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops_override.unwrap_or_else(|| {
            (self.virt[Call::Gread as usize].len()
                + self.virt[Call::Gwrite as usize].len()
                + self.virt[Call::Gmmap as usize].len()) as u64
        })
    }

    /// `(p50, p99)` in virtual ns over the samples `virt_op_*` reports.
    #[must_use]
    pub fn op_percentiles(&mut self) -> (f64, f64) {
        if let Some(given) = self.op_cost_override {
            return given;
        }
        let mut s = match self.op_samples_override.take() {
            Some(s) => s,
            None => [Call::Gread, Call::Gwrite, Call::Gmmap]
                .iter()
                .flat_map(|&c| self.virt[c as usize].iter().copied())
                .collect(),
        };
        (percentile(&mut s, 0.50), percentile(&mut s, 0.99))
    }
}

/// Host-time spans of the driver thread's phases (build, mount, launch,
/// verify). Untraced runs record nothing.
pub struct Phases<'a> {
    /// How the iteration is observed.
    pub obs: &'a Observe,
    /// The spans recorded so far.
    pub spans: Vec<HostSpan>,
    seq: u64,
}

impl<'a> Phases<'a> {
    /// No spans yet.
    #[must_use]
    pub fn new(obs: &'a Observe) -> Self {
        Self {
            obs,
            spans: Vec::new(),
            seq: 0,
        }
    }

    /// Run `f` as phase `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_with(name, |_| f())
    }

    /// Run `f` as phase `name`, handing it an [`Observe`] whose
    /// `launch_span` is this phase — what a kernel launch passes to its
    /// blocks so their call spans nest under it.
    pub fn time_with<T>(&mut self, name: &'static str, f: impl FnOnce(&Observe) -> T) -> T {
        if !self.obs.traced {
            return f(self.obs);
        }
        self.seq += 1;
        let id = span_id(self.obs.iter, 0, self.seq);
        let inner = Observe {
            launch_span: id,
            ..*self.obs
        };
        let start = self.obs.now();
        let out = f(&inner);
        self.spans.push(HostSpan {
            name,
            start,
            end: self.obs.now(),
            parent: 0,
            id,
            iter: self.obs.iter,
            lane: 0,
        });
        out
    }

    /// Move the recorded spans into `out`.
    pub fn finish(self, out: &mut IterOut) {
        out.host_spans.extend(self.spans);
    }
}

/// Row `name` of a counter `snapshot()`, or [`crate::spec::ABSENT`].
#[must_use]
pub fn row(rows: &[(&'static str, u64)], name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| *n == name)
        .map_or(crate::spec::ABSENT, |&(_, v)| v as f64)
}

/// `num / den`; 0 when nothing was counted, absent when an input is.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if num < 0.0 || den < 0.0 {
        crate::spec::ABSENT
    } else if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
