//! One measured run of one workload: set up, warm, iterate for the
//! requested time, reduce.
//!
//! An iteration is a fixed amount of work, so a per-iteration value
//! means the same thing on any commit; the run lasts `seconds` and
//! reports each value's **median over its iterations** with the
//! quartiles beside it. End-to-end metrics come from an untraced run;
//! a traced run pairs untraced with traced iterations, yields the
//! per-layer sheet and ends with the `layers` pass.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::record::{Extra, HostSpan, HostTimer, IterOut, Observe, Sheet};
use crate::spec::{self, Metric};
use crate::stats::{median, percentile, quartiles, Quartiles};
use crate::workloads::build;
use crate::{layers, sys, trace};

/// Times an untraced run sets the workload up; `setup_s` is their median
/// (of the undisturbed ones, when at least [`MIN_QUIET_SETUPS`] are).
/// Each setup is dropped before the next.
const SETUPS: usize = 5;
const MIN_QUIET_SETUPS: usize = 3;

/// Fewest iterations a reported median rests on, however short the run.
const MIN_ITERS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub traced: bool,
    /// Tiny geometry, two iterations: the self-test pass.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Which metric.
    pub metric: &'static Metric,
    /// Median and quartiles over the run's iterations (`n = 1` for a
    /// reading taken once, like `peak_rss_mb`).
    pub q: Quartiles,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every oracle passed and no call failed.
    pub correct: bool,
    /// g* calls (or images, for the search) attempted in timed regions.
    pub attempted: u64,
    /// Calls that returned `Err` plus oracle mismatches.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Reported>,
    /// Timed iterations behind the medians.
    pub iterations: usize,
    /// Traced runs: medians of the modelled end-to-end values over the
    /// untraced and the traced iterations, to show tracing moved neither.
    pub virt_check: Vec<(&'static str, f64, f64)>,
}

/// One iteration's end-to-end readings.
struct Row {
    /// Host ms of the timed region.
    host_ms: f64,
    /// Data calls (or images) per host second of the timed region.
    ops_per_s: f64,
    /// The modelled values: MB/s, p50 µs, p99 µs.
    virt: [f64; 3],
    /// The hypervisor stole CPU time during the timed region.
    disturbed: bool,
}

/// What every iteration contributes to a run, traced or not.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    rows: Vec<Row>,
}

impl Tally {
    fn add(&mut self, it: &mut IterOut) {
        self.attempted += it
            .ops_override
            .unwrap_or_else(|| it.virt.iter().map(|v| v.len() as u64).sum());
        self.failed += it.failed;
        let (p50, p99) = it.op_percentiles();
        self.rows.push(Row {
            host_ms: it.timed.host_ns as f64 / 1e6,
            ops_per_s: it.ops() as f64 / (it.timed.host_ns as f64 / 1e9),
            virt: [
                simtime::throughput_mb_s(it.bytes, it.virt_ns),
                p50 / 1e3,
                p99 / 1e3,
            ],
            disturbed: it.timed.disturbed(),
        });
    }

    /// One reading of every iteration the medians rest on.
    fn column(&self, f: impl Fn(&Row) -> f64) -> Vec<f64> {
        let readings: Vec<_> = self.rows.iter().map(|r| (f(r), r.disturbed)).collect();
        undisturbed(&readings, MIN_ITERS)
    }
}

/// The readings a median rests on: those taken while the hypervisor left
/// the guest alone, when there are at least `min` of them — a reading it
/// stole time from measured the neighbours, and under lock-step pacing
/// loses far more than was stolen — else all of them, which is then the
/// honest answer.
fn undisturbed(readings: &[(f64, bool)], min: usize) -> Vec<f64> {
    let quiet = readings.iter().filter(|(_, disturbed)| !disturbed).count();
    readings
        .iter()
        .filter(|(_, disturbed)| quiet < min || !disturbed)
        .map(|&(v, _)| v)
        .collect()
}

fn reported(name: &str, values: &[f64]) -> Reported {
    Reported {
        metric: spec::find(name).expect("metric is in the spec"),
        q: quartiles(values),
    }
}

/// Run as `args` say.
#[must_use]
pub fn run(args: &RunArgs) -> Outcome {
    if args.traced {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

/// Whether a loop that must make `min` passes and last `budget` has made
/// enough after `done` of them (smoke: exactly two).
fn enough(done: usize, min: usize, since: Instant, budget: Duration, smoke: bool) -> bool {
    if smoke {
        done >= 2
    } else {
        done >= min && since.elapsed() >= budget
    }
}

fn run_end_to_end(args: &RunArgs) -> Outcome {
    let obs = Observe::untraced(Instant::now());
    // A setup is everything a run pays before its first timed iteration:
    // building the workload from the seed (corpus, host-cache warm-up,
    // verification tables) and one untimed iteration, in which thread
    // stacks, allocator arenas and lazy statics are paid for. Without
    // that iteration `tenant_mix` sets up in 3.5 ms, which this sandbox
    // cannot hold to within a quarter from one minute to the next.
    let mut setups = Vec::new();
    let mut tally = Tally::default();
    let mut peak_rss_mb = None;
    let mut w = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(w.take());
        let timer = HostTimer::start();
        let mut built = build(&args.workload, args.seed, args.smoke);
        tally.failed += built.iterate(&obs).failed;
        let took = timer.stop();
        setups.push((took.host_ns as f64 / 1e9, took.disturbed()));
        w = Some(built);
        // The high-water mark of setting the workload up and running it
        // once — a fixed amount of work, read before anything else has
        // happened in the process. Read later it measures luck: freed
        // memory the allocator keeps, in arenas whose number depends on
        // how 28 to 112 threads happened to collide (`dist_search` read
        // 85 to 104 MB after five setups, 76 to 77 MB after the first),
        // growing for hundreds of iterations — a reading that rose with
        // the number of iterations would punish a faster build.
        peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
    }
    let mut w = w.expect("at least one setup");
    let peak_rss_mb = peak_rss_mb.expect("at least one setup");

    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while !enough(tally.rows.len(), MIN_ITERS, start, budget, args.smoke) {
        let o = Observe {
            iter: tally.rows.len() as u32 + 1,
            ..obs
        };
        tally.add(&mut w.iterate(&o));
    }
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        iterations: tally.rows.len(),
        metrics: vec![
            reported("virt_mb_s", &tally.column(|r| r.virt[0])),
            reported("virt_op_p50_us", &tally.column(|r| r.virt[1])),
            reported("virt_op_p99_us", &tally.column(|r| r.virt[2])),
            reported("host_ops_per_s", &tally.column(|r| r.ops_per_s)),
            reported("peak_rss_mb", &[peak_rss_mb]),
            reported("setup_s", &undisturbed(&setups, MIN_QUIET_SETUPS)),
        ],
        virt_check: Vec::new(),
    }
}

/// Where the trace files go: `out/` beside the benchmark's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One traced iteration's per-layer rows: the sheet the workload read,
/// the api percentiles, the open-loop samples, the virtual spans reduced
/// to self time per name.
fn layer_sheet(it: &mut IterOut) -> Sheet {
    let mut sheet = std::mem::take(&mut it.sheet);
    sheet.insert("api.ops", it.ops() as f64);
    sheet.insert("api.bytes", it.bytes as f64);
    for (k, [virt_p50, virt_p99, host_p50]) in spec::API_ROWS.into_iter().enumerate() {
        let us = |samples: &mut [u32], q| percentile(samples, q) / 1e3;
        sheet.insert(virt_p50, us(&mut it.virt[k], 0.50));
        sheet.insert(virt_p99, us(&mut it.virt[k], 0.99));
        sheet.insert(host_p50, us(&mut it.host[k], 0.50));
    }
    for (slot, name) in [
        (Extra::Session, "rpc.session_p99_us"),
        (Extra::Lateness, "rpc.gen_lag_p99_us"),
    ] {
        let samples = &mut it.extra[slot as usize];
        if !samples.is_empty() {
            sheet.insert(name, percentile(samples, 0.99) / 1e3);
        }
    }
    trace::virtual_rows(&it.virt_spans, &mut sheet);
    sheet
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut w = build(&args.workload, args.seed, args.smoke);
    let plain = Observe::untraced(Instant::now());
    // One untimed iteration, as in an untraced run's setup.
    let mut plain_tally = Tally {
        failed: w.iterate(&plain).failed,
        ..Tally::default()
    };
    let mut traced_tally = Tally::default();
    let mut rows: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut overheads = Vec::new();
    let mut file_host: Vec<HostSpan> = Vec::new();
    let mut file_virt: Vec<obs::SpanRecord> = Vec::new();

    // Untraced and traced iterations in pairs, for 70 % of the time:
    // tracing off is the reference the overhead and the virtual-time
    // transparency are judged against, and only a neighbour in time is a
    // fair reference on a host whose speed drifts by the minute. Which of
    // the two goes first alternates, so neither always inherits the
    // other's warm caches. A traced iteration turns the program's tracer
    // on and reads the host clock around every g* call; only the first
    // keeps its per-call spans for the trace files.
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds * 0.7);
    let mut pairs = 0;
    while !enough(pairs, MIN_ITERS, start, budget, args.smoke) {
        for second in [false, true] {
            let traced = second != (pairs % 2 == 1);
            let o = Observe {
                traced,
                call_spans: traced && file_virt.is_empty(),
                iter: (plain_tally.rows.len() + traced_tally.rows.len()) as u32 + 1,
                ..plain
            };
            let mut it = w.iterate(&o);
            if !traced {
                plain_tally.add(&mut it);
                continue;
            }
            for (name, v) in layer_sheet(&mut it) {
                rows.entry(name).or_default().push(v);
            }
            if file_virt.is_empty() {
                file_virt = std::mem::take(&mut it.virt_spans);
            }
            file_host.extend(std::mem::take(&mut it.host_spans));
            traced_tally.add(&mut it);
        }
        let (p, t) = (&plain_tally.rows[pairs], &traced_tally.rows[pairs]);
        overheads.push((
            (t.host_ms / p.host_ms - 1.0) * 100.0,
            p.disturbed || t.disturbed,
        ));
        pairs += 1;
    }
    drop(w);

    rows.insert("obs.trace_overhead_pct", undisturbed(&overheads, MIN_ITERS));
    let host_q = quartiles(&plain_tally.column(|r| r.host_ms));
    rows.insert("host.iter_ms_p50", vec![host_q.median]);
    rows.insert("host.iter_ms_iqr", vec![host_q.q3 - host_q.q1]);

    for (name, v) in layers::pass(Duration::from_secs_f64(args.seconds * 0.3), args.smoke) {
        rows.insert(name, vec![v]);
    }
    rows.insert("host.cpu_s", vec![sys::cpu_seconds()]);

    if let Err(e) = trace::write_files(
        &out_dir(),
        &args.workload,
        args.seed,
        &file_host,
        &file_virt,
    ) {
        eprintln!("trace files not written: {e}");
    }

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| Reported {
            metric: m,
            // A row no iteration of this workload touched is a layer
            // that did no work here: zero, not missing.
            q: quartiles(rows.get(m.name).map_or(&[0.0][..], Vec::as_slice)),
        })
        .collect();
    let failed = plain_tally.failed + traced_tally.failed;
    Outcome {
        correct: failed == 0,
        attempted: plain_tally.attempted + traced_tally.attempted,
        failed,
        iterations: traced_tally.rows.len(),
        metrics,
        virt_check: ["virt_mb_s", "virt_op_p50_us", "virt_op_p99_us"]
            .into_iter()
            .enumerate()
            .map(|(i, n)| {
                (
                    n,
                    median(&plain_tally.column(|r| r.virt[i])),
                    median(&traced_tally.column(|r| r.virt[i])),
                )
            })
            .collect(),
    }
}
