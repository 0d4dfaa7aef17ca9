//! Command line.
//!
//! ```text
//! gpufs-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of stdout is the result
//!     object the acceptance driver reads
//! gpufs-benchmark run --all [--workload W] [--seed N] [--traced] [--smoke]
//!                 [--out FILE]
//!     a set: every workload run RUNS_PER_SET times for SET_RUN_SECONDS,
//!     one process a run; prints every metric by name with unit and
//!     kind, writes a result file `check` can compare
//! gpufs-benchmark check A.json B.json
//!     compare two result files against the bounds of `spec::BOUNDS`
//! ```

use std::process::{Command, ExitCode, Stdio};

use crate::check;
use crate::json::{obj, Json};
use crate::runner::{run, Outcome, RunArgs};
use crate::spec;
use crate::stats::quartiles;

/// The line a child run prints before its result object, carrying what
/// the result object's fixed shape has no room for.
const DETAIL_PREFIX: &str = "#detail ";

/// Default measuring time of one run, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Untraced runs of each workload in a `run --all` set. What two sets
/// are compared by is the median of a set's runs, and what says whether
/// that comparison resolves anything is the quartile distance between
/// them — iterations inside one run share that run's luck (where the
/// hypervisor put the vCPUs, what the neighbours were doing), so their
/// spread says little about how far the next run's median will land.
const RUNS_PER_SET: usize = 5;

/// Measuring time of one run of a set: with [`RUNS_PER_SET`] runs a
/// workload is timed for ten seconds, a full set takes under two minutes.
const SET_RUN_SECONDS: f64 = 2.0;

struct Flags(Vec<String>);

impl Flags {
    /// Value of `--name V`, removed from the list.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    /// Whether the bare flag `--name` was given, removed from the list.
    fn switch(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(f) => Err(format!("unknown flag {f}")),
            None => Ok(self.0),
        }
    }
}

fn known_workload(name: &str) -> Result<(), String> {
    if spec::WORKLOADS.iter().any(|(n, _)| *n == name) {
        Ok(())
    } else {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
        Err(format!(
            "no workload {name:?}; choose from {}",
            names.join(", ")
        ))
    }
}

/// Entry point; `args` excludes the program name.
#[must_use]
pub fn main(args: Vec<String>) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(Flags(args[1..].to_vec())),
        Some("check") => check_files(Flags(args[1..].to_vec())),
        Some(a) if a.starts_with("--") => run_one(Flags(args)),
        _ => Err("usage: --workload W --seed N --seconds S --trace 0|1 \
                  | run --all [--workload W] [--seed N] [--traced] [--smoke] [--out FILE] \
                  | check A.json B.json"
            .to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("gpufs-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn metrics_json(o: &Outcome, detailed: bool) -> Json {
    Json::Obj(
        o.metrics
            .iter()
            .map(|r| {
                let mut m = vec![
                    ("value", Json::Num(r.q.median)),
                    ("unit", Json::Str(r.metric.unit.to_owned())),
                ];
                if detailed {
                    m.extend([
                        ("kind", Json::Str(r.metric.kind.as_str().to_owned())),
                        ("q1", Json::Num(r.q.q1)),
                        ("q3", Json::Num(r.q.q3)),
                        ("n", Json::Num(r.q.n as f64)),
                    ]);
                }
                (r.metric.name.to_owned(), obj(m))
            })
            .collect(),
    )
}

/// The driver form: one run, result object on the last line.
fn run_one(mut f: Flags) -> Result<ExitCode, String> {
    let workload = f.value("--workload")?.ok_or("--workload is required")?;
    known_workload(&workload)?;
    let args = RunArgs {
        workload,
        seed: f.parsed("--seed")?.unwrap_or(1),
        seconds: f.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS),
        traced: match f.value("--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
        },
        smoke: f.switch("--smoke"),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    f.finish()?;

    let o = run(&args);
    println!(
        "{} seed {} {}: {} iterations, {} calls attempted, {} failed",
        args.workload,
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        o.iterations,
        o.attempted,
        o.failed
    );
    for r in &o.metrics {
        println!(
            "  {:<40} {:>16.6} {:<6} {:<9} q1 {:.6} q3 {:.6} n {}",
            r.metric.name,
            r.q.median,
            r.metric.unit,
            r.metric.kind.as_str(),
            r.q.q1,
            r.q.q3,
            r.q.n
        );
    }
    for (name, plain, traced) in &o.virt_check {
        println!("  tracing off/on {name}: {plain} / {traced}");
    }
    let detail = obj(vec![
        ("iterations", Json::Num(o.iterations as f64)),
        ("metrics", metrics_json(&o, true)),
        (
            "virt_check",
            Json::Obj(
                o.virt_check
                    .iter()
                    .map(|(n, a, b)| {
                        (
                            (*n).to_owned(),
                            Json::Arr(vec![Json::Num(*a), Json::Num(*b)]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{DETAIL_PREFIX}{}", detail.render());
    println!(
        "{}",
        obj(vec![
            ("correct", Json::Bool(o.correct)),
            ("attempted", Json::Num(o.attempted.max(1) as f64)),
            ("failed", Json::Num(o.failed as f64)),
            ("metrics", metrics_json(&o, false)),
        ])
        .render()
    );
    Ok(if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run one child process of this executable and parse what it printed:
/// the result object's verdict (`correct`, `attempted`, `failed`) beside
/// the detail line's richer members.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line (exit {:?}): {e}",
            out.status.code()
        )
    })?;
    let detail = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{workload}: no detail line"))
        .and_then(Json::parse)?;
    let pick = |from: &Json, keys: &[&str]| -> Vec<(String, Json)> {
        keys.iter()
            .map(|k| ((*k).to_owned(), from.get(k).cloned().unwrap_or(Json::Null)))
            .collect()
    };
    let mut members = pick(&result, &["correct", "attempted", "failed"]);
    members.extend(pick(&detail, &["iterations", "metrics", "virt_check"]));
    Ok(Json::Obj(members))
}

fn num(v: &Json, k: &str) -> f64 {
    v.get(k).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Fold the untraced runs of one workload into the set `check` reads:
/// every end-to-end metric as the median of the runs' values, with their
/// quartiles and the values themselves.
fn fold_runs(runs: &[Json]) -> Json {
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect();
            let q = quartiles(&values);
            let reading = obj(vec![
                ("value", Json::Num(q.median)),
                ("unit", Json::Str(m.unit.to_owned())),
                ("kind", Json::Str(m.kind.as_str().to_owned())),
                ("q1", Json::Num(q.q1)),
                ("q3", Json::Num(q.q3)),
                ("n", Json::Num(q.n as f64)),
                (
                    "runs",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]);
            (m.name.to_owned(), reading)
        })
        .collect();
    let total = |k| Json::Num(runs.iter().map(|r| num(r, k)).sum());
    obj(vec![
        (
            "correct",
            Json::Bool(
                runs.iter()
                    .all(|r| r.get("correct") == Some(&Json::Bool(true))),
            ),
        ),
        ("attempted", total("attempted")),
        ("failed", total("failed")),
        ("iterations", total("iterations")),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One line per metric of a set: the value, then the quartiles it sits
/// between and how many readings (`over`: runs of a set, or iterations
/// of the traced run) they are of.
fn print_rows(workload: &str, set: &Json, over: &str) {
    let text = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
    for (name, m) in set.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = num(m, "value");
        let shown = if value == spec::ABSENT {
            "absent".to_owned()
        } else {
            format!("{value:.6}")
        };
        println!(
            "{workload:<14} {name:<40} {shown:>18} {:<6} {:<9} q1 {:.6} q3 {:.6} of {} {over}",
            text(m, "unit"),
            text(m, "kind"),
            num(m, "q1"),
            num(m, "q3"),
            num(m, "n"),
        );
    }
}

/// `run --all`: a set. Every workload is run [`RUNS_PER_SET`] times
/// untraced, each run its own process, then (with `--traced`) once
/// traced for as long as those runs took together.
fn run_all(mut f: Flags) -> Result<ExitCode, String> {
    let only = f.value("--workload")?;
    if !f.switch("--all") && only.is_none() {
        return Err("run needs --all or --workload W".to_owned());
    }
    if let Some(w) = &only {
        known_workload(w)?;
    }
    let seed: u64 = f.parsed("--seed")?.unwrap_or(1);
    let traced = f.switch("--traced");
    let smoke = f.switch("--smoke");
    let out_path = f.value("--out")?;
    f.finish()?;
    // The smoke pass checks plumbing, not numbers: two runs make a set.
    let runs = if smoke { 2 } else { RUNS_PER_SET };

    let mut failed_any = false;
    let mut sets = Vec::new();
    for (name, _) in spec::WORKLOADS {
        if only.as_deref().is_some_and(|w| w != *name) {
            continue;
        }
        let untraced = (0..runs)
            .map(|_| child(name, seed, SET_RUN_SECONDS, false, smoke))
            .collect::<Result<Vec<_>, _>>()?;
        let e2e = fold_runs(&untraced);
        print_rows(name, &e2e, "runs");
        let mut members = vec![("end_to_end", e2e)];
        if traced {
            let layers = child(name, seed, SET_RUN_SECONDS * runs as f64, true, smoke)?;
            print_rows(name, &layers, "iterations");
            if let Some(vc) = layers.get("virt_check").and_then(Json::as_obj) {
                for (metric, pair) in vc {
                    let p = pair.as_arr().unwrap_or(&[]);
                    println!(
                        "{name:<14} tracing off/on {metric}: {} / {}",
                        p.first().and_then(Json::as_f64).unwrap_or(0.0),
                        p.get(1).and_then(Json::as_f64).unwrap_or(0.0)
                    );
                }
            }
            members.push(("per_layer", layers));
        }
        for (_, set) in &members {
            let ok = set.get("correct") == Some(&Json::Bool(true));
            println!(
                "{name:<14} ops_attempted {} ops_failed {} {}",
                num(set, "attempted"),
                num(set, "failed"),
                if ok { "correct" } else { "INCORRECT" }
            );
            failed_any |= !ok;
        }
        sets.push(((*name).to_owned(), obj(members)));
    }
    if let Some(path) = out_path {
        let doc = obj(vec![
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(SET_RUN_SECONDS)),
            ("runs", Json::Num(runs as f64)),
            ("nproc", Json::Num(crate::sys::nproc() as f64)),
            ("workloads", Json::Obj(sets)),
        ]);
        std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("results written to {path}");
    }
    Ok(if failed_any {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn check_files(f: Flags) -> Result<ExitCode, String> {
    let files = f.finish()?;
    let [a, b] = files.as_slice() else {
        return Err("check takes two result files".to_owned());
    };
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = check::compare(&read(a)?, &read(b)?)?;
    let mut worse = 0;
    for r in &rows {
        println!("{}", r.render());
        worse += usize::from(r.verdict == check::Verdict::Worse);
    }
    println!(
        "{} rows, {} worse, {} unresolved",
        rows.len(),
        worse,
        rows.iter()
            .filter(|r| r.verdict == check::Verdict::Unresolved)
            .count()
    );
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
