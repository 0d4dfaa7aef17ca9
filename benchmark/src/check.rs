//! `check A.json B.json`: compare two result files metric by metric
//! against the bounds of [`crate::spec::BOUNDS`].
//!
//! A result file is what `run --all --out` writes: a *set* of runs of
//! every workload. Each end-to-end metric carries the median of its runs'
//! values and their quartiles, so what is compared is what the acceptance
//! driver and the choosing-metrics guide compare — medians of runs, and
//! the quartile distance between one side's own runs as the spread.
//!
//! A is the reference (the parent commit, or the first of two sets of
//! one build), B the candidate. One row per (workload, end-to-end
//! metric):
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — it is not, but either side's runs spread (Q3 − Q1, as
//!   a share of A's median) wider than the bound, or a side has fewer
//!   than two runs and so no spread at all. Such a row is evidence of
//!   nothing, and is never reported as `ok`;
//! * `ok` — otherwise.

use crate::json::Json;
use crate::spec;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and known to be.
    Ok,
    /// Worse than the reference by more than the bound.
    Worse,
    /// Not worse, but the spread is wider than the bound.
    Unresolved,
}

/// A metric's reading in one result file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Median over the set's runs.
    pub median: f64,
    /// First quartile of the runs.
    pub q1: f64,
    /// Third quartile of the runs.
    pub q3: f64,
    /// Runs.
    pub n: f64,
}

impl Reading {
    /// Run-to-run spread: the quartile distance, unknown (infinite) for
    /// fewer than two runs.
    fn spread(&self) -> f64 {
        if self.n < 2.0 {
            f64::INFINITY
        } else {
            (self.q3 - self.q1).abs()
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Reference reading.
    pub a: Reading,
    /// Candidate reading.
    pub b: Reading,
    /// How much worse B's median is, as a share of A's (negative:
    /// better).
    pub worse_by: f64,
    /// The declared bound.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

impl Row {
    /// One line of the report.
    #[must_use]
    pub fn render(&self) -> String {
        let r = |x: &Reading| format!("{:.6} [{:.6}, {:.6}] n={}", x.median, x.q1, x.q3, x.n);
        format!(
            "{:<14} {:<16} A {}  B {}  worse by {:+.2}% (bound {:.0}%)  {}",
            self.workload,
            self.metric,
            r(&self.a),
            r(&self.b),
            self.worse_by * 100.0,
            self.bound * 100.0,
            match self.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        )
    }
}

fn reading(file: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    let f = |k| m.get(k).and_then(Json::as_f64);
    Some(Reading {
        median: f("value")?,
        q1: f("q1")?,
        q3: f("q3")?,
        n: f("n")?,
    })
}

/// Judge one pair of readings: how much worse B's median is as a share
/// of A's, and the verdict against `bound`.
#[must_use]
pub fn judge(a: Reading, b: Reading, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_is_better {
        (a.median - b.median) / base
    } else {
        (b.median - a.median) / base
    };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if a.spread().max(b.spread()) / base > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compare result file `b` against reference `a`.
///
/// # Errors
///
/// Fails when a workload of `a` is not one of the benchmark's, or one of
/// its end-to-end metrics is missing from either file: a comparison with
/// holes proves nothing.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("reference file has no workloads")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for m in spec::END_TO_END {
            let bound = spec::bound(workload, m.name)
                .ok_or_else(|| format!("A: {workload} is not a workload of this benchmark"))?;
            let get = |file: &Json, which: &str| {
                reading(file, workload, m.name)
                    .ok_or_else(|| format!("{which}: {workload}/{} is missing", m.name))
            };
            let (ra, rb) = (get(a, "A")?, get(b, "B")?);
            let (worse_by, verdict) = judge(ra, rb, m.higher_is_better, bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.to_owned(),
                a: ra,
                b: rb,
                worse_by,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    /// A result file holding `seq_read_cold` alone: `host_ops_per_s` and
    /// `virt_mb_s` as given, every other metric 1, each with `runs` runs
    /// whose quartiles sit `iqr_share` of the value apart.
    fn file(host_ops: f64, virt_mb: f64, iqr_share: f64, runs: f64) -> Json {
        let metrics = spec::END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "host_ops_per_s" => host_ops,
                    "virt_mb_s" => virt_mb,
                    _ => 1.0,
                };
                let reading = obj(vec![
                    ("value", Json::Num(v)),
                    ("q1", Json::Num(v * (1.0 - iqr_share / 2.0))),
                    ("q3", Json::Num(v * (1.0 + iqr_share / 2.0))),
                    ("n", Json::Num(runs)),
                ]);
                (m.name.to_owned(), reading)
            })
            .collect();
        let set = obj(vec![(
            "end_to_end",
            obj(vec![("metrics", Json::Obj(metrics))]),
        )]);
        obj(vec![("workloads", obj(vec![("seq_read_cold", set)]))])
    }

    /// Verdicts on `host_ops_per_s` and `virt_mb_s`, under the bounds the
    /// benchmark ships.
    fn verdicts(a: &Json, b: &Json) -> [Verdict; 2] {
        let rows = compare(a, b).unwrap();
        assert_eq!(rows.len(), spec::END_TO_END.len());
        let of = |metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        [of("host_ops_per_s"), of("virt_mb_s")]
    }

    #[test]
    fn red_on_real_drops_green_on_wobble() {
        let base = file(24_000.0, 4378.0, 0.02, 5.0);
        // 30% fewer host ops/s, 5% less modelled bandwidth: both red.
        assert_eq!(
            verdicts(&base, &file(24_000.0 * 0.70, 4378.0 * 0.95, 0.02, 5.0)),
            [Verdict::Worse, Verdict::Worse]
        );
        // A 1% wobble either way is green.
        assert_eq!(
            verdicts(&base, &file(24_000.0 * 0.99, 4378.0 * 1.01, 0.02, 5.0)),
            [Verdict::Ok, Verdict::Ok]
        );
        // Better is never worse.
        assert_eq!(
            verdicts(&base, &file(30_000.0, 5000.0, 0.02, 5.0)),
            [Verdict::Ok, Verdict::Ok]
        );
        // The known limit: one build's host speed moves 15% by itself on
        // the sandbox the bounds were measured on, so `check` cannot call
        // a 15% drop (the issue hoped it would).
        assert_eq!(
            verdicts(&base, &file(24_000.0 * 0.85, 4378.0, 0.02, 5.0))[0],
            Verdict::Ok
        );
    }

    #[test]
    fn wide_or_unknown_spread_is_unresolved_not_ok() {
        // Runs 30% apart resolve neither a 25% nor a 3% bound, on
        // whichever side they are.
        let (steady, noisy) = (
            file(24_000.0, 4378.0, 0.0, 5.0),
            file(24_000.0, 4378.0, 0.30, 5.0),
        );
        for (a, b) in [(&noisy, &noisy), (&steady, &noisy), (&noisy, &steady)] {
            assert_eq!(verdicts(a, b), [Verdict::Unresolved, Verdict::Unresolved]);
        }
        // A single run has no spread to show.
        let single = file(24_000.0, 4378.0, 0.0, 1.0);
        assert_eq!(
            verdicts(&single, &single),
            [Verdict::Unresolved, Verdict::Unresolved]
        );
        // A drop beyond the bound is still called.
        assert_eq!(
            verdicts(&noisy, &file(12_000.0, 4378.0, 0.30, 5.0))[0],
            Verdict::Worse
        );
    }

    #[test]
    fn holes_and_strangers_are_errors() {
        let a = file(1.0, 1.0, 0.0, 5.0);
        let empty = obj(vec![("workloads", obj(vec![]))]);
        assert!(compare(&a, &empty).is_err());
        assert!(compare(&obj(vec![]), &a).is_err());
        let stranger = obj(vec![("workloads", obj(vec![("nope", obj(vec![]))]))]);
        assert!(compare(&stranger, &a).is_err());
    }
}
