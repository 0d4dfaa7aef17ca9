//! The traced run's two span sets: the program's virtual-time spans
//! (read through `GpufsHost::tracer()`) reduced to self time per span
//! name, and the benchmark's own host-time spans written out for
//! inspection.

use std::io::Write as _;
use std::path::Path;

use obs::SpanRecord;

use crate::json::{obj, Json};
use crate::record::{HostSpan, Sheet};
use crate::stats::{self_times, SpanIv};

/// Spans kept per trace file: enough to see every phase and a few
/// thousand calls per block, small enough to open in Perfetto.
const FILE_SPAN_CAP: usize = 100_000;

/// The `trace.*` row a span name feeds, and whether the row sums self
/// time (spans with children) or whole duration (leaves of the tree as
/// the program emits it today — were one to grow children, its row
/// would start double-counting them, so `net_roundtrip`/`server` rows
/// say "ms", not "self_ms").
fn row_of(name: &str) -> Option<(&'static str, bool)> {
    Some(match name {
        "gread" => ("trace.gread_self_ms", true),
        "gwrite" => ("trace.gwrite_self_ms", true),
        "gmmap" => ("trace.gmmap_self_ms", true),
        "gfsync" => ("trace.gfsync_self_ms", true),
        "flush_pass" => ("trace.flush_pass_self_ms", true),
        "pin_miss" => ("trace.pin_miss_self_ms", true),
        "pread" => ("trace.pread_ms", false),
        "dma" => ("trace.dma_ms", false),
        "gather" => ("trace.gather_ms", false),
        "pwrite" => ("trace.pwrite_ms", false),
        "net_roundtrip" => ("trace.net_roundtrip_ms", false),
        n if n.starts_with("rpc:") => ("trace.rpc_self_ms", true),
        n if n.starts_with("serve:") => ("trace.serve_self_ms", true),
        n if n.starts_with("server:") => ("trace.server_ms", false),
        _ => return None,
    })
}

/// Add the `trace.*` rows and `obs.spans` for one iteration's virtual
/// spans to `sheet` (milliseconds of virtual time, summed over every
/// span of the name — over 28 overlapping blocks, so a row can exceed
/// the iteration's elapsed time; read it against the utilisation rows).
pub fn virtual_rows(spans: &[SpanRecord], sheet: &mut Sheet) {
    let ivs: Vec<SpanIv> = spans
        .iter()
        .map(|s| SpanIv {
            id: s.span,
            parent: s.parent,
            start: s.start,
            end: s.end,
        })
        .collect();
    let selfs = self_times(&ivs);
    for (s, own) in spans.iter().zip(selfs) {
        if let Some((row, use_self)) = row_of(s.name) {
            let ns = if use_self {
                own
            } else {
                s.end.saturating_sub(s.start)
            };
            *sheet.entry(row).or_insert(0.0) += ns as f64 / 1e6;
        }
    }
    sheet.insert("obs.spans", spans.len() as f64);
}

fn host_span_json(s: &HostSpan) -> Json {
    obj(vec![
        ("name", Json::Str(s.name.to_owned())),
        ("start_ns", Json::Num(s.start as f64)),
        ("end_ns", Json::Num(s.end as f64)),
        ("parent", Json::Num(s.parent as f64)),
        ("id", Json::Num(s.id as f64)),
        ("iter", Json::Num(f64::from(s.iter))),
        ("lane", Json::Num(f64::from(s.lane))),
    ])
}

/// Write `<dir>/<workload>.trace.json` (the benchmark's host-time spans)
/// and `<dir>/<workload>.virt.trace.json` (the program's virtual-time
/// spans as Chrome trace events, for Perfetto).
///
/// # Errors
///
/// Returns the I/O error if the directory or a file cannot be written.
pub fn write_files(
    dir: &Path,
    workload: &str,
    seed: u64,
    host: &[HostSpan],
    virt: &[SpanRecord],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let doc = obj(vec![
        ("workload", Json::Str(workload.to_owned())),
        ("seed", Json::Num(seed as f64)),
        ("clock", Json::Str("host ns since the run started".into())),
        ("spans_recorded", Json::Num(host.len() as f64)),
        (
            "spans",
            Json::Arr(
                host.iter()
                    .take(FILE_SPAN_CAP)
                    .map(host_span_json)
                    .collect(),
            ),
        ),
    ]);
    let mut f = std::fs::File::create(dir.join(format!("{workload}.trace.json")))?;
    f.write_all(doc.render().as_bytes())?;
    f.write_all(b"\n")?;
    let capped = &virt[..virt.len().min(FILE_SPAN_CAP)];
    let mut f = std::fs::File::create(dir.join(format!("{workload}.virt.trace.json")))?;
    f.write_all(obs::chrome_trace_json(capped).as_bytes())?;
    f.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(span: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span,
            parent,
            name,
            start,
            end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn rows_sum_self_time_by_name() {
        let spans = [
            rec(1, 0, "gread", 0, 10_000_000),
            rec(2, 1, "pin_miss", 1_000_000, 9_000_000),
            rec(3, 2, "rpc:ReadPages", 2_000_000, 8_000_000),
            rec(4, 3, "serve:ReadPages", 3_000_000, 7_000_000),
            // Two pipelined chunks overlapping by 1 ms under the serve.
            rec(5, 4, "pread", 3_000_000, 5_000_000),
            rec(6, 4, "dma", 4_000_000, 7_000_000),
            rec(7, 0, "unrelated", 0, 5),
        ];
        let mut sheet = Sheet::new();
        virtual_rows(&spans, &mut sheet);
        assert_eq!(sheet["trace.gread_self_ms"], 2.0);
        assert_eq!(sheet["trace.pin_miss_self_ms"], 2.0);
        assert_eq!(sheet["trace.rpc_self_ms"], 2.0);
        // The children cover all of [3, 7) ms between them.
        assert_eq!(sheet["trace.serve_self_ms"], 0.0);
        assert_eq!(sheet["trace.pread_ms"], 2.0);
        assert_eq!(sheet["trace.dma_ms"], 3.0);
        assert_eq!(sheet["obs.spans"], 7.0);
        assert!(!sheet.contains_key("trace.gwrite_self_ms"));
    }
}
