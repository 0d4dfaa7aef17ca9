//! Well-formedness of the causal trees the span tracer emits, checked
//! over randomized fig4/fig5-style smoke points: random page size,
//! readahead window, block count, daemon pool geometry, and read/write
//! mix. Whatever the interleaving, every emitted span must
//!
//! * end at or after it starts (virtual time never runs backwards),
//! * name a parent that was itself emitted in the same trace (or be a
//!   root), and
//! * if it is a daemon pipeline chunk (`pread`/`dma`/`gather`/
//!   `pwrite`), hang under its serving RPC's `serve:*` span — which in
//!   turn hangs under the client-side `rpc:*` span of the same trace —
//!   and, if it is a DMA span, split its extent exactly into `queue_ns`
//!   and `service_ns`; a `serve:*` span says what its request drew from
//!   the daemon's worker pool (`cpu_ns`) and waited for it (`queue_ns`).
//!
//! A fixed smoke point also goes through the Chrome trace-event exporter,
//! whose output must stay loadable.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};
use obs::SpanRecord;

/// One randomized smoke point: run it traced, return the drained spans.
fn traced_smoke_point(
    page_pow: u32,
    window: usize,
    blocks: usize,
    channels: usize,
    workers: usize,
    writes: bool,
) -> Vec<SpanRecord> {
    let page = 1usize << page_pow; // 8K..32K
    let file_bytes = 64 * page as u64; // 64 pages
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
    let cache = (file_bytes as usize + 16 * page).next_power_of_two();
    let cfg = GpufsConfig::new(page, cache)
        .with_readahead(window)
        .with_concurrency(channels, workers);
    let host = GpufsHost::with_config(Arc::clone(&fs), vec![Arc::clone(&gpu)], &cfg);
    let mount = host.mount(0, cfg).unwrap();
    host.set_tracing(true);

    fs.create_synthetic("/in.bin", file_bytes, 4).unwrap();
    let _ = fs.read_whole("/in.bin", 0).unwrap();
    fs.reset_device_time();

    let per_block = file_bytes / blocks as u64;
    gpu.launch(Grid::new(blocks, 64), 0, |blk| {
        let fd = mount.open(blk, "/in.bin", GOpenMode::ReadOnly).unwrap();
        let base = blk.block_id() as u64 * per_block;
        let mut buf = vec![0u8; page];
        let mut off = 0u64;
        while off < per_block {
            let n = mount.read(blk, &fd, base + off, &mut buf).unwrap();
            assert!(n > 0);
            off += n as u64;
        }
        mount.close(blk, fd).unwrap();

        if writes {
            // A write + fsync leg so WritePages RPCs and their daemon
            // pwrite/gather chunks appear in the forest too.
            let out = mount.open(blk, "/out.bin", GOpenMode::WriteOnce).unwrap();
            let payload = vec![0x5au8; page];
            let base = blk.block_id() as u64 * per_block;
            let mut off = 0u64;
            while off < per_block {
                let n = (per_block - off).min(page as u64) as usize;
                mount.write(blk, &out, base + off, &payload[..n]).unwrap();
                off += n as u64;
            }
            mount.fsync(blk, &out).unwrap();
            mount.close(blk, out).unwrap();
        }
    });
    host.tracer().snapshot()
}

/// The structural invariants every traced run must satisfy.
fn assert_well_formed(spans: &[SpanRecord]) {
    assert!(!spans.is_empty(), "a traced run emits spans");
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();
    for s in spans {
        assert!(
            s.end >= s.start,
            "span {} ({}) ends before it starts: [{}, {}]",
            s.span,
            s.name,
            s.start,
            s.end
        );
        if s.parent == 0 {
            continue;
        }
        let parent = by_id.get(&s.parent).unwrap_or_else(|| {
            panic!(
                "span {} ({}) has no live parent {}",
                s.span, s.name, s.parent
            )
        });
        assert_eq!(
            parent.trace, s.trace,
            "span {} ({}) crosses traces to its parent {} ({})",
            s.span, s.name, parent.span, parent.name
        );
        // Pipeline chunks nest under the daemon's serve span; serve
        // spans nest under the client-side rpc span that shipped them.
        if matches!(s.name, "pread" | "dma" | "gather" | "pwrite") {
            assert!(
                parent.name.starts_with("serve:"),
                "chunk {} hangs under {:?}, not a serve span",
                s.name,
                parent.name
            );
        }
        // A DMA span covers its engine reservation from issue to
        // completion, and says how that splits into queueing and service.
        let attr = |key: &str| {
            let found = s.attrs.iter().find(|(k, _)| *k == key);
            found
                .unwrap_or_else(|| panic!("{} span without `{key}`", s.name))
                .1
        };
        if matches!(s.name, "dma" | "gather") {
            assert_eq!(attr("queue_ns") + attr("service_ns"), s.end - s.start);
            assert!(attr("joined") <= 1);
        }
        if s.name.starts_with("serve:") {
            assert!(
                parent.name.starts_with("rpc:"),
                "serve span {} hangs under {:?}, not an rpc span",
                s.name,
                parent.name
            );
            // What the request drew from the worker pool — its dispatch at
            // the very least — and how long it waited for a worker: both
            // inside the RPC that carried it.
            assert!(attr("cpu_ns") >= simtime::Timings::default().rpc_dispatch_ns);
            assert!(attr("queue_ns") + attr("cpu_ns") <= parent.end - parent.start);
        }
    }
    // Every trace in the forest has at least one root.
    let mut roots: HashMap<u64, usize> = HashMap::new();
    for s in spans {
        if s.parent == 0 {
            *roots.entry(s.trace).or_default() += 1;
        }
    }
    for s in spans {
        assert!(
            roots.contains_key(&s.trace),
            "trace {} has no root (span {} {:?})",
            s.trace,
            s.span,
            s.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn traced_runs_emit_well_formed_causal_forests(
        page_pow in 13u32..16,     // 8 KB, 16 KB, 32 KB pages
        window in 1usize..9,
        blocks in 1usize..5,
        channels in 1usize..5,
        workers in 1usize..4,
        writes in any::<bool>(),
    ) {
        let spans = traced_smoke_point(page_pow, window, blocks, channels, workers, writes);
        assert_well_formed(&spans);
        // The read walk must actually have faulted: the forest contains
        // at least one gread root with an rpc child chain.
        prop_assert!(spans.iter().any(|s| s.name == "gread"));
        prop_assert!(spans.iter().any(|s| s.name == "rpc:ReadPages"));
        if writes {
            prop_assert!(spans.iter().any(|s| s.name == "gwrite"));
            prop_assert!(spans.iter().any(|s| s.name == "rpc:WritePages"));
        }
    }
}

/// The Perfetto export of a traced smoke walk is loadable: one
/// `{"traceEvents":[...]}` envelope, one complete (`"ph":"X"`) event per
/// span, and within each trace (one `tid`) timestamps never run backwards.
#[test]
fn chrome_trace_export_is_well_formed() {
    let spans = traced_smoke_point(14, 8, 4, 2, 2, true);
    let json = obs::chrome_trace_json(&spans);
    let envelope = "{\"traceEvents\":[";
    assert!(
        json.starts_with(envelope) && json.ends_with("]}"),
        "chrome trace envelope malformed"
    );
    let complete = json.matches("\"ph\":\"X\"").count();
    assert!(complete > 0, "chrome trace exported zero events");
    assert_eq!(complete, spans.len(), "one event per span");
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    for ev in json[envelope.len()..].split("},{") {
        let field = |key: &str| -> &str {
            let at = ev
                .find(key)
                .unwrap_or_else(|| panic!("event missing {key}: {ev}"));
            ev[at + key.len()..].split([',', '}']).next().unwrap()
        };
        let ts: f64 = field("\"ts\":").parse().expect("numeric ts");
        let tid: u64 = field("\"tid\":").parse().expect("numeric tid");
        if let Some(prev) = last_ts.insert(tid, ts) {
            assert!(prev <= ts, "ts regressed within tid {tid}: {prev} > {ts}");
        }
    }
}
