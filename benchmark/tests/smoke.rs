//! The binary end to end on the tiny geometry: every workload, every
//! declared name, every oracle.

use std::process::Command;
use std::time::Instant;

use gpufs_benchmark::json::Json;
use gpufs_benchmark::spec::{ABSENT, END_TO_END, PER_LAYER, WORKLOADS};

const EXE: &str = env!("CARGO_BIN_EXE_gpufs-benchmark");

fn last_line_json(stdout: &[u8]) -> Json {
    let text = String::from_utf8_lossy(stdout);
    Json::parse(text.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn run_all_smoke_passes_every_oracle_quickly() {
    let out = std::env::temp_dir().join(format!("gpufs-bench-smoke-{}.json", std::process::id()));
    let t = Instant::now();
    let run = Command::new(EXE)
        .args([
            "run", "--all", "--traced", "--smoke", "--seed", "3", "--out",
        ])
        .arg(&out)
        .output()
        .expect("benchmark starts");
    let took = t.elapsed();
    let text = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "smoke run failed:\n{text}");
    assert!(took.as_secs_f64() < 10.0, "smoke run took {took:?}");

    let doc = Json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("parses");
    let _ = std::fs::remove_file(&out);
    let sets = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    assert_eq!(
        sets.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    for (workload, set) in sets {
        for (part_name, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let part = set
                .get(part_name)
                .unwrap_or_else(|| panic!("{workload} has {part_name}"));
            assert_eq!(part.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                part.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(
                part.get("attempted").and_then(Json::as_f64) >= Some(1.0),
                "{workload}"
            );
            let metrics = part.get("metrics").and_then(Json::as_obj).expect("metrics");
            // Every declared name is emitted, and nothing else.
            assert_eq!(
                metrics.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
                table.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{workload}"
            );
            for ((name, m), spec) in metrics.iter().zip(table) {
                let value = m.get("value").and_then(Json::as_f64).expect("a value");
                assert!(value.is_finite(), "{workload}/{name}");
                assert_ne!(
                    value, ABSENT,
                    "{workload}/{name}: a counter row went missing"
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
                assert_eq!(
                    m.get("kind").and_then(Json::as_str),
                    Some(spec.kind.as_str())
                );
                if part_name == "end_to_end" {
                    assert!(
                        value > 0.0,
                        "{workload}/{name} is an end-to-end metric and reads {value}"
                    );
                    // A set: the median of its runs, with their values.
                    let runs = m.get("runs").and_then(Json::as_arr).expect("runs");
                    assert_eq!(m.get("n").and_then(Json::as_f64), Some(runs.len() as f64));
                    assert!(runs.len() >= 2, "{workload}/{name}");
                }
            }
        }
    }
}

#[test]
fn driver_form_prints_the_result_object_last() {
    for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let run = Command::new(EXE)
            .args([
                "--workload",
                "hot_reread",
                "--seed",
                "2",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ])
            .output()
            .expect("benchmark starts");
        assert!(run.status.success());
        let result = last_line_json(&run.stdout);
        let keys: Vec<_> = result
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), table.len());
        for (_, m) in metrics {
            let keys: Vec<_> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }
}

#[test]
fn the_separation_the_workloads_promise_shows_in_the_counts() {
    // One traced smoke run per workload; the closure picks rows from it.
    let sheet = |workload: &'static str| {
        let run = Command::new(EXE)
            .args([
                "--workload",
                workload,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "1",
                "--smoke",
            ])
            .output()
            .expect("benchmark starts");
        assert!(run.status.success(), "{workload}");
        let result = last_line_json(&run.stdout);
        move |metric: &str| -> f64 {
            result
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload}/{metric}"))
        }
    };
    let hot = sheet("hot_reread");
    for row in [
        "cache.misses",
        "rpc.requests",
        "daemon.bytes_h2d",
        "cache.write_rpcs",
        "remote.wire_rpcs",
    ] {
        assert_eq!(hot(row), 0.0, "hot_reread {row}");
    }
    assert!(hot("cache.hits") > 0.0);
    let seq = sheet("seq_read_cold");
    assert_eq!(seq("cache.pages_reclaimed"), 0.0);
    assert_eq!(seq("cache.write_rpcs"), 0.0);
    assert!(seq("daemon.bytes_h2d") > 0.0 && seq("cache.readahead_hits") > 0.0);
    let evict = sheet("evict_random");
    assert!(evict("cache.pages_reclaimed") > 0.0);
    assert_eq!(evict("rpc.tenant_stalls"), 0.0);
    let wb = sheet("write_back");
    assert!(wb("cache.write_rpcs") > 0.0 && wb("daemon.bytes_d2h") > 0.0);
    assert!(wb("trace.gather_ms") > 0.0 && wb("trace.pwrite_ms") > 0.0);
    let dist = sheet("dist_search");
    assert!(dist("remote.wire_rpcs") > 0.0 && dist("trace.net_roundtrip_ms") > 0.0);
    assert!(dist("cluster.gpu_imbalance") >= 1.0);
    let mix = sheet("tenant_mix");
    assert!(mix("cache.write_rpcs") > 0.0 && mix("rpc.session_p99_us") > 0.0);
    assert_eq!(mix("remote.wire_rpcs"), 0.0);
}

#[test]
fn bad_arguments_and_an_empty_tree_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "hot_reread", "--trace", "2"],
        &["--workload", "hot_reread", "--bogus"],
        &["check", "only-one.json"],
        &[],
    ] {
        let run = Command::new(EXE)
            .args(args)
            .output()
            .expect("benchmark starts");
        assert!(!run.status.success(), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
