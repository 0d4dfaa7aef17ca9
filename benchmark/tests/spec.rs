//! `BENCHMARK.json` and the benchmark's own tables must name the same
//! things, within the limits the acceptance driver enforces.

use std::collections::BTreeSet;

use gpufs_benchmark::json::Json;
use gpufs_benchmark::spec::{
    bound, declared_bound, Metric, API_ROWS, BOUNDS, END_TO_END, PER_LAYER, WORKLOADS,
};

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn keys(entry: &Json) -> Vec<&str> {
    entry
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn top_level_has_exactly_the_contract_keys() {
    let doc = declared();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = list(&doc, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    // 4 + 22 runs per workload, each run_seconds of measuring plus setup,
    // warm-up and teardown, plus two builds, inside 3420 s.
    let runs = 4.0 + 22.0 * list(&doc, "workloads").len() as f64;
    assert!(
        runs * (secs + 6.0) + 120.0 <= 3420.0,
        "{runs} runs of {secs} s overrun the cap"
    );
}

#[test]
fn workloads_match() {
    let doc = declared();
    let declared = list(&doc, "workloads");
    assert!((2..=8).contains(&declared.len()));
    assert_eq!(declared.len(), WORKLOADS.len());
    for (entry, (name, why)) in declared.iter().zip(WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), *name);
        assert_eq!(text(entry, "why"), *why);
        assert!(name_ok(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is {} chars",
            why.len()
        );
    }
}

fn check_metrics(declared: &[Json], table: &[Metric], bounded: bool) {
    assert_eq!(declared.len(), table.len(), "same number of metrics");
    let mut seen = BTreeSet::new();
    for (entry, m) in declared.iter().zip(table) {
        let want: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(entry), want, "{}", m.name);
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(
            text(entry, "better"),
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            "{}",
            m.name
        );
        if bounded {
            // The file has room for one bound per metric: the loosest
            // any workload needs.
            let declared = entry.get("bound").and_then(Json::as_f64);
            assert_eq!(declared, declared_bound(m.name), "{}", m.name);
        }
        assert!(name_ok(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}: unit {:?}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} is declared twice", m.name);
    }
}

#[test]
fn end_to_end_metrics_match() {
    let doc = declared();
    let declared = list(&doc, "end_to_end");
    assert!((1..=16).contains(&declared.len()));
    check_metrics(declared, END_TO_END, true);
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    assert!(
        END_TO_END
            .iter()
            .all(|m| declared_bound(m.name) <= declared_bound("setup_s")),
        "setup_s carries the largest bound"
    );
}

#[test]
fn every_pairing_has_a_bound_the_contract_allows() {
    assert_eq!(BOUNDS.len(), END_TO_END.len());
    for m in END_TO_END {
        for (workload, _) in WORKLOADS {
            let b = bound(workload, m.name).expect("a bound per pairing");
            assert!(b > 0.0 && b <= 0.25, "{workload}/{}: {b}", m.name);
            assert!(Some(b) <= declared_bound(m.name));
        }
    }
    assert_eq!(bound("nope", "setup_s"), None);
    assert_eq!(bound("hot_reread", "cache.hits"), None);
    assert_eq!(declared_bound("cache.hits"), None);
}

#[test]
fn per_layer_metrics_match() {
    let doc = declared();
    let declared = list(&doc, "per_layer");
    assert!((1..=128).contains(&declared.len()));
    check_metrics(declared, PER_LAYER, false);
    let e2e: BTreeSet<_> = END_TO_END.iter().map(|m| m.name).collect();
    assert!(
        PER_LAYER.iter().all(|m| !e2e.contains(m.name)),
        "a name is used once"
    );
    for row in API_ROWS.iter().flatten() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *row),
            "{row} is declared"
        );
    }
}
