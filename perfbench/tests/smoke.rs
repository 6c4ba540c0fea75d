//! Smoke test of the benchmark: every workload runs twice at a small size,
//! untraced and traced. Each run must report exactly the metrics that
//! `BENCHMARK.json` lists, with the same units, and no failed operation;
//! the deterministic metrics must be identical across the two runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use xquec_obs::json::Json;

const DOC_BYTES: &str = "150000";
const SEED: &str = "7";

/// End-to-end metrics that repeat exactly for a given seed.
const DETERMINISTIC_END_TO_END: &[&str] = &[
    "accounted_bytes_per_input_byte",
    "disk_bytes_per_input_byte",
];

/// Per-layer metrics that repeat exactly for a given seed.
const DETERMINISTIC_LAYERS: &[&str] = &[
    "query.decompressions",
    "query.value_fetches",
    "query.bytes_decompressed",
    "query.cache_hit_ratio",
    "query.decompressed_bytes_per_output_byte",
    "query.plan_nodes",
    "storage.pool_hit_ratio",
    "storage.pool_evictions_per_save",
    "storage.pages_per_input_mb",
    "storage.syncs_per_save",
    "storage.page_writes_per_save",
];

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn entries(j: &Json) -> &[(String, Json)] {
    match j {
        Json::Obj(fields) => fields,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn items(j: &Json) -> &[Json] {
    match j {
        Json::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// Run the benchmark binary once and return its result object (the last stdout line).
fn run(workload: &str, trace: &str, out_dir: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--doc-bytes", DOC_BYTES])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {last}"))
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("metric {name} has no numeric value"))
}

fn check_workload(workload: &str) {
    let spec = spec();
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    for (trace, list, deterministic) in [
        ("0", "end_to_end", DETERMINISTIC_END_TO_END),
        ("1", "per_layer", DETERMINISTIC_LAYERS),
    ] {
        let expected: Vec<(&str, &str)> = items(spec.get(list).expect("metric list"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap(),
                    m.get("unit").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let runs = [
            run(workload, trace, &out_dir),
            run(workload, trace, &out_dir),
        ];
        for r in &runs {
            let keys: Vec<&str> = entries(r).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                r.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace={trace}"
            );
            assert_eq!(r.get("failed").and_then(Json::as_num), Some(0.0));
            assert!(r.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
            let got: Vec<(&str, &str)> = entries(r.get("metrics").unwrap())
                .iter()
                .map(|(k, m)| (k.as_str(), m.get("unit").and_then(Json::as_str).unwrap()))
                .collect();
            assert_eq!(
                got, expected,
                "{workload} trace={trace}: metric names or units differ"
            );
            for (name, _) in &expected {
                assert!(value(r, name).is_finite());
            }
        }
        for name in deterministic {
            assert_eq!(
                value(&runs[0], name),
                value(&runs[1], name),
                "{workload}: {name} differs between two runs of one seed"
            );
        }
    }
}

#[test]
fn xmark_warm() {
    check_workload("xmark-warm");
}

#[test]
fn ingest() {
    check_workload("ingest");
}
