//! `repro` — regenerate every table and figure of the XQueC paper.
//!
//! ```text
//! repro [--quick] [--baseline <file>] [--write-baseline <file>]
//!       [--threshold <rel>] <experiment>...
//! experiments: table1 fig6-left fig6-right fig7 partition storage-overhead
//!              ablation-codecs loading profile calibration all
//! ```
//!
//! Results are printed as tables and written as JSON under `results/`.
//! Every experiment also leaves `results/metrics_<experiment>.json` — the
//! delta of the [`xquec_obs`] registry it moved — and the run as a whole
//! snapshots the cumulative registry into `results/metrics.json`, so
//! re-running a single experiment no longer clobbers the merged view with
//! a partial one.
//!
//! The regression gate compares machine-stable numbers (compression
//! ratios, cardinalities, calibration errors — never wall-clock fields,
//! see [`xquec_bench::baseline::VOLATILE_KEYS`]) against a committed
//! baseline: `--write-baseline` records them, `--baseline` fails the run
//! (exit 1) when any entry drifts by more than `--threshold` (default
//! 0.20) or the entry set itself changes.

use std::fs;
use std::path::Path;
use xquec_bench::experiments::{self, Profile};
use xquec_obs::json::{Json, ToJson};
use xquec_bench::{baseline, human_bytes, print_table, snapshot_delta};

/// Default relative drift tolerance for `--baseline`.
const DEFAULT_THRESHOLD: f64 = 0.20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let baseline_path = flag_value(&args, "--baseline");
    let write_baseline = flag_value(&args, "--write-baseline");
    let threshold = flag_value(&args, "--threshold")
        .map(|t| t.parse::<f64>().unwrap_or_else(|_| die(&format!("bad --threshold `{t}`"))))
        .unwrap_or(DEFAULT_THRESHOLD);
    let mut wanted: Vec<String> = positional(&args);
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = vec![
            "table1".into(),
            "fig6-left".into(),
            "fig6-right".into(),
            "partition".into(),
            "storage-overhead".into(),
            "ablation-codecs".into(),
            "loading".into(),
            "profile".into(),
            "calibration".into(),
            "fig7".into(),
        ];
    }
    let p = Profile { quick };
    let results_dir = Path::new("results");
    fs::create_dir_all(results_dir).expect("create results dir");

    // Every saved result, keyed by its file stem — the input to the gate.
    let mut collected: Vec<(String, Json)> = Vec::new();

    for exp in &wanted {
        println!("\n=== {exp} {} ===", if quick { "(quick profile)" } else { "" });
        let registry_before = xquec_obs::snapshot();
        match exp.as_str() {
            "table1" => {
                let rows = experiments::table1(p);
                print_table(
                    &["dataset", "size", "nodes", "names", "containers", "paths", "value%"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.name.clone(),
                                human_bytes(r.bytes),
                                r.nodes.to_string(),
                                r.distinct_names.to_string(),
                                r.containers.to_string(),
                                r.summary_nodes.to_string(),
                                format!("{:.0}%", r.value_ratio * 100.0),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                save(results_dir, "table1", &rows, &mut collected);
            }
            "fig6-left" => {
                let rows = experiments::fig6_left(p);
                print_cf(&rows);
                save(results_dir, "fig6_left", &rows, &mut collected);
            }
            "fig6-right" => {
                let rows = experiments::fig6_right(p);
                print_cf(&rows);
                save(results_dir, "fig6_right", &rows, &mut collected);
            }
            "fig7" => {
                let report = experiments::fig7(p);
                println!(
                    "document {} | XQueC load {:.2}s footprint {} | Galax load {:.2}s footprint {}",
                    human_bytes(report.bytes),
                    report.xquec_load_s,
                    human_bytes(report.xquec_footprint),
                    report.galax_load_s,
                    human_bytes(report.galax_footprint),
                );
                print_table(
                    &["query", "XQueC (s)", "Galax (s)", "speedup", "decomp", "comp-ops", "match"],
                    &report
                        .rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.query.clone(),
                                format!("{:.4}", r.xquec_s),
                                r.galax_s.map_or("DNF".into(), |g| format!("{g:.4}")),
                                r.galax_s
                                    .map_or("-".into(), |g| format!("{:.1}x", g / r.xquec_s.max(1e-9))),
                                r.xquec_decompressions.to_string(),
                                r.xquec_compressed_ops.to_string(),
                                r.results_match.map_or("-".into(), |m| m.to_string()),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                save(results_dir, "fig7", &report, &mut collected);
            }
            "partition" => {
                let r = experiments::partition_example(p);
                print_table(
                    &["configuration", "measured CF", "cost-model estimate", "groups"],
                    &[
                        vec![
                            "NaiveConf (one shared ALM model)".into(),
                            format!("{:.2}%", r.naive_cf * 100.0),
                            format!("{:.0}", r.naive_cost),
                            "1".into(),
                        ],
                        vec![
                            "GoodConf (greedy, workload-driven)".into(),
                            format!("{:.2}%", r.good_cf * 100.0),
                            format!("{:.0}", r.good_cost),
                            format!("{:?}", r.good_groups),
                        ],
                    ],
                );
                save(results_dir, "partition", &r, &mut collected);
            }
            "storage-overhead" => {
                let rows = experiments::storage_overhead(p);
                print_table(
                    &[
                        "document",
                        "summary/doc",
                        "CF (all structures)",
                        "access factor",
                        "accounted",
                        "on disk",
                        "disk/accounted",
                    ],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                human_bytes(r.bytes),
                                format!("{:.1}%", r.summary_fraction * 100.0),
                                format!("{:.1}%", r.cf_full * 100.0),
                                format!("{:.2}x", r.access_structure_factor),
                                human_bytes(r.accounted_bytes),
                                human_bytes(r.disk_bytes),
                                format!("{:.2}x", r.disk_per_accounted),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                save(results_dir, "storage_overhead", &rows, &mut collected);
            }
            "ablation-codecs" => {
                let rows = experiments::ablation_codecs(p);
                print_table(
                    &["corpus", "codec", "ratio", "decompress MB/s", "properties"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.corpus.clone(),
                                r.codec.clone(),
                                format!("{:.3}", r.ratio),
                                format!("{:.1}", r.decompress_mb_s),
                                r.properties.clone(),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                save(results_dir, "ablation_codecs", &rows, &mut collected);
            }
            "loading" => {
                let rows = experiments::loading(p);
                print_table(
                    &["dataset", "size", "threads", "1-thread (s)", "parallel (s)", "speedup", "identical"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.dataset.clone(),
                                human_bytes(r.bytes),
                                r.threads.to_string(),
                                format!("{:.3}", r.sequential_s),
                                format!("{:.3}", r.parallel_s),
                                format!("{:.2}x", r.speedup),
                                r.identical.to_string(),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                assert!(rows.iter().all(|r| r.identical), "parallel load must be deterministic");
                save(results_dir, "BENCH_loading", &rows, &mut collected);
            }
            "profile" => {
                let report = experiments::profile(p);
                println!("document {}", human_bytes(report.bytes));
                print!("{}", report.load.render());
                for q in &report.queries {
                    print!("{}", q.render());
                }
                println!("lifetime counters: {}", report.lifetime);
                save(results_dir, "profile", &report, &mut collected);
            }
            "calibration" => {
                let report = experiments::calibration(p);
                print!("{}", report.render());
                save(results_dir, "calibration", &report, &mut collected);
            }
            other => {
                eprintln!("unknown experiment `{other}`");
                std::process::exit(2);
            }
        }
        // What this experiment alone moved in the ambient registry. The
        // per-experiment files are disjoint, so re-running one experiment
        // refreshes only its own snapshot.
        let delta = snapshot_delta(&registry_before, &xquec_obs::snapshot());
        let name = format!("metrics_{}", exp.replace('-', "_"));
        let path = results_dir.join(format!("{name}.json"));
        fs::write(&path, delta.to_json().pretty()).expect("write experiment metrics");
        println!("(saved {})", path.display());
    }

    // Snapshot the cumulative metrics registry: every counter, gauge and
    // histogram the whole run touched, one machine-readable file.
    let snapshot = xquec_obs::snapshot();
    let path = results_dir.join("metrics.json");
    fs::write(&path, snapshot.to_json().pretty()).expect("write metrics snapshot");
    println!("\n(saved {})", path.display());

    // ---- Regression gate over the machine-stable entries -----------------
    let combined = Json::Obj(collected);
    let stable = baseline::flatten(&combined);
    if let Some(out) = write_baseline {
        fs::write(&out, baseline::entries_to_json(&stable).pretty()).expect("write baseline");
        println!("(saved baseline {out}: {} stable entries)", stable.len());
    }
    if let Some(file) = baseline_path {
        let text = fs::read_to_string(&file)
            .unwrap_or_else(|e| die(&format!("cannot read baseline {file}: {e}")));
        let parsed = Json::parse(&text)
            .unwrap_or_else(|e| die(&format!("baseline {file} is not valid JSON: {e:?}")));
        let base = baseline::entries_from_json(&parsed);
        let cmp = baseline::compare(&base, &stable, threshold);
        if cmp.passed() {
            println!(
                "baseline gate PASSED: {} entries within {:.0}% of {file}",
                cmp.compared,
                threshold * 100.0
            );
        } else {
            eprintln!(
                "baseline gate FAILED against {file} ({} entries compared, threshold {:.0}%):",
                cmp.compared,
                threshold * 100.0
            );
            eprint!("{}", cmp.render());
            std::process::exit(1);
        }
    }
}

/// Value of `--flag <value>` or `--flag=<value>`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_owned());
        }
        if a == flag {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// Positional arguments: everything that is neither a flag nor a flag value.
fn positional(args: &[String]) -> Vec<String> {
    let value_flags = ["--baseline", "--write-baseline", "--threshold"];
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if value_flags.contains(&a.as_str()) {
            skip = true; // the next arg is this flag's value
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        out.push(a.clone());
    }
    out
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn print_cf(rows: &[experiments::CfRow]) {
    print_table(
        &["dataset", "size", "XQueC (query)", "XQueC (archive)", "XMill", "XGrind", "XPRESS"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    human_bytes(r.bytes),
                    format!("{:.1}%", r.xquec_query * 100.0),
                    format!("{:.1}%", r.xquec_archive * 100.0),
                    format!("{:.1}%", r.xmill * 100.0),
                    format!("{:.1}%", r.xgrind * 100.0),
                    format!("{:.1}%", r.xpress * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn save<T: ToJson>(dir: &Path, name: &str, value: &T, collected: &mut Vec<(String, Json)>) {
    let json = value.to_json();
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, json.pretty()).expect("write results");
    println!("(saved {})", path.display());
    collected.push((name.to_owned(), json));
}
