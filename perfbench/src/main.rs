//! XQueC benchmark: one workload per process, one client, one thread.
//!
//! ```text
//! perfbench --workload <xmark-warm|ingest> --seed <n> --seconds <s>
//!           --trace <0|1> [--out-dir <dir>] [--doc-bytes <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The lines
//! before it print every metric by name and unit, plus diagnostics. See
//! `README.md` next to this package for why the workloads and statistics
//! are what they are.

mod metrics;
mod probes;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;

use run::{Ctx, Workload};

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub out_dir: PathBuf,
    /// Document size override (the smoke test runs at a small size).
    pub doc_bytes: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut out_dir, mut doc_bytes) = (PathBuf::from("."), None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&val)?),
            "--seed" => seed = Some(num(&val)?),
            "--seconds" => seconds = Some(num(&val)?.max(1)),
            "--trace" => {
                traced = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(val),
            "--doc-bytes" => doc_bytes = Some(num(&val)? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out_dir,
        doc_bytes,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    if args.traced {
        trace::enable();
    }
    let mut ctx = Ctx::new(args);
    ctx.run();
    println!("{}", ctx.report());
}
