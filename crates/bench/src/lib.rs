//! Shared harness utilities for the reproduction experiments.
//!
//! Each experiment of the paper (`DESIGN.md`, experiments index) is a
//! function in [`experiments`] that returns structured rows; the `repro`
//! binary prints them as tables and appends them to a JSON log so
//! `EXPERIMENTS.md` can cite exact numbers.

pub mod baseline;
pub mod experiments;

use std::time::Instant;

/// Wall-clock one closure, returning (result, seconds).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Wall-clock the median of `n` runs (result from the last run).
pub fn time_median<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(n >= 1);
    let mut times = Vec::with_capacity(n);
    let mut out = None;
    for _ in 0..n {
        let (v, t) = time(&mut f);
        times.push(t);
        out = Some(v);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (out.expect("n >= 1"), times[times.len() / 2])
}

/// Render rows as a fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:width$} |", c, width = widths[i]));
        }
        s
    };
    println!("{}", line(headers.iter().map(|h| h.to_string()).collect()));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
    }
    println!("{sep}");
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Snapshot the ambient [`xquec_obs`] metrics registry into
/// `results/BENCH_<name>_metrics.json` (counters, gauges and latency
/// histograms accumulated while the bench ran). Benches with explicit
/// `main`s call this after their criterion groups finish so every bench
/// run leaves a machine-readable trace next to the criterion output.
pub fn dump_metrics(name: &str) {
    // `cargo bench` runs with the package directory as CWD while `cargo
    // run` uses the workspace root; anchor on the manifest so both land in
    // the top-level `results/`.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);
    let dir = root.join("results");
    let dir = dir.as_path();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("(metrics snapshot skipped: {e})");
        return;
    }
    let path = dir.join(format!("BENCH_{name}_metrics.json"));
    match std::fs::write(&path, xquec_obs::snapshot().to_json().pretty()) {
        Ok(()) => println!("(saved {})", path.display()),
        Err(e) => eprintln!("(metrics snapshot skipped: {e})"),
    }
}

/// Difference between two registry snapshots: what one experiment moved.
///
/// Counters and histogram cells are monotonic, so `after - before` is the
/// experiment's own traffic; entries that did not move are dropped. Gauges
/// are point-in-time values and are carried over from `after` unchanged.
pub fn snapshot_delta(
    before: &xquec_obs::MetricsSnapshot,
    after: &xquec_obs::MetricsSnapshot,
) -> xquec_obs::MetricsSnapshot {
    let mut delta = xquec_obs::MetricsSnapshot::default();
    for (name, v) in &after.counters {
        let d = v - before.counter(name).unwrap_or(0);
        if d > 0 {
            delta.counters.push((name.clone(), d));
        }
    }
    delta.gauges = after.gauges.clone();
    for h in &after.histograms {
        let prev = before.histogram(&h.name);
        let count = h.count - prev.map_or(0, |p| p.count);
        if count == 0 {
            continue;
        }
        let buckets = h
            .buckets
            .iter()
            .map(|&(lo, c)| {
                let pc = prev
                    .and_then(|p| p.buckets.iter().find(|&&(plo, _)| plo == lo))
                    .map_or(0, |&(_, pc)| pc);
                (lo, c - pc)
            })
            .filter(|&(_, c)| c > 0)
            .collect();
        delta.histograms.push(xquec_obs::metrics::HistogramSnapshot {
            name: h.name.clone(),
            count,
            sum: h.sum.wrapping_sub(prev.map_or(0, |p| p.sum)),
            buckets,
        });
    }
    delta
}

/// Format bytes human-readably.
pub fn human_bytes(b: usize) -> String {
    if b >= 10_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 10_000 {
        format!("{:.1} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive() {
        let (v, t) = time(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(t >= 0.0);
    }

    #[test]
    fn median_of_runs() {
        let mut i = 0;
        let (_, t) = time_median(3, || {
            i += 1;
            i
        });
        assert!(t >= 0.0);
        assert_eq!(i, 3);
    }

    #[test]
    fn snapshot_delta_isolates_new_traffic() {
        let before = xquec_obs::snapshot();
        xquec_obs::counter!("test.bench.delta").add(3);
        xquec_obs::histogram!("test.bench.delta.hist").record(7);
        let after = xquec_obs::snapshot();
        let delta = snapshot_delta(&before, &after);
        assert_eq!(delta.counter("test.bench.delta"), Some(3));
        let h = delta.histogram("test.bench.delta.hist").expect("histogram in delta");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 7);
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(12), "12 B");
        assert_eq!(human_bytes(12_000), "12.0 KB");
        assert_eq!(human_bytes(12_000_000), "12.0 MB");
    }
}
