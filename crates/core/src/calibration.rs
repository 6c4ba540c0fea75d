//! Cost-model calibration: §3.2 predictions vs. measured outcomes.
//!
//! The greedy search (§3.1) picks a compression configuration by comparing
//! *predicted* storage costs — per-container compression ratios estimated
//! on value samples by [`crate::cost::CostModel`]. The loader then builds
//! the real containers and measures what compression actually achieved.
//! This module joins the two: a [`CalibrationReport`] holds one row per
//! predicted container with the predicted ratio, the measured ratio, and
//! their relative error, so drift in the estimator (bad sampling, codec
//! changes, skewed data) is visible instead of silently steering the search
//! toward bad configurations.
//!
//! Two caveats the numbers encode explicitly:
//!
//! * Predictions exist only for workload-touched textual containers — the
//!   §3 search never sees numeric or untouched containers.
//! * The loader may build a *different* codec than predicted (a touched
//!   container predicted `blz` falls back to the default string codec so it
//!   stays individually accessible). Such rows carry `alg_match = false`
//!   and are excluded from the error aggregates: the estimator can only be
//!   judged against the codec it actually predicted.
//!
//! Aggregates are published as `cost.calibration.*` gauges (errors in
//! parts-per-million, since gauges are integral) and the whole report
//! serializes through the serde stand-in for `repro calibration`.

use crate::loader::LoadProfile;
use xquec_obs::gauge;
use xquec_obs::json::{Json, ToJson};

/// One container's predicted-vs-measured compression outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRow {
    /// Rooted leaf path of the container.
    pub path: String,
    /// Algorithm the §3 search assigned.
    pub predicted_alg: &'static str,
    /// Codec the loader actually built.
    pub actual_codec: &'static str,
    /// Records in the container.
    pub values: usize,
    /// Values in the sample the prediction was made on. Equal to `values`
    /// when the whole container fits the statistics' sample cap — the
    /// prediction then saw all the data and its error measures nothing but
    /// the bookkeeping.
    pub sample: usize,
    /// Plaintext bytes the container represents.
    pub raw_bytes: usize,
    /// Measured compressed payload bytes.
    pub compressed_bytes: usize,
    /// Ratio the cost model predicted from the value sample.
    pub predicted_ratio: f64,
    /// Ratio the loader measured on the full data.
    pub actual_ratio: f64,
    /// `|predicted - actual| / actual` (0 when the container is empty).
    pub rel_error: f64,
    /// Whether the loader built the predicted algorithm. Only matched rows
    /// enter the error aggregates.
    pub alg_match: bool,
}

/// Predicted-vs-actual table for one load. Build with [`Self::from_profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Bytes of input XML the profile describes.
    pub input_bytes: usize,
    /// One row per predicted container, in container-id order.
    pub rows: Vec<CalibrationRow>,
}

impl CalibrationReport {
    /// Join a profile's predictions against its measured container rows.
    ///
    /// Containers are matched by leaf path (unique per container). The
    /// result is empty when the load ran without a workload — the §3 search
    /// makes no predictions then.
    pub fn from_profile(profile: &LoadProfile) -> Self {
        let rows = profile
            .predictions
            .iter()
            .filter_map(|p| {
                let c = profile.containers.iter().find(|c| c.path == p.path)?;
                let actual_ratio = if c.raw_bytes == 0 {
                    1.0
                } else {
                    c.compressed_bytes as f64 / c.raw_bytes as f64
                };
                let rel_error = if c.raw_bytes == 0 || actual_ratio == 0.0 {
                    0.0
                } else {
                    (p.ratio - actual_ratio).abs() / actual_ratio
                };
                Some(CalibrationRow {
                    path: c.path.clone(),
                    predicted_alg: p.alg,
                    actual_codec: c.codec,
                    values: c.values,
                    sample: p.sample,
                    raw_bytes: c.raw_bytes,
                    compressed_bytes: c.compressed_bytes,
                    predicted_ratio: p.ratio,
                    actual_ratio,
                    rel_error,
                    alg_match: p.alg == c.codec,
                })
            })
            .collect();
        CalibrationReport { input_bytes: profile.input_bytes, rows }
    }

    /// Rows where the loader built the predicted algorithm.
    pub fn matched(&self) -> usize {
        self.rows.iter().filter(|r| r.alg_match).count()
    }

    /// Mean relative error over algorithm-matched rows (0 when none).
    pub fn mean_abs_rel_error(&self) -> f64 {
        let matched: Vec<f64> =
            self.rows.iter().filter(|r| r.alg_match).map(|r| r.rel_error).collect();
        if matched.is_empty() {
            0.0
        } else {
            matched.iter().sum::<f64>() / matched.len() as f64
        }
    }

    /// Largest relative error over algorithm-matched rows (0 when none).
    pub fn max_abs_rel_error(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.alg_match)
            .map(|r| r.rel_error)
            .fold(0.0, f64::max)
    }

    /// Publish the aggregates as `cost.calibration.*` gauges. Errors are
    /// scaled to parts-per-million (the registry's gauges are integral).
    pub fn publish_metrics(&self) {
        gauge!("cost.calibration.containers").set(self.rows.len() as i64);
        gauge!("cost.calibration.alg_matched").set(self.matched() as i64);
        gauge!("cost.calibration.mean_abs_rel_error_ppm")
            .set((self.mean_abs_rel_error() * 1e6) as i64);
        gauge!("cost.calibration.max_abs_rel_error_ppm")
            .set((self.max_abs_rel_error() * 1e6) as i64);
    }

    /// Human-readable predicted-vs-actual table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cost-model calibration: {} containers predicted, {} algorithm-matched",
            self.rows.len(),
            self.matched()
        );
        for r in &self.rows {
            let marker = if r.alg_match { ' ' } else { '!' };
            let _ = writeln!(
                out,
                "  {marker} {:<44} {:>8} -> {:<8} values {:>6} sample {:>4} pred {:.3} actual {:.3} \
                 err {:>6.1}%",
                r.path,
                r.predicted_alg,
                r.actual_codec,
                r.values,
                r.sample,
                r.predicted_ratio,
                r.actual_ratio,
                r.rel_error * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  mean abs rel error {:.1}%  max {:.1}%",
            self.mean_abs_rel_error() * 100.0,
            self.max_abs_rel_error() * 100.0
        );
        out
    }
}

impl ToJson for CalibrationRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("path", self.path.to_json()),
            ("predicted_alg", self.predicted_alg.to_json()),
            ("actual_codec", self.actual_codec.to_json()),
            ("values", self.values.to_json()),
            ("sample", self.sample.to_json()),
            ("raw_bytes", self.raw_bytes.to_json()),
            ("compressed_bytes", self.compressed_bytes.to_json()),
            ("predicted_ratio", Json::Num(self.predicted_ratio)),
            ("actual_ratio", Json::Num(self.actual_ratio)),
            ("rel_error", Json::Num(self.rel_error)),
            ("alg_match", self.alg_match.to_json()),
        ])
    }
}

impl ToJson for CalibrationReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("input_bytes", self.input_bytes.to_json()),
            ("containers", self.rows.len().to_json()),
            ("alg_matched", self.matched().to_json()),
            ("mean_abs_rel_error", Json::Num(self.mean_abs_rel_error())),
            ("max_abs_rel_error", Json::Num(self.max_abs_rel_error())),
            ("rows", self.rows.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{load_profiled, LoaderOptions, WorkloadSpec};
    use crate::workload::PredOp;

    fn workload_profile() -> LoadProfile {
        let xml = xquec_xml::gen::Dataset::Xmark.generate(120_000);
        let spec = WorkloadSpec::new()
            .join("//buyer/@person", "//person/@id", PredOp::Eq)
            .constant("//name/text()", PredOp::Ineq)
            .project("//person/name/text()");
        let opts = LoaderOptions { workload: Some(spec), ..Default::default() };
        load_profiled(&xml, &opts).expect("load").1
    }

    #[test]
    fn report_covers_every_prediction() {
        let profile = workload_profile();
        assert!(!profile.predictions.is_empty(), "workload produced no predictions");
        let report = CalibrationReport::from_profile(&profile);
        assert_eq!(report.rows.len(), profile.predictions.len());
        for row in &report.rows {
            assert!(row.predicted_ratio.is_finite() && row.predicted_ratio > 0.0, "{row:?}");
            assert!(row.actual_ratio.is_finite() && row.actual_ratio > 0.0, "{row:?}");
            assert!(row.rel_error.is_finite() && row.rel_error >= 0.0, "{row:?}");
            if row.alg_match {
                assert_eq!(row.predicted_alg, row.actual_codec);
            }
        }
        assert!(report.matched() > 0, "no predicted codec was actually built:\n{}", report.render());
        assert!(report.mean_abs_rel_error() <= report.max_abs_rel_error() + 1e-12);
        // Sample-based estimates should land in the right ballpark: the
        // estimator exists to rank configurations, so an order-of-magnitude
        // miss would make the whole §3 search meaningless.
        assert!(
            report.mean_abs_rel_error() < 1.0,
            "mean rel error {:.3} — estimator off by more than 100%:\n{}",
            report.mean_abs_rel_error(),
            report.render()
        );
    }

    #[test]
    fn no_workload_means_no_predictions() {
        let xml = xquec_xml::gen::Dataset::Xmark.generate(40_000);
        let profile = load_profiled(&xml, &LoaderOptions::default()).expect("load").1;
        assert!(profile.predictions.is_empty());
        let report = CalibrationReport::from_profile(&profile);
        assert!(report.rows.is_empty());
        assert_eq!(report.mean_abs_rel_error(), 0.0);
        assert_eq!(report.max_abs_rel_error(), 0.0);
    }

    #[test]
    fn json_round_trips_and_renders() {
        let report = CalibrationReport::from_profile(&workload_profile());
        let json = report.to_json();
        let parsed = Json::parse(&json.pretty()).expect("calibration JSON parses");
        assert_eq!(parsed, json);
        assert!(parsed.get("rows").is_some());
        assert!(parsed.get("mean_abs_rel_error").and_then(Json::as_num).is_some());
        let text = report.render();
        assert!(text.contains("cost-model calibration"));
        report.publish_metrics();
        let snap = xquec_obs::snapshot();
        let got = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "cost.calibration.containers")
            .map(|&(_, v)| v)
            .expect("gauge published");
        assert_eq!(got, report.rows.len() as i64);
    }
}
