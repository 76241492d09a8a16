//! Measurement-calibrated cost model: wall-clock sweeps folded back into the
//! analytic [`CostModel`], plus the dispatch table the engine consults.
//!
//! The analytic model predicts how schedules behave from first principles; the
//! [`MeasuredTuner`] runs the real kernels. This module closes the loop between
//! them, as promised in the engine roadmap:
//!
//! * **Exact shapes** — every measured `(layer shape, algorithm)` pair keeps its
//!   best observed wall-clock time, so predictions for swept shapes are real
//!   measurements, not estimates.
//! * **Unmeasured shapes** — per-algorithm correction factors (the geometric
//!   mean of measured/analytic across swept shapes) scale the analytic
//!   roofline estimate, so algorithms the analytic model does not distinguish
//!   (e.g. the Winograd arm vs. packed im2col, which have different *effective*
//!   MAC counts) still rank sensibly.
//! * **Dispatch feedback** — [`CalibratedCostModel::dispatch_table`] exports the
//!   measured-fastest algorithm per shape as a
//!   [`rescnn_tensor::AlgoCalibration`]; a network given it
//!   (`rescnn_models::Network::with_arms`) runs each swept shape on its
//!   measured-fastest arm, while a scoped pin keeps winning.
//! * **Persistence** — [`save`](CalibratedCostModel::save) /
//!   [`load`](CalibratedCostModel::load) round-trip the measurements through a
//!   line-oriented text file, so a serving process can start warm from a sweep
//!   performed offline (the workspace's vendored serde stub serializes but does
//!   not deserialize, hence the hand-rolled format).

use std::collections::HashMap;
use std::path::Path;

use rescnn_models::ConvLayerShape;
use rescnn_tensor::{AlgoCalibration, Conv2dParams, ConvAlgo, ConvShapeKey, Shape};

use crate::cost::CostModel;
use crate::error::{HwError, Result};
use crate::measured::MeasuredTuner;
use crate::profile::CpuProfile;
use crate::schedule::ConvSchedule;

/// File-format header; bump when the line layout changes.
const FORMAT_HEADER: &str = "rescnn-conv-calibration v1";

/// One persisted measurement [`CalibratedCostModel::load`] skipped because its
/// algorithm name is unknown to this build — typically a file written by a
/// newer engine with an extra kernel arm. Skipping (instead of failing the
/// whole load) keeps calibration files forward-compatible: every measurement
/// this build *can* interpret still loads, and the skips are recorded
/// ([`CalibratedCostModel::skipped_entries`]) so a caller can warn rather than
/// silently run uncalibrated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCalibration {
    /// The unrecognized algorithm name exactly as it appeared in the file.
    pub algo: String,
    /// 1-based line number of the skipped entry.
    pub line: usize,
}

/// An analytic cost model refined with measured kernel timings.
#[derive(Debug, Clone)]
pub struct CalibratedCostModel {
    analytic: CostModel,
    profile: CpuProfile,
    /// Best measured seconds per `(shape, algorithm)`.
    measurements: HashMap<ConvShapeKey, Vec<(ConvAlgo, f64)>>,
    /// Entries [`load`](Self::load) skipped for unknown algorithm names.
    skipped: Vec<SkippedCalibration>,
}

impl CalibratedCostModel {
    /// Creates an uncalibrated model over `profile` (predictions fall back to
    /// the analytic estimate until measurements arrive).
    pub fn new(profile: CpuProfile) -> Self {
        CalibratedCostModel {
            analytic: CostModel::new(),
            profile,
            measurements: HashMap::new(),
            skipped: Vec::new(),
        }
    }

    /// Persisted entries the last [`load`](Self::load) skipped because their
    /// algorithm names are unknown to this build. Empty for models built by
    /// sweeping (nothing to skip) and for files this build fully understands.
    pub fn skipped_entries(&self) -> &[SkippedCalibration] {
        &self.skipped
    }

    /// Number of `(shape, algorithm)` measurements recorded.
    pub fn len(&self) -> usize {
        self.measurements.values().map(Vec::len).sum()
    }

    /// Whether no measurements have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }

    /// Records one wall-clock measurement, keeping the best (smallest) time per
    /// `(shape, algorithm)` — sweeps at several thread counts all funnel through
    /// here and the fastest configuration wins.
    pub fn record(&mut self, layer: &ConvLayerShape, algo: ConvAlgo, seconds: f64) {
        if !seconds.is_finite() || seconds <= 0.0 {
            return;
        }
        let key = ConvShapeKey::new(layer.params, layer.input);
        let entries = self.measurements.entry(key).or_default();
        match entries.iter_mut().find(|(a, _)| *a == algo) {
            Some((_, best)) => *best = best.min(seconds),
            None => entries.push((algo, seconds)),
        }
    }

    /// Sweeps `layers` with `tuner` over every supported algorithm and records
    /// the results: the one-call path from "have a network" to "calibrated".
    pub fn calibrate_layers(&mut self, tuner: &MeasuredTuner, layers: &[ConvLayerShape]) {
        for layer in layers {
            for kernel in tuner.sweep_layer(layer, &ConvAlgo::ALL) {
                self.record(layer, kernel.algo, kernel.seconds);
            }
        }
    }

    /// The best measured seconds for `(layer, algo)`, if this exact shape was
    /// swept with this algorithm.
    pub fn measured_seconds(&self, layer: &ConvLayerShape, algo: ConvAlgo) -> Option<f64> {
        let key = ConvShapeKey::new(layer.params, layer.input);
        self.measurements.get(&key)?.iter().find(|(a, _)| *a == algo).map(|&(_, seconds)| seconds)
    }

    /// The analytic baseline for a layer: the naive-schedule roofline estimate
    /// (algorithm-agnostic — the per-algorithm spread is what calibration adds).
    fn analytic_seconds(&self, layer: &ConvLayerShape) -> f64 {
        let schedule = ConvSchedule::naive(&self.profile);
        self.analytic.estimate(layer, schedule, &self.profile).seconds
    }

    /// The per-algorithm correction factor: geometric mean of
    /// `measured / analytic` over every swept shape that measured `algo`.
    /// `None` when the algorithm was never measured.
    fn algo_factor(&self, algo: ConvAlgo) -> Option<f64> {
        let mut log_sum = 0.0f64;
        let mut count = 0usize;
        for (key, entries) in &self.measurements {
            let Some(&(_, seconds)) = entries.iter().find(|(a, _)| *a == algo) else {
                continue;
            };
            let layer = ConvLayerShape {
                params: key.params,
                input: Shape::chw(key.params.in_channels, key.height, key.width),
            };
            let analytic = self.analytic_seconds(&layer).max(1e-12);
            log_sum += (seconds / analytic).ln();
            count += 1;
        }
        (count > 0).then(|| (log_sum / count as f64).exp())
    }

    /// Predicted seconds for running `layer` with `algo`: the exact measurement
    /// when one exists, otherwise the analytic estimate scaled by the
    /// algorithm's learned correction factor (or unscaled when the algorithm
    /// was never measured anywhere).
    pub fn predict_seconds(&self, layer: &ConvLayerShape, algo: ConvAlgo) -> f64 {
        if let Some(measured) = self.measured_seconds(layer, algo) {
            return measured;
        }
        let factor = self.algo_factor(algo).unwrap_or(1.0);
        self.analytic_seconds(layer) * factor
    }

    /// The predicted-fastest algorithm for a layer among those that support its
    /// shape. For swept shapes this is exactly the measured-fastest algorithm
    /// (measured times are never compared against analytic estimates, whose
    /// absolute scale they need not share); for unmeasured shapes it ranks by
    /// calibrated prediction, ties breaking toward the engine's heuristic
    /// choice.
    pub fn best_algo(&self, layer: &ConvLayerShape) -> ConvAlgo {
        let key = ConvShapeKey::new(layer.params, layer.input);
        if let Some(entries) = self.measurements.get(&key) {
            if let Some(&(algo, _)) = entries.iter().min_by(|(_, a), (_, b)| a.total_cmp(b)) {
                return algo;
            }
        }
        let heuristic = rescnn_tensor::select_algo(&layer.params, layer.input);
        let mut best = heuristic;
        let mut best_seconds = self.predict_seconds(layer, heuristic);
        for algo in ConvAlgo::ALL {
            if algo == heuristic || !algo.supports(&layer.params) {
                continue;
            }
            let seconds = self.predict_seconds(layer, algo);
            if seconds < best_seconds {
                best = algo;
                best_seconds = seconds;
            }
        }
        best
    }

    /// Predicted seconds for a full forward pass over `layers`, each layer at
    /// its [`best_algo`](Self::best_algo). Deterministic for a fixed model
    /// state (measurements are exact lookups, analytic estimates are pure
    /// arithmetic), which is what lets an SLO scheduler base admission and
    /// degradation decisions on it reproducibly.
    pub fn predict_forward_seconds(&self, layers: &[ConvLayerShape]) -> f64 {
        layers.iter().map(|layer| self.predict_seconds(layer, self.best_algo(layer))).sum()
    }

    /// Exports the measured-fastest algorithm per swept shape as a table of
    /// arms for `rescnn_models::Network::with_arms`. Only shapes with at least
    /// one measurement appear — unmeasured shapes keep the engine's rule.
    pub fn dispatch_table(&self) -> AlgoCalibration {
        let mut table = AlgoCalibration::new();
        for (key, entries) in &self.measurements {
            if let Some(&(algo, _)) = entries
                .iter()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .filter(|(_, seconds)| seconds.is_finite())
            {
                table.set(*key, algo);
            }
        }
        table
    }

    /// Serializes the measurements to a line-oriented text file.
    ///
    /// # Errors
    /// Returns an error if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut lines = Vec::with_capacity(self.len() + 1);
        for (key, entries) in &self.measurements {
            let p = key.params;
            for &(algo, seconds) in entries {
                lines.push(format!(
                    "measure {} {} {} {} {} {} {} {} {algo} {seconds:e}",
                    p.in_channels,
                    p.out_channels,
                    p.kernel,
                    p.stride,
                    p.padding,
                    p.groups,
                    key.height,
                    key.width,
                ));
            }
        }
        // Stable output: independent of hash-map iteration order.
        lines.sort();
        let body = format!("{FORMAT_HEADER}\n{}\n", lines.join("\n"));
        std::fs::write(path.as_ref(), body).map_err(|e| HwError::Persistence {
            reason: format!("writing {}: {e}", path.as_ref().display()),
        })
    }

    /// Loads measurements saved by [`save`](Self::save) into a fresh model over
    /// `profile`.
    ///
    /// # Errors
    /// Returns an error if the file cannot be read or a line does not parse.
    pub fn load(path: impl AsRef<Path>, profile: CpuProfile) -> Result<Self> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| HwError::Persistence {
            reason: format!("reading {}: {e}", path.as_ref().display()),
        })?;
        let mut model = CalibratedCostModel::new(profile);
        let mut saw_header = false;
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if !saw_header {
                if line != FORMAT_HEADER {
                    return Err(HwError::Persistence {
                        reason: format!("unrecognized calibration header: {line:?}"),
                    });
                }
                saw_header = true;
                continue;
            }
            let bad = |why: &str| HwError::Persistence {
                reason: format!("line {}: {why}: {line:?}", number + 1),
            };
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 11 || fields[0] != "measure" {
                return Err(bad("expected `measure` with 10 fields"));
            }
            let nums: Vec<usize> = fields[1..9].iter().filter_map(|f| f.parse().ok()).collect();
            if nums.len() != 8 {
                return Err(bad("non-numeric shape field"));
            }
            // An unknown algorithm name is the one forgivable defect: it means
            // the file came from a build with a kernel arm this one lacks, not
            // that the file is corrupt. Skip the entry (recording it for the
            // caller to surface) instead of rejecting the whole file.
            let Some(algo) = ConvAlgo::from_name(fields[9]) else {
                model
                    .skipped
                    .push(SkippedCalibration { algo: fields[9].to_string(), line: number + 1 });
                continue;
            };
            let seconds: f64 = fields[10].parse().map_err(|_| bad("bad seconds"))?;
            let params =
                Conv2dParams::new(nums[0], nums[1], nums[2], nums[3], nums[4]).with_groups(nums[5]);
            let layer = ConvLayerShape { params, input: Shape::chw(nums[0], nums[6], nums[7]) };
            model.record(&layer, algo, seconds);
        }
        if !saw_header {
            return Err(HwError::Persistence { reason: "empty calibration file".into() });
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescnn_models::ModelKind;

    fn layer(ic: usize, oc: usize, k: usize, stride: usize, res: usize) -> ConvLayerShape {
        ConvLayerShape {
            params: Conv2dParams::new(ic, oc, k, stride, k / 2),
            input: Shape::chw(ic, res, res),
        }
    }

    #[test]
    fn record_keeps_the_best_time_per_algo() {
        let mut model = CalibratedCostModel::new(CpuProfile::intel_4790k());
        assert!(model.is_empty());
        let l = layer(8, 8, 3, 1, 16);
        model.record(&l, ConvAlgo::Winograd, 2.0e-3);
        model.record(&l, ConvAlgo::Winograd, 1.0e-3);
        model.record(&l, ConvAlgo::Winograd, 5.0e-3);
        model.record(&l, ConvAlgo::Im2colPacked, 4.0e-3);
        model.record(&l, ConvAlgo::Direct, f64::NAN); // ignored
        assert_eq!(model.len(), 2);
        assert_eq!(model.measured_seconds(&l, ConvAlgo::Winograd), Some(1.0e-3));
        assert_eq!(model.measured_seconds(&l, ConvAlgo::Direct), None);
        assert_eq!(model.predict_seconds(&l, ConvAlgo::Winograd), 1.0e-3);
    }

    #[test]
    fn dispatch_table_and_best_algo_follow_measurements() {
        let mut model = CalibratedCostModel::new(CpuProfile::intel_4790k());
        let wino_wins = layer(16, 16, 3, 1, 32);
        model.record(&wino_wins, ConvAlgo::Winograd, 1.0e-3);
        model.record(&wino_wins, ConvAlgo::Im2colPacked, 3.0e-3);
        let packed_wins = layer(16, 16, 3, 1, 8);
        model.record(&packed_wins, ConvAlgo::Winograd, 9.0e-3);
        model.record(&packed_wins, ConvAlgo::Im2colPacked, 2.0e-3);

        assert_eq!(model.best_algo(&wino_wins), ConvAlgo::Winograd);
        assert_eq!(model.best_algo(&packed_wins), ConvAlgo::Im2colPacked);
        let table = model.dispatch_table();
        assert_eq!(table.len(), 2);
        let key = ConvShapeKey::new(wino_wins.params, wino_wins.input);
        assert_eq!(table.get(&key), Some(ConvAlgo::Winograd));
    }

    #[test]
    fn factors_generalize_to_unmeasured_shapes() {
        let mut model = CalibratedCostModel::new(CpuProfile::intel_4790k());
        // Winograd measures 2x faster than the analytic baseline on two swept
        // shapes; packed measures exactly the baseline.
        for res in [32usize, 48] {
            let l = layer(8, 8, 3, 1, res);
            let base = model.analytic_seconds(&l);
            model.record(&l, ConvAlgo::Winograd, base * 0.5);
            model.record(&l, ConvAlgo::Im2colPacked, base);
        }
        // An unmeasured (but same-family) shape now ranks Winograd first.
        let unseen = layer(8, 8, 3, 1, 64);
        assert!(model.measured_seconds(&unseen, ConvAlgo::Winograd).is_none());
        assert!(
            model.predict_seconds(&unseen, ConvAlgo::Winograd)
                < model.predict_seconds(&unseen, ConvAlgo::Im2colPacked)
        );
        assert_eq!(model.best_algo(&unseen), ConvAlgo::Winograd);
        // A shape Winograd cannot execute never selects it.
        let strided = layer(8, 8, 3, 2, 64);
        assert_ne!(model.best_algo(&strided), ConvAlgo::Winograd);
    }

    #[test]
    fn forward_prediction_sums_best_algo_times_and_orders_resolutions() {
        let mut model = CalibratedCostModel::new(CpuProfile::intel_4790k());
        let a = layer(8, 8, 3, 1, 16);
        let b = layer(8, 16, 3, 1, 16);
        model.record(&a, ConvAlgo::Winograd, 1.0e-3);
        model.record(&a, ConvAlgo::Im2colPacked, 3.0e-3);
        model.record(&b, ConvAlgo::Im2colPacked, 2.0e-3);
        let both = [a, b];
        assert_eq!(model.predict_forward_seconds(&both), 3.0e-3);
        // Uncalibrated models fall back to the analytic roofline, which must
        // still rank a deeper resolution as strictly more expensive.
        let fresh = CalibratedCostModel::new(CpuProfile::intel_4790k());
        let arch = ModelKind::ResNet18.arch(10);
        let small = fresh.predict_forward_seconds(&arch.conv_layers(64).unwrap());
        let large = fresh.predict_forward_seconds(&arch.conv_layers(128).unwrap());
        assert!(small > 0.0);
        assert!(large > small, "higher resolution must predict as more expensive");
    }

    #[test]
    fn save_load_round_trips() {
        let mut model = CalibratedCostModel::new(CpuProfile::intel_4790k());
        let layers = ModelKind::ResNet18.arch(10).conv_layers(32).unwrap();
        model.record(&layers[1], ConvAlgo::Winograd, 1.5e-3);
        model.record(&layers[1], ConvAlgo::Im2colPacked, 2.5e-3);
        model.record(&layers[0], ConvAlgo::Im2colPacked, 4.0e-4);

        let path = std::env::temp_dir()
            .join(format!("rescnn-calibration-roundtrip-{}.txt", std::process::id()));
        model.save(&path).unwrap();
        let reloaded = CalibratedCostModel::load(&path, CpuProfile::intel_4790k()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reloaded.len(), model.len());
        assert_eq!(reloaded.measured_seconds(&layers[1], ConvAlgo::Winograd), Some(1.5e-3));
        assert_eq!(reloaded.dispatch_table(), model.dispatch_table());
    }

    #[test]
    fn load_skips_unknown_algorithms_and_records_them() {
        let path = std::env::temp_dir()
            .join(format!("rescnn-calibration-future-{}.txt", std::process::id()));
        // One arm this build knows, two entries for an arm of a hypothetical
        // future build, and one for the `im2col` arm that older builds swept
        // and this one no longer has.
        std::fs::write(
            &path,
            format!(
                "{FORMAT_HEADER}\n\
                 measure 8 8 3 1 1 1 16 16 im2col_packed 2e-3\n\
                 measure 8 8 3 1 1 1 16 16 int4_packed 1e-3\n\
                 measure 8 8 3 1 1 1 32 32 int4_packed 4e-3\n\
                 measure 8 8 3 1 1 1 16 16 im2col 9e-3\n"
            ),
        )
        .unwrap();
        let model = CalibratedCostModel::load(&path, CpuProfile::intel_4790k()).unwrap();
        std::fs::remove_file(&path).ok();
        // The known measurement loaded; the unknown ones were skipped, not fatal.
        assert_eq!(model.len(), 1);
        let l = layer(8, 8, 3, 1, 16);
        assert_eq!(model.measured_seconds(&l, ConvAlgo::Im2colPacked), Some(2.0e-3));
        assert_eq!(
            model.skipped_entries(),
            &[
                SkippedCalibration { algo: "int4_packed".into(), line: 3 },
                SkippedCalibration { algo: "int4_packed".into(), line: 4 },
                SkippedCalibration { algo: "im2col".into(), line: 5 },
            ]
        );
        // Malformed lines (wrong arity, bad numbers) are still hard errors:
        // only unknown names get forgiveness.
        assert!(model.dispatch_table().len() == 1);
    }

    #[test]
    fn load_rejects_malformed_files() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rescnn-calibration-bad-{}.txt", std::process::id()));
        std::fs::write(&path, "not a calibration file\n").unwrap();
        assert!(CalibratedCostModel::load(&path, CpuProfile::intel_4790k()).is_err());
        std::fs::write(&path, format!("{FORMAT_HEADER}\nmeasure 1 2 3\n")).unwrap();
        assert!(CalibratedCostModel::load(&path, CpuProfile::intel_4790k()).is_err());
        std::fs::write(&path, format!("{FORMAT_HEADER}\n")).unwrap();
        let empty = CalibratedCostModel::load(&path, CpuProfile::intel_4790k()).unwrap();
        assert!(empty.is_empty());
        std::fs::remove_file(&path).ok();
        assert!(CalibratedCostModel::load(&path, CpuProfile::intel_4790k()).is_err());
    }
}
