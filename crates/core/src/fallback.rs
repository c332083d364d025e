//! Baseline-as-fallback: a serving bundle that pairs the non-linear
//! [`WorkloadModel`] with the prior-work linear baseline and degrades
//! gracefully between them.
//!
//! The paper's predictor is meant to be queried interactively by tuners;
//! an *online* deployment therefore needs an answer even when the MLP is
//! missing, fails validation, or is tripped offline by a circuit
//! breaker. [`FallbackModel`] bundles the two models that policy chooses
//! between, and the prediction server applies it: predict with the
//! primary MLP when allowed and healthy, otherwise fall back to the
//! linear baseline ([`LinearModel`], the §6 comparator) and *say so* via
//! [`Served::Baseline`], so callers can tag responses as degraded.

use crate::baseline::LinearModel;
use crate::{ModelError, PerformanceModel, WorkloadModel};

/// Which model actually produced a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The non-linear MLP workload model answered.
    Primary,
    /// The linear baseline answered (degraded mode).
    Baseline,
}

impl Served {
    /// Whether this is the degraded (baseline) path.
    pub fn is_degraded(self) -> bool {
        matches!(self, Served::Baseline)
    }
}

/// A primary [`WorkloadModel`] with an optional [`LinearModel`] fallback,
/// at least one of which must be present.
///
/// # Examples
///
/// ```
/// use wlc_data::{Dataset, Sample};
/// use wlc_model::baseline::{LinearFeatures, LinearModel};
/// use wlc_model::fallback::{FallbackModel, Served};
/// use wlc_model::PerformanceModel;
///
/// let mut ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
/// for i in 0..5 {
///     let x = i as f64;
///     ds.push(Sample::new(vec![x], vec![2.0 * x + 1.0])).unwrap();
/// }
/// let baseline = LinearModel::fit(&ds, LinearFeatures::FirstOrder)?;
/// let bundle = FallbackModel::new(None, Some(baseline), ds.input_names().to_vec(),
///                                 ds.output_names().to_vec())?;
/// // No primary: every answer comes from the baseline, tagged degraded.
/// assert!(!bundle.has_primary());
/// let y = bundle.baseline().unwrap().predict(&[10.0])?;
/// assert!((y[0] - 21.0).abs() < 1e-6);
/// assert!(Served::Baseline.is_degraded());
/// # Ok::<(), wlc_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FallbackModel {
    input_names: Vec<String>,
    output_names: Vec<String>,
    primary: Option<WorkloadModel>,
    baseline: Option<LinearModel>,
}

impl FallbackModel {
    /// Bundles a primary model and/or a baseline. Input/output names are
    /// taken from the primary when present, else from the provided lists.
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidParameter`] if both models are absent.
    /// - [`ModelError::WidthMismatch`] if primary and baseline disagree
    ///   on input or output width.
    pub fn new(
        primary: Option<WorkloadModel>,
        baseline: Option<LinearModel>,
        input_names: Vec<String>,
        output_names: Vec<String>,
    ) -> Result<Self, ModelError> {
        if primary.is_none() && baseline.is_none() {
            return Err(ModelError::InvalidParameter {
                name: "fallback",
                reason: "need a primary model, a baseline, or both",
            });
        }
        if let (Some(p), Some(b)) = (&primary, &baseline) {
            if p.inputs() != b.inputs() {
                return Err(ModelError::WidthMismatch {
                    expected: p.inputs(),
                    actual: b.inputs(),
                    what: "baseline input",
                });
            }
            if p.outputs() != b.outputs() {
                return Err(ModelError::WidthMismatch {
                    expected: p.outputs(),
                    actual: b.outputs(),
                    what: "baseline output",
                });
            }
        }
        let (input_names, output_names) = match &primary {
            Some(p) => (p.input_names().to_vec(), p.output_names().to_vec()),
            None => (input_names, output_names),
        };
        Ok(FallbackModel {
            input_names,
            output_names,
            primary,
            baseline,
        })
    }

    /// Input (configuration) column names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output (indicator) column names.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// Whether a primary (MLP) model is loaded.
    pub fn has_primary(&self) -> bool {
        self.primary.is_some()
    }

    /// Whether a baseline fallback is available.
    pub fn has_baseline(&self) -> bool {
        self.baseline.is_some()
    }

    /// The primary model, if loaded.
    pub fn primary(&self) -> Option<&WorkloadModel> {
        self.primary.as_ref()
    }

    /// The baseline model, if available.
    pub fn baseline(&self) -> Option<&LinearModel> {
        self.baseline.as_ref()
    }

    /// Returns a copy of this bundle with the primary model replaced —
    /// the building block of an atomic last-good hot swap: validate the
    /// candidate first, then publish the new bundle in one pointer store.
    pub fn with_primary(&self, primary: WorkloadModel) -> Result<Self, ModelError> {
        FallbackModel::new(
            Some(primary),
            self.baseline.clone(),
            self.input_names.clone(),
            self.output_names.clone(),
        )
    }

    /// Expected input width.
    pub fn inputs(&self) -> usize {
        self.primary
            .as_ref()
            .map(PerformanceModel::inputs)
            .or_else(|| self.baseline.as_ref().map(PerformanceModel::inputs))
            .unwrap_or(0)
    }

    /// Expected output width.
    pub fn outputs(&self) -> usize {
        self.primary
            .as_ref()
            .map(PerformanceModel::outputs)
            .or_else(|| self.baseline.as_ref().map(PerformanceModel::outputs))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::LinearFeatures;
    use crate::WorkloadModelBuilder;
    use wlc_data::{Dataset, Sample};

    fn dataset() -> Dataset {
        let mut ds =
            Dataset::new(vec!["a".into(), "b".into()], vec!["y0".into(), "y1".into()]).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let (a, b) = (i as f64 + 1.0, j as f64 + 1.0);
                ds.push(Sample::new(vec![a, b], vec![a * a + b, a * b]))
                    .unwrap();
            }
        }
        ds
    }

    fn primary() -> WorkloadModel {
        WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(8)
            .max_epochs(300)
            .seed(5)
            .train(&dataset())
            .unwrap()
            .model
    }

    fn baseline() -> LinearModel {
        LinearModel::fit(&dataset(), LinearFeatures::FirstOrder).unwrap()
    }

    #[test]
    fn requires_at_least_one_model() {
        assert!(matches!(
            FallbackModel::new(None, None, vec![], vec![]),
            Err(ModelError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn dims_must_agree() {
        let mut narrow = Dataset::new(vec!["a".into()], vec!["y".into()]).unwrap();
        for i in 0..4 {
            narrow
                .push(Sample::new(vec![i as f64], vec![i as f64 * 2.0]))
                .unwrap();
        }
        let bad = LinearModel::fit(&narrow, LinearFeatures::FirstOrder).unwrap();
        assert!(matches!(
            FallbackModel::new(Some(primary()), Some(bad), vec![], vec![]),
            Err(ModelError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn names_and_widths_come_from_the_primary() {
        let bundle = FallbackModel::new(Some(primary()), Some(baseline()), vec![], vec![]).unwrap();
        assert_eq!(bundle.input_names(), &["a", "b"]);
        assert_eq!(bundle.output_names(), &["y0", "y1"]);
        assert_eq!((bundle.inputs(), bundle.outputs()), (2, 2));
        assert!(!Served::Primary.is_degraded());
        assert!(Served::Baseline.is_degraded());
    }

    #[test]
    fn with_primary_swaps_while_keeping_baseline() {
        let bundle = FallbackModel::new(
            None,
            Some(baseline()),
            vec!["a".into(), "b".into()],
            vec!["y0".into(), "y1".into()],
        )
        .unwrap();
        let upgraded = bundle.with_primary(primary()).unwrap();
        assert!(upgraded.has_primary() && upgraded.has_baseline());
        assert_eq!(upgraded.primary(), Some(&primary()));
        assert_eq!(upgraded.baseline().map(|b| b.inputs()), Some(2));
    }
}
