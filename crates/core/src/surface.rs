use wlc_math::Matrix;
use wlc_nn::BandEngine;

use crate::model::{PredictScratch, WorkloadModel};
use crate::{ModelError, PerformanceModel};

/// A specification for the paper's "3D diagrams" (§5): fix all but two
/// configuration parameters, sweep the remaining two over grids, and
/// evaluate one predicted performance indicator at every grid point.
///
/// The paper's Figures 4/7/8 are all `(560, x, 16, y)` — injection rate
/// and mfg queue fixed, default and web queues swept.
///
/// # Examples
///
/// ```
/// use wlc_model::{ResponseSurface, PerformanceModel, ModelError};
///
/// // A toy model: z = x0 + 2·x1, 1 output.
/// struct Plane;
/// impl PerformanceModel for Plane {
///     fn inputs(&self) -> usize { 2 }
///     fn outputs(&self) -> usize { 1 }
///     fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
///         Ok(vec![x[0] + 2.0 * x[1]])
///     }
/// }
///
/// let surface = ResponseSurface::new(vec![0.0, 0.0], 0, vec![0.0, 1.0], 1, vec![0.0, 1.0], 0)?;
/// let grid = surface.evaluate(&Plane)?;
/// assert_eq!(grid.value_at(1, 1), 3.0);
/// # Ok::<(), wlc_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseSurface {
    base: Vec<f64>,
    axis1: usize,
    axis1_values: Vec<f64>,
    axis2: usize,
    axis2_values: Vec<f64>,
    output: usize,
}

impl ResponseSurface {
    /// Creates a surface specification.
    ///
    /// - `base` — the full configuration vector; the entries at `axis1`
    ///   and `axis2` are overwritten during the sweep.
    /// - `axis1`/`axis2` — indices of the two swept parameters.
    /// - `output` — index of the predicted indicator to plot.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the axes coincide, an
    /// index is out of range, or a value list is empty.
    pub fn new(
        base: Vec<f64>,
        axis1: usize,
        axis1_values: Vec<f64>,
        axis2: usize,
        axis2_values: Vec<f64>,
        output: usize,
    ) -> Result<Self, ModelError> {
        if axis1 == axis2 {
            return Err(ModelError::InvalidParameter {
                name: "axis2",
                reason: "must differ from axis1",
            });
        }
        if axis1 >= base.len() || axis2 >= base.len() {
            return Err(ModelError::InvalidParameter {
                name: "axis1/axis2",
                reason: "must index into the base configuration",
            });
        }
        if axis1_values.is_empty() || axis2_values.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "axis values",
                reason: "must not be empty",
            });
        }
        Ok(ResponseSurface {
            base,
            axis1,
            axis1_values,
            axis2,
            axis2_values,
            output,
        })
    }

    /// Index of the first swept parameter.
    pub fn axis1(&self) -> usize {
        self.axis1
    }

    /// Index of the second swept parameter.
    pub fn axis2(&self) -> usize {
        self.axis2
    }

    /// Index of the plotted output indicator.
    pub fn output(&self) -> usize {
        self.output
    }

    /// Evaluates the surface through a model, one grid row at a time.
    ///
    /// For a `Sync` model (every model in this crate is), prefer
    /// [`evaluate_jobs`](Self::evaluate_jobs) which fans the rows out
    /// over a worker pool; the result is identical.
    ///
    /// # Errors
    ///
    /// - [`ModelError::WidthMismatch`] if the base configuration width or
    ///   output index do not match the model.
    pub fn evaluate(&self, model: &dyn PerformanceModel) -> Result<SurfaceGrid, ModelError> {
        self.check(model)?;
        let mut z = Matrix::zeros(self.axis1_values.len(), self.axis2_values.len());
        for (i, row) in self.rows(model).enumerate() {
            for (j, v) in row?.into_iter().enumerate() {
                z.set(i, j, v);
            }
        }
        Ok(self.grid_from(z))
    }

    /// [`evaluate`](Self::evaluate) with the grid rows fanned out over
    /// `jobs` workers (`jobs <= 1` runs sequentially). Each row depends
    /// only on its axis value, so the grid is identical for any worker
    /// count.
    ///
    /// # Errors
    ///
    /// As for [`evaluate`](Self::evaluate).
    pub fn evaluate_jobs(
        &self,
        model: &(dyn PerformanceModel + Sync),
        jobs: usize,
    ) -> Result<SurfaceGrid, ModelError> {
        self.check(model)?;
        let rows = wlc_exec::try_map_indexed(jobs, self.axis1_values.len(), |i| {
            self.row(model, self.axis1_values[i])
        })?;
        let mut z = Matrix::zeros(self.axis1_values.len(), self.axis2_values.len());
        for (i, row) in rows.into_iter().enumerate() {
            for (j, v) in row.into_iter().enumerate() {
                z.set(i, j, v);
            }
        }
        Ok(self.grid_from(z))
    }

    /// [`evaluate`](Self::evaluate) for a [`WorkloadModel`], with the
    /// whole grid flattened into one configuration batch and predicted
    /// through `engine`'s persistent band-pool team — the surface sweep
    /// as row-band work instead of per-call scoped threads.
    ///
    /// Bitwise identical to [`evaluate`](Self::evaluate) for any team
    /// size: each grid cell is one batch row, rows never interact, and
    /// the engine's banded forward is bit-identical to the per-row
    /// path.
    ///
    /// # Errors
    ///
    /// As for [`evaluate`](Self::evaluate).
    pub fn evaluate_banded(
        &self,
        model: &WorkloadModel,
        engine: &mut BandEngine,
    ) -> Result<SurfaceGrid, ModelError> {
        self.check(model)?;
        let n1 = self.axis1_values.len();
        let n2 = self.axis2_values.len();
        let mut configs = Matrix::zeros(n1 * n2, self.base.len());
        for (i, &a) in self.axis1_values.iter().enumerate() {
            for (j, &b) in self.axis2_values.iter().enumerate() {
                let row = configs.row_mut(i * n2 + j);
                row.copy_from_slice(&self.base);
                row[self.axis1] = a;
                row[self.axis2] = b;
            }
        }
        let mut scratch = PredictScratch::new();
        let preds = model.predict_batch_engine(&configs, &mut scratch, engine)?;
        let mut z = Matrix::zeros(n1, n2);
        for i in 0..n1 {
            for j in 0..n2 {
                z.set(i, j, preds.row(i * n2 + j)[self.output]);
            }
        }
        Ok(self.grid_from(z))
    }

    fn check(&self, model: &dyn PerformanceModel) -> Result<(), ModelError> {
        if self.base.len() != model.inputs() {
            return Err(ModelError::WidthMismatch {
                expected: model.inputs(),
                actual: self.base.len(),
                what: "base configuration",
            });
        }
        if self.output >= model.outputs() {
            return Err(ModelError::InvalidParameter {
                name: "output",
                reason: "output index exceeds the model's outputs",
            });
        }
        Ok(())
    }

    /// Predicts one grid row (fixed `axis1` value, all `axis2` values).
    fn row(&self, model: &dyn PerformanceModel, a: f64) -> Result<Vec<f64>, ModelError> {
        let mut config = self.base.clone();
        config[self.axis1] = a;
        self.axis2_values
            .iter()
            .map(|&b| {
                config[self.axis2] = b;
                Ok(model.predict(&config)?[self.output])
            })
            .collect()
    }

    fn rows<'a>(
        &'a self,
        model: &'a dyn PerformanceModel,
    ) -> impl Iterator<Item = Result<Vec<f64>, ModelError>> + 'a {
        self.axis1_values.iter().map(move |&a| self.row(model, a))
    }

    fn grid_from(&self, z: Matrix) -> SurfaceGrid {
        SurfaceGrid {
            axis1_values: self.axis1_values.clone(),
            axis2_values: self.axis2_values.clone(),
            z,
        }
    }
}

/// Evaluates surfaces for *every* output indicator of a model at once,
/// predicting only once per grid cell — the efficient way to produce the
/// full set of the paper's 3-D diagrams for one operating point.
///
/// The `output` field of the spec is ignored; one [`SurfaceGrid`] per
/// model output is returned, in output order.
///
/// # Errors
///
/// As for [`ResponseSurface::evaluate`].
///
/// # Examples
///
/// See `examples/surface_explorer.rs`.
pub fn evaluate_all(
    spec: &ResponseSurface,
    model: &dyn PerformanceModel,
) -> Result<Vec<SurfaceGrid>, ModelError> {
    check_base(spec, model)?;
    let rows: Result<Vec<Vec<Vec<f64>>>, ModelError> = spec
        .axis1_values
        .iter()
        .map(|&a| all_outputs_row(spec, model, a))
        .collect();
    assemble_all(spec, model.outputs(), rows?)
}

/// [`evaluate_all`] with the grid rows fanned out over `jobs` workers
/// (`jobs <= 1` runs sequentially); identical grids for any worker count.
///
/// # Errors
///
/// As for [`ResponseSurface::evaluate`].
pub fn evaluate_all_jobs(
    spec: &ResponseSurface,
    model: &(dyn PerformanceModel + Sync),
    jobs: usize,
) -> Result<Vec<SurfaceGrid>, ModelError> {
    check_base(spec, model)?;
    let rows = wlc_exec::try_map_indexed(jobs, spec.axis1_values.len(), |i| {
        all_outputs_row(spec, model, spec.axis1_values[i])
    })?;
    assemble_all(spec, model.outputs(), rows)
}

/// Errors unless the spec's base configuration has the model's input
/// width.
fn check_base(spec: &ResponseSurface, model: &dyn PerformanceModel) -> Result<(), ModelError> {
    if spec.base.len() != model.inputs() {
        return Err(ModelError::WidthMismatch {
            expected: model.inputs(),
            actual: spec.base.len(),
            what: "base configuration",
        });
    }
    Ok(())
}

/// Predicts one grid row for every model output: `row[j][o]` is output
/// `o` at `(a, axis2_values[j])`.
fn all_outputs_row(
    spec: &ResponseSurface,
    model: &dyn PerformanceModel,
    a: f64,
) -> Result<Vec<Vec<f64>>, ModelError> {
    let mut config = spec.base.clone();
    config[spec.axis1] = a;
    spec.axis2_values
        .iter()
        .map(|&b| {
            config[spec.axis2] = b;
            model.predict(&config)
        })
        .collect()
}

fn assemble_all(
    spec: &ResponseSurface,
    outputs: usize,
    rows: Vec<Vec<Vec<f64>>>,
) -> Result<Vec<SurfaceGrid>, ModelError> {
    let n_rows = spec.axis1_values.len();
    let n_cols = spec.axis2_values.len();
    let mut grids: Vec<Matrix> = (0..outputs)
        .map(|_| Matrix::zeros(n_rows, n_cols))
        .collect();
    for (i, row) in rows.into_iter().enumerate() {
        for (j, y) in row.into_iter().enumerate() {
            for (grid, &v) in grids.iter_mut().zip(y.iter()) {
                grid.set(i, j, v);
            }
        }
    }
    grids
        .into_iter()
        .map(|z| SurfaceGrid::from_parts(spec.axis1_values.clone(), spec.axis2_values.clone(), z))
        .collect()
}

/// An evaluated response surface: `z[i][j]` is the predicted indicator at
/// `(axis1_values[i], axis2_values[j])`.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceGrid {
    axis1_values: Vec<f64>,
    axis2_values: Vec<f64>,
    z: Matrix,
}

impl SurfaceGrid {
    /// Builds a grid from raw parts (mainly for tests and custom sources).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] if the matrix shape does not
    /// match the axis lengths.
    pub fn from_parts(
        axis1_values: Vec<f64>,
        axis2_values: Vec<f64>,
        z: Matrix,
    ) -> Result<Self, ModelError> {
        if z.rows() != axis1_values.len() || z.cols() != axis2_values.len() {
            return Err(ModelError::WidthMismatch {
                expected: axis1_values.len() * axis2_values.len(),
                actual: z.rows() * z.cols(),
                what: "surface grid",
            });
        }
        Ok(SurfaceGrid {
            axis1_values,
            axis2_values,
            z,
        })
    }

    /// Values swept on the first axis (grid rows).
    pub fn axis1_values(&self) -> &[f64] {
        &self.axis1_values
    }

    /// Values swept on the second axis (grid columns).
    pub fn axis2_values(&self) -> &[f64] {
        &self.axis2_values
    }

    /// The raw grid (rows = axis1, cols = axis2).
    pub fn z(&self) -> &Matrix {
        &self.z
    }

    /// The value at grid cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn value_at(&self, i: usize, j: usize) -> f64 {
        self.z.get(i, j)
    }

    /// `(i, j, value)` of the smallest grid value.
    pub fn min_cell(&self) -> (usize, usize, f64) {
        self.extreme_cell(|a, b| a < b)
    }

    /// `(i, j, value)` of the largest grid value.
    pub fn max_cell(&self) -> (usize, usize, f64) {
        self.extreme_cell(|a, b| a > b)
    }

    fn extreme_cell(&self, better: impl Fn(f64, f64) -> bool) -> (usize, usize, f64) {
        let mut best = (0, 0, self.z.get(0, 0));
        for i in 0..self.z.rows() {
            for j in 0..self.z.cols() {
                let v = self.z.get(i, j);
                if better(v, best.2) {
                    best = (i, j, v);
                }
            }
        }
        best
    }

    /// The mean of all grid values.
    pub fn mean(&self) -> f64 {
        let n = (self.z.rows() * self.z.cols()) as f64;
        self.z.as_slice().iter().sum::<f64>() / n
    }

    /// Serializes as tab-separated rows (axis2 as header), gnuplot-ready.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str("axis1\\axis2");
        for b in &self.axis2_values {
            out.push_str(&format!("\t{b}"));
        }
        out.push('\n');
        for (i, a) in self.axis1_values.iter().enumerate() {
            out.push_str(&format!("{a}"));
            for j in 0..self.axis2_values.len() {
                out.push_str(&format!("\t{:.6}", self.z.get(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// z = (x0 − 3)² + (x1 − 4)², 1 output, 2 inputs.
    struct Bowl;
    impl PerformanceModel for Bowl {
        fn inputs(&self) -> usize {
            2
        }
        fn outputs(&self) -> usize {
            1
        }
        fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
            Ok(vec![(x[0] - 3.0).powi(2) + (x[1] - 4.0).powi(2)])
        }
    }

    /// 4-input, 2-output model mirroring the paper's shape.
    struct Wide;
    impl PerformanceModel for Wide {
        fn inputs(&self) -> usize {
            4
        }
        fn outputs(&self) -> usize {
            2
        }
        fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
            Ok(vec![x[1] + x[3], x[0] * 0.001 + x[2]])
        }
    }

    fn axis(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn evaluate_sweeps_both_axes() {
        let s = ResponseSurface::new(vec![0.0, 0.0], 0, axis(7), 1, axis(9), 0).unwrap();
        let grid = s.evaluate(&Bowl).unwrap();
        assert_eq!(grid.z().shape(), (7, 9));
        let (i, j, v) = grid.min_cell();
        assert_eq!((i, j), (3, 4));
        assert_eq!(v, 0.0);
    }

    #[test]
    fn fixed_parameters_stay_fixed() {
        // Sweep axes 1 and 3 of the 4-input model; outputs read axis 0/2
        // from the base.
        let s =
            ResponseSurface::new(vec![560.0, 0.0, 16.0, 0.0], 1, axis(3), 3, axis(3), 1).unwrap();
        let grid = s.evaluate(&Wide).unwrap();
        // Output 1 = 0.001·560 + 16 = 16.56 everywhere (independent of axes).
        for i in 0..3 {
            for j in 0..3 {
                assert!((grid.value_at(i, j) - 16.56).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn output_selection() {
        let s =
            ResponseSurface::new(vec![560.0, 0.0, 16.0, 0.0], 1, axis(2), 3, axis(2), 0).unwrap();
        let grid = s.evaluate(&Wide).unwrap();
        // Output 0 = x1 + x3.
        assert_eq!(grid.value_at(1, 1), 2.0);
        assert_eq!(grid.value_at(0, 1), 1.0);
    }

    #[test]
    fn constructor_validation() {
        assert!(ResponseSurface::new(vec![0.0; 2], 0, axis(2), 0, axis(2), 0).is_err());
        assert!(ResponseSurface::new(vec![0.0; 2], 0, axis(2), 5, axis(2), 0).is_err());
        assert!(ResponseSurface::new(vec![0.0; 2], 0, vec![], 1, axis(2), 0).is_err());
    }

    #[test]
    fn evaluate_validation() {
        let s = ResponseSurface::new(vec![0.0; 3], 0, axis(2), 1, axis(2), 0).unwrap();
        assert!(matches!(
            s.evaluate(&Bowl),
            Err(ModelError::WidthMismatch { .. })
        ));
        let s2 = ResponseSurface::new(vec![0.0; 2], 0, axis(2), 1, axis(2), 7).unwrap();
        assert!(s2.evaluate(&Bowl).is_err());
    }

    #[test]
    fn evaluate_all_matches_per_output_evaluation() {
        let spec =
            ResponseSurface::new(vec![560.0, 0.0, 16.0, 0.0], 1, axis(3), 3, axis(4), 0).unwrap();
        let all = evaluate_all(&spec, &Wide).unwrap();
        assert_eq!(all.len(), 2);
        #[allow(clippy::needless_range_loop)] // `output` is also a spec argument below
        for output in 0..2 {
            let single =
                ResponseSurface::new(vec![560.0, 0.0, 16.0, 0.0], 1, axis(3), 3, axis(4), output)
                    .unwrap()
                    .evaluate(&Wide)
                    .unwrap();
            assert_eq!(all[output], single, "output {output}");
        }
    }

    #[test]
    fn evaluate_all_validates_width() {
        let spec = ResponseSurface::new(vec![0.0; 3], 0, axis(2), 1, axis(2), 0).unwrap();
        assert!(evaluate_all(&spec, &Bowl).is_err());
    }

    #[test]
    fn grid_stats() {
        let s = ResponseSurface::new(vec![0.0, 0.0], 0, axis(7), 1, axis(9), 0).unwrap();
        let grid = s.evaluate(&Bowl).unwrap();
        let (_, _, max) = grid.max_cell();
        assert_eq!(max, 9.0 + 16.0); // corner (0,0): 9 + 16
        assert!(grid.mean() > 0.0);
    }

    #[test]
    fn from_parts_validates_shape() {
        let z = Matrix::zeros(2, 3);
        assert!(SurfaceGrid::from_parts(vec![0.0, 1.0], vec![0.0, 1.0, 2.0], z.clone()).is_ok());
        assert!(SurfaceGrid::from_parts(vec![0.0], vec![0.0, 1.0, 2.0], z).is_err());
    }

    #[test]
    fn tsv_contains_grid() {
        let s = ResponseSurface::new(vec![0.0, 0.0], 0, axis(2), 1, axis(2), 0).unwrap();
        let grid = s.evaluate(&Bowl).unwrap();
        let tsv = grid.to_tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.contains('\t'));
    }
}
