//! Blocked matrix multiplication dispatched onto the shared runtime pool.
//!
//! Sparse convolution lowers to many GEMMs of shape `|map| x Cin x Cout`
//! (Algorithm 2 of the paper). This module provides:
//!
//! - [`mm`] / [`mm_on`]: `C = A * B` with cache-blocked loops, partitioned
//!   into row panels executed on a persistent [`ThreadPool`] — no per-call
//!   thread spawning (the pre-runtime engine paid a `thread::scope` spawn
//!   per GEMM call).
//! - [`mm_accumulate`] / [`mm_accumulate_on`]: `C += A * B`, the
//!   scatter-accumulate-friendly variant.
//!
//! All variants produce bitwise-identical results to the naive triple loop
//! (same accumulation order within each output element) for every thread
//! count — the panel partition is fixed by [`PANEL`], never by the lane
//! count, so scheduling cannot change the arithmetic. The tests and the
//! root crate's parallel-determinism property tests verify this.
//!
//! Arithmetic within a panel is delegated to the
//! [`microkernel`](crate::microkernel) module, which picks a register-tiled
//! SIMD kernel at process start (see [`GemmOpts`] for per-call overrides).
//! The packed entry point ([`mm_into_packed_on`]) accepts weights
//! pre-packed into the microkernel's panel-major layout so steady-state
//! inference never re-streams row-major B.

use crate::microkernel::{self, BOperand, Kernel, PackedB};
use crate::{Matrix, TensorError};
use torchsparse_runtime::{Task, ThreadPool};

/// Row-panel size for parallel partitioning.
const PANEL: usize = 64;
/// Below this flop count a GEMM is executed inline: queueing tasks costs
/// more than the arithmetic. Dispatching a task costs on the order of a few
/// microseconds; this bound keeps inline only the GEMMs whose whole runtime
/// is comparable to that. Recalibrated for the SIMD microkernel with the
/// `gemm_kernels` bench on the reference host (AVX2, single core, release
/// profile): the vectorized kernel sustains 26-43 GFLOP/s on paper-shaped
/// GEMMs vs 9-18 GFLOP/s for the scalar loop (~2.3-4.8x), so 1e6 flops is
/// ~25-40 us of microkernel work — comfortably above per-task dispatch cost,
/// where the old 2.5e5 bound (tuned for the scalar loop) would now inline
/// barely ~6 us of work per task.
const MIN_PARALLEL_FLOPS: f64 = 1.0e6;

/// Per-call kernel selection for the `_with` GEMM entry points.
///
/// The default (`GemmOpts::default()`) uses the process-wide selection from
/// [`microkernel::active`]. Both kernels produce identical bits, so the
/// options change speed only.
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmOpts {
    /// Explicit kernel override; `None` uses [`microkernel::active`].
    pub kernel: Option<Kernel>,
    /// Row-panel width for parallel partitioning; `None` uses [`PANEL`].
    /// Every output row is computed by exactly one panel with the same
    /// k-major accumulation order, so the width changes scheduling
    /// granularity only — results are bitwise identical for every value.
    pub panel_rows: Option<usize>,
}

impl GemmOpts {
    /// Options pinned to a specific kernel.
    pub fn with_kernel(kernel: Kernel) -> GemmOpts {
        GemmOpts { kernel: Some(kernel), ..GemmOpts::default() }
    }

    /// Resolves the kernel these options denote.
    pub fn resolve(self) -> Kernel {
        self.kernel.unwrap_or_else(microkernel::active)
    }

    /// Resolves the row-panel width these options denote (never zero).
    pub fn resolve_panel(self) -> usize {
        self.panel_rows.unwrap_or(PANEL).max(1)
    }
}

/// Computes `A * B` on the global runtime pool.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `A.cols() != B.rows()`.
///
/// # Example
///
/// ```
/// use torchsparse_tensor::{Matrix, gemm};
///
/// # fn main() -> Result<(), torchsparse_tensor::TensorError> {
/// let a = Matrix::filled(2, 3, 1.0);
/// let b = Matrix::filled(3, 4, 2.0);
/// let c = gemm::mm(&a, &b)?;
/// assert_eq!(c[(1, 2)], 6.0);
/// # Ok(())
/// # }
/// ```
pub fn mm(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    mm_on(ThreadPool::global(), a, b)
}

/// Computes `A * B` on an explicit pool.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `A.cols() != B.rows()`.
pub fn mm_on(pool: &ThreadPool, a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    mm_into_on(pool, a, b, &mut c)?;
    Ok(c)
}

/// Computes `C += A * B` into an existing accumulator on the global pool.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the inner dimensions disagree
/// or `C` has the wrong shape.
pub fn mm_accumulate(a: &Matrix, b: &Matrix, c: &mut Matrix) -> Result<(), TensorError> {
    mm_into_on(ThreadPool::global(), a, b, c)
}

/// [`mm_accumulate`] on an explicit pool.
///
/// # Errors
///
/// As [`mm_accumulate`].
pub fn mm_accumulate_on(
    pool: &ThreadPool,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
) -> Result<(), TensorError> {
    mm_into_on(pool, a, b, c)
}

fn check_shapes(a: &Matrix, b: &Matrix, c: &Matrix) -> Result<(), TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch { op: "mm", lhs: a.shape(), rhs: b.shape() });
    }
    if c.shape() != (a.rows(), b.cols()) {
        return Err(TensorError::ShapeMismatch {
            op: "mm_out",
            lhs: c.shape(),
            rhs: (a.rows(), b.cols()),
        });
    }
    Ok(())
}

/// Shared panel driver for all `mm_into` variants: partitions C into
/// `panel`-row panels ([`PANEL`] rows unless the options override it) and
/// runs the microkernel over each, inline or on the pool. The partition
/// never depends on the pool width.
#[allow(clippy::too_many_arguments)] // kernel + panel width + raw GEMM shape
fn mm_into_dispatch(
    pool: &ThreadPool,
    kernel: Kernel,
    panel_rows: usize,
    a: &Matrix,
    b: BOperand<'_>,
    k: usize,
    n: usize,
    c: &mut Matrix,
) {
    let m = a.rows();
    if m == 0 || n == 0 {
        return;
    }
    let a_data = a.as_slice();
    let c_data = c.as_mut_slice();

    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    if pool.threads() <= 1 && !pool.is_recording() || flops < MIN_PARALLEL_FLOPS || m <= panel_rows
    {
        for (i, panel) in c_data.chunks_mut(panel_rows * n).enumerate() {
            microkernel::gemm_panel(kernel, a_data, b, k, n, i * panel_rows, panel);
        }
        return;
    }
    let tasks: Vec<Task<'_>> = c_data
        .chunks_mut(panel_rows * n)
        .enumerate()
        .map(|(i, panel)| {
            Box::new(move || {
                microkernel::gemm_panel(kernel, a_data, b, k, n, i * panel_rows, panel)
            }) as Task<'_>
        })
        .collect();
    pool.run(tasks);
}

/// `C += A * B` with panels dispatched onto `pool`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
pub fn mm_into_on(
    pool: &ThreadPool,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
) -> Result<(), TensorError> {
    mm_into_with(pool, a, b, c, GemmOpts::default())
}

/// [`mm_into_on`] with explicit kernel options.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
pub fn mm_into_with(
    pool: &ThreadPool,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    opts: GemmOpts,
) -> Result<(), TensorError> {
    check_shapes(a, b, c)?;
    let k = a.cols();
    if k == 0 {
        return Ok(());
    }
    mm_into_dispatch(
        pool,
        opts.resolve(),
        opts.resolve_panel(),
        a,
        BOperand::Dense(b.as_slice()),
        k,
        b.cols(),
        c,
    );
    Ok(())
}

/// `C += A * B` where B was pre-packed with [`PackedB::pack`].
///
/// This is the steady-state inference entry point: weights are constant
/// across frames, so the core crate packs each kernel-offset matrix once
/// (at plan time or on first use) and every subsequent GEMM streams the
/// packed panels sequentially. Results are bitwise identical to the dense
/// form for the same kernel options.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
pub fn mm_into_packed_on(
    pool: &ThreadPool,
    a: &Matrix,
    b: &PackedB,
    c: &mut Matrix,
    opts: GemmOpts,
) -> Result<(), TensorError> {
    if a.cols() != b.k() {
        return Err(TensorError::ShapeMismatch { op: "mm", lhs: a.shape(), rhs: (b.k(), b.n()) });
    }
    if c.shape() != (a.rows(), b.n()) {
        return Err(TensorError::ShapeMismatch {
            op: "mm_out",
            lhs: c.shape(),
            rhs: (a.rows(), b.n()),
        });
    }
    let k = a.cols();
    if k == 0 {
        return Ok(());
    }
    mm_into_dispatch(
        pool,
        opts.resolve(),
        opts.resolve_panel(),
        a,
        BOperand::Packed(b),
        k,
        b.n(),
        c,
    );
    Ok(())
}

/// Naive reference GEMM (triple loop) used by tests as the ground truth.
pub fn mm_reference(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch { op: "mm", lhs: a.shape(), rhs: b.shape() });
    }
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for kk in 0..a.cols() {
            let av = a[(i, kk)];
            for j in 0..b.cols() {
                c[(i, j)] += av * b[(kk, j)];
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0f32..1.0))
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_matrix(&mut rng, 7, 7);
        assert_eq!(mm(&a, &Matrix::eye(7)).unwrap(), a);
        assert_eq!(mm(&Matrix::eye(7), &a).unwrap(), a);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(mm(&a, &b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn empty_dims_ok() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        assert_eq!(mm(&a, &b).unwrap().shape(), (0, 2));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        assert_eq!(mm(&a, &b).unwrap(), Matrix::zeros(2, 2));
    }

    #[test]
    fn matches_reference_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 33, 9), (130, 64, 48), (65, 300, 7)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let fast = mm(&a, &b).unwrap();
            let slow = mm_reference(&a, &b).unwrap();
            let diff = fast.max_abs_diff(&slow).unwrap();
            assert!(diff < 1e-4, "({m},{k},{n}) diff {diff}");
        }
    }

    #[test]
    fn large_parallel_path_matches_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 200, 128);
        let b = random_matrix(&mut rng, 128, 96);
        let fast = mm(&a, &b).unwrap();
        let slow = mm_reference(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
    }

    #[test]
    fn bitwise_identical_across_pool_widths() {
        // The partition is fixed by PANEL, not by lane count, so every pool
        // width computes exactly the same bits.
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 300, 200);
        let b = random_matrix(&mut rng, 200, 64);
        let serial = mm_on(&ThreadPool::new(1), &a, &b).unwrap();
        for threads in [2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let parallel = mm_on(&pool, &a, &b).unwrap();
            assert_eq!(
                serial.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parallel.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn panel_width_is_bitwise_neutral() {
        // The autotuner varies the panel width per layer; every width must
        // compute exactly the default-width bits at every pool width.
        let mut rng = StdRng::seed_from_u64(31);
        let a = random_matrix(&mut rng, 311, 96);
        let b = random_matrix(&mut rng, 96, 40);
        let mut baseline = Matrix::zeros(311, 40);
        mm_into_with(&ThreadPool::new(1), &a, &b, &mut baseline, GemmOpts::default()).unwrap();
        for panel_rows in [1, 16, 32, 64, 128, 256, 1024] {
            for threads in [1, 4] {
                let pool = ThreadPool::new(threads);
                let opts = GemmOpts { panel_rows: Some(panel_rows), ..GemmOpts::default() };
                let mut c = Matrix::zeros(311, 40);
                mm_into_with(&pool, &a, &b, &mut c, opts).unwrap();
                assert_eq!(bits(&c), bits(&baseline), "panel={panel_rows} threads={threads}");
            }
        }
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::eye(2);
        let mut c = Matrix::filled(2, 2, 10.0);
        mm_accumulate(&a, &b, &mut c).unwrap();
        assert_eq!(c.as_slice(), &[11.0, 11.0, 11.0, 11.0]);
    }

    #[test]
    fn accumulate_rejects_bad_out_shape() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 2);
        let mut c = Matrix::zeros(3, 2);
        assert!(mm_accumulate(&a, &b, &mut c).is_err());
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Kernels that must be bitwise interchangeable on this host.
    fn deterministic_kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if torchsparse_runtime::cpu_features().avx2 {
            ks.push(Kernel::Avx2);
        }
        ks
    }

    #[test]
    fn packed_mm_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let pb = PackedB::pack(&Matrix::zeros(4, 5));
        let mut c = Matrix::zeros(2, 5);
        assert!(
            mm_into_packed_on(ThreadPool::global(), &a, &pb, &mut c, GemmOpts::default()).is_err()
        );
        let pb = PackedB::pack(&Matrix::zeros(3, 5));
        let mut bad_c = Matrix::zeros(2, 4);
        assert!(mm_into_packed_on(ThreadPool::global(), &a, &pb, &mut bad_c, GemmOpts::default())
            .is_err());
    }

    #[test]
    fn packed_mm_matches_dense_bitwise_across_pool_widths() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = random_matrix(&mut rng, 300, 96);
        let b = random_matrix(&mut rng, 96, 50);
        let packed = PackedB::pack(&b);
        let mut dense = Matrix::zeros(300, 50);
        mm_into_on(&ThreadPool::new(1), &a, &b, &mut dense).unwrap();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let mut c = Matrix::zeros(300, 50);
            mm_into_packed_on(&pool, &a, &packed, &mut c, GemmOpts::default()).unwrap();
            assert_eq!(bits(&c), bits(&dense), "threads={threads}");
        }
    }

    proptest! {
        /// Every deterministic kernel, dense or packed, is **bitwise** equal
        /// to the naive reference loop on arbitrary shapes — including
        /// ragged tails (`n % 16 != 0`, `m % 4 != 0`) and degenerate k.
        #[test]
        fn prop_all_kernels_bitwise_match_reference(
            m in 1usize..80, k in 1usize..48, n in 1usize..40, seed in 0u64..1000
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let reference = mm_reference(&a, &b).unwrap();
            let packed = PackedB::pack(&b);
            let pool = ThreadPool::new(1);
            for kernel in deterministic_kernels() {
                let opts = GemmOpts::with_kernel(kernel);
                let mut dense = Matrix::zeros(m, n);
                mm_into_with(&pool, &a, &b, &mut dense, opts).unwrap();
                prop_assert!(bits(&dense) == bits(&reference), "dense {:?}", kernel);
                let mut pc = Matrix::zeros(m, n);
                mm_into_packed_on(&pool, &a, &packed, &mut pc, opts).unwrap();
                prop_assert!(bits(&pc) == bits(&reference), "packed {:?}", kernel);
            }
        }

        #[test]
        fn prop_mm_matches_reference(
            m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let fast = mm(&a, &b).unwrap();
            let slow = mm_reference(&a, &b).unwrap();
            prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
        }

        #[test]
        fn prop_mm_distributes_over_addition(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b1 = random_matrix(&mut rng, k, n);
            let b2 = random_matrix(&mut rng, k, n);
            let lhs = mm(&a, &(&b1 + &b2)).unwrap();
            let rhs = &mm(&a, &b1).unwrap() + &mm(&a, &b2).unwrap();
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
        }
    }
}
