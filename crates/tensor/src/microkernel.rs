//! Register-tiled SIMD compute kernels with runtime CPU-feature dispatch.
//!
//! The paper's thesis is that sparse convolution reduces to many GEMMs plus
//! data movement (§4.2, §4.3); on the CPU side every FLOP the scheduling
//! layers arrange ultimately flows through the inner loops in this module.
//! Two implementations of each primitive are provided:
//!
//! - [`Kernel::Scalar`]: safe Rust over fixed-width [`NR`]-lane accumulator
//!   arrays — the fallback on machines without AVX2, the semantic
//!   reference, and the ragged-tail delegate of the AVX2 path;
//! - [`Kernel::Avx2`]: `std::arch` intrinsics tiling [`MR`] rows of A
//!   against two N-vectors of B in registers.
//!
//! [`active`] picks AVX2 when the CPU has it and `Scalar` otherwise. Every
//! public entry point re-checks the CPU before entering AVX2 code, so an
//! explicit `Kernel::Avx2` on a host without AVX2 runs `Scalar` instead.
//!
//! # Bitwise determinism
//!
//! Both kernels vectorize along the **N** (output-channel) dimension: one
//! accumulator lane owns one output element, and the reduction over `k`
//! walks in ascending order with a multiply followed by an add (never a
//! fused multiply-add) and skips `a == 0.0` terms. Lane width therefore
//! cannot change the arithmetic, and `Scalar` and `Avx2` produce bitwise
//! identical results (the tests assert this against an independent
//! triple loop).
//!
//! # Weight packing
//!
//! [`PackedB`] stores a weight matrix panel-major: the `n` columns are split
//! into [`NR`]-wide panels and each panel's `k` rows are laid out
//! contiguously (zero-padded at the ragged edge). A GEMM streaming a packed
//! B reads it strictly sequentially instead of striding by `n` every `k`
//! step. Weights are constant across frames, so the core crate packs each
//! kernel-offset matrix once (at plan time, or lazily per layer on the
//! dynamic path) and reuses the buffer for every subsequent GEMM.

use crate::Half;
use torchsparse_runtime::{cpu_features, CpuFeatures};

/// `f32` lanes per SIMD vector on the widest supported path (AVX2 `__m256`).
pub const LANES: usize = 8;
/// Panel width in output channels: two SIMD vectors per register tile.
pub const NR: usize = 2 * LANES;
/// Rows of A tiled per register block (`MR x NR` accumulators = 8 `__m256`
/// registers, leaving room for the two B vectors and the A broadcast).
pub const MR: usize = 4;

/// One compute-kernel implementation. See the module docs for the contract
/// both variants satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The safe-Rust fixed-width-array loops (bitwise identical to `Avx2`).
    Scalar,
    /// AVX2 register-tiled microkernel (mul-then-add; bitwise identical to
    /// `Scalar`). Runs as `Scalar` on a CPU without AVX2.
    Avx2,
}

impl Kernel {
    /// Short display name used by the benchmark artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// The process-wide kernel: AVX2 when the CPU reports it, else `Scalar`.
pub fn active() -> Kernel {
    runnable(Kernel::Avx2, cpu_features())
}

/// The kernel that may actually run for a requested one on a CPU with
/// `features`: AVX2 code is entered only when the CPU has AVX2. Every safe
/// entry point below routes its kernel through here before dispatching.
fn runnable(kernel: Kernel, features: CpuFeatures) -> Kernel {
    match kernel {
        Kernel::Avx2 if features.avx2 => Kernel::Avx2,
        _ => Kernel::Scalar,
    }
}

/// Whether the F16C conversion sweeps may run for `kernel` on this host.
#[cfg(target_arch = "x86_64")]
fn use_f16c(kernel: Kernel) -> bool {
    let features = cpu_features();
    runnable(kernel, features) == Kernel::Avx2 && features.f16c
}

/// A weight matrix pre-packed into the microkernel's panel-major layout.
///
/// Columns are grouped into [`NR`]-wide panels; within a panel the `k` rows
/// are contiguous, so the GEMM inner loop streams B sequentially. The
/// ragged last panel is zero-padded — padded lanes accumulate exact zeros
/// that are never stored, so packing cannot change results.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Packs a row-major `k x n` matrix.
    pub fn pack(b: &crate::Matrix) -> PackedB {
        let (k, n) = b.shape();
        let panels = n.div_ceil(NR);
        let mut data = vec![0.0f32; panels * k * NR];
        let src = b.as_slice();
        for p in 0..panels {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let base = p * k * NR;
            for kk in 0..k {
                let row = &src[kk * n + j0..kk * n + j0 + w];
                data[base + kk * NR..base + kk * NR + w].copy_from_slice(row);
            }
        }
        PackedB { k, n, data }
    }

    /// Rows of the original matrix (the GEMM reduction dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the original matrix (output channels).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reconstructs the row-major matrix (used by the round-trip tests).
    pub fn unpack(&self) -> crate::Matrix {
        crate::Matrix::from_fn(self.k, self.n, |kk, j| {
            let p = j / NR;
            self.data[p * self.k * NR + kk * NR + (j % NR)]
        })
    }

    /// The packed panel for columns `p*NR ..`: `k` rows of `NR` lanes.
    fn panel(&self, p: usize) -> &[f32] {
        &self.data[p * self.k * NR..(p + 1) * self.k * NR]
    }
}

/// The B operand of a GEMM panel: row-major, or pre-packed panel-major.
#[derive(Debug, Clone, Copy)]
pub enum BOperand<'a> {
    /// Row-major `k x n` data (a [`Matrix`](crate::Matrix) slice).
    Dense(&'a [f32]),
    /// A [`PackedB`] built by [`PackedB::pack`].
    Packed(&'a PackedB),
}

/// Computes one row panel of `C += A * B` with the chosen kernel.
///
/// `c_panel` is the slice of C covering rows `row0 ..` (`rows * n`
/// elements). Both kernels accumulate each output element over `kk` in
/// ascending order with mul-then-add and skip `a == 0.0` terms, so they
/// are bitwise interchangeable.
///
/// # Panics
///
/// Panics when `a` holds fewer than the panel's `row0 + rows` rows of `k`
/// floats, or when B is smaller than `k x n`.
pub fn gemm_panel(
    kernel: Kernel,
    a: &[f32],
    b: BOperand<'_>,
    k: usize,
    n: usize,
    row0: usize,
    c_panel: &mut [f32],
) {
    if n == 0 || c_panel.is_empty() {
        return;
    }
    assert!((row0 + c_panel.len() / n) * k <= a.len(), "A holds every panel row");
    check_b(b, k, n);
    match (runnable(kernel, cpu_features()), b) {
        #[cfg(target_arch = "x86_64")]
        (Kernel::Avx2, b) => x86::panel(a, b, k, n, row0, c_panel),
        (_, BOperand::Dense(bd)) => scalar_panel_dense(a, bd, k, n, row0, c_panel, 0),
        (_, BOperand::Packed(pb)) => scalar_panel_packed(a, pb, k, n, row0, c_panel),
    }
}

/// Asserts that B covers `k x n` — the AVX2 kernels read it through raw
/// pointers.
fn check_b(b: BOperand<'_>, k: usize, n: usize) {
    match b {
        BOperand::Dense(bd) => assert!(bd.len() >= k * n, "dense B holds k x n"),
        BOperand::Packed(pb) => {
            assert_eq!(pb.k, k);
            assert_eq!(pb.n, n);
        }
    }
}

/// Scalar panel kernel over row-major B, starting at column `j_start`
/// (non-zero when the AVX2 path delegates its ragged tail columns here).
/// Full-width panels run a fixed [`NR`]-lane accumulator array the
/// autovectorizer lowers to vector code.
fn scalar_panel_dense(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    c_panel: &mut [f32],
    j_start: usize,
) {
    let rows_here = c_panel.len() / n;
    let mut j0 = j_start;
    while j0 < n {
        let w = NR.min(n - j0);
        for r in 0..rows_here {
            let a_row = &a[(row0 + r) * k..(row0 + r) * k + k];
            let c_row = &mut c_panel[r * n + j0..r * n + j0 + w];
            let mut acc = [0.0f32; NR];
            acc[..w].copy_from_slice(c_row);
            for (kk, &aval) in a_row.iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                if w == NR {
                    let b_row = &b[kk * n + j0..kk * n + j0 + NR];
                    for (av, bv) in acc.iter_mut().zip(b_row) {
                        *av += aval * bv;
                    }
                } else {
                    let b_row = &b[kk * n + j0..kk * n + j0 + w];
                    for (av, bv) in acc.iter_mut().zip(b_row) {
                        *av += aval * bv;
                    }
                }
            }
            c_row.copy_from_slice(&acc[..w]);
        }
        j0 += NR;
    }
}

/// Scalar panel kernel over a [`PackedB`]. Padded lanes of the ragged
/// panel multiply stored zeros and are discarded at the store, so the
/// accumulation of every *real* element is unchanged.
fn scalar_panel_packed(
    a: &[f32],
    pb: &PackedB,
    k: usize,
    n: usize,
    row0: usize,
    c_panel: &mut [f32],
) {
    debug_assert_eq!(pb.k, k);
    debug_assert_eq!(pb.n, n);
    let rows_here = c_panel.len() / n;
    for p in 0..n.div_ceil(NR) {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let panel = pb.panel(p);
        for r in 0..rows_here {
            let a_row = &a[(row0 + r) * k..(row0 + r) * k + k];
            let c_row = &mut c_panel[r * n + j0..r * n + j0 + w];
            let mut acc = [0.0f32; NR];
            acc[..w].copy_from_slice(c_row);
            for (kk, &aval) in a_row.iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                let b_row = &panel[kk * NR..kk * NR + NR];
                for (av, bv) in acc.iter_mut().zip(b_row) {
                    *av += aval * bv;
                }
            }
            c_row.copy_from_slice(&acc[..w]);
        }
    }
}

/// Fused gather–GEMM–scatter over one batch of kernel-map entries.
///
/// For each entry `i`, computes the row product
/// `a[in_rows[i]] · B` (A rows read *through* the map indices — the gather
/// is folded into the panel loads, no materialized A or partial-sum buffer
/// exists), optionally rounds the product to binary16 (16-bit partial-sum
/// storage), and accumulates it into row `out_rel[i]` of
/// `out` (a row-major block with `n` columns) with one FP32 add per
/// element — the scatter epilogue.
///
/// # Bitwise contract
///
/// Per output element this performs exactly the materialized sequence: a
/// zero-initialized dot product over `kk` ascending with mul-then-add and
/// the `a == 0.0` skip (the GEMM into a zeroed psum buffer), an optional
/// per-element f16 round trip (psum storage), then a single `+=` into the
/// output row (the scatter). Both kernels therefore produce bits identical
/// to gather → GEMM → scatter at any tiling.
///
/// # Panics
///
/// Panics when index/shape invariants are violated: mismatched
/// `in_rows`/`out_rel` lengths, an `in_rows` entry past `a`'s rows, an
/// `out_rel` entry past `out`'s rows, or a B operand smaller than `k x n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_gather_scatter(
    kernel: Kernel,
    a: &[f32],
    k: usize,
    in_rows: &[u32],
    b: BOperand<'_>,
    n: usize,
    round_f16: bool,
    out: &mut [f32],
    out_rel: &[u32],
) {
    assert_eq!(in_rows.len(), out_rel.len(), "one output row per gathered row");
    if n == 0 || in_rows.is_empty() {
        return;
    }
    for &src in in_rows {
        assert!(k == 0 || (src as usize + 1) * k <= a.len(), "gather row in bounds");
    }
    for &dst in out_rel {
        assert!((dst as usize + 1) * n <= out.len(), "scatter row in bounds");
    }
    check_b(b, k, n);
    match runnable(kernel, cpu_features()) {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => x86::fused_rows(a, k, in_rows, b, n, round_f16, out, out_rel),
        kernel => scalar_fused_rows(kernel, a, k, in_rows, b, n, round_f16, out, out_rel, 0),
    }
}

/// The `Scalar` fused kernel, and the ragged-tail delegate of the AVX2
/// path (`j_start` marks where the full-width panels stopped; `kernel`
/// then selects the F16C psum round trip).
#[allow(clippy::too_many_arguments)]
fn scalar_fused_rows(
    kernel: Kernel,
    a: &[f32],
    k: usize,
    in_rows: &[u32],
    b: BOperand<'_>,
    n: usize,
    round_f16: bool,
    out: &mut [f32],
    out_rel: &[u32],
    j_start: usize,
) {
    let mut j0 = j_start;
    while j0 < n {
        let w = NR.min(n - j0);
        for (&src, &dst) in in_rows.iter().zip(out_rel) {
            let a_row = &a[src as usize * k..src as usize * k + k];
            let mut acc = [0.0f32; NR];
            match b {
                BOperand::Dense(bd) => {
                    for (kk, &aval) in a_row.iter().enumerate() {
                        if aval == 0.0 {
                            continue;
                        }
                        let b_row = &bd[kk * n + j0..kk * n + j0 + w];
                        for (av, bv) in acc.iter_mut().zip(b_row) {
                            *av += aval * bv;
                        }
                    }
                }
                BOperand::Packed(pb) => {
                    // Padded lanes multiply stored zeros into acc[w..],
                    // which is never read back.
                    let panel = pb.panel(j0 / NR);
                    for (kk, &aval) in a_row.iter().enumerate() {
                        if aval == 0.0 {
                            continue;
                        }
                        let b_row = &panel[kk * NR..kk * NR + NR];
                        for (av, bv) in acc.iter_mut().zip(b_row) {
                            *av += aval * bv;
                        }
                    }
                }
            }
            if round_f16 {
                f16_round_trip_slice(kernel, &mut acc[..w]);
            }
            let o = dst as usize * n + j0;
            for (ov, av) in out[o..o + w].iter_mut().zip(&acc[..w]) {
                *ov += av;
            }
        }
        j0 += NR;
    }
}

/// Rounds every element to the nearest binary16 and back (FP16 storage
/// simulation) in one slice sweep.
///
/// The AVX2+F16C path uses the hardware converters, which implement exactly
/// the same round-to-nearest-even semantics as [`Half::from_f32`] for every
/// non-NaN input; blocks containing NaNs fall back to the software
/// converter so NaN payload canonicalization is also identical. The result
/// is therefore bitwise equal to the scalar sweep for *all* inputs.
pub fn f16_round_trip_slice(kernel: Kernel, data: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if use_f16c(kernel) {
        x86::f16_round_trip(data);
        return;
    }
    let _ = kernel;
    for v in data {
        *v = Half::from_f32(*v).to_f32();
    }
}

/// Converts a slice to binary16 storage (bulk [`Half::from_f32`]).
pub fn f16_quantize_slice(kernel: Kernel, src: &[f32], dst: &mut Vec<Half>) {
    dst.clear();
    dst.reserve(src.len());
    #[cfg(target_arch = "x86_64")]
    if use_f16c(kernel) {
        x86::f16_quantize(src, dst);
        return;
    }
    let _ = kernel;
    dst.extend(src.iter().map(|&v| Half::from_f32(v)));
}

/// Expands binary16 storage to `f32` (bulk [`Half::to_f32`]).
pub fn f16_dequantize_slice(kernel: Kernel, src: &[Half], dst: &mut Vec<f32>) {
    dst.clear();
    dst.reserve(src.len());
    #[cfg(target_arch = "x86_64")]
    if use_f16c(kernel) {
        x86::f16_dequantize(src, dst);
        return;
    }
    let _ = kernel;
    dst.extend(src.iter().map(|h| h.to_f32()));
}

/// Symmetric INT8 quantize-dequantize round trip over a slice:
/// `clamp(round(v / scale), -127, 127) * scale` per element, exactly as the
/// scalar [`Int8Quantizer`](crate::quant::Int8Quantizer) computes it
/// (including round-half-away-from-zero, saturation of infinities, and
/// NaN -> 0). The AVX2 path reconstructs `f32::round` from truncate +
/// half-bump, which is exact for every representable input, so results are
/// bitwise identical to the scalar loop.
pub fn int8_round_trip_slice(kernel: Kernel, scale: f32, data: &mut [f32]) {
    debug_assert!(scale.is_finite() && scale > 0.0);
    #[cfg(target_arch = "x86_64")]
    if runnable(kernel, cpu_features()) == Kernel::Avx2 {
        x86::int8_round_trip(scale, data);
        return;
    }
    let _ = kernel;
    for v in data {
        *v = int8_round_trip_scalar(scale, *v);
    }
}

/// One element of the INT8 round trip — the semantic reference shared by
/// the scalar sweep and the vector path's tail loop.
fn int8_round_trip_scalar(scale: f32, v: f32) -> f32 {
    let q = (v / scale).round().clamp(-127.0, 127.0) as i8;
    q as f32 * scale
}

/// The `std::arch` implementations. This is the only module in the crate
/// allowed to use `unsafe`: every function is either `#[target_feature]`
/// (reached only through a public entry point whose kernel passed
/// [`runnable`], which checked [`cpu_features`] for AVX2 first) or plain
/// pointer arithmetic over lengths the safe wrappers validated.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{BOperand, PackedB, LANES, MR, NR};
    use crate::Half;
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_cmp_ps, _mm256_cvtph_ps,
        _mm256_cvtps_ph, _mm256_div_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps,
        _mm256_movemask_ps, _mm256_mul_ps, _mm256_or_ps, _mm256_round_ps, _mm256_set1_ps,
        _mm256_storeu_ps, _mm256_sub_ps, _mm_storeu_si128, _CMP_GE_OQ, _CMP_UNORD_Q,
        _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT, _MM_FROUND_TO_ZERO,
    };

    /// Entry point for the AVX2 GEMM panel.
    pub(super) fn panel(
        a: &[f32],
        b: BOperand<'_>,
        k: usize,
        n: usize,
        row0: usize,
        c_panel: &mut [f32],
    ) {
        // SAFETY: `gemm_panel` dispatches here only after `runnable`
        // confirmed the CPU has AVX2, and after asserting that `a` holds
        // every panel row and B covers k x n.
        unsafe {
            match b {
                BOperand::Dense(bd) => panel_dense_avx2(a, bd, k, n, row0, c_panel),
                BOperand::Packed(pb) => panel_packed_avx2(a, pb, k, n, row0, c_panel),
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2; `a` must hold rows `row0 ..` of `k`
    /// floats for every row of `c`, and `b` must hold `k x n` floats.
    #[target_feature(enable = "avx2")]
    unsafe fn panel_dense_avx2(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        c: &mut [f32],
    ) {
        unsafe { panel_dense_impl(a, b, k, n, row0, c) }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2; `a` must hold rows `row0 ..` of `k`
    /// floats for every row of `c`, and `pb` must be `k x n`.
    #[target_feature(enable = "avx2")]
    unsafe fn panel_packed_avx2(
        a: &[f32],
        pb: &PackedB,
        k: usize,
        n: usize,
        row0: usize,
        c: &mut [f32],
    ) {
        unsafe { panel_packed_impl(a, pb, k, n, row0, c) }
    }

    /// Register block: `R` rows of A against one NR-wide column panel of B.
    ///
    /// `a_rows` holds each A row's base pointer — contiguous matrix rows for
    /// the plain GEMM, or kernel-map-gathered rows for the fused path (the
    /// gather is folded into the loads; there is no materialized A panel).
    /// `b_panel` points at the panel's first row, `b_stride` is the float
    /// distance between consecutive `kk` rows (`n` for dense B, [`NR`] for
    /// packed), `c_ptr` at `C[row][j0]` with row stride `c_stride`.
    ///
    /// # Safety
    ///
    /// Requires AVX2; every `a_rows[i]` must stay
    /// readable for `k` floats, `b_panel` for `k` strides of [`NR`] floats,
    /// and `c_ptr` writable for `R` rows of [`NR`] floats.
    #[inline(always)]
    unsafe fn block_rows<const R: usize>(
        a_rows: [*const f32; R],
        k: usize,
        b_panel: *const f32,
        b_stride: usize,
        c_ptr: *mut f32,
        c_stride: usize,
    ) {
        unsafe {
            let mut acc0 = [_mm256_set1_ps(0.0); R];
            let mut acc1 = [_mm256_set1_ps(0.0); R];
            for i in 0..R {
                acc0[i] = _mm256_loadu_ps(c_ptr.add(i * c_stride));
                acc1[i] = _mm256_loadu_ps(c_ptr.add(i * c_stride + LANES));
            }
            for kk in 0..k {
                let b_row = b_panel.add(kk * b_stride);
                let b0 = _mm256_loadu_ps(b_row);
                let b1 = _mm256_loadu_ps(b_row.add(LANES));
                for i in 0..R {
                    // The zero-skip mirrors the scalar kernel: sparse gather
                    // rows (bmm padding) contribute nothing, and skipping
                    // keeps bitwise parity with the original loop even for
                    // signed zeros.
                    let aval = *a_rows[i].add(kk);
                    if aval != 0.0 {
                        let av = _mm256_set1_ps(aval);
                        acc0[i] = _mm256_add_ps(acc0[i], _mm256_mul_ps(av, b0));
                        acc1[i] = _mm256_add_ps(acc1[i], _mm256_mul_ps(av, b1));
                    }
                }
            }
            for i in 0..R {
                _mm256_storeu_ps(c_ptr.add(i * c_stride), acc0[i]);
                _mm256_storeu_ps(c_ptr.add(i * c_stride + LANES), acc1[i]);
            }
        }
    }

    /// # Safety
    ///
    /// As [`panel_dense_avx2`], whose target-feature context this inlines
    /// into.
    #[inline(always)]
    unsafe fn panel_dense_impl(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        c_panel: &mut [f32],
    ) {
        let rows_here = c_panel.len() / n;
        let full = n / NR;
        let c_base = c_panel.as_mut_ptr();
        for p in 0..full {
            let j0 = p * NR;
            // SAFETY: j0 + NR <= n, so B rows and C rows have NR floats at
            // offset j0; A rows row0..row0+rows_here exist by the caller's
            // slice contract.
            unsafe {
                let b_panel = b.as_ptr().add(j0);
                let a_ptr = a.as_ptr();
                let mut r = 0;
                while r + MR <= rows_here {
                    let rows = std::array::from_fn(|i| a_ptr.add((row0 + r + i) * k));
                    block_rows::<MR>(rows, k, b_panel, n, c_base.add(r * n + j0), n);
                    r += MR;
                }
                while r < rows_here {
                    let rows = [a_ptr.add((row0 + r) * k)];
                    block_rows::<1>(rows, k, b_panel, n, c_base.add(r * n + j0), n);
                    r += 1;
                }
            }
        }
        // Ragged tail columns: the scalar loop, which accumulates each
        // element in the identical order.
        if full * NR < n {
            super::scalar_panel_dense(a, b, k, n, row0, c_panel, full * NR);
        }
    }

    /// # Safety
    ///
    /// As [`panel_packed_avx2`], whose target-feature context this inlines
    /// into.
    #[inline(always)]
    unsafe fn panel_packed_impl(
        a: &[f32],
        pb: &PackedB,
        k: usize,
        n: usize,
        row0: usize,
        c_panel: &mut [f32],
    ) {
        debug_assert_eq!(pb.k, k);
        debug_assert_eq!(pb.n, n);
        let rows_here = c_panel.len() / n;
        let c_base = c_panel.as_mut_ptr();
        for p in 0..n.div_ceil(NR) {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let panel = pb.panel(p);
            if w == NR {
                // SAFETY: full-width panel — NR floats exist at every C row
                // offset j0 and at every packed row.
                unsafe {
                    let a_ptr = a.as_ptr();
                    let mut r = 0;
                    while r + MR <= rows_here {
                        let rows = std::array::from_fn(|i| a_ptr.add((row0 + r + i) * k));
                        block_rows::<MR>(rows, k, panel.as_ptr(), NR, c_base.add(r * n + j0), n);
                        r += MR;
                    }
                    while r < rows_here {
                        let rows = [a_ptr.add((row0 + r) * k)];
                        block_rows::<1>(rows, k, panel.as_ptr(), NR, c_base.add(r * n + j0), n);
                        r += 1;
                    }
                }
            } else {
                // Ragged panel: accumulate full NR lanes (padded B lanes are
                // stored zeros) into a stack tile and copy back only the
                // real columns.
                for r in 0..rows_here {
                    let c_row = &mut c_panel[r * n + j0..r * n + j0 + w];
                    let mut tile = [0.0f32; NR];
                    tile[..w].copy_from_slice(c_row);
                    // SAFETY: the tile is NR floats on the stack and the
                    // packed panel rows are NR floats each.
                    unsafe {
                        let rows = [a.as_ptr().add((row0 + r) * k)];
                        block_rows::<1>(rows, k, panel.as_ptr(), NR, tile.as_mut_ptr(), NR);
                    }
                    c_row.copy_from_slice(&tile[..w]);
                }
            }
        }
    }

    /// AVX2 entry point for the fused gather–GEMM–scatter kernel. Shapes
    /// and indices were validated by the safe wrapper
    /// ([`gemm_gather_scatter`](super::gemm_gather_scatter)).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn fused_rows(
        a: &[f32],
        k: usize,
        in_rows: &[u32],
        b: BOperand<'_>,
        n: usize,
        round_f16: bool,
        out: &mut [f32],
        out_rel: &[u32],
    ) {
        // SAFETY: `gemm_gather_scatter` dispatches here only after
        // `runnable` confirmed the CPU has AVX2.
        unsafe { fused_rows_avx2(a, k, in_rows, b, n, round_f16, out, out_rel) }
    }

    /// Register-tiled fused kernel: [`MR`]-entry groups of map rows against
    /// each full [`NR`]-wide column panel of B, computed into a zeroed
    /// stack tile (A rows loaded straight through the gather indices),
    /// optionally f16-rounded, then added into the scattered output rows.
    /// Ragged tail columns delegate to the scalar loop, which accumulates
    /// each element in the identical order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; every `in_rows` index must name a row of
    /// `a` (`k` floats), every `out_rel` index a row of `out` (`n` floats),
    /// and B must cover `k x n` — the checks `gemm_gather_scatter` makes.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn fused_rows_avx2(
        a: &[f32],
        k: usize,
        in_rows: &[u32],
        b: BOperand<'_>,
        n: usize,
        round_f16: bool,
        out: &mut [f32],
        out_rel: &[u32],
    ) {
        let full = n / NR;
        let a_ptr = a.as_ptr();
        for p in 0..full {
            let j0 = p * NR;
            // SAFETY: j0 + NR <= n for full panels; the safe wrapper bounds-
            // checked every gather index against `a` and every scatter index
            // against `out`, and B covers k x n (packed panels are k x NR).
            unsafe {
                let (b_panel, b_stride) = match b {
                    BOperand::Dense(bd) => (bd.as_ptr().add(j0), n),
                    BOperand::Packed(pb) => (pb.panel(p).as_ptr(), NR),
                };
                let mut r = 0;
                while r + MR <= in_rows.len() {
                    let rows = std::array::from_fn(|i| a_ptr.add(in_rows[r + i] as usize * k));
                    let mut tile = [0.0f32; MR * NR];
                    block_rows::<MR>(rows, k, b_panel, b_stride, tile.as_mut_ptr(), NR);
                    for (i, row) in tile.chunks_mut(NR).enumerate() {
                        if round_f16 {
                            super::f16_round_trip_slice(super::Kernel::Avx2, row);
                        }
                        let o = out_rel[r + i] as usize * n + j0;
                        accumulate_row(&mut out[o..o + NR], row);
                    }
                    r += MR;
                }
                while r < in_rows.len() {
                    let rows = [a_ptr.add(in_rows[r] as usize * k)];
                    let mut tile = [0.0f32; NR];
                    block_rows::<1>(rows, k, b_panel, b_stride, tile.as_mut_ptr(), NR);
                    if round_f16 {
                        super::f16_round_trip_slice(super::Kernel::Avx2, &mut tile);
                    }
                    let o = out_rel[r] as usize * n + j0;
                    accumulate_row(&mut out[o..o + NR], &tile);
                    r += 1;
                }
            }
        }
        if full * NR < n {
            super::scalar_fused_rows(
                super::Kernel::Avx2,
                a,
                k,
                in_rows,
                b,
                n,
                round_f16,
                out,
                out_rel,
                full * NR,
            );
        }
    }

    /// `dst[i] += src[i]` over one output row of the fused kernel: one
    /// independent FP32 add per element, so the bits match the scalar
    /// loop's.
    fn accumulate_row(dst: &mut [f32], src: &[f32]) {
        // SAFETY: only the AVX2 fused kernel calls this, after `runnable`
        // confirmed the CPU has AVX2.
        unsafe { accumulate_row_avx2(dst, src) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn accumulate_row_avx2(dst: &mut [f32], src: &[f32]) {
        let len = dst.len().min(src.len());
        let mut i = 0;
        // SAFETY: i + LANES <= len bounds every load/store below.
        unsafe {
            let s = src.as_ptr();
            let d = dst.as_mut_ptr();
            while i + LANES <= len {
                let sum = _mm256_add_ps(_mm256_loadu_ps(d.add(i)), _mm256_loadu_ps(s.add(i)));
                _mm256_storeu_ps(d.add(i), sum);
                i += LANES;
            }
        }
        for (d, s) in dst[i..len].iter_mut().zip(&src[i..len]) {
            *d += s;
        }
    }

    // The cvtps_ph rounding immediate is a 3-bit field: the
    // round-to-nearest-even selector only (no room for the NO_EXC flag).
    const F16_ROUND: i32 = _MM_FROUND_TO_NEAREST_INT;

    pub(super) fn f16_round_trip(data: &mut [f32]) {
        // SAFETY: callers checked avx2 + f16c.
        unsafe { f16_round_trip_f16c(data) }
    }

    #[target_feature(enable = "avx,f16c")]
    unsafe fn f16_round_trip_f16c(data: &mut [f32]) {
        let len = data.len();
        let mut i = 0;
        while i + LANES <= len {
            // SAFETY: i + LANES <= len.
            unsafe {
                let p = data.as_mut_ptr().add(i);
                let v = _mm256_loadu_ps(p);
                // NaN payloads canonicalize differently in hardware; punt
                // those (rare, fault-path-only) blocks to the software
                // converter so all kernels agree bitwise on every input.
                if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) == 0 {
                    let h = _mm256_cvtps_ph::<F16_ROUND>(v);
                    _mm256_storeu_ps(p, _mm256_cvtph_ps(h));
                } else {
                    for v in &mut data[i..i + LANES] {
                        *v = Half::from_f32(*v).to_f32();
                    }
                }
            }
            i += LANES;
        }
        for v in &mut data[i..] {
            *v = Half::from_f32(*v).to_f32();
        }
    }

    pub(super) fn f16_quantize(src: &[f32], dst: &mut Vec<Half>) {
        // SAFETY: callers checked avx2 + f16c.
        unsafe { f16_quantize_f16c(src, dst) }
    }

    #[target_feature(enable = "avx,f16c")]
    unsafe fn f16_quantize_f16c(src: &[f32], dst: &mut Vec<Half>) {
        let mut i = 0;
        let mut block = [0u16; LANES];
        while i + LANES <= src.len() {
            // SAFETY: i + LANES <= src.len(); `block` is 8 u16 = 128 bits.
            unsafe {
                let v = _mm256_loadu_ps(src.as_ptr().add(i));
                if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) == 0 {
                    let h = _mm256_cvtps_ph::<F16_ROUND>(v);
                    _mm_storeu_si128(block.as_mut_ptr().cast(), h);
                    dst.extend(block.iter().map(|&b| Half::from_bits(b)));
                } else {
                    dst.extend(src[i..i + LANES].iter().map(|&v| Half::from_f32(v)));
                }
            }
            i += LANES;
        }
        dst.extend(src[i..].iter().map(|&v| Half::from_f32(v)));
    }

    pub(super) fn f16_dequantize(src: &[Half], dst: &mut Vec<f32>) {
        // SAFETY: callers checked avx2 + f16c.
        unsafe { f16_dequantize_f16c(src, dst) }
    }

    #[target_feature(enable = "avx,f16c")]
    unsafe fn f16_dequantize_f16c(src: &[Half], dst: &mut Vec<f32>) {
        let mut i = 0;
        let mut out = [0.0f32; LANES];
        while i + LANES <= src.len() {
            let block = &src[i..i + LANES];
            // Hardware ph->ps preserves NaN payloads where the software
            // converter canonicalizes; route NaN blocks to software.
            if block.iter().any(|h| h.to_bits() & 0x7FFF > 0x7C00) {
                dst.extend(block.iter().map(|h| h.to_f32()));
            } else {
                let mut bits = [0u16; LANES];
                for (b, h) in bits.iter_mut().zip(block) {
                    *b = h.to_bits();
                }
                // SAFETY: `bits` is 8 u16 = 128 bits; `out` is 8 f32.
                unsafe {
                    let h = std::arch::x86_64::_mm_loadu_si128(bits.as_ptr().cast());
                    _mm256_storeu_ps(out.as_mut_ptr(), _mm256_cvtph_ps(h));
                }
                dst.extend_from_slice(&out);
            }
            i += LANES;
        }
        dst.extend(src[i..].iter().map(|h| h.to_f32()));
    }

    pub(super) fn int8_round_trip(scale: f32, data: &mut [f32]) {
        // SAFETY: `int8_round_trip_slice` dispatches here only after
        // `runnable` confirmed the CPU has AVX2.
        unsafe { int8_round_trip_avx2(scale, data) }
    }

    /// Vector INT8 round trip, bit-exact against the scalar reference:
    ///
    /// - `round()` (half away from zero) is rebuilt as truncate + bump when
    ///   `|frac| >= 0.5`. `q - trunc(q)` is exact for every f32 (both are
    ///   multiples of `ulp(q)`), and integers below 2^23 step by 1 exactly,
    ///   so the rebuilt rounding never deviates.
    /// - `clamp` maps +-inf to +-127 like `f32::clamp`.
    /// - NaN lanes are zeroed afterwards, matching the scalar `as i8` cast.
    /// - adding `+0.0` post-clamp turns `-0.0` into `+0.0`, matching the
    ///   scalar path's pass through the integer 0.
    #[target_feature(enable = "avx2")]
    unsafe fn int8_round_trip_avx2(scale: f32, data: &mut [f32]) {
        let len = data.len();
        let scale_v = _mm256_set1_ps(scale);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let pos_zero = _mm256_set1_ps(0.0);
        let sign_mask = _mm256_set1_ps(-0.0);
        let lo = _mm256_set1_ps(-127.0);
        let hi = _mm256_set1_ps(127.0);
        let mut i = 0;
        // SAFETY: i + LANES <= len bounds every load/store.
        unsafe {
            let p = data.as_mut_ptr();
            while i + LANES <= len {
                let v = _mm256_loadu_ps(p.add(i));
                let q = _mm256_div_ps(v, scale_v);
                let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(q);
                let frac = _mm256_sub_ps(q, t);
                let frac_abs = _mm256_andnot_ps(sign_mask, frac);
                let bump_mask = _mm256_cmp_ps::<_CMP_GE_OQ>(frac_abs, half);
                let signed_one = _mm256_or_ps(one, _mm256_and_ps(q, sign_mask));
                let rounded = _mm256_add_ps(t, _mm256_and_ps(bump_mask, signed_one));
                let clamped = _mm256_max_ps(_mm256_min_ps(rounded, hi), lo);
                // -0.0 -> +0.0 (x + 0.0 is the identity for every other x).
                let normalized = _mm256_add_ps(clamped, pos_zero);
                let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
                let code = _mm256_andnot_ps(nan, normalized);
                _mm256_storeu_ps(p.add(i), _mm256_mul_ps(code, scale_v));
                i += LANES;
            }
        }
        for v in &mut data[i..] {
            *v = super::int8_round_trip_scalar(scale, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::Int8Quantizer;
    use crate::Matrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn every_kernel() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if cpu_features().avx2 {
            ks.push(Kernel::Avx2);
        }
        ks
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs one full-matrix GEMM (`C += A*B`) through `gemm_panel`.
    fn run_panel(kernel: Kernel, a: &Matrix, b: BOperand<'_>, n: usize, c: &mut Matrix) {
        gemm_panel(kernel, a.as_slice(), b, a.cols(), n, 0, c.as_mut_slice());
    }

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0f32..1.0))
    }

    /// Independent oracle for `C += A * B`: a plain triple loop that walks
    /// `kk` ascending with mul-then-add and skips `a == 0.0` terms — the
    /// per-element contract every kernel must reproduce bit for bit. It
    /// shares no code with the kernels under test.
    fn oracle_accumulate(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                for kk in 0..a.cols() {
                    let av = a[(i, kk)];
                    if av != 0.0 {
                        c[(i, j)] += av * b[(kk, j)];
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_runs_only_on_cpus_that_have_it() {
        let none = CpuFeatures { avx2: false, fma: false, f16c: false };
        let with_avx2 = CpuFeatures { avx2: true, fma: false, f16c: false };
        assert_eq!(runnable(Kernel::Avx2, none), Kernel::Scalar);
        assert_eq!(runnable(Kernel::Scalar, none), Kernel::Scalar);
        assert_eq!(runnable(Kernel::Avx2, with_avx2), Kernel::Avx2);
        assert_eq!(runnable(Kernel::Scalar, with_avx2), Kernel::Scalar);
        let expect = if cpu_features().avx2 { Kernel::Avx2 } else { Kernel::Scalar };
        assert_eq!(active(), expect);
    }

    #[test]
    fn packed_round_trip_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(k, n) in &[(1, 1), (3, 16), (5, 17), (8, 48), (13, 100), (64, 1), (0, 5)] {
            let b = random_matrix(&mut rng, k, n);
            let packed = PackedB::pack(&b);
            assert_eq!(packed.k(), k);
            assert_eq!(packed.n(), n);
            assert_eq!(bits(&packed.unpack()), bits(&b), "({k},{n})");
        }
    }

    #[test]
    fn all_kernels_bitwise_equal_dense_and_packed() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 16),
            (5, 3, 17),   // ragged tail columns
            (7, 16, 31),  // ragged rows and columns
            (64, 32, 64), // full tiles
            (9, 0, 8),    // k = 0
            (6, 1, 24),   // k = 1
        ] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let packed = PackedB::pack(&b);
            let mut reference = Matrix::zeros(m, n);
            oracle_accumulate(&a, &b, &mut reference);
            for kernel in every_kernel() {
                for (label, operand) in [
                    ("dense", BOperand::Dense(b.as_slice())),
                    ("packed", BOperand::Packed(&packed)),
                ] {
                    let mut c = Matrix::zeros(m, n);
                    run_panel(kernel, &a, operand, n, &mut c);
                    assert_eq!(
                        bits(&c),
                        bits(&reference),
                        "{} {label} ({m},{k},{n})",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_accumulate_into_existing_c() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_matrix(&mut rng, 6, 9);
        let b = random_matrix(&mut rng, 9, 20);
        let packed = PackedB::pack(&b);
        let seed = random_matrix(&mut rng, 6, 20);
        let mut reference = seed.clone();
        oracle_accumulate(&a, &b, &mut reference);
        for kernel in every_kernel() {
            for operand in [BOperand::Dense(b.as_slice()), BOperand::Packed(&packed)] {
                let mut c = seed.clone();
                run_panel(kernel, &a, operand, 20, &mut c);
                assert_eq!(bits(&c), bits(&reference), "{}", kernel.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "A holds every panel row")]
    fn gemm_panel_rejects_a_shorter_than_the_panel() {
        let b = Matrix::zeros(4, 16);
        let mut c = vec![0.0f32; 2 * 16];
        gemm_panel(active(), &[1.0; 4], BOperand::Dense(b.as_slice()), 4, 16, 0, &mut c);
    }

    #[test]
    #[should_panic]
    fn gemm_panel_rejects_packed_b_of_another_depth() {
        let pb = PackedB::pack(&Matrix::zeros(2, 16));
        let mut c = vec![0.0f32; 16];
        gemm_panel(active(), &[1.0; 4], BOperand::Packed(&pb), 4, 16, 0, &mut c);
    }

    #[test]
    fn zero_rows_in_a_are_skipped_consistently() {
        // Padded bmm rows are all-zero; every kernel must leave C untouched
        // for them, exactly like the scalar zero-skip.
        let mut rng = StdRng::seed_from_u64(17);
        let mut a = random_matrix(&mut rng, 8, 6);
        for j in 0..6 {
            a[(3, j)] = 0.0;
            a[(7, j)] = 0.0;
        }
        let b = random_matrix(&mut rng, 6, 19);
        let packed = PackedB::pack(&b);
        let mut reference = Matrix::zeros(8, 19);
        oracle_accumulate(&a, &b, &mut reference);
        for kernel in every_kernel() {
            for operand in [BOperand::Dense(b.as_slice()), BOperand::Packed(&packed)] {
                let mut c = Matrix::zeros(8, 19);
                run_panel(kernel, &a, operand, 19, &mut c);
                assert_eq!(bits(&c), bits(&reference), "{}", kernel.name());
            }
        }
    }

    /// Unfused reference for the fused kernel: materialized gather, the
    /// oracle GEMM into a zeroed psum buffer, optional per-element f16 psum
    /// rounding, then scatter accumulation — the exact sequence
    /// `gemm_gather_scatter` folds away.
    fn fused_reference(
        a: &Matrix,
        b: &Matrix,
        entries: &[(u32, u32)],
        n_out: usize,
        round_f16: bool,
    ) -> Matrix {
        let (k, n) = b.shape();
        let mut gathered = Matrix::zeros(entries.len(), k);
        for (i, &(src, _)) in entries.iter().enumerate() {
            gathered.row_mut(i).copy_from_slice(a.row(src as usize));
        }
        let mut psum = Matrix::zeros(entries.len(), n);
        oracle_accumulate(&gathered, b, &mut psum);
        if round_f16 {
            for v in psum.as_mut_slice() {
                *v = Half::from_f32(*v).to_f32();
            }
        }
        let mut out = Matrix::zeros(n_out, n);
        for (i, &(_, dst)) in entries.iter().enumerate() {
            for (o, p) in out.row_mut(dst as usize).iter_mut().zip(psum.row(i)) {
                *o += p;
            }
        }
        out
    }

    fn run_fused(
        kernel: Kernel,
        a: &Matrix,
        b: BOperand<'_>,
        n: usize,
        entries: &[(u32, u32)],
        n_out: usize,
        round_f16: bool,
    ) -> Matrix {
        let in_rows: Vec<u32> = entries.iter().map(|&(s, _)| s).collect();
        let out_rel: Vec<u32> = entries.iter().map(|&(_, d)| d).collect();
        let mut out = Matrix::zeros(n_out, n);
        gemm_gather_scatter(
            kernel,
            a.as_slice(),
            a.cols(),
            &in_rows,
            b,
            n,
            round_f16,
            out.as_mut_slice(),
            &out_rel,
        );
        out
    }

    #[test]
    fn fused_matches_gather_gemm_scatter_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(m_in, k, n, n_out, n_entries) in &[
            (10usize, 8usize, 16usize, 10usize, 10usize),
            (20, 4, 32, 12, 17),  // skinny k, MR-ragged entry count
            (15, 16, 31, 15, 15), // ragged tail columns
            (8, 3, 7, 9, 5),      // below one panel
            (30, 32, 64, 30, 64), // full tiles
            (6, 1, 24, 6, 3),     // k = 1
        ] {
            let a = random_matrix(&mut rng, m_in, k);
            let b = random_matrix(&mut rng, k, n);
            let packed = PackedB::pack(&b);
            let entries: Vec<(u32, u32)> = (0..n_entries)
                .map(|_| (rng.random_range(0..m_in as u32), rng.random_range(0..n_out as u32)))
                .collect();
            for round_f16 in [false, true] {
                let reference = fused_reference(&a, &b, &entries, n_out, round_f16);
                for kernel in every_kernel() {
                    for (label, operand) in [
                        ("dense", BOperand::Dense(b.as_slice())),
                        ("packed", BOperand::Packed(&packed)),
                    ] {
                        let out = run_fused(kernel, &a, operand, n, &entries, n_out, round_f16);
                        assert_eq!(
                            bits(&out),
                            bits(&reference),
                            "{} {label} ({m_in},{k},{n}) round={round_f16}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_skips_zero_gather_rows_like_the_scalar_loop() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut a = random_matrix(&mut rng, 9, 6);
        for j in 0..6 {
            a[(2, j)] = 0.0;
        }
        let b = random_matrix(&mut rng, 6, 19);
        let packed = PackedB::pack(&b);
        let entries: Vec<(u32, u32)> = vec![(2, 0), (5, 0), (2, 3), (8, 2)];
        let reference = fused_reference(&a, &b, &entries, 4, false);
        for kernel in every_kernel() {
            for operand in [BOperand::Dense(b.as_slice()), BOperand::Packed(&packed)] {
                let out = run_fused(kernel, &a, operand, 19, &entries, 4, false);
                assert_eq!(bits(&out), bits(&reference), "{}", kernel.name());
            }
        }
    }

    #[test]
    fn f16_round_trip_slice_matches_scalar_exhaustively() {
        // Every binary16 value expands to an f32 the round trip must fix.
        let inputs: Vec<f32> = (0..=u16::MAX).map(|b| Half::from_bits(b).to_f32()).collect();
        for kernel in every_kernel() {
            let mut data = inputs.clone();
            f16_round_trip_slice(kernel, &mut data);
            for (v, orig) in data.iter().zip(&inputs) {
                assert!(
                    v.to_bits() == orig.to_bits() || (v.is_nan() && orig.is_nan()),
                    "{}: {orig:?} -> {v:?}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn f16_conversions_match_scalar_on_hard_cases() {
        // Rounding boundaries, subnormals, overflow, signed zero, NaN/inf.
        let mut cases: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            65504.0,
            65520.0, // rounds to +inf in f16
            65519.9,
            -65520.0,
            5.960_464_5e-8,     // half the smallest f16 subnormal (ties to even)
            5.960_465e-8,       // just above -> smallest subnormal
            6.103_515_6e-5,     // smallest f16 normal
            6.097_555e-5,       // largest f16 subnormal
            1.0 + 1.0 / 2048.0, // exact tie -> even mantissa
            1.0 + 3.0 / 2048.0, // exact tie -> rounds up to even
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            1e-40, // f32 subnormal -> f16 zero
        ];
        let mut rng = StdRng::seed_from_u64(23);
        cases.extend((0..4096).map(|_| f32::from_bits(rng.random_range(0u32..=u32::MAX))));
        let reference: Vec<Half> = cases.iter().map(|&v| Half::from_f32(v)).collect();
        for kernel in every_kernel() {
            let mut quantized = Vec::new();
            f16_quantize_slice(kernel, &cases, &mut quantized);
            assert_eq!(quantized.len(), reference.len());
            for (i, (q, r)) in quantized.iter().zip(&reference).enumerate() {
                assert_eq!(q.to_bits(), r.to_bits(), "{} case {i} = {:?}", kernel.name(), cases[i]);
            }
            let mut expanded = Vec::new();
            f16_dequantize_slice(kernel, &reference, &mut expanded);
            let expect: Vec<f32> = reference.iter().map(|h| h.to_f32()).collect();
            for (i, (e, r)) in expanded.iter().zip(&expect).enumerate() {
                assert_eq!(e.to_bits(), r.to_bits(), "{} dequant case {i}", kernel.name());
            }
        }
    }

    #[test]
    fn int8_round_trip_matches_scalar_on_hard_cases() {
        let scale = 0.05f32;
        let q = Int8Quantizer::with_scale(scale);
        let mut cases: Vec<f32> = vec![
            0.0,
            -0.0,
            0.024_999,
            0.025, // exact half step -> away from zero
            -0.025,
            1e9,
            -1e9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            6.35,
            -6.35,
            scale * 126.5, // tie at the clamp edge
        ];
        let mut rng = StdRng::seed_from_u64(29);
        cases.extend((0..8192).map(|_| f32::from_bits(rng.random_range(0u32..=u32::MAX))));
        let expect: Vec<f32> = cases.iter().map(|&v| q.dequantize(q.quantize(v))).collect();
        for kernel in every_kernel() {
            let mut data = cases.clone();
            int8_round_trip_slice(kernel, scale, &mut data);
            for (i, (d, e)) in data.iter().zip(&expect).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    e.to_bits(),
                    "{} case {i}: {:?} -> {d:?} want {e:?}",
                    kernel.name(),
                    cases[i]
                );
            }
        }
    }

    proptest! {
        /// Arbitrary shapes — including ragged tails (`n % NR != 0`,
        /// `rows % MR != 0`) and degenerate `k` — are bitwise identical
        /// across both kernels and both B layouts.
        #[test]
        fn prop_kernels_bitwise_equal(
            m in 1usize..40, k in 0usize..24, n in 1usize..40, seed in 0u64..500
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let packed = PackedB::pack(&b);
            let mut reference = Matrix::zeros(m, n);
            oracle_accumulate(&a, &b, &mut reference);
            for kernel in every_kernel() {
                for operand in [BOperand::Dense(b.as_slice()), BOperand::Packed(&packed)] {
                    let mut c = Matrix::zeros(m, n);
                    run_panel(kernel, &a, operand, n, &mut c);
                    prop_assert!(
                        bits(&c) == bits(&reference),
                        "{} ({},{},{})", kernel.name(), m, k, n
                    );
                }
            }
        }

        /// The INT8 vector sweep is bit-exact for arbitrary f32 bit
        /// patterns, NaN and infinities included.
        #[test]
        fn prop_int8_round_trip_bit_exact(
            raw in proptest::collection::vec(0u32..u32::MAX, 1..64),
            scale_mil in 1u32..100_000,
        ) {
            let scale = scale_mil as f32 * 1e-4;
            let q = Int8Quantizer::with_scale(scale);
            let vals: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b)).collect();
            let expect: Vec<u32> =
                vals.iter().map(|&v| q.dequantize(q.quantize(v)).to_bits()).collect();
            for kernel in every_kernel() {
                let mut data = vals.clone();
                int8_round_trip_slice(kernel, scale, &mut data);
                let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                prop_assert!(got == expect, "{}", kernel.name());
            }
        }

        /// The F16 round trip is bit-exact for arbitrary bit patterns
        /// (NaNs compare as both-NaN: payloads are canonicalized equally).
        #[test]
        fn prop_f16_round_trip_bit_exact(
            raw in proptest::collection::vec(0u32..u32::MAX, 1..64),
        ) {
            let vals: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b)).collect();
            let expect: Vec<u32> =
                vals.iter().map(|&v| Half::from_f32(v).to_f32().to_bits()).collect();
            for kernel in every_kernel() {
                let mut data = vals.clone();
                f16_round_trip_slice(kernel, &mut data);
                let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                prop_assert!(got == expect, "{}", kernel.name());
            }
        }
    }
}
