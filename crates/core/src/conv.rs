use crate::config::{GroupingStrategy, Precision};
use crate::context::{CachedMap, Context, LayerWorkload, MapKey};
use crate::dataflow::{
    apply_storage_precision_owned_kernel, config_kernel, run_fetch_on_demand,
    run_gather_matmul_scatter, ConvWorkload, FusedOrder,
};
use crate::faults::FaultSite;
use crate::grouping::plan_groups;
use crate::mapping::{build_layer_mapping_observed_on, compact_cached_index};
use crate::module::Module;
use crate::plan::{ConvDataflow, ConvPlan, LayerOp, Tracer};
use crate::{CoreError, SparseTensor};
use std::sync::{Arc, OnceLock};
use torchsparse_coords::{offsets, Coord};
use torchsparse_gpusim::Stage;
use torchsparse_tensor::{Matrix, PackedB};

/// A sparse 3D convolution layer (`torchsparse.nn.Conv3d`).
///
/// Three flavors, selected by `stride`/`transposed`:
///
/// - **submanifold** (`stride == 1`): outputs at exactly the input sites;
/// - **strided downsampling** (`stride > 1`): output coordinates computed by
///   Algorithm 3;
/// - **transposed/inverse** (`transposed == true`): upsamples back to the
///   coordinates of the matching downsampling layer by reusing its cached
///   map with inputs and outputs swapped — no `indice_key` bookkeeping is
///   required of the user (§4.1).
///
/// # Example
///
/// ```
/// use torchsparse_core::SparseConv3d;
///
/// let conv = SparseConv3d::with_random_weights("conv1", 4, 16, 3, 1, 42);
/// assert_eq!(conv.c_in(), 4);
/// assert_eq!(conv.c_out(), 16);
/// assert!(!conv.transposed());
/// ```
pub struct SparseConv3d {
    name: String,
    c_in: usize,
    c_out: usize,
    kernel_size: usize,
    stride: i32,
    dilation: i32,
    transposed: bool,
    weights: Vec<Matrix>,
    /// Panel-major packed copies of `weights`, built lazily on first plan
    /// and shared with every [`ConvPlan`] via `Arc`. Weights are immutable
    /// after construction, so the pack is computed at most once.
    packed: OnceLock<Arc<Vec<PackedB>>>,
}

/// A tiny deterministic generator for weight initialization (keeps the core
/// crate free of a `rand` dependency).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SparseConv3d {
    /// Creates a convolution with explicit per-offset weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadWeightCount`] when `weights.len()` is not
    /// `kernel_size^3` and [`CoreError::Tensor`] on a shape mismatch.
    pub fn new(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        kernel_size: usize,
        stride: i32,
        transposed: bool,
        weights: Vec<Matrix>,
    ) -> Result<SparseConv3d, CoreError> {
        let volume = offsets::kernel_volume(kernel_size);
        if weights.len() != volume {
            return Err(CoreError::BadWeightCount { expected: volume, actual: weights.len() });
        }
        for w in &weights {
            if w.shape() != (c_in, c_out) {
                return Err(CoreError::Tensor(torchsparse_tensor::TensorError::ShapeMismatch {
                    op: "conv_weights",
                    lhs: w.shape(),
                    rhs: (c_in, c_out),
                }));
            }
        }
        Ok(SparseConv3d {
            name: name.into(),
            c_in,
            c_out,
            kernel_size,
            stride,
            dilation: 1,
            transposed,
            weights,
            packed: OnceLock::new(),
        })
    }

    /// Creates a convolution with Kaiming-style random weights from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_size == 0` (a configuration bug, not input data).
    pub fn with_random_weights(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        kernel_size: usize,
        stride: i32,
        seed: u64,
    ) -> SparseConv3d {
        assert!(kernel_size > 0, "kernel size must be positive");
        let volume = offsets::kernel_volume(kernel_size);
        let fan_in = (c_in * volume) as f32;
        let scale = (2.0 / fan_in).sqrt();
        let mut state = seed;
        let weights = (0..volume)
            .map(|_| {
                Matrix::from_fn(c_in, c_out, |_, _| {
                    // Uniform in [-scale, scale].
                    let u = (splitmix64(&mut state) >> 11) as f32 / (1u64 << 53) as f32;
                    (2.0 * u - 1.0) * scale
                })
            })
            .collect();
        // `new` only rejects weight shape mismatches; the weights above are
        // constructed with exactly `volume` matrices of `c_in x c_out`.
        #[allow(clippy::expect_used)]
        SparseConv3d::new(name, c_in, c_out, kernel_size, stride, false, weights)
            .expect("constructed weights are consistent")
    }

    /// Marks the convolution as transposed (inverse), builder style.
    #[must_use]
    pub fn into_transposed(mut self) -> SparseConv3d {
        self.transposed = true;
        self
    }

    /// Sets the dilation factor (builder style). Only stride-1,
    /// non-transposed convolutions may be dilated.
    ///
    /// # Panics
    ///
    /// Panics if `dilation < 1`, or if the layer is strided or transposed.
    #[must_use]
    pub fn with_dilation(mut self, dilation: i32) -> SparseConv3d {
        assert!(dilation >= 1, "dilation must be at least 1");
        assert!(
            self.stride == 1 && !self.transposed || dilation == 1,
            "dilation requires a stride-1 non-transposed convolution"
        );
        self.dilation = dilation;
        self
    }

    /// The dilation factor.
    pub fn dilation(&self) -> i32 {
        self.dilation
    }

    /// Input channels.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channels.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Kernel size.
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Convolution stride.
    pub fn stride(&self) -> i32 {
        self.stride
    }

    /// Whether this is a transposed (inverse) convolution.
    pub fn transposed(&self) -> bool {
        self.transposed
    }

    /// Whether this layer is a stride-1 submanifold convolution with an odd
    /// kernel (the case with identity center map and mirror symmetry).
    pub fn is_submanifold(&self) -> bool {
        self.stride == 1 && !self.transposed && self.kernel_size % 2 == 1
    }

    /// Stable per-layer tuning key (name).
    pub fn layer_name(&self) -> &str {
        &self.name
    }

    /// The per-offset weights.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// The per-offset weights in the microkernel's panel-major packed
    /// layout, built on first use and cached for the layer's lifetime.
    pub(crate) fn packed_weights(&self) -> Arc<Vec<PackedB>> {
        Arc::clone(
            self.packed.get_or_init(|| Arc::new(self.weights.iter().map(PackedB::pack).collect())),
        )
    }

    /// Acquires the kernel map and output coordinates, via the cache when
    /// possible.
    fn acquire_map(
        &self,
        coords: &[Coord],
        in_stride: i32,
        ctx: &mut Context,
    ) -> Result<(Arc<CachedMap>, bool), CoreError> {
        if self.transposed {
            let fine_stride = in_stride / self.stride;
            let key = MapKey {
                fine_stride,
                kernel_size: self.kernel_size,
                conv_stride: self.stride,
                dilation: self.dilation,
            };
            return ctx.cached_map(key).map(|m| (m, true)).ok_or(CoreError::MissingCachedMap {
                stride: in_stride,
                kernel_size: self.kernel_size,
            });
        }
        let key = MapKey {
            fine_stride: in_stride,
            kernel_size: self.kernel_size,
            conv_stride: self.stride,
            dilation: self.dilation,
        };
        if let Some(hit) = ctx.cached_map(key) {
            // Map reuse across layers sharing (stride, kernel): free, as in
            // real engines' coordinate managers. An injected cache fault
            // invalidates the entry; the map is an optimization, not a
            // correctness dependency, so the fallback is a plain rebuild.
            if !ctx.faults.should_fail(FaultSite::KernelMapCache) {
                return Ok((hit, true));
            }
            ctx.degradation
                .record(FaultSite::KernelMapCache, "injected cache invalidation; map rebuilt");
        }
        let mapping = {
            let Context { config, device, faults, degradation, runtime, .. } = ctx;
            build_layer_mapping_observed_on(
                &runtime.pool(),
                coords,
                self.kernel_size,
                self.stride,
                self.dilation,
                config,
                device,
                faults,
                degradation,
            )?
        };
        ctx.timeline.add(Stage::Mapping, mapping.latency);
        let cached = CachedMap {
            map: mapping.map,
            fine_coords: coords.to_vec(),
            coarse_coords: mapping.out_coords,
            index: compact_cached_index(mapping.index, coords, &ctx.config),
        };
        Ok((ctx.store_map(key, cached), false))
    }

    /// The plan half: derives everything this layer needs from input
    /// *geometry* alone — kernel map (built or cached), output coordinates
    /// and stride, and the frozen dataflow/grouping decision. Charges only
    /// the `Mapping` stage.
    pub(crate) fn plan(
        &self,
        coords: &[Coord],
        in_stride: i32,
        in_channels: usize,
        ctx: &mut Context,
    ) -> Result<ConvPlan, CoreError> {
        if in_channels != self.c_in {
            return Err(CoreError::ChannelMismatch { expected: self.c_in, actual: in_channels });
        }
        if coords.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        let (cached, _was_hit) = self.acquire_map(coords, in_stride, ctx)?;
        // For a transposed conv the map is flipped: entries run coarse -> fine.
        let (flipped, use_fine, out_stride) = if self.transposed {
            (Some(cached.map.transposed()), true, in_stride / self.stride)
        } else if self.stride > 1 {
            (None, false, in_stride * self.stride)
        } else {
            (None, true, in_stride)
        };

        let submanifold = self.is_submanifold();
        let center = if submanifold { offsets::center_index(self.kernel_size) } else { None };

        let map_ref = match &flipped {
            Some(m) => m,
            None => &cached.map,
        };
        // The compile-time policy search may have selected a full execution
        // policy for this layer; its grouping choice outranks the grouping
        // and `(epsilon, S)` resolution below.
        let policy = ctx.policy_for(&self.name);
        // Fetch-on-demand when configured and the workload is small.
        let avg_map = map_ref.total_entries() / map_ref.num_offsets().max(1);
        let use_fod = ctx.config.fetch_on_demand_below.is_some_and(|t| avg_map < t);
        let dataflow = if use_fod {
            ConvDataflow::FetchOnDemand
        } else {
            // Grouping strategy: a tuned policy wins, then per-layer tuned
            // `(epsilon, S)` parameters if present; after a tuning failure
            // adaptive layers degrade to fixed groups.
            let strategy = match (policy.map(|p| p.grouping), ctx.tuned_for(&self.name)) {
                (Some(GroupingStrategy::Adaptive { .. }), _) | (None, _)
                    if ctx.grouping_fallback
                        && matches!(ctx.config.grouping, GroupingStrategy::Adaptive { .. }) =>
                {
                    GroupingStrategy::Fixed
                }
                (Some(s), _) => s,
                (None, Some((epsilon, s_threshold)))
                    if matches!(ctx.config.grouping, GroupingStrategy::Adaptive { .. }) =>
                {
                    GroupingStrategy::Adaptive { epsilon, s_threshold }
                }
                (None, _) => ctx.config.grouping,
            };
            ConvDataflow::Grouped(plan_groups(&map_ref.sizes(), submanifold, strategy))
        };

        // Plan-time locality reordering: sort each offset's entries by
        // output row once per geometry, so every frame executed against
        // this plan streams cache-friendly panels without rebuilding any
        // index. The per-offset work runs on the
        // worker pool — plan builds are on the serial critical path of
        // compiled sessions.
        let fused = {
            let n_out =
                if use_fine { cached.fine_coords.len() } else { cached.coarse_coords.len() };
            match policy {
                Some(p) => Arc::new(FusedOrder::build_on_chunked(
                    &ctx.runtime.pool(),
                    map_ref,
                    n_out,
                    p.chunk_rows,
                )),
                None => Arc::new(FusedOrder::build_on(&ctx.runtime.pool(), map_ref, n_out)),
            }
        };

        Ok(ConvPlan {
            cached,
            flipped,
            use_fine,
            out_stride,
            center,
            submanifold,
            dataflow,
            packed: self.packed_weights(),
            fused,
            policy,
        })
    }

    /// The execute half: runs only the feature path (gather/matmul/scatter
    /// or fetch-on-demand, plus quantization and overflow fallback) against
    /// a frozen [`ConvPlan`]. Never builds maps or plans groups.
    pub(crate) fn execute_planned(
        &self,
        input: &SparseTensor,
        plan: &ConvPlan,
        ctx: &mut Context,
    ) -> Result<SparseTensor, CoreError> {
        if input.channels() != self.c_in {
            return Err(CoreError::ChannelMismatch {
                expected: self.c_in,
                actual: input.channels(),
            });
        }
        if input.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        ctx.charge_host_op();

        let map_ref = plan.map();
        let out_coords = plan.out_coords();

        if ctx.record_workloads {
            ctx.workloads.push(LayerWorkload {
                name: self.name.clone(),
                map_sizes: map_ref.sizes(),
                c_in: self.c_in,
                c_out: self.c_out,
                submanifold: plan.submanifold,
            });
        }

        let workload = ConvWorkload {
            in_feats: input.feats(),
            weights: &self.weights,
            packed: Some(&plan.packed),
            map: map_ref,
            n_out: out_coords.len(),
            center_identity: plan.center,
            fused: &plan.fused,
            policy: plan.policy,
        };

        let run_dataflow = |ctx: &mut Context| -> Result<Matrix, CoreError> {
            match &plan.dataflow {
                ConvDataflow::FetchOnDemand => Ok(run_fetch_on_demand(&workload, ctx)),
                ConvDataflow::Grouped(groups) => run_gather_matmul_scatter(&workload, groups, ctx),
            }
        };

        let mut out_feats = apply_storage_precision_owned_kernel(
            &ctx.runtime.pool(),
            run_dataflow(ctx)?,
            ctx.config.precision,
            config_kernel(&ctx.config),
        );
        if ctx.config.precision != Precision::Fp32 {
            if !out_feats.is_empty() && ctx.faults.should_fail(FaultSite::Fp16Overflow) {
                // Simulate a quantized activation saturating to infinity;
                // detection below then takes the same path as an organic
                // overflow.
                out_feats.as_mut_slice()[0] = f32::INFINITY;
            }
            if !out_feats.par_is_finite(&ctx.runtime.pool()) {
                ctx.degradation.record(
                    FaultSite::Fp16Overflow,
                    "non-finite quantized output; layer re-run in FP32",
                );
                let saved = ctx.config.precision;
                ctx.config.precision = Precision::Fp32;
                let redo = run_dataflow(ctx);
                ctx.config.precision = saved;
                // The re-run output stays FP32: precision is a storage
                // optimization, and this layer just proved it loses too much.
                out_feats = redo?;
            }
        }
        SparseTensor::with_stride(out_coords.to_vec(), out_feats, plan.out_stride)
    }
}

impl std::fmt::Debug for SparseConv3d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseConv3d")
            .field("name", &self.name)
            .field("c_in", &self.c_in)
            .field("c_out", &self.c_out)
            .field("kernel_size", &self.kernel_size)
            .field("stride", &self.stride)
            .field("transposed", &self.transposed)
            .finish()
    }
}

impl Module for SparseConv3d {
    /// Plan-then-execute: derives the geometric plan (map, output
    /// coordinates, grouping) and immediately runs the feature path against
    /// it. [`CompiledSession`](crate::CompiledSession) calls the two halves
    /// separately to amortize planning across frames.
    fn forward(&self, input: &SparseTensor, ctx: &mut Context) -> Result<SparseTensor, CoreError> {
        let profile_start = ctx.start_layer_profile();
        let plan = self.plan(input.coords(), input.stride(), input.channels(), ctx)?;
        let out = self.execute_planned(input, &plan, ctx)?;
        ctx.finish_layer_profile(&self.name, input.len(), profile_start);
        Ok(out)
    }

    fn trace<'m>(&'m self, tracer: &mut Tracer<'m>) -> Result<(), CoreError> {
        tracer.push(LayerOp::Conv(self));
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        self.weights.len() * self.c_in * self.c_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationConfig;
    use torchsparse_coords::Coord;
    use torchsparse_gpusim::DeviceProfile;

    fn ctx() -> Context {
        Context::new(OptimizationConfig::torchsparse(), DeviceProfile::rtx_2080ti())
    }

    fn input(c: usize) -> SparseTensor {
        let coords: Vec<Coord> = (0..20)
            .map(|i| Coord::new(0, i % 5, (i / 5) % 4, i % 3))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let feats = Matrix::from_fn(coords.len(), c, |r, cc| ((r + cc) % 7) as f32 - 3.0);
        SparseTensor::new(coords, feats).unwrap()
    }

    #[test]
    fn weight_count_validated() {
        let err =
            SparseConv3d::new("c", 2, 2, 3, 1, false, vec![Matrix::zeros(2, 2); 26]).unwrap_err();
        assert!(matches!(err, CoreError::BadWeightCount { expected: 27, actual: 26 }));
    }

    #[test]
    fn weight_shape_validated() {
        let err = SparseConv3d::new("c", 2, 2, 1, 1, false, vec![Matrix::zeros(2, 3)]).unwrap_err();
        assert!(matches!(err, CoreError::Tensor(_)));
    }

    #[test]
    fn channel_mismatch_rejected() {
        let conv = SparseConv3d::with_random_weights("c", 8, 4, 3, 1, 0);
        let mut c = ctx();
        assert!(matches!(
            conv.forward(&input(4), &mut c),
            Err(CoreError::ChannelMismatch { expected: 8, actual: 4 })
        ));
    }

    #[test]
    fn submanifold_preserves_coords_and_stride() {
        let conv = SparseConv3d::with_random_weights("c", 4, 8, 3, 1, 1);
        let mut c = ctx();
        let x = input(4);
        let y = conv.forward(&x, &mut c).unwrap();
        assert_eq!(y.coords(), x.coords());
        assert_eq!(y.stride(), 1);
        assert_eq!(y.channels(), 8);
    }

    #[test]
    fn downsample_coarsens() {
        let conv = SparseConv3d::with_random_weights("d", 4, 8, 2, 2, 2);
        let mut c = ctx();
        let x = input(4);
        let y = conv.forward(&x, &mut c).unwrap();
        assert!(y.len() < x.len());
        assert_eq!(y.stride(), 2);
    }

    #[test]
    fn transposed_restores_coords() {
        let down = SparseConv3d::with_random_weights("d", 4, 8, 2, 2, 3);
        let up = SparseConv3d::with_random_weights("u", 8, 4, 2, 2, 4).into_transposed();
        let mut c = ctx();
        let x = input(4);
        let mid = down.forward(&x, &mut c).unwrap();
        let y = up.forward(&mid, &mut c).unwrap();
        assert_eq!(y.coords(), x.coords());
        assert_eq!(y.stride(), 1);
        assert_eq!(y.channels(), 4);
    }

    #[test]
    fn transposed_without_cache_fails() {
        let up = SparseConv3d::with_random_weights("u", 4, 4, 2, 2, 5).into_transposed();
        let mut c = ctx();
        let x = SparseTensor::with_stride(input(4).coords().to_vec(), input(4).feats().clone(), 2)
            .unwrap();
        assert!(matches!(up.forward(&x, &mut c), Err(CoreError::MissingCachedMap { .. })));
    }

    #[test]
    fn map_cache_hit_skips_mapping_cost() {
        let conv1 = SparseConv3d::with_random_weights("a", 4, 4, 3, 1, 6);
        let conv2 = SparseConv3d::with_random_weights("b", 4, 4, 3, 1, 7);
        let mut c = ctx();
        let x = input(4);
        let y = conv1.forward(&x, &mut c).unwrap();
        let after_first = c.timeline.stage(Stage::Mapping);
        conv2.forward(&y, &mut c).unwrap();
        let after_second = c.timeline.stage(Stage::Mapping);
        assert_eq!(after_first, after_second, "second conv must reuse the cached map");
    }

    #[test]
    fn outputs_identical_across_engines_fp32() {
        // All FP32 engine presets compute numerically identical outputs.
        let conv = SparseConv3d::with_random_weights("c", 4, 6, 3, 1, 8);
        let x = input(4);
        let mut reference: Option<Matrix> = None;
        for cfg in [
            OptimizationConfig::baseline_fp32(),
            OptimizationConfig::minkowski_engine(),
            OptimizationConfig::spconv_fp32(),
        ] {
            let mut c = Context::new(cfg, DeviceProfile::rtx_2080ti());
            let y = conv.forward(&x, &mut c).unwrap();
            match &reference {
                None => reference = Some(y.feats().clone()),
                Some(r) => {
                    let diff = y.feats().max_abs_diff(r).unwrap();
                    assert!(diff < 1e-4, "preset output differs by {diff}");
                }
            }
        }
    }

    #[test]
    fn kernel_21_keeps_the_superaccumulator_and_stays_bitwise_stable() {
        use crate::dataflow::ExactPath;
        // Volume 9261 is past the 2^13 addends an f64 lane sums exactly,
        // so even FP16 partial sums must take the superaccumulator.
        let conv = SparseConv3d::with_random_weights("k21", 4, 3, 21, 1, 12);
        let x = input(4);
        let volume = conv.plan(x.coords(), 1, 4, &mut ctx()).unwrap().map().num_offsets();
        assert_eq!(volume, 9261);
        assert_eq!(ExactPath::select(true, volume), ExactPath::Superaccumulator);
        assert_eq!(ExactPath::select(true, 27), ExactPath::Binary16Lanes);
        assert_eq!(ExactPath::select(false, 27), ExactPath::Superaccumulator);
        let mut reference: Option<Vec<u32>> = None;
        for threads in [1, 8] {
            let mut cfg = OptimizationConfig::torchsparse();
            cfg.precision = Precision::Fp16;
            cfg.exact_accumulation = true;
            cfg.threads = Some(threads);
            let mut c = Context::new(cfg, DeviceProfile::rtx_2080ti());
            let y = conv.forward(&x, &mut c).unwrap();
            let bits: Vec<u32> = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "threads={threads}"),
            }
        }
    }

    #[test]
    fn param_count() {
        let conv = SparseConv3d::with_random_weights("c", 4, 8, 3, 1, 9);
        assert_eq!(conv.param_count(), 27 * 4 * 8);
    }

    #[test]
    fn dilated_conv_runs_and_differs() {
        let plain = SparseConv3d::with_random_weights("c", 4, 4, 3, 1, 11);
        let dilated = SparseConv3d::with_random_weights("c", 4, 4, 3, 1, 11).with_dilation(2);
        assert_eq!(dilated.dilation(), 2);
        let x = input(4);
        let mut c1 = ctx();
        let mut c2 = ctx();
        let a = plain.forward(&x, &mut c1).unwrap();
        let b = dilated.forward(&x, &mut c2).unwrap();
        assert_eq!(a.coords(), b.coords(), "dilation keeps submanifold coords");
        assert!(a.feats().max_abs_diff(b.feats()).unwrap() > 1e-6, "different receptive fields");
    }

    #[test]
    #[should_panic(expected = "stride-1 non-transposed")]
    fn dilation_rejected_on_strided_conv() {
        let _ = SparseConv3d::with_random_weights("c", 4, 4, 2, 2, 0).with_dilation(2);
    }

    #[test]
    fn dilation_has_its_own_cache_slot() {
        let plain = SparseConv3d::with_random_weights("a", 4, 4, 3, 1, 1);
        let dilated = SparseConv3d::with_random_weights("b", 4, 4, 3, 1, 2).with_dilation(2);
        let mut c = ctx();
        let x = input(4);
        plain.forward(&x, &mut c).unwrap();
        let after_plain = c.timeline.stage(Stage::Mapping);
        dilated.forward(&x, &mut c).unwrap();
        assert!(
            c.timeline.stage(Stage::Mapping) > after_plain,
            "dilated conv must build its own map, not reuse the undilated one"
        );
    }

    #[test]
    fn workload_recording() {
        let conv = SparseConv3d::with_random_weights("c", 4, 4, 3, 1, 10);
        let mut c = ctx();
        c.record_workloads = true;
        conv.forward(&input(4), &mut c).unwrap();
        assert_eq!(c.workloads.len(), 1);
        assert_eq!(c.workloads[0].name, "c");
        assert_eq!(c.workloads[0].map_sizes.len(), 27);
        assert!(c.workloads[0].submanifold);
    }
}
