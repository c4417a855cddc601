//! The parallel execution runtime must be invisible in the results: for
//! every dataflow and storage precision, the engine's output is bitwise
//! identical at any worker count, and fault-injection fallbacks behave
//! exactly as they do on the serial engine.

use proptest::prelude::*;
use torchsparse::coords::Coord;
use torchsparse::core::{
    BatchNorm, Engine, EnginePreset, FaultSite, Module, OptimizationConfig, Precision, ReLU,
    Sequential, SimdPolicy, SparseConv3d, SparseTensor,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::Matrix;

/// Thread counts every configuration is checked at; `1` is the exact
/// serial engine the others must match bit for bit.
const THREADS: [usize; 3] = [1, 2, 8];

fn tensor_from(sites: &[(i32, i32, i32)], c: usize, seed: u64) -> SparseTensor {
    let mut dedup: Vec<(i32, i32, i32)> = sites.to_vec();
    dedup.sort_unstable();
    dedup.dedup();
    let coords: Vec<Coord> = dedup.iter().map(|&(x, y, z)| Coord::new(0, x, y, z)).collect();
    let feats = Matrix::from_fn(coords.len(), c, |r, ch| {
        let v = (r as u64).wrapping_mul(0x9E37_79B9).wrapping_add(ch as u64).wrapping_mul(seed | 1);
        ((v % 1000) as f32 - 500.0) / 250.0
    });
    SparseTensor::new(coords, feats).expect("valid tensor")
}

fn model(c: usize, seed: u64) -> Sequential {
    Sequential::new("net")
        .push(SparseConv3d::with_random_weights("conv1", c, 8, 3, 1, seed))
        .push(BatchNorm::identity("bn", 8))
        .push(ReLU::new("act"))
        .push(SparseConv3d::with_random_weights("down", 8, 8, 2, 2, seed + 1))
        .push(SparseConv3d::with_random_weights("conv2", 8, c, 3, 1, seed + 2))
}

/// The three dataflow configurations of the engine: grouped
/// gather-matmul-scatter (TorchSparse), ungrouped per-offset baseline, and
/// fetch-on-demand (forced by an infinite threshold).
fn dataflow_configs() -> Vec<(&'static str, OptimizationConfig)> {
    let grouped = EnginePreset::TorchSparse.config();
    let separate = EnginePreset::BaselineFp32.config();
    let mut fod = EnginePreset::BaselineFp32.config();
    fod.fetch_on_demand_below = Some(usize::MAX);
    vec![("grouped", grouped), ("separate", separate), ("fetch-on-demand", fod)]
}

fn output_bits<M: Module>(
    mut cfg: OptimizationConfig,
    threads: usize,
    m: &M,
    x: &SparseTensor,
) -> (Vec<Coord>, Vec<u32>) {
    cfg.threads = Some(threads);
    let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
    let y = engine.run(m, x).expect("run succeeds");
    let bits = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
    (y.coords().to_vec(), bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every (dataflow, precision) pair produces bitwise identical outputs
    /// at 1, 2, and 8 worker threads.
    #[test]
    fn prop_outputs_bitwise_identical_across_thread_counts(
        sites in proptest::collection::vec((-5i32..5, -5i32..5, -5i32..5), 8..40),
        seed in 1u64..300,
    ) {
        let c = 4;
        let x = tensor_from(&sites, c, seed);
        let m = model(c, seed);
        for (dataflow, cfg) in dataflow_configs() {
            for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
                let mut cfg = cfg.clone();
                cfg.precision = precision;
                let reference = output_bits(cfg.clone(), 1, &m, &x);
                for threads in &THREADS[1..] {
                    let parallel = output_bits(cfg.clone(), *threads, &m, &x);
                    prop_assert!(
                        reference == parallel,
                        "{dataflow} @ {precision:?} diverges at {threads} threads"
                    );
                }
            }
        }
    }
}

/// A fixed larger scene, checked across thread counts for every dataflow at
/// the preset's native precision — a fast-failing smoke companion to the
/// property test above.
#[test]
fn fixed_scene_bitwise_identical_across_thread_counts() {
    let sites: Vec<(i32, i32, i32)> =
        (0..400).map(|i| ((i * 7) % 23 - 11, (i * 13) % 19 - 9, (i * 5) % 17 - 8)).collect();
    let x = tensor_from(&sites, 4, 99);
    let m = model(4, 99);
    for (dataflow, cfg) in dataflow_configs() {
        let reference = output_bits(cfg.clone(), 1, &m, &x);
        for threads in &THREADS[1..] {
            let parallel = output_bits(cfg.clone(), *threads, &m, &x);
            assert_eq!(reference, parallel, "{dataflow} diverges at {threads} threads");
        }
    }
}

/// The SIMD microkernels must be as invisible as the thread count: for
/// every dataflow and storage precision, forcing the SIMD policy to
/// `Scalar` (the safe-Rust loops) or leaving it on `Auto` (AVX2 where
/// detected) yields bitwise identical outputs at every worker count. Both
/// kernels preserve the k-major mul-then-add accumulation order exactly,
/// so this holds with no tolerance.
#[test]
fn simd_policy_bitwise_identical_across_dataflows_and_precisions() {
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 7) % 21 - 10, (i * 13) % 17 - 8, (i * 5) % 15 - 7)).collect();
    let x = tensor_from(&sites, 4, 123);
    let m = model(4, 123);
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            let mut reference: Option<(Vec<Coord>, Vec<u32>)> = None;
            for policy in [SimdPolicy::Scalar, SimdPolicy::Auto] {
                for threads in THREADS {
                    let mut cfg = cfg.clone();
                    cfg.precision = precision;
                    cfg.simd = policy;
                    let out = output_bits(cfg, threads, &m, &x);
                    match &reference {
                        None => reference = Some(out),
                        Some(r) => assert_eq!(
                            r, &out,
                            "{dataflow} @ {precision:?} diverges with {policy:?} at {threads} threads"
                        ),
                    }
                }
            }
        }
    }
}

/// Graceful degradation decisions are identical under the parallel
/// runtime: an armed grid-table fault falls back to the hashmap with
/// bit-exact output at 1 and 4 threads.
#[test]
fn grid_table_fault_fallback_identical_under_parallel_runtime() {
    // The `TORCHSPARSE_COORD_INDEX` override wins over the preset's map
    // search; forcing a non-grid index leaves the armed grid faults
    // nothing to fire on.
    if matches!(std::env::var("TORCHSPARSE_COORD_INDEX").ok().as_deref(), Some(v) if v != "grid") {
        return;
    }
    let sites: Vec<(i32, i32, i32)> =
        (0..150).map(|i| ((i * 7) % 9, (i * 3) % 8, (i * 5) % 7)).collect();
    let x = tensor_from(&sites, 4, 3);
    let m = model(4, 3);

    let run_with = |threads: usize| {
        let mut cfg = EnginePreset::SpConv.config();
        cfg.threads = Some(threads);
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        engine.context_mut().faults.arm_count(FaultSite::GridTableBuild, 8);
        let y = engine.run(&m, &x).expect("fallback run completes");
        let degradations = engine.degradation_report().count(FaultSite::GridTableBuild);
        let bits: Vec<u32> = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        (degradations, y.coords().to_vec(), bits)
    };

    let serial = run_with(1);
    assert!(serial.0 >= 1, "fault must trigger at least one fallback");
    let parallel = run_with(4);
    assert_eq!(serial, parallel, "degradation path diverges under parallel runtime");
}

/// An injected FP16 overflow forces the same FP32 re-run — with bit-exact
/// output — at 1 and 4 threads.
#[test]
fn fp16_overflow_rerun_identical_under_parallel_runtime() {
    let sites: Vec<(i32, i32, i32)> =
        (0..150).map(|i| ((i * 7) % 9, (i * 3) % 8, (i * 5) % 7)).collect();
    let x = tensor_from(&sites, 4, 5);
    let m = model(4, 5);

    let run_with = |threads: usize| {
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.threads = Some(threads);
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        engine.context_mut().faults.arm_count(FaultSite::Fp16Overflow, 1);
        let y = engine.run(&m, &x).expect("FP32 re-run completes");
        let degradations = engine.degradation_report().count(FaultSite::Fp16Overflow);
        let bits: Vec<u32> = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
        (degradations, y.coords().to_vec(), bits)
    };

    let serial = run_with(1);
    assert!(serial.0 >= 1, "fault must trigger the FP32 re-run");
    let parallel = run_with(4);
    assert_eq!(serial, parallel, "overflow re-run diverges under parallel runtime");
}
