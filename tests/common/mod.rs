//! The bitwise fixture shared by the output-bits suites: a 300-site scene
//! through a small net, run under each dataflow, and the FNV-1a digests of
//! its output bits pinned per (dataflow, precision, accumulation mode).

#![allow(dead_code)] // each suite uses its own subset

use torchsparse::coords::Coord;
use torchsparse::core::{
    BatchNorm, Engine, EnginePreset, Module, OptimizationConfig, Precision, ReLU, Sequential,
    SparseConv3d, SparseTensor,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::Matrix;

/// Worker counts every configuration is checked at.
pub const THREADS: [usize; 3] = [1, 2, 8];

pub fn tensor_from(sites: &[(i32, i32, i32)], c: usize, seed: u64) -> SparseTensor {
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

/// A small net covering submanifold, strided, and channel-changing convs.
pub fn model(c: usize, seed: u64) -> Sequential {
    Sequential::new("net")
        .push(SparseConv3d::with_random_weights("conv1", c, 8, 3, 1, seed))
        .push(BatchNorm::identity("bn", 8))
        .push(ReLU::new("act"))
        .push(SparseConv3d::with_random_weights("down", 8, 8, 2, 2, seed + 1))
        .push(SparseConv3d::with_random_weights("conv2", 8, c, 3, 1, seed + 2))
}

/// The pinned fixture: 300 sites and the net that runs on them.
pub fn fixture() -> (SparseTensor, Sequential) {
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 7) % 21 - 10, (i * 13) % 17 - 8, (i * 5) % 15 - 7)).collect();
    (tensor_from(&sites, 4, 61), model(4, 61))
}

/// The three dataflow configurations of the engine: grouped
/// gather-matmul-scatter (TorchSparse), ungrouped per-offset baseline, and
/// fetch-on-demand (forced by an infinite threshold).
pub fn dataflow_configs() -> Vec<(&'static str, OptimizationConfig)> {
    let grouped = EnginePreset::TorchSparse.config();
    let separate = EnginePreset::BaselineFp32.config();
    let mut fod = EnginePreset::BaselineFp32.config();
    fod.fetch_on_demand_below = Some(usize::MAX);
    vec![("grouped", grouped), ("separate", separate), ("fetch-on-demand", fod)]
}

pub fn output_bits<M: Module>(
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

/// FNV-1a (64-bit) over the little-endian bytes of a run's output bits.
pub fn fnv1a(bits: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bits.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The [`fixture`]'s output bits at 1 thread, as FNV-1a digests per
/// (dataflow, precision, exact accumulation). Every thread count, SIMD
/// policy and executor must reproduce them; agreement between runs alone
/// cannot catch a change that makes all of them agree on wrong bits.
pub const PINNED: [(&str, Precision, bool, u64); 18] = [
    ("grouped", Precision::Fp32, true, 0xbce5_160c_9abe_801b),
    ("grouped", Precision::Fp16, true, 0x0f6a_6593_7437_58c6),
    ("grouped", Precision::Int8, true, 0x790d_bf73_795f_61fb),
    ("grouped", Precision::Fp32, false, 0xdb95_9a1f_1bd2_e41b),
    ("grouped", Precision::Fp16, false, 0x0f6a_6593_7437_58c6),
    ("grouped", Precision::Int8, false, 0x790d_bf73_795f_61fb),
    ("separate", Precision::Fp32, true, 0xbce5_160c_9abe_801b),
    ("separate", Precision::Fp16, true, 0xdb06_752c_e323_cba2),
    ("separate", Precision::Int8, true, 0x05a6_f52c_512b_7720),
    ("separate", Precision::Fp32, false, 0xdb95_9a1f_1bd2_e41b),
    ("separate", Precision::Fp16, false, 0xdb06_752c_e323_cba2),
    ("separate", Precision::Int8, false, 0x05a6_f52c_512b_7720),
    ("fetch-on-demand", Precision::Fp32, true, 0xbce5_160c_9abe_801b),
    ("fetch-on-demand", Precision::Fp16, true, 0xd840_554d_77d1_a6af),
    ("fetch-on-demand", Precision::Int8, true, 0xaa21_a879_65fe_7a75),
    ("fetch-on-demand", Precision::Fp32, false, 0xdb95_9a1f_1bd2_e41b),
    ("fetch-on-demand", Precision::Fp16, false, 0xd840_554d_77d1_a6af),
    ("fetch-on-demand", Precision::Int8, false, 0xaa21_a879_65fe_7a75),
];

/// The pinned digest of one (dataflow, precision, exact accumulation).
pub fn pinned(dataflow: &str, precision: Precision, exact: bool) -> u64 {
    PINNED
        .iter()
        .find(|&&(d, p, e, _)| d == dataflow && p == precision && e == exact)
        .map(|&(.., digest)| digest)
        .expect("every dataflow, precision and mode is pinned")
}

/// The `TORCHSPARSE_EXACT_ACCUM` override, when set, wins over the
/// `exact_accumulation` field a test pins — the mode a test targets is
/// only actually running when the variable agrees or is unset.
pub fn forced_exact_mode() -> Option<bool> {
    let raw = std::env::var("TORCHSPARSE_EXACT_ACCUM").ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" => Some(false),
        "on" | "1" | "true" => Some(true),
        _ => None,
    }
}
