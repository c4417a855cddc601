//! The order-independent accumulation contract, end to end and at the
//! arithmetic layer.
//!
//! With `exact_accumulation` on (the default), every output element is the
//! single correctly rounded sum of its partial products, so the engine's
//! bits are reproducible across thread counts, chunk partitionings, and
//! the fused/unfused executors *by arithmetic* — no ordering discipline
//! required. With it off, the engine must reproduce the historical
//! serial-order bits (the pre-superaccumulator contract) at every thread
//! count. The property tests at the bottom pin the accumulator itself:
//! permutation invariance, split/merge invariance, and correct rounding
//! against an exact integer reference, including NaN/±0/overflow edges.

use proptest::prelude::*;
use torchsparse::coords::Coord;
use torchsparse::core::{
    BatchNorm, Engine, EnginePreset, Module, OptimizationConfig, Precision, ReLU, Sequential,
    SparseConv3d, SparseTensor,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::accum::{exact_sum, ExactAccumulator};
use torchsparse::tensor::Matrix;

/// Worker counts every configuration is checked at.
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

/// A small net covering submanifold, strided, and channel-changing convs.
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

/// The `TORCHSPARSE_EXACT_ACCUM` override, when set, wins over the
/// `exact_accumulation` field these tests pin — the mode a test targets is
/// only actually running when the variable agrees or is unset.
fn forced_exact_mode() -> Option<bool> {
    let raw = std::env::var("TORCHSPARSE_EXACT_ACCUM").ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" => Some(false),
        "on" | "1" | "true" => Some(true),
        _ => None,
    }
}

/// Exact accumulation on: 1/2/8 threads x 3 dataflows x 3 precisions x
/// fused/unfused all produce identical bits — the acceptance sweep of the
/// order-independent determinism contract.
#[test]
fn exact_on_bitwise_identical_across_threads_dataflows_precisions_routes() {
    if forced_exact_mode() == Some(false) {
        return; // this suite run is explicitly exercising the serial-order path
    }
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 7) % 21 - 10, (i * 13) % 17 - 8, (i * 5) % 15 - 7)).collect();
    let x = tensor_from(&sites, 4, 61);
    let m = model(4, 61);
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            let mut reference: Option<(Vec<Coord>, Vec<u32>)> = None;
            for fused in [false, true] {
                for threads in THREADS {
                    let mut cfg = cfg.clone();
                    cfg.precision = precision;
                    cfg.fused_execution = fused;
                    cfg.exact_accumulation = true;
                    let out = output_bits(cfg, threads, &m, &x);
                    match &reference {
                        None => reference = Some(out),
                        Some(r) => assert_eq!(
                            r, &out,
                            "{dataflow} @ {precision:?} diverges with fused={fused} at \
                             {threads} threads under exact accumulation"
                        ),
                    }
                }
            }
        }
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of a run's output bits.
fn fnv1a(bits: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bits.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The 16-bit precisions' exact-on output bits, pinned as digests of the
/// sweep fixture above. Both routes must hit them: once fused and unfused
/// share one reduction, their agreement alone cannot catch a change that
/// makes both agree on wrong bits — these digests can.
#[test]
fn exact_on_fp16_int8_bits_match_pinned_digests() {
    if forced_exact_mode() == Some(false) {
        return; // this suite run is explicitly exercising the serial-order path
    }
    const PINNED: [(&str, Precision, u64); 6] = [
        ("grouped", Precision::Fp16, 0x0f6a_6593_7437_58c6),
        ("grouped", Precision::Int8, 0x790d_bf73_795f_61fb),
        ("separate", Precision::Fp16, 0xdb06_752c_e323_cba2),
        ("separate", Precision::Int8, 0x05a6_f52c_512b_7720),
        ("fetch-on-demand", Precision::Fp16, 0xd840_554d_77d1_a6af),
        ("fetch-on-demand", Precision::Int8, 0xaa21_a879_65fe_7a75),
    ];
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 7) % 21 - 10, (i * 13) % 17 - 8, (i * 5) % 15 - 7)).collect();
    let x = tensor_from(&sites, 4, 61);
    let m = model(4, 61);
    for (dataflow, cfg) in dataflow_configs() {
        for (name, precision, digest) in PINNED {
            if name != dataflow {
                continue;
            }
            for fused in [false, true] {
                let mut cfg = cfg.clone();
                cfg.precision = precision;
                cfg.fused_execution = fused;
                cfg.exact_accumulation = true;
                let (_, bits) = output_bits(cfg, 1, &m, &x);
                assert_eq!(
                    fnv1a(&bits),
                    digest,
                    "{dataflow} @ {precision:?} with fused={fused}: output bits changed"
                );
            }
        }
    }
}

/// Exact accumulation off: every thread count and route reproduces the
/// historical serial-order bits — the 1-thread unfused engine runs the
/// byte-for-byte pre-superaccumulator scatter, and everything else must
/// match it exactly as it did before this layer existed.
#[test]
fn exact_off_reproduces_historical_serial_order_bits() {
    if forced_exact_mode() == Some(true) {
        return; // this suite run is explicitly exercising the exact path
    }
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 11) % 21 - 10, (i * 3) % 17 - 8, (i * 9) % 15 - 7)).collect();
    let x = tensor_from(&sites, 4, 67);
    let m = model(4, 67);
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            // The 1-thread unfused run takes the historical serial
            // offset-major scatter loop, untouched by this PR.
            let mut serial_cfg = cfg.clone();
            serial_cfg.precision = precision;
            serial_cfg.fused_execution = false;
            serial_cfg.exact_accumulation = false;
            let reference = output_bits(serial_cfg.clone(), 1, &m, &x);
            for fused in [false, true] {
                for threads in THREADS {
                    let mut cfg = cfg.clone();
                    cfg.precision = precision;
                    cfg.fused_execution = fused;
                    cfg.exact_accumulation = false;
                    let out = output_bits(cfg, threads, &m, &x);
                    assert_eq!(
                        reference, out,
                        "{dataflow} @ {precision:?} with fused={fused} at {threads} threads \
                         must reproduce the historical serial-order bits"
                    );
                }
            }
        }
    }
}

/// Exact and serial-order accumulation agree to tight tolerance (they
/// differ only by re-association error of the serial FP32 sum), so the A/B
/// switch never masks a numerical bug.
#[test]
fn exact_and_serial_accumulation_agree_closely() {
    if forced_exact_mode().is_some() {
        return; // the override pins both runs to one mode
    }
    let sites: Vec<(i32, i32, i32)> =
        (0..300).map(|i| ((i * 5) % 21 - 10, (i * 7) % 17 - 8, (i * 13) % 15 - 7)).collect();
    let x = tensor_from(&sites, 4, 71);
    let m = model(4, 71);
    let run = |exact: bool| {
        let mut cfg = EnginePreset::BaselineFp32.config();
        cfg.exact_accumulation = exact;
        let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
        engine.run(&m, &x).expect("run succeeds")
    };
    let exact = run(true);
    let serial = run(false);
    assert_eq!(exact.coords(), serial.coords());
    let diff = exact.feats().max_abs_diff(serial.feats()).expect("same shape");
    let scale = serial.feats().frobenius_norm().max(1.0);
    assert!(diff / scale < 1e-5, "exact vs serial accumulation diverged: {diff} (scale {scale})");
}

// ---------------------------------------------------------------------------
// Accumulator-level properties.
// ---------------------------------------------------------------------------

/// Deterministic in-place shuffle (no rand dependency in the root crate's
/// integration tests beyond the proptest shim).
fn shuffle<T>(values: &mut [T], mut seed: u64) {
    for i in (1..values.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        values.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

/// Decodes `(bits, selector)` pairs into addends: mostly arbitrary raw bit
/// patterns (which already cover every magnitude, subnormals, and — at
/// ~1/256 per value — NaNs and infinities), with one in five values forced
/// to a hand-picked special so signed zeros and boundary values appear in
/// nearly every case.
fn decode_addends(raw: &[(u32, u8)]) -> Vec<f32> {
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
    ];
    raw.iter()
        .map(|&(bits, sel)| {
            if sel == 0 {
                SPECIALS[(bits % SPECIALS.len() as u32) as usize]
            } else {
                f32::from_bits(bits)
            }
        })
        .collect()
}

/// Strategy for the raw `(bits, selector)` pairs [`decode_addends`] maps.
fn addend_bits(
    max_len: usize,
) -> proptest::collection::VecStrategy<(std::ops::Range<u32>, std::ops::Range<u8>)> {
    proptest::collection::vec((0u32..u32::MAX, 0u8..5), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation of any addend multiset — including NaN, infinities,
    /// and signed zeros — rounds to identical bits.
    #[test]
    fn prop_permutation_invariance(
        raw in addend_bits(40),
        seed in 0u64..u64::MAX,
    ) {
        let mut vals = decode_addends(&raw);
        let forward = exact_sum(&vals);
        shuffle(&mut vals, seed | 1);
        let shuffled = exact_sum(&vals);
        prop_assert_eq!(forward.to_bits(), shuffled.to_bits());
    }

    /// Splitting the addends at any point into two accumulators and
    /// merging gives the same bits as one pass — the chunk-partition
    /// invariance the parallel scatter relies on.
    #[test]
    fn prop_chunk_split_invariance(
        raw in addend_bits(40),
        split_frac in 0.0f64..1.0,
    ) {
        let vals = decode_addends(&raw);
        let whole = exact_sum(&vals);
        let split = (vals.len() as f64 * split_frac) as usize;
        let mut a = ExactAccumulator::new();
        let mut b = ExactAccumulator::new();
        for &v in &vals[..split] {
            a.add(v);
        }
        for &v in &vals[split..] {
            b.add(v);
        }
        a.merge(&b);
        prop_assert!(a.round().to_bits() == whole.to_bits(), "split at {split}");
    }

    /// Against an exact integer reference: the accumulator returns the
    /// correctly rounded f32 of the true sum. Addends are `k * 2^off` with
    /// `|k| < 2^24`, `off` in `0..20` — every one is exactly representable
    /// in f32, the true sum (an integer below 2^51) is exact in i128 *and*
    /// in f64, and f64 -> f32 of an exactly held value is correctly rounded
    /// by IEEE definition.
    #[test]
    fn prop_correctly_rounded_vs_integer_reference(
        scaled in proptest::collection::vec(
            ((-(1i64 << 24) + 1)..(1i64 << 24), 0u32..20),
            1..60,
        ),
    ) {
        let vals: Vec<f32> = scaled
            .iter()
            .map(|&(k, off)| {
                let v = (k as f64) * f64::from(2.0f32.powi(off as i32));
                v as f32
            })
            .collect();
        // Every addend is exactly representable, so the true sum is the
        // integer sum of the scaled values.
        let true_sum: i128 = scaled.iter().map(|&(k, off)| (k as i128) << off).sum();
        // |true_sum| < 60 * 2^24 * 2^19 < 2^50: exact in f64, and
        // f64 -> f32 of an exactly held value is correctly rounded.
        let reference = (true_sum as f64) as f32;
        prop_assert!(
            exact_sum(&vals).to_bits() == reference.to_bits(),
            "true sum {true_sum}: got {} want {reference}",
            exact_sum(&vals)
        );
    }

    /// Adding values one at a time equals adding them via arbitrary
    /// nested merges of single-value accumulators (full associativity).
    #[test]
    fn prop_merge_tree_equals_sequential(raw in addend_bits(32)) {
        let vals = decode_addends(&raw);
        if vals.is_empty() {
            return Ok(());
        }
        let sequential = exact_sum(&vals);
        let mut accs: Vec<ExactAccumulator> = vals
            .iter()
            .map(|&v| {
                let mut a = ExactAccumulator::new();
                a.add(v);
                a
            })
            .collect();
        while accs.len() > 1 {
            let mut next = Vec::with_capacity(accs.len().div_ceil(2));
            for pair in accs.chunks(2) {
                let mut merged = pair[0];
                if let Some(rhs) = pair.get(1) {
                    merged.merge(rhs);
                }
                next.push(merged);
            }
            accs = next;
        }
        prop_assert_eq!(accs[0].round().to_bits(), sequential.to_bits());
    }
}

/// Hand-picked edges the property generators hit only rarely.
#[test]
fn accumulator_edge_cases() {
    // Catastrophic cancellation recovers the small addend.
    assert_eq!(exact_sum(&[1.0e30, 1.0, -1.0e30]), 1.0);
    // Signed-zero rules: -0 only when every addend is -0.
    assert_eq!(exact_sum(&[-0.0, -0.0]).to_bits(), (-0.0f32).to_bits());
    assert_eq!(exact_sum(&[-0.0, 0.0]).to_bits(), 0.0f32.to_bits());
    assert_eq!(exact_sum(&[7.5, -7.5]).to_bits(), 0.0f32.to_bits());
    // Overflow of the exact sum rounds to infinity; cancellation back under
    // the limit does not.
    assert_eq!(exact_sum(&[f32::MAX, f32::MAX]), f32::INFINITY);
    assert_eq!(exact_sum(&[f32::MAX, f32::MAX, -f32::MAX]), f32::MAX);
    // NaN and mixed-infinity inputs poison the sum in any order.
    assert!(exact_sum(&[1.0, f32::NAN, 2.0]).is_nan());
    assert!(exact_sum(&[f32::INFINITY, f32::NEG_INFINITY]).is_nan());
    assert_eq!(exact_sum(&[f32::NEG_INFINITY, f32::MAX, f32::MAX]), f32::NEG_INFINITY);
}
