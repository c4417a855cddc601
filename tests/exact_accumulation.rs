//! The order-independent accumulation contract, end to end and at the
//! arithmetic layer.
//!
//! With `exact_accumulation` on (the default), every output element is the
//! single correctly rounded sum of its partial products, so the engine's
//! bits are reproducible across thread counts and chunk partitionings *by
//! arithmetic* — no ordering discipline required. With it off, the engine
//! must reproduce the historical serial-order bits (the
//! pre-superaccumulator contract) at every thread count. Both modes are
//! checked against the FNV-1a digests pinned in `tests/common`. The
//! property tests at the bottom pin the accumulator itself: permutation
//! invariance, split/merge invariance, and correct rounding against an
//! exact integer reference, including NaN/±0/overflow edges.

mod common;

use common::{
    dataflow_configs, fixture, fnv1a, forced_exact_mode, model, output_bits, pinned, tensor_from,
    THREADS,
};
use proptest::prelude::*;
use torchsparse::core::{Engine, EnginePreset, Precision, SimdPolicy};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::tensor::accum::{exact_sum, ExactAccumulator};

/// Exact accumulation on: 1/2/8 threads x 3 dataflows x 3 precisions all
/// hit the pinned digest — the acceptance sweep of the order-independent
/// determinism contract.
#[test]
fn exact_on_bitwise_identical_across_threads_dataflows_precisions_routes() {
    if forced_exact_mode() == Some(false) {
        return; // this suite run is explicitly exercising the serial-order path
    }
    let (x, m) = fixture();
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            let digest = pinned(dataflow, precision, true);
            for threads in THREADS {
                let mut cfg = cfg.clone();
                cfg.precision = precision;
                cfg.exact_accumulation = true;
                let (_, bits) = output_bits(cfg, threads, &m, &x);
                assert_eq!(
                    fnv1a(&bits),
                    digest,
                    "{dataflow} @ {precision:?} at {threads} threads: exact-on output bits changed"
                );
            }
        }
    }
}

/// The 16-bit precisions' exact-on output bits at 1 thread: these digests
/// predate the binary16-lane reduction and must never move.
#[test]
fn exact_on_fp16_int8_bits_match_pinned_digests() {
    if forced_exact_mode() == Some(false) {
        return; // this suite run is explicitly exercising the serial-order path
    }
    let (x, m) = fixture();
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp16, Precision::Int8] {
            let mut cfg = cfg.clone();
            cfg.precision = precision;
            cfg.exact_accumulation = true;
            let (_, bits) = output_bits(cfg, 1, &m, &x);
            assert_eq!(
                fnv1a(&bits),
                pinned(dataflow, precision, true),
                "{dataflow} @ {precision:?}: output bits changed"
            );
        }
    }
}

/// Exact accumulation off: every thread count and SIMD policy reproduces
/// the historical serial-order bits, pinned as digests.
#[test]
fn exact_off_reproduces_historical_serial_order_bits() {
    if forced_exact_mode() == Some(true) {
        return; // this suite run is explicitly exercising the exact path
    }
    let (x, m) = fixture();
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            let digest = pinned(dataflow, precision, false);
            for simd in [SimdPolicy::Scalar, SimdPolicy::Portable, SimdPolicy::Auto] {
                for threads in THREADS {
                    let mut cfg = cfg.clone();
                    cfg.precision = precision;
                    cfg.simd = simd;
                    cfg.exact_accumulation = false;
                    let (_, bits) = output_bits(cfg, threads, &m, &x);
                    assert_eq!(
                        fnv1a(&bits),
                        digest,
                        "{dataflow} @ {precision:?}/{simd:?} at {threads} threads must \
                         reproduce the historical serial-order bits"
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
