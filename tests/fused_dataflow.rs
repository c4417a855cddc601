//! The fused gather–GEMM–scatter executor must be invisible in the
//! results: for every dataflow, storage precision, SIMD policy, and worker
//! count, the output hits the digest pinned in `tests/common`.

mod common;

use common::{dataflow_configs, fixture, fnv1a, forced_exact_mode, output_bits, pinned, THREADS};
use torchsparse::core::{Precision, SimdPolicy};

/// 3 dataflows x 3 precisions x 3 SIMD policies x 1/2/8 worker threads:
/// every run hits the pinned digest of the accumulation mode in force.
#[test]
fn fused_bitwise_identical_across_dataflows_precisions_kernels_threads() {
    let (x, m) = fixture();
    let exact = forced_exact_mode().unwrap_or(true);
    for (dataflow, cfg) in dataflow_configs() {
        for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            let digest = pinned(dataflow, precision, exact);
            for policy in [SimdPolicy::Scalar, SimdPolicy::Portable, SimdPolicy::Auto] {
                for threads in THREADS {
                    let mut cfg = cfg.clone();
                    cfg.precision = precision;
                    cfg.simd = policy;
                    let (_, bits) = output_bits(cfg, threads, &m, &x);
                    assert_eq!(
                        fnv1a(&bits),
                        digest,
                        "{dataflow} @ {precision:?}/{policy:?} at {threads} threads: \
                         output bits changed"
                    );
                }
            }
        }
    }
}
