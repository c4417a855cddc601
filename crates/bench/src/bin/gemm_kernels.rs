//! GEMM microkernel benchmark: scalar vs SIMD vs SIMD+packed weights.
//!
//! Measures sustained GFLOP/s of both compute kernels on the
//! paper-characteristic GEMM shapes (`|map| x Cin x Cout`, Algorithm 2),
//! plus a ragged-N classifier shape whose tail columns the AVX2 path
//! delegates to the scalar loop, then runs a geometry-static compiled
//! stream end-to-end with the SIMD policy forced to `Scalar` and left at
//! `Auto` to show the whole-network effect. Every variant is asserted
//! bitwise identical to the scalar kernel per shape. Writes
//! `BENCH_gemm.json`.
//!
//! Usage: `cargo run --release -p torchsparse-bench --bin gemm_kernels
//! [--scale F] [--scenes N] [--seed N] [--out PATH]`
//! (`--scenes` is the number of end-to-end streamed frames.)

use std::time::Instant;
use torchsparse_bench::{build_model, dataset_for, fmt, geomean, BenchArgs};
use torchsparse_core::runtime::ThreadPool;
use torchsparse_core::{DeviceProfile, Engine, OptimizationConfig, SimdPolicy};
use torchsparse_data::geometry_static_stream;
use torchsparse_models::BenchmarkModel;
use torchsparse_tensor::gemm::{mm_into_packed_on, mm_into_with, GemmOpts};
use torchsparse_tensor::{microkernel, Kernel, Matrix, PackedB};

/// Paper-characteristic `(|map|, Cin, Cout)` GEMM shapes: early layers are
/// many-row/narrow, bottleneck layers are fewer-row/wide (Figure 12). The
/// last is the SemanticKITTI classifier (48 -> 19 classes): `19 % 16 = 3`
/// ragged tail columns exercise the AVX2 path's scalar tail delegate.
const SHAPES: [(usize, usize, usize); 8] = [
    (4096, 4, 32),
    (16384, 32, 32),
    (16384, 32, 64),
    (8192, 64, 64),
    (4096, 96, 96),
    (2048, 128, 128),
    (1024, 256, 256),
    (16384, 48, 19),
];

/// Shapes with `Cin = Cout >= 64` — the acceptance target demands >= 2x
/// over scalar on these.
fn is_large(k: usize, n: usize) -> bool {
    k == n && k >= 64
}

const JITTER: f32 = 0.02;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        let u = (splitmix64(&mut state) >> 11) as f32 / (1u64 << 53) as f32;
        2.0 * u - 1.0
    })
}

/// One benchmark variant: a kernel plus whether B streams packed panels.
struct Variant {
    label: &'static str,
    opts: GemmOpts,
    packed: bool,
}

/// Times `f` until it has run for at least ~30 ms (at least 3 times) and
/// returns the best per-call seconds.
fn best_time(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut calls = 0u32;
    while spent < 0.03 || calls < 3 {
        let start = Instant::now();
        f();
        let dt = start.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        calls += 1;
    }
    best
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(0.02, 12);
    let out_path = args
        .rest
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.rest.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_gemm.json".to_owned());

    let pool = ThreadPool::global();
    let active = microkernel::active();
    let variants = [
        Variant { label: "scalar", opts: GemmOpts::with_kernel(Kernel::Scalar), packed: false },
        Variant { label: "simd", opts: GemmOpts::with_kernel(active), packed: false },
        Variant { label: "simd+packed", opts: GemmOpts::with_kernel(active), packed: true },
    ];

    println!("== GEMM microkernels: active = {} ==\n", active.name());

    // gflops[v][s] for variant v on shape s.
    let mut gflops = vec![vec![0.0f64; SHAPES.len()]; variants.len()];
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        let a = random_matrix(m, k, 0xA000 + s as u64);
        let b = random_matrix(k, n, 0xB000 + s as u64);
        let packed = PackedB::pack(&b);
        let flops = 2.0 * m as f64 * k as f64 * n as f64;

        let mut reference: Option<Vec<u32>> = None;
        for (v, variant) in variants.iter().enumerate() {
            let mut c = Matrix::zeros(m, n);
            let secs = best_time(|| {
                c.as_mut_slice().fill(0.0);
                if variant.packed {
                    mm_into_packed_on(pool, &a, &packed, &mut c, variant.opts).unwrap();
                } else {
                    mm_into_with(pool, &a, &b, &mut c, variant.opts).unwrap();
                }
            });
            gflops[v][s] = flops / secs / 1e9;
            let bits: Vec<u32> = c.as_slice().iter().map(|x| x.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(
                    r, &bits,
                    "{}x{}x{m}: {} must match scalar bitwise",
                    k, n, variant.label
                ),
            }
        }
    }

    let mut rows = Vec::new();
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        let mut row = vec![format!("{m}x{k}x{n}")];
        for per_shape in &gflops {
            row.push(format!("{:.2}", per_shape[s]));
        }
        row.push(fmt::speedup(gflops[2][s] / gflops[0][s]));
        rows.push(row);
    }
    println!(
        "{}",
        fmt::table(
            &["shape |map|xCinxCout", "scalar", "simd", "simd+packed", "packed vs scalar"],
            &rows
        )
    );

    let large_speedups: Vec<f64> = SHAPES
        .iter()
        .enumerate()
        .filter(|(_, &(_, k, n))| is_large(k, n))
        .map(|(s, _)| gflops[2][s] / gflops[0][s])
        .collect();
    let large_geomean = geomean(&large_speedups);
    println!(
        "geomean simd+packed speedup on Cin=Cout>=64 shapes: {large_geomean:.2}x (target >= 2x)\n"
    );

    // End-to-end: the same geometry-static compiled stream with the SIMD
    // policy forced off and left on auto. Outputs must be bitwise identical
    // (both kernels keep the same per-element accumulation order).
    let bm = BenchmarkModel::MinkUNetNuScenes1;
    let ds = dataset_for(bm, args.scale);
    let base = ds.scene(args.seed)?;
    let frames = geometry_static_stream(&base, args.scenes, JITTER, args.seed)?;
    let model = build_model(bm, args.seed);

    let mut wall_ms = [0.0f64; 2];
    let mut e2e_bits: Option<Vec<u32>> = None;
    for (i, policy) in [SimdPolicy::Scalar, SimdPolicy::Auto].into_iter().enumerate() {
        let mut cfg = OptimizationConfig::torchsparse();
        cfg.simd = policy;
        // The A/B isolates the kernel choice; keep the autotuner from
        // varying other policy axes (grouping, chunking) between arms.
        cfg.autotune_policies = false;
        let mut session = Engine::with_config(cfg, DeviceProfile::rtx_2080ti())
            .compile(model.as_ref(), &frames[0])?;
        session.execute(&frames[0])?; // warm caches
        let start = Instant::now();
        let mut last = None;
        for frame in &frames {
            last = Some(session.execute(frame)?);
        }
        wall_ms[i] = start.elapsed().as_secs_f64() / frames.len() as f64 * 1e3;
        if let Some(y) = last {
            let bits: Vec<u32> = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
            match &e2e_bits {
                None => e2e_bits = Some(bits),
                Some(r) => assert_eq!(r, &bits, "SIMD on/off must agree bitwise end-to-end"),
            }
        }
    }
    let e2e_speedup = wall_ms[0] / wall_ms[1];
    println!(
        "end-to-end compiled stream ({}, {} frames, {} points): scalar {:.2} ms/frame, \
         simd {:.2} ms/frame ({:.2}x), outputs bitwise identical",
        bm.name(),
        frames.len(),
        base.len(),
        wall_ms[0],
        wall_ms[1],
        e2e_speedup
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"active_kernel\": \"{}\",\n", active.name()));
    json.push_str("  \"kernels_bitwise_identical\": true,\n");
    json.push_str("  \"gflops\": [\n");
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"map\": {m}, \"c_in\": {k}, \"c_out\": {n}, \"scalar\": {:.3}, \
             \"simd\": {:.3}, \"simd_packed\": {:.3}, \"packed_speedup_vs_scalar\": {:.3}}}{}\n",
            gflops[0][s],
            gflops[1][s],
            gflops[2][s],
            gflops[2][s] / gflops[0][s],
            if s + 1 < SHAPES.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"geomean_packed_speedup_large_shapes\": {large_geomean:.3},\n"));
    json.push_str(&format!(
        "  \"end_to_end\": {{\"model\": \"{}\", \"frames\": {}, \"points\": {}, \
         \"scalar_ms_per_frame\": {:.3}, \"simd_ms_per_frame\": {:.3}, \"speedup\": {:.3}, \
         \"bitwise_identical\": true}}\n",
        bm.name(),
        frames.len(),
        base.len(),
        wall_ms[0],
        wall_ms[1],
        e2e_speedup
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, json)?;
    println!("\nwrote {out_path}");

    if large_geomean < 2.0 {
        println!("WARNING: geomean packed speedup {large_geomean:.2}x below the 2x target");
    }
    Ok(())
}
