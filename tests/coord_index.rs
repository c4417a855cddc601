//! The coordinate-index determinism contract: the index structure a plan
//! uses to resolve coordinates (legacy hashmap, dense grid, or the succinct
//! MPHF cascade) is a pure representation choice. Every choice must produce
//! bitwise-identical outputs across dataflows and thread counts — only
//! `MappingStats` and simulated latency may differ.

use torchsparse::coords::Coord;
use torchsparse::core::{
    CoordIndexChoice, Engine, EnginePreset, Module, OptimizationConfig, Precision, SparseTensor,
};
use torchsparse::gpusim::DeviceProfile;
use torchsparse::models::MinkUNet;
use torchsparse::tensor::Matrix;

/// Worker counts the sweep is checked at: the serial path and a heavily
/// chunked parallel one.
const THREADS: [usize; 2] = [1, 8];

/// Every selectable index. `Auto` rides along to pin that the dynamic
/// default resolves to one of the other three, never to fresh bits.
const CHOICES: [CoordIndexChoice; 4] = [
    CoordIndexChoice::Hashmap,
    CoordIndexChoice::Grid,
    CoordIndexChoice::Mphf,
    CoordIndexChoice::Auto,
];

fn scene(channels: usize, seed: i32) -> SparseTensor {
    let mut coords = std::collections::BTreeSet::new();
    for i in 0..400 {
        coords.insert(Coord::new(
            i % 2,
            (i * 7 + seed) % 23 - 11,
            ((i * 13) / 3) % 19 - 9,
            (i * 3) % 17 - 8,
        ));
    }
    let coords: Vec<Coord> = coords.into_iter().collect();
    let n = coords.len();
    SparseTensor::new(
        coords,
        Matrix::from_fn(n, channels, |r, c| ((r + 5 * c) % 11) as f32 * 0.2 - 1.0),
    )
    .expect("valid scene")
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
    cfg: OptimizationConfig,
    m: &M,
    x: &SparseTensor,
) -> (Vec<Coord>, Vec<u32>) {
    let mut engine = Engine::with_config(cfg, DeviceProfile::rtx_2080ti());
    let y = engine.run(m, x).expect("run succeeds");
    let bits = y.feats().as_slice().iter().map(|v| v.to_bits()).collect();
    (y.coords().to_vec(), bits)
}

/// The acceptance sweep: 4 index choices x 3 dataflows x 1/8 threads, all
/// bitwise identical within each dataflow. A model with strided
/// downsamples and a decoder exercises forward, downsample, and transposed
/// kernel maps — the CSR slice-view, the resort path, and the MPHF query
/// path all run.
#[test]
fn coord_index_choice_is_bitwise_invisible_across_dataflows_routes_threads() {
    let x = scene(4, 0);
    let m = MinkUNet::with_width(0.25, 4, 3, 43);
    for (dataflow, cfg) in dataflow_configs() {
        let mut reference: Option<(Vec<Coord>, Vec<u32>)> = None;
        for choice in CHOICES {
            for threads in THREADS {
                let mut cfg = cfg.clone();
                cfg.coord_index = choice;
                cfg.threads = Some(threads);
                let out = output_bits(cfg, &m, &x);
                match &reference {
                    None => reference = Some(out),
                    Some(r) => assert_eq!(
                        r, &out,
                        "{dataflow} diverges with coord_index={choice:?} at {threads} threads"
                    ),
                }
            }
        }
    }
}

/// Precision paths route accumulation differently (FP16 re-quantizes
/// per-layer, INT8 runs the integer microkernel); the index must stay
/// invisible on each of them too.
#[test]
fn coord_index_choice_is_bitwise_invisible_across_precisions() {
    let x = scene(4, 3);
    let m = MinkUNet::with_width(0.25, 4, 3, 47);
    for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
        let mut reference: Option<(Vec<Coord>, Vec<u32>)> = None;
        for choice in CHOICES {
            let mut cfg = EnginePreset::TorchSparse.config();
            cfg.precision = precision;
            cfg.coord_index = choice;
            let out = output_bits(cfg, &m, &x);
            match &reference {
                None => reference = Some(out),
                Some(r) => {
                    assert_eq!(r, &out, "{precision:?} diverges with coord_index={choice:?}")
                }
            }
        }
    }
}

/// Compiled sessions resolve `Auto` to the MPHF index; a session compiled
/// under each *explicit* choice must still match the dynamic hashmap
/// reference bit for bit — freezing the plan changes when the index is
/// built, never what the features become.
#[test]
fn compiled_sessions_match_dynamic_bits_under_every_index() {
    let x = scene(4, 5);
    let m = MinkUNet::with_width(0.25, 4, 3, 53);

    let mut reference_cfg = EnginePreset::TorchSparse.config();
    reference_cfg.coord_index = CoordIndexChoice::Hashmap;
    let expected = output_bits(reference_cfg, &m, &x);

    for choice in CHOICES {
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.coord_index = choice;
        let mut session =
            Engine::with_config(cfg, DeviceProfile::rtx_2080ti()).compile(&m, &x).expect("compile");
        let y = session.execute(&x).expect("compiled execute");
        let got: (Vec<Coord>, Vec<u32>) =
            (y.coords().to_vec(), y.feats().as_slice().iter().map(|v| v.to_bits()).collect());
        assert_eq!(
            expected, got,
            "compiled session with coord_index={choice:?} must match dynamic hashmap bits"
        );
        assert!(session.stats().plan_bytes > 0, "frozen plans report a resident footprint");
    }
}
