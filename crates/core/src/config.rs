//! Engine configuration: the paper's full optimization space, plus presets
//! reproducing the systems it is evaluated against.

use crate::validate::ValidationConfig;

/// Feature storage precision (§4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit features — every baseline's starting point.
    Fp32,
    /// 16-bit features with FP32 accumulation — TorchSparse's choice.
    Fp16,
    /// 8-bit features; scatter still runs at 16 bits because the multi-way
    /// reduction needs more than 8 bits and CUDA requires aligned access —
    /// the paper's reason INT8 gives diminishing returns.
    Int8,
}

/// Matrix multiplication grouping strategy (§4.2, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStrategy {
    /// One `mm` per kernel offset (Figure 6b) — MinkowskiEngine/SpConv.
    Separate,
    /// Batch each symmetric offset pair (`batch = 2`, Figure 6/§4.2.1);
    /// only applies to odd-kernel stride-1 layers, otherwise falls back to
    /// separate.
    Symmetric,
    /// Three fixed groups (§4.2.2): first half, center, second half, padded
    /// to the group maximum.
    Fixed,
    /// The paper's adaptive grouping (§4.2.3, Algorithms 4-5) with redundancy
    /// tolerance `epsilon` and mm/bmm workload threshold `s_threshold`.
    Adaptive {
        /// Tolerance of redundant computation in `[0, 1]`.
        epsilon: f64,
        /// Groups whose max workload is below this run as `bmm`, others as
        /// `mm` (`S` in the paper).
        s_threshold: usize,
    },
}

impl GroupingStrategy {
    /// The paper's default adaptive configuration before per-layer tuning.
    pub fn default_adaptive() -> GroupingStrategy {
        GroupingStrategy::Adaptive { epsilon: 0.3, s_threshold: 150_000 }
    }
}

/// Compute-kernel (SIMD) selection policy for GEMM, gather/scatter, and
/// precision-conversion sweeps — the engine's only switch for the host
/// kernel.
///
/// Both choices produce **bitwise identical** results: the AVX2 kernel
/// vectorizes along the output-channel dimension, so every output element
/// keeps the scalar kernel's k-major mul-then-add accumulation order. The
/// paper's §4.3.1 vectorization is modeled by
/// [`OptimizationConfig::vectorized`], not by this host-side choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdPolicy {
    /// AVX2 when the CPU reports it, else the safe scalar kernel.
    #[default]
    Auto,
    /// Force the safe scalar kernel (the non-AVX2 fallback), e.g. to
    /// exercise it on a host that has AVX2.
    Scalar,
}

/// Map search data structure choice (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapSearchStrategy {
    /// Conventional open-addressing hashmap (MinkowskiEngine-style).
    Hashmap,
    /// Collision-free dense grid (SpConv-style); falls back to the hashmap
    /// when the scene bounding box exceeds the cell budget.
    Grid,
    /// Choose per layer: grid when affordable, else hashmap — TorchSparse's
    /// auto-selected strategy.
    Auto,
}

/// Frozen-plan coordinate index choice: the data structure compiled plans
/// query (and retain) for coordinate → row lookups.
///
/// Dynamic map search keeps using the adaptive grid/hashmap machinery of
/// [`MapSearchStrategy`]; this knob governs what a *frozen* plan stores.
/// Compiled sessions default to the succinct MPHF index
/// ([`torchsparse_coords::MphfIndex`]): the coordinate set never changes
/// after plan time, so a minimal perfect hash over it answers the same
/// queries in a fraction of the memory. Every choice returns identical
/// lookup results, so engine outputs are bitwise unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoordIndexChoice {
    /// Follow the context: dynamic runs keep the [`MapSearchStrategy`]
    /// behavior, compiled sessions resolve to [`CoordIndexChoice::Mphf`].
    #[default]
    Auto,
    /// Always the open-addressing hashmap (legacy plan representation).
    Hashmap,
    /// Always the collision-free grid (falls back to the hashmap when the
    /// bounding box exceeds `grid_cell_limit`, as dynamic search does).
    Grid,
    /// Always the BBHash-style minimal-perfect-hash index.
    Mphf,
}

/// The full optimization configuration of one engine instance.
///
/// Every toggle corresponds to a paper section; the ablation tables flip
/// them one at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationConfig {
    /// Feature storage precision (§4.3.1).
    pub precision: Precision,
    /// Vectorized (`half2`) memory access for FP16 (§4.3.1, Figure 8b).
    pub vectorized: bool,
    /// Model fused movement kernels in the GPU cost model: all gathers
    /// before the matmuls and all scatters after (§4.3.2), instead of
    /// Algorithm 2's per-group gather → matmul → scatter. Drives the cost
    /// model only (Table 3, Figure 9); the CPU executor always streams map
    /// rows through one fused gather–GEMM–scatter kernel, whatever this is.
    pub fused_gather_scatter: bool,
    /// Input-stationary gather / output-stationary scatter order (§4.3.2,
    /// Figure 9b).
    pub locality_aware: bool,
    /// Matmul grouping strategy (§4.2).
    pub grouping: GroupingStrategy,
    /// Map search table (§4.4).
    pub map_search: MapSearchStrategy,
    /// Fuse the four output-coordinate kernels of downsampling (§4.4,
    /// Figure 10).
    pub fused_downsample: bool,
    /// Simplified control logic + full loop unrolling in mapping kernels
    /// (§4.4).
    pub simplified_mapping_kernels: bool,
    /// Exploit the symmetry of submanifold maps during search (§4.4).
    pub symmetric_map_search: bool,
    /// Use the fetch-on-demand dataflow when the layer's average map size is
    /// below this bound (MinkowskiEngine's small-workload path, §5.2);
    /// `None` always uses gather-matmul-scatter.
    pub fetch_on_demand_below: Option<usize>,
    /// Maximum grid-table cells before falling back to the hashmap.
    pub grid_cell_limit: u64,
    /// Compute the center-offset workload of submanifold layers directly
    /// from the input features, skipping its gather/scatter entirely
    /// (§4.2.1: "the kernel offset (0,0,0) ... does not require any explicit
    /// data movement").
    pub skip_center_movement: bool,
    /// Input validation applied by [`Engine::run`](crate::Engine::run)
    /// before any layer executes. All presets default to
    /// [`ValidationPolicy::Trust`](crate::ValidationPolicy::Trust) so
    /// benchmarks measure only kernel cost; deployments facing untrusted
    /// inputs switch to `Reject` or `Sanitize`.
    pub validation: ValidationConfig,
    /// Host-side worker threads for the execution runtime (map search,
    /// gather/scatter partitions, GEMM panels). `None` shares the
    /// process-wide pool, sized by the `TORCHSPARSE_THREADS` environment
    /// variable or the machine's available parallelism; `Some(1)`
    /// reproduces the exact serial engine (results are bitwise identical
    /// at every thread count regardless).
    pub threads: Option<usize>,
    /// SIMD compute-kernel policy. Both choices are bitwise identical; see
    /// [`SimdPolicy`].
    pub simd: SimdPolicy,
    /// Accumulate the scatter reduction through exact, order-independent
    /// fixed-point superaccumulators (`torchsparse_tensor::accum`) instead
    /// of order-pinned serial `f32` addition. Every output element becomes
    /// the correctly rounded sum of its partial products — bitwise
    /// reproducible across thread counts and chunk partitionings — which
    /// lets the reduction run as parallel pool tasks instead of a serial
    /// walk. Defaults on in every preset; the
    /// `TORCHSPARSE_EXACT_ACCUM` environment variable (`off`/`on`)
    /// overrides it process-wide, with `off` restoring the historical
    /// serial-order bits for A/B comparison.
    pub exact_accumulation: bool,
    /// Coordinate index stored inside frozen plans (see
    /// [`CoordIndexChoice`]). `Auto` keeps dynamic runs on the adaptive
    /// [`MapSearchStrategy`] path and gives compiled sessions the succinct
    /// MPHF index; the `TORCHSPARSE_COORD_INDEX` environment variable
    /// (`hashmap`/`grid`/`mphf`) overrides the field process-wide for A/B
    /// measurement. Lookup results — and therefore engine outputs — are
    /// bitwise identical across all choices.
    pub coord_index: CoordIndexChoice,
    /// Run the per-layer execution-policy search at
    /// [`Engine::compile`](crate::Engine::compile) time: each traced conv
    /// layer gets an [`ExecPolicy`](crate::tuning::ExecPolicy) (grouping
    /// ε/S, SIMD kernel, gather/scatter chunk rows, GEMM panel
    /// rows) chosen by a cost-model prune followed by wall-clock microbench
    /// refinement on the layer's actual kernel map. Every candidate policy
    /// is bitwise-neutral, so this only changes speed; the
    /// `TORCHSPARSE_AUTOTUNE` environment variable (`off`/`on`) overrides
    /// the field process-wide. Defaults on in every preset.
    pub autotune_policies: bool,
    /// Location of the persistent tuning database (versioned JSON, written
    /// atomically) that lets later sessions and serving replicas warm-start
    /// the policy search with zero measurements. `None` resolves to
    /// `$TORCHSPARSE_TUNE_DB`, else `$XDG_CACHE_HOME/torchsparse/` (or
    /// `$HOME/.cache/torchsparse/`); when no location resolves, tuning
    /// still runs but winners are not persisted.
    pub tune_db: Option<std::path::PathBuf>,
    /// Patch a compiled session's frozen plan incrementally when a frame's
    /// geometry differs only slightly from the planned one, instead of
    /// discarding the plan and paying a full mapping rebuild. The patched
    /// plan is bitwise identical to a from-scratch plan (the delta walk
    /// bails to a full re-plan whenever it cannot guarantee that), so this
    /// only changes planning cost; the `TORCHSPARSE_DELTA_REPLAN`
    /// environment variable (`off`/`on`) overrides the field process-wide
    /// for A/B measurement. Defaults on in every preset.
    pub delta_replan: bool,
    /// Churn-ratio ceiling for delta re-planning: when
    /// `(inserted + removed) / max(|old|, |new|)` at the input level
    /// exceeds this fraction, the patch path falls back to a full re-plan
    /// (past ~15% churn, patching loses to rebuilding). Must lie in
    /// `[0, 1]`.
    pub delta_replan_max_churn: f64,
}

/// Resolves the effective exact-accumulation switch: `TORCHSPARSE_EXACT_ACCUM`
/// (`off`/`0`/`false` restores the historical serial-order scatter,
/// `on`/`1`/`true` forces exact accumulation) wins over
/// `config.exact_accumulation`. The variable is read once per process; a
/// set-but-unrecognized value emits a one-time warning and defers to the
/// configuration instead of being silently ignored.
pub fn exact_accum_enabled(config: &OptimizationConfig) -> bool {
    static OVERRIDE: std::sync::OnceLock<Option<bool>> = std::sync::OnceLock::new();
    let forced = OVERRIDE.get_or_init(|| {
        let raw = std::env::var("TORCHSPARSE_EXACT_ACCUM").ok()?;
        match parse_exact_accum_override(&raw) {
            Ok(forced) => Some(forced),
            Err(warning) => {
                torchsparse_runtime::warn_env_once("TORCHSPARSE_EXACT_ACCUM", &warning);
                None
            }
        }
    });
    forced.unwrap_or(config.exact_accumulation)
}

/// Strictly parses a `TORCHSPARSE_EXACT_ACCUM` value; factored out of
/// [`exact_accum_enabled`] so the policy is testable without touching
/// process state. Unrecognized values return the warning message to emit.
fn parse_exact_accum_override(raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" => Ok(false),
        "on" | "1" | "true" => Ok(true),
        _ => Err(format!(
            "TORCHSPARSE_EXACT_ACCUM={raw:?} is not one of on/off/1/0/true/false; \
             falling back to the engine configuration's exact_accumulation flag"
        )),
    }
}

/// Resolves the effective frozen-plan coordinate index:
/// `TORCHSPARSE_COORD_INDEX` (`hashmap`/`grid`/`mphf`) wins over
/// `config.coord_index`. The variable is read once per process; a
/// set-but-unrecognized value emits a one-time warning and defers to the
/// configuration instead of being silently ignored.
pub fn coord_index_choice(config: &OptimizationConfig) -> CoordIndexChoice {
    static OVERRIDE: std::sync::OnceLock<Option<CoordIndexChoice>> = std::sync::OnceLock::new();
    let forced = OVERRIDE.get_or_init(|| {
        let raw = std::env::var("TORCHSPARSE_COORD_INDEX").ok()?;
        match parse_coord_index_override(&raw) {
            Ok(forced) => Some(forced),
            Err(warning) => {
                torchsparse_runtime::warn_env_once("TORCHSPARSE_COORD_INDEX", &warning);
                None
            }
        }
    });
    forced.unwrap_or(config.coord_index)
}

/// Strictly parses a `TORCHSPARSE_COORD_INDEX` value; factored out of
/// [`coord_index_choice`] so the policy is testable without touching
/// process state. Unrecognized values return the warning message to emit.
fn parse_coord_index_override(raw: &str) -> Result<CoordIndexChoice, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "hashmap" | "hash" => Ok(CoordIndexChoice::Hashmap),
        "grid" => Ok(CoordIndexChoice::Grid),
        "mphf" => Ok(CoordIndexChoice::Mphf),
        _ => Err(format!(
            "TORCHSPARSE_COORD_INDEX={raw:?} is not one of hashmap/grid/mphf; \
             falling back to the engine configuration's coord_index field"
        )),
    }
}

/// Resolves the effective autotuning switch: `TORCHSPARSE_AUTOTUNE`
/// (`off`/`0`/`false` disables the compile-time policy search, `on`/`1`/
/// `true` forces it) wins over `config.autotune_policies`. The variable is
/// read once per process; a set-but-unrecognized value emits a one-time
/// warning and defers to the configuration instead of being silently
/// ignored.
pub fn autotune_enabled(config: &OptimizationConfig) -> bool {
    static OVERRIDE: std::sync::OnceLock<Option<bool>> = std::sync::OnceLock::new();
    let forced = OVERRIDE.get_or_init(|| {
        let raw = std::env::var("TORCHSPARSE_AUTOTUNE").ok()?;
        match parse_autotune_override(&raw) {
            Ok(forced) => Some(forced),
            Err(warning) => {
                torchsparse_runtime::warn_env_once("TORCHSPARSE_AUTOTUNE", &warning);
                None
            }
        }
    });
    forced.unwrap_or(config.autotune_policies)
}

/// Strictly parses a `TORCHSPARSE_AUTOTUNE` value; factored out of
/// [`autotune_enabled`] so the policy is testable without touching process
/// state. Unrecognized values return the warning message to emit.
fn parse_autotune_override(raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" => Ok(false),
        "on" | "1" | "true" => Ok(true),
        _ => Err(format!(
            "TORCHSPARSE_AUTOTUNE={raw:?} is not one of on/off/1/0/true/false; \
             falling back to the engine configuration's autotune_policies flag"
        )),
    }
}

/// Resolves the effective delta-replan switch: `TORCHSPARSE_DELTA_REPLAN`
/// (`off`/`0`/`false` forces full re-plans on every geometry change,
/// `on`/`1`/`true` forces the incremental patch path) wins over
/// `config.delta_replan`. The variable is read once per process; a
/// set-but-unrecognized value emits a one-time warning and defers to the
/// configuration instead of being silently ignored.
pub fn delta_replan_enabled(config: &OptimizationConfig) -> bool {
    static OVERRIDE: std::sync::OnceLock<Option<bool>> = std::sync::OnceLock::new();
    let forced = OVERRIDE.get_or_init(|| {
        let raw = std::env::var("TORCHSPARSE_DELTA_REPLAN").ok()?;
        match parse_delta_replan_override(&raw) {
            Ok(forced) => Some(forced),
            Err(warning) => {
                torchsparse_runtime::warn_env_once("TORCHSPARSE_DELTA_REPLAN", &warning);
                None
            }
        }
    });
    forced.unwrap_or(config.delta_replan)
}

/// Strictly parses a `TORCHSPARSE_DELTA_REPLAN` value; factored out of
/// [`delta_replan_enabled`] so the policy is testable without touching
/// process state. Unrecognized values return the warning message to emit.
fn parse_delta_replan_override(raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" => Ok(false),
        "on" | "1" | "true" => Ok(true),
        _ => Err(format!(
            "TORCHSPARSE_DELTA_REPLAN={raw:?} is not one of on/off/1/0/true/false; \
             falling back to the engine configuration's delta_replan flag"
        )),
    }
}

/// Resolves the tuning-database location: `TORCHSPARSE_TUNE_DB` (a
/// non-empty path) wins over `config.tune_db`, which wins over the default
/// cache directory (`$XDG_CACHE_HOME/torchsparse/tune-v1.json`, else
/// `$HOME/.cache/torchsparse/tune-v1.json`). Returns `None` when no
/// location resolves — tuning then runs without persistence. The variable
/// is read once per process; a set-but-empty value emits a one-time
/// warning and defers to the configuration instead of being silently
/// ignored.
pub fn tune_db_path(config: &OptimizationConfig) -> Option<std::path::PathBuf> {
    static OVERRIDE: std::sync::OnceLock<Option<std::path::PathBuf>> = std::sync::OnceLock::new();
    let forced = OVERRIDE.get_or_init(|| {
        let raw = std::env::var("TORCHSPARSE_TUNE_DB").ok()?;
        match parse_tune_db_override(&raw) {
            Ok(path) => Some(path),
            Err(warning) => {
                torchsparse_runtime::warn_env_once("TORCHSPARSE_TUNE_DB", &warning);
                None
            }
        }
    });
    if let Some(path) = forced {
        return Some(path.clone());
    }
    if let Some(path) = &config.tune_db {
        return Some(path.clone());
    }
    let cache_root = match std::env::var_os("XDG_CACHE_HOME") {
        Some(dir) if !dir.is_empty() => std::path::PathBuf::from(dir),
        _ => {
            let home = std::env::var_os("HOME").filter(|h| !h.is_empty())?;
            std::path::PathBuf::from(home).join(".cache")
        }
    };
    Some(cache_root.join("torchsparse").join("tune-v1.json"))
}

/// Strictly parses a `TORCHSPARSE_TUNE_DB` value; factored out of
/// [`tune_db_path`] so the policy is testable without touching process
/// state. Empty values return the warning message to emit.
fn parse_tune_db_override(raw: &str) -> Result<std::path::PathBuf, String> {
    if raw.trim().is_empty() {
        Err(format!(
            "TORCHSPARSE_TUNE_DB={raw:?} is empty; falling back to the engine \
             configuration's tune_db path (or the default cache directory)"
        ))
    } else {
        Ok(std::path::PathBuf::from(raw))
    }
}

impl OptimizationConfig {
    /// Fully optimized TorchSparse configuration.
    pub fn torchsparse() -> OptimizationConfig {
        OptimizationConfig {
            precision: Precision::Fp16,
            vectorized: true,
            fused_gather_scatter: true,
            locality_aware: true,
            grouping: GroupingStrategy::default_adaptive(),
            map_search: MapSearchStrategy::Auto,
            fused_downsample: true,
            simplified_mapping_kernels: true,
            symmetric_map_search: true,
            fetch_on_demand_below: None,
            grid_cell_limit: 1 << 28,
            skip_center_movement: true,
            validation: ValidationConfig::default(),
            threads: None,
            simd: SimdPolicy::Auto,
            exact_accumulation: true,
            coord_index: CoordIndexChoice::Auto,
            autotune_policies: true,
            tune_db: None,
            delta_replan: true,
            delta_replan_max_churn: 0.15,
        }
    }

    /// The paper's unoptimized FP32 baseline (§5.1: "a baseline FP32 design
    /// without optimizations in Section 4").
    pub fn baseline_fp32() -> OptimizationConfig {
        OptimizationConfig {
            precision: Precision::Fp32,
            vectorized: false,
            fused_gather_scatter: false,
            locality_aware: false,
            grouping: GroupingStrategy::Separate,
            map_search: MapSearchStrategy::Hashmap,
            fused_downsample: false,
            simplified_mapping_kernels: false,
            symmetric_map_search: false,
            fetch_on_demand_below: None,
            grid_cell_limit: 1 << 28,
            skip_center_movement: false,
            validation: ValidationConfig::default(),
            threads: None,
            simd: SimdPolicy::Auto,
            // Like `simd`, exact accumulation is a host-executor detail, not
            // one of the paper's ablated optimizations (a *stronger*
            // determinism guarantee, not a looser one), so even the
            // baseline uses it.
            exact_accumulation: true,
            // The frozen-plan index changes no bits either; the baseline
            // keeps Auto so dynamic runs match the historical hashmap path.
            coord_index: CoordIndexChoice::Auto,
            // Policy autotuning is bitwise-neutral (it only reroutes the
            // host executor), so like exact accumulation it stays on even
            // in the baseline.
            autotune_policies: true,
            tune_db: None,
            // Delta re-planning is bitwise-neutral too (it bails to a full
            // re-plan whenever equality cannot be guaranteed), so the
            // baseline keeps it on.
            delta_replan: true,
            delta_replan_max_churn: 0.15,
        }
    }

    /// MinkowskiEngine v0.5.4-style configuration: conventional hashmap,
    /// separate FP32 matmuls, fetch-on-demand for small workloads.
    pub fn minkowski_engine() -> OptimizationConfig {
        OptimizationConfig { fetch_on_demand_below: Some(5_000), ..Self::baseline_fp32() }
    }

    /// SpConv v1.2.1-style configuration (FP32): grid map search, separate
    /// matmuls, staged downsampling.
    pub fn spconv_fp32() -> OptimizationConfig {
        OptimizationConfig { map_search: MapSearchStrategy::Grid, ..Self::baseline_fp32() }
    }

    /// SpConv's FP16 mode: quantized but *scalar* (non-vectorized) data
    /// movement and no grouping — the comparison of §5.2.
    pub fn spconv_fp16() -> OptimizationConfig {
        OptimizationConfig { precision: Precision::Fp16, ..Self::spconv_fp32() }
    }
}

/// Named engine presets for the systems the paper evaluates (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePreset {
    /// This paper's system, fully optimized.
    TorchSparse,
    /// Unoptimized FP32 baseline.
    BaselineFp32,
    /// MinkowskiEngine v0.5.4 (FP32 + fetch-on-demand).
    MinkowskiEngine,
    /// SpConv v1.2.1, FP32.
    SpConv,
    /// SpConv v1.2.1, FP16.
    SpConvFp16,
}

impl EnginePreset {
    /// The preset's optimization configuration.
    pub fn config(self) -> OptimizationConfig {
        match self {
            EnginePreset::TorchSparse => OptimizationConfig::torchsparse(),
            EnginePreset::BaselineFp32 => OptimizationConfig::baseline_fp32(),
            EnginePreset::MinkowskiEngine => OptimizationConfig::minkowski_engine(),
            EnginePreset::SpConv => OptimizationConfig::spconv_fp32(),
            EnginePreset::SpConvFp16 => OptimizationConfig::spconv_fp16(),
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            EnginePreset::TorchSparse => "TorchSparse",
            EnginePreset::BaselineFp32 => "Baseline (FP32)",
            EnginePreset::MinkowskiEngine => "MinkowskiEngine",
            EnginePreset::SpConv => "SpConv",
            EnginePreset::SpConvFp16 => "SpConv (FP16)",
        }
    }

    /// The four systems compared in Figure 11, in plot order.
    pub fn figure11_systems() -> [EnginePreset; 4] {
        [
            EnginePreset::MinkowskiEngine,
            EnginePreset::SpConvFp16,
            EnginePreset::BaselineFp32,
            EnginePreset::TorchSparse,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torchsparse_preset_enables_everything() {
        let c = EnginePreset::TorchSparse.config();
        assert_eq!(c.precision, Precision::Fp16);
        assert!(c.vectorized && c.fused_gather_scatter && c.locality_aware);
        assert!(c.fused_downsample && c.simplified_mapping_kernels && c.symmetric_map_search);
        assert!(matches!(c.grouping, GroupingStrategy::Adaptive { .. }));
        assert_eq!(c.map_search, MapSearchStrategy::Auto);
        assert!(c.exact_accumulation);
    }

    #[test]
    fn baseline_disables_everything() {
        let c = EnginePreset::BaselineFp32.config();
        assert_eq!(c.precision, Precision::Fp32);
        assert!(!c.vectorized && !c.fused_gather_scatter && !c.locality_aware);
        assert!(matches!(c.grouping, GroupingStrategy::Separate));
    }

    #[test]
    fn minkowski_uses_fetch_on_demand() {
        let c = EnginePreset::MinkowskiEngine.config();
        assert!(c.fetch_on_demand_below.is_some());
        assert_eq!(c.map_search, MapSearchStrategy::Hashmap);
    }

    #[test]
    fn spconv_uses_grid() {
        assert_eq!(EnginePreset::SpConv.config().map_search, MapSearchStrategy::Grid);
        assert_eq!(EnginePreset::SpConvFp16.config().precision, Precision::Fp16);
        assert!(!EnginePreset::SpConvFp16.config().vectorized, "SpConv FP16 is scalar");
    }

    #[test]
    fn presets_auto_detect_simd_and_accumulate_exactly() {
        for preset in [
            EnginePreset::TorchSparse,
            EnginePreset::BaselineFp32,
            EnginePreset::MinkowskiEngine,
            EnginePreset::SpConv,
            EnginePreset::SpConvFp16,
        ] {
            let c = preset.config();
            assert_eq!(c.simd, SimdPolicy::Auto);
            assert!(
                c.exact_accumulation,
                "{}: exact accumulation strengthens determinism and defaults on",
                preset.name()
            );
        }
    }

    #[test]
    fn exact_accum_override_parses_strictly() {
        for (raw, expect) in [("off", false), ("0", false), ("FALSE", false), (" on ", true)] {
            assert_eq!(parse_exact_accum_override(raw), Ok(expect), "{raw:?}");
        }
        for bad in ["abc", "2", "", "yes"] {
            let w = parse_exact_accum_override(bad).expect_err("malformed value must warn");
            assert!(w.contains("TORCHSPARSE_EXACT_ACCUM"), "warning must name the variable: {w}");
            assert!(w.contains("exact_accumulation"), "warning must name the fallback: {w}");
        }
    }

    #[test]
    fn coord_index_override_parses_strictly() {
        for (raw, expect) in [
            ("hashmap", CoordIndexChoice::Hashmap),
            ("HASH", CoordIndexChoice::Hashmap),
            (" grid ", CoordIndexChoice::Grid),
            ("Mphf", CoordIndexChoice::Mphf),
        ] {
            assert_eq!(parse_coord_index_override(raw), Ok(expect), "{raw:?}");
        }
        for bad in ["abc", "auto", "", "bbhash"] {
            let w = parse_coord_index_override(bad).expect_err("malformed value must warn");
            assert!(w.contains("TORCHSPARSE_COORD_INDEX"), "warning must name the variable: {w}");
            assert!(w.contains("coord_index"), "warning must name the fallback: {w}");
        }
    }

    #[test]
    fn autotune_override_parses_strictly() {
        for (raw, expect) in [("off", false), ("0", false), ("FALSE", false), (" on ", true)] {
            assert_eq!(parse_autotune_override(raw), Ok(expect), "{raw:?}");
        }
        for bad in ["abc", "2", "", "yes"] {
            let w = parse_autotune_override(bad).expect_err("malformed value must warn");
            assert!(w.contains("TORCHSPARSE_AUTOTUNE"), "warning must name the variable: {w}");
            assert!(w.contains("autotune_policies"), "warning must name the fallback: {w}");
        }
    }

    #[test]
    fn delta_replan_override_parses_strictly() {
        for (raw, expect) in [("off", false), ("0", false), ("FALSE", false), (" on ", true)] {
            assert_eq!(parse_delta_replan_override(raw), Ok(expect), "{raw:?}");
        }
        for bad in ["abc", "2", "", "yes"] {
            let w = parse_delta_replan_override(bad).expect_err("malformed value must warn");
            assert!(w.contains("TORCHSPARSE_DELTA_REPLAN"), "warning must name the variable: {w}");
            assert!(w.contains("delta_replan"), "warning must name the fallback: {w}");
        }
    }

    #[test]
    fn presets_default_to_delta_replan_on() {
        for preset in [
            EnginePreset::TorchSparse,
            EnginePreset::BaselineFp32,
            EnginePreset::MinkowskiEngine,
            EnginePreset::SpConv,
            EnginePreset::SpConvFp16,
        ] {
            let c = preset.config();
            assert!(c.delta_replan, "{}: delta re-planning is bitwise-neutral", preset.name());
            assert_eq!(c.delta_replan_max_churn, 0.15, "{}", preset.name());
        }
    }

    #[test]
    fn tune_db_override_parses_strictly() {
        assert_eq!(
            parse_tune_db_override("/tmp/db.json"),
            Ok(std::path::PathBuf::from("/tmp/db.json"))
        );
        assert_eq!(
            parse_tune_db_override("relative/dir/tune.json"),
            Ok(std::path::PathBuf::from("relative/dir/tune.json"))
        );
        for bad in ["", "   "] {
            let w = parse_tune_db_override(bad).expect_err("empty value must warn");
            assert!(w.contains("TORCHSPARSE_TUNE_DB"), "warning must name the variable: {w}");
            assert!(w.contains("tune_db"), "warning must name the fallback: {w}");
        }
    }

    #[test]
    fn explicit_tune_db_wins_over_default_cache_dir() {
        if std::env::var_os("TORCHSPARSE_TUNE_DB").is_some() {
            return; // the env override legitimately wins; nothing to check
        }
        let mut c = OptimizationConfig::torchsparse();
        c.tune_db = Some(std::path::PathBuf::from("/tmp/torchsparse-test/db.json"));
        assert_eq!(
            tune_db_path(&c),
            Some(std::path::PathBuf::from("/tmp/torchsparse-test/db.json"))
        );
    }

    #[test]
    fn presets_default_to_autotune_on() {
        for preset in [
            EnginePreset::TorchSparse,
            EnginePreset::BaselineFp32,
            EnginePreset::MinkowskiEngine,
            EnginePreset::SpConv,
            EnginePreset::SpConvFp16,
        ] {
            let c = preset.config();
            assert!(c.autotune_policies, "{}: autotuning is bitwise-neutral", preset.name());
            assert_eq!(c.tune_db, None, "{}", preset.name());
        }
    }

    #[test]
    fn presets_default_to_auto_coord_index() {
        for preset in [
            EnginePreset::TorchSparse,
            EnginePreset::BaselineFp32,
            EnginePreset::MinkowskiEngine,
            EnginePreset::SpConv,
            EnginePreset::SpConvFp16,
        ] {
            assert_eq!(preset.config().coord_index, CoordIndexChoice::Auto, "{}", preset.name());
        }
    }

    #[test]
    fn preset_names_unique() {
        let mut names: Vec<&str> =
            EnginePreset::figure11_systems().iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
