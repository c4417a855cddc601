//! Sparse convolution dataflows (§2.2, §4.3 of the paper).
//!
//! Two dataflows are implemented, matching the systems the paper discusses:
//!
//! - [`run_gather_matmul_scatter`]: Algorithm 2 with every §4.3 optimization
//!   independently toggleable — FP16/INT8 quantization, vectorized memory
//!   access, fused gather/scatter phases, locality-aware (input-stationary
//!   gather, output-stationary scatter) ordering, matmul grouping, and the
//!   §4.2.1 center-offset shortcut.
//! - [`run_fetch_on_demand`]: MinkowskiEngine's alternative that computes
//!   partial sums directly from the input features without materializing
//!   gather/scatter buffers; it wins on small workloads and loses GEMM
//!   utilization on large ones (§5.2).
//!
//! Both execute the *real* computation on the CPU through one executor,
//! `run_fused_numerics`: kernel-map rows stream from the input features
//! through the fused gather–GEMM–scatter microkernel straight into the
//! output, in the plan-time [`FusedOrder`]. Separately, each dataflow
//! emits its memory access trace through the GPU simulator in exactly the
//! order the corresponding CUDA kernels would, so that cache behaviour —
//! and therefore modeled latency — differs the way the paper measures.

use crate::config::{OptimizationConfig, Precision, SimdPolicy};
use crate::context::Context;
use crate::grouping::GroupPlan;
use crate::runtime::{Task, ThreadPool};
use crate::tuning::ExecPolicy;
use crate::CoreError;
use torchsparse_coords::kernel_map::MapEntry;
use torchsparse_coords::KernelMap;
use torchsparse_gpusim::Precision as GemmPrecision;
use torchsparse_gpusim::{AccessMode, ElemWidth, GemmShape, Stage};
use torchsparse_tensor::accum::{Binary16Lane, ExactAccumulator};
use torchsparse_tensor::gemm::GemmOpts;
use torchsparse_tensor::microkernel::{self, Kernel, PackedB};
use torchsparse_tensor::{gemm, quant, Matrix};

/// Everything a dataflow needs to execute one convolution.
#[derive(Debug)]
pub struct ConvWorkload<'a> {
    /// Input features (`n_in x c_in`), already in storage precision.
    pub in_feats: &'a Matrix,
    /// Per-offset weight matrices (`c_in x c_out` each).
    pub weights: &'a [Matrix],
    /// The same weights pre-packed into the microkernel's panel-major
    /// layout (one [`PackedB`] per offset, built once at plan time and
    /// reused across frames). `None` streams the row-major `weights`.
    pub packed: Option<&'a [PackedB]>,
    /// The kernel map.
    pub map: &'a KernelMap,
    /// Number of output points.
    pub n_out: usize,
    /// The center offset index if this is a submanifold layer whose center
    /// map is the identity (enables the §4.2.1 shortcut).
    pub center_identity: Option<usize>,
    /// Plan-time locality ordering the executor streams the map in.
    pub fused: &'a FusedOrder,
    /// The tuned per-layer execution policy, when the plan carries one.
    /// `None` resolves every knob from the global [`OptimizationConfig`].
    /// Every selectable policy is bitwise-neutral — it changes execution
    /// speed and schedule, never the output bits.
    pub policy: Option<ExecPolicy>,
}

/// Resolves the configured [`SimdPolicy`] to a concrete compute kernel.
/// Both kernels are bit-exact against each other, so this only changes
/// instruction throughput.
pub(crate) fn config_kernel(config: &OptimizationConfig) -> Kernel {
    match config.simd {
        SimdPolicy::Auto => microkernel::active(),
        SimdPolicy::Scalar => Kernel::Scalar,
    }
}

/// GEMM options for one workload: the configured kernel and the tuned
/// policy's row-panel width when present.
fn gemm_opts(config: &OptimizationConfig, policy: Option<&ExecPolicy>) -> GemmOpts {
    GemmOpts { kernel: Some(config_kernel(config)), panel_rows: policy.map(|p| p.panel_rows) }
}

impl ConvWorkload<'_> {
    fn c_in(&self) -> usize {
        self.in_feats.cols()
    }

    fn c_out(&self) -> usize {
        self.weights.first().map_or(0, Matrix::cols)
    }
}

/// Memory access modes implied by a precision/vectorization choice.
struct Modes {
    /// Mode for reading/writing feature and gather-buffer elements.
    feat: AccessMode,
    /// Mode for partial sums and outputs (INT8 falls back to 16-bit here —
    /// the paper's reason INT8 yields diminishing returns, §4.3.1).
    psum: AccessMode,
}

fn modes(precision: Precision, vectorized: bool) -> Modes {
    let vec = |elem: ElemWidth| {
        // Vectorized access moves 4 bytes per thread (e.g. `half2`).
        let width = if vectorized { (4 / elem.bytes()).max(1) } else { 1 };
        AccessMode { elem, vector_width: width }
    };
    match precision {
        Precision::Fp32 => Modes { feat: vec(ElemWidth::F32), psum: vec(ElemWidth::F32) },
        Precision::Fp16 => Modes { feat: vec(ElemWidth::F16), psum: vec(ElemWidth::F16) },
        Precision::Int8 => Modes { feat: vec(ElemWidth::I8), psum: vec(ElemWidth::F16) },
    }
}

/// GEMM precision used for a storage precision (INT8 runs its GEMMs at
/// FP16-class throughput in this model).
fn gemm_precision(p: Precision) -> GemmPrecision {
    match p {
        Precision::Fp32 => GemmPrecision::Fp32,
        Precision::Fp16 | Precision::Int8 => GemmPrecision::Fp16,
    }
}

/// Rounds a matrix to its storage precision (identity for FP32).
///
/// Applied at layer boundaries so that numerical results reflect genuine
/// quantized storage while GEMMs accumulate in FP32 (tensor-core semantics).
pub fn apply_storage_precision(pool: &ThreadPool, m: &Matrix, precision: Precision) -> Matrix {
    match precision {
        Precision::Fp32 => m.clone(),
        _ => apply_storage_precision_owned(pool, m.clone(), precision),
    }
}

/// [`apply_storage_precision`] consuming its input: FP32 is a true identity
/// (no copy at all) and the quantized precisions round in place. The conv
/// layer uses this on the freshly computed output matrix, so the FP32 path
/// of a forward pass allocates nothing here. The rounding sweep runs on the
/// worker pool; per-element rounding is independent, so results are bitwise
/// identical at any thread count.
pub fn apply_storage_precision_owned(pool: &ThreadPool, m: Matrix, precision: Precision) -> Matrix {
    apply_storage_precision_owned_kernel(pool, m, precision, microkernel::active())
}

/// [`apply_storage_precision_owned`] with an explicit compute kernel (the
/// engine resolves its [`SimdPolicy`] once per layer). The SIMD sweeps are
/// bit-exact against the scalar per-element conversions for every input,
/// so the kernel choice never changes results.
pub fn apply_storage_precision_owned_kernel(
    pool: &ThreadPool,
    mut m: Matrix,
    precision: Precision,
    kernel: Kernel,
) -> Matrix {
    match precision {
        Precision::Fp32 => {}
        Precision::Fp16 => quant::round_trip_f16_in_place_kernel(pool, &mut m, kernel),
        Precision::Int8 => {
            let q = quant::Int8Quantizer::calibrate(m.as_slice());
            q.round_trip_in_place_kernel(pool, &mut m, kernel);
        }
    }
    m
}

/// Rows per gather/scatter task. Fixed (never derived from the thread
/// count) so the partition — and therefore every task's output — is
/// identical at any pool width.
const MOVE_CHUNK: usize = 64;

/// Plan-time locality reordering for the fused dataflow: the paper's
/// §4.3.2 locality-aware access orders, applied to the real CPU executor.
///
/// For every kernel offset the map entries are viewed in *output-row*
/// order and split at [`MOVE_CHUNK`]-row output boundaries. A fused
/// execution task that owns output rows `[c*MOVE_CHUNK, (c+1)*MOVE_CHUNK)`
/// then streams exactly `view(map, n).entries[starts[n][c]..starts[n][c+1]]`
/// for each offset `n` — contiguous and without scanning the rest of the
/// map. Because the per-offset in/out maps are partial bijections, each
/// output row appears at most once per offset, and the per-element
/// accumulation order (offsets ascending, one FP32 add per entry) is the
/// historical serial engine's.
///
/// Forward searches emit CSR ranges already sorted by output row, so for
/// them the order stores *only* the chunk split points and the view is the
/// map's own CSR slice — no entry copy. Only transposed decoder maps (whose
/// mirrored ranges are input-sorted) pay a materialized stable re-sort.
///
/// Built once per [`ConvPlan`](crate::plan::ConvPlan), so compiled
/// sessions pay the (mostly metadata-only) build once per geometry and
/// reuse it every frame.
#[derive(Debug, Clone)]
pub struct FusedOrder {
    /// Per-offset chunk split points (`chunks + 1` values each):
    /// `starts[n][c]..starts[n][c + 1]` indexes the output-sorted view of
    /// offset `n` restricted to output-row chunk `c`.
    starts: Vec<Vec<u32>>,
    /// Per-offset materialized re-sort (the entries stably sorted by
    /// output row), present only when the map's CSR range is not already
    /// output-ascending. `None` = the CSR slice itself is the view.
    resort: Vec<Option<Vec<MapEntry>>>,
    /// Output rows per chunk this order was split at ([`MOVE_CHUNK`] unless
    /// a tuned policy chose otherwise). The executor partitions its output
    /// blocks at exactly this width; any width produces identical bits
    /// because each output row lives in exactly one chunk and its
    /// per-entry accumulation order is unchanged.
    chunk_rows: usize,
}

/// One offset's share of a [`FusedOrder`]: the chunk split points, plus the
/// materialized re-sort when the CSR range is not already output-sorted.
type OffsetOrder = (Vec<u32>, Option<Vec<MapEntry>>);

/// Builds one offset's [`OffsetOrder`].
fn order_one_offset(src: &[MapEntry], chunks: usize, chunk_rows: usize) -> OffsetOrder {
    // Forward maps are already output-ascending; only transposed maps
    // actually pay the sort (stable, so entry order among equal outputs is
    // preserved) and the materialized copy.
    let resort = if src.windows(2).all(|w| w[0].output <= w[1].output) {
        None
    } else {
        let mut sorted = src.to_vec();
        sorted.sort_by_key(|e| e.output);
        Some(sorted)
    };
    let entries = resort.as_deref().unwrap_or(src);
    let mut s = Vec::with_capacity(chunks + 1);
    let mut i = 0usize;
    for c in 0..chunks {
        s.push(i as u32);
        let hi = ((c + 1) * chunk_rows) as u32;
        while i < entries.len() && entries[i].output < hi {
            i += 1;
        }
    }
    s.push(i as u32);
    debug_assert_eq!(i, entries.len(), "map output out of range");
    (s, resort)
}

impl FusedOrder {
    /// Splits `map`'s entries (and re-sorts any non-output-sorted offsets)
    /// for a convolution producing `n_out` output rows, at the default
    /// [`MOVE_CHUNK`] width.
    #[must_use]
    pub fn build(map: &KernelMap, n_out: usize) -> FusedOrder {
        FusedOrder::build_chunked(map, n_out, MOVE_CHUNK)
    }

    /// [`build`](FusedOrder::build) with an explicit chunk width (the
    /// autotuner's gather/scatter granularity axis).
    #[must_use]
    pub fn build_chunked(map: &KernelMap, n_out: usize, chunk_rows: usize) -> FusedOrder {
        let chunk_rows = chunk_rows.max(1);
        let chunks = n_out.div_ceil(chunk_rows);
        let volume = map.num_offsets();
        let mut starts = Vec::with_capacity(volume);
        let mut resort = Vec::with_capacity(volume);
        for n in 0..volume {
            let (s, r) = order_one_offset(map.entries(n), chunks, chunk_rows);
            starts.push(s);
            resort.push(r);
        }
        FusedOrder { starts, resort, chunk_rows }
    }

    /// [`build`](FusedOrder::build) with the per-offset sort/split work
    /// running as tasks on the worker pool. Plan builds sit on the serial
    /// critical path of compiled sessions (and of every re-plan), so
    /// spreading the K³ independent offsets across lanes directly raises
    /// the engine's parallel fraction. The per-offset results are
    /// identical to the serial builder's — offsets are fully independent —
    /// so the constructed order is bitwise the same at any pool width.
    #[must_use]
    pub fn build_on(pool: &ThreadPool, map: &KernelMap, n_out: usize) -> FusedOrder {
        FusedOrder::build_on_chunked(pool, map, n_out, MOVE_CHUNK)
    }

    /// [`build_on`](FusedOrder::build_on) with an explicit chunk width.
    #[must_use]
    pub fn build_on_chunked(
        pool: &ThreadPool,
        map: &KernelMap,
        n_out: usize,
        chunk_rows: usize,
    ) -> FusedOrder {
        let chunk_rows = chunk_rows.max(1);
        let chunks = n_out.div_ceil(chunk_rows);
        let volume = map.num_offsets();
        let mut slots: Vec<Option<OffsetOrder>> = vec![None; volume];
        let tasks: Vec<Task<'_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(n, slot)| {
                Box::new(move || *slot = Some(order_one_offset(map.entries(n), chunks, chunk_rows)))
                    as Task<'_>
            })
            .collect();
        pool.run(tasks);
        let mut starts = Vec::with_capacity(volume);
        let mut resort = Vec::with_capacity(volume);
        for slot in slots.into_iter().flatten() {
            starts.push(slot.0);
            resort.push(slot.1);
        }
        debug_assert_eq!(starts.len(), volume, "every offset task must have run");
        FusedOrder { starts, resort, chunk_rows }
    }

    /// Output rows per chunk this order was split at.
    #[inline]
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// The chunk split points of offset `n`.
    #[inline]
    pub fn starts(&self, n: usize) -> &[u32] {
        &self.starts[n]
    }

    /// The output-sorted entry view of offset `n`. `map` must be the map
    /// this order was built from.
    #[inline]
    pub fn view<'a>(&'a self, map: &'a KernelMap, n: usize) -> &'a [MapEntry] {
        self.resort[n].as_deref().unwrap_or_else(|| map.entries(n))
    }

    /// How many offsets carry a materialized re-sort (zero for forward
    /// maps — the slice-view property the plan-memory accounting relies
    /// on).
    pub fn resorted_offsets(&self) -> usize {
        self.resort.iter().filter(|r| r.is_some()).count()
    }

    /// Bytes this order occupies beyond the kernel map it views (for the
    /// frozen-plan memory accounting).
    pub fn memory_bytes(&self) -> u64 {
        let starts: usize = self.starts.iter().map(|s| s.len() * 4).sum();
        let resort: usize =
            self.resort.iter().flatten().map(|e| e.len() * std::mem::size_of::<MapEntry>()).sum();
        (starts + resort) as u64
    }
}

/// How an exact-accumulation layer reduces its partial sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExactPath {
    /// Binary16 partial sums (FP16 and INT8 psum stores) of a kernel with
    /// fewer than [`Binary16Lane::ADDEND_LIMIT`] offsets: one `f64` lane
    /// per output element, exact by construction.
    Binary16Lanes,
    /// FP32 partial sums, or a kernel volume past the lane bound: the
    /// 384-bit [`ExactAccumulator`].
    Superaccumulator,
}

impl ExactPath {
    /// The path for one layer. Each output element receives at most one
    /// partial sum per kernel offset, so the kernel volume bounds the
    /// addends per lane.
    pub(crate) fn select(binary16_psums: bool, volume: usize) -> ExactPath {
        if binary16_psums && volume < Binary16Lane::ADDEND_LIMIT {
            ExactPath::Binary16Lanes
        } else {
            ExactPath::Superaccumulator
        }
    }
}

std::thread_local! {
    /// Per-worker superaccumulator grid for one output chunk of the exact
    /// reduction (`rows_in_chunk x c_out` accumulators). Thread-local so
    /// the persistent pool workers reach steady state with zero
    /// allocation.
    static EXACT_GRID: std::cell::RefCell<Vec<ExactAccumulator>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Per-worker `f64` lane grid: the [`ExactPath::Binary16Lanes`]
    /// counterpart of [`EXACT_GRID`].
    static LANE_GRID: std::cell::RefCell<Vec<Binary16Lane>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Per-worker staging tile for the exact epilogue: the microkernel
    /// writes one offset batch's products here before they are folded into
    /// the chunk's grid.
    static EXACT_TILE: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// One output chunk's exact reduction state, borrowed from the worker's
/// thread-local grid for the chunk's [`ExactPath`].
enum ExactGrid<'a> {
    Lanes(&'a mut [Binary16Lane]),
    Super(&'a mut [ExactAccumulator]),
}

impl ExactGrid<'_> {
    /// Folds one partial-sum row into the elements starting at `at`.
    #[inline]
    fn fold(&mut self, at: usize, row: &[f32]) {
        match self {
            ExactGrid::Lanes(lanes) => {
                for (lane, &v) in lanes[at..at + row.len()].iter_mut().zip(row) {
                    lane.add(v);
                }
            }
            ExactGrid::Super(grid) => {
                for (acc, &v) in grid[at..at + row.len()].iter_mut().zip(row) {
                    acc.add(v);
                }
            }
        }
    }
}

/// Reduces one output chunk exactly: `fold_all` folds every partial-sum
/// row the chunk owns into the grid, then each element of `block` becomes
/// the single correctly rounded sum of its current value (the zero init or
/// the §4.2.1 center-shortcut GEMM result) and its folded addends. Both
/// paths are order-independent, so the bits do not depend on how chunks
/// are scheduled.
fn reduce_exact_chunk(path: ExactPath, block: &mut [f32], fold_all: impl FnOnce(&mut ExactGrid)) {
    match path {
        ExactPath::Binary16Lanes => LANE_GRID.with(|cell| {
            let mut lanes = cell.borrow_mut();
            lanes.clear();
            lanes.resize(block.len(), Binary16Lane::new());
            fold_all(&mut ExactGrid::Lanes(&mut lanes));
            for (dst, lane) in block.iter_mut().zip(lanes.iter()) {
                *dst = lane.round_with(*dst);
            }
        }),
        ExactPath::Superaccumulator => EXACT_GRID.with(|cell| {
            let mut grid = cell.borrow_mut();
            grid.clear();
            grid.resize(block.len(), ExactAccumulator::new());
            for (acc, &v) in grid.iter_mut().zip(block.iter()) {
                acc.add(v);
            }
            fold_all(&mut ExactGrid::Super(&mut grid));
            for (dst, acc) in block.iter_mut().zip(grid.iter()) {
                *dst = acc.round();
            }
        }),
    }
}

/// Layout of the simulated buffers of one convolution.
struct Buffers {
    in_base: u64,
    gather_base: u64,
    psum_base: u64,
    out_base: u64,
    /// The map/neighbor-list metadata buffer: both gather and scatter
    /// kernels stream the (input, output) index pairs that drive them.
    map_base: u64,
    map_bytes: u64,
    /// Per-offset starting row in the gather/psum buffers (padding included
    /// for bmm groups).
    seg_start: Vec<u64>,
    feat_row_bytes: u64,
    psum_row_bytes: u64,
}

/// Bytes of map metadata read per map entry by a movement kernel (one
/// 2x u32 index pair).
const MAP_ENTRY_BYTES: u64 = 8;

fn layout(w: &ConvWorkload<'_>, plan: &GroupPlan, m: &Modes, ctx: &mut Context) -> Buffers {
    let volume = w.map.num_offsets();
    let mut seg_start = vec![0u64; volume];
    let mut rows = 0u64;
    for g in &plan.groups {
        for &n in &g.offsets {
            seg_start[n] = rows;
            rows += if g.use_bmm { g.padded_rows as u64 } else { w.map.entries(n).len() as u64 };
        }
    }
    let feat_row_bytes = (w.c_in() as u64) * m.feat.elem.bytes();
    let psum_row_bytes = (w.c_out() as u64) * m.psum.elem.bytes();
    let map_bytes = w.map.total_entries() as u64 * MAP_ENTRY_BYTES;
    Buffers {
        in_base: ctx.mem.alloc(w.in_feats.rows() as u64 * feat_row_bytes),
        gather_base: ctx.mem.alloc(rows * feat_row_bytes),
        psum_base: ctx.mem.alloc(rows * psum_row_bytes),
        out_base: ctx.mem.alloc(w.n_out as u64 * psum_row_bytes),
        map_base: ctx.mem.alloc(map_bytes.max(1)),
        map_bytes,
        seg_start,
        feat_row_bytes,
        psum_row_bytes,
    }
}

/// Charges the streaming read of the map metadata slices that drive a
/// movement kernel over the given offsets (identical for every ordering, so
/// it moderates relative speedups exactly as the real index traffic does).
fn charge_map_read(w: &ConvWorkload<'_>, offsets: &[usize], bufs: &Buffers, ctx: &mut Context) {
    let _ = bufs.map_bytes;
    for &n in offsets {
        let entries = w.map.entries(n).len() as u64;
        ctx.mem.read(
            bufs.map_base,
            bufs.seg_start[n] * MAP_ENTRY_BYTES,
            entries * MAP_ENTRY_BYTES,
            AccessMode::scalar_f32(),
        );
    }
}

/// Whether a group is the bare center-identity offset that the §4.2.1
/// shortcut can compute without data movement.
fn is_center_shortcut(w: &ConvWorkload<'_>, offsets: &[usize], ctx: &Context) -> bool {
    ctx.config.skip_center_movement && offsets.len() == 1 && Some(offsets[0]) == w.center_identity
}

/// The exact-accumulation path of one layer execution, or `None` with
/// exact accumulation off. Chosen per call from the partial-sum format and
/// the kernel volume — never a knob: the FP16-overflow fallback re-runs a
/// planned layer with FP32 partial sums, which must take the
/// superaccumulator.
fn exact_path(ctx: &Context, map: &KernelMap, binary16_psums: bool) -> Option<ExactPath> {
    crate::config::exact_accum_enabled(&ctx.config)
        .then(|| ExactPath::select(binary16_psums, map.num_offsets()))
}

/// Executes the real numerics of one convolution through the fused
/// gather–GEMM–scatter microkernel: kernel-map rows stream straight from
/// `in_feats` through MR-row register tiles into `out`, with no gathered
/// or partial-sum buffer in between.
///
/// Per output element, with exact accumulation off, the accumulation order
/// is the historical serial engine's — a zero-initialized k-ascending dot
/// product per map entry, optional f16 rounding of that product (the
/// 16-bit partial-sum store), then one FP32 add per entry with offsets
/// ascending — so results are bitwise identical at any thread count. With
/// exact accumulation on (`exact` is the layer's [`ExactPath`]), each
/// offset batch's products stage through a zeroed per-worker tile and fold
/// into the chunk's exact grid ([`reduce_exact_chunk`]), making the result
/// the correctly rounded sum of the partial products — bitwise equal
/// across schedules by arithmetic. With `round_f16` the products are
/// binary16 values: integer multiples of 2⁻²⁴ below 2¹⁶, at most one per
/// kernel offset, so below 2¹³ offsets their sum — in any order — is an
/// integer multiple of 2⁻²⁴ below 2²⁹, exact in a plain `f64` lane, and one
/// `f64` two-sum rounded to odd folds in the f32 seed with a single correct
/// rounding; unrounded (FP32) products and larger kernels fold through the
/// 384-bit superaccumulator. Parallel tasks own disjoint output-row blocks
/// of the order's chunk width; the partition never depends on the pool
/// width.
#[allow(clippy::too_many_arguments)]
fn run_fused_numerics(
    w: &ConvWorkload<'_>,
    shortcut: Option<usize>,
    round_f16: bool,
    exact: Option<ExactPath>,
    pool: &ThreadPool,
    kernel: Kernel,
    out: &mut Matrix,
) {
    /// Identity row mapping for the exact path's staging tile: batch entry
    /// `j`'s product lands in tile row `j`.
    const IDENTITY: [u32; MOVE_CHUNK] = {
        let mut a = [0u32; MOVE_CHUNK];
        let mut i = 0;
        while i < MOVE_CHUNK {
            a[i] = i as u32;
            i += 1;
        }
        a
    };
    let (c_in, c_out) = (w.c_in(), w.c_out());
    if out.rows() == 0 || c_out == 0 {
        return;
    }
    let a = w.in_feats.as_slice();
    let operand = |n: usize| match w.packed {
        Some(packed) => microkernel::BOperand::Packed(&packed[n]),
        None => microkernel::BOperand::Dense(w.weights[n].as_slice()),
    };
    let (fused, volume) = (w.fused, w.map.num_offsets());
    let chunk = fused.chunk_rows();
    let run_chunk = |c: usize, block: &mut [f32]| {
        let base = (c * chunk) as u32;
        let mut in_rows = [0u32; MOVE_CHUNK];
        let mut out_rel = [0u32; MOVE_CHUNK];
        if let Some(path) = exact {
            reduce_exact_chunk(path, block, |grid| {
                EXACT_TILE.with(|cell| {
                    let mut tile = cell.borrow_mut();
                    for n in 0..volume {
                        if Some(n) == shortcut {
                            continue;
                        }
                        let lo = fused.starts(n)[c] as usize;
                        let hi = fused.starts(n)[c + 1] as usize;
                        let entries = &fused.view(w.map, n)[lo..hi];
                        for batch in entries.chunks(MOVE_CHUNK) {
                            let cnt = batch.len();
                            for (j, e) in batch.iter().enumerate() {
                                in_rows[j] = e.input;
                                out_rel[j] = e.output - base;
                            }
                            tile.clear();
                            tile.resize(cnt * c_out, 0.0);
                            microkernel::gemm_gather_scatter(
                                kernel,
                                a,
                                c_in,
                                &in_rows[..cnt],
                                operand(n),
                                c_out,
                                round_f16,
                                &mut tile,
                                &IDENTITY[..cnt],
                            );
                            for (&rel, row) in out_rel[..cnt].iter().zip(tile.chunks(c_out)) {
                                grid.fold(rel as usize * c_out, row);
                            }
                        }
                    }
                });
            });
            return;
        }
        for n in 0..volume {
            if Some(n) == shortcut {
                continue;
            }
            let lo = fused.starts(n)[c] as usize;
            let hi = fused.starts(n)[c + 1] as usize;
            let entries = &fused.view(w.map, n)[lo..hi];
            // The register staging tiles are fixed at MOVE_CHUNK rows, so
            // wider tuned chunks (and degenerate hand-built maps) stream
            // through this sub-chunk loop in MOVE_CHUNK-entry batches —
            // per-row accumulation order is unchanged either way.
            let mut i = 0;
            while i < entries.len() {
                let cnt = (entries.len() - i).min(MOVE_CHUNK);
                for (j, e) in entries[i..i + cnt].iter().enumerate() {
                    in_rows[j] = e.input;
                    out_rel[j] = e.output - base;
                }
                microkernel::gemm_gather_scatter(
                    kernel,
                    a,
                    c_in,
                    &in_rows[..cnt],
                    operand(n),
                    c_out,
                    round_f16,
                    block,
                    &out_rel[..cnt],
                );
                i += cnt;
            }
        }
    };
    if pool.threads() <= 1 && !pool.is_recording() {
        for (c, block) in out.as_mut_slice().chunks_mut(chunk * c_out).enumerate() {
            run_chunk(c, block);
        }
        return;
    }
    let run_chunk = &run_chunk;
    let tasks: Vec<Task<'_>> = out
        .as_mut_slice()
        .chunks_mut(chunk * c_out)
        .enumerate()
        .map(|(c, block)| Box::new(move || run_chunk(c, block)) as Task<'_>)
        .collect();
    pool.run(tasks);
}

/// Executes Algorithm 2 with the configured optimizations; returns the
/// output feature matrix (`n_out x c_out`).
///
/// # Errors
///
/// Returns [`CoreError::Tensor`] if weight shapes are inconsistent with the
/// input features.
pub fn run_gather_matmul_scatter(
    w: &ConvWorkload<'_>,
    plan: &GroupPlan,
    ctx: &mut Context,
) -> Result<Matrix, CoreError> {
    let m = modes(ctx.config.precision, ctx.config.vectorized);
    let bufs = layout(w, plan, &m, ctx);
    let pool = ctx.runtime.pool();
    let kernel = config_kernel(&ctx.config);
    let opts = gemm_opts(&ctx.config, w.policy.as_ref());
    let mut out = Matrix::zeros(w.n_out, w.c_out());

    // ---- Real computation. ---------------------------------------------
    // No gather/psum buffers at all — map rows stream through the
    // microkernel straight into `out`, with the §4.2.1 center shortcut
    // running as one dense GEMM first. Grouping only batches GEMMs in the
    // simulated cost below; the executor streams every offset itself, so
    // beyond the center shortcut it ignores the group plan. Partial sums
    // are 16-bit outside FP32, which picks the exact path. Skipped in
    // simulate-only mode: latency depends on the map structure, never on
    // feature values.
    if !ctx.simulate_only {
        let binary16_psums = ctx.config.precision != Precision::Fp32;
        let exact = exact_path(ctx, w.map, binary16_psums);
        let shortcut = plan
            .groups
            .iter()
            .find(|g| is_center_shortcut(w, &g.offsets, ctx))
            .map(|g| g.offsets[0]);
        if let Some(n0) = shortcut {
            match w.packed {
                Some(packed) => {
                    gemm::mm_into_packed_on(&pool, w.in_feats, &packed[n0], &mut out, opts)?;
                }
                None => gemm::mm_into_with(&pool, w.in_feats, &w.weights[n0], &mut out, opts)?,
            }
        }
        run_fused_numerics(w, shortcut, binary16_psums, exact, &pool, kernel, &mut out);
    }

    // ---- Simulated cost (order faithful to the configured kernels). ----
    if ctx.config.fused_gather_scatter {
        simulate_gather(w, plan, &m, &bufs, ctx);
        simulate_matmuls(w, plan, &bufs, ctx);
        simulate_scatter(w, plan, &m, &bufs, ctx);
    } else {
        // Algorithm 2: per-group gather -> matmul -> scatter, with the GEMM
        // streaming through the L2 in between (the reuse-destroying pattern
        // of Figure 9a).
        for g in &plan.groups {
            let single = GroupPlan { groups: vec![g.clone()] };
            simulate_gather(w, &single, &m, &bufs, ctx);
            simulate_matmuls(w, &single, &bufs, ctx);
            simulate_scatter(w, &single, &m, &bufs, ctx);
        }
    }

    Ok(out)
}

/// Counting-sorts the map entries of `offsets` into per-row buckets keyed
/// by `key(entry)`: returns `(starts, slots)` where row `r`'s producers are
/// `slots[starts[r]..starts[r + 1]]` as `(offset, entry_index)` pairs, in
/// the same (offset-ascending, entry-ascending) order the previous
/// `Vec<Vec<_>>` build pushed them — the simulated access sequence is
/// unchanged, the per-row allocations are gone.
fn bucket_by(
    rows: usize,
    offsets: &[usize],
    map: &KernelMap,
    key: impl Fn(&MapEntry) -> u32,
) -> (Vec<u32>, Vec<(u32, u32)>) {
    let mut starts = vec![0u32; rows + 1];
    for &n in offsets {
        for e in map.entries(n) {
            starts[key(e) as usize + 1] += 1;
        }
    }
    for r in 0..rows {
        starts[r + 1] += starts[r];
    }
    let mut fill: Vec<u32> = starts[..rows].to_vec();
    let mut slots = vec![(0u32, 0u32); starts[rows] as usize];
    for &n in offsets {
        for (i, e) in map.entries(n).iter().enumerate() {
            let f = &mut fill[key(e) as usize];
            slots[*f as usize] = (n as u32, i as u32);
            *f += 1;
        }
    }
    (starts, slots)
}

fn simulate_gather(
    w: &ConvWorkload<'_>,
    plan: &GroupPlan,
    m: &Modes,
    bufs: &Buffers,
    ctx: &mut Context,
) {
    // Offsets actually gathered (the §4.2.1 center shortcut skips its own).
    let offsets: Vec<usize> = plan
        .groups
        .iter()
        .filter(|g| !is_center_shortcut(w, &g.offsets, ctx))
        .flat_map(|g| g.offsets.iter().copied())
        .collect();
    charge_map_read(w, &offsets, bufs, ctx);
    if ctx.config.locality_aware {
        // Input-stationary order (Figure 9b): one pass over the inputs in
        // ascending index order, covering every offset at once; each feature
        // row is read from DRAM once, held in registers, and written to
        // every gather slot that needs it. The per-input neighbor lists are
        // counting-sorted into one flat buffer (three allocations instead of
        // one `Vec` per input row) in the same (offset, entry) order.
        let (starts, slots) = bucket_by(w.in_feats.rows(), &offsets, w.map, |e| e.input);
        for j in 0..w.in_feats.rows() {
            let range = starts[j] as usize..starts[j + 1] as usize;
            if range.is_empty() {
                continue;
            }
            ctx.mem.read(bufs.in_base, j as u64 * bufs.feat_row_bytes, bufs.feat_row_bytes, m.feat);
            for &(n, i) in &slots[range] {
                ctx.mem.write(
                    bufs.gather_base,
                    (bufs.seg_start[n as usize] + u64::from(i)) * bufs.feat_row_bytes,
                    bufs.feat_row_bytes,
                    m.feat,
                );
            }
        }
    } else {
        // Weight-stationary order (Figure 9a): per offset, every input
        // index is unique, so there is no within-offset reuse.
        for &n in &offsets {
            for (i, e) in w.map.entries(n).iter().enumerate() {
                ctx.mem.read(
                    bufs.in_base,
                    e.input as u64 * bufs.feat_row_bytes,
                    bufs.feat_row_bytes,
                    m.feat,
                );
                ctx.mem.write(
                    bufs.gather_base,
                    (bufs.seg_start[n] + i as u64) * bufs.feat_row_bytes,
                    bufs.feat_row_bytes,
                    m.feat,
                );
            }
        }
    }
    let report = ctx.mem.take_report();
    let mut latency = report.latency(&ctx.device);
    // One gather kernel per group in the fused case, per offset otherwise.
    let launches = plan.kernel_count() as f64;
    latency += torchsparse_gpusim::Micros(launches * ctx.device.launch_overhead_us * 0.5);
    ctx.timeline.add(Stage::Gather, latency);
}

fn simulate_matmuls(w: &ConvWorkload<'_>, plan: &GroupPlan, bufs: &Buffers, ctx: &mut Context) {
    let precision = gemm_precision(ctx.config.precision);
    for g in &plan.groups {
        let (shape_rows, latency) = if is_center_shortcut(w, &g.offsets, ctx) {
            let shape = GemmShape::mm(w.in_feats.rows(), w.c_in(), w.c_out());
            (w.in_feats.rows() as u64, ctx.gemm.latency(shape, precision))
        } else if g.use_bmm {
            let shape = GemmShape::bmm(g.offsets.len(), g.padded_rows, w.c_in(), w.c_out());
            ((g.offsets.len() * g.padded_rows) as u64, ctx.gemm.latency(shape, precision))
        } else {
            let mut total = torchsparse_gpusim::Micros::ZERO;
            let mut rows = 0u64;
            for &n in &g.offsets {
                let size = w.map.entries(n).len();
                if size == 0 {
                    continue;
                }
                total += ctx.gemm.latency(GemmShape::mm(size, w.c_in(), w.c_out()), precision);
                rows += size as u64;
            }
            (rows, total)
        };
        ctx.timeline.add(Stage::MatMul, latency);
        // The GEMM streams its operands/results through the L2; this is not
        // charged to any movement phase but evicts resident gather data —
        // exactly the pollution that makes unfused scatter/gather slow
        // (§4.3.2). The center shortcut reads input features directly.
        let gather_bytes = shape_rows * bufs.feat_row_bytes;
        let psum_bytes = shape_rows * bufs.psum_row_bytes;
        ctx.mem.pollute_cache(gather_bytes + psum_bytes);
        let _ = bufs.gather_base; // buffers touched via pollution model
    }
}

fn simulate_scatter(
    w: &ConvWorkload<'_>,
    plan: &GroupPlan,
    m: &Modes,
    bufs: &Buffers,
    ctx: &mut Context,
) {
    let offsets: Vec<usize> = plan
        .groups
        .iter()
        .filter(|g| !is_center_shortcut(w, &g.offsets, ctx))
        .flat_map(|g| g.offsets.iter().copied())
        .collect();
    charge_map_read(w, &offsets, bufs, ctx);
    if ctx.config.locality_aware {
        // Output-stationary order: one pass over the outputs, reading every
        // partial sum for a point, reducing in registers, and writing the
        // output row once. Producer lists are counting-sorted into one flat
        // buffer (same (offset, entry) order, no per-output allocations).
        let (starts, slots) = bucket_by(w.n_out, &offsets, w.map, |e| e.output);
        for k in 0..w.n_out {
            let range = starts[k] as usize..starts[k + 1] as usize;
            if range.is_empty() {
                continue;
            }
            for &(n, i) in &slots[range] {
                ctx.mem.read(
                    bufs.psum_base,
                    (bufs.seg_start[n as usize] + u64::from(i)) * bufs.psum_row_bytes,
                    bufs.psum_row_bytes,
                    m.psum,
                );
            }
            ctx.mem.write(
                bufs.out_base,
                k as u64 * bufs.psum_row_bytes,
                bufs.psum_row_bytes,
                m.psum,
            );
        }
    } else {
        // Weight-stationary scatter: sequential partial sums, random
        // read-modify-write of the output rows.
        for &n in &offsets {
            for (i, e) in w.map.entries(n).iter().enumerate() {
                ctx.mem.read(
                    bufs.psum_base,
                    (bufs.seg_start[n] + i as u64) * bufs.psum_row_bytes,
                    bufs.psum_row_bytes,
                    m.psum,
                );
                ctx.mem.read(
                    bufs.out_base,
                    e.output as u64 * bufs.psum_row_bytes,
                    bufs.psum_row_bytes,
                    m.psum,
                );
                ctx.mem.write(
                    bufs.out_base,
                    e.output as u64 * bufs.psum_row_bytes,
                    bufs.psum_row_bytes,
                    m.psum,
                );
            }
        }
    }
    let report = ctx.mem.take_report();
    let mut latency = report.latency(&ctx.device);
    let launches = plan.kernel_count() as f64;
    latency += torchsparse_gpusim::Micros(launches * ctx.device.launch_overhead_us * 0.5);
    ctx.timeline.add(Stage::Scatter, latency);
}

/// Utilization ceiling for fetch-on-demand's matrix-vector style compute:
/// each output row is produced by streaming the weight matrix with no
/// register-tile reuse, so throughput saturates early regardless of
/// workload size. This is why MinkowskiEngine only uses the dataflow for
/// small workloads (§5.2): below the ceiling it matches gather-matmul-
/// scatter while avoiding all buffer traffic; above it, GEMM pulls away.
const FETCH_ON_DEMAND_UTIL_CAP: f64 = 0.18;

/// Executes the fetch-on-demand dataflow: partial sums are computed straight
/// from the input features and accumulated into the outputs, with no
/// gather/scatter buffers (Lin et al. 2021; used by MinkowskiEngine for
/// small workloads, §5.2).
pub fn run_fetch_on_demand(w: &ConvWorkload<'_>, ctx: &mut Context) -> Matrix {
    let m = modes(ctx.config.precision, ctx.config.vectorized);
    let feat_row_bytes = (w.c_in() as u64) * m.feat.elem.bytes();
    let out_row_bytes = (w.c_out() as u64) * m.psum.elem.bytes();
    let in_base = ctx.mem.alloc(w.in_feats.rows() as u64 * feat_row_bytes);
    let out_base = ctx.mem.alloc(w.n_out as u64 * out_row_bytes);

    let mut out = Matrix::zeros(w.n_out, w.c_out());
    let precision = gemm_precision(ctx.config.precision);
    let mut compute = torchsparse_gpusim::Micros::ZERO;
    // Real compute: out[k] += in[j] . W_n per entry, streamed through the
    // shared executor. Fetch-on-demand keeps its partial sums in FP32 (no
    // 16-bit psum store), hence `round_f16: false`, and never uses the
    // center shortcut.
    if !ctx.simulate_only {
        let exact = exact_path(ctx, w.map, false);
        let kernel = config_kernel(&ctx.config);
        run_fused_numerics(w, None, false, exact, &ctx.runtime.pool(), kernel, &mut out);
    }

    for n in 0..w.map.num_offsets() {
        let entries = w.map.entries(n);
        if entries.is_empty() {
            continue;
        }
        for e in entries {
            // Memory: read the input row, read-modify-write the output row.
            ctx.mem.read(in_base, e.input as u64 * feat_row_bytes, feat_row_bytes, m.feat);
            ctx.mem.read(out_base, e.output as u64 * out_row_bytes, out_row_bytes, m.psum);
            ctx.mem.write(out_base, e.output as u64 * out_row_bytes, out_row_bytes, m.psum);
        }
        let shape = GemmShape::mm(entries.len(), w.c_in(), w.c_out());
        let util = ctx.gemm.utilization(shape).min(FETCH_ON_DEMAND_UTIL_CAP);
        let tflops = ctx.gemm.peak_tflops(precision) * util;
        let compute_us = if tflops > 0.0 { shape.flops() / (tflops * 1e6) } else { 0.0 };
        compute += torchsparse_gpusim::Micros(compute_us + ctx.device.launch_overhead_us);
    }

    let report = ctx.mem.take_report();
    ctx.timeline.add(Stage::Gather, report.latency(&ctx.device));
    ctx.timeline.add(Stage::MatMul, compute);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GroupingStrategy, OptimizationConfig};
    use crate::grouping::plan_groups;
    use torchsparse_coords::kernel_map::search;
    use torchsparse_coords::{Coord, CoordHashMap};
    use torchsparse_gpusim::DeviceProfile;

    /// Deterministic pseudo-random matrix without a rand dependency.
    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 - 1000.0) / 500.0
        })
    }

    fn scene(n: i32) -> Vec<Coord> {
        let mut v = Vec::new();
        for x in 0..n {
            for y in 0..n {
                if (x + y) % 3 != 0 {
                    v.push(Coord::new(0, x, y, (x * 2 + y) % 5));
                }
            }
        }
        v
    }

    fn workload_parts(c_in: usize, c_out: usize) -> (Vec<Coord>, Matrix, Vec<Matrix>, KernelMap) {
        let coords = scene(9);
        let feats = pseudo_matrix(coords.len(), c_in, 7);
        let weights: Vec<Matrix> =
            (0..27).map(|n| pseudo_matrix(c_in, c_out, 100 + n as u64)).collect();
        let (table, _) = CoordHashMap::build(&coords);
        let map = search(&coords, &table, 3, 1).unwrap();
        (coords, feats, weights, map)
    }

    fn ctx_with(config: OptimizationConfig) -> Context {
        Context::new(config, DeviceProfile::rtx_2080ti())
    }

    /// Reference computation straight from the map definition (Equation 1).
    fn reference_output(
        feats: &Matrix,
        weights: &[Matrix],
        map: &KernelMap,
        n_out: usize,
    ) -> Matrix {
        let c_out = weights[0].cols();
        let mut out = Matrix::zeros(n_out, c_out);
        for (n, weight) in weights.iter().enumerate().take(map.num_offsets()) {
            for e in map.entries(n) {
                for co in 0..c_out {
                    let mut acc = 0.0f32;
                    for ci in 0..feats.cols() {
                        acc += feats[(e.input as usize, ci)] * weight[(ci, co)];
                    }
                    out[(e.output as usize, co)] += acc;
                }
            }
        }
        out
    }

    #[test]
    fn all_fp32_configs_agree_with_reference() {
        let (coords, feats, weights, map) = workload_parts(8, 16);
        let order = FusedOrder::build(&map, coords.len());
        let n_out = coords.len();
        let expect = reference_output(&feats, &weights, &map, n_out);

        let strategies = [
            GroupingStrategy::Separate,
            GroupingStrategy::Symmetric,
            GroupingStrategy::Fixed,
            GroupingStrategy::Adaptive { epsilon: 0.3, s_threshold: usize::MAX },
            GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: 0 },
        ];
        for strategy in strategies {
            for fused in [false, true] {
                for locality in [false, true] {
                    for skip_center in [false, true] {
                        let mut cfg = OptimizationConfig::baseline_fp32();
                        cfg.grouping = strategy;
                        cfg.fused_gather_scatter = fused;
                        cfg.locality_aware = locality;
                        cfg.skip_center_movement = skip_center;
                        let mut ctx = ctx_with(cfg);
                        let plan = plan_groups(&map.sizes(), true, strategy);
                        let w = ConvWorkload {
                            in_feats: &feats,
                            weights: &weights,
                            packed: None,
                            map: &map,
                            n_out,
                            center_identity: Some(13),
                            fused: &order,
                            policy: None,
                        };
                        let out = run_gather_matmul_scatter(&w, &plan, &mut ctx).unwrap();
                        let diff = out.max_abs_diff(&expect).unwrap();
                        assert!(
                            diff < 1e-3,
                            "strategy {strategy:?} fused={fused} locality={locality} skip={skip_center}: diff {diff}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fetch_on_demand_matches_reference() {
        let (coords, feats, weights, map) = workload_parts(6, 10);
        let order = FusedOrder::build(&map, coords.len());
        let n_out = coords.len();
        let expect = reference_output(&feats, &weights, &map, n_out);
        let mut ctx = ctx_with(OptimizationConfig::minkowski_engine());
        let w = ConvWorkload {
            in_feats: &feats,
            weights: &weights,
            packed: None,
            map: &map,
            n_out,
            center_identity: Some(13),
            fused: &order,
            policy: None,
        };
        let out = run_fetch_on_demand(&w, &mut ctx);
        assert!(out.max_abs_diff(&expect).unwrap() < 1e-3);
    }

    #[test]
    fn fp16_output_close_to_fp32() {
        let (coords, feats, weights, map) = workload_parts(8, 8);
        let order = FusedOrder::build(&map, coords.len());
        let n_out = coords.len();
        let expect = reference_output(&feats, &weights, &map, n_out);
        let mut cfg = OptimizationConfig::torchsparse();
        cfg.grouping = GroupingStrategy::Separate;
        let mut ctx = ctx_with(cfg);
        let plan = plan_groups(&map.sizes(), true, GroupingStrategy::Separate);
        let w = ConvWorkload {
            in_feats: &feats,
            weights: &weights,
            packed: None,
            map: &map,
            n_out,
            center_identity: Some(13),
            fused: &order,
            policy: None,
        };
        let out = run_gather_matmul_scatter(&w, &plan, &mut ctx).unwrap();
        let rel = out.max_abs_diff(&expect).unwrap() / expect.frobenius_norm().max(1e-6);
        assert!(rel < 0.01, "fp16 relative error {rel} too large");
    }

    #[test]
    fn movement_latency_recorded() {
        let (coords, feats, weights, map) = workload_parts(8, 8);
        let order = FusedOrder::build(&map, coords.len());
        let mut ctx = ctx_with(OptimizationConfig::baseline_fp32());
        let plan = plan_groups(&map.sizes(), true, GroupingStrategy::Separate);
        let w = ConvWorkload {
            in_feats: &feats,
            weights: &weights,
            packed: None,
            map: &map,
            n_out: coords.len(),
            center_identity: Some(13),
            fused: &order,
            policy: None,
        };
        run_gather_matmul_scatter(&w, &plan, &mut ctx).unwrap();
        assert!(ctx.timeline.stage(Stage::Gather).as_f64() > 0.0);
        assert!(ctx.timeline.stage(Stage::MatMul).as_f64() > 0.0);
        assert!(ctx.timeline.stage(Stage::Scatter).as_f64() > 0.0);
    }

    #[test]
    fn center_shortcut_reduces_movement() {
        let (coords, feats, weights, map) = workload_parts(8, 8);
        let order = FusedOrder::build(&map, coords.len());
        let run = |skip: bool| {
            let mut cfg = OptimizationConfig::baseline_fp32();
            cfg.skip_center_movement = skip;
            let mut ctx = ctx_with(cfg);
            let plan = plan_groups(&map.sizes(), true, GroupingStrategy::Separate);
            let w = ConvWorkload {
                in_feats: &feats,
                weights: &weights,
                packed: None,
                map: &map,
                n_out: coords.len(),
                center_identity: Some(13),
                fused: &order,
                policy: None,
            };
            run_gather_matmul_scatter(&w, &plan, &mut ctx).unwrap();
            ctx.timeline.data_movement().as_f64()
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn int8_runs_and_roughly_matches() {
        let (coords, feats, weights, map) = workload_parts(4, 4);
        let order = FusedOrder::build(&map, coords.len());
        let n_out = coords.len();
        let expect = reference_output(&feats, &weights, &map, n_out);
        let mut cfg = OptimizationConfig::torchsparse();
        cfg.precision = Precision::Int8;
        let mut ctx = ctx_with(cfg);
        let plan = plan_groups(&map.sizes(), true, GroupingStrategy::Separate);
        let w = ConvWorkload {
            in_feats: &feats,
            weights: &weights,
            packed: None,
            map: &map,
            n_out,
            center_identity: Some(13),
            fused: &order,
            policy: None,
        };
        let out = run_gather_matmul_scatter(&w, &plan, &mut ctx).unwrap();
        // INT8 storage was not applied to in_feats here (the conv layer does
        // that); this exercises the int8 *movement* path only.
        assert!(out.max_abs_diff(&expect).unwrap() < 1.0);
    }

    fn bits_of(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn chunk_width_is_bitwise_neutral() {
        // Every gather/scatter chunk width the autotuner may pick streams
        // the same per-row addend order, so outputs are bit-identical to
        // the default MOVE_CHUNK split — exact accumulation on and off.
        let (coords, feats, weights, map) = workload_parts(8, 16);
        let n_out = coords.len();
        let run = |order: &FusedOrder, exact: bool| {
            let mut cfg = OptimizationConfig::torchsparse();
            cfg.exact_accumulation = exact;
            let mut ctx = ctx_with(cfg.clone());
            let plan = plan_groups(&map.sizes(), true, cfg.grouping);
            let w = ConvWorkload {
                in_feats: &feats,
                weights: &weights,
                packed: None,
                map: &map,
                n_out,
                center_identity: Some(13),
                fused: order,
                policy: None,
            };
            run_gather_matmul_scatter(&w, &plan, &mut ctx).unwrap()
        };
        if std::env::var_os("TORCHSPARSE_EXACT_ACCUM").is_some() {
            return; // env forces one accumulation mode; skip the sweep
        }
        let baseline = FusedOrder::build(&map, n_out);
        assert_eq!(baseline.chunk_rows(), MOVE_CHUNK);
        for exact in [false, true] {
            let expect = bits_of(&run(&baseline, exact));
            for chunk in [1, 32, 128, 256, 1000] {
                let order = FusedOrder::build_chunked(&map, n_out, chunk);
                assert_eq!(order.chunk_rows(), chunk);
                assert_eq!(bits_of(&run(&order, exact)), expect, "chunk={chunk} exact={exact}");
            }
        }
    }

    #[test]
    fn policy_overrides_config_knobs() {
        // A plan-carried policy steers the chunk/panel widths without
        // touching the global config — and stays bit-identical.
        let (coords, feats, weights, map) = workload_parts(8, 16);
        let n_out = coords.len();
        let order = FusedOrder::build(&map, n_out);
        let run = |policy: Option<ExecPolicy>| {
            let cfg = OptimizationConfig::torchsparse();
            let mut ctx = ctx_with(cfg.clone());
            let plan = plan_groups(&map.sizes(), true, cfg.grouping);
            let w = ConvWorkload {
                in_feats: &feats,
                weights: &weights,
                packed: None,
                map: &map,
                n_out,
                center_identity: Some(13),
                fused: &order,
                policy,
            };
            run_gather_matmul_scatter(&w, &plan, &mut ctx).unwrap()
        };
        let cfg = OptimizationConfig::torchsparse();
        let base = ExecPolicy::from_config(&cfg);
        let expect = bits_of(&run(None));
        for policy in [base, ExecPolicy { panel_rows: 32, chunk_rows: 256, ..base }] {
            assert_eq!(bits_of(&run(Some(policy))), expect, "{policy:?}");
        }
    }
}
