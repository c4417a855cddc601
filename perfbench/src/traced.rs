//! The traced run: per-layer metrics, each measured from outside by timing
//! calls into that layer's public functions.
//!
//! Each sampled frame replays the model's traced [`LayerOp`]s one by one
//! through their public `forward` on an engine [`Context`], in four passes
//! (cold: kernel maps are built, cost model only; `simulate_only`: maps
//! cached, cost model only; warm: maps cached, real numerics; warm with
//! exact accumulation off), then makes isolated calls into the coordinate
//! index, grouping, storage precision, the packed GEMM and the compiled
//! session. Spans around every call stay in memory and are written out as
//! a Chrome trace when the run ends.

use crate::report::RunResult;
use crate::stats::{median, percentile};
use crate::timed::{serve_phase, RATE_HZ, SLO};
use crate::trace::{SpanId, SpanLog};
use crate::workload::{compile, device, host_cores, ms, Checks, Inputs, Kind, TuneDbs, Workload};
use std::error::Error;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use torchsparse_coords::{CoordIndex, MphfIndex};
use torchsparse_core::dataflow::apply_storage_precision;
use torchsparse_core::grouping::plan_groups;
use torchsparse_core::{
    CompiledSession, Context, CoreError, Engine, LayerOp, LayerWorkload, Module, SparseTensor,
    Tracer,
};
use torchsparse_tensor::gemm::{mm_into_packed_on, GemmOpts};
use torchsparse_tensor::{Matrix, PackedB};

type Res<T> = Result<T, Box<dyn Error>>;

/// Frames of the stream the plan-cache counters are read over.
const SEGMENT_FRAMES: usize = 16;
/// Edge of the square GEMM that measures the microkernel's own peak.
const PEAK_GEMM_N: usize = 512;
const PEAK_GEMM_REPS: usize = 5;
/// Share of a `nuscenes-steady` traced run spent replaying frames; the
/// rest serves them open loop.
const SERVE_REPLAY_SHARE: f64 = 0.2;
const MIB: f64 = 1024.0 * 1024.0;

/// Self time of one replay pass, split by layer.
struct Pass {
    span: SpanId,
    frame: Duration,
    conv: Duration,
    pointwise: Duration,
}

/// Runs the traced analysis and returns the per-layer metrics.
pub fn traced(
    w: &Workload,
    seed: u64,
    seconds: u64,
    inputs: &Inputs,
    dbs: &mut TuneDbs,
    trace_path: &Path,
) -> Res<RunResult> {
    let mut checks = Checks::default();
    let mut log = SpanLog::new();
    let frames = &inputs.frames;
    let model = w.model(seed);
    let mut tracer = Tracer::new();
    model.trace(&mut tracer)?;
    let ops = tracer.into_ops();

    // The workload session, compiled on other geometry than the sampled
    // frames so that each sample can force a plan miss: the unrelated
    // `alt` scene for the steady stream, the stream's first frame for the
    // churn stream (samples then follow their predecessor frame).
    let anchor = if inputs.steady { &inputs.alt } else { &frames[0] };
    let mut session = compile(w, &model, anchor, w.threads(), dbs)?;
    let mut one = compile(w, &model, &frames[0], 1, dbs)?;
    let mut all = compile(w, &model, &frames[0], host_cores(), dbs)?;

    // The replay engine runs with the compiled session's tuned policies.
    let mut replay = Engine::try_with_config(session.model().config().clone(), device())?;
    if let Some(report) = session.tuning_report() {
        replay.context_mut().tuned_policies = report.policies.clone();
    }

    let budget = match w.kind {
        Kind::NuscenesSteady => Duration::from_secs_f64(seconds as f64 * SERVE_REPLAY_SHARE),
        Kind::KittiChurn => Duration::from_secs(seconds),
    };
    let start = Instant::now();
    let mut rows: Vec<Vec<(&'static str, &'static str, f64)>> = Vec::new();
    while rows.is_empty() || start.elapsed() < budget {
        let i = 1 + (3 * rows.len()) % (frames.len() - 1);
        let prev = if inputs.steady { &inputs.alt } else { &frames[i - 1] };
        let s = Sample { w, ops: &ops, frame: &frames[i], prev, id: i as u64 };
        let row = s.run(
            &mut log,
            replay.context_mut(),
            &mut session,
            [&mut one, &mut all],
            &model,
            dbs,
            &mut checks,
        )?;
        if rows.is_empty() {
            let y = one.execute(&frames[i])?;
            checks.against_baseline(&model, &[(i, &frames[i], &y)])?;
        }
        rows.push(row);
    }
    drop((session, one, all));

    let mut r = RunResult { attempted: rows.len() as u64, ..RunResult::default() };
    // Per-sample values, summarised by their median.
    let sampled: Vec<(&str, &str, f64)> = (0..rows[0].len())
        .map(|k| {
            let values: Vec<f64> = rows.iter().map(|row| row[k].2).collect();
            Ok((rows[0][k].0, rows[0][k].1, median(&values)?))
        })
        .collect::<Res<_>>()?;
    let get = |name: &str| sampled.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.2);
    let n = rows.len();
    let put = |r: &mut RunResult, name: &'static str, unit: &'static str| {
        r.push(name, unit, get(name), n);
    };

    put(&mut r, "mapping.ms", "ms");
    put(&mut r, "mapping.entries", "count");
    put(&mut r, "coords.index_ms", "ms");
    put(&mut r, "coords.index_bytes_per_voxel", "B/voxel");
    put(&mut r, "session.compile_ms", "ms");
    put(&mut r, "session.miss_ms", "ms");

    let seg = plan_cache_segment(w, &model, frames, dbs, &mut log, &mut checks)?;
    r.push("session.hit_ratio", "ratio", seg.hit_ratio, SEGMENT_FRAMES);
    r.push("session.delta_patches", "count", seg.delta_patches, SEGMENT_FRAMES);
    r.push("session.full_replans", "count", seg.full_replans, SEGMENT_FRAMES);
    r.push("session.delta_fallbacks", "count", seg.delta_fallbacks, SEGMENT_FRAMES);
    r.push("session.plan_mb", "MiB", seg.plan_mb, 1);

    put(&mut r, "tuning.candidates_measured", "count");
    put(&mut r, "tuning.warm_started", "count");
    put(&mut r, "grouping.redundancy", "ratio");
    put(&mut r, "dataflow.ms", "ms");
    put(&mut r, "dataflow.movement_ms", "ms");
    put(&mut r, "dataflow.exact_accum_ms", "ms");
    put(&mut r, "dataflow.precision_ms", "ms");
    put(&mut r, "pointwise.ms", "ms");
    put(&mut r, "tensor.gemm_ms", "ms");
    put(&mut r, "tensor.gflop_per_frame", "GFLOP");
    let peak = peak_gflops(w.threads(), &mut log)?;
    r.push("tensor.peak_gflops", "GFLOP/s", peak, PEAK_GEMM_REPS);
    put(&mut r, "tensor.achieved_gflops", "GFLOP/s");
    put(&mut r, "gpusim.ms", "ms");
    put(&mut r, "gpusim.modeled_ms", "ms");
    put(&mut r, "runtime.speedup", "x");

    if w.kind == Kind::NuscenesSteady {
        let id = log.open("serve.phase", None, 0);
        let p = serve_phase(w, seconds, inputs, &model, dbs, &mut checks)?;
        log.close(id);
        let n = p.submit_to_done_ms.len();
        r.push("serve.submit_to_done_ms_p90", "ms", percentile(&p.submit_to_done_ms, 0.9)?, n);
        r.push("serve.max_queue_depth", "count", p.health.max_queue_depth as f64, 1);
        r.push("serve.shed", "count", p.health.shed as f64, p.attempted as usize);
        r.push(
            "serve.deadline_missed",
            "count",
            p.health.deadline_missed as f64,
            p.attempted as usize,
        );
        r.push("serve.threads_peak", "count", p.threads_peak as f64, p.late_ms.len());
        r.push("loadgen.late_ms_p90", "ms", percentile(&p.late_ms, 0.9)?, p.late_ms.len());
        r.attempted += p.attempted;
        r.note(
            "serve_open_loop",
            format!(
                "{} requests at {RATE_HZ} Hz per stream; from due: p50 {:.1} ms, {} within {} s; \
                 {:.3} frames/s",
                p.attempted,
                median(&p.latency_from_due_ms)?,
                p.within_slo,
                SLO.as_secs_f64(),
                p.ok as f64 / p.wall_s
            ),
        );
    } else {
        // The serve layer is measured on nuscenes-steady only.
        for (name, unit) in [
            ("serve.submit_to_done_ms_p90", "ms"),
            ("serve.max_queue_depth", "count"),
            ("serve.shed", "count"),
            ("serve.deadline_missed", "count"),
            ("serve.threads_peak", "count"),
            ("loadgen.late_ms_p90", "ms"),
        ] {
            r.push(name, unit, 0.0, 0);
        }
    }
    put(&mut r, "trace.coverage", "ratio");
    put(&mut r, "trace.overhead_pct", "%");

    std::fs::write(trace_path, log.chrome_json(&format!("perfbench {} seed {seed}", w.name)))?;
    r.note("trace", format!("{} spans written to {}", log.spans().len(), trace_path.display()));
    r.note("samples", format!("{} traced frames", rows.len()));
    r.check_failures = checks.failures.len();
    r.failed = r.check_failures.min(r.attempted as usize) as u64;
    Ok(r)
}

/// One sampled frame and what it is measured against.
struct Sample<'a, 'm> {
    w: &'a Workload,
    ops: &'a [LayerOp<'m>],
    frame: &'a SparseTensor,
    /// Executed before `frame`, so that `frame` misses the plan.
    prev: &'a SparseTensor,
    id: u64,
}

impl Sample<'_, '_> {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        log: &mut SpanLog,
        ctx: &mut Context,
        session: &mut CompiledSession<'_>,
        [one, all]: [&mut CompiledSession<'_>; 2],
        model: &torchsparse_models::MinkUNet,
        dbs: &mut TuneDbs,
        checks: &mut Checks,
    ) -> Res<Vec<(&'static str, &'static str, f64)>> {
        let (f, id) = (self.frame, self.id);
        let root = log.open("sample", None, id);

        // Replay passes. The cold pass runs simulate-only like the pass
        // after it, so their difference is the map building alone, not map
        // building plus the noise of two full numeric passes.
        ctx.begin_run();
        ctx.workloads.clear();
        ctx.record_workloads = true;
        ctx.simulate_only = true;
        let (cold, _) = self.pass(log, ctx, root, "pass.cold", &mut Vec::new())?;
        ctx.record_workloads = false;
        let layers: Vec<LayerWorkload> = std::mem::take(&mut ctx.workloads);
        let (sim, _) = self.pass(log, ctx, root, "pass.simulate", &mut Vec::new())?;
        ctx.simulate_only = false;
        let mut conv_shapes = Vec::new();
        let (warm, y_warm) = self.pass(log, ctx, root, "pass.warm", &mut conv_shapes)?;
        let exact = ctx.config.exact_accumulation;
        ctx.config.exact_accumulation = false;
        let (inexact, _) = self.pass(log, ctx, root, "pass.exact_off", &mut Vec::new())?;
        ctx.config.exact_accumulation = exact;

        // Coordinate index.
        let t = Instant::now();
        let (index, _) =
            log.time("coords.index", Some(root), id, || MphfIndex::build(f.coords()))?;
        let index_ms = ms(t.elapsed());
        let index_bytes = index.memory_bytes() as f64 / f.len() as f64;

        // Grouping: executed vs useful GEMM rows.
        let (mut executed, mut useful) = (0usize, 0usize);
        log.time("grouping.plan", Some(root), id, || {
            for l in &layers {
                let strategy = ctx.policy_for(&l.name).map_or(ctx.config.grouping, |p| p.grouping);
                let plan = plan_groups(&l.map_sizes, l.submanifold, strategy);
                executed += plan.executed_rows(&l.map_sizes);
                useful += plan.groups.iter().map(|g| g.useful_rows(&l.map_sizes)).sum::<usize>();
            }
        });

        // Storage-precision sweeps over every conv output.
        let pool = ctx.runtime.pool();
        let outs: Vec<Matrix> = conv_shapes.iter().map(|&(r, c)| filled(r, c)).collect();
        let precision = ctx.config.precision;
        let t = Instant::now();
        log.time("dataflow.precision", Some(root), id, || {
            for m in &outs {
                black_box(apply_storage_precision(&pool, black_box(m), precision));
            }
        });
        let precision_ms = ms(t.elapsed());
        drop(outs);

        // The frame's per-offset GEMMs, isolated.
        let mut gemms = Vec::new();
        let mut flop = 0.0;
        for l in &layers {
            let packed = std::sync::Arc::new(PackedB::pack(&filled(l.c_in, l.c_out)));
            for &m in l.map_sizes.iter().filter(|&&m| m > 0) {
                gemms.push((filled(m, l.c_in), packed.clone(), Matrix::zeros(m, l.c_out)));
                flop += 2.0 * (m * l.c_in * l.c_out) as f64;
            }
        }
        let t = Instant::now();
        log.time("tensor.gemm", Some(root), id, || -> Result<(), Box<dyn Error>> {
            for (a, b, c) in &mut gemms {
                mm_into_packed_on(&pool, a, b, c, GemmOpts::default())?;
                black_box(&*c);
            }
            Ok(())
        })?;
        let gemm_ms = ms(t.elapsed());
        drop(gemms);

        // Compile with a cold tuning database.
        let t = Instant::now();
        let report = log.time("session.compile", Some(root), id, || {
            compile(self.w, model, f, self.w.threads(), dbs)
                .map(|s| s.tuning_report().cloned().unwrap_or_default())
        })?;
        let compile_ms = ms(t.elapsed());

        // Plan miss, then the same frame again (a hit). Both run
        // simulate-only, so the difference is the re-plan, not feature-path
        // noise; then real hits (the first refills the workspace arena)
        // give the frame's output and time.
        session.engine_mut().context_mut().simulate_only = true;
        log.time("session.execute_prev", Some(root), id, || session.execute(self.prev))?;
        let t = Instant::now();
        log.time("session.execute_miss", Some(root), id, || session.execute(f))?;
        let miss = t.elapsed();
        let t = Instant::now();
        log.time("session.execute_hit_simulated", Some(root), id, || session.execute(f))?;
        let hit_simulated = t.elapsed();
        session.engine_mut().context_mut().simulate_only = false;
        session.execute(f)?;
        let t = Instant::now();
        let y_hit = log.time("session.execute_hit", Some(root), id, || session.execute(f))?;
        let hit = t.elapsed();
        let modeled_ms = session.last_latency().as_f64() / 1e3;
        checks.output(self.w, f, &y_hit, &format!("traced frame {id}"));
        checks.bitwise(&y_warm, &y_hit, "layer-by-layer replay vs compiled execute");

        // The same frame at 1 thread and at every core (second call: a hit).
        let mut timed_hit =
            |s: &mut CompiledSession<'_>, name: &str| -> Res<(Duration, SparseTensor)> {
                s.execute(f)?;
                let t = Instant::now();
                let y = log.time(name, Some(root), id, || s.execute(f))?;
                Ok((t.elapsed(), y))
            };
        let (t1, y1) = timed_hit(one, "runtime.execute_1_thread")?;
        let (tn, yn) = timed_hit(all, "runtime.execute_all_threads")?;
        checks.bitwise(&y1, &yn, "1 thread vs all threads");
        log.close(root);

        let conv_ms = |p: &Pass| ms(p.conv);
        let dataflow_ms = conv_ms(&warm) - conv_ms(&sim);
        Ok(vec![
            ("mapping.ms", "ms", conv_ms(&cold) - conv_ms(&sim)),
            (
                "mapping.entries",
                "count",
                layers.iter().flat_map(|l| &l.map_sizes).sum::<usize>() as f64,
            ),
            ("coords.index_ms", "ms", index_ms),
            ("coords.index_bytes_per_voxel", "B/voxel", index_bytes),
            ("session.compile_ms", "ms", compile_ms),
            ("session.miss_ms", "ms", ms(miss) - ms(hit_simulated)),
            ("tuning.candidates_measured", "count", report.candidates_measured as f64),
            ("tuning.warm_started", "count", report.warm_started as f64),
            ("grouping.redundancy", "ratio", executed as f64 / useful.max(1) as f64),
            ("dataflow.ms", "ms", dataflow_ms),
            ("dataflow.movement_ms", "ms", dataflow_ms - gemm_ms),
            ("dataflow.exact_accum_ms", "ms", conv_ms(&warm) - conv_ms(&inexact)),
            ("dataflow.precision_ms", "ms", precision_ms),
            ("pointwise.ms", "ms", ms(warm.pointwise)),
            ("tensor.gemm_ms", "ms", gemm_ms),
            ("tensor.gflop_per_frame", "GFLOP", flop / 1e9),
            ("tensor.achieved_gflops", "GFLOP/s", flop / 1e9 / hit.as_secs_f64()),
            ("gpusim.ms", "ms", ms(sim.frame)),
            ("gpusim.modeled_ms", "ms", modeled_ms),
            ("runtime.speedup", "x", t1.as_secs_f64() / tn.as_secs_f64()),
            (
                "trace.coverage",
                "ratio",
                log.descendant_self_time(warm.span).as_secs_f64() / warm.frame.as_secs_f64(),
            ),
            (
                "trace.overhead_pct",
                "%",
                100.0 * (warm.frame.as_secs_f64() / hit.as_secs_f64() - 1.0),
            ),
        ])
    }

    /// One replay pass over the traced ops; returns its span times and the
    /// output. `conv_shapes` receives every conv output's shape.
    fn pass(
        &self,
        log: &mut SpanLog,
        ctx: &mut Context,
        root: SpanId,
        name: &str,
        conv_shapes: &mut Vec<(usize, usize)>,
    ) -> Res<(Pass, SparseTensor)> {
        let span = log.open(name, Some(root), self.id);
        let y = replay(self.ops, self.frame, ctx, log, span, self.id, conv_shapes)?;
        let frame = log.close(span);
        let (mut conv, mut pointwise) = (Duration::ZERO, Duration::ZERO);
        let mut todo: Vec<SpanId> = log.children(span).map(|(c, _)| c).collect();
        while let Some(c) = todo.pop() {
            let name = &log.spans()[c].name;
            if name.starts_with("conv") {
                conv += log.self_time(c);
            } else if name.starts_with("pointwise") {
                pointwise += log.self_time(c);
            }
            todo.extend(log.children(c).map(|(g, _)| g));
        }
        Ok((Pass { span, frame, conv, pointwise }, y))
    }
}

/// Runs `ops` layer by layer through each layer's public `forward`, one
/// span per op. Skips and residuals use the same value stack as the
/// compiled executor.
fn replay(
    ops: &[LayerOp<'_>],
    input: &SparseTensor,
    ctx: &mut Context,
    log: &mut SpanLog,
    parent: SpanId,
    frame: u64,
    conv_shapes: &mut Vec<(usize, usize)>,
) -> Res<SparseTensor> {
    let p = Some(parent);
    let mut cur: Option<SparseTensor> = None;
    let mut stack: Vec<SparseTensor> = Vec::new();
    let empty = |reason| CoreError::PlanMismatch { reason };
    for op in ops {
        let x = cur.as_ref().unwrap_or(input);
        let next = match op {
            LayerOp::Conv(c) => {
                let y = log.time("conv", p, frame, || c.forward(x, ctx))?;
                conv_shapes.push((y.len(), y.channels()));
                y
            }
            LayerOp::Pool(m) => log.time("pool", p, frame, || m.forward(x, ctx))?,
            LayerOp::BatchNorm(m) => log.time("pointwise.bn", p, frame, || m.forward(x, ctx))?,
            LayerOp::Relu(m) => log.time("pointwise.relu", p, frame, || m.forward(x, ctx))?,
            LayerOp::GlobalPool(m) => log.time("pool.global", p, frame, || m.forward(x, ctx))?,
            LayerOp::Push => {
                log.time("pointwise.push", p, frame, || stack.push(x.clone()));
                continue;
            }
            LayerOp::PopConcat => log.time("pointwise.concat", p, frame, || {
                let saved = stack.pop().ok_or(empty("concat pops an empty stack"))?;
                x.cat_features(&saved)
            })?,
            LayerOp::ResidualAdd { projection } => {
                let id = log.open("pointwise.residual", p, frame);
                let saved = stack.pop().ok_or(empty("residual pops an empty stack"))?;
                let shortcut = match projection {
                    Some(c) => {
                        let y = log.time("conv", Some(id), frame, || c.forward(&saved, ctx))?;
                        conv_shapes.push((y.len(), y.channels()));
                        y
                    }
                    None => saved,
                };
                let y = x.with_feats(x.feats() + shortcut.feats())?;
                log.close(id);
                y
            }
        };
        cur = Some(next);
    }
    Ok(cur.unwrap_or_else(|| input.clone()))
}

/// Plan-cache counters over the stream's first [`SEGMENT_FRAMES`] frames,
/// run untraced through a fresh session.
struct Segment {
    hit_ratio: f64,
    delta_patches: f64,
    full_replans: f64,
    delta_fallbacks: f64,
    plan_mb: f64,
}

fn plan_cache_segment(
    w: &Workload,
    model: &torchsparse_models::MinkUNet,
    frames: &[SparseTensor],
    dbs: &mut TuneDbs,
    log: &mut SpanLog,
    checks: &mut Checks,
) -> Res<Segment> {
    let mut session = compile(w, model, &frames[0], w.threads(), dbs)?;
    let before = session.stats();
    let id = log.open("session.segment", None, 0);
    for (i, x) in frames.iter().take(SEGMENT_FRAMES).enumerate() {
        let y = session.execute(x)?;
        checks.output(w, x, &y, &format!("segment frame {i}"));
    }
    log.close(id);
    let after = session.stats();
    let d = |a: u64, b: u64| (a - b) as f64;
    Ok(Segment {
        hit_ratio: d(after.hits, before.hits) / SEGMENT_FRAMES as f64,
        delta_patches: d(after.delta_patches, before.delta_patches),
        full_replans: d(after.full_replans, before.full_replans),
        delta_fallbacks: d(after.delta_fallbacks, before.delta_fallbacks),
        plan_mb: after.plan_bytes as f64 / MIB,
    })
}

/// The packed microkernel's rate on a large square GEMM, on a pool of the
/// workload's thread count.
fn peak_gflops(threads: usize, log: &mut SpanLog) -> Res<f64> {
    let pool = torchsparse_core::ThreadPool::new(threads);
    let n = PEAK_GEMM_N;
    let a = filled(n, n);
    let b = PackedB::pack(&filled(n, n));
    let mut c = Matrix::zeros(n, n);
    let mut rates = Vec::new();
    for _ in 0..PEAK_GEMM_REPS {
        let t = Instant::now();
        log.time("tensor.peak_gemm", None, 0, || {
            mm_into_packed_on(&pool, &a, &b, &mut c, GemmOpts::default())
        })?;
        black_box(&c);
        rates.push(2.0 * (n * n * n) as f64 / 1e9 / t.elapsed().as_secs_f64());
    }
    Ok(median(&rates)?)
}

/// A deterministic, non-trivial matrix (values do not affect timing).
fn filled(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.1 - 0.5)
}
