//! The timed runs (tracing off) that produce the end-to-end metrics: a
//! closed loop with one client. Also the open-loop serving phase the traced
//! run of `nuscenes-steady` uses to measure the serve layer.

use crate::openloop::{at_exact_rate, run_schedule, Clock, WallClock};
use crate::report::RunResult;
use crate::stats::{median, percentile, settled_prefix};
use crate::workload::{
    compile, host_cores, measure_setup, ms, peak_rss_mb, thread_count, Checks, Inputs, TuneDbs,
    Workload, REPLAN_EVERY,
};
use std::collections::HashMap;
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};
use torchsparse_core::SparseTensor;
use torchsparse_data::poisson_arrivals;
use torchsparse_models::MinkUNet;
use torchsparse_serve::{serve, HealthReport, ServiceConfig};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Timed frames a run needs at least, so that ten lie beyond its p90.
pub const MIN_TIMED_FRAMES: usize = 100;
/// Latency limit of the SLO metric.
pub const SLO: Duration = Duration::from_secs(1);
/// Warm-up ends when two consecutive windows of frame times have medians
/// within this relative distance, or after [`WARMUP_CAP`] frames.
const WARMUP_TOLERANCE: f64 = 0.10;
const WARMUP_CAP: usize = 48;
/// Every this-many timed frames, one output is kept for the comparison
/// against the FP32 baseline (at most [`MAX_SAMPLES`] per run).
const SAMPLE_EVERY: usize = 16;
const MAX_SAMPLES: usize = 6;

/// Per-stream Poisson arrival rate of the serving phase: a fixed absolute
/// rate, about half of what one engine thread sustains on these frames
/// while the other stream runs on the second core.
pub const RATE_HZ: f64 = 2.0;
/// Seed of the arrival trace. The trace is fixed, not drawn from the run's
/// seed: every run (and both sides of a comparison) offers the same burst
/// pattern, so the tail latency compares service, not luck of the draw;
/// the run's seed still chooses the frames.
const ARRIVAL_SEED: u64 = 0x5EED_A221;
/// Serving streams (one engine thread each), never more than the cores.
const SERVE_STREAMS: usize = 2;
/// Requests per stream that warm the service up and are not counted.
const SERVE_WARMUP_PER_STREAM: usize = 4;
const SERVE_QUEUE: usize = 4;
/// The first request is due this long after the generator starts, so the
/// workers are up before it.
const SERVE_START: Duration = Duration::from_millis(100);

type Res<T> = Result<T, Box<dyn Error>>;

const NO_VMHWM: &str = "no VmHWM in /proc/self/status";

/// Closed loop: one client sends the next frame when the previous returns.
/// Latency is the duration of the `CompiledSession::execute` call.
pub fn closed_loop(
    w: &Workload,
    seed: u64,
    seconds: u64,
    inputs: &Inputs,
    dbs: &mut TuneDbs,
) -> Res<RunResult> {
    let mut checks = Checks::default();
    let frames = &inputs.frames;
    let setup = measure_setup(w, seed, &frames[0], SETUP_REPS, dbs, &mut checks)?;

    let model = w.model(seed);
    let mut session = compile(w, &model, &frames[0], w.threads(), dbs)?;
    let mut cursor = 0usize;

    // Warm-up: frames run until their times settle; none is counted.
    // Churn frames cycle through a re-plan every REPLAN_EVERY frames, so
    // their window spans one cycle.
    let window = if inputs.steady { 4 } else { REPLAN_EVERY };
    let mut warm = Vec::new();
    let mut settled = false;
    while warm.len() < WARMUP_CAP && !settled {
        let x = &frames[cursor % frames.len()];
        cursor += 1;
        let t = Instant::now();
        let y = session.execute(x)?;
        warm.push(ms(t.elapsed()));
        checks.output(w, x, &y, "warm-up frame");
        settled = settled_prefix(&warm, window, WARMUP_TOLERANCE).is_some();
    }

    let mut latencies = Vec::new();
    let (mut attempted, mut ok, mut within_slo) = (0u64, 0u64, 0u64);
    let mut samples: Vec<(usize, SparseTensor)> = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while start.elapsed() < budget || latencies.len() < MIN_TIMED_FRAMES {
        let i = cursor % frames.len();
        cursor += 1;
        let x = &frames[i];
        let t = Instant::now();
        let r = session.execute(x);
        let dt = t.elapsed();
        attempted += 1;
        match r {
            Ok(y) => {
                latencies.push(ms(dt));
                if checks.output(w, x, &y, &format!("timed frame {i}")) {
                    ok += 1;
                    within_slo += u64::from(dt <= SLO);
                    if latencies.len() % SAMPLE_EVERY == 1 && samples.len() < MAX_SAMPLES {
                        samples.push((i, y));
                    }
                }
            }
            Err(e) => checks.fail(format!("timed frame {i}: {e}")),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    // Peak memory of the workload itself, before the output checks below
    // build their own engines.
    let rss_mb = peak_rss_mb().ok_or(NO_VMHWM)?;
    let stats = session.stats();
    drop(session);

    // Output checks outside the timed phase.
    let refs: Vec<(usize, &SparseTensor, &SparseTensor)> =
        samples.iter().map(|(i, y)| (*i, &frames[*i], y)).collect();
    let wrong = checks.against_baseline(&model, &refs)? as u64;
    let probe = samples.first().map_or(0, |s| s.0);
    checks.threads_bitwise(w, &model, &frames[probe], dbs)?;

    let ok = ok.saturating_sub(wrong);
    let within_slo = within_slo.saturating_sub(wrong);
    let mut r = RunResult { attempted, failed: attempted - ok, ..RunResult::default() };
    r.note("loop", format!("closed, 1 client, {} engine threads", w.threads()));
    r.note("warm_up_frames", format!("{} (settled: {settled})", warm.len()));
    r.note(
        "plan_cache",
        format!(
            "hits={} misses={} delta_patches={} full_replans={} delta_fallbacks={}",
            stats.hits,
            stats.misses,
            stats.delta_patches,
            stats.full_replans,
            stats.delta_fallbacks
        ),
    );
    push_end_to_end(&mut r, &latencies, &setup, ok, within_slo, wall, rss_mb, &checks)?;
    Ok(r)
}

/// The seven end-to-end metrics, in `BENCHMARK.json` order.
#[allow(clippy::too_many_arguments)]
fn push_end_to_end(
    r: &mut RunResult,
    latencies: &[f64],
    setup: &[f64],
    ok: u64,
    within_slo: u64,
    wall_s: f64,
    rss_mb: f64,
    checks: &Checks,
) -> Res<()> {
    let n = latencies.len();
    r.push("latency_ms_p50", "ms", percentile(latencies, 0.5)?, n);
    r.push("latency_ms_p90", "ms", percentile(latencies, 0.9)?, n);
    r.push("throughput_fps", "frames/s", ok as f64 / wall_s, ok as usize);
    r.push("setup_s", "s", median(setup)?, setup.len());
    r.push("peak_rss_mb", "MiB", rss_mb, 1);
    let attempted = r.attempted.max(1) as f64;
    r.push("ok_ratio", "ratio", ok as f64 / attempted, r.attempted as usize);
    r.push("slo_met_ratio", "ratio", within_slo as f64 / attempted, r.attempted as usize);
    r.check_failures = checks.failures.len();
    r.note(
        "output_checks",
        format!(
            "{} failures; {} frames vs FP32 baseline (max relative L2 {:.3e}, bound {:.0e}); \
             {} bitwise comparisons",
            checks.failures.len(),
            checks.baseline_compared,
            checks.max_rel_l2,
            crate::workload::REL_L2_BOUND,
            checks.bitwise_compared
        ),
    );
    Ok(())
}

/// What one serving phase measured.
pub struct ServePhase {
    pub attempted: u64,
    pub ok: u64,
    pub within_slo: u64,
    pub latency_from_due_ms: Vec<f64>,
    /// The service's own submit-to-done latency of admitted requests.
    pub submit_to_done_ms: Vec<f64>,
    /// How late the generator submitted each timed request.
    pub late_ms: Vec<f64>,
    pub wall_s: f64,
    pub threads_peak: usize,
    pub health: HealthReport,
}

/// Serves the workload's frames open loop over the serving runtime, timing
/// each request from its due time, and checks every output.
pub fn serve_phase(
    w: &Workload,
    seconds: u64,
    inputs: &Inputs,
    model: &MinkUNet,
    dbs: &mut TuneDbs,
    checks: &mut Checks,
) -> Res<ServePhase> {
    let frames: Vec<Arc<SparseTensor>> = inputs.frames.iter().cloned().map(Arc::new).collect();
    let session = compile(w, model, &frames[0], w.threads(), dbs)?;
    let (shared, _) = session.into_parts();

    let streams = SERVE_STREAMS.min(host_cores());
    let timed = (seconds as f64 * RATE_HZ * streams as f64).max(MIN_TIMED_FRAMES as f64);
    let per_stream = SERVE_WARMUP_PER_STREAM + (timed / streams as f64).ceil() as usize;
    // (due, stream, index within the stream), in due order.
    let mut schedule: Vec<(Duration, usize, usize)> = Vec::new();
    for s in 0..streams {
        let arrivals = poisson_arrivals(per_stream, RATE_HZ, ARRIVAL_SEED.wrapping_add(s as u64));
        for (i, us) in at_exact_rate(&arrivals, RATE_HZ).into_iter().enumerate() {
            schedule.push((SERVE_START + Duration::from_micros(us), s, i));
        }
    }
    schedule.sort();
    let dues: Vec<Duration> = schedule.iter().map(|e| e.0).collect();
    let frame_of = |s: usize, i: usize| (i * streams + s) % frames.len();

    let config = ServiceConfig {
        queue_capacity: SERVE_QUEUE,
        deadline: Some(SLO),
        keep_outputs: true,
        ..ServiceConfig::default()
    };
    let mut threads_peak = 0usize;
    let clock = WallClock::start();
    let (offers, outcome) = serve(&shared, streams, &config, |svc| {
        run_schedule(
            &clock,
            &dues,
            |k| {
                let (_, s, i) = schedule[k];
                svc.submit(s, i as u64, frames[frame_of(s, i)].clone()).is_ok()
            },
            || threads_peak = threads_peak.max(thread_count().unwrap_or(0)),
        )
    })?;
    let end = clock.now();

    let done: HashMap<(usize, u64), &torchsparse_serve::Completion> =
        outcome.completions.iter().map(|c| ((c.stream, c.frame), c)).collect();
    let mut p = ServePhase {
        attempted: 0,
        ok: 0,
        within_slo: 0,
        latency_from_due_ms: Vec::new(),
        submit_to_done_ms: Vec::new(),
        late_ms: Vec::new(),
        wall_s: 0.0,
        threads_peak,
        health: outcome.health.clone(),
    };
    let mut first_due = None;
    let mut samples: Vec<(usize, Arc<SparseTensor>, SparseTensor)> = Vec::new();
    for (offer, &(_, s, i)) in offers.iter().zip(&schedule) {
        if i < SERVE_WARMUP_PER_STREAM {
            continue;
        }
        first_due.get_or_insert(offer.due);
        p.attempted += 1;
        p.late_ms.push(ms(offer.late()));
        let x = &frames[frame_of(s, i)];
        // A shed or rejected request has no completion: it is failed, and
        // a miss.
        let Some(c) = done.get(&(s, i as u64)) else { continue };
        let Some(from_due) = offer.latency_from_due(c.latency) else { continue };
        p.submit_to_done_ms.push(ms(c.latency));
        match &c.result {
            Ok(Some(y)) if checks.output(w, x, y, &format!("stream {s} frame {i}")) => {
                p.latency_from_due_ms.push(ms(from_due));
                p.ok += 1;
                p.within_slo += u64::from(from_due <= SLO);
                if p.ok as usize % SAMPLE_EVERY == 1 && samples.len() < MAX_SAMPLES {
                    samples.push((frame_of(s, i), x.clone(), y.clone()));
                }
            }
            Ok(Some(_)) => {}
            Ok(None) => checks.fail(format!("stream {s} frame {i}: output not kept")),
            // Typed serving failures (deadline overruns) are failed frames
            // and SLO misses, not wrong outputs.
            Err(_) => {}
        }
    }
    p.wall_s = (end - first_due.unwrap_or(SERVE_START)).as_secs_f64();

    let refs: Vec<(usize, &SparseTensor, &SparseTensor)> =
        samples.iter().map(|(i, x, y)| (*i, x.as_ref(), y)).collect();
    let wrong = checks.against_baseline(model, &refs)? as u64;
    p.ok = p.ok.saturating_sub(wrong);
    p.within_slo = p.within_slo.saturating_sub(wrong);
    if let Some((_, x, y)) = samples.first() {
        // A served output must equal the same frame run alone.
        let solo = compile(w, model, x, w.threads(), dbs)?.execute(x)?;
        checks.bitwise(y, &solo, "served vs solo session");
        checks.threads_bitwise(w, model, x, dbs)?;
    }
    Ok(p)
}
