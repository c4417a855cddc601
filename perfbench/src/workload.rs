//! The three workloads: their inputs (generated from the seed, never
//! timed), their model and engine settings, the set-up measurement, and the
//! output checks every run applies.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use torchsparse_core::{
    CompiledSession, CoreError, DeviceProfile, Engine, EnginePreset, OptimizationConfig,
    SparseTensor,
};
use torchsparse_data::{geometry_static_stream, temporal_churn_stream, SyntheticDataset};
use torchsparse_models::MinkUNet;
use torchsparse_tensor::Matrix;

/// A workload's name, the reason it exists, and its fixed settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    pub scale: f64,
    /// Voxels per frame: every scene is cropped to this many.
    pub voxels: usize,
    /// Accepted forward-pass work per frame, GFLOP: scenes outside the band
    /// are skipped, so the seed changes what the sensor sees but not how
    /// much work a frame is.
    pub gflop: [f64; 2],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NuscenesSteady,
    KittiChurn,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        kind: Kind::NuscenesSteady,
        name: "nuscenes-steady",
        why: "MinkUNet 1f nuScenes, one geometry, 1 thread, closed loop: every frame hits the \
              plan; the traced run also serves these frames open loop to measure the serve layer",
        scale: 0.01,
        voxels: 280,
        gflop: [1.38, 1.43],
    },
    Workload {
        kind: Kind::KittiChurn,
        name: "kitti-churn",
        why: "MinkUNet 0.5x SemanticKITTI, 5% churn (30% every 8th), all cores, closed loop: \
              every frame misses the plan, so coords, mapping, session and delta run",
        scale: 0.01,
        voxels: 860,
        gflop: [1.18, 1.22],
    },
];

/// Feature jitter of the geometry-static stream.
pub const JITTER: f32 = 0.02;
/// Churn of ordinary kitti-churn frames (takes the delta-patch path).
pub const CHURN: f64 = 0.05;
/// Churn of every [`REPLAN_EVERY`]-th frame (above the 15% threshold, so it
/// forces a full re-plan).
pub const CHURN_REPLAN: f64 = 0.30;
pub const REPLAN_EVERY: usize = 8;
/// Frames generated per run; the timed loop cycles through them.
const STEADY_FRAMES: usize = 64;
const CHURN_FRAMES: usize = 256;
/// Largest relative L2 distance allowed between a frame's output and the
/// `BaselineFp32` preset's output for the same frame. The engine stores
/// activations in binary16, whose unit roundoff is 2^-11 ~ 4.9e-4 per
/// element; errors compound over the network's depth, so the bound leaves
/// an order of magnitude over that.
pub const REL_L2_BOUND: f64 = 1e-2;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Engine worker threads per compiled session.
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::KittiChurn => host_cores(),
            Kind::NuscenesSteady => 1,
        }
    }

    /// Output classes of the workload's model.
    pub fn classes(&self) -> usize {
        match self.kind {
            Kind::KittiChurn => 19,
            Kind::NuscenesSteady => 16,
        }
    }

    /// MinkUNet (1.0x, 16 classes) for nuScenes, MinkUNet (0.5x, 19
    /// classes) for SemanticKITTI.
    pub fn model(&self, seed: u64) -> MinkUNet {
        match self.kind {
            Kind::KittiChurn => MinkUNet::with_width(0.5, 4, 19, seed),
            Kind::NuscenesSteady => MinkUNet::with_width(1.0, 4, 16, seed),
        }
    }

    /// The workload's frames, plus one frame of unrelated geometry that the
    /// traced run uses to force plan misses on the steady stream.
    pub fn inputs(&self, seed: u64) -> Result<Inputs, CoreError> {
        match self.kind {
            Kind::NuscenesSteady => {
                let ds = SyntheticDataset::nuscenes(self.scale, 4, 1);
                let base = self.scene(&ds, seed)?;
                let alt = self.scene(&ds, seed.wrapping_add(ALT_OFFSET))?;
                let frames = geometry_static_stream(&base, STEADY_FRAMES, JITTER, seed)?;
                Ok(Inputs { frames, alt, steady: true })
            }
            Kind::KittiChurn => {
                let ds = SyntheticDataset::semantic_kitti(self.scale, 4);
                let base = self.scene(&ds, seed)?;
                let alt = self.scene(&ds, seed.wrapping_add(ALT_OFFSET))?;
                let mut frames = Vec::with_capacity(CHURN_FRAMES);
                frames.push(base);
                for i in 1..CHURN_FRAMES {
                    let churn = if i % REPLAN_EVERY == 0 { CHURN_REPLAN } else { CHURN };
                    let prev = &frames[i - 1];
                    let step_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
                    let next = temporal_churn_stream(prev, 2, churn, step_seed)?.swap_remove(1);
                    frames.push(next);
                }
                Ok(Inputs { frames, alt, steady: false })
            }
        }
    }

    /// A scene of this workload's size and work band, chosen by `seed`.
    fn scene(&self, ds: &SyntheticDataset, seed: u64) -> Result<SparseTensor, CoreError> {
        fixed_work_scene(ds, &self.model(0), seed, self.voxels, self.gflop)
    }

    /// The engine configuration every timed session of this workload uses.
    pub fn config(&self, threads: usize, tune_db: &Path) -> OptimizationConfig {
        let mut cfg = EnginePreset::TorchSparse.config();
        cfg.threads = Some(threads);
        cfg.tune_db = Some(tune_db.to_path_buf());
        cfg
    }
}

/// Seed offset of the unrelated `alt` scene.
const ALT_OFFSET: u64 = 1 << 32;

/// The first scene, from `seed` on, that has at least `voxels` voxels and,
/// cropped to the `voxels` nearest the sensor (kept in their original
/// order), costs the model a forward pass within `gflop`. Synthetic scenes
/// at this scale differ a lot in how far their points spread, and so in how
/// many coarse voxels the deep, wide layers see; the band keeps that out of
/// the comparison between seeds.
pub fn fixed_work_scene(
    ds: &SyntheticDataset,
    model: &MinkUNet,
    seed: u64,
    voxels: usize,
    gflop: [f64; 2],
) -> Result<SparseTensor, CoreError> {
    for k in 0..256u64 {
        let scene = ds.scene(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))?;
        if scene.len() < voxels {
            continue;
        }
        let dist = |i: usize| {
            let c = scene.coords()[i];
            let (x, y, z) = (i64::from(c.x), i64::from(c.y), i64::from(c.z));
            (x * x + y * y + z * z, c)
        };
        let mut keep: Vec<usize> = (0..scene.len()).collect();
        keep.sort_by_key(|&i| dist(i));
        keep.truncate(voxels);
        keep.sort_unstable();
        let coords = keep.iter().map(|&i| scene.coords()[i]).collect();
        let feats = scene.feats();
        let rows = Matrix::from_fn(voxels, feats.cols(), |r, c| feats.row(keep[r])[c]);
        let cropped = SparseTensor::with_stride(coords, rows, scene.stride())?;
        let work = forward_gflop(model, &cropped)?;
        if (gflop[0]..=gflop[1]).contains(&work) {
            return Ok(cropped);
        }
    }
    Err(CoreError::InvalidConfig {
        reason: format!("no scene of {voxels} voxels and {gflop:?} GFLOP from seed {seed}"),
    })
}

/// GFLOP of `model`'s convolutions on `scene` (2 x map entries x C_in x
/// C_out, summed), counted in a simulate-only run.
pub fn forward_gflop(model: &MinkUNet, scene: &SparseTensor) -> Result<f64, CoreError> {
    let mut cfg = EnginePreset::TorchSparse.config();
    cfg.threads = Some(1);
    let mut engine = Engine::try_with_config(cfg, device())?;
    engine.context_mut().simulate_only = true;
    engine.context_mut().record_workloads = true;
    engine.run(model, scene)?;
    let flop: usize = engine
        .context()
        .workloads
        .iter()
        .map(|l| 2 * l.map_sizes.iter().sum::<usize>() * l.c_in * l.c_out)
        .sum();
    Ok(flop as f64 / 1e9)
}

/// A workload's generated inputs.
pub struct Inputs {
    pub frames: Vec<SparseTensor>,
    pub alt: SparseTensor,
    /// Whether every frame shares one geometry.
    pub steady: bool,
}

pub fn device() -> DeviceProfile {
    DeviceProfile::rtx_2080ti()
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Fresh, empty tuning-database paths under the benchmark's output
/// directory. Every compile gets its own, so each autotune search is cold.
pub struct TuneDbs {
    dir: PathBuf,
    prefix: String,
    next: usize,
}

impl TuneDbs {
    pub fn new(dir: &Path) -> TuneDbs {
        TuneDbs { dir: dir.to_path_buf(), prefix: format!("tune-{}-", std::process::id()), next: 0 }
    }

    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        let path = self.dir.join(format!("{}{}.json", self.prefix, self.next));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Deletes every database this run created (including temp files the
    /// atomic writer may have left).
    pub fn remove_all(&self) {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                if e.file_name().to_string_lossy().starts_with(&self.prefix) {
                    let _ = std::fs::remove_file(e.path());
                }
            }
        }
    }
}

/// Compiles `model` for `frame` with a fresh tuning database.
pub fn compile<'m>(
    w: &Workload,
    model: &'m MinkUNet,
    frame: &SparseTensor,
    threads: usize,
    dbs: &mut TuneDbs,
) -> Result<CompiledSession<'m>, CoreError> {
    Engine::try_with_config(w.config(threads, &dbs.fresh()), device())?.compile(model, frame)
}

/// Set-up time: model build, `Engine::compile` (including a cold autotune
/// search against an empty tuning database), and the first frame, repeated
/// `reps` times. Every first output is checked.
pub fn measure_setup(
    w: &Workload,
    seed: u64,
    frame: &SparseTensor,
    reps: usize,
    dbs: &mut TuneDbs,
    checks: &mut Checks,
) -> Result<Vec<f64>, CoreError> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let model = w.model(seed);
        let mut session = compile(w, &model, frame, w.threads(), dbs)?;
        let y = session.execute(frame)?;
        times.push(t0.elapsed().as_secs_f64());
        checks.output(w, frame, &y, "setup first frame");
    }
    Ok(times)
}

/// Output checks of one run. A failure is counted and remembered; the run
/// reports `correct: false` and exits non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    /// Largest relative L2 distance to the FP32 baseline seen.
    pub max_rel_l2: f64,
    pub baseline_compared: usize,
    pub bitwise_compared: usize,
}

impl Checks {
    /// Records a failure.
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            eprintln!("output check failed: {what}");
        }
        self.failures.push(what);
    }

    /// Shape, coordinates and finiteness of one output. Returns whether it
    /// passed.
    pub fn output(&mut self, w: &Workload, x: &SparseTensor, y: &SparseTensor, at: &str) -> bool {
        let problem = if y.channels() != w.classes() {
            Some(format!("{} channels, expected {}", y.channels(), w.classes()))
        } else if y.coords() != x.coords() {
            Some(format!("output coordinates differ from the input's ({} vs {})", y.len(), x.len()))
        } else if !y.feats().is_finite() {
            Some(format!("{} non-finite outputs", y.feats().count_nonfinite()))
        } else {
            None
        };
        match problem {
            Some(p) => {
                self.fail(format!("{at}: {p}"));
                false
            }
            None => true,
        }
    }

    /// Compares outputs of sampled frames against the `BaselineFp32`
    /// preset run on the same model and frames; returns how many differ by
    /// more than [`REL_L2_BOUND`].
    pub fn against_baseline(
        &mut self,
        model: &MinkUNet,
        samples: &[(usize, &SparseTensor, &SparseTensor)],
    ) -> Result<usize, CoreError> {
        let mut cfg = EnginePreset::BaselineFp32.config();
        cfg.threads = Some(host_cores());
        let mut baseline = Engine::try_with_config(cfg, device())?;
        let mut wrong = 0;
        for &(i, x, y) in samples {
            let reference = baseline.run(model, x)?;
            let d = rel_l2(reference.feats().as_slice(), y.feats().as_slice());
            self.baseline_compared += 1;
            self.max_rel_l2 = self.max_rel_l2.max(d);
            if d.is_nan() || d > REL_L2_BOUND {
                self.fail(format!(
                    "frame {i}: relative L2 {d:.3e} to FP32 baseline > {REL_L2_BOUND}"
                ));
                wrong += 1;
            }
        }
        Ok(wrong)
    }

    /// Requires two outputs of the same frame to be bitwise equal.
    pub fn bitwise(&mut self, a: &SparseTensor, b: &SparseTensor, what: &str) {
        self.bitwise_compared += 1;
        if bits(a) != bits(b) || a.coords() != b.coords() {
            self.fail(format!("{what}: outputs differ bitwise"));
        }
    }

    /// The same frame run at 1 thread and at every core must agree bitwise.
    pub fn threads_bitwise(
        &mut self,
        w: &Workload,
        model: &MinkUNet,
        frame: &SparseTensor,
        dbs: &mut TuneDbs,
    ) -> Result<(), CoreError> {
        let y1 = compile(w, model, frame, 1, dbs)?.execute(frame)?;
        let yn = compile(w, model, frame, host_cores(), dbs)?.execute(frame)?;
        self.bitwise(&y1, &yn, &format!("1 thread vs {} threads", host_cores()));
        Ok(())
    }
}

/// `||a - b|| / ||a||`, accumulated in f64.
pub fn rel_l2(reference: &[f32], got: &[f32]) -> f64 {
    if reference.len() != got.len() {
        return f64::INFINITY;
    }
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (&r, &g) in reference.iter().zip(got) {
        let d = f64::from(g) - f64::from(r);
        num += d * d;
        den += f64::from(r) * f64::from(r);
    }
    if den == 0.0 {
        return if num == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (num / den).sqrt()
}

pub fn bits(t: &SparseTensor) -> Vec<u32> {
    t.feats().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `VmHWM` (peak resident set) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// `Threads:` of this process.
pub fn thread_count() -> Option<usize> {
    proc_status_kb("Threads:").map(|v| v as usize)
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_l2_basics() {
        assert_eq!(rel_l2(&[3.0, 4.0], &[3.0, 4.0]), 0.0);
        assert!((rel_l2(&[3.0, 4.0], &[3.0, 4.5]) - 0.1).abs() < 1e-12);
        assert_eq!(rel_l2(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert!(rel_l2(&[1.0], &[f32::NAN]).is_nan());
    }

    #[test]
    fn scenes_have_the_workload_size_and_work() {
        for w in WORKLOADS {
            let model = w.model(0);
            for seed in [1, 8, 11] {
                let inputs = w.inputs(seed).unwrap();
                for x in [&inputs.frames[0], &inputs.alt] {
                    assert_eq!(x.len(), w.voxels, "{} seed {seed}", w.name);
                    let work = forward_gflop(&model, x).unwrap();
                    assert!((w.gflop[0]..=w.gflop[1]).contains(&work), "{} seed {seed}", w.name);
                }
                assert_ne!(inputs.alt.coords(), inputs.frames[0].coords());
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
