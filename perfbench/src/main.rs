//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nuscenes-steady|kitti-churn> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of one workload,
//! measured on the wall clock with tracing off; with `--trace 1` it prints
//! the per-layer metrics of a separate traced run and writes the spans as a
//! Chrome trace. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Output checks run in the
//! same command; a failed check exits with code 1.
//!
//! Inputs are generated from the seed before anything is timed. Engine
//! overrides in the environment (`TORCHSPARSE_*`) are refused, so two runs
//! being compared cannot silently take different routes; every compile
//! gets its own empty tuning database under the output directory. The
//! measuring process runs with glibc's mmap threshold pinned, so its peak
//! memory does not depend on the order of frees.

mod openloop;
mod report;
mod stats;
mod timed;
mod trace;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::{TuneDbs, Workload};

/// The allocator setting every measuring process runs with (see `main`).
const MMAP_THRESHOLD: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be a positive integer")?,
        trace: trace.unwrap_or(false),
    })
}

/// Engine overrides set in the environment.
fn engine_overrides() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TORCHSPARSE_"))
        .collect()
}

/// Where traces and temporary tuning databases go: the build directory,
/// which stays inside the checkout and out of version control.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .filter(|d| !d.is_empty())
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-out")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let overrides = engine_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with engine overrides set: {} (unset them; the \
             benchmark measures the engine's default routes)",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    // glibc raises its mmap threshold each time a large block is freed, so
    // whether later buffers land on the heap, and with them the peak RSS,
    // depends on the order of frees (on a 2-core x86-64 host, kitti-churn
    // peaked at 61 or 84 MiB by seed). The benchmark pins the threshold at
    // glibc's initial value by running itself again with it set.
    if std::env::var(MMAP_THRESHOLD.0).ok().as_deref() != Some(MMAP_THRESHOLD.1) {
        let status = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(&argv)
                .env(MMAP_THRESHOLD.0, MMAP_THRESHOLD.1)
                .status()
        });
        return match status {
            Ok(s) => ExitCode::from(s.code().map_or(1, |c| u8::try_from(c).unwrap_or(1))),
            Err(e) => {
                eprintln!("perfbench: cannot start the measuring process: {e}");
                ExitCode::from(2)
            }
        };
    }
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut dbs = TuneDbs::new(&dir);
    let result = run(&args, &mut dbs, &dir);
    dbs.remove_all();
    match result {
        Ok(r) => {
            r.print_report(&args.workload, args.seed, args.seconds, args.trace);
            println!("{}", r.summary_json());
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name);
            ExitCode::from(1)
        }
    }
}

fn run(
    args: &Args,
    dbs: &mut TuneDbs,
    dir: &std::path::Path,
) -> Result<report::RunResult, Box<dyn std::error::Error>> {
    let w = &args.workload;
    let inputs = w.inputs(args.seed)?;
    if args.trace {
        let path = dir.join(format!("trace-{}-seed{}.json", w.name, args.seed));
        traced::traced(w, args.seed, args.seconds, &inputs, dbs, &path)
    } else {
        timed::closed_loop(w, args.seed, args.seconds, &inputs, dbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            parse_args(&args("--workload kitti-churn --seed 7 --seconds 25 --trace 1")).unwrap();
        assert_eq!(a.workload.name, "kitti-churn");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 25, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload kitti-churn --seconds 1")).is_err());
        assert!(parse_args(&args("--workload kitti-churn --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload kitti-churn --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload kitti-churn --seed 1 --seconds 1 --x 1")).is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }
}
