//! The s2d benchmark: three seeded workloads that drive the public API
//! from outside, check every output, and print end-to-end metrics
//! (untraced run) or per-layer metrics from spans (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload skewed-rmat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 1
//! when any output was wrong, 2 on bad arguments.

mod fem;
mod layers;
mod report;
mod rmat;
mod serve;

use std::time::Duration;

use s2d::KernelIsa;
use s2d_perfbench::sys;
use s2d_perfbench::trace::Tracer;

use report::Report;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 2] = ["solve-fem", "skewed-rmat"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {WORKLOADS:?})"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: s2d-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut r = Report::new(args.traced);
    r.prov("workload", &args.workload);
    r.prov("seed", args.seed);
    r.prov("seconds", args.seconds.as_secs_f64());
    r.prov("traced", args.traced);
    r.prov("nproc", sys::nproc());
    r.prov("cpu_model", sys::cpu_model());
    r.prov("avx2_available", KernelIsa::avx2_available());
    r.prov("l2", sys::cache_size(2));
    r.prov("llc", sys::cache_size(3));
    r.prov("rustc", env!("PERFBENCH_RUSTC"));
    r.prov("git_commit", sys::git_commit());

    let mut tracer = Tracer::new();
    match (args.workload.as_str(), args.traced) {
        ("solve-fem", false) => fem::timed(&args, &mut r),
        ("solve-fem", true) => fem::traced(&args, &mut r, &mut tracer),
        ("skewed-rmat", false) => rmat::timed(&args, &mut r),
        ("skewed-rmat", true) => rmat::traced(&args, &mut r, &mut tracer),
        _ => unreachable!("parse admits only the listed workloads"),
    }
    let spans_path = format!(".bench_out/spans-{}-seed{}.json", args.workload, args.seed);
    let spans = if args.traced {
        let _ = std::fs::create_dir_all(".bench_out");
        Some((&tracer, spans_path.as_str()))
    } else {
        None
    };
    std::process::exit(r.finish(spans));
}
