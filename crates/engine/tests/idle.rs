//! An idle worker pool costs no CPU.
//!
//! Between jobs the pool's helper threads spin for a bounded number of
//! polls and then sleep at the job gate. This binary holds exactly one
//! test, so the process CPU time it samples from `/proc/self/stat`
//! belongs to that test's pool alone.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use s2d_core::partition::SpmvPartition;
use s2d_engine::{CompiledPlan, CompiledPoolOperator, CompiledSeqOperator};
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_spmv::{SpmvOperator, SpmvPlan};

/// User + system CPU seconds of this process so far.
fn cpu_seconds() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> std::os::raw::c_long;
    }
    const SC_CLK_TCK: i32 = 2;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    // SAFETY: sysconf has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    ticks as f64 / hz as f64
}

#[test]
fn idle_pool_sleeps_and_wakes_bitwise() {
    let a = rmat(&RmatConfig::graph500(10, 8), 3).to_csr();
    let (n, k) = (a.nrows(), 4);
    let parts: Vec<u32> = (0..n).map(|i| (i * k / n) as u32).collect();
    let p = SpmvPartition::rowwise(&a, parts.clone(), parts, k);
    let cp = CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p));
    let x: Vec<f64> = (0..n).map(|j| ((j * 37) % 19) as f64 / 3.0 - 2.5).collect();
    let mut want = vec![0.0; n];
    CompiledSeqOperator::new(cp.clone(), 1).apply(&x, &mut want);

    let mut pool = CompiledPoolOperator::new(cp, 2, 1);
    assert_eq!(pool.engine().threads(), 2);
    let mut y = vec![0.0; n];
    pool.apply(&x, &mut y);
    assert_eq!(y, want, "first apply");

    // Let the helper run out its spin window, then sample a quiet
    // half second.
    std::thread::sleep(Duration::from_millis(50));
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let busy = (cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    assert!(busy < 0.1, "an idle pool burned {busy:.2} CPU-s per wall-s");

    // The sleeping helper must wake for the next job.
    let mut again = vec![0.0; n];
    pool.apply(&x, &mut again);
    assert_eq!(again, want, "apply after the pool slept");
}
