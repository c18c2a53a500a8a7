//! Thread accounting of the worker pool: a pool of `N` workers counts
//! the calling thread as worker 0 and spawns `N − 1` helpers.
//!
//! This binary holds exactly one test, so the `s2d-engine-*` threads it
//! counts under `/proc/self/task` belong to that test's pools alone.
#![cfg(target_os = "linux")]

use s2d_core::partition::SpmvPartition;
use s2d_engine::{CompiledPlan, ParallelEngine, PoolOptions};
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_spmv::SpmvPlan;

/// `(tid, name)` of every thread of this process.
fn tasks() -> Vec<(String, String)> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| {
            let path = task.ok()?.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            Some((path.file_name()?.to_string_lossy().into_owned(), comm))
        })
        .collect()
}

/// The calling thread's allowed-CPU list.
fn own_affinity() -> String {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("read status");
    status.lines().find(|l| l.starts_with("Cpus_allowed_list:")).expect("affinity line").to_string()
}

#[test]
fn pool_of_n_spawns_n_minus_one_helpers() {
    let a = rmat(&RmatConfig::graph500(8, 8), 5).to_csr();
    let (n, k) = (a.nrows(), 4);
    let parts: Vec<u32> = (0..n).map(|i| (i * k / n) as u32).collect();
    let p = SpmvPartition::rowwise(&a, parts.clone(), parts, k);
    let cp = CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p));
    let x = vec![1.0; n];
    let affinity = own_affinity();
    for threads in 1..=3 {
        for pin in [false, true] {
            let before: Vec<String> = tasks().into_iter().map(|(tid, _)| tid).collect();
            let mut engine = ParallelEngine::with_options(
                cp.clone(),
                PoolOptions { threads, pin, ..PoolOptions::default() },
            );
            assert_eq!(engine.threads(), threads);
            // After a job every helper has started and named itself (a
            // thread names itself once it runs; an exiting helper of
            // the previous pool is in `before`).
            let mut y = vec![0.0; n];
            engine.execute(&x, &mut y);
            let helpers = tasks()
                .into_iter()
                .filter(|(tid, comm)| !before.contains(tid) && comm.starts_with("s2d-engine-"))
                .count();
            assert_eq!(helpers, threads - 1, "pool:{threads} pin={pin} helpers");
            assert_eq!(own_affinity(), affinity, "pool:{threads} pin={pin} moved the caller");
        }
    }
}
