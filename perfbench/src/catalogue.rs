//! The benchmark's metric catalogue: every name it prints, with unit
//! and direction. `BENCHMARK.json` at the repository root lists the
//! same metrics (a test keeps the two in step).

/// One metric: name, unit, and whether lower values are better.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// True when lower is better.
    pub lower_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, lower_is_better: bool) -> Metric {
    Metric { name, unit, lower_is_better }
}

/// End-to-end metrics, printed by every workload on an untraced run.
/// `op_over_ref` and `op2_over_ref` are the median times of the
/// workload's own two operations as multiples of the median
/// [`crate::reference_product`] on the same matrix in the same run
/// (see README.md).
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", true),
    m("peak_rss_mb", "MiB", true),
    m("op_over_ref", "ratio", true),
    m("op2_over_ref", "ratio", true),
];

/// Layers with spans in the traced run, in pipeline order.
pub const LAYERS: [&str; 10] = [
    "setup",
    "partition",
    "plan",
    "compile",
    "backend",
    "kernel",
    "pool",
    "solver",
    "spmd",
    "serve",
];

/// Per-layer metrics, printed by every workload on a traced run. A
/// layer the workload does not run reads 0.
pub const PER_LAYER: [Metric; 56] = [
    m("partition.s", "s", true),
    m("partition.volume_words", "count", true),
    m("partition.max_send_msgs", "count", true),
    m("partition.imbalance", "ratio", true),
    m("plan.s", "s", true),
    m("plan.words_per_apply", "count", true),
    m("plan.msgs_per_apply", "count", true),
    m("compile.s", "s", true),
    m("compile.madds", "count", true),
    m("compile.workspace_bytes", "bytes", true),
    m("compile.kernels_csr", "count", false),
    m("compile.kernels_sell", "count", false),
    m("compile.kernels_dense_split", "count", false),
    m("backend.build_s", "s", true),
    m("kernel.apply_r1_us", "us", true),
    m("kernel.apply_r8_us", "us", true),
    m("kernel.computed_gbs", "GB/s", false),
    m("kernel.ops_per_byte", "flop/B", false),
    m("pool.apply_r1_us", "us", true),
    m("pool.over_seq", "ratio", true),
    m("pool.worker_imbalance", "ratio", true),
    m("pool.busy_cpu_per_wall", "ratio", true),
    m("pool.idle_cpu_per_wall", "ratio", true),
    m("solver.cg_iters", "count", true),
    m("solver.spmv_share", "ratio", false),
    m("solver.vector_us_per_iter", "us", true),
    m("spmd.cg_iters", "count", true),
    m("spmd.us_per_iter", "us", true),
    m("serve.register_miss_s", "s", true),
    m("serve.register_hit_s", "s", true),
    m("serve.reqs_per_batch", "count", false),
    m("serve.refused_frac", "ratio", true),
    m("serve.gen_late_p99_ms", "ms", true),
    m("serve.gen_late_max_ms", "ms", true),
    m("serve.p50_ms_lo", "ms", true),
    m("serve.p99_ms_lo", "ms", true),
    m("serve.p50_ms_hi", "ms", true),
    m("serve.p99_ms_hi", "ms", true),
    m("serve.max_rps", "1/s", false),
    m("serve.achieved_over_offered_hi", "ratio", false),
    m("serve.invalid_steps", "count", true),
    m("setup.self_s", "s", true),
    m("partition.self_s", "s", true),
    m("plan.self_s", "s", true),
    m("compile.self_s", "s", true),
    m("backend.self_s", "s", true),
    m("kernel.self_s", "s", true),
    m("pool.self_s", "s", true),
    m("solver.self_s", "s", true),
    m("spmd.self_s", "s", true),
    m("serve.self_s", "s", true),
    m("host.ref_product_us", "us", true),
    m("trace.setup_overhead_frac", "ratio", true),
    m("trace.op_overhead_frac", "ratio", true),
    m("trace.spans", "count", false),
    m("failed_frac", "ratio", true),
];
