//! The traced walk through the pipeline's layers, shared by every
//! workload's traced run: each layer's public function is called on
//! its own inside a span, and the layer's counts are read where its
//! work happens.

use std::sync::Arc;
use std::time::{Duration, Instant};

use s2d::core::partition::SpmvPartition;
use s2d::engine::CompiledPlan;
use s2d::sparse::Csr;
use s2d::spmv::SpmvPlan;
use s2d::{Backend, KernelFormat, KernelIsa, PartitionQuality, PlanKind, SpmvOperator};
use s2d_perfbench::stats::median;
use s2d_perfbench::sys::cpu_seconds;
use s2d_perfbench::trace::Tracer;
use s2d_perfbench::{reference_product_on, SeedRng};

use crate::report::Report;

/// How long the traced run holds a built pool idle to read its CPU use.
pub const IDLE_WINDOW: Duration = Duration::from_millis(500);

/// Width of the batched applications the kernel layer times.
pub const BATCH: usize = 8;

/// Artifacts of one traced set-up, layer by layer.
pub struct Walk {
    pub partition: SpmvPartition,
    pub kind: PlanKind,
    pub plan: Arc<SpmvPlan>,
    pub compiled: CompiledPlan,
    pub backend: Backend,
    /// Seconds of the enclosing `setup` span.
    pub setup_s: f64,
}

/// Runs partition → plan → compile → backend as separate spans under
/// one `setup` span, the same work `SessionBuilder::prepare` with
/// [`KernelFormat::Auto`] followed by `Prepared::session` with
/// [`Backend::auto`] does. The built operator is dropped at once:
/// callers that need one stamp it from the returned artifacts.
pub fn traced_setup(
    t: &mut Tracer,
    a: &Csr,
    partition_call: &'static str,
    make_partition: impl FnOnce() -> SpmvPartition,
    width: usize,
) -> Walk {
    let (partition, kind, plan, compiled, backend) = t.span("setup", "pipeline", |t| {
        let partition = t.span("partition", partition_call, |_| make_partition());
        let (kind, plan) = t.span("plan", "PlanKind::build", |_| {
            let kind = PlanKind::auto(a, &partition);
            (kind, Arc::new(kind.build(a, &partition)))
        });
        let compiled = t.span("compile", "CompiledPlan::compile_with_isa", |_| {
            CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, KernelIsa::Auto)
        });
        let backend = Backend::auto(&compiled);
        let op = t.span("backend", "Backend::build_from_compiled", |_| {
            backend.build_from_compiled(&plan, &compiled, width)
        });
        drop(op);
        (partition, kind, plan, compiled, backend)
    });
    let setup_s = *t.durations("pipeline").last().expect("the setup span was just recorded");
    Walk { partition, kind, plan, compiled, backend, setup_s }
}

/// Reports the partition, plan, compile and backend metrics of `w`.
pub fn report_setup(r: &mut Report, t: &Tracer, a: &Csr, w: &Walk) {
    let one = |layer: &str| {
        t.spans().iter().find(|s| s.layer == layer).map_or(0.0, |s| s.duration() as f64 * 1e-9)
    };
    let q = PartitionQuality::measure_plan(a, &w.partition, w.kind, &w.plan, "benchmark");
    r.set("partition.s", one("partition"));
    r.set("partition.volume_words", q.volume as f64);
    r.set("partition.max_send_msgs", q.max_send_msgs as f64);
    r.set("partition.imbalance", q.load_imbalance);
    let stats = w.plan.comm_stats();
    r.set("plan.s", one("plan"));
    r.set("plan.words_per_apply", stats.total_volume as f64);
    r.set("plan.msgs_per_apply", stats.total_messages as f64);
    r.set("compile.s", one("compile"));
    r.set("compile.madds", w.compiled.total_ops() as f64);
    r.set("compile.workspace_bytes", w.compiled.workspace_bytes() as f64);
    let counts = format_counts(&w.compiled);
    r.set("compile.kernels_csr", counts[0] as f64);
    r.set("compile.kernels_sell", counts[1] as f64);
    r.set("compile.kernels_dense_split", counts[2] as f64);
    r.set("backend.build_s", one("backend"));
}

/// How long each host-speed calibration window runs.
pub const CALIBRATION: Duration = Duration::from_millis(1000);

/// Times [`reference_product_on`] with `threads` threads on `a` for
/// about `budget`; seconds per product. Called with no operator of the
/// program alive, so nothing of the program shares the host with it.
pub fn calibrate(a: &Csr, threads: usize, budget: Duration) -> Vec<f64> {
    let x: Vec<f64> = (0..a.ncols()).map(|j| (j % 17) as f64 - 8.0).collect();
    let mut y = vec![0.0; a.nrows()];
    let mut secs = Vec::new();
    let end = Instant::now() + budget;
    while secs.is_empty() || Instant::now() < end {
        let t0 = Instant::now();
        reference_product_on(threads, a.rowptr(), a.colind(), a.values(), &x, &mut y);
        std::hint::black_box(&mut y);
        secs.push(t0.elapsed().as_secs_f64());
    }
    secs
}

/// Runs `setup` `n` times (n ≥ 1), dropping each product before the
/// next set-up starts, and returns every set-up's seconds with the last
/// product, which the caller holds.
pub fn setup_repeated<T>(n: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(n);
    let mut held = None;
    for _ in 0..n.max(1) {
        drop(held.take());
        let t0 = Instant::now();
        held = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (secs, held.expect("at least one set-up ran"))
}

/// Kernel counts per concrete format: CSR slice, SELL, dense split.
pub fn format_counts(cp: &CompiledPlan) -> [usize; 3] {
    let mut out = [0; 3];
    for (f, n) in cp.format_counts() {
        match f {
            KernelFormat::CsrSlice => out[0] += n,
            KernelFormat::SellCSigma { .. } => out[1] += n,
            KernelFormat::DenseRowSplit => out[2] += n,
            KernelFormat::Auto => {}
        }
    }
    out
}

/// Provenance of what the automatic choices resolved to.
pub fn resolved(r: &mut Report, cp: &CompiledPlan, backend: Backend) {
    let [csr, sell, dense] = format_counts(cp);
    r.prov("backend_resolved", backend);
    r.prov("format_kernels", format!("csr={csr} sell={sell} dense_split={dense}"));
    r.prov("isa_simd", cp.isa.simd());
}

/// Bytes one width-1 CSR product must move at least: values and column
/// indices once, row pointers, `x` and `y` once. Computed from array
/// sizes, not measured.
pub fn computed_bytes(a: &Csr) -> f64 {
    let (n, m, nnz) = (a.nrows() as f64, a.ncols() as f64, a.nnz() as f64);
    nnz * 12.0 + (n + 1.0) * 8.0 + m * 8.0 + n * 8.0
}

/// Times the kernel layer (a compiled-seq operator) and the pool layer
/// (a compiled-pool operator) on the walk's compiled plan, each call in
/// its own span, for about `budget` each; checks every output.
pub fn measure_kernel_pool(
    r: &mut Report,
    t: &mut Tracer,
    a: &Csr,
    w: &Walk,
    rng: &mut SeedRng,
    budget: Duration,
) {
    let n = a.ncols();
    let x = rng.vector(n);
    let xb = rng.vector(n * BATCH);
    let want = a.spmv_alloc(&x);
    let mut y = vec![0.0; a.nrows()];
    let mut yb = vec![0.0; a.nrows() * BATCH];

    let mut seq = Backend::CompiledSeq.build_from_compiled(&w.plan, &w.compiled, BATCH);
    seq.apply(&x, &mut y);
    let seq_y = y.clone();
    r.check(close(&seq_y, &want), || "kernel apply differs from Csr::spmv".into());
    let cols = columns(&mut *seq, &xb, a.nrows());
    seq.apply_batch(&xb, &mut yb, BATCH);
    r.check(same_bits(&yb, &cols), || "kernel apply_batch(8) differs from 8 applies".into());
    let end = Instant::now() + budget;
    while Instant::now() < end {
        t.span("kernel", "apply", |_| seq.apply(&x, &mut y));
        t.span("kernel", "apply_batch", |_| seq.apply_batch(&xb, &mut yb, BATCH));
    }
    r.check(same_bits(&y, &seq_y) && same_bits(&yb, &cols), || {
        "kernel outputs changed between calls".into()
    });
    drop(seq);
    let r1 = median(&t.durations("apply"));
    let r8 = median(&t.durations("apply_batch"));
    r.set("kernel.apply_r1_us", r1 * 1e6);
    r.set("kernel.apply_r8_us", r8 * 1e6);
    let bytes = computed_bytes(a);
    r.set("kernel.computed_gbs", bytes / r1 / 1e9);
    r.set("kernel.ops_per_byte", 2.0 * a.nnz() as f64 / bytes);

    let pool_backend = Backend::CompiledPool { threads: 0, pin: false };
    let mut pool = pool_backend.build_from_compiled(&w.plan, &w.compiled, 1);
    pool.apply(&x, &mut y);
    r.check(close(&y, &want), || "pool apply differs from Csr::spmv".into());
    let loads = pool.worker_loads().unwrap_or_default();
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    let end = Instant::now() + budget;
    while Instant::now() < end {
        t.span("pool", "pool.apply", |_| pool.apply(&x, &mut y));
    }
    let busy = cpu_per_wall(cpu0, wall0);
    r.check(close(&y, &want), || "pool outputs drifted".into());
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    std::thread::sleep(IDLE_WINDOW);
    let idle = cpu_per_wall(cpu0, wall0);
    drop(pool);
    let p1 = median(&t.durations("pool.apply"));
    r.set("pool.apply_r1_us", p1 * 1e6);
    r.set("pool.over_seq", p1 / r1);
    r.set("pool.worker_imbalance", imbalance(&loads));
    r.set("pool.busy_cpu_per_wall", busy);
    r.set("pool.idle_cpu_per_wall", idle);
    r.note(format!("pool workers={} planned loads={loads:?}", loads.len()));
}

/// Planned max/mean worker load; 1.0 for an empty or single schedule.
pub fn imbalance(loads: &[u64]) -> f64 {
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    match loads.iter().max() {
        Some(&max) if mean > 0.0 => max as f64 / mean,
        _ => 1.0,
    }
}

/// Process CPU seconds per wall second since `(cpu0, wall0)`; 0 when
/// `/proc` is unreadable.
pub fn cpu_per_wall(cpu0: Option<f64>, wall0: Instant) -> f64 {
    let wall = wall0.elapsed().as_secs_f64();
    match (cpu0, cpu_seconds()) {
        (Some(c0), Some(c1)) if wall > 0.0 => (c1 - c0) / wall,
        _ => 0.0,
    }
}

/// The `BATCH` columns of the row-major block `xb`, each applied on its
/// own, reassembled as one row-major block.
pub fn columns(op: &mut (dyn SpmvOperator + Send), xb: &[f64], nrows: usize) -> Vec<f64> {
    let n = xb.len() / BATCH;
    let mut out = vec![0.0; nrows * BATCH];
    let (mut x, mut y) = (vec![0.0; n], vec![0.0; nrows]);
    for c in 0..BATCH {
        for j in 0..n {
            x[j] = xb[j * BATCH + c];
        }
        op.apply(&x, &mut y);
        for i in 0..nrows {
            out[i * BATCH + c] = y[i];
        }
    }
    out
}

/// Whether `got` is within 1e-9 relative of `want`, entry by entry.
pub fn close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs().max(1.0))
}

/// Sets every `<layer>.self_s` metric and the span count.
pub fn report_self_times(r: &mut Report, t: &Tracer) {
    let selfs = t.self_seconds();
    for layer in s2d_perfbench::catalogue::LAYERS {
        r.set(&format!("{layer}.self_s"), selfs.get(layer).copied().unwrap_or(0.0));
    }
    r.set("trace.spans", t.spans().len() as f64);
}

/// Whether two vectors are bitwise identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
