//! `skewed-rmat`: the paper's case. A Graph500 R-MAT matrix (scale 12,
//! edge factor 8, about 54k nonzeros) partitioned by the s2D
//! Algorithm 1 over 16 parts. Set-up is dominated by the partitioner;
//! the applies are cache-resident, where kernel format, SIMD and
//! batching matter.

use std::time::{Duration, Instant};

use s2d::gen::rmat::{rmat, RmatConfig};
use s2d::sparse::Csr;
use s2d::{Backend, KernelFormat, Partitioner, PartitionerConfig, S2dVariant, Session, Strategy};
use s2d_perfbench::stats::{median, summary};
use s2d_perfbench::sys::peak_rss_mib;
use s2d_perfbench::trace::Tracer;
use s2d_perfbench::{reference_product, SeedRng};

use crate::layers::{
    self, calibrate, close, columns, measure_kernel_pool, report_self_times, report_setup,
    same_bits, setup_repeated, traced_setup, BATCH, CALIBRATION,
};
use crate::report::Report;
use crate::Args;

/// Graph500 R-MAT scale.
pub const SCALE: u32 = 12;

/// Graph500 edge factor.
pub const EDGE_FACTOR: usize = 8;

/// Parts of the s2D partition.
pub const K: usize = 16;

/// How long the traced run times each of the kernel and pool layers.
const KERNEL_BUDGET: Duration = Duration::from_millis(1000);

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The paper's partitioner: s2D by Algorithm 1.
pub fn strategy() -> Strategy {
    Strategy::SemiTwoD { variant: S2dVariant::Algorithm1 }
}

/// The seeded R-MAT matrix (symmetric pattern, as in the paper).
pub fn matrix(seed: u64) -> Csr {
    rmat(&RmatConfig::graph500(SCALE, EDGE_FACTOR), seed).to_csr()
}

fn prepare_session(a: &Csr) -> (s2d::Prepared, Session) {
    let prep = Session::builder(a)
        .partitioner(strategy(), K)
        .kernel_format(KernelFormat::Auto)
        .batch_width(BATCH)
        .prepare();
    let backend = Backend::auto(prep.compiled());
    let session = prep.session(backend, BATCH);
    (prep, session)
}

/// The timed run: set-up three times, then interleave width-1 and
/// width-8 applications with the host-speed reference product for
/// `seconds`, checking every output bitwise against the references
/// taken at the start.
pub fn timed(args: &Args, r: &mut Report) {
    let a = matrix(args.seed);
    let (setups, (prep, mut session)) = setup_repeated(SETUPS, || prepare_session(&a));
    layers::resolved(r, prep.compiled(), session.backend());
    r.prov("matrix", format!("rmat scale={SCALE} nnz={}", a.nnz()));

    let (n, m) = (a.ncols(), a.nrows());
    let mut rng = SeedRng::new(args.seed, 2);
    let xs: Vec<Vec<f64>> = (0..BATCH).map(|_| rng.vector(n)).collect();
    let mut xb = vec![0.0; n * BATCH];
    for (c, x) in xs.iter().enumerate() {
        for (j, v) in x.iter().enumerate() {
            xb[j * BATCH + c] = *v;
        }
    }
    let mut refs = Vec::new();
    for x in &xs {
        let mut y = vec![0.0; m];
        session.apply(x, &mut y);
        let want = a.spmv_alloc(x);
        r.check(close(&y, &want), || "apply differs from Csr::spmv beyond 1e-9".into());
        refs.push(y);
    }
    let refb = columns(session.operator_mut(), &xb, m);
    let (mut y, mut yb) = (vec![0.0; m], vec![0.0; m * BATCH]);
    // The host-speed reference runs between the applies, so both see the
    // same host; the compiled-seq session has no threads that could slow
    // it down.
    let (pr, pc, pv) = (a.rowptr(), a.colind(), a.values());
    let (mut t1, mut t8, mut reference) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while t1.is_empty() || start.elapsed() < args.seconds {
        let c = i % BATCH;
        let t0 = Instant::now();
        reference_product(pr, pc, pv, &xs[c], &mut y);
        reference.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        session.apply(&xs[c], &mut y);
        t1.push(t0.elapsed().as_secs_f64());
        r.check(same_bits(&y, &refs[c]), || format!("apply {i} differs from its reference"));
        let t0 = Instant::now();
        session.apply_batch(&xb, &mut yb, BATCH);
        t8.push(t0.elapsed().as_secs_f64());
        r.check(same_bits(&yb, &refb), || format!("apply_batch {i} differs from 8 applies"));
        i += 1;
    }
    let product = median(&reference);
    r.note(format!("reference product {}", summary(&reference, 1e3, "ms")));
    r.note(format!("setup {}", summary(&setups, 1.0, "s")));
    r.note(format!("apply r=1 {}", summary(&t1, 1e3, "ms")));
    r.note(format!("apply_batch r=8 {}", summary(&t8, 1e3, "ms")));
    r.set("setup_s", median(&setups));
    r.set("op_over_ref", median(&t1) / product);
    r.set("op2_over_ref", median(&t8) / product);
    r.set("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
}

/// The traced run: one untraced set-up and apply loop as the overhead
/// base, then every layer called on its own inside spans, the serve
/// layer last.
pub fn traced(args: &Args, r: &mut Report, t: &mut Tracer) {
    let a = matrix(args.seed);
    let mut rng = SeedRng::new(args.seed, 2);
    let x = rng.vector(a.ncols());
    let xb = rng.vector(a.ncols() * BATCH);
    let (mut y, mut yb) = (vec![0.0; a.nrows()], vec![0.0; a.nrows() * BATCH]);

    let t0 = Instant::now();
    let (prep, mut session) = prepare_session(&a);
    let untraced_setup = t0.elapsed().as_secs_f64();
    // The same interleaving as the traced kernel loop, without spans.
    let mut plain = Vec::new();
    let end = Instant::now() + KERNEL_BUDGET;
    while Instant::now() < end {
        let t0 = Instant::now();
        session.apply(&x, &mut y);
        plain.push(t0.elapsed().as_secs_f64());
        session.apply_batch(&xb, &mut yb, BATCH);
    }
    drop((prep, session));

    let cfg = PartitionerConfig::default();
    let w = traced_setup(
        t,
        &a,
        "Strategy::partition_with",
        || strategy().partition_with(&a, K, &cfg),
        BATCH,
    );
    report_setup(r, t, &a, &w);
    layers::resolved(r, &w.compiled, w.backend);
    r.set("trace.setup_overhead_frac", w.setup_s / untraced_setup - 1.0);
    measure_kernel_pool(r, t, &a, &w, &mut rng, KERNEL_BUDGET);
    let traced_apply = median(&t.durations("apply"));
    r.set("trace.op_overhead_frac", traced_apply / median(&plain) - 1.0);

    r.set("host.ref_product_us", median(&calibrate(&a, 1, CALIBRATION)) * 1e6);
    crate::serve::traced(r, t, &a, args.seed);
    r.absent("solver");
    r.absent("spmd");
    report_self_times(r, t);
}
