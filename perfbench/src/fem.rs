//! `solve-fem`: an SPD system from a 3D FEM-like stencil, about 133k
//! rows and 3.4M nonzeros, on a contiguous block-row partition over two
//! ranks. The hypergraph partitioner never runs; the kernel, pool,
//! solver and runtime layers carry all the work, and the held session
//! exposes what an idle pool costs the distributed solve.

use std::time::{Duration, Instant};

use s2d::core::partition::SpmvPartition;
use s2d::solver::{cg_solve, cg_solve_with, CgOptions};
use s2d::sparse::Csr;
use s2d::{Backend, KernelFormat, Session, SpmvOperator};
use s2d_perfbench::stats::{median, summary};
use s2d_perfbench::sys::peak_rss_mib;
use s2d_perfbench::trace::Tracer;
use s2d_perfbench::SeedRng;

use crate::layers::{
    self, calibrate, measure_kernel_pool, report_self_times, report_setup, setup_repeated,
    traced_setup, CALIBRATION,
};
use crate::report::Report;
use crate::Args;

/// Ranks of the block-row partition.
pub const K: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// How long the host-speed reference runs after each step (a few
/// dozen products).
pub const REFERENCE_WINDOW: Duration = Duration::from_millis(60);

/// Both solvers stop at this relative residual.
pub const CG: CgOptions = CgOptions { tol: 1e-8, max_iters: 20_000 };

/// Largest accepted `‖x − x*‖∞` for a converged solve (`x*` has
/// entries in [-1, 1)).
pub const X_TOL: f64 = 1e-3;

/// The system: `fem_like(2^17, 27, 27, seed)` with off-diagonals −1 and
/// the diagonal set to the row's off-diagonal count + 1e-4, which makes
/// it symmetric positive definite.
pub fn system(seed: u64) -> Csr {
    let mut a = s2d::gen::fem::fem_like(1 << 17, 27.0, 27, seed);
    let n = a.nrows();
    let diag: Vec<Option<usize>> =
        (0..n).map(|i| a.row_range(i).find(|&e| a.colind()[e] as usize == i)).collect();
    let ranges: Vec<_> = (0..n).map(|i| a.row_range(i)).collect();
    let vals = a.values_mut();
    for (i, range) in ranges.into_iter().enumerate() {
        let off = range.len() - usize::from(diag[i].is_some());
        for e in range {
            vals[e] = if Some(e) == diag[i] { off as f64 + 1e-4 } else { -1.0 };
        }
    }
    assert!(diag.iter().all(Option::is_some), "every stencil row holds its diagonal");
    a
}

/// Contiguous block rows over `k` ranks, with `x` split like `y` (CG
/// needs a symmetric vector partition).
pub fn block_rows(a: &Csr, k: usize) -> SpmvPartition {
    let n = a.nrows();
    let part: Vec<u32> = (0..n).map(|i| (i * k / n) as u32).collect();
    SpmvPartition::rowwise(a, part.clone(), part, k)
}

fn prepare_session(a: &Csr, part: &SpmvPartition) -> (s2d::Prepared, Session) {
    let prep = Session::builder(a).partition(part).kernel_format(KernelFormat::Auto).prepare();
    let backend = Backend::auto(prep.compiled());
    let session = prep.session(backend, 1);
    (prep, session)
}

fn max_err(x: &[f64], want: &[f64]) -> f64 {
    x.iter().zip(want).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
}

fn check_solve(r: &mut Report, which: &str, res: &s2d::solver::CgResult, want: &[f64]) {
    let err = max_err(&res.x, want);
    r.check(res.converged && err <= X_TOL, || {
        format!(
            "{which}: converged={} iters={} residual={:e} max error {err:e}",
            res.converged, res.iterations, res.relative_residual
        )
    });
}

/// A right-hand side `b = A·x*` with `x*` drawn from `rng`.
fn rhs(a: &Csr, rng: &mut SeedRng) -> (Vec<f64>, Vec<f64>) {
    let xs = rng.vector(a.ncols());
    let b = a.spmv_alloc(&xs);
    (xs, b)
}

/// The timed run: set-up three times, hold the last session, then
/// alternate a Session CG solve and a distributed CG solve (the session
/// still held) on fresh right-hand sides for `seconds`, each step
/// followed by a short host-speed reference window.
pub fn timed(args: &Args, r: &mut Report) {
    let a = system(args.seed);
    let part = block_rows(&a, K);
    let (setups, (prep, session)) = setup_repeated(SETUPS, || prepare_session(&a, &part));
    let backend = session.backend();
    layers::resolved(r, prep.compiled(), backend);
    r.prov("matrix", format!("fem n={} nnz={}", a.nrows(), a.nnz()));

    let mut rng = SeedRng::new(args.seed, 1);
    let (mut solve, mut spmd, mut iters) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = Vec::new();
    let mut first = Some(session);
    let start = Instant::now();
    while solve.is_empty() || start.elapsed() < args.seconds {
        let mut session = first.take().unwrap_or_else(|| restamp(&prep, backend, a.ncols()));
        let (xs, b) = rhs(&a, &mut rng);
        let t0 = Instant::now();
        let res = cg_solve_with(&mut session, &b, &CG);
        solve.push(t0.elapsed().as_secs_f64());
        check_solve(r, "session cg_solve_with", &res, &xs);
        iters.push(res.iterations);
        let t0 = Instant::now();
        let res = cg_solve(&a, &part, prep.plan(), &b, &CG);
        spmd.push(t0.elapsed().as_secs_f64());
        check_solve(r, "distributed cg_solve", &res, &xs);
        // An idle pool session slows every other thread, so the
        // host-speed reference (on as many threads as ranks) runs with
        // the session dropped; the next step stamps a fresh one from the
        // same `Prepared`.
        drop(session);
        reference.extend(calibrate(&a, K, REFERENCE_WINDOW));
    }
    let product = median(&reference);
    r.note(format!("cg_iters={iters:?}"));
    r.note(format!("reference product {}", summary(&reference, 1e3, "ms")));
    r.note(format!("setup {}", summary(&setups, 1.0, "s")));
    r.note(format!("session solve {}", summary(&solve, 1.0, "s")));
    r.note(format!("distributed solve {}", summary(&spmd, 1.0, "s")));
    r.set("setup_s", median(&setups));
    r.set("op_over_ref", median(&solve) / product);
    r.set("op2_over_ref", median(&spmd) / product);
    r.set("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
}

/// A session stamped from `prep` like the held one, with one untimed
/// product so its workers and buffers are warm before the next solve.
fn restamp(prep: &s2d::Prepared, backend: Backend, n: usize) -> Session {
    let mut session = prep.session(backend, 1);
    let mut y = vec![0.0; session.nrows()];
    session.apply(&vec![1.0; n], &mut y);
    session
}

/// An operator that records a span around every product the solver
/// asks for, so the solver's own time is its span minus these.
struct Timed<'a> {
    op: &'a mut (dyn SpmvOperator + Send),
    t: &'a mut Tracer,
    layer: &'static str,
}

impl SpmvOperator for Timed<'_> {
    fn nrows(&self) -> usize {
        self.op.nrows()
    }

    fn ncols(&self) -> usize {
        self.op.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.t.span(self.layer, "solver.apply", |_| self.op.apply(x, y));
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.t.span(self.layer, "solver.apply", |_| self.op.apply_batch(x, y, r));
    }

    fn deterministic(&self) -> bool {
        self.op.deterministic()
    }

    fn worker_loads(&self) -> Option<Vec<u64>> {
        self.op.worker_loads()
    }
}

/// The traced run: one untraced set-up and solve as the overhead base,
/// then every layer called on its own inside spans.
pub fn traced(args: &Args, r: &mut Report, t: &mut Tracer) {
    let a = system(args.seed);
    let mut rng = SeedRng::new(args.seed, 1);
    let (xs, b) = rhs(&a, &mut rng);

    let (setups, (prep, mut session)) =
        setup_repeated(SETUPS, || prepare_session(&a, &block_rows(&a, K)));
    let untraced_setup = median(&setups);
    let t0 = Instant::now();
    let res = cg_solve_with(&mut session, &b, &CG);
    let untraced_solve = t0.elapsed().as_secs_f64();
    check_solve(r, "session cg_solve_with", &res, &xs);
    drop((prep, session));

    let w = traced_setup(t, &a, "SpmvPartition::rowwise", || block_rows(&a, K), 1);
    report_setup(r, t, &a, &w);
    layers::resolved(r, &w.compiled, w.backend);
    r.set("trace.setup_overhead_frac", w.setup_s / untraced_setup - 1.0);
    measure_kernel_pool(r, t, &a, &w, &mut rng, Duration::from_millis(1500));

    let mut op = w.backend.build_from_compiled(&w.plan, &w.compiled, 1);
    let layer = if matches!(w.backend, Backend::CompiledPool { .. }) { "pool" } else { "kernel" };
    let res = t.span("solver", "cg_solve_with", |t| {
        cg_solve_with(Timed { op: &mut *op, t, layer }, &b, &CG)
    });
    check_solve(r, "traced cg_solve_with", &res, &xs);
    let solve = *t.durations("cg_solve_with").last().expect("solver span");
    let spmv: f64 = t.durations("solver.apply").iter().sum();
    let it = res.iterations.max(1) as f64;
    r.set("solver.cg_iters", res.iterations as f64);
    r.set("solver.spmv_share", spmv / solve);
    r.set("solver.vector_us_per_iter", (solve - spmv) / it * 1e6);
    r.set("trace.op_overhead_frac", solve / untraced_solve - 1.0);

    let res = t.span("spmd", "cg_solve", |_| cg_solve(&a, &w.partition, &w.plan, &b, &CG));
    check_solve(r, "traced cg_solve", &res, &xs);
    let spmd = *t.durations("cg_solve").last().expect("spmd span");
    r.set("spmd.cg_iters", res.iterations as f64);
    r.set("spmd.us_per_iter", spmd / res.iterations.max(1) as f64 * 1e6);
    drop(op);

    r.set("host.ref_product_us", median(&calibrate(&a, K, CALIBRATION)) * 1e6);
    r.absent("serve");
    report_self_times(r, t);
}
