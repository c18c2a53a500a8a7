//! The [`Backend`] selector and the compiled [`SpmvOperator`]
//! implementations.
//!
//! Every whole-plan execution path in the workspace — the mailbox
//! oracle from `s2d-spmv` and the two compiled paths from this crate —
//! is constructible from the same [`SpmvPlan`] through
//! [`Backend::build`], which returns a boxed [`SpmvOperator`]. Consumers
//! (solvers, the CLI, benches, the differential and conformance
//! harnesses) select a backend by value or by name and stay otherwise
//! backend-agnostic; adding a new execution path means adding one enum
//! variant and one operator struct. Every backend is deterministic and
//! bitwise equal to the mailbox oracle. The distributed per-rank
//! executor over runtime endpoints ([`crate::distributed`]) is not a
//! backend: it runs inside an SPMD world (`s2d-solver`'s `RankCtx`) or
//! behind `s2d-serve`'s `ShardedOperator`.
//!
//! # Choosing a backend
//!
//! * [`Backend::Mailbox`] — deterministic sequential interpreter.
//!   Slowest by far (hash maps everywhere); use it as the semantic
//!   oracle, never as a fast path.
//! * [`Backend::CompiledSeq`] — the flat-buffer compiled plan on a
//!   sequential [`Workspace`]. Zero allocation per iteration; the
//!   fastest choice below [`Backend::POOL_OPS_CROSSOVER`] multiply-adds
//!   per iteration ([`Backend::POOL_OPS_CROSSOVER_SIMD`] with SIMD
//!   kernels), where the pool's barrier overhead dominates, and the
//!   right baseline for kernel work.
//! * [`Backend::CompiledPool`] — the same compiled plan on the
//!   persistent worker pool. Wins above that crossover; `threads = 0`
//!   sizes the pool to `min(K, available CPUs)` workers, the calling
//!   thread included (it runs worker 0's share), and idle helpers
//!   sleep between applies.
//!
//! Undecided? [`Backend::auto`] applies the crossover rule to a
//! compiled plan (`--engine auto` on the CLI). Kernel format: the
//! compiled backends accept a [`KernelFormat`] through
//! [`Backend::build_with`] — `auto` picks per rank × phase from
//! compile-time row statistics; see the `formats` module docs.
//!
//! Batch width: pass the widest `r` you will use to [`Backend::build`]
//! so buffers are sized once. Widths 1, 2, 4 and 8 run fixed-width
//! specialized inner loops — prefer them over odd widths; wider batches
//! amortize matrix traversal (r = 8 measures ~2–2.4× faster than 8
//! single applications on rmat14/K = 16) at the cost of `r×` vector
//! memory. Operators grow on demand if a wider batch shows up later
//! ([`CompiledPoolOperator`] rebuilds its pool to do so — pay that once,
//! up front, by building with the right width).

use std::sync::Arc;
use std::time::Instant;

use s2d_obs::{Phase, TelemetrySink};
use s2d_spmv::{MailboxOperator, SpmvOperator, SpmvPlan};

use crate::compile::CompiledPlan;
use crate::exec::Workspace;
use crate::formats::{KernelFormat, KernelIsa};
use crate::pool::{ParallelEngine, PoolOptions};
use crate::telemetry::ExecTelemetry;

/// Selects one of the three SpMV execution backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic sequential interpreter (the semantic oracle).
    Mailbox,
    /// Compiled plan, sequential zero-alloc workspace execution.
    CompiledSeq,
    /// Compiled plan on the persistent worker pool (`threads = 0` →
    /// one worker per rank, capped at the available CPUs), running the
    /// NNZ-chunked compute schedule.
    CompiledPool {
        /// Worker count `N`, counting the calling thread, which runs
        /// worker 0's share: the pool spawns `N − 1` helper threads.
        /// 0 selects the default sizing.
        threads: usize,
        /// Pin helper `w` to CPU `w`, for `w` in `1..N` (CLI spelling
        /// `pool:N@pin`); the calling thread's affinity is never
        /// changed. Linux-only performance hint, a no-op elsewhere.
        pin: bool,
    },
}

impl Backend {
    /// Every backend, with default parameters — the iteration set for
    /// conformance and differential sweeps.
    pub fn all() -> [Backend; 3] {
        [Backend::Mailbox, Backend::CompiledSeq, Backend::CompiledPool { threads: 0, pin: false }]
    }

    /// Short stable label (bench ids, CLI output, test diagnostics).
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Mailbox => "mailbox",
            Backend::CompiledSeq => "compiled-seq",
            Backend::CompiledPool { .. } => "compiled-pool",
        }
    }

    /// Builds this backend's operator over `plan`, sized for batches of
    /// up to `width` right-hand sides, with the default
    /// [`KernelFormat::CsrSlice`] kernels.
    ///
    /// All setup happens here — plan compilation, buffer allocation,
    /// worker-thread spawn — so that `apply`/`apply_batch` run at
    /// steady-state cost. The mailbox backend keeps a reference to the
    /// shared plan; the compiled backends drop it after compiling.
    pub fn build(&self, plan: &Arc<SpmvPlan>, width: usize) -> Box<dyn SpmvOperator + Send> {
        self.build_with(plan, width, KernelFormat::CsrSlice)
    }

    /// [`Backend::build`] with an explicit [`KernelFormat`] for the
    /// compiled backends (the mailbox backend has no kernels and
    /// ignores it).
    pub fn build_with(
        &self,
        plan: &Arc<SpmvPlan>,
        width: usize,
        format: KernelFormat,
    ) -> Box<dyn SpmvOperator + Send> {
        self.build_cfg(plan, width, format, KernelIsa::Auto, None)
    }

    /// [`Backend::build_with`] with optional telemetry. With a sink
    /// attached, the compiled backends record per-rank phase spans and
    /// work counters; the mailbox backend (which has no phase
    /// structure to hook) is wrapped in an [`ObservedOperator`] that
    /// accounts whole applications under rank 0. Results are bitwise
    /// identical to the sink-less build.
    ///
    /// # Panics
    /// Panics if the sink was sized for a rank count other than the
    /// plan's.
    pub fn build_obs(
        &self,
        plan: &Arc<SpmvPlan>,
        width: usize,
        format: KernelFormat,
        sink: Option<Arc<TelemetrySink>>,
    ) -> Box<dyn SpmvOperator + Send> {
        self.build_cfg(plan, width, format, KernelIsa::Auto, sink)
    }

    /// The fully-general builder: kernel format **and** instruction-set
    /// choice ([`KernelIsa`] — `Auto` probes the CPU once, `Scalar`
    /// pins the bitwise reference loops, `Avx2` demands the SIMD paths)
    /// plus optional telemetry. Every ISA produces bitwise-identical
    /// results (the vector lanes map to the batch dimension, never the
    /// accumulation chain); the knob exists for benchmarking and for
    /// the tuner's ISA axis. The mailbox backend has no kernels and
    /// ignores both knobs.
    pub fn build_cfg(
        &self,
        plan: &Arc<SpmvPlan>,
        width: usize,
        format: KernelFormat,
        isa: KernelIsa,
        sink: Option<Arc<TelemetrySink>>,
    ) -> Box<dyn SpmvOperator + Send> {
        assert!(width >= 1, "batch width must be at least 1");
        match *self {
            Backend::Mailbox => {
                let op = MailboxOperator::new(Arc::clone(plan));
                match sink {
                    Some(s) => Box::new(ObservedOperator::new(op, s)),
                    None => Box::new(op),
                }
            }
            Backend::CompiledSeq => {
                let cp = CompiledPlan::compile_with_isa(plan, format, isa);
                match sink {
                    Some(s) => Box::new(CompiledSeqOperator::with_telemetry(cp, width, s)),
                    None => Box::new(CompiledSeqOperator::new(cp, width)),
                }
            }
            Backend::CompiledPool { threads, pin } => {
                let cp = CompiledPlan::compile_with_isa(plan, format, isa);
                Box::new(CompiledPoolOperator::with_config(cp, threads, width, pin, sink))
            }
        }
    }

    /// Builds this backend's operator from an **already-compiled** plan
    /// — the cache-hit path: a serving layer that cached the
    /// [`CompiledPlan`] of a (matrix, partition, format) combination
    /// skips recompilation entirely and pays only the buffer/worker
    /// setup. The compiled backends clone `cp` (flat-buffer memcpy);
    /// the mailbox backend takes the shared plan as usual. Each
    /// call yields an independent operator, so several worker threads
    /// can each hold one over the same cached artifact.
    pub fn build_from_compiled(
        &self,
        plan: &Arc<SpmvPlan>,
        cp: &CompiledPlan,
        width: usize,
    ) -> Box<dyn SpmvOperator + Send> {
        assert!(width >= 1, "batch width must be at least 1");
        match *self {
            Backend::Mailbox => Box::new(MailboxOperator::new(Arc::clone(plan))),
            Backend::CompiledSeq => Box::new(CompiledSeqOperator::new(cp.clone(), width)),
            Backend::CompiledPool { threads, pin } => {
                Box::new(CompiledPoolOperator::with_config(cp.clone(), threads, width, pin, None))
            }
        }
    }

    /// Default seq-vs-pool crossover for [`Backend::auto`] on
    /// scalar-kernel plans, in multiply-adds per iteration. PR 1
    /// measured the pool's barrier round trips amortizing around
    /// ≈ 5·10⁵ madds; the NNZ-chunked schedule removes the
    /// serialize-on-the-heaviest-rank penalty that dominated that
    /// figure, pulling the break-even 4× lower. This is a *model*
    /// constant, measured on one machine — when an `s2d-tune`
    /// tuning-cache entry exists for a matrix, its measured backend
    /// pick takes precedence over this threshold.
    pub const POOL_OPS_CROSSOVER: u64 = 125_000;

    /// Crossover for SIMD-kernel plans: AVX2 speeds the *sequential*
    /// baseline roughly 2× at batched widths, so the pool needs about
    /// twice the per-iteration work before its barriers amortize.
    pub const POOL_OPS_CROSSOVER_SIMD: u64 = 250_000;

    /// Picks the compiled backend an already-compiled plan should run
    /// on: the persistent pool wins only when one iteration carries
    /// enough work to amortize its barrier round trips, and only when
    /// there is more than one rank to parallelize over. Everything
    /// smaller runs faster on the sequential workspace.
    ///
    /// ISA-aware: a plan whose kernels resolved to SIMD
    /// ([`CompiledPlan`]'s `isa`, `Auto` on an AVX2 machine) uses
    /// [`Backend::POOL_OPS_CROSSOVER_SIMD`], a scalar plan
    /// [`Backend::POOL_OPS_CROSSOVER`].
    ///
    /// This is the rule behind the CLI's `--engine auto`.
    pub fn auto(cp: &CompiledPlan) -> Backend {
        let crossover = if cp.isa.simd() {
            Backend::POOL_OPS_CROSSOVER_SIMD
        } else {
            Backend::POOL_OPS_CROSSOVER
        };
        Backend::auto_with_crossover(cp, crossover)
    }

    /// [`Backend::auto`] with an explicit crossover — for machines
    /// whose measured seq/pool break-even differs from the default
    /// (the tuner's measurements are the principled way to find it).
    pub fn auto_with_crossover(cp: &CompiledPlan, crossover_ops: u64) -> Backend {
        if cp.k > 1 && cp.total_ops() >= crossover_ops {
            Backend::CompiledPool { threads: 0, pin: false }
        } else {
            Backend::CompiledSeq
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    /// Parses the CLI spelling: `mailbox`, `compiled-seq`
    /// (alias `seq`), `compiled-pool` / `pool` with an optional worker
    /// count as `pool:N` and an optional `@pin` suffix for core
    /// pinning (`pool:4@pin`), and the legacy alias `compiled` for the
    /// pool.
    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "mailbox" => return Ok(Backend::Mailbox),
            "compiled-seq" | "seq" => return Ok(Backend::CompiledSeq),
            _ => {}
        }
        let (body, pin) = match s.strip_suffix("@pin") {
            Some(body) => (body, true),
            None => (s, false),
        };
        match body {
            "compiled" | "compiled-pool" | "pool" => Ok(Backend::CompiledPool { threads: 0, pin }),
            other => {
                if let Some(n) =
                    other.strip_prefix("pool:").or(other.strip_prefix("compiled-pool:"))
                {
                    let threads: usize = n
                        .parse()
                        .map_err(|_| format!("bad worker count in {s:?} (want pool:N[@pin])"))?;
                    return Ok(Backend::CompiledPool { threads, pin });
                }
                Err(format!("unknown engine {s:?} (mailbox|compiled-seq|compiled-pool[:N][@pin])"))
            }
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::CompiledPool { threads, pin } if *threads > 0 || *pin => {
                f.write_str("compiled-pool")?;
                if *threads > 0 {
                    write!(f, ":{threads}")?;
                }
                if *pin {
                    f.write_str("@pin")?;
                }
                Ok(())
            }
            other => f.write_str(other.label()),
        }
    }
}

/// [`Backend::CompiledSeq`] as an operator: one compiled plan plus its
/// sequential [`Workspace`], compiled once at construction.
pub struct CompiledSeqOperator {
    cp: CompiledPlan,
    ws: Workspace,
    obs: Option<ExecTelemetry>,
}

impl CompiledSeqOperator {
    /// Wraps an already-compiled plan with a workspace for batches of
    /// up to `width`.
    pub fn new(cp: CompiledPlan, width: usize) -> CompiledSeqOperator {
        let ws = cp.workspace_batch(width.max(1));
        CompiledSeqOperator { cp, ws, obs: None }
    }

    /// [`CompiledSeqOperator::new`] with a telemetry sink: every
    /// application records per-rank phase spans and work counters.
    /// Results stay bitwise identical to the sink-less operator.
    pub fn with_telemetry(
        cp: CompiledPlan,
        width: usize,
        sink: Arc<TelemetrySink>,
    ) -> CompiledSeqOperator {
        let obs = Some(ExecTelemetry::new(&cp, sink));
        CompiledSeqOperator { obs, ..CompiledSeqOperator::new(cp, width) }
    }

    /// The compiled plan this operator executes.
    pub fn compiled(&self) -> &CompiledPlan {
        &self.cp
    }
}

impl SpmvOperator for CompiledSeqOperator {
    fn nrows(&self) -> usize {
        self.cp.nrows
    }

    fn ncols(&self) -> usize {
        self.cp.ncols
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.cp.execute_batch_iters_obs(&mut self.ws, x, y, 1, 1, self.obs.as_ref());
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.apply_batch_iters(x, y, r, 1);
    }

    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        if r > self.ws.width() {
            // One-time growth; steady-state calls at a seen width do
            // not allocate.
            self.ws = self.cp.workspace_batch(r);
        }
        // Native chained path: the workspace's carrier ferries the
        // iterate, no caller-side copies.
        self.cp.execute_batch_iters_obs(&mut self.ws, x, y, r, iters, self.obs.as_ref());
    }
}

/// [`Backend::CompiledPool`] as an operator: the compiled plan running
/// on a persistent worker pool, spawned once at construction.
pub struct CompiledPoolOperator {
    engine: ParallelEngine,
    /// Requested worker count (0 = default sizing), kept so a
    /// width-growth rebuild preserves the choice.
    threads: usize,
    /// Core pinning, kept for the same rebuild reason.
    pin: bool,
    /// Telemetry sink, kept so a width-growth rebuild stays
    /// instrumented (the rebuilt pool records into the same sink).
    sink: Option<Arc<TelemetrySink>>,
}

impl CompiledPoolOperator {
    /// Builds the pool over an already-compiled plan (`threads = 0` →
    /// default sizing) with buffers for batches of up to `width`.
    pub fn new(cp: CompiledPlan, threads: usize, width: usize) -> CompiledPoolOperator {
        CompiledPoolOperator::with_config(cp, threads, width, false, None)
    }

    /// [`CompiledPoolOperator::new`] with a telemetry sink: workers
    /// record per-rank phase spans (including barrier waits) and work
    /// counters. Results stay bitwise identical to the sink-less pool.
    pub fn with_telemetry(
        cp: CompiledPlan,
        threads: usize,
        width: usize,
        sink: Arc<TelemetrySink>,
    ) -> CompiledPoolOperator {
        CompiledPoolOperator::with_config(cp, threads, width, false, Some(sink))
    }

    /// The fully-general constructor: worker count, batch capacity,
    /// core pinning and optional telemetry.
    pub fn with_config(
        cp: CompiledPlan,
        threads: usize,
        width: usize,
        pin: bool,
        sink: Option<Arc<TelemetrySink>>,
    ) -> CompiledPoolOperator {
        let engine = ParallelEngine::with_options(
            cp,
            PoolOptions {
                threads,
                width: width.max(1),
                pin,
                sink: sink.clone(),
                ..PoolOptions::default()
            },
        );
        CompiledPoolOperator { engine, threads, pin, sink }
    }

    /// The underlying pool (e.g. to query `threads()` or
    /// [`ParallelEngine::worker_loads`]).
    pub fn engine(&self) -> &ParallelEngine {
        &self.engine
    }
}

impl SpmvOperator for CompiledPoolOperator {
    fn nrows(&self) -> usize {
        self.engine.plan().nrows
    }

    fn ncols(&self) -> usize {
        self.engine.plan().ncols
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.engine.execute(x, y);
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.apply_batch_iters(x, y, r, 1);
    }

    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        if r > self.engine.width() {
            // Width growth requires re-sizing the shared buffers, which
            // means rebuilding the pool — expensive, so build with the
            // widest batch you plan to use.
            let cp = self.engine.plan().clone();
            *self =
                CompiledPoolOperator::with_config(cp, self.threads, r, self.pin, self.sink.take());
        }
        // Native chained path: one dispatch, workers stay hot across
        // iterations.
        self.engine.execute_batch_iters(x, y, r, iters);
    }

    fn worker_loads(&self) -> Option<Vec<u64>> {
        Some(self.engine.worker_loads().to_vec())
    }
}

/// Whole-application telemetry for operators with no internal phase
/// structure to hook (the mailbox oracle): each apply is
/// recorded as one compute span under rank 0, plus run-level wall
/// time and iteration counts on the sink.
///
/// Purely additive — the wrapped operator's results (and its
/// [`SpmvOperator::deterministic`] contract) pass through untouched.
pub struct ObservedOperator<O> {
    inner: O,
    sink: Arc<TelemetrySink>,
}

impl<O: SpmvOperator> ObservedOperator<O> {
    /// Wraps `inner` so every application is accounted on `sink`.
    pub fn new(inner: O, sink: Arc<TelemetrySink>) -> ObservedOperator<O> {
        ObservedOperator { inner, sink }
    }

    /// The wrapped operator.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    fn observe(&mut self, iters: u64, width: usize, body: impl FnOnce(&mut O)) {
        let t = Instant::now();
        body(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        self.sink.rank(0).record(Phase::Compute, ns);
        self.sink.add_wall(ns);
        self.sink.add_iterations(iters, width);
    }
}

impl<O: SpmvOperator> SpmvOperator for ObservedOperator<O> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.observe(1, 1, |op| op.apply(x, y));
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.observe(1, r, |op| op.apply_batch(x, y, r));
    }

    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        self.observe(iters as u64, r, |op| op.apply_batch_iters(x, y, r, iters));
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn worker_loads(&self) -> Option<Vec<u64>> {
        self.inner.worker_loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (idx, (u, v)) in a.iter().zip(b).enumerate() {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "y[{idx}]: {u} vs {v}");
        }
    }

    #[test]
    fn every_backend_builds_and_matches_serial() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        let want = a.spmv_alloc(&x);
        for backend in Backend::all() {
            let mut op = backend.build(&plan, 1);
            assert_eq!((op.nrows(), op.ncols()), (a.nrows(), a.ncols()));
            let mut y = vec![0.0; a.nrows()];
            op.apply(&x, &mut y);
            assert_close(&y, &want);
        }
    }

    #[test]
    fn backend_parse_roundtrip() {
        for (s, want) in [
            ("mailbox", Backend::Mailbox),
            ("compiled-seq", Backend::CompiledSeq),
            ("seq", Backend::CompiledSeq),
            ("compiled", Backend::CompiledPool { threads: 0, pin: false }),
            ("compiled-pool", Backend::CompiledPool { threads: 0, pin: false }),
            ("pool", Backend::CompiledPool { threads: 0, pin: false }),
            ("pool:4", Backend::CompiledPool { threads: 4, pin: false }),
            ("compiled-pool:2", Backend::CompiledPool { threads: 2, pin: false }),
            ("pool@pin", Backend::CompiledPool { threads: 0, pin: true }),
            ("pool:4@pin", Backend::CompiledPool { threads: 4, pin: true }),
            ("compiled-pool:2@pin", Backend::CompiledPool { threads: 2, pin: true }),
        ] {
            assert_eq!(s.parse::<Backend>().unwrap(), want, "{s}");
        }
        assert!("warp".parse::<Backend>().is_err());
        // `threaded` names no engine; the error lists the valid ones.
        let err = "threaded".parse::<Backend>().unwrap_err();
        for engine in ["mailbox", "compiled-seq", "compiled-pool"] {
            assert!(err.contains(engine), "{err:?} must list {engine}");
        }
        assert!("pool:x".parse::<Backend>().is_err());
        assert!("mailbox@pin".parse::<Backend>().is_err(), "@pin is a pool-only suffix");
        assert!("seq@pin".parse::<Backend>().is_err());
        assert_eq!(Backend::CompiledPool { threads: 3, pin: false }.to_string(), "compiled-pool:3");
        assert_eq!(Backend::CompiledPool { threads: 0, pin: false }.to_string(), "compiled-pool");
        assert_eq!(
            Backend::CompiledPool { threads: 4, pin: true }.to_string(),
            "compiled-pool:4@pin"
        );
        assert_eq!(
            Backend::CompiledPool { threads: 0, pin: true }.to_string(),
            "compiled-pool@pin"
        );
        for backend in Backend::all() {
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
    }

    #[test]
    fn build_with_runs_every_kernel_format() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        let mut want = vec![0.0; a.nrows()];
        Backend::CompiledSeq.build(&plan, 1).apply(&x, &mut want);
        for backend in [Backend::CompiledSeq, Backend::CompiledPool { threads: 2, pin: false }] {
            for format in KernelFormat::all() {
                let mut op = backend.build_with(&plan, 1, format);
                let mut y = vec![0.0; a.nrows()];
                op.apply(&x, &mut y);
                assert_eq!(y, want, "{backend}/{format} must match the CSR default bitwise");
            }
        }
    }

    #[test]
    fn build_from_compiled_matches_fresh_builds_bitwise() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let cp = CompiledPlan::compile_with(&plan, KernelFormat::CsrSlice);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        for backend in Backend::all() {
            let mut fresh = backend.build(&plan, 1);
            // Two operators over the same cached artifact, as serve
            // workers would hold them.
            let mut cached_a = backend.build_from_compiled(&plan, &cp, 1);
            let mut cached_b = backend.build_from_compiled(&plan, &cp, 1);
            let mut want = vec![0.0; a.nrows()];
            let mut got_a = vec![0.0; a.nrows()];
            let mut got_b = vec![0.0; a.nrows()];
            fresh.apply(&x, &mut want);
            cached_a.apply(&x, &mut got_a);
            cached_b.apply(&x, &mut got_b);
            assert_eq!(got_a, want, "{backend}");
            assert_eq!(got_b, want, "{backend}");
        }
    }

    #[test]
    fn auto_backend_follows_the_ops_crossover() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::single_phase(&a, &p);
        let cp = CompiledPlan::compile(&plan);
        // fig1 is tiny: far below the pool's amortization floor.
        assert_eq!(Backend::auto(&cp), Backend::CompiledSeq);
        // Inflate the op count artificially: the decision flips.
        let mut big = cp.clone();
        if let Some(crate::RankStep::Compute(crate::Kernel::Csr(k))) =
            big.ranks[0].steps.first_mut()
        {
            let (row, col, val) = (k.rows[0], k.cols[0], 1.0);
            for _ in 0..600_000 {
                k.cols.push(col);
                k.vals.push(val);
            }
            *k.row_ptr.last_mut().unwrap() = k.cols.len() as u32;
            let _ = row;
        } else {
            panic!("fig1 plan starts with a compute phase");
        }
        assert_eq!(Backend::auto(&big), Backend::CompiledPool { threads: 0, pin: false });
        // The crossover is an overridable constant, not magic: a floor
        // below the tiny plan's op count flips even fig1 to the pool,
        // and an unreachable floor pins the inflated plan to seq.
        assert_eq!(
            Backend::auto_with_crossover(&cp, 1),
            Backend::CompiledPool { threads: 0, pin: false },
            "fig1 has k > 1 and more than one madd"
        );
        assert_eq!(Backend::auto_with_crossover(&big, u64::MAX), Backend::CompiledSeq);
    }

    #[test]
    fn compiled_operators_grow_to_wider_batches() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        for backend in [Backend::CompiledSeq, Backend::CompiledPool { threads: 2, pin: false }] {
            let mut op = backend.build(&plan, 1);
            let r = 3;
            let x: Vec<f64> = (0..a.ncols() * r).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
            let mut y = vec![0.0; a.nrows() * r];
            op.apply_batch(&x, &mut y, r); // width 1 → grows to 3
            for q in 0..r {
                let xq: Vec<f64> = (0..a.ncols()).map(|g| x[g * r + q]).collect();
                let mut yq = vec![0.0; a.nrows()];
                op.apply(&xq, &mut yq);
                let got: Vec<f64> = (0..a.nrows()).map(|g| y[g * r + q]).collect();
                assert_eq!(got, yq, "{backend} column {q}");
            }
        }
    }
}
