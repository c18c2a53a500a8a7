//! Compiled SpMV execution engine.
//!
//! The mailbox interpreter in `s2d-spmv` defines plan *semantics*;
//! this crate makes plans *fast*. It follows the inspector/executor
//! pattern of the OSKI line and shared-memory SpMV practice: pay a
//! one-time compilation cost per `(matrix, partition)` pair, then run
//! thousands of iterations over flat, cache-friendly arrays.
//!
//! The pipeline:
//!
//! ```text
//!   SpmvPlan ──CompiledPlan::compile──▶ CompiledPlan
//!                                          │
//!                      ┌───────────────────┴──────────────────┐
//!            Workspace + execute                    ParallelEngine
//!            execute_batch(X, r)                 execute_batch(X, r)
//!            (sequential, zero-alloc            (persistent worker pool,
//!             iteration loop)                    atomic phase barriers)
//! ```
//!
//! * [`compile`] — renumbers every rank's `x`/`y` footprint into dense
//!   local indices, lowers compute phases to format-pluggable kernels
//!   and messages to gather/scatter index lists with staging offsets;
//! * [`formats`] — the kernel storage formats ([`KernelFormat`]):
//!   CSR slices, SELL-C-σ sorted chunks, dense-span splits, and the
//!   per-kernel `auto` selection policy;
//! * [`exec`] — the sequential executor over a reusable [`Workspace`];
//! * [`pool`] — the [`ParallelEngine`]: long-lived OS threads running
//!   `execute_iters(n)` for solver loops with zero per-iteration
//!   allocation;
//! * [`distributed`] — the one distributed executor, [`run_rank`]: one
//!   rank's [`RankProgram`] over `s2d-runtime` endpoints, receives
//!   matched in spec order so results are bitwise independent of
//!   delivery order.
//!
//! # Kernel formats
//!
//! The kernel body is a pluggable storage format, not a single CSR
//! loop: [`CompiledPlan::compile_with`] lowers every compute phase to
//! the requested [`KernelFormat`], and the format is baked into the
//! kernel's buffer layout (chunk packing, padding, span tables) —
//! every executor (sequential workspace, worker pool, the distributed
//! per-rank walk) runs whatever format the plan carries through
//! the one [`Kernel::run_batch`] entry point.
//!
//! Selection guidance:
//!
//! * [`KernelFormat::CsrSlice`] (the default) — the PR 1 kernel,
//!   bitwise-preserved; right for mixed/long-row slices and the
//!   baseline every other format is differentially held to.
//! * [`KernelFormat::SellCSigma`] — sorts rows by length inside σ-row
//!   windows and packs C-lane padded chunks whose inner loop has a
//!   uniform trip count; wins on many short irregular rows (graph
//!   matrices), loses when padding fill gets large.
//! * [`KernelFormat::DenseRowSplit`] — turns runs of consecutive local
//!   columns into index-free dense spans; right for the heavy split
//!   rows semi-2D partitions produce (after dense renumbering a split
//!   dense row is exactly such a run).
//! * [`KernelFormat::Auto`] — per rank × phase choice from compile-time
//!   row-length statistics ([`KernelStats`]); use it unless you are
//!   pinning a format for comparison.
//!
//! All formats preserve per-row entry order and accumulate through a
//! single chain per row, so results are bitwise identical across
//! formats for finite inputs (see the [`formats`] module docs for the
//! exact contract), and [`Kernel::ops`] /
//! [`CompiledPlan::total_ops`] are format-invariant — padding never
//! counts.
//!
//! # Batched (multi-RHS) execution
//!
//! Every compiled path also runs **blocks** of `r` right-hand sides at
//! once (`Y = A·X`): `Kernel::run_batch`, `CompiledPlan::execute_batch`
//! / `execute_batch_iters` over a [`Workspace`] allocated with
//! `workspace_batch(r)`, and `ParallelEngine::execute_batch` on a pool
//! built with `PoolOptions { width, .. }`. The memory layout is
//! row-major everywhere:
//!
//! * global vectors: index `g`, column `q` at `x[g*r + q]` — an `n × r`
//!   block, never `r` separate vectors;
//! * rank-local buffers: local slot `s` occupies `buf[s*r .. (s+1)*r]`;
//! * message staging: each [`CompiledMsg`]'s region scales from `len`
//!   to `len × r` words (region start `offset * r`), so a communication
//!   phase still performs one staged copy per message — the payload is
//!   just `r` times wider.
//!
//! One batched iteration therefore walks the matrix values and the
//! gather/scatter index lists **once** for all `r` columns, reusing
//! each fetched `A` entry `r` times against `r` contiguous `x` words —
//! the register/cache-blocking lever of the OSKI line. The fixed-width
//! inner loops (`r ∈ {1, 2, 4, 8}` specializations in
//! [`Kernel::run_batch`]) carry explicit AVX2 variants for `r ∈ {4,
//! 8}`, selected by [`KernelIsa`] (`auto` probes the CPU once at
//! compile time) — the vector lanes map to the batch dimension, so the
//! SIMD paths are **bitwise identical** to the scalar reference. Per
//! column, results are bitwise identical to the single-RHS path: only
//! the traversal is shared, never the accumulation order.
//!
//! `s2d-solver`'s `RankCtx` and `s2d-serve`'s `ShardedOperator` run
//! the same compiled per-rank programs ([`RankProgram`]) through
//! [`run_rank`] — including the batched layout via
//! `RankCtx::spmv_batch`, which block power iteration consumes — so
//! CG, Jacobi, power iteration, block power, PageRank and sharded
//! serving all ride this path; the mailbox interpreter remains as the
//! single oracle (see `crates/engine/tests/props.rs` and the
//! differential harness in `crates/engine/tests/differential.rs`).
//!
//! # The unified operator surface
//!
//! The [`backend`] module puts every whole-plan execution path — the
//! mailbox oracle of `s2d-spmv` plus the two compiled paths here —
//! behind `s2d_spmv::SpmvOperator`, selected by the [`Backend`]
//! enum: `Backend::build(&plan, width)` pays all setup (compilation,
//! buffers, worker threads) once and returns an operator whose
//! `apply`/`apply_batch` write into caller-owned buffers with zero
//! steady-state allocation on the compiled paths. See the [`backend`]
//! module docs for selection guidance (when the pool beats the
//! sequential workspace, how to pick a batch width). The conformance
//! suite in `crates/engine/tests/conformance.rs` holds every backend to
//! one shared property set.

pub mod backend;
pub mod compile;
pub mod distributed;
pub mod exec;
pub mod formats;
pub mod pool;
pub mod telemetry;

pub use backend::{Backend, CompiledPoolOperator, CompiledSeqOperator, ObservedOperator};
pub use compile::{CompiledMsg, CompiledPlan, RankProgram, RankStep, NO_SLOT};
pub use distributed::{run_rank, Payload, RankBuffers};
pub use exec::Workspace;
pub use formats::{
    CsrKernel, DenseSplitKernel, Kernel, KernelFormat, KernelIsa, KernelStats, SellKernel, NO_LANE,
};
pub use pool::{ParallelEngine, PoolOptions, PoolSchedule};
pub use telemetry::ExecTelemetry;
