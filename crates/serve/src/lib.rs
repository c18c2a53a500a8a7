//! # s2d-serve — SpMV as a service
//!
//! The long-lived, multi-tenant serving layer over the `s2d` stack:
//! where the rest of the workspace answers *one* solve fast, this crate
//! answers *many concurrent* solves cheaply. Three mechanisms carry the
//! load:
//!
//! * **Preparation cache** ([`PlanCache`]) — partitioning, plan
//!   construction and kernel compilation are cached under
//!   (matrix fingerprint, strategy, k, plan kind, kernel format, batch
//!   width); repeat registrations stamp sessions from the cached
//!   artifact in microseconds. Hit/miss/eviction counters surface
//!   through [`s2d_obs::ServeStats`] into `ExecutionReport`s.
//! * **Admission + queueing** ([`Server`]) — per-session bounded queues
//!   with immediate [`QueueFull`](ServeError::QueueFull) rejection and
//!   per-request deadlines ([`Expired`](ServeError::Expired)), so
//!   overload sheds load instead of stretching latency.
//! * **Cross-request coalescing** — up to
//!   [`max_coalesce`](ServerConfig::max_coalesce) pending single-RHS
//!   requests for one session pack into a single `apply_batch`
//!   execution (the multi-RHS reuse win measured at ~2–2.4× on
//!   rmat14/K = 16) and scatter back per caller, bitwise identical to
//!   running each request alone.
//!
//! For distributed execution the [`ShardedOperator`] runs sessions over
//! `s2d-runtime` endpoints on the cached compiled plan, through the
//! same per-rank executor the distributed solvers use
//! (`s2d_engine::run_rank`). Receives are matched in spec order, so
//! even chaos-injected delivery cannot change a result bit, and sharded
//! results equal an in-process `compiled-seq` session's bitwise — the
//! properties the serve differential tests pin down.

mod cache;
mod server;
mod sharded;

pub use cache::{PlanCache, PrepKey};
pub use server::{ServeError, Server, ServerConfig, SessionId, Ticket};
pub use sharded::ShardedOperator;
