//! The distributed executor: one rank's compiled [`RankProgram`] run
//! over `s2d-runtime` endpoints.
//!
//! [`run_rank`] is the one place a plan's message schedule turns into
//! endpoint traffic. It seeds the rank's flat local blocks, runs the
//! compute kernels, posts each communication phase's sends, then takes
//! that phase's receives with `recv_match(peer, tag)` in spec order and
//! folds them. Because receives are matched by `(peer, tag)` in a fixed
//! order rather than by arrival, the floating-point reduction order is
//! a pure function of the plan: delayed or reordered delivery cannot
//! change a bit, and results equal the sequential compiled executor and
//! the mailbox oracle bitwise.
//!
//! Two callers share it and differ only in seeding and emission:
//!
//! * `s2d-solver`'s `RankCtx` seeds from the rank's owned vector slice
//!   and emits back into it (a long-lived SPMD world, solver loops);
//! * `s2d-serve`'s `ShardedOperator` seeds from a global `x` through
//!   [`RankProgram::x_seed`] and emits through [`RankProgram::y_emit`]
//!   (one short-lived world per application, rectangular plans too).

use std::time::Instant;

use s2d_obs::{Phase, PhaseRecorder};
use s2d_runtime::Endpoint;

use crate::compile::{RankProgram, RankStep};

/// Message payload: `x` values and partial-`y` values, positional (the
/// plan's message specs define which global index each slot carries),
/// `r` consecutive words per listed slot.
pub type Payload = (Vec<f64>, Vec<f64>);

/// One rank's flat local `x`/`y` blocks, kept across calls so a rank
/// that runs many applications allocates them once per batch width.
#[derive(Debug, Default)]
pub struct RankBuffers {
    x: Vec<f64>,
    y: Vec<f64>,
}

/// Opens a span iff a recorder is attached (the off path reads no
/// clock at all).
#[inline]
fn span_start(obs: Option<&PhaseRecorder>) -> Option<Instant> {
    obs.map(|_| Instant::now())
}

/// Closes a span opened by [`span_start`].
#[inline]
fn span_end(obs: Option<&PhaseRecorder>, ph: Phase, t: Option<Instant>) {
    if let (Some(rec), Some(t)) = (obs, t) {
        rec.record(ph, t.elapsed().as_nanos() as u64);
    }
}

/// Runs `prog` once at batch width `r` on endpoint `ep`.
///
/// `seed` writes the rank's input values into the local `x` block
/// (slot `s` at `[s*r .. (s+1)*r]`); `emit` reads the finished local
/// `y` block. Communication phase `i` uses tag `tag0 + i`, so callers
/// that run several applications on one endpoint hand out disjoint tag
/// ranges. Payload vectors are the only per-call allocations (they move
/// into the runtime's channels).
///
/// When `obs` carries this rank's recorder, phase spans and work
/// counters are recorded around (never inside) the numeric steps:
/// seeding and send staging as gather, kernels as compute, receive
/// folding and emission as scatter. The instrumented walk performs the
/// identical operations in the identical order.
#[allow(clippy::too_many_arguments)]
pub fn run_rank(
    ep: &mut Endpoint<Payload>,
    prog: &RankProgram,
    bufs: &mut RankBuffers,
    r: usize,
    tag0: u32,
    obs: Option<&PhaseRecorder>,
    seed: impl FnOnce(&mut [f64]),
    emit: impl FnOnce(&[f64]),
) {
    assert!(r >= 1, "batch width must be at least 1");
    // Grow on first use of a wider batch; stride-r addressing ignores
    // any excess tail.
    if bufs.x.len() < prog.nx * r {
        bufs.x.resize(prog.nx * r, 0.0);
    }
    if bufs.y.len() < prog.ny * r {
        bufs.y.resize(prog.ny * r, 0.0);
    }
    let (xloc, yloc) = (&mut bufs.x, &mut bufs.y);
    let (mut madds, mut words) = (0u64, 0u64);
    let t = span_start(obs);
    seed(xloc);
    yloc[..prog.ny * r].fill(0.0);
    span_end(obs, Phase::Gather, t);
    let mut tag = tag0;
    for step in &prog.steps {
        match step {
            RankStep::Compute(kernel) => {
                let t = span_start(obs);
                kernel.run_batch(xloc, yloc, r);
                span_end(obs, Phase::Compute, t);
                if obs.is_some() {
                    madds += kernel.ops() as u64;
                }
            }
            RankStep::Comm { sends, recvs, .. } => {
                let t = span_start(obs);
                for m in sends {
                    let mut xs = Vec::with_capacity(m.x_idx.len() * r);
                    for &s in &m.x_idx {
                        xs.extend_from_slice(&xloc[s as usize * r..s as usize * r + r]);
                    }
                    let mut ys = Vec::with_capacity(m.y_idx.len() * r);
                    for &s in &m.y_idx {
                        let at = s as usize * r;
                        ys.extend_from_slice(&yloc[at..at + r]);
                        yloc[at..at + r].fill(0.0); // moved, not copied
                    }
                    if obs.is_some() {
                        words += m.words() as u64;
                    }
                    ep.send(m.peer, tag, (xs, ys));
                }
                span_end(obs, Phase::Gather, t);
                // All sends are posted; targeted receives can land in
                // spec order without deadlock.
                let t = span_start(obs);
                for m in recvs {
                    let (xs, ys) = ep.recv_match(m.peer, tag).payload;
                    debug_assert_eq!(xs.len(), m.x_idx.len() * r);
                    debug_assert_eq!(ys.len(), m.y_idx.len() * r);
                    for (i, &slot) in m.x_idx.iter().enumerate() {
                        let at = slot as usize * r;
                        xloc[at..at + r].copy_from_slice(&xs[i * r..(i + 1) * r]);
                    }
                    for (i, &slot) in m.y_idx.iter().enumerate() {
                        let at = slot as usize * r;
                        for q in 0..r {
                            yloc[at + q] += ys[i * r + q];
                        }
                    }
                }
                span_end(obs, Phase::Scatter, t);
                tag += 1;
            }
        }
    }
    let t = span_start(obs);
    emit(yloc);
    span_end(obs, Phase::Scatter, t);
    if let Some(rec) = obs {
        let r = r as u64;
        rec.add_counts(prog.y_emit.len() as u64 * r, madds * r, words * r);
    }
}
