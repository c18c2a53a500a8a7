//! Rank-sharded execution over `s2d-runtime` endpoints, hardened for
//! serving: **bitwise deterministic under arbitrary delivery
//! interleavings**, including chaos-injected delays, and batch-capable
//! so coalesced requests run through the same code path as single
//! solves.
//!
//! Each application spawns one rank per virtual processor and runs
//! that rank's compiled program through the workspace's one
//! distributed executor, [`s2d_engine::run_rank`] — the walk the
//! solvers' `RankCtx` uses too. Receives are matched by `(peer, tag)`
//! in the plan's spec order, never by arrival order, so the
//! floating-point reduction order is a pure function of the plan: a
//! chaotic run and a quiet run produce the same bits, and both equal
//! the sequential compiled executor and the mailbox oracle. Because
//! the operator runs the cached [`CompiledPlan`], sharded sessions get
//! the tuned kernel format and ISA for free. This operator adds only
//! seeding from the global `x` ([`RankProgram::x_seed`]) and emission
//! into the global `y` ([`RankProgram::y_emit`]); rows no rank
//! materializes come out as zero, so rectangular plans work too.
//!
//! [`RankProgram::x_seed`]: s2d_engine::RankProgram::x_seed
//! [`RankProgram::y_emit`]: s2d_engine::RankProgram::y_emit

use s2d_engine::{run_rank, CompiledPlan, Payload, RankBuffers};
use s2d_runtime::{spmd, ChaosConfig, Cluster};
use s2d_spmv::SpmvOperator;

/// A batch-capable, chaos-proof distributed SpMV operator: `k` ranks on
/// OS threads exchanging plan messages through the runtime, with a
/// deterministic reduction order (see the module docs).
pub struct ShardedOperator {
    compiled: CompiledPlan,
    chaos: ChaosConfig,
}

impl ShardedOperator {
    /// A quiet sharded operator over a compiled plan.
    pub fn new(compiled: CompiledPlan) -> ShardedOperator {
        ShardedOperator::with_chaos(compiled, ChaosConfig::off())
    }

    /// A sharded operator with delivery-delay injection — results are
    /// bitwise identical to the quiet operator's, only slower.
    pub fn with_chaos(compiled: CompiledPlan, chaos: ChaosConfig) -> ShardedOperator {
        ShardedOperator { compiled, chaos }
    }
}

impl SpmvOperator for ShardedOperator {
    fn nrows(&self) -> usize {
        self.compiled.nrows
    }

    fn ncols(&self) -> usize {
        self.compiled.ncols
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.apply_batch(x, y, 1);
    }

    /// Runs the row-major batch `x` (`x[j*r + q]` = column `q` of input
    /// `j`), writing the row-major result into `y`.
    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        let cp = &self.compiled;
        assert!(r >= 1, "batch width must be at least 1");
        assert_eq!(x.len(), cp.ncols * r, "input length mismatch");
        assert_eq!(y.len(), cp.nrows * r, "output length mismatch");
        // Each rank returns its emitted rows' lanes in `y_emit` order.
        let emitted = spmd(Cluster::<Payload>::with_chaos(cp.k, self.chaos), |ep| {
            let prog = &cp.ranks[ep.rank() as usize];
            let mut lanes = Vec::with_capacity(prog.y_emit.len() * r);
            run_rank(
                ep,
                prog,
                &mut RankBuffers::default(),
                r,
                0,
                None,
                |xloc| {
                    for &(g, slot) in &prog.x_seed {
                        let (src, dst) = (g as usize * r, slot as usize * r);
                        xloc[dst..dst + r].copy_from_slice(&x[src..src + r]);
                    }
                },
                |yloc| {
                    for &(_, slot) in &prog.y_emit {
                        lanes.extend_from_slice(&yloc[slot as usize * r..slot as usize * r + r]);
                    }
                },
            );
            debug_assert!(ep.drained(), "rank {} exits with unconsumed messages", ep.rank());
            lanes
        });
        y.fill(0.0);
        for (prog, lanes) in cp.ranks.iter().zip(&emitted) {
            for (&(i, _), lane) in prog.y_emit.iter().zip(lanes.chunks_exact(r)) {
                y[i as usize * r..(i as usize + 1) * r].copy_from_slice(lane);
            }
        }
    }

    fn deterministic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};
    use s2d_core::partition::SpmvPartition;
    use s2d_sparse::{Coo, Csr};
    use s2d_spmv::{PlanKind, SpmvPlan};

    /// Row 0 (rank 0) receives three folded partial sums of order 1e16,
    /// -1e16 and 1 from ranks 1, 2 and 3. Their sum depends on the order
    /// of addition (at 1e16 the spacing of doubles is 2), so folding in
    /// arrival order rather than spec order shows up as changed bits.
    fn cancellation_instance() -> (Csr, SpmvPartition) {
        let mut m = Coo::new(7, 7);
        for (c, v) in [(1, 5e15), (2, 5e15), (3, -5e15), (4, -5e15), (5, 0.5), (6, 0.5)] {
            m.push(0, c, v);
        }
        for i in 0..7 {
            m.push(i, i, 1.0);
        }
        m.compress();
        let a = m.to_csr();
        let parts = vec![0, 1, 1, 2, 2, 3, 3];
        let p = s2d_core::optimal::s2d_optimal(&a, &parts, &parts, 4);
        (a, p)
    }

    #[test]
    fn sharded_runs_are_bitwise_reproducible_under_chaos() {
        for (a, p) in [(fig1_matrix(), fig1_partition()), cancellation_instance()] {
            chaos_case(&a, &p);
        }
    }

    fn chaos_case(a: &Csr, p: &SpmvPartition) {
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).sin() + 2.0).collect();
        for kind in PlanKind::all() {
            let plan = kind.build(a, p);
            let cp = CompiledPlan::compile(&plan);
            let mut quiet = ShardedOperator::new(cp.clone());
            let mut y_quiet = vec![0.0; a.nrows()];
            quiet.apply(&x, &mut y_quiet);
            assert_eq!(y_quiet, plan.execute_mailbox(&x), "{kind}: must equal the mailbox oracle");
            for seed in 0..8 {
                let chaos = ChaosConfig::with_delays(150, seed);
                let mut noisy = ShardedOperator::with_chaos(cp.clone(), chaos);
                let mut y_noisy = vec![f64::NAN; a.nrows()];
                noisy.apply(&x, &mut y_noisy);
                assert_eq!(y_noisy, y_quiet, "{kind} seed {seed}: chaos must not change bits");
            }
        }
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (idx, (u, v)) in a.iter().zip(b).enumerate() {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "y[{idx}]: {u} vs {v}");
        }
    }

    /// Runs `plan` on a sharded operator with the given chaos and returns `y`.
    fn sharded(plan: &SpmvPlan, x: &[f64], chaos: ChaosConfig) -> Vec<f64> {
        let mut op = ShardedOperator::with_chaos(CompiledPlan::compile(plan), chaos);
        let mut y = vec![f64::NAN; plan.nrows];
        op.apply(x, &mut y);
        y
    }

    #[test]
    fn sharded_matches_mailbox_on_all_plan_kinds() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 - 6.0).collect();
        let reference = a.spmv_alloc(&x);
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh(&a, &p, 3, 1),
        ] {
            let y_mailbox = plan.execute_mailbox(&x);
            assert_eq!(sharded(&plan, &x, ChaosConfig::off()), y_mailbox);
            assert_close(&y_mailbox, &reference);
        }
    }

    #[test]
    fn mesh_plan_survives_chaotic_delivery() {
        // A rank racing ahead into the second mesh hop must not take a
        // slower peer's phase-1 contribution for its own: phase tags and
        // spec-order matching make every interleaving — here aggressively
        // randomized — deliver the mailbox oracle's exact bits.
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).sin() + 2.0).collect();
        let plan = SpmvPlan::mesh(&a, &p, 3, 1);
        let y_mailbox = plan.execute_mailbox(&x);
        assert_close(&y_mailbox, &a.spmv_alloc(&x));
        for seed in 0..8 {
            let y = sharded(&plan, &x, ChaosConfig::with_delays(200, seed));
            assert_eq!(y, y_mailbox, "seed {seed}");
        }
    }

    #[test]
    fn two_phase_plan_survives_chaotic_delivery() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 * 0.25 - 1.0).collect();
        let plan = SpmvPlan::two_phase(&a, &p);
        let y_mailbox = plan.execute_mailbox(&x);
        assert_close(&y_mailbox, &a.spmv_alloc(&x));
        for seed in 0..4 {
            let y = sharded(&plan, &x, ChaosConfig::with_delays(150, seed));
            assert_eq!(y, y_mailbox, "seed {seed}");
        }
    }

    #[test]
    fn batch_columns_match_single_runs_bitwise() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let cp = CompiledPlan::compile(&PlanKind::SinglePhase.build(&a, &p));
        let r = 4;
        let x: Vec<f64> = (0..a.ncols() * r).map(|i| ((i * 7) % 19) as f64 - 9.0).collect();
        let mut op = ShardedOperator::with_chaos(cp.clone(), ChaosConfig::with_delays(100, 11));
        let mut y = vec![0.0; a.nrows() * r];
        op.apply_batch(&x, &mut y, r);
        let mut quiet = ShardedOperator::new(cp);
        for q in 0..r {
            let xq: Vec<f64> = (0..a.ncols()).map(|g| x[g * r + q]).collect();
            let mut yq = vec![0.0; a.nrows()];
            quiet.apply(&xq, &mut yq);
            let got: Vec<f64> = (0..a.nrows()).map(|g| y[g * r + q]).collect();
            assert_eq!(got, yq, "column {q} must match its quiet single-RHS run bitwise");
        }
    }
}
