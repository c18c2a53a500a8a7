//! Property test for the distributed executor behind
//! [`ShardedOperator`]: on random matrices and s2D partitions, every
//! plan kind under chaos-injected delivery delays produces exactly the
//! bits of the mailbox oracle. Receives are matched by `(peer, tag)` in
//! spec order, so no delivery interleaving may change a result.

use proptest::prelude::*;
use s2d_core::optimal::s2d_optimal;
use s2d_engine::{CompiledPlan, KernelFormat};
use s2d_runtime::ChaosConfig;
use s2d_serve::ShardedOperator;
use s2d_sparse::{Coo, Csr};
use s2d_spmv::{PlanKind, SpmvOperator};

/// Random square matrix with values, plus a symmetric vector partition
/// (the same instance shape as `crates/spmv/tests/props.rs`).
fn instance_strategy(
    max_n: usize,
    max_nnz: usize,
    max_k: usize,
) -> impl Strategy<Value = (Csr, Vec<u32>, usize)> {
    (2..=max_n, 1..=max_k).prop_flat_map(move |(n, k)| {
        let entry = (0..n, 0..n, -4i32..=4);
        let parts = proptest::collection::vec(0..k as u32, n);
        (proptest::collection::vec(entry, 1..=max_nnz), parts).prop_map(move |(es, parts)| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in es {
                coo.push(r, c, f64::from(v) * 0.5 + 0.25);
            }
            coo.compress();
            (coo.to_csr(), parts, k)
        })
    })
}

fn x_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|j| ((j as u64).wrapping_mul(2654435761).wrapping_add(seed) % 101) as f64 / 13.0 - 3.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-phase, two-phase and mesh plans, compiled with automatic
    /// kernel formats, run sharded under delivery chaos: bitwise equal
    /// to `execute_mailbox`.
    #[test]
    fn sharded_matches_mailbox_under_chaos(
        (a, parts, k) in instance_strategy(14, 40, 4),
        xseed in 0u64..50,
        chaos_seed in 0u64..1_000,
    ) {
        let p = s2d_optimal(&a, &parts, &parts, k);
        let x = x_for(a.ncols(), xseed);
        for kind in PlanKind::all() {
            let plan = kind.build(&a, &p);
            let want = plan.execute_mailbox(&x);
            let cp = CompiledPlan::compile_with(&plan, KernelFormat::Auto);
            for seed in [chaos_seed, chaos_seed + 1] {
                let mut op = ShardedOperator::with_chaos(cp.clone(), ChaosConfig::with_delays(50, seed));
                let mut y = vec![f64::NAN; a.nrows()];
                op.apply(&x, &mut y);
                prop_assert_eq!(&y, &want, "{} chaos seed {}", kind, seed);
            }
        }
    }
}
