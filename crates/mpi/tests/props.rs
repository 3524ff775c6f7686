//! Property-based tests of the message-passing collectives.

use polar_mpi::{NetworkModel, Universe};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_matches_local_sum(
        ranks in 1usize..8,
        base in prop::collection::vec(-1e6..1e6f64, 1..40),
    ) {
        let base2 = base.clone();
        let out = Universe::run(ranks, NetworkModel::free(), move |c| {
            // Rank r contributes base scaled by (r+1).
            let mut v: Vec<f64> =
                base2.iter().map(|x| x * (c.rank() + 1) as f64).collect();
            let absent = c.ft_allreduce_sum(&mut v, "sum").expect("no faults armed");
            (v, absent)
        });
        // The rank-order sum from a zero accumulator, bit for bit.
        let mut expect = vec![0.0; base.len()];
        for r in 0..ranks {
            for (a, x) in expect.iter_mut().zip(&base) {
                *a += x * (r + 1) as f64;
            }
        }
        for (v, absent) in out {
            prop_assert!(absent.is_empty());
            prop_assert_eq!(&v, &expect);
        }
    }

    #[test]
    fn allgather_orders_by_rank(ranks in 1usize..8, len in 0usize..20) {
        let out = Universe::run(ranks, NetworkModel::free(), move |c| {
            let local = vec![c.rank() as f64; len];
            c.ft_allgather(&local, "gather").expect("no faults armed")
        });
        let mut expect = Vec::new();
        for r in 0..ranks {
            expect.extend(std::iter::repeat_n(r as f64, len));
        }
        for (per_rank, absent) in out {
            prop_assert!(absent.is_empty());
            prop_assert_eq!(per_rank.len(), ranks);
            prop_assert_eq!(&per_rank.concat(), &expect);
        }
    }

    #[test]
    fn scalar_allreduce_is_order_insensitive(ranks in 1usize..8, xs in prop::collection::vec(-100.0..100.0f64, 7)) {
        let xs2 = xs.clone();
        let out = Universe::run(ranks, NetworkModel::free(), move |c| {
            c.ft_allreduce_scalar(xs2[c.rank()], "sum").expect("no faults armed")
        });
        let expect = xs[..ranks].iter().fold(0.0, |acc, x| acc + x);
        for (v, absent) in out {
            prop_assert!(absent.is_empty());
            prop_assert_eq!(v, expect);
        }
    }

    #[test]
    fn collective_cost_model_is_monotone(
        bytes in 1usize..(1 << 22),
        p1 in 1usize..64,
        extra in 1usize..64,
    ) {
        let n = NetworkModel::lonestar4_infiniband();
        let p2 = p1 + extra;
        prop_assert!(n.allreduce(bytes, p2) >= n.allreduce(bytes, p1));
        prop_assert!(n.allgather(bytes, p2) >= n.allgather(bytes, p1));
        prop_assert!(n.allreduce(bytes + 1, p2) >= n.allreduce(bytes, p2));
    }
}
