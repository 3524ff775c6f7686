//! Property-based tests of octree construction invariants.

use polar_geom::transform::{RigidTransform, Rotation};
use polar_geom::Vec3;
use polar_octree::OctreeConfig;
use proptest::prelude::*;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (-50.0..50.0f64, -50.0..50.0f64, -50.0..50.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        1..max,
    )
}

/// Clustered clouds: points concentrated around a few seeds, which
/// stresses adaptive subdivision more than uniform clouds do.
fn arb_clustered() -> impl Strategy<Value = Vec<Vec3>> {
    (
        prop::collection::vec(
            (-40.0..40.0f64, -40.0..40.0f64, -40.0..40.0f64)
                .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            1..5,
        ),
        prop::collection::vec(
            (0usize..5, -1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64),
            1..120,
        ),
    )
        .prop_map(|(seeds, offsets)| {
            offsets
                .into_iter()
                .map(|(s, dx, dy, dz)| seeds[s % seeds.len()] + Vec3::new(dx, dy, dz))
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_for_uniform_clouds(
        pts in arb_points(200),
        leaf in 1usize..16,
    ) {
        let t = OctreeConfig { max_leaf_size: leaf, max_depth: 20 }.build(&pts);
        prop_assert_eq!(t.check_invariants(), Ok(()));
        prop_assert_eq!(t.len(), pts.len());
    }

    #[test]
    fn invariants_hold_for_clustered_clouds(pts in arb_clustered()) {
        let t = OctreeConfig { max_leaf_size: 4, max_depth: 20 }.build(&pts);
        prop_assert_eq!(t.check_invariants(), Ok(()));
    }

    #[test]
    fn duplicates_and_degenerate_clouds_are_safe(
        p in (-10.0..10.0f64, -10.0..10.0f64, -10.0..10.0f64),
        n in 1usize..64,
        depth in 2u8..12,
    ) {
        let pts = vec![Vec3::new(p.0, p.1, p.2); n];
        let t = OctreeConfig { max_leaf_size: 2, max_depth: depth }.build(&pts);
        prop_assert_eq!(t.check_invariants(), Ok(()));
        prop_assert!(t.depth() <= depth);
    }

    #[test]
    fn aggregate_sum_is_permutation_invariant(pts in arb_points(128)) {
        // Summing any payload over the root equals the plain sum.
        let t = OctreeConfig::default().build(&pts);
        let sums = t.aggregate(0.0_f64, |orig, _| orig as f64, |a, b| a + b);
        let expect: f64 = (0..pts.len()).map(|i| i as f64).sum();
        prop_assert!((sums[0] - expect).abs() < 1e-9);
    }

    #[test]
    fn leaves_partition_points_in_order(pts in arb_points(200)) {
        let t = OctreeConfig { max_leaf_size: 6, max_depth: 20 }.build(&pts);
        let mut cursor = 0u32;
        for &l in t.leaves() {
            let n = t.node(l);
            prop_assert_eq!(n.start, cursor);
            cursor = n.end;
        }
        prop_assert_eq!(cursor as usize, pts.len());
    }

    #[test]
    fn transform_commutes_with_build_geometry(
        pts in arb_points(100),
        angle in -3.0..3.0f64,
        tx in -20.0..20.0f64,
    ) {
        // Transforming the tree keeps every enclosing ball valid and all
        // ranges identical.
        let t = OctreeConfig::default().build(&pts);
        let xf = RigidTransform {
            rotation: Rotation::axis_angle(Vec3::new(1.0, 0.5, -0.2), angle),
            translation: Vec3::new(tx, -tx, 2.0 * tx),
        };
        let t2 = t.transformed(&xf);
        prop_assert_eq!(t2.node_count(), t.node_count());
        for (id, n) in t2.nodes().iter().enumerate() {
            for p in t2.points_in(id as u32) {
                prop_assert!(p.dist(n.center) <= n.radius + 1e-6);
            }
        }
    }

    #[test]
    fn memory_grows_linearly(pts in arb_points(200)) {
        let t = OctreeConfig::default().build(&pts);
        // Generous linear bound: < 2 KB per point for any cloud shape.
        prop_assert!(t.memory_bytes() <= 2048 * pts.len() + 4096);
    }
}

#[test]
fn order_is_a_bijection_on_large_random_cloud() {
    // One big deterministic cloud (seeded LCG) exercising deep trees.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 80.0
    };
    let pts: Vec<Vec3> = (0..5000)
        .map(|_| Vec3::new(next(), next(), next()))
        .collect();
    let t = OctreeConfig {
        max_leaf_size: 8,
        max_depth: 20,
    }
    .build(&pts);
    assert_eq!(t.check_invariants(), Ok(()));
    let mut seen = vec![false; pts.len()];
    for &o in t.order() {
        assert!(!seen[o as usize]);
        seen[o as usize] = true;
    }
    assert!(seen.iter().all(|&b| b));
}
