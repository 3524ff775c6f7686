//! Property-based tests for the geometry substrate.

use polar_geom::{aabb::Aabb, fastmath, morton, transform::*, vec3::Vec3};
use proptest::prelude::*;

fn arb_vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #[test]
    fn cross_product_is_orthogonal(a in arb_vec3(100.0), b in arb_vec3(100.0)) {
        let c = a.cross(b);
        let scale = a.norm() * b.norm();
        prop_assume!(scale > 1e-9);
        prop_assert!(c.dot(a).abs() <= 1e-9 * scale * a.norm());
        prop_assert!(c.dot(b).abs() <= 1e-9 * scale * b.norm());
    }

    #[test]
    fn triangle_inequality(a in arb_vec3(50.0), b in arb_vec3(50.0), c in arb_vec3(50.0)) {
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
    }

    #[test]
    fn aabb_from_points_contains_all(pts in prop::collection::vec(arb_vec3(200.0), 1..64)) {
        let b = Aabb::from_points(pts.iter().copied());
        for p in &pts {
            prop_assert!(b.contains(*p));
        }
    }

    #[test]
    fn aabb_octant_partition(pts in prop::collection::vec(arb_vec3(10.0), 1..32)) {
        // Pad like the octree builder does: cubified() rounds and can lose
        // extreme points by one ulp.
        let b = Aabb::from_points(pts.iter().copied()).cubified().padded(1e-6);
        for p in &pts {
            let i = b.octant_index(*p);
            prop_assert!(b.octant(i).contains(*p));
            // No other octant strictly contains it away from shared faces:
            // containment in the designated octant is all the octree needs.
        }
    }

    #[test]
    fn morton_roundtrip(x in 0u64..(1<<21), y in 0u64..(1<<21), z in 0u64..(1<<21)) {
        prop_assert_eq!(morton::decode(morton::encode(x, y, z)), (x, y, z));
    }

    #[test]
    fn morton_order_matches_octants(p in arb_vec3(100.0), q in arb_vec3(100.0)) {
        // If two points fall in different root octants, Morton order agrees
        // with octant index order.
        let b = Aabb::from_points([p, q]).cubified().padded(1e-9);
        let (cp, cq) = (morton::encode_point(p, &b), morton::encode_point(q, &b));
        let (op, oq) = (b.octant_index(p), b.octant_index(q));
        if op != oq {
            prop_assert_eq!(cp < cq, op < oq);
        }
    }

    #[test]
    fn rotations_preserve_norm(axis in arb_vec3(1.0), angle in -6.3..6.3f64, v in arb_vec3(100.0)) {
        prop_assume!(axis.norm() > 1e-6);
        let r = Rotation::axis_angle(axis, angle);
        prop_assert!((r.apply(v).norm() - v.norm()).abs() < 1e-7 * (1.0 + v.norm()));
        prop_assert!(r.orthonormality_error() < 1e-10);
    }

    #[test]
    fn transform_inverse_roundtrips(
        axis in arb_vec3(1.0), angle in -3.0..3.0f64,
        t in arb_vec3(50.0), p in arb_vec3(50.0),
    ) {
        prop_assume!(axis.norm() > 1e-6);
        let xf = RigidTransform {
            rotation: Rotation::axis_angle(axis, angle),
            translation: t,
        };
        let back = xf.inverse().apply_point(xf.apply_point(p));
        prop_assert!(back.dist(p) < 1e-8 * (1.0 + p.norm() + t.norm()));
    }

    #[test]
    fn rigid_transform_preserves_distances(
        axis in arb_vec3(1.0), angle in -3.0..3.0f64, t in arb_vec3(50.0),
        p in arb_vec3(50.0), q in arb_vec3(50.0),
    ) {
        prop_assume!(axis.norm() > 1e-6);
        let xf = RigidTransform { rotation: Rotation::axis_angle(axis, angle), translation: t };
        let d0 = p.dist(q);
        let d1 = xf.apply_point(p).dist(xf.apply_point(q));
        prop_assert!((d0 - d1).abs() < 1e-8 * (1.0 + d0));
    }

    #[test]
    fn fast_rsqrt_relative_error(x in 1e-6..1e9f64) {
        let e = (fastmath::fast_rsqrt(x) - 1.0 / x.sqrt()).abs() * x.sqrt();
        prop_assert!(e < 1e-4, "rel err {e} at {x}");
    }

    #[test]
    fn fast_exp_relative_error(x in -60.0..0.0f64) {
        let exact = x.exp();
        let e = ((fastmath::fast_exp(x) - exact) / exact).abs();
        prop_assert!(e < 0.05, "rel err {e} at {x}");
    }

    #[test]
    fn fast_inv_cbrt_relative_error(x in 1e-6..1e9f64) {
        let exact = 1.0 / x.cbrt();
        let e = ((fastmath::fast_inv_cbrt(x) - exact) / exact).abs();
        prop_assert!(e < 1e-4, "rel err {e} at {x}");
    }
}
