//! Octree construction: Morton sort + recursive range splitting.

use crate::tree::{NodeId, Octree, OctreeNode};
use polar_geom::{morton, Aabb, Vec3};

/// Construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OctreeConfig {
    /// Stop subdividing once a node holds at most this many points.
    pub max_leaf_size: usize,
    /// Hard depth cap (also bounded by the Morton resolution, 21 levels).
    pub max_depth: u8,
}

impl Default for OctreeConfig {
    fn default() -> Self {
        // Leaves of a few atoms keep the exact near-field O(leaf²) work
        // small while the tree stays shallow; matches the grain the
        // paper's leaf-segment work division wants.
        OctreeConfig {
            max_leaf_size: 8,
            max_depth: 20,
        }
    }
}

impl OctreeConfig {
    /// Build an octree over `positions`.
    ///
    /// Complexity: O(n log n) for the Morton sort plus O(n · depth) for
    /// the per-node centroid/radius scans — the paper's `O(M log M)`
    /// pre-processing step (§IV.C Step 1).
    ///
    /// ```
    /// use polar_geom::Vec3;
    /// use polar_octree::OctreeConfig;
    ///
    /// let points: Vec<Vec3> =
    ///     (0..100).map(|i| Vec3::new((i % 10) as f64, (i / 10) as f64, 0.0)).collect();
    /// let tree = OctreeConfig::default().build(&points);
    /// assert_eq!(tree.len(), 100);
    /// assert_eq!(tree.check_invariants(), Ok(()));
    /// // The leaves tile the Morton-ordered points.
    /// let covered: usize = tree.leaves().iter().map(|&l| tree.node(l).len()).sum();
    /// assert_eq!(covered, 100);
    /// ```
    pub fn build(&self, positions: &[Vec3]) -> Octree {
        assert!(self.max_leaf_size >= 1, "max_leaf_size must be ≥ 1");
        let n = positions.len();
        if n == 0 {
            return Octree {
                nodes: vec![],
                points: vec![],
                order: vec![],
                leaves: vec![],
                leaf_cells: vec![],
                leaf_drift: vec![],
            };
        }
        for p in positions {
            assert!(p.is_finite(), "non-finite point {p:?}");
        }
        let bounds = Aabb::from_points(positions.iter().copied())
            .cubified()
            // Pad so extreme points survive the grid quantization (and a
            // degenerate single-point cloud still gets a nonzero cell).
            .padded(1e-9 + 1e-12 * positions.len() as f64)
            .padded(1e-6);

        // Morton sort (unstable sort on (code, original index)).
        let mut keyed: Vec<(u64, u32)> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (morton::encode_point(p, &bounds), i as u32))
            .collect();
        keyed.sort_unstable();
        let order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();
        let codes: Vec<u64> = keyed.iter().map(|&(c, _)| c).collect();
        let points: Vec<Vec3> = order.iter().map(|&i| positions[i as usize]).collect();

        let max_depth = self.max_depth.min((morton::BITS_PER_AXIS - 1) as u8);
        let mut builder = Builder {
            cfg: *self,
            max_depth,
            codes,
            points,
            nodes: Vec::with_capacity(2 * n / self.max_leaf_size.max(1) + 8),
            leaves: Vec::new(),
            leaf_cells: Vec::new(),
        };
        builder.build_node(0, n as u32, bounds, 0);
        let Builder {
            nodes,
            leaves,
            leaf_cells,
            points,
            ..
        } = builder;
        let leaf_drift = vec![0.0; leaves.len()];
        let tree = Octree {
            nodes,
            points,
            order,
            leaves,
            leaf_cells,
            leaf_drift,
        };
        debug_assert_eq!(tree.check_invariants(), Ok(()));
        tree
    }
}

struct Builder {
    cfg: OctreeConfig,
    max_depth: u8,
    codes: Vec<u64>,
    points: Vec<Vec3>,
    nodes: Vec<OctreeNode>,
    leaves: Vec<NodeId>,
    leaf_cells: Vec<Aabb>,
}

impl Builder {
    /// Create the node spanning `[start, end)` (non-empty) in the cell
    /// `bounds`, then its subtree. Ids are DFS pre-order, so the node's
    /// `skip` is the node count once its last descendant is pushed.
    fn build_node(&mut self, start: u32, end: u32, bounds: Aabb, depth: u8) {
        debug_assert!(start < end);
        let id = self.nodes.len();
        let slice = &self.points[start as usize..end as usize];
        let center = slice.iter().copied().sum::<Vec3>() / slice.len() as f64;
        let radius = slice
            .iter()
            .map(|p| p.dist_sq(center))
            .fold(0.0_f64, f64::max)
            .sqrt();
        let count = end - start;
        let is_leaf = count as usize <= self.cfg.max_leaf_size || depth >= self.max_depth;
        self.nodes.push(OctreeNode {
            center,
            radius,
            start,
            end,
            skip: id as NodeId + 1,
            depth,
            is_leaf,
        });
        if is_leaf {
            self.leaves.push(id as NodeId);
            self.leaf_cells.push(bounds);
            return;
        }
        // The range is Morton-sorted, so each octant at this depth is a
        // contiguous sub-range, in octant order; find boundaries by
        // scanning octant keys.
        let level = u32::from(depth);
        let mut lo = start;
        while lo < end {
            let oct = morton::octant_at_level(self.codes[lo as usize], level);
            let mut hi = lo + 1;
            while hi < end && morton::octant_at_level(self.codes[hi as usize], level) == oct {
                hi += 1;
            }
            self.build_node(lo, hi, bounds.octant(oct), depth + 1);
            lo = hi;
        }
        self.nodes[id].skip = self.nodes.len() as NodeId;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n_side: usize, spacing: f64) -> Vec<Vec3> {
        let mut v = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    v.push(Vec3::new(i as f64, j as f64, k as f64) * spacing);
                }
            }
        }
        v
    }

    #[test]
    fn empty_input_builds_empty_tree() {
        let t = OctreeConfig::default().build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.check_invariants(), Ok(()));
    }

    #[test]
    fn single_point_is_a_leaf_root() {
        let t = OctreeConfig::default().build(&[Vec3::new(1.0, 2.0, 3.0)]);
        assert_eq!(t.node_count(), 1);
        assert!(t.node(Octree::ROOT).is_leaf);
        assert_eq!(t.points_in(Octree::ROOT), &[Vec3::new(1.0, 2.0, 3.0)]);
        assert_eq!(t.check_invariants(), Ok(()));
    }

    #[test]
    fn invariants_hold_on_grid() {
        let pts = grid_points(6, 1.7);
        let t = OctreeConfig {
            max_leaf_size: 4,
            max_depth: 20,
        }
        .build(&pts);
        assert_eq!(t.len(), 216);
        assert_eq!(t.check_invariants(), Ok(()));
        // Every leaf obeys the size bound (depth cap not hit on a grid).
        for &l in t.leaves() {
            assert!(t.node(l).len() <= 4);
        }
    }

    #[test]
    fn permutation_preserves_points() {
        let pts = grid_points(4, 2.0);
        let t = OctreeConfig::default().build(&pts);
        for (slot, &orig) in t.order().iter().enumerate() {
            assert_eq!(t.points()[slot], pts[orig as usize]);
        }
    }

    #[test]
    fn duplicate_points_hit_depth_cap_without_infinite_recursion() {
        let pts = vec![Vec3::splat(1.0); 40];
        let t = OctreeConfig {
            max_leaf_size: 2,
            max_depth: 6,
        }
        .build(&pts);
        assert_eq!(t.check_invariants(), Ok(()));
        assert!(t.depth() <= 6);
        assert_eq!(t.len(), 40);
    }

    #[test]
    fn node_count_is_linear_in_points() {
        // Octree property the paper leans on: space is O(n), independent
        // of any parameter.
        for n_side in [4, 6, 8] {
            let pts = grid_points(n_side, 1.5);
            let t = OctreeConfig::default().build(&pts);
            assert!(
                t.node_count() <= 3 * pts.len(),
                "{} nodes for {} points",
                t.node_count(),
                pts.len()
            );
        }
    }

    #[test]
    fn aggregate_count_matches_node_len() {
        let pts = grid_points(5, 1.0);
        let t = OctreeConfig {
            max_leaf_size: 3,
            max_depth: 20,
        }
        .build(&pts);
        let counts = t.aggregate(0usize, |_, _| 1usize, |a, b| a + b);
        for (id, node) in t.nodes().iter().enumerate() {
            assert_eq!(counts[id], node.len());
        }
    }

    #[test]
    fn aggregate_centroid_matches_node_center() {
        let pts = grid_points(4, 1.3);
        let t = OctreeConfig::default().build(&pts);
        let sums = t.aggregate(Vec3::ZERO, |_, p| p, |a, b| *a + *b);
        for (id, node) in t.nodes().iter().enumerate() {
            let c = sums[id] / node.len() as f64;
            assert!(c.dist(node.center) < 1e-9);
        }
    }

    #[test]
    fn transformed_tree_keeps_structure_and_radii() {
        use polar_geom::transform::{RigidTransform, Rotation};
        let pts = grid_points(4, 1.5);
        let t = OctreeConfig::default().build(&pts);
        let xf = RigidTransform {
            rotation: Rotation::axis_angle(Vec3::new(1.0, 2.0, 0.5), 0.9),
            translation: Vec3::new(10.0, -4.0, 2.0),
        };
        let t2 = t.transformed(&xf);
        assert_eq!(t2.node_count(), t.node_count());
        for (a, b) in t.nodes().iter().zip(t2.nodes()) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert!((a.radius - b.radius).abs() < 1e-12);
            assert!(b.center.dist(xf.apply_point(a.center)) < 1e-9);
        }
        // Enclosing-ball invariant still holds on transformed points.
        for (id, n) in t2.nodes().iter().enumerate() {
            for p in t2.points_in(id as NodeId) {
                assert!(p.dist(n.center) <= n.radius + 1e-9);
            }
        }
    }

    #[test]
    fn leaf_segments_tile_the_point_array() {
        let pts = grid_points(5, 1.1);
        let t = OctreeConfig {
            max_leaf_size: 6,
            max_depth: 20,
        }
        .build(&pts);
        let mut covered = 0usize;
        for &l in t.leaves() {
            covered += t.node(l).len();
        }
        assert_eq!(covered, pts.len());
    }

    #[test]
    fn memory_is_independent_of_hypothetical_cutoff() {
        // Trivially true by construction, but assert the accounting API:
        // two trees over the same points report the same footprint
        // regardless of how they'll later be queried.
        let pts = grid_points(5, 1.0);
        let t = OctreeConfig::default().build(&pts);
        assert!(t.memory_bytes() > 0);
        let per_point = t.memory_bytes() as f64 / pts.len() as f64;
        assert!(per_point < 1500.0, "octree too heavy: {per_point} B/pt");
    }

    #[test]
    fn refresh_accepts_small_motion_and_keeps_invariants() {
        let pts = grid_points(5, 2.0);
        let mut t = OctreeConfig {
            max_leaf_size: 4,
            max_depth: 20,
        }
        .build(&pts);
        let before = t.node(Octree::ROOT).center;
        // Jitter every point by < 0.3 A with 0.5 A slack.
        let moved: Vec<Vec3> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| *p + Vec3::new(0.2, -0.25, 0.1) * ((i % 3) as f64 / 2.0))
            .collect();
        t.refresh_delta(&moved, 0.5, 0.0)
            .expect("refresh should succeed");
        assert_eq!(t.check_invariants(), Ok(()));
        // Points updated through the permutation.
        for (slot, &orig) in t.order().iter().enumerate() {
            assert_eq!(t.points()[slot], moved[orig as usize]);
        }
        // Centroid moved with the points.
        assert!(t.node(Octree::ROOT).center.dist(before) > 0.0);
    }

    #[test]
    fn refresh_rejects_escaped_points_and_leaves_tree_untouched() {
        let pts = grid_points(4, 2.0);
        let mut t = OctreeConfig {
            max_leaf_size: 2,
            max_depth: 20,
        }
        .build(&pts);
        let snapshot = t.clone();
        let mut moved = pts.clone();
        moved[7] += Vec3::splat(50.0); // far outside its leaf cell
        let err = t.refresh_delta(&moved, 0.25, 0.0).unwrap_err();
        assert!(err >= 1);
        assert_eq!(t.points(), snapshot.points());
        assert_eq!(
            t.node(Octree::ROOT).center,
            snapshot.node(Octree::ROOT).center
        );
    }

    #[test]
    fn refresh_slack_acts_like_a_verlet_skin() {
        let pts = grid_points(4, 2.0);
        let mut t = OctreeConfig {
            max_leaf_size: 2,
            max_depth: 20,
        }
        .build(&pts);
        let moved: Vec<Vec3> = pts.iter().map(|p| *p + Vec3::splat(0.6)).collect();
        // Tight slack rejects, generous slack accepts.
        assert!(t.refresh_delta(&moved, 0.0, 0.0).is_err());
        assert!(t.refresh_delta(&moved, 1.0, 0.0).is_ok());
    }

    #[test]
    fn preorder_ids_survive_build_refresh_and_transform() {
        use polar_geom::transform::{RigidTransform, Rotation};
        let small = OctreeConfig {
            max_leaf_size: 2,
            max_depth: 20,
        };
        let capped = OctreeConfig {
            max_leaf_size: 1,
            max_depth: 2,
        };
        let xf = RigidTransform {
            rotation: Rotation::axis_angle(Vec3::new(0.3, 1.0, -0.4), 0.7),
            translation: Vec3::new(-3.0, 8.0, 1.5),
        };
        let cases = [
            ("grid", small, grid_points(5, 1.9)),
            ("single leaf", OctreeConfig::default(), grid_points(2, 1.0)),
            ("depth-capped", capped, grid_points(5, 0.4)),
        ];
        for (what, cfg, pts) in cases {
            let mut t = cfg.build(&pts);
            assert_eq!(t.check_invariants(), Ok(()), "{what}: build");
            assert_eq!(t.node_count() == 1, what == "single leaf");
            let over_full = |&l: &NodeId| t.node(l).len() > cfg.max_leaf_size;
            assert_eq!(t.leaves().iter().any(over_full), what == "depth-capped");
            assert_eq!(t.transformed(&xf).check_invariants(), Ok(()), "{what}");
            let nudged: Vec<Vec3> = pts
                .iter()
                .enumerate()
                .map(|(i, p)| *p + Vec3::new(0.05, -0.04, 0.03) * (i % 4) as f64)
                .collect();
            t.refresh_delta(&nudged, 0.5, 0.0)
                .expect("nudge stays inside the slack");
            assert_eq!(t.check_invariants(), Ok(()), "{what}: refresh");
            let back = t
                .refresh_delta(&pts, 0.5, 0.1)
                .expect("so does the way back");
            assert!(back.max_point_disp > 0.0);
            assert_eq!(t.check_invariants(), Ok(()), "{what}: refresh_delta");
        }
    }

    #[test]
    fn check_invariants_rejects_ids_that_are_not_preorder() {
        let t = OctreeConfig {
            max_leaf_size: 2,
            max_depth: 20,
        }
        .build(&grid_points(4, 2.0));
        let kids: Vec<NodeId> = t.children(Octree::ROOT).collect();
        assert!(kids.len() >= 3, "{kids:?}");
        let (first, second) = (kids[0] as usize, kids[1] as usize);
        assert!(!t.nodes[first].is_leaf);

        // A sibling chain that jumps over the second child's subtree:
        // every link still points forward, but the root's children no
        // longer tile its range.
        let mut jumped = t.clone();
        jumped.nodes[first].skip = t.nodes[second].skip;
        let err = jumped.check_invariants().unwrap_err();
        assert!(err.contains("node 0: children not contiguous"), "{err}");

        // A link pointing backwards would send a chain round in a loop.
        let mut looped = t.clone();
        looped.nodes[second].skip = first as NodeId;
        let err = looped.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("node {second}: skip {first}")),
            "{err}"
        );
    }

    #[test]
    #[should_panic]
    fn refresh_with_wrong_count_panics() {
        let pts = grid_points(3, 1.0);
        let mut t = OctreeConfig::default().build(&pts);
        let _ = t.refresh_delta(&pts[..5], 0.1, 0.0);
    }

    #[test]
    #[should_panic]
    fn non_finite_points_are_rejected() {
        let _ = OctreeConfig::default().build(&[Vec3::new(f64::NAN, 0.0, 0.0)]);
    }

    #[test]
    #[should_panic]
    fn zero_leaf_size_is_rejected() {
        let _ = OctreeConfig {
            max_leaf_size: 0,
            max_depth: 5,
        }
        .build(&[Vec3::ZERO]);
    }
}
