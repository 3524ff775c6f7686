//! Axis-aligned bounding boxes.
//!
//! Octree construction subdivides a cubic AABB into eight octants; the
//! surface tessellator uses AABBs to size its culling grid.

use crate::vec3::Vec3;

/// An axis-aligned box, stored as inclusive min/max corners.
///
/// An "empty" box has `min > max` component-wise; it is the identity for
/// [`Aabb::union`] and grows correctly under [`Aabb::expand_to`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// The empty box (identity element for union).
    pub const EMPTY: Aabb = Aabb {
        min: Vec3 {
            x: f64::INFINITY,
            y: f64::INFINITY,
            z: f64::INFINITY,
        },
        max: Vec3 {
            x: f64::NEG_INFINITY,
            y: f64::NEG_INFINITY,
            z: f64::NEG_INFINITY,
        },
    };

    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        Aabb { min, max }
    }

    /// Smallest box containing every point in the iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(pts: I) -> Self {
        let mut b = Aabb::EMPTY;
        for p in pts {
            b.expand_to(p);
        }
        b
    }

    /// True if no point is contained (min exceeds max on some axis).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Grow (in place) to contain `p`.
    #[inline]
    pub fn expand_to(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Grow every face outward by `pad`.
    #[inline]
    pub fn padded(&self, pad: f64) -> Aabb {
        Aabb::new(self.min - Vec3::splat(pad), self.max + Vec3::splat(pad))
    }

    /// Smallest box containing both operands.
    #[inline]
    pub fn union(&self, o: &Aabb) -> Aabb {
        Aabb::new(self.min.min(o.min), self.max.max(o.max))
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths along each axis.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Longest edge length.
    #[inline]
    pub fn longest_edge(&self) -> f64 {
        self.extent().max_component()
    }

    /// Half the diagonal — the radius of the circumscribed sphere.
    #[inline]
    pub fn circumradius(&self) -> f64 {
        self.extent().norm() * 0.5
    }

    /// Inclusive containment test.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The smallest *cube* with the same center that contains this box.
    /// Octrees are built over cubes so that all eight octants are congruent.
    pub fn cubified(&self) -> Aabb {
        let c = self.center();
        let h = self.longest_edge() * 0.5;
        Aabb::new(c - Vec3::splat(h), c + Vec3::splat(h))
    }

    /// Which of the eight octants of this box's center does `p` fall in?
    ///
    /// Bit 0 = x ≥ center.x, bit 1 = y ≥ center.y, bit 2 = z ≥ center.z —
    /// the same convention [`Aabb::octant`] uses to build child boxes, so
    /// `octant(octant_index(p)).contains(p)` always holds for contained `p`.
    #[inline]
    pub fn octant_index(&self, p: Vec3) -> usize {
        let c = self.center();
        (usize::from(p.x >= c.x)) | (usize::from(p.y >= c.y) << 1) | (usize::from(p.z >= c.z) << 2)
    }

    /// The child box for octant `i` (see [`Aabb::octant_index`]).
    pub fn octant(&self, i: usize) -> Aabb {
        debug_assert!(i < 8);
        let c = self.center();
        let (lo, hi) = (self.min, self.max);
        let min = Vec3::new(
            if i & 1 == 0 { lo.x } else { c.x },
            if i & 2 == 0 { lo.y } else { c.y },
            if i & 4 == 0 { lo.z } else { c.z },
        );
        let max = Vec3::new(
            if i & 1 == 0 { c.x } else { hi.x },
            if i & 2 == 0 { c.y } else { hi.y },
            if i & 4 == 0 { c.z } else { hi.z },
        );
        Aabb::new(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_behaviour() {
        assert!(Aabb::EMPTY.is_empty());
        let b = Aabb::EMPTY.union(&Aabb::new(Vec3::ZERO, Vec3::ONE));
        assert_eq!(b, Aabb::new(Vec3::ZERO, Vec3::ONE));
        assert!(!b.is_empty());
    }

    #[test]
    fn from_points_bounds_everything() {
        let pts = [
            Vec3::new(1.0, -2.0, 0.5),
            Vec3::new(-3.0, 4.0, 2.0),
            Vec3::new(0.0, 0.0, -7.0),
        ];
        let b = Aabb::from_points(pts);
        for p in pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Vec3::new(-3.0, -2.0, -7.0));
        assert_eq!(b.max, Vec3::new(1.0, 4.0, 2.0));
    }

    #[test]
    fn octants_partition_the_cube() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        // Every octant has half the edge length and the union recovers b.
        let mut u = Aabb::EMPTY;
        for i in 0..8 {
            let o = b.octant(i);
            assert_eq!(o.extent(), Vec3::ONE);
            u = u.union(&o);
        }
        assert_eq!(u, b);
    }

    #[test]
    fn octant_index_matches_octant_boxes() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(4.0));
        let probes = [
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(3.5, 0.5, 0.5),
            Vec3::new(0.5, 3.5, 0.5),
            Vec3::new(3.5, 3.5, 3.5),
            Vec3::new(2.0, 2.0, 2.0), // exactly at center → highest octant
        ];
        for p in probes {
            let i = b.octant_index(p);
            assert!(b.octant(i).contains(p), "octant {i} must contain {p:?}");
        }
    }

    #[test]
    fn cubified_is_cube_and_contains_original() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 4.0, 2.0));
        let c = b.cubified();
        let e = c.extent();
        assert!((e.x - e.y).abs() < 1e-12 && (e.y - e.z).abs() < 1e-12);
        assert!(c.contains(b.min) && c.contains(b.max));
        assert_eq!(c.center(), b.center());
    }

    #[test]
    fn padded_grows_every_face() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE).padded(0.5);
        assert_eq!(b.min, Vec3::splat(-0.5));
        assert_eq!(b.max, Vec3::splat(1.5));
    }

    #[test]
    fn circumradius_is_half_diagonal() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0));
        assert_eq!(b.circumradius(), 1.0);
        let cube = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        assert!((cube.circumradius() - 3f64.sqrt()).abs() < 1e-12);
    }
}
