//! A uniform spatial grid ("cell list") over points.
//!
//! Cells have edge ≥ the query radius, so a radius query only inspects the
//! 27 cells around the query point. Storage is the standard compact
//! bucket layout (counting sort): one flat index array plus per-cell
//! offsets — O(n + cells) memory, cache-friendly iteration.

use polar_geom::{Aabb, Vec3};

/// A uniform grid over a fixed point set.
#[derive(Debug, Clone)]
pub struct CellGrid {
    bounds: Aabb,
    cell: f64,
    dims: [usize; 3],
    /// Point indices, grouped by cell (counting-sorted).
    entries: Vec<u32>,
    /// Per-cell start offsets into `entries` (len = ncells + 1).
    offsets: Vec<u32>,
}

impl CellGrid {
    /// Build a grid with cell edge ≥ `cell_size` covering `points`.
    pub fn build(points: &[Vec3], cell_size: f64) -> CellGrid {
        assert!(cell_size > 0.0, "cell size must be positive");
        let bounds = Aabb::from_points(points.iter().copied()).padded(1e-9);
        if points.is_empty() {
            return CellGrid {
                bounds,
                cell: cell_size,
                dims: [1, 1, 1],
                entries: vec![],
                offsets: vec![0, 0],
            };
        }
        let ext = bounds.extent();
        let dims = [
            ((ext.x / cell_size).floor() as usize + 1).max(1),
            ((ext.y / cell_size).floor() as usize + 1).max(1),
            ((ext.z / cell_size).floor() as usize + 1).max(1),
        ];
        let ncells = dims[0] * dims[1] * dims[2];
        let mut counts = vec![0u32; ncells + 1];
        let cell_of = |p: Vec3| -> usize {
            let ix = (((p.x - bounds.min.x) / cell_size) as usize).min(dims[0] - 1);
            let iy = (((p.y - bounds.min.y) / cell_size) as usize).min(dims[1] - 1);
            let iz = (((p.z - bounds.min.z) / cell_size) as usize).min(dims[2] - 1);
            (iz * dims[1] + iy) * dims[0] + ix
        };
        for &p in points {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = offsets.clone();
        let mut entries = vec![0u32; points.len()];
        for (i, &p) in points.iter().enumerate() {
            let c = cell_of(p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        CellGrid {
            bounds,
            cell: cell_size,
            dims,
            entries,
            offsets,
        }
    }

    /// Visit the indices of all points in the 27 cells around `p`
    /// (a superset of the points within `cell_size` of `p`).
    pub fn for_each_candidate<F: FnMut(u32)>(&self, p: Vec3, mut f: F) {
        if self.entries.is_empty() {
            return;
        }
        let coord = |v: f64, lo: f64, dim: usize| -> isize {
            (((v - lo) / self.cell) as isize).clamp(0, dim as isize - 1)
        };
        let cx = coord(p.x, self.bounds.min.x, self.dims[0]);
        let cy = coord(p.y, self.bounds.min.y, self.dims[1]);
        let cz = coord(p.z, self.bounds.min.z, self.dims[2]);
        for dz in -1..=1 {
            let z = cz + dz;
            if z < 0 || z >= self.dims[2] as isize {
                continue;
            }
            for dy in -1..=1 {
                let y = cy + dy;
                if y < 0 || y >= self.dims[1] as isize {
                    continue;
                }
                for dx in -1..=1 {
                    let x = cx + dx;
                    if x < 0 || x >= self.dims[0] as isize {
                        continue;
                    }
                    let c = (z as usize * self.dims[1] + y as usize) * self.dims[0] + x as usize;
                    for &e in &self.entries[self.offsets[c] as usize..self.offsets[c + 1] as usize]
                    {
                        f(e);
                    }
                }
            }
        }
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * 4 + self.offsets.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_neighbors(points: &[Vec3], p: Vec3, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, q)| q.dist(p) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_grid_yields_no_candidates() {
        let g = CellGrid::build(&[], 1.0);
        let mut n = 0;
        g.for_each_candidate(Vec3::ZERO, |_| n += 1);
        assert_eq!(n, 0);
        assert_eq!(g.dims, [1, 1, 1]);
    }

    #[test]
    fn candidates_superset_of_true_neighbors() {
        let pts: Vec<Vec3> = (0..200)
            .map(|i| {
                let f = i as f64;
                Vec3::new(
                    (f * 0.37).sin() * 12.0,
                    (f * 0.61).cos() * 12.0,
                    (f * 0.13).sin() * 12.0,
                )
            })
            .collect();
        let r = 2.5;
        let g = CellGrid::build(&pts, r);
        for probe in [Vec3::ZERO, Vec3::new(5.0, -3.0, 2.0), pts[17]] {
            let mut cand = Vec::new();
            g.for_each_candidate(probe, |i| cand.push(i));
            cand.sort_unstable();
            for n in brute_neighbors(&pts, probe, r) {
                assert!(cand.binary_search(&n).is_ok(), "missing neighbor {n}");
            }
        }
    }

    #[test]
    fn every_point_is_its_own_candidate() {
        let pts: Vec<Vec3> = (0..50).map(|i| Vec3::splat(i as f64 * 0.9)).collect();
        let g = CellGrid::build(&pts, 2.0);
        for (i, &p) in pts.iter().enumerate() {
            let mut found = false;
            g.for_each_candidate(p, |j| found |= j == i as u32);
            assert!(found, "point {i} not in its own cell walk");
        }
    }

    #[test]
    fn all_entries_counted_once() {
        let pts: Vec<Vec3> = (0..100)
            .map(|i| Vec3::new(i as f64 % 10.0, (i / 10) as f64, 0.0))
            .collect();
        let g = CellGrid::build(&pts, 3.0);
        assert_eq!(g.entries.len(), 100);
        assert_eq!(*g.offsets.last().unwrap(), 100);
    }

    #[test]
    #[should_panic]
    fn zero_cell_size_rejected() {
        let _ = CellGrid::build(&[Vec3::ZERO], 0.0);
    }
}
