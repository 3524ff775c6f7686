//! Even work partitioning — the paper's *explicit static load balancing*.
//!
//! "Work is divided evenly among processes. The i-th process computes the
//! Born radii and E_pol for the i-th segment of atoms and leaf nodes,
//! respectively" (§IV.A). These helpers produce those segments.

use std::ops::Range;

/// Split `0..n` into `parts` contiguous ranges whose lengths differ by at
/// most one (first `n % parts` ranges get the extra element). Empty ranges
/// appear when `parts > n`; `parts == 0` yields no segments at all (an
/// empty split), so degenerate partition requests never panic a worker.
pub fn even_segments(n: usize, parts: usize) -> Vec<Range<usize>> {
    if parts == 0 {
        return Vec::new();
    }
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert!(
        segments_tile(&out, n),
        "even_segments({n}, {parts}) does not tile 0..{n}: {out:?}"
    );
    out
}

/// Do `segs` exactly tile `0..n` — contiguous, in order, no gaps or
/// overlaps? The fault-recovery driver leans on this invariant when it
/// re-divides a dead rank's segment among survivors.
pub fn segments_tile(segs: &[Range<usize>], n: usize) -> bool {
    let mut cursor = 0;
    for s in segs {
        if s.start != cursor || s.end < s.start {
            return false;
        }
        cursor = s.end;
    }
    cursor == n
}

/// Split `0..n` into `parts` ranges balanced by per-item weights: a greedy
/// prefix scan targeting equal weight per part. The cluster simulator's
/// weight-even division policy (`abl_load_balancing`) divides with it.
pub fn weighted_segments(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    if parts == 0 {
        return Vec::new();
    }
    let n = weights.len();
    let total: u64 = weights.iter().sum();
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut consumed = 0u64;
    for i in 0..parts {
        let remaining_parts = (parts - i) as u64;
        let target = (total - consumed).div_ceil(remaining_parts);
        let mut end = start;
        while end < n && (acc < target || (parts - i - 1) >= n - end) {
            // Second clause guarantees no later part is forced empty while
            // items remain (each remaining part can still get ≥ 1 item).
            acc += weights[end];
            end += 1;
            if n - end < parts - i {
                break;
            }
        }
        consumed += acc;
        acc = 0;
        out.push(start..end);
        start = end;
    }
    // Any leftover items (possible when parts == 1 path exits early) go to
    // the last segment.
    if start < n {
        let last = out.last_mut().unwrap();
        *last = last.start..n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_segments_cover_everything_in_order() {
        for (n, p) in [(10, 3), (7, 7), (3, 5), (0, 4), (100, 1)] {
            let segs = even_segments(n, p);
            assert_eq!(segs.len(), p);
            let mut cursor = 0;
            for s in &segs {
                assert_eq!(s.start, cursor);
                cursor = s.end;
            }
            assert_eq!(cursor, n);
            // Balanced to within one element.
            let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
            let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn weighted_segments_cover_and_balance() {
        let w: Vec<u64> = (0..20).map(|i| (i % 5 + 1) as u64 * 10).collect();
        let segs = weighted_segments(&w, 4);
        assert_eq!(segs.len(), 4);
        let mut cursor = 0;
        for s in &segs {
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        assert_eq!(cursor, w.len());
        let total: u64 = w.iter().sum();
        for s in &segs {
            let part: u64 = w[s.clone()].iter().sum();
            // No part exceeds twice the fair share on this input.
            assert!(part <= total / 2, "part {part} of {total}");
        }
    }

    #[test]
    fn weighted_segments_handle_extremes() {
        // One giant item: it must land somewhere, rest split.
        let w = [1u64, 1, 1_000_000, 1, 1];
        let segs = weighted_segments(&w, 3);
        assert_eq!(segs.iter().map(|s| s.len()).sum::<usize>(), 5);
        // Empty input.
        let segs = weighted_segments(&[], 3);
        assert!(segs.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn zero_parts_yield_empty_split_instead_of_panicking() {
        // Regression: a degenerate request (no workers / no ranks left)
        // must produce an empty split, not panic mid-batch.
        assert!(even_segments(4, 0).is_empty());
        assert!(even_segments(0, 0).is_empty());
        assert!(weighted_segments(&[1, 2, 3], 0).is_empty());
        assert!(weighted_segments(&[], 0).is_empty());
    }

    #[test]
    fn zero_items_yield_all_empty_segments() {
        // Regression: n = 0 with live workers must hand every worker a
        // well-formed empty range.
        for parts in [1, 2, 9] {
            let segs = even_segments(0, parts);
            assert_eq!(segs.len(), parts);
            assert!(segs.iter().all(|s| s.is_empty()));
            assert!(segments_tile(&segs, 0));

            let segs = weighted_segments(&[], parts);
            assert!(segs.iter().all(|s| s.is_empty()));
        }
    }

    #[test]
    fn more_parts_than_items_yield_valid_empty_trailing_segments() {
        // Regression: P ranks over n < P items must give every rank a
        // well-formed (possibly empty) range — the recovery driver
        // re-divides tiny lost segments over many survivors.
        for (n, parts) in [(0, 1), (0, 7), (1, 8), (3, 5), (5, 64)] {
            let segs = even_segments(n, parts);
            assert_eq!(segs.len(), parts);
            assert!(segments_tile(&segs, n), "{n}/{parts}: {segs:?}");
            // The first n segments hold one item each; the rest are empty.
            for (i, s) in segs.iter().enumerate() {
                assert!(s.end >= s.start, "inverted range {s:?}");
                if i >= n {
                    assert!(s.is_empty(), "segment {i} of {n}/{parts} not empty");
                }
                // Empty ranges still index validly into a slice of len n.
                assert!(s.end <= n);
            }
        }
    }

    #[test]
    fn segments_tile_detects_gaps_overlaps_and_shortfalls() {
        assert!(segments_tile(&[0..2, 2..5], 5));
        assert!(segments_tile(&[], 0));
        assert!(!segments_tile(&[0..2, 3..5], 5), "gap");
        assert!(!segments_tile(&[0..3, 2..5], 5), "overlap");
        assert!(!segments_tile(&[0..2, 2..4], 5), "shortfall");
        assert!(!segments_tile(&[1..2, 2..5], 5), "late start");
    }
}
