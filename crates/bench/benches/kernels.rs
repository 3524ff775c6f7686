//! Criterion micro-benchmarks of the hot kernels.
//!
//! These complement the figure binaries: they measure the real wall-clock
//! of each stage on this host — octree construction (the pre-processing
//! cost the paper amortizes), the hierarchical vs naive Born/E_pol
//! kernels (the headline asymptotic win), surface generation, and the
//! approximate-math kernels, the five dispatched lane kernels on the
//! list shapes a real plan feeds them, and the hardware gather those
//! kernels do not use against the scalar loads they do.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polar_gb::born::octree::QDipole;
use polar_gb::kernels;
use polar_gb::{GbParams, GbSolver};
use polar_geom::{fastmath, MathMode};
use polar_molecule::generators;
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use std::hint::black_box;

fn bench_octree_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("octree_build");
    g.sample_size(20);
    for n in [1_000usize, 4_000, 16_000] {
        let mol = generators::globular("b", n, 7);
        let pos = mol.positions();
        g.bench_with_input(BenchmarkId::from_parameter(n), &pos, |b, pos| {
            b.iter(|| OctreeConfig::default().build(black_box(pos)));
        });
    }
    g.finish();
}

fn bench_surface(c: &mut Criterion) {
    let mut g = c.benchmark_group("surface_generation");
    g.sample_size(10);
    for n in [500usize, 2_000] {
        let mol = generators::globular("s", n, 11);
        g.bench_with_input(BenchmarkId::from_parameter(n), &mol, |b, mol| {
            b.iter(|| mol.surface(black_box(&SurfaceConfig::coarse())));
        });
    }
    g.finish();
}

fn bench_born(c: &mut Criterion) {
    let mut g = c.benchmark_group("born_radii");
    g.sample_size(10);
    for n in [500usize, 2_000] {
        let mol = generators::globular("born", n, 13);
        let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &Default::default());
        let params = GbParams::default();
        g.bench_with_input(BenchmarkId::new("octree_eps09", n), &solver, |b, s| {
            b.iter(|| s.born_radii(black_box(&params)));
        });
        g.bench_with_input(BenchmarkId::new("naive", n), &solver, |b, s| {
            b.iter(|| s.born_naive(black_box(&params)));
        });
    }
    g.finish();
}

fn bench_epol(c: &mut Criterion) {
    let mut g = c.benchmark_group("epol");
    g.sample_size(10);
    for n in [500usize, 2_000, 8_000] {
        let mol = generators::globular("epol", n, 17);
        let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &Default::default());
        let params = GbParams::default();
        let (born, _) = solver.born_radii(&params);
        g.bench_with_input(BenchmarkId::new("octree_eps09", n), &solver, |b, s| {
            b.iter(|| s.epol(black_box(&born), black_box(&params)));
        });
        if n <= 2_000 {
            g.bench_with_input(BenchmarkId::new("naive", n), &solver, |b, s| {
                b.iter(|| s.epol_naive(black_box(&born), black_box(&params)));
            });
        }
    }
    g.finish();
}

fn bench_fastmath(c: &mut Criterion) {
    let mut g = c.benchmark_group("fastmath");
    let xs: Vec<f64> = (1..1000).map(|i| i as f64 * 0.37 + 0.01).collect();
    g.bench_function("rsqrt_exact", |b| {
        b.iter(|| xs.iter().map(|&x| 1.0 / black_box(x).sqrt()).sum::<f64>())
    });
    g.bench_function("rsqrt_fast", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| fastmath::fast_rsqrt(black_box(x)))
                .sum::<f64>()
        })
    });
    g.bench_function("exp_exact", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| (-black_box(x) * 0.05).exp())
                .sum::<f64>()
        })
    });
    g.bench_function("exp_fast", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| fastmath::fast_exp(-black_box(x) * 0.05))
                .sum::<f64>()
        })
    });
    g.finish();
}

/// Uniform f64 columns from a fixed splitmix64 stream.
fn columns<const C: usize>(n: usize, lo: f64, hi: f64, seed: &mut u64) -> [Vec<f64>; C] {
    [(); C].map(|_| {
        (0..n)
            .map(|_| {
                *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = *seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                lo + (hi - lo) * ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    })
}

/// `len` distinct ids below `pool` (a prime), different per `group`.
fn id_list(group: usize, len: usize, pool: usize) -> impl Iterator<Item = u32> {
    (0..len).map(move |k| ((group * 131 + k * 37) % pool) as u32)
}

/// One block's window list in the plan's bucket order: `full` windows
/// that every leaf of the block meets in every lane, then windows met by
/// 7, 6, … 1 leaves (a run of leaves starting at a rotating position).
/// Ids are distinct within the block, as the plan's are.
fn block_windows(block: usize, windows: usize, full: usize, pool: usize) -> Vec<kernels::Window> {
    let mut ids = id_list(block, windows * kernels::LANE_WIDTH, pool);
    (0..windows)
        .map(|w| {
            let leaves = match w.checked_sub(full) {
                None => 0xffu8,
                Some(k) => {
                    let met = 7 - 7 * k / (windows - full);
                    (((1u16 << met) - 1) as u8).rotate_left(w as u32 % 8)
                }
            };
            kernels::Window {
                ids: [(); kernels::LANE_WIDTH].map(|_| ids.next().expect("ids for every lane")),
                by_leaf: core::array::from_fn(|l| if leaves >> l & 1 == 1 { 0xff } else { 0 }),
            }
        })
        .collect()
}

/// The lane kernels, one case each, on the shapes `InteractionPlan`
/// builds for the seed-47 2,500-atom globule (the `warm_rescore`
/// receptor): 22,235 q-leaves of ~3.2 q-points in 2,780 blocks of eight,
/// each block holding ~55 far windows over 1,212 `T_A` node ids (51 %
/// of them met by all eight leaves in all eight lanes, 75 % of all
/// (lane, leaf) bits set) and ~29 near windows over atom slots (35 %
/// full, 63 % of bits set); and 1,015 atom leaves of ~2.5 atoms with
/// ~361 near partners in five slot runs and ~88 far entries over
/// histogram rows of 1–2 nonzero bins. The shape decides the result: a near window's
/// set-up (three gathers, the accumulator gather and the scatter) is
/// shared by up to eight leaves of three q-points each, so with one
/// leaf per window, or 24 q-points per leaf, the kernels look nothing
/// like they do under the real plan.
fn bench_lane_kernels(c: &mut Criterion) {
    const ATOMS: usize = 2_503; // primes, so `id_list` ids are distinct
    const NODES: usize = 1_213;
    const BLOCKS: usize = 2_780;
    let mut g = c.benchmark_group("lane_kernels");
    g.sample_size(10);
    let mut seed = 47;
    let [x, y, z]: [Vec<f64>; 3] = columns(ATOMS, -20.0, 20.0, &mut seed);
    let [charge]: [Vec<f64>; 1] = columns(ATOMS, -0.8, 0.8, &mut seed);
    let [born]: [Vec<f64>; 1] = columns(ATOMS, 1.0, 4.0, &mut seed);
    let inv_born: Vec<f64> = born.iter().map(|r| 1.0 / r).collect();
    let xyz: [&[f64]; 3] = [&x, &y, &z];
    let atoms: [&[f64]; 6] = [&x, &y, &z, &charge, &born, &inv_born];

    let q_leaves = BLOCKS * kernels::QLEAF_BLOCK;
    let q_len = |leaf: usize| if leaf % 5 == 4 { 4 } else { 3 }; // mean 3.2
    let mut q_start = vec![0u32];
    for leaf in 0..q_leaves {
        q_start.push(q_start[leaf] + q_len(leaf));
    }
    let q: [Vec<f64>; 7] = columns(q_start[q_leaves] as usize, -21.0, 21.0, &mut seed);
    let q: [&[f64]; 7] = q.each_ref().map(|c| c.as_slice());
    // 80 k windows (3.2 MB).
    const NEAR: usize = 29;
    let near: Vec<kernels::Window> = (0..BLOCKS)
        .flat_map(|block| block_windows(block, NEAR, 10, ATOMS))
        .collect();
    let mut s_atom = vec![0.0; ATOMS];
    g.bench_function("born_near_blocks", |b| {
        b.iter(|| {
            for (block, windows) in near.chunks_exact(NEAR).enumerate() {
                let leaves = block * kernels::QLEAF_BLOCK..=(block + 1) * kernels::QLEAF_BLOCK;
                kernels::born_near_blocks(windows, 0, &q_start[leaves], xyz, q, &mut s_atom);
            }
            black_box(s_atom[0])
        })
    });

    // 153 k windows (6.1 MB): like the real list, past the L2.
    const FAR: usize = 55;
    let far: Vec<kernels::Window> = (0..BLOCKS)
        .flat_map(|block| block_windows(block, FAR, 28, NODES))
        .collect();
    let [nx, ny, nz]: [Vec<f64>; 3] = columns(NODES, 30.0, 60.0, &mut seed);
    let [cx, cy, cz]: [Vec<f64>; 3] = columns(q_leaves, -2.0, 2.0, &mut seed);
    let moments: Vec<kernels::QLeafMoments> = (0..q_leaves)
        .map(|leaf| kernels::QLeafMoments {
            center: [cx[leaf], cy[leaf], cz[leaf]],
            nsum: [0.3, -1.1, 0.7],
            dipole: QDipole {
                m: [0.4, -0.1, 0.2, 0.3, -0.5, 0.1, -0.2, 0.6, 0.3],
            },
        })
        .collect();
    let mut s_node = vec![0.0; NODES];
    g.bench_function("born_far_blocks", |b| {
        b.iter(|| {
            for (windows, leaves) in far
                .chunks_exact(FAR)
                .zip(moments.chunks_exact(kernels::QLEAF_BLOCK))
            {
                kernels::born_far_blocks(windows, 0, leaves, [&nx, &ny, &nz], &mut s_node);
            }
            black_box(s_node[0])
        })
    });

    // Atom leaves: slots 5·leaf/2 .. +2 or +3 (mean 2.5).
    let a_leaves = 1_000;
    let leaf_slots = |leaf: usize| 5 * leaf / 2..5 * (leaf + 1) / 2;
    // 361 partners per leaf as five runs of 17–131 slots; windows 16,
    // 18, 30 and 38 of the 46 straddle two runs.
    const RUNS: [u32; 5] = [131, 17, 96, 64, 53];
    let partners: Vec<kernels::Run> = (0..a_leaves)
        .flat_map(|leaf| {
            RUNS.iter().enumerate().map(move |(k, &len)| kernels::Run {
                start: ((leaf * 131 + k * 499) % (ATOMS - 131)) as u32,
                len,
            })
        })
        .collect();
    g.bench_function("epol_near_runs", |b| {
        b.iter(|| {
            let mut e = 0.0;
            for (leaf, runs) in partners.chunks_exact(RUNS.len()).enumerate() {
                e += kernels::epol_near_runs(runs, atoms, atoms.map(|c| &c[leaf_slots(leaf)]));
            }
            black_box(e)
        })
    });

    // Far rows: 88 far nodes of 1–2 real bins per leaf, laid end to end
    // as the execute layer lays them, against the leaf's own 1–2 bins.
    let (bq, br) = ([0.3, -0.2], [1.8, 2.9]);
    let bri = br.map(|r| 1.0 / r);
    let mut rows = kernels::FarRows::default();
    g.bench_function("epol_far_rows", |b| {
        b.iter(|| {
            let mut e = 0.0;
            for leaf in 0..a_leaves {
                rows.clear();
                for entry in 88 * leaf..88 * (leaf + 1) {
                    let nz = 1 + entry % 2;
                    let d_sq = 400.0 + (entry % 97) as f64;
                    rows.push_row(d_sq, [&bq[..nz], &br[..nz], &bri[..nz]]);
                }
                let nz = 1 + leaf % 2;
                e += kernels::epol_far_rows(&rows, [&bq[..nz], &br[..nz], &bri[..nz]]);
            }
            black_box(e)
        })
    });

    // Gradient near blocks: the leaf's atoms against its copied
    // partners, padded to a lane multiple as the execute layer pads them.
    let padded = 361usize.next_multiple_of(kernels::LANE_WIDTH);
    let [px, py, pz]: [Vec<f64>; 3] = columns(padded, -20.0, 20.0, &mut seed);
    let [pq]: [Vec<f64>; 1] = columns(padded, -0.8, 0.8, &mut seed);
    let [pr]: [Vec<f64>; 1] = columns(padded, 1.0, 4.0, &mut seed);
    let pri: Vec<f64> = pr.iter().map(|r| 1.0 / r).collect();
    let p: [&[f64]; 6] = [&px, &py, &pz, &pq, &pr, &pri];
    let mut grad = [vec![0.0; ATOMS], vec![0.0; ATOMS], vec![0.0; ATOMS]];
    g.bench_function("epol_grad_block", |b| {
        b.iter(|| {
            let mut suspects = 0;
            for leaf in 0..a_leaves {
                let r = leaf_slots(leaf);
                let out = grad.each_mut().map(|c| &mut c[r.clone()]);
                suspects += kernels::epol_grad_block(atoms.map(|c| &c[r.clone()]), p, 300.0, out);
            }
            black_box(suspects)
        })
    });
    g.finish();
}

/// Why no tier of `polar_gb::kernels` uses the hardware gather: one
/// window's four column gathers (the Born near kernel's x, y, z and
/// accumulator) over the 29-window near list of a block, as
/// `vgatherdpd zmm` and as the eight scalar loads `Simd::gather`
/// assembles (copied here — the trait is private), each after the id
/// range check both need; ns per iteration ÷ 29 is ns per window.
#[cfg(target_arch = "x86_64")]
fn bench_gather(c: &mut Criterion) {
    use std::arch::x86_64::*;
    if !std::arch::is_x86_feature_detected!("avx512f") {
        return;
    }
    const ATOMS: usize = 2_503;
    let mut seed = 47;
    let cols: [Vec<f64>; 4] = columns(ATOMS, -20.0, 20.0, &mut seed);
    let windows: Vec<[u32; 8]> = (0..29)
        .map(|w| {
            let mut ids = id_list(w, 8, ATOMS);
            [(); 8].map(|_| ids.next().expect("eight ids"))
        })
        .collect();

    #[target_feature(enable = "avx512f")]
    fn hardware(cols: &[Vec<f64>; 4], windows: &[[u32; 8]]) -> f64 {
        let mut acc = _mm512_setzero_pd();
        for ids in windows {
            assert!(ids.iter().all(|&i| (i as usize) < ATOMS));
            for col in cols {
                assert!(col.len() >= ATOMS);
                // SAFETY: every id is below `ATOMS ≤ col.len()`.
                let v = unsafe {
                    _mm512_i32gather_pd::<8>(_mm256_loadu_si256(ids.as_ptr().cast()), col.as_ptr())
                };
                acc = _mm512_add_pd(acc, v);
            }
        }
        _mm512_reduce_add_pd(acc)
    }

    #[target_feature(enable = "avx512f")]
    fn eight_loads(cols: &[Vec<f64>; 4], windows: &[[u32; 8]]) -> f64 {
        let mut acc = _mm512_setzero_pd();
        for ids in windows {
            assert!(ids.iter().all(|&i| (i as usize) < ATOMS));
            for col in cols {
                assert!(col.len() >= ATOMS);
                let mut lanes = [0.0; 8];
                for k in 0..8 {
                    lanes[k] = col[ids[k] as usize];
                }
                // SAFETY: `lanes` is eight readable f64s.
                acc = _mm512_add_pd(acc, unsafe { _mm512_loadu_pd(lanes.as_ptr()) });
            }
        }
        _mm512_reduce_add_pd(acc)
    }

    let mut g = c.benchmark_group("gather");
    g.sample_size(10);
    // SAFETY (both): avx512f was detected above.
    g.bench_function("vgatherdpd_zmm", |b| {
        b.iter(|| unsafe { hardware(black_box(&cols), black_box(&windows)) })
    });
    g.bench_function("eight_loads", |b| {
        b.iter(|| unsafe { eight_loads(black_box(&cols), black_box(&windows)) })
    });
    g.finish();
}

#[cfg(not(target_arch = "x86_64"))]
fn bench_gather(_: &mut Criterion) {}

fn bench_full_solve_math_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("solve_math_mode");
    g.sample_size(10);
    let mol = generators::globular("mm", 2_000, 23);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &Default::default());
    for math in [MathMode::Exact, MathMode::Approximate] {
        let params = GbParams {
            math,
            ..GbParams::default()
        };
        g.bench_function(math.label(), |b| {
            b.iter(|| solver.solve(black_box(&params)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_lane_kernels,
    bench_gather,
    bench_octree_build,
    bench_surface,
    bench_born,
    bench_epol,
    bench_fastmath,
    bench_full_solve_math_modes
);
criterion_main!(benches);
