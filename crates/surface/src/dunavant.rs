//! Dunavant symmetric Gaussian quadrature rules for triangles.
//!
//! D. A. Dunavant, "High degree efficient symmetrical Gaussian quadrature
//! rules for the triangle", IJNME 21(6):1129–1148, 1985 — reference \[11\]
//! of the paper. A rule of degree *d* integrates every bivariate polynomial
//! of total degree ≤ *d* exactly over a triangle.
//!
//! Points are stored in barycentric (area) coordinates; weights are
//! normalized to sum to 1, so a physical quadrature weight is
//! `w_k · area(triangle)`.

/// One quadrature point in barycentric coordinates plus its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaryPoint {
    /// Barycentric coordinates (sum to 1).
    pub bary: [f64; 3],
    /// Normalized weight (rule weights sum to 1).
    pub weight: f64,
}

/// A Dunavant rule: a set of barycentric points and weights.
#[derive(Debug, Clone, PartialEq)]
pub struct DunavantRule {
    /// Polynomial degree integrated exactly.
    pub degree: u32,
    pub points: Vec<BaryPoint>,
}

/// Orbit generators for the symmetric rules.
enum Orbit {
    /// The centroid (1 point).
    Centroid(f64),
    /// (a, b, b) and its 3 permutations, with a + 2b = 1.
    Sym3 { a: f64, weight: f64 },
    /// (a, b, c) and its 6 permutations, with a + b + c = 1.
    Sym6 { a: f64, b: f64, weight: f64 },
}

fn expand(orbits: &[Orbit]) -> Vec<BaryPoint> {
    let mut pts = Vec::new();
    for o in orbits {
        match *o {
            Orbit::Centroid(w) => {
                let t = 1.0 / 3.0;
                pts.push(BaryPoint {
                    bary: [t, t, t],
                    weight: w,
                });
            }
            Orbit::Sym3 { a, weight } => {
                let b = (1.0 - a) / 2.0;
                for bary in [[a, b, b], [b, a, b], [b, b, a]] {
                    pts.push(BaryPoint { bary, weight });
                }
            }
            Orbit::Sym6 { a, b, weight } => {
                let c = 1.0 - a - b;
                for bary in [
                    [a, b, c],
                    [a, c, b],
                    [b, a, c],
                    [b, c, a],
                    [c, a, b],
                    [c, b, a],
                ] {
                    pts.push(BaryPoint { bary, weight });
                }
            }
        }
    }
    pts
}

impl DunavantRule {
    /// The Dunavant rule of the given `degree` (1–7 supported).
    ///
    /// Degrees outside the table clamp to the nearest supported rule; the
    /// paper uses "a constant number of quadrature points per triangle …
    /// for high accuracy", typically a mid-degree rule.
    pub fn of_degree(degree: u32) -> DunavantRule {
        let degree = degree.clamp(1, 7);
        let orbits: Vec<Orbit> = match degree {
            1 => vec![Orbit::Centroid(1.0)],
            2 => vec![Orbit::Sym3 {
                a: 2.0 / 3.0,
                weight: 1.0 / 3.0,
            }],
            3 => vec![
                Orbit::Centroid(-0.562_5),
                Orbit::Sym3 {
                    a: 0.6,
                    weight: 0.520_833_333_333_333_3,
                },
            ],
            4 => vec![
                Orbit::Sym3 {
                    a: 0.108_103_018_168_070,
                    weight: 0.223_381_589_678_011,
                },
                Orbit::Sym3 {
                    a: 0.816_847_572_980_459,
                    weight: 0.109_951_743_655_322,
                },
            ],
            5 => vec![
                Orbit::Centroid(0.225),
                Orbit::Sym3 {
                    a: 0.059_715_871_789_770,
                    weight: 0.132_394_152_788_506,
                },
                Orbit::Sym3 {
                    a: 0.797_426_985_353_087,
                    weight: 0.125_939_180_544_827,
                },
            ],
            6 => vec![
                Orbit::Sym3 {
                    a: 0.501_426_509_658_179,
                    weight: 0.116_786_275_726_379,
                },
                Orbit::Sym3 {
                    a: 0.873_821_971_016_996,
                    weight: 0.050_844_906_370_207,
                },
                Orbit::Sym6 {
                    a: 0.053_145_049_844_816,
                    b: 0.310_352_451_033_785,
                    weight: 0.082_851_075_618_374,
                },
            ],
            7 => vec![
                Orbit::Centroid(-0.149_570_044_467_670),
                Orbit::Sym3 {
                    a: 0.479_308_067_841_923,
                    weight: 0.175_615_257_433_204,
                },
                Orbit::Sym3 {
                    a: 0.869_739_794_195_568,
                    weight: 0.053_347_235_608_839,
                },
                Orbit::Sym6 {
                    a: 0.638_444_188_569_809,
                    b: 0.312_865_496_004_875,
                    weight: 0.077_113_760_890_257,
                },
            ],
            _ => unreachable!(),
        };
        DunavantRule {
            degree,
            points: expand(&orbits),
        }
    }

    /// Number of quadrature points per triangle.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Integrate `f` over the reference triangle with vertices
    /// (0,0), (1,0), (0,1): the reference the rule tests check against.
    #[cfg(test)]
    pub fn integrate_reference<F: Fn(f64, f64) -> f64>(&self, f: F) -> f64 {
        // Reference-triangle area is 1/2; bary = (1−x−y, x, y).
        let mut acc = 0.0;
        for p in &self.points {
            let x = p.bary[1];
            let y = p.bary[2];
            acc += p.weight * f(x, y);
        }
        acc * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact ∫∫_T x^m y^n dx dy over the reference triangle = m! n! / (m+n+2)!.
    fn exact_monomial(m: u32, n: u32) -> f64 {
        fn fact(k: u32) -> f64 {
            (1..=k).map(f64::from).product::<f64>().max(1.0)
        }
        fact(m) * fact(n) / fact(m + n + 2)
    }

    #[test]
    fn weights_sum_to_one() {
        for d in 1..=7 {
            let r = DunavantRule::of_degree(d);
            let s: f64 = r.points.iter().map(|p| p.weight).sum();
            assert!((s - 1.0).abs() < 1e-12, "degree {d}: weight sum {s}");
        }
    }

    #[test]
    fn barycentric_coordinates_sum_to_one_and_rules_have_expected_sizes() {
        let expected_sizes = [(1, 1), (2, 3), (3, 4), (4, 6), (5, 7), (6, 12), (7, 13)];
        for (d, n) in expected_sizes {
            let r = DunavantRule::of_degree(d);
            assert_eq!(r.len(), n, "degree {d}");
            for p in &r.points {
                let s: f64 = p.bary.iter().sum();
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rules_integrate_monomials_exactly_up_to_their_degree() {
        for d in 1..=7u32 {
            let r = DunavantRule::of_degree(d);
            for m in 0..=d {
                for n in 0..=(d - m) {
                    let got = r.integrate_reference(|x, y| x.powi(m as i32) * y.powi(n as i32));
                    let want = exact_monomial(m, n);
                    assert!(
                        (got - want).abs() < 1e-12 * (1.0 + want.abs()),
                        "degree {d} monomial x^{m} y^{n}: got {got}, want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn degree_above_table_does_not_integrate_exactly_but_clamps() {
        let r = DunavantRule::of_degree(99);
        assert_eq!(r.degree, 7);
        let r0 = DunavantRule::of_degree(0);
        assert_eq!(r0.degree, 1);
    }

    #[test]
    fn rules_are_symmetric_under_vertex_permutation() {
        // Integrating x and y must give the same result (both = 1/6).
        for d in 1..=7 {
            let r = DunavantRule::of_degree(d);
            let ix = r.integrate_reference(|x, _| x);
            let iy = r.integrate_reference(|_, y| y);
            assert!((ix - iy).abs() < 1e-13, "degree {d}");
            assert!((ix - 1.0 / 6.0).abs() < 1e-13, "degree {d}");
        }
    }
}
