//! Atoms and elements.

use polar_geom::Vec3;

/// Chemical elements that dominate protein structures, plus a generic
/// fallback for anything else a PQR file may contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Element {
    H,
    C,
    N,
    O,
    S,
    P,
    /// Anything else; carries no radius of its own (the generic vdW radius
    /// is used).
    Other,
}

impl Element {
    /// Bondi van der Waals radius in Å (Bondi 1964; P from later tables).
    pub fn vdw_radius(self) -> f64 {
        match self {
            Element::H => 1.20,
            Element::C => 1.70,
            Element::N => 1.55,
            Element::O => 1.52,
            Element::S => 1.80,
            Element::P => 1.80,
            Element::Other => 1.60,
        }
    }

    /// Parse from an element symbol or a PDB-style atom name
    /// (first alphabetic character decides).
    pub fn from_symbol(s: &str) -> Element {
        match s.trim().chars().find(|c| c.is_ascii_alphabetic()) {
            Some('H') | Some('h') => Element::H,
            Some('C') | Some('c') => Element::C,
            Some('N') | Some('n') => Element::N,
            Some('O') | Some('o') => Element::O,
            Some('S') | Some('s') => Element::S,
            Some('P') | Some('p') => Element::P,
            _ => Element::Other,
        }
    }

    /// Rough elemental composition of an average protein (all-atom,
    /// including hydrogens), used by the synthetic generators.
    /// Fractions sum to 1.
    pub const PROTEIN_COMPOSITION: [(Element, f64); 5] = [
        (Element::H, 0.50),
        (Element::C, 0.32),
        (Element::N, 0.085),
        (Element::O, 0.09),
        (Element::S, 0.005),
    ];
}

/// One atom: position, van der Waals radius, and partial charge.
///
/// This is the unit of input to the GB solver: Eq. 2 needs `(pos, charge)`
/// of every atom plus its Born radius; Eq. 4's integral is seeded by
/// `radius` (the Born radius is floored at the vdW radius, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Center position (Å).
    pub pos: Vec3,
    /// van der Waals radius (Å); must be positive.
    pub radius: f64,
    /// Partial charge (elementary charges).
    pub charge: f64,
}

impl Atom {
    pub fn new(pos: Vec3, radius: f64, charge: f64) -> Atom {
        Atom {
            pos,
            radius,
            charge,
        }
    }

    /// Atom of the given element at `pos` with charge `q`.
    pub fn of_element(element: Element, pos: Vec3, charge: f64) -> Atom {
        Atom {
            pos,
            radius: element.vdw_radius(),
            charge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radii_are_positive_and_ordered_sensibly() {
        // H is the smallest; S and P the largest of the table.
        let h = Element::H.vdw_radius();
        for e in [
            Element::C,
            Element::N,
            Element::O,
            Element::S,
            Element::P,
            Element::Other,
        ] {
            assert!(e.vdw_radius() > h);
            assert!(e.vdw_radius() > 0.0);
        }
        assert!(Element::S.vdw_radius() >= Element::C.vdw_radius());
    }

    #[test]
    fn from_symbol_parses_pdb_names() {
        assert_eq!(Element::from_symbol("CA"), Element::C);
        assert_eq!(Element::from_symbol(" N "), Element::N);
        assert_eq!(Element::from_symbol("1HB2"), Element::H);
        assert_eq!(Element::from_symbol("OXT"), Element::O);
        assert_eq!(Element::from_symbol("FE"), Element::Other);
        assert_eq!(Element::from_symbol(""), Element::Other);
    }

    #[test]
    fn from_symbol_reads_canonical_symbols() {
        for (s, e) in [
            ("H", Element::H),
            ("C", Element::C),
            ("N", Element::N),
            ("O", Element::O),
            ("S", Element::S),
            ("P", Element::P),
            ("X", Element::Other),
        ] {
            assert_eq!(Element::from_symbol(s), e);
        }
    }

    #[test]
    fn protein_composition_sums_to_one() {
        let s: f64 = Element::PROTEIN_COMPOSITION.iter().map(|(_, f)| f).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn of_element_uses_table_radius() {
        let a = Atom::of_element(Element::C, Vec3::ZERO, -0.1);
        assert_eq!(a.radius, 1.70);
        assert_eq!(a.charge, -0.1);
    }
}
