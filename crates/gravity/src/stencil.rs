//! The same-level interaction stencil.
//!
//! "How many cells are considered as 'neighboring' is determined by the
//! so-called opening criteria. However, their number is constant on
//! each level" (§4.3). A cell pair at offset `d` interacts at this
//! level iff the pair is *separated* under the opening criterion here
//! (|d| > 1/θ) but its parent pair is *not* separated (so the coarser
//! level could not have handled it). The parent offset depends on the
//! cell's parity within its parent, so the stencil is the union over
//! parities — one fixed list applied to every cell, exactly the
//! structure the paper's SoA kernels exploit.
//!
//! With θ = 0.5 this yields **982** offsets; the paper's geometry
//! (different separation metric details) gives 1074 — same order, same
//! shape (a thick spherical shell), slightly different count.
//! DESIGN.md documents the substitution; the flop-count constants used
//! by the performance models are the paper's own.

/// Squared separation threshold of the opening criterion: two cells at
/// integer offset `d` are *separated* (safe for M2L at this level) iff
/// `|d|² > 2/θ²`. With θ = 0.5 the threshold is 8.
pub fn separation2(theta: f64) -> f64 {
    2.0 / (theta * theta)
}

/// Largest |component| over `offsets`: the halo width they need.
pub fn reach_of(offsets: &[(i32, i32, i32)]) -> i32 {
    offsets.iter().map(|&(x, y, z)| x.abs().max(y.abs()).max(z.abs())).max().unwrap_or(0)
}

/// The fixed same-level stencil.
///
/// Whether a given pair is handled at this level depends on its *actual*
/// parent offset, which varies with the cell's parity within its parent
/// (position mod 2 per axis). The stencil therefore carries eight
/// parity-specific offset lists (whose union is the single list the
/// paper's kernels apply with masking); using the parity lists makes
/// each pair interact exactly once across all levels.
#[derive(Debug, Clone)]
pub struct Stencil {
    /// Union over parities (the "1074-element stencil" analogue).
    offsets: Vec<(i32, i32, i32)>,
    /// Per-parity exact lists; parity index = (i&1) | ((j&1)<<1) | ((k&1)<<2).
    by_parity: [Vec<(i32, i32, i32)>; 8],
    /// Largest |component| over all offsets (halo width needed).
    width: i32,
}

impl Stencil {
    /// Generate the stencil for opening parameter `theta` (interact at
    /// this level iff `|d|² > (1/θ)²` and the parent pair is closer
    /// than its own threshold).
    pub fn generate(theta: f64) -> Stencil {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
        let inv2 = separation2(theta);
        let reach = (2.0 * inv2.sqrt()).ceil() as i32 + 2;
        let mut by_parity: [Vec<(i32, i32, i32)>; 8] = Default::default();
        let mut union = std::collections::BTreeSet::new();
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                for dz in -reach..=reach {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let d2 = (dx * dx + dy * dy + dz * dz) as f64;
                    if d2 <= inv2 {
                        continue; // not separated here: handled closer in
                    }
                    for parity in 0..8u8 {
                        let (px, py, pz) =
                            ((parity & 1) as i32, ((parity >> 1) & 1) as i32, ((parity >> 2) & 1) as i32);
                        let pd = (
                            (px + dx).div_euclid(2),
                            (py + dy).div_euclid(2),
                            (pz + dz).div_euclid(2),
                        );
                        let pd2 = (pd.0 * pd.0 + pd.1 * pd.1 + pd.2 * pd.2) as f64;
                        if pd2 <= inv2 {
                            // Parent pair not separated: this level owns it.
                            by_parity[parity as usize].push((dx, dy, dz));
                            union.insert((dx, dy, dz));
                        }
                    }
                }
            }
        }
        let offsets: Vec<(i32, i32, i32)> = union.into_iter().collect();
        let width = reach_of(&offsets);
        Stencil { offsets, by_parity, width }
    }

    /// The default Octo-Tiger opening parameter.
    pub fn octotiger() -> Stencil {
        Stencil::generate(0.5)
    }

    /// The near-field offsets *not* covered by the same-level stencil
    /// (|d|² ≤ (1/θ)², d ≠ 0): these pairs are closer than the opening
    /// criterion allows and are evaluated as direct cell-cell
    /// (monopole–monopole) interactions at the leaf level.
    pub fn near_field(theta: f64) -> Vec<(i32, i32, i32)> {
        let inv2 = separation2(theta);
        let reach = inv2.sqrt().ceil() as i32;
        let mut out = Vec::new();
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                for dz in -reach..=reach {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    if ((dx * dx + dy * dy + dz * dz) as f64) <= inv2 {
                        out.push((dx, dy, dz));
                    }
                }
            }
        }
        out
    }

    /// The root node's offsets: at the coarsest level there is no parent
    /// to defer to, so *every* separated pair inside the node (offsets up
    /// to ±(`N_SUB` − 1)) interacts there.
    pub fn root_offsets(theta: f64) -> Vec<(i32, i32, i32)> {
        let sep2 = separation2(theta);
        let reach = octree::subgrid::N_SUB as i32 - 1;
        let mut out = Vec::new();
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                for dz in -reach..=reach {
                    if ((dx * dx + dy * dy + dz * dz) as f64) > sep2 {
                        out.push((dx, dy, dz));
                    }
                }
            }
        }
        out
    }

    pub fn offsets(&self) -> &[(i32, i32, i32)] {
        &self.offsets
    }

    /// The exact offset list for cells of `parity`
    /// (= `(i&1) | ((j&1)<<1) | ((k&1)<<2)`).
    pub fn for_parity(&self, parity: u8) -> &[(i32, i32, i32)] {
        &self.by_parity[parity as usize]
    }

    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Halo width (max |component|) the stencil requires.
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Whether the stencil is symmetric (d ∈ S ⟺ −d ∈ S) — required
    /// for pairwise conservation.
    pub fn is_symmetric(&self) -> bool {
        use std::collections::HashSet;
        let set: HashSet<_> = self.offsets.iter().copied().collect();
        self.offsets
            .iter()
            .all(|&(x, y, z)| set.contains(&(-x, -y, -z)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octotiger_stencil_size_and_shape() {
        let s = Stencil::octotiger();
        // Our opening rule yields a 982-offset union (paper: 1074).
        assert_eq!(s.len(), 982, "stencil size changed: {}", s.len());
        // Parity lists are nonempty subsets whose union is the union.
        let mut union = std::collections::BTreeSet::new();
        for parity in 0..8 {
            let list = s.for_parity(parity);
            assert!(!list.is_empty());
            for d in list {
                assert!(s.offsets().contains(d));
                union.insert(*d);
            }
        }
        assert_eq!(union.len(), s.len());
        assert!(s.is_symmetric());
        // Thick shell: no offsets inside |d|² <= 8, all within the reach.
        for &(x, y, z) in s.offsets() {
            let d2 = x * x + y * y + z * z;
            assert!(d2 > 8, "offset ({x},{y},{z}) inside the near field");
        }
        assert!(s.width() >= 4 && s.width() <= 8, "width = {}", s.width());
    }

    #[test]
    fn near_field_is_small_and_symmetric() {
        let nf = Stencil::near_field(0.5);
        // |d|² <= 8, d != 0: 92 offsets.
        assert_eq!(nf.len(), 92);
        for &(x, y, z) in &nf {
            assert!(nf.contains(&(-x, -y, -z)));
        }
    }

    #[test]
    fn stencil_plus_parents_cover_space() {
        // Every offset within the reach must be handled somewhere:
        // either in the near field, in the same-level stencil, or be
        // separated at the parent level (handled by a coarser pass).
        let theta = 0.5f64;
        let inv2 = separation2(theta);
        let s = Stencil::generate(theta);
        let near = Stencil::near_field(theta);
        for dx in -10i32..=10 {
            for dy in -10i32..=10 {
                for dz in -10i32..=10 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let d2 = (dx * dx + dy * dy + dz * dz) as f64;
                    let in_near = near.contains(&(dx, dy, dz));
                    let in_stencil = s.offsets().contains(&(dx, dy, dz));
                    // Parent separated for ALL parities?
                    let mut parent_sep_all = true;
                    for px in 0..2 {
                        for py in 0..2 {
                            for pz in 0..2 {
                                let pd = (
                                    (px + dx).div_euclid(2),
                                    (py + dy).div_euclid(2),
                                    (pz + dz).div_euclid(2),
                                );
                                let pd2 = (pd.0 * pd.0 + pd.1 * pd.1 + pd.2 * pd.2) as f64;
                                if pd2 <= inv2 {
                                    parent_sep_all = false;
                                }
                            }
                        }
                    }
                    assert!(
                        in_near || in_stencil || parent_sep_all || d2 <= inv2,
                        "offset ({dx},{dy},{dz}) unhandled"
                    );
                }
            }
        }
    }

    #[test]
    fn smaller_theta_means_bigger_stencil() {
        let s05 = Stencil::generate(0.5);
        let s035 = Stencil::generate(0.35);
        assert!(s035.len() > s05.len());
        assert!(s035.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn invalid_theta_rejected() {
        let _ = Stencil::generate(0.0);
    }
}
