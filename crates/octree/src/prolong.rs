//! Conservative interpolation between refinement levels.
//!
//! "For all levels the restart file for level 13 was read and refined to
//! higher levels of resolution through conservative interpolation of the
//! evolved variables" (§6.2). We use limited (minmod) trilinear
//! reconstruction: each parent cell's value is distributed to its eight
//! children with per-axis slopes whose contributions cancel pairwise, so
//! the total of every conserved variable is preserved to round-off —
//! verified by property tests and required for the machine-precision
//! conservation claims of the paper.
//!
//! Restriction (fine → coarse) is the exact 8-cell average, the adjoint
//! operation, also conservative.

use crate::subgrid::{SubGrid, ALL_FIELDS, N_SUB};

/// minmod slope limiter: zero at extrema, the smaller one-sided
/// difference otherwise. Guarantees no new extrema are created.
#[inline]
pub fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// Interior-only limited slope along one axis; zero at the sub-grid
/// boundary (one-sided data unavailable without a halo — zero slope is
/// conservative and robust).
#[inline]
fn slope(get: impl Fn(isize) -> f64, idx: isize) -> f64 {
    if idx == 0 || idx == N_SUB as isize - 1 {
        return 0.0;
    }
    minmod(get(idx + 1) - get(idx), get(idx) - get(idx - 1)) * 0.5
}

/// Produce the leaf grid of child `octant` of a parent grid by
/// conservative prolongation.
pub fn prolong_octant(parent: &SubGrid, octant: u8) -> SubGrid {
    assert!(octant < 8, "octant must be in 0..8");
    let mut child = SubGrid::new();
    let half = N_SUB as isize / 2;
    let ox = (octant & 1) as isize * half;
    let oy = ((octant >> 1) & 1) as isize * half;
    let oz = ((octant >> 2) & 1) as isize * half;
    for f in ALL_FIELDS {
        for ci in 0..N_SUB as isize {
            for cj in 0..N_SUB as isize {
                for ck in 0..N_SUB as isize {
                    let (pi, pj, pk) = (ox + ci / 2, oy + cj / 2, oz + ck / 2);
                    let v = parent.at(f, pi, pj, pk);
                    let sx = slope(|i| parent.at(f, i, pj, pk), pi);
                    let sy = slope(|j| parent.at(f, pi, j, pk), pj);
                    let sz = slope(|k| parent.at(f, pi, pj, k), pk);
                    // Child centre offset within the parent cell: ±1/4 of
                    // the parent cell width along each axis.
                    let wx = if ci % 2 == 0 { -0.5 } else { 0.5 };
                    let wy = if cj % 2 == 0 { -0.5 } else { 0.5 };
                    let wz = if ck % 2 == 0 { -0.5 } else { 0.5 };
                    child.set(f, ci, cj, ck, v + wx * sx + wy * sy + wz * sz);
                }
            }
        }
    }
    child
}

/// Restrict a child grid into the `octant` block of `parent`: each
/// parent cell becomes the average of its eight children (volume
/// weighting is uniform within a level).
pub fn restrict_into_octant(child: &SubGrid, parent: &mut SubGrid, octant: u8) {
    assert!(octant < 8, "octant must be in 0..8");
    let half = N_SUB as isize / 2;
    let ox = (octant & 1) as isize * half;
    let oy = ((octant >> 1) & 1) as isize * half;
    let oz = ((octant >> 2) & 1) as isize * half;
    for f in ALL_FIELDS {
        for pi in 0..half {
            for pj in 0..half {
                for pk in 0..half {
                    let mut sum = 0.0;
                    for di in 0..2 {
                        for dj in 0..2 {
                            for dk in 0..2 {
                                sum += child.at(f, 2 * pi + di, 2 * pj + dj, 2 * pk + dk);
                            }
                        }
                    }
                    parent.set(f, ox + pi, oy + pj, oz + pk, sum / 8.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgrid::Field;
    use proptest::prelude::*;

    #[test]
    fn minmod_properties() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    fn filled_parent(f: impl Fn(isize, isize, isize) -> f64) -> SubGrid {
        let mut g = SubGrid::new();
        for (i, j, k) in g.indexer().interior() {
            g.set(Field::Rho, i, j, k, f(i, j, k));
        }
        g
    }

    #[test]
    fn prolongation_of_constant_is_constant() {
        let parent = filled_parent(|_, _, _| 3.5);
        for octant in 0..8 {
            let child = prolong_octant(&parent, octant);
            for (i, j, k) in child.indexer().interior() {
                assert_eq!(child.at(Field::Rho, i, j, k), 3.5);
            }
        }
    }

    #[test]
    fn prolongation_conserves_total_exactly() {
        let parent = filled_parent(|i, j, k| ((7 * i + 3 * j + k) % 13) as f64 * 0.125 + 1.0);
        let parent_total = parent.interior_sum(Field::Rho);
        // Children cells have 1/8 the volume: total over all children
        // interiors / 8 must equal the parent total.
        let mut child_total = 0.0;
        for octant in 0..8 {
            child_total += prolong_octant(&parent, octant).interior_sum(Field::Rho);
        }
        assert!(
            (child_total / 8.0 - parent_total).abs() <= 1e-12 * parent_total.abs(),
            "prolongation not conservative: {parent_total} vs {}",
            child_total / 8.0
        );
    }

    #[test]
    fn prolongation_reproduces_linear_fields_in_interior() {
        // A linear profile: slopes should reconstruct it exactly away
        // from the sub-grid boundary.
        let parent = filled_parent(|i, _, _| i as f64);
        let child = prolong_octant(&parent, 0);
        // Child cell ci maps to parent coordinate (ci + 0.5)/2 - 0.5 in
        // parent-cell units. For interior parent cells the limited slope
        // equals the exact slope 1.0 (per parent cell).
        for ci in 2..6 {
            let expect = (ci as f64 + 0.5) / 2.0 - 0.5;
            let got = child.at(Field::Rho, ci, 3, 3);
            assert!((got - expect).abs() < 1e-13, "ci={ci}: {got} vs {expect}");
        }
    }

    #[test]
    fn restriction_inverts_prolongation_of_smooth_data() {
        let parent = filled_parent(|i, j, k| (i + 2 * j + 3 * k) as f64);
        let mut back = SubGrid::new();
        for octant in 0..8 {
            let child = prolong_octant(&parent, octant);
            restrict_into_octant(&child, &mut back, octant);
        }
        for (i, j, k) in parent.indexer().interior() {
            assert!(
                (back.at(Field::Rho, i, j, k) - parent.at(Field::Rho, i, j, k)).abs() < 1e-12,
                "restrict(prolong) must be identity at ({i},{j},{k})"
            );
        }
    }

    #[test]
    fn prolongation_creates_no_new_extrema() {
        let parent = filled_parent(|i, j, k| ((i * j + k) % 7) as f64);
        let (lo, hi) = parent
            .indexer()
            .interior()
            .map(|(i, j, k)| parent.at(Field::Rho, i, j, k))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
        for octant in 0..8 {
            let child = prolong_octant(&parent, octant);
            for (i, j, k) in child.indexer().interior() {
                let v = child.at(Field::Rho, i, j, k);
                assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "overshoot {v} outside [{lo},{hi}]");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn conservation_for_random_fields(vals in proptest::collection::vec(0.1f64..10.0, 512)) {
            let mut parent = SubGrid::new();
            for (n, (i, j, k)) in parent.indexer().interior().enumerate() {
                parent.set(Field::Rho, i, j, k, vals[n]);
            }
            let total = parent.interior_sum(Field::Rho);
            let mut child_total = 0.0;
            for octant in 0..8 {
                child_total += prolong_octant(&parent, octant).interior_sum(Field::Rho);
            }
            prop_assert!((child_total / 8.0 - total).abs() < 1e-10 * total.abs());
        }

        #[test]
        fn restriction_is_average(octant in 0u8..8) {
            let mut child = SubGrid::new();
            child.field_mut(Field::Egas).fill(4.0);
            let mut parent = SubGrid::new();
            restrict_into_octant(&child, &mut parent, octant);
            let half = N_SUB as isize / 2;
            let ox = (octant & 1) as isize * half;
            let oy = ((octant >> 1) & 1) as isize * half;
            let oz = ((octant >> 2) & 1) as isize * half;
            prop_assert_eq!(parent.at(Field::Egas, ox, oy, oz), 4.0);
            prop_assert_eq!(parent.at(Field::Egas, ox + half - 1, oy, oz), 4.0);
            // Outside the octant block: untouched (zero).
            let other = (ox + half) % N_SUB as isize;
            prop_assert_eq!(parent.at(Field::Egas, other, oy, oz), 0.0);
        }
    }
}
