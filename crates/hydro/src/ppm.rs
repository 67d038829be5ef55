//! 1-D piecewise parabolic (PPM) reconstruction.
//!
//! "The piece-wise parabolic method (PPM) [Colella & Woodward 1984] is
//! used to compute the thermodynamic variables at cell faces" (§4.2).
//! This is the standard fourth-order interface interpolation followed by
//! the Colella–Woodward monotonicity limiter. Reconstruction needs two
//! cells of context on each side, which is exactly the sub-grid ghost
//! width (`octree::subgrid::N_GHOST`).

use util::simd::Lanes;

/// Van Leer limited slope of `u` at index `i` (monotonized central).
#[inline(always)]
fn mc_slope<const W: usize>(um: Lanes<W>, u0: Lanes<W>, up: Lanes<W>) -> Lanes<W> {
    let d_m = u0 - um;
    let d_p = up - u0;
    let d_c = (up - um) * 0.5;
    let lim = d_m.abs().min(d_p.abs()) * 2.0;
    let zero = Lanes::splat(0.0);
    Lanes::select((d_m * d_p).le(zero), zero, d_c.signum() * d_c.abs().min(lim))
}

/// Fourth-order interface value between cells `i` and `i+1`, whose
/// limited slopes are `s0` and `sp` (CW eq. 1.6 with the standard slope
/// substitution).
#[inline(always)]
fn interface<const W: usize>(u0: Lanes<W>, up: Lanes<W>, s0: Lanes<W>, sp: Lanes<W>) -> Lanes<W> {
    u0 + (up - u0) * 0.5 - (sp - s0) / 6.0
}

/// The CW monotonicity constraints and the final bound on one cell's
/// face pair: `um`/`up` are the interface values at its low/high face,
/// `below`/`u0`/`above` the averages of the cell and its two neighbors.
/// Every `if` of the textbook form is a compare-and-select here; a
/// comparison with NaN is false on both forms, so they agree bit for bit.
#[inline(always)]
fn limit<const W: usize>(
    below: Lanes<W>,
    u0: Lanes<W>,
    above: Lanes<W>,
    um: Lanes<W>,
    up: Lanes<W>,
) -> (Lanes<W>, Lanes<W>) {
    let d = up - um;
    let c = d * (u0 - (um + up) * 0.5);
    let overshoot_minus = c.gt(d * d / 6.0);
    let overshoot_plus = (-d * d / 6.0).gt(c);
    // Local extremum: flatten. Otherwise at most one face is pulled in.
    let extremum = ((up - u0) * (u0 - um)).le(Lanes::splat(0.0));
    let steep_m = u0 * 3.0 - up * 2.0;
    let steep_p = u0 * 3.0 - um * 2.0;
    let um = Lanes::select(extremum, u0, Lanes::select(overshoot_minus, steep_m, um));
    let up = Lanes::select(
        extremum,
        u0,
        Lanes::select(overshoot_minus, up, Lanes::select(overshoot_plus, steep_p, up)),
    );
    // Final bound: a face value never leaves the range of the two cells
    // sharing it (robustness clamp on top of the CW limiter). Two
    // selects, not `max().min()`: those differ on -0.0 against +0.0, and
    // unlike `f64::clamp` this has no `lo <= hi` assertion for a NaN
    // window to trip.
    let bound = |x: Lanes<W>, neighbor: Lanes<W>| {
        let (lo, hi) = (neighbor.min(u0), neighbor.max(u0));
        Lanes::select(x.lt(lo), lo, Lanes::select(x.gt(hi), hi, x))
    };
    (bound(um, below), bound(up, above))
}

/// PPM reconstruction of `W` lines side by side: `u` holds the cell
/// averages along the line including two cells of context on each side,
/// and `emit(n, minus, plus)` receives the face pair of cell `u[n + 2]`
/// for `n` in `0..u.len() - 4`, in order. Each limited slope is computed
/// once per cell and each interface value once per face, and handed on
/// to the next cell.
///
/// Lines that are bit-uniform — every cell of a lane the same finite
/// value — skip the arithmetic: all their slopes are `+0.0`, every cell
/// takes the flattened-extremum select, and both faces come out as the
/// cell value itself, bit for bit (also for `-0.0`; not for ±∞, whose
/// differences are NaN). That is most of a tenuous atmosphere and every
/// passive scalar away from its own star; the scalar form got the same
/// saving from its early returns.
#[inline(always)]
pub fn ppm_pencil<const W: usize>(
    u: &[Lanes<W>],
    mut emit: impl FnMut(usize, Lanes<W>, Lanes<W>),
) {
    assert!(u.len() >= 5, "PPM needs at least 5 cells (2 ghosts each side)");
    let first = u[0];
    let same = |c: &Lanes<W>| (0..W).all(|l| c.0[l].to_bits() == first.0[l].to_bits());
    if first.0.iter().all(|x| x.is_finite()) && u.iter().all(same) {
        for n in 0..u.len() - 4 {
            emit(n, first, first);
        }
        return;
    }
    let mut slope = mc_slope(u[1], u[2], u[3]);
    let mut face = interface(u[1], u[2], mc_slope(u[0], u[1], u[2]), slope);
    for i in 2..u.len() - 2 {
        let next_slope = mc_slope(u[i], u[i + 1], u[i + 2]);
        let next_face = interface(u[i], u[i + 1], slope, next_slope);
        let (minus, plus) = limit(u[i - 1], u[i], u[i + 1], face, next_face);
        emit(i - 2, minus, plus);
        slope = next_slope;
        face = next_face;
    }
}

/// Left/right reconstructed states at the faces of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FacePair {
    /// Value at the cell's low face (the face shared with cell i−1).
    pub minus: f64,
    /// Value at the cell's high face (shared with cell i+1).
    pub plus: f64,
}

/// PPM reconstruction of cell `i` of a 1-D stencil `u[i-2..=i+2]`
/// (passed as a five-element window centred on the cell): the one-lane,
/// one-cell instantiation of [`ppm_pencil`].
pub fn ppm_cell(w: [f64; 5]) -> FacePair {
    let mut faces = FacePair::default();
    ppm_pencil(&w.map(|x| Lanes([x])), |_, minus, plus| {
        faces = FacePair { minus: minus.lane(0), plus: plus.lane(0) };
    });
    faces
}

/// The scalar, branching reconstruction this module had before the
/// lane-generic body, kept verbatim as the reference the lanes are
/// compared against bit for bit (here and by the sweep's oracle in
/// `step.rs`).
#[cfg(test)]
pub(crate) mod oracle {
    use super::FacePair;

    fn mc_slope(um: f64, u0: f64, up: f64) -> f64 {
        let d_m = u0 - um;
        let d_p = up - u0;
        if d_m * d_p <= 0.0 {
            return 0.0;
        }
        let d_c = 0.5 * (up - um);
        let lim = 2.0 * d_m.abs().min(d_p.abs());
        d_c.signum() * d_c.abs().min(lim)
    }

    fn interface(um: f64, u0: f64, up: f64, upp: f64) -> f64 {
        u0 + 0.5 * (up - u0) - (mc_slope(u0, up, upp) - mc_slope(um, u0, up)) / 6.0
    }

    pub(crate) fn ppm_cell(w: [f64; 5]) -> FacePair {
        let u0 = w[2];
        let mut um = interface(w[0], w[1], w[2], w[3]);
        let mut up = interface(w[1], w[2], w[3], w[4]);
        if (up - u0) * (u0 - um) <= 0.0 {
            um = u0;
            up = u0;
        } else {
            let d = up - um;
            let c = d * (u0 - 0.5 * (um + up));
            if c > d * d / 6.0 {
                um = 3.0 * u0 - 2.0 * up;
            } else if -d * d / 6.0 > c {
                up = 3.0 * u0 - 2.0 * um;
            }
        }
        // `f64::clamp` minus its `min <= max` assertion.
        let clamp = |x: f64, lo: f64, hi: f64| {
            if x < lo {
                lo
            } else if x > hi {
                hi
            } else {
                x
            }
        };
        um = clamp(um, w[1].min(u0), w[1].max(u0));
        up = clamp(up, w[3].min(u0), w[3].max(u0));
        FacePair { minus: um, plus: up }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::same_bits;
    use proptest::prelude::*;

    #[test]
    fn constant_is_exact() {
        let f = ppm_cell([4.0; 5]);
        assert_eq!(f.minus, 4.0);
        assert_eq!(f.plus, 4.0);
    }

    #[test]
    fn linear_is_exact() {
        // u = 3 + 2i: faces at i ± 1/2 are 3 + 2(i ± 1/2).
        let w = [3.0, 5.0, 7.0, 9.0, 11.0];
        let f = ppm_cell(w);
        assert!((f.minus - 6.0).abs() < 1e-13, "minus = {}", f.minus);
        assert!((f.plus - 8.0).abs() < 1e-13, "plus = {}", f.plus);
    }

    #[test]
    fn smooth_monotone_parabola_is_accurate() {
        // u(x) = x² on the monotone branch x >= 0: faces at x = 1.5 and
        // x = 2.5 are 2.25 and 6.25; point-sampled PPM with limited
        // slopes lands within ~0.1.
        let w = [0.0, 1.0, 4.0, 9.0, 16.0];
        let f = ppm_cell(w);
        assert!((f.minus - 2.25).abs() < 0.1, "minus = {}", f.minus);
        assert!((f.plus - 6.25).abs() < 0.1, "plus = {}", f.plus);
    }

    #[test]
    fn parabola_vertex_is_flattened() {
        // At a genuine extremum PPM clips to first order (by design).
        let w = [4.0, 1.0, 0.0, 1.0, 4.0];
        let f = ppm_cell(w);
        assert_eq!(f.minus, 0.0);
        assert_eq!(f.plus, 0.0);
    }

    #[test]
    fn extremum_is_flattened() {
        let f = ppm_cell([0.0, 1.0, 5.0, 1.0, 0.0]);
        assert_eq!(f.minus, 5.0);
        assert_eq!(f.plus, 5.0);
    }

    #[test]
    fn monotone_data_monotone_faces() {
        let w = [1.0, 2.0, 4.0, 8.0, 16.0];
        let f = ppm_cell(w);
        // Faces stay within the neighboring cell values.
        assert!(f.minus >= 2.0 - 1e-12 && f.minus <= 4.0 + 1e-12, "minus = {}", f.minus);
        assert!(f.plus >= 4.0 - 1e-12 && f.plus <= 8.0 + 1e-12, "plus = {}", f.plus);
    }

    /// A pencil of `W` copies of `u`, reconstructed; lane 0's face pairs.
    fn pencil_of<const W: usize>(u: &[f64]) -> Vec<FacePair> {
        let lanes: Vec<Lanes<W>> = u.iter().map(|&x| Lanes::splat(x)).collect();
        let mut faces = Vec::new();
        ppm_pencil(&lanes, |n, minus, plus| {
            assert_eq!(n, faces.len(), "cells are emitted in order");
            assert!((1..W).all(|l| same_bits(minus.lane(l), minus.lane(0))), "lanes are independent");
            faces.push(FacePair { minus: minus.lane(0), plus: plus.lane(0) });
        });
        faces
    }

    #[test]
    fn line_reconstruction_shape() {
        let u: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let faces = pencil_of::<4>(&u);
        assert_eq!(faces.len(), 8);
        for (n, f) in faces.iter().enumerate() {
            let i = (n + 2) as f64;
            assert!((f.minus - (i - 0.5)).abs() < 1e-12);
            assert!((f.plus - (i + 0.5)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least 5")]
    fn short_line_panics() {
        let _ = pencil_of::<1>(&[1.0, 2.0, 3.0, 4.0]);
    }

    /// `f64::clamp` asserts `min <= max`, which an all-NaN window fails:
    /// the select form hands the NaN on (to the CFL check, which turns
    /// it into an `Error`) instead of panicking inside a worker.
    #[test]
    fn nan_window_propagates_without_panicking() {
        let f = ppm_cell([f64::NAN; 5]);
        assert!(f.minus.is_nan() && f.plus.is_nan());
        let f = ppm_cell([1.0, f64::NAN, 2.0, f64::NAN, 3.0]);
        assert!(f.minus.is_nan() && f.plus.is_nan());
    }

    /// The bit-uniform shortcut returns what the arithmetic would have:
    /// on every finite value, signed zeros and the extremes included —
    /// and stands aside for ±∞ and NaN, which do not reconstruct to
    /// themselves.
    #[test]
    fn uniform_lines_match_the_oracle() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -3.5,
            1e-300,
            5e-324,
            -1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for v in values {
            let want = oracle::ppm_cell([v; 5]);
            assert_eq!(want.minus.is_finite(), v.is_finite(), "oracle on {v:e}");
            let mut faces = pencil_of::<4>(&[v; 9]);
            faces.push(ppm_cell([v; 5]));
            for f in faces {
                assert!(same_bits(f.minus, want.minus) && same_bits(f.plus, want.plus), "{v:e}");
            }
        }
    }

    /// The trap in writing the final bound as `x.max(lo).min(hi)`: a
    /// flattened `-0.0` cell between `+0.0` neighbors must keep its sign,
    /// as `x < lo` / `x > hi` (both false) leave it.
    #[test]
    fn flattened_negative_zero_keeps_its_sign() {
        let w = [0.0, 0.0, -0.0, 0.0, 0.0];
        let (got, want) = (ppm_cell(w), oracle::ppm_cell(w));
        assert_eq!(want.minus.to_bits(), (-0.0f64).to_bits());
        assert_eq!(got.minus.to_bits(), want.minus.to_bits());
        assert_eq!(got.plus.to_bits(), want.plus.to_bits());
    }

    proptest! {
        /// The select form against the branching oracle, one window per
        /// lane so a bundle mixes extrema, overshoots and edge values.
        #[test]
        fn lanes_match_the_branching_oracle(
            smooth in proptest::array::uniform8(-100.0f64..100.0),
            edge in proptest::array::uniform8(proptest::num::f64::ANY),
            pick in any::<u64>(),
        ) {
            // Four overlapping 5-cell windows of an 8-cell run per lane;
            // lane l swaps in edge values where bit (c + 8 l) of `pick`
            // is set.
            let cell = |l: usize, c: usize| {
                if pick >> (c + 8 * l) & 1 == 1 { edge[(c + l) % 8] } else { smooth[(c + 3 * l) % 8] }
            };
            let lanes: [Lanes<4>; 8] =
                std::array::from_fn(|c| Lanes(std::array::from_fn(|l| cell(l, c))));
            ppm_pencil(&lanes, |n, minus, plus| {
                for l in 0..4 {
                    let w: [f64; 5] = std::array::from_fn(|c| cell(l, n + c));
                    let want = oracle::ppm_cell(w);
                    assert!(same_bits(minus.lane(l), want.minus), "minus of {w:?}");
                    assert!(same_bits(plus.lane(l), want.plus), "plus of {w:?}");
                    let one = ppm_cell(w);
                    assert!(same_bits(one.minus, want.minus) && same_bits(one.plus, want.plus));
                }
            });
        }

        #[test]
        fn faces_bounded_by_neighbors(w in proptest::array::uniform5(-100.0f64..100.0)) {
            let f = ppm_cell(w);
            let lo = w[1].min(w[2]).min(w[3]);
            let hi = w[1].max(w[2]).max(w[3]);
            prop_assert!(f.minus >= lo - 1e-9 && f.minus <= hi + 1e-9,
                         "minus {} outside [{lo},{hi}] for {w:?}", f.minus);
            prop_assert!(f.plus >= lo - 1e-9 && f.plus <= hi + 1e-9,
                         "plus {} outside [{lo},{hi}] for {w:?}", f.plus);
        }

        #[test]
        fn reconstruction_is_tvd_on_monotone_runs(a in -10.0f64..10.0, b in 0.01f64..5.0) {
            // Strictly increasing data: faces must be ordered
            // minus <= u0 <= plus for every cell.
            let w: [f64; 5] = std::array::from_fn(|i| a + b * i as f64);
            let f = ppm_cell(w);
            prop_assert!(f.minus <= w[2] + 1e-12);
            prop_assert!(f.plus >= w[2] - 1e-12);
        }
    }
}
