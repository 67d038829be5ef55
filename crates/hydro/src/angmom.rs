//! Angular-momentum-conserving bookkeeping.
//!
//! "The angular momentum technique described by [Després & Labourasse
//! 2015] is applied to the PPM reconstruction. It adds a degree of
//! freedom ... by allowing for the addition of a spatially constant
//! angular velocity component ... determined by evolving three
//! additional variables corresponding to the spin angular momentum for
//! a given cell" (§4.2).
//!
//! Our realization of the same idea: the evolved spin fields
//! (`Field::Lx..Lz`) absorb exactly the discrete torque residual of the
//! momentum flux, so that the total angular momentum
//!
//!   L = Σᵢ ( rᵢ × sᵢ + lᵢ ) Vᵢ
//!
//! changes only through domain-boundary fluxes — i.e. it is conserved to
//! machine precision on a periodic/closed domain, which is the paper's
//! headline numerical property. Derivation: with ds/dt = (F⁻ − F⁺)/dx
//! per axis, requiring d(r×s + l)/dt to telescope as the face quantity
//! r_f × F_f gives
//!
//!   dl/dt = ((r_f⁻ − r) × F⁻ − (r_f⁺ − r) × F⁺)/dx
//!         = −ê_axis × (F⁻ + F⁺) / 2 ,
//!
//! where F is the (vector) momentum flux through the two faces along
//! that axis. The l fields additionally advect with the flow through the
//! ordinary flux sweep (their own flux form conserves Σl).

use util::simd::Lanes;
use util::vec3::Vec3;

/// The spin source for one cell and one axis: `−ê_axis × (F⁻ + F⁺)/2`,
/// with `f_minus`/`f_plus` the momentum flux vectors through the cell's
/// low/high face along `axis`.
#[inline]
pub fn spin_source(axis: usize, f_minus: Vec3, f_plus: Vec3) -> Vec3 {
    let one = |v: Vec3| v.to_array().map(|x| Lanes([x]));
    Vec3::from_array(spin_source_lanes(axis, one(f_minus), one(f_plus)).map(|c| c.lane(0)))
}

/// [`spin_source`] of `W` cells at once. The cross product is spelled
/// out with the unit vector's zeros multiplied through, as `Vec3::cross`
/// does: `0·F` is −0, +0 or NaN depending on `F`, and the ledger is
/// bit-exact only if every width adds the same one.
#[inline(always)]
pub(crate) fn spin_source_lanes<const W: usize>(
    axis: usize,
    f_minus: [Lanes<W>; 3],
    f_plus: [Lanes<W>; 3],
) -> [Lanes<W>; 3] {
    let e = axis_unit(axis).to_array();
    let f: [Lanes<W>; 3] = std::array::from_fn(|a| f_minus[a] + f_plus[a]);
    let cross = [
        f[2] * e[1] - f[1] * e[2],
        f[0] * e[2] - f[2] * e[0],
        f[1] * e[0] - f[0] * e[1],
    ];
    cross.map(|c| -c * 0.5)
}

/// The spin counter-source for a *body* force density `f` acting at the
/// cell centre `r`: `−r × f`.
///
/// Every momentum source term must close the angular budget the same
/// way the flux sweep does: a force applied at the cell centre changes
/// `d(r × s)/dt` by `r × f`, and the unresolved sub-cell lever arm goes
/// to the spin ledger, so `d(r × s + l)/dt` from the source is exactly
/// zero. This is the one angular-momentum closure of every body force:
/// the driver deposits it for the gravity force density the FMM returns
/// (which keeps no torque ledger of its own, so the budget closes
/// whatever the solver's truncation error), and the rotating-frame
/// sources for the frame force. The result is the paper's headline
/// property: `Σ (r × s + l) V` changes only through domain-boundary
/// fluxes, i.e. angular momentum is conserved to machine precision.
#[inline]
pub fn body_force_spin(r: Vec3, f: Vec3) -> Vec3 {
    -r.cross(f)
}

#[inline]
pub fn axis_unit(axis: usize) -> Vec3 {
    match axis {
        0 => Vec3::new(1.0, 0.0, 0.0),
        1 => Vec3::new(0.0, 1.0, 0.0),
        2 => Vec3::new(0.0, 0.0, 1.0),
        _ => panic!("axis must be 0, 1, or 2"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_flux_produces_no_spin() {
        // Momentum flux parallel to the face normal (1-D flow): no torque.
        let f = Vec3::new(3.0, 0.0, 0.0);
        assert_eq!(spin_source(0, f, f), Vec3::ZERO);
    }

    #[test]
    fn shear_flux_produces_spin() {
        // Transverse momentum carried through x-faces: z-spin.
        let f = Vec3::new(0.0, 2.0, 0.0);
        let s = spin_source(0, f, f);
        assert_eq!(s, Vec3::new(0.0, 0.0, -2.0));
    }

    #[test]
    fn uniform_diagonal_flow_cancels_across_axes() {
        // For uniform u = (u, v, 0), the x-face flux is ρ u_x u and the
        // y-face flux is ρ u_y u; their spin sources cancel exactly.
        let rho = 1.3;
        let u = Vec3::new(0.7, -1.1, 0.4);
        let fx = u * (rho * u.x);
        let fy = u * (rho * u.y);
        let fz = u * (rho * u.z);
        let total = spin_source(0, fx, fx) + spin_source(1, fy, fy) + spin_source(2, fz, fz);
        assert!(total.norm() < 1e-14, "residual spin {total:?}");
    }

    #[test]
    #[should_panic(expected = "axis")]
    fn bad_axis_panics() {
        let _ = axis_unit(3);
    }
}
