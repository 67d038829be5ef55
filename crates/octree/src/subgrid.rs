//! The N³ sub-grid of evolved variables.
//!
//! Octo-Tiger evolves mass density, momentum, total gas energy, an
//! entropy tracer (for the dual-energy formalism of §4.2), three spin
//! angular momentum variables (the Després–Labourasse reconstruction
//! degree of freedom), and five passive scalars — "initialized to the
//! mass density of the accretor core, the accretor envelope, the donor
//! core, the donor envelope, and the common atmosphere".
//!
//! Storage is struct-of-arrays, the layout that made the stencil FMM
//! kernels 1.9–2.2× faster than array-of-structs (§4.3); every solver in
//! this workspace iterates field-major.

use util::indexing::GridIndexer;

/// Interior cells per dimension ("with N = 8 for all runs in this
/// paper").
pub const N_SUB: usize = 8;

/// Ghost cells per side. The flux sweep needs reconstructed states in
/// the first ghost cell, whose PPM stencil reaches two cells further —
/// three ghosts total, as in Octo-Tiger (`H_BW = 3`).
pub const N_GHOST: usize = 3;

/// The evolved variables of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Field {
    /// Mass density ρ.
    Rho = 0,
    /// Momentum density ρuₓ.
    Sx = 1,
    /// Momentum density ρu_y.
    Sy = 2,
    /// Momentum density ρu_z.
    Sz = 3,
    /// Total gas energy density E (kinetic + internal).
    Egas = 4,
    /// Entropy tracer τ = (ρε)^(1/γ) of the dual-energy formalism.
    Tau = 5,
    /// Spin angular momentum lₓ (angular-momentum-conserving PPM DOF).
    Lx = 6,
    /// Spin angular momentum l_y.
    Ly = 7,
    /// Spin angular momentum l_z.
    Lz = 8,
    /// Passive scalar: accretor core fraction.
    AccretorCore = 9,
    /// Passive scalar: accretor envelope fraction.
    AccretorEnv = 10,
    /// Passive scalar: donor core fraction.
    DonorCore = 11,
    /// Passive scalar: donor envelope fraction.
    DonorEnv = 12,
    /// Passive scalar: common atmosphere fraction.
    Atmosphere = 13,
}

/// Number of evolved fields.
pub const FIELD_COUNT: usize = 14;

/// All fields, in storage order.
pub const ALL_FIELDS: [Field; FIELD_COUNT] = [
    Field::Rho,
    Field::Sx,
    Field::Sy,
    Field::Sz,
    Field::Egas,
    Field::Tau,
    Field::Lx,
    Field::Ly,
    Field::Lz,
    Field::AccretorCore,
    Field::AccretorEnv,
    Field::DonorCore,
    Field::DonorEnv,
    Field::Atmosphere,
];

/// The five passive scalars, in order.
pub const PASSIVE_SCALARS: [Field; 5] = [
    Field::AccretorCore,
    Field::AccretorEnv,
    Field::DonorCore,
    Field::DonorEnv,
    Field::Atmosphere,
];

impl Field {
    /// Storage index of this field.
    #[inline]
    pub const fn idx(self) -> usize {
        self as usize
    }

    /// Whether this field is advected like a mass density (passive
    /// scalars use "the same continuity equation that describes the
    /// evolution of the mass density").
    pub fn is_density_like(self) -> bool {
        matches!(
            self,
            Field::Rho
                | Field::AccretorCore
                | Field::AccretorEnv
                | Field::DonorCore
                | Field::DonorEnv
                | Field::Atmosphere
        )
    }
}

/// One octree node's worth of evolved variables: `FIELD_COUNT` scalar
/// fields on an `N_SUB³` interior with `N_GHOST` ghost layers,
/// struct-of-arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct SubGrid {
    data: Vec<f64>,
    indexer: GridIndexer,
}

fn default_indexer() -> GridIndexer {
    GridIndexer::new(N_SUB, N_GHOST)
}

serde::impl_codec_enum_unit!(Field {
    Rho, Sx, Sy, Sz, Egas, Tau, Lx, Ly, Lz,
    AccretorCore, AccretorEnv, DonorCore, DonorEnv, Atmosphere,
});

// Only the cell data travels; the indexer is geometry every locality
// can rebuild (the old derive marked it `#[serde(skip)]`).
impl serde::Serialize for SubGrid {
    fn serialize(&self, w: &mut serde::Writer) {
        serde::Serialize::serialize(&self.data, w);
    }
}

impl<'de> serde::Deserialize<'de> for SubGrid {
    fn deserialize(r: &mut serde::Reader<'de>) -> Result<Self, serde::CodecError> {
        let data = <Vec<f64> as serde::Deserialize>::deserialize(r)?;
        let indexer = default_indexer();
        if data.len() != FIELD_COUNT * indexer.len() {
            return Err(serde::CodecError::Invalid(format!(
                "sub-grid payload has {} cells, expected {}",
                data.len(),
                FIELD_COUNT * indexer.len()
            )));
        }
        Ok(SubGrid { data, indexer })
    }
}

impl Default for SubGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl SubGrid {
    /// A zero-filled sub-grid.
    pub fn new() -> SubGrid {
        let indexer = default_indexer();
        SubGrid { data: vec![0.0; FIELD_COUNT * indexer.len()], indexer }
    }

    /// The index helper (shared by solver kernels).
    #[inline]
    pub fn indexer(&self) -> GridIndexer {
        self.indexer
    }

    /// Immutable view of one field including ghosts.
    #[inline]
    pub fn field(&self, f: Field) -> &[f64] {
        let n = self.indexer.len();
        &self.data[f.idx() * n..(f.idx() + 1) * n]
    }

    /// Mutable view of one field including ghosts.
    #[inline]
    pub fn field_mut(&mut self, f: Field) -> &mut [f64] {
        let n = self.indexer.len();
        &mut self.data[f.idx() * n..(f.idx() + 1) * n]
    }

    /// Two distinct mutable field views (for flux updates that read one
    /// field while writing another).
    pub fn fields_mut2(&mut self, a: Field, b: Field) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b, "fields must differ");
        let n = self.indexer.len();
        let (lo, hi) = if a.idx() < b.idx() { (a, b) } else { (b, a) };
        let (first, rest) = self.data.split_at_mut(hi.idx() * n);
        let lo_slice = &mut first[lo.idx() * n..(lo.idx() + 1) * n];
        let hi_slice = &mut rest[..n];
        if a.idx() < b.idx() {
            (lo_slice, hi_slice)
        } else {
            (hi_slice, lo_slice)
        }
    }

    /// Value at interior-relative coordinates (ghosts addressable).
    #[inline]
    pub fn at(&self, f: Field, i: isize, j: isize, k: isize) -> f64 {
        self.field(f)[self.indexer.idx(i, j, k)]
    }

    /// Set the value at interior-relative coordinates.
    #[inline]
    pub fn set(&mut self, f: Field, i: isize, j: isize, k: isize, v: f64) {
        let idx = self.indexer.idx(i, j, k);
        self.field_mut(f)[idx] = v;
    }

    /// Add to the value at interior-relative coordinates.
    #[inline]
    pub fn add(&mut self, f: Field, i: isize, j: isize, k: isize, v: f64) {
        let idx = self.indexer.idx(i, j, k);
        self.field_mut(f)[idx] += v;
    }

    /// Sum of a field over the interior (× cell volume gives the
    /// conserved total).
    pub fn interior_sum(&self, f: Field) -> f64 {
        let data = self.field(f);
        self.indexer
            .interior()
            .map(|(i, j, k)| data[self.indexer.idx(i, j, k)])
            .sum()
    }

    /// Extract the boundary slab of interior cells that a neighbor in
    /// direction `dir` (each component in {-1, 0, 1}, not all zero)
    /// needs for its ghost layer: `N_GHOST` cells deep on each axis
    /// where `dir` is nonzero, the full interior extent where zero.
    /// Values are returned in row-major order of the slab box.
    pub fn extract_halo(&self, f: Field, dir: (i32, i32, i32)) -> Vec<f64> {
        let (rx, ry, rz) = (
            axis_range_src(dir.0),
            axis_range_src(dir.1),
            axis_range_src(dir.2),
        );
        let mut out =
            Vec::with_capacity(((rx.1 - rx.0) * (ry.1 - ry.0) * (rz.1 - rz.0)) as usize);
        let data = self.field(f);
        for i in rx.0..rx.1 {
            for j in ry.0..ry.1 {
                for k in rz.0..rz.1 {
                    out.push(data[self.indexer.idx(i, j, k)]);
                }
            }
        }
        out
    }

    /// Install a halo slab previously produced by [`SubGrid::extract_halo`]
    /// on the neighbor in direction `dir` (as seen from *this* grid: the
    /// data fills this grid's ghost cells on the `dir` side).
    pub fn apply_halo(&mut self, f: Field, dir: (i32, i32, i32), data: &[f64]) {
        let (rx, ry, rz) = (
            axis_range_dst(dir.0),
            axis_range_dst(dir.1),
            axis_range_dst(dir.2),
        );
        let expect = ((rx.1 - rx.0) * (ry.1 - ry.0) * (rz.1 - rz.0)) as usize;
        assert_eq!(data.len(), expect, "halo slab size mismatch for dir {dir:?}");
        let indexer = self.indexer;
        let field = self.field_mut(f);
        let mut src = data.iter();
        for i in rx.0..rx.1 {
            for j in ry.0..ry.1 {
                for k in rz.0..rz.1 {
                    field[indexer.idx(i, j, k)] = *src.next().expect("checked length");
                }
            }
        }
    }

    /// Number of f64 values a halo slab in direction `dir` carries.
    pub fn halo_len(dir: (i32, i32, i32)) -> usize {
        let ext = |d: i32| if d == 0 { N_SUB } else { N_GHOST };
        ext(dir.0) * ext(dir.1) * ext(dir.2)
    }

    /// All interior cells of every field, field-major then row-major —
    /// the payload of a distributed grid-sync message. The fixed
    /// iteration order makes the round trip through
    /// [`SubGrid::apply_interior`] bit-exact and deterministic.
    pub fn extract_interior(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(FIELD_COUNT * self.indexer.interior_len());
        for f in ALL_FIELDS {
            let data = self.field(f);
            for (i, j, k) in self.indexer.interior() {
                out.push(data[self.indexer.idx(i, j, k)]);
            }
        }
        out
    }

    /// Overwrite every interior cell from a payload produced by
    /// [`SubGrid::extract_interior`]. Ghost cells are untouched.
    pub fn apply_interior(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            FIELD_COUNT * self.indexer.interior_len(),
            "interior payload size mismatch"
        );
        let indexer = self.indexer;
        let mut src = values.iter();
        for f in ALL_FIELDS {
            let field = self.field_mut(f);
            for (i, j, k) in indexer.interior() {
                field[indexer.idx(i, j, k)] = *src.next().expect("checked length");
            }
        }
    }
}

/// Source range (in the *sender's* interior) for a halo in direction `d`.
fn axis_range_src(d: i32) -> (isize, isize) {
    let n = N_SUB as isize;
    let g = N_GHOST as isize;
    match d {
        // Neighbor is on our -d side: it needs our low cells... direction
        // semantics: `dir` is the direction *from the receiver towards
        // the sender*. The sender provides the cells adjacent to the
        // shared face.
        -1 => (n - g, n),
        0 => (0, n),
        1 => (0, g),
        _ => panic!("direction component must be -1, 0, or 1"),
    }
}

/// Destination range (in the *receiver's* ghost region) for direction `d`
/// (the direction from the receiver towards the sender).
fn axis_range_dst(d: i32) -> (isize, isize) {
    let n = N_SUB as isize;
    let g = N_GHOST as isize;
    match d {
        -1 => (-g, 0),
        0 => (0, n),
        1 => (n, n + g),
        _ => panic!("direction component must be -1, 0, or 1"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_views_are_disjoint_and_sized() {
        let mut g = SubGrid::new();
        let n = g.indexer().len();
        assert_eq!(n, 14 * 14 * 14);
        g.field_mut(Field::Rho).fill(1.0);
        g.field_mut(Field::Egas).fill(2.0);
        assert!(g.field(Field::Rho).iter().all(|&v| v == 1.0));
        assert!(g.field(Field::Egas).iter().all(|&v| v == 2.0));
        assert!(g.field(Field::Sx).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fields_mut2_both_orders() {
        let mut g = SubGrid::new();
        {
            let (rho, tau) = g.fields_mut2(Field::Rho, Field::Tau);
            rho[0] = 5.0;
            tau[0] = 7.0;
        }
        {
            let (tau, rho) = g.fields_mut2(Field::Tau, Field::Rho);
            assert_eq!(tau[0], 7.0);
            assert_eq!(rho[0], 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "fields must differ")]
    fn fields_mut2_same_field_panics() {
        let mut g = SubGrid::new();
        let _ = g.fields_mut2(Field::Rho, Field::Rho);
    }

    #[test]
    fn at_set_roundtrip_including_ghosts() {
        let mut g = SubGrid::new();
        g.set(Field::Rho, -2, 0, 9, 3.5);
        assert_eq!(g.at(Field::Rho, -2, 0, 9), 3.5);
        g.add(Field::Rho, -2, 0, 9, 0.5);
        assert_eq!(g.at(Field::Rho, -2, 0, 9), 4.0);
    }

    #[test]
    fn interior_sum_ignores_ghosts() {
        let mut g = SubGrid::new();
        g.field_mut(Field::Rho).fill(1.0); // ghosts included
        assert_eq!(g.interior_sum(Field::Rho), 512.0);
    }

    #[test]
    fn halo_roundtrip_face() {
        // Two grids side by side along +x: B is at +x of A.
        let mut a = SubGrid::new();
        let mut b = SubGrid::new();
        for (i, j, k) in a.indexer().interior() {
            a.set(Field::Rho, i, j, k, (100 * i + 10 * j + k) as f64);
        }
        // B's ghost layer on its -x side comes from A's high-x cells.
        // dir from receiver (B) towards sender (A) is (-1, 0, 0).
        let slab = a.extract_halo(Field::Rho, (-1, 0, 0));
        assert_eq!(slab.len(), SubGrid::halo_len((-1, 0, 0)));
        assert_eq!(slab.len(), N_GHOST * N_SUB * N_SUB);
        b.apply_halo(Field::Rho, (-1, 0, 0), &slab);
        // B's ghost (-1, j, k) must equal A's interior (7, j, k), and
        // (-2, j, k) must equal A's (6, j, k).
        for j in 0..N_SUB as isize {
            for k in 0..N_SUB as isize {
                assert_eq!(b.at(Field::Rho, -1, j, k), a.at(Field::Rho, 7, j, k));
                assert_eq!(b.at(Field::Rho, -2, j, k), a.at(Field::Rho, 6, j, k));
            }
        }
    }

    #[test]
    fn halo_roundtrip_edge_and_corner() {
        let mut a = SubGrid::new();
        let mut b = SubGrid::new();
        for (i, j, k) in a.indexer().interior() {
            a.set(Field::Egas, i, j, k, (i * j * k + 1) as f64);
        }
        // Edge: sender towards +y,+z of receiver.
        let slab = a.extract_halo(Field::Egas, (0, 1, 1));
        assert_eq!(slab.len(), N_SUB * N_GHOST * N_GHOST);
        b.apply_halo(Field::Egas, (0, 1, 1), &slab);
        assert_eq!(b.at(Field::Egas, 3, 8, 8), a.at(Field::Egas, 3, 0, 0));
        assert_eq!(b.at(Field::Egas, 3, 9, 9), a.at(Field::Egas, 3, 1, 1));
        // Corner.
        let slab = a.extract_halo(Field::Egas, (-1, -1, -1));
        assert_eq!(slab.len(), N_GHOST * N_GHOST * N_GHOST);
        b.apply_halo(Field::Egas, (-1, -1, -1), &slab);
        assert_eq!(b.at(Field::Egas, -1, -1, -1), a.at(Field::Egas, 7, 7, 7));
        assert_eq!(b.at(Field::Egas, -2, -2, -2), a.at(Field::Egas, 6, 6, 6));
    }

    #[test]
    fn serde_roundtrip_preserves_values() {
        use serde::{Deserialize, Reader, Serialize, Writer};
        let mut g = SubGrid::new();
        for (n, f) in ALL_FIELDS.into_iter().enumerate() {
            g.set(f, n as isize % 8, 0, 7, 9.25 + n as f64);
        }
        g.set(Field::Rho, -1, 0, 0, -0.0);
        g.set(Field::Tau, 0, 0, 0, f64::MIN_POSITIVE);
        let mut w = Writer::new();
        g.serialize(&mut w);
        let bytes = w.into_vec();
        let back = SubGrid::deserialize(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.indexer(), g.indexer());
        for f in ALL_FIELDS {
            for (a, b) in back.field(f).iter().zip(g.field(f)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{f:?}");
            }
        }
    }

    #[test]
    fn serde_rejects_a_payload_of_the_wrong_length() {
        use serde::{Deserialize, Reader, Serialize, Writer};
        // One field's worth of cells where FIELD_COUNT are due: input
        // from the wire, so an error, not a mis-sized grid.
        let mut w = Writer::new();
        vec![1.0f64; default_indexer().len()].serialize(&mut w);
        let bytes = w.into_vec();
        let err = SubGrid::deserialize(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, serde::CodecError::Invalid(_)), "{err}");
    }

    #[test]
    fn density_like_classification() {
        assert!(Field::Rho.is_density_like());
        assert!(Field::DonorCore.is_density_like());
        assert!(!Field::Egas.is_density_like());
        assert!(!Field::Sx.is_density_like());
        assert_eq!(ALL_FIELDS.len(), FIELD_COUNT);
        for (i, f) in ALL_FIELDS.iter().enumerate() {
            assert_eq!(f.idx(), i);
        }
    }
}
