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

/// Ghost cells per side of the grid the flux sweep reads
/// ([`SubGrid::ghosted`]). The sweep needs reconstructed states in the
/// first ghost cell, whose PPM stencil reaches two cells further —
/// three ghosts total, as in Octo-Tiger (`H_BW = 3`). A leaf's grid in
/// the tree has none.
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
/// fields on an `N_SUB³` interior, struct-of-arrays, field-major and
/// row-major within a field.
///
/// A leaf's grid ([`SubGrid::new`]) is its interior alone: the tree,
/// the wire and the checkpoint all hold that one layout. The flux sweep
/// reads a [`SubGrid::ghosted`] grid instead, the interior inside
/// `N_GHOST` layers of neighbor data, which `octree::halo` builds per
/// leaf from the interiors around it. Every accessor takes
/// interior-relative coordinates, so code that touches the interior
/// alone works on either.
#[derive(Debug, PartialEq)]
pub struct SubGrid {
    data: Vec<f64>,
    indexer: GridIndexer,
}

impl Clone for SubGrid {
    fn clone(&self) -> Self {
        SubGrid { data: self.data.clone(), indexer: self.indexer }
    }

    /// Keeps `self`'s allocation when the layouts match: the driver's
    /// standing RK2 stage memory is copied over, never re-made.
    fn clone_from(&mut self, src: &Self) {
        self.data.clone_from(&src.data);
        self.indexer = src.indexer;
    }
}

serde::impl_codec_enum_unit!(Field {
    Rho, Sx, Sy, Sz, Egas, Tau, Lx, Ly, Lz,
    AccretorCore, AccretorEnv, DonorCore, DonorEnv, Atmosphere,
});

// Only the cell data of a leaf grid travels, so a grid's bytes are its
// interior values and nothing else; the indexer is geometry every
// locality can rebuild.
impl serde::Serialize for SubGrid {
    fn serialize(&self, w: &mut serde::Writer) {
        debug_assert_eq!(self.indexer.ghost, 0, "only a leaf's interior travels");
        serde::Serialize::serialize(&self.data, w);
    }
}

impl<'de> serde::Deserialize<'de> for SubGrid {
    fn deserialize(r: &mut serde::Reader<'de>) -> Result<Self, serde::CodecError> {
        let data = <Vec<f64> as serde::Deserialize>::deserialize(r)?;
        let indexer = GridIndexer::new(N_SUB, 0);
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
    /// A zero-filled leaf grid: the interior alone.
    pub fn new() -> SubGrid {
        Self::zeroed(GridIndexer::new(N_SUB, 0))
    }

    /// A zero-filled grid with `N_GHOST` ghost layers around the
    /// interior — what the flux sweep reads.
    pub fn ghosted() -> SubGrid {
        Self::zeroed(GridIndexer::new(N_SUB, N_GHOST))
    }

    fn zeroed(indexer: GridIndexer) -> SubGrid {
        SubGrid { data: vec![0.0; FIELD_COUNT * indexer.len()], indexer }
    }

    /// The index helper (shared by solver kernels).
    #[inline]
    pub fn indexer(&self) -> GridIndexer {
        self.indexer
    }

    /// Immutable view of one field, ghosts included on a ghosted grid.
    #[inline]
    pub fn field(&self, f: Field) -> &[f64] {
        let n = self.indexer.len();
        &self.data[f.idx() * n..(f.idx() + 1) * n]
    }

    /// Mutable view of one field, ghosts included on a ghosted grid.
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

    /// Value at interior-relative coordinates (ghosts addressable on a
    /// ghosted grid).
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

    /// Overwrite the cells of `map`'s box — all fields — with the cells
    /// of `src` it maps them to. Each grid is addressed by its own
    /// layout, so `src` may be a leaf's interior-only grid or a ghosted
    /// one.
    pub fn copy_box(&mut self, map: &BoxMap, src: &SubGrid) {
        self.move_box(map, src, |plane, at, _| plane[at]);
    }

    /// As [`SubGrid::copy_box`], but each cell receives the mean of the
    /// 2×2×2 block of `src` whose low corner it is mapped to — the
    /// conservative restriction a ghost cell over a finer neighbor
    /// needs. The summation order (from `0.0`, x-major) is part of the
    /// bit-identity contract.
    pub fn average_box(&mut self, map: &BoxMap, src: &SubGrid) {
        self.move_box(map, src, |plane, at, d| {
            let mut sum = 0.0;
            for corner in [0, d, d * d, d * d + d] {
                sum += plane[at + corner];
                sum += plane[at + corner + 1];
            }
            sum / 8.0
        });
    }

    /// The row loop behind both: `cell(plane, at, dim)` turns the mapped
    /// source cell, at flat index `at` of its field plane of row length
    /// `dim`, into a value.
    fn move_box(
        &mut self,
        map: &BoxMap,
        src: &SubGrid,
        cell: impl Fn(&[f64], usize, usize) -> f64,
    ) {
        let (to, from) = (self.indexer, src.indexer);
        let [is, js, ks] = [0, 1, 2].map(|a| &map.src[a][..map.len[a]]);
        let [i0, j0, k0] = map.dst;
        let planes = self.data.chunks_exact_mut(to.len());
        for (dst, src) in planes.zip(src.data.chunks_exact(from.len())) {
            for (a, &i) in is.iter().enumerate() {
                for (b, &j) in js.iter().enumerate() {
                    let at = to.idx(i0 + a as isize, j0 + b as isize, k0);
                    let row = from.idx(i as isize, j as isize, 0);
                    for (out, &k) in dst[at..at + ks.len()].iter_mut().zip(ks) {
                        *out = cell(src, row + k, from.dim());
                    }
                }
            }
        }
    }
}

/// First cell and cell count, along one axis, of the ghost box on the
/// `d` side (`d < 0` low, `d > 0` high, `0` the interior extent).
pub(crate) const fn ghost_span(d: i32) -> (isize, usize) {
    if d < 0 {
        (-(N_GHOST as isize), N_GHOST)
    } else if d == 0 {
        (0, N_SUB)
    } else {
        (N_SUB as isize, N_GHOST)
    }
}

/// Where one box of cells reads from: per axis, a run of cells of this
/// grid and, for each, the interior cell of a source grid. Repeated
/// source cells inject a coarser neighbor or clamp at an outflow wall,
/// descending ones mirror at a reflecting wall, stride-2 ones address a
/// finer neighbor for [`SubGrid::average_box`]; the same-level copy is
/// the plain shift of [`BoxMap::same_level`]. Cells are
/// interior-relative coordinates; each grid turns them into storage
/// indices by its own layout when the box moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxMap {
    /// Per axis: first cell of the run, and its length.
    dst: [isize; 3],
    len: [usize; 3],
    /// Per axis: the interior source cell of each cell of the run.
    src: [[usize; N_SUB]; 3],
}

impl BoxMap {
    /// Map the cells `span[a] = (first, count)` (interior-relative, per
    /// axis; at most `N_SUB` a run) to the interior source cells
    /// `src(axis, cell)`.
    pub(crate) fn new(span: [(isize, usize); 3], src: impl Fn(usize, isize) -> isize) -> BoxMap {
        let mut map = BoxMap {
            dst: span.map(|(first, _)| first),
            len: span.map(|(_, count)| count),
            src: [[0; N_SUB]; 3],
        };
        for (a, &(first, count)) in span.iter().enumerate() {
            debug_assert!(
                first >= -(N_GHOST as isize) && first + count as isize <= (N_SUB + N_GHOST) as isize,
                "axis {a} run {:?} leaves the ghosted grid",
                (first, count)
            );
            for (n, cell) in (first..first + count as isize).enumerate() {
                let from = src(a, cell);
                debug_assert!((0..N_SUB as isize).contains(&from), "source cell {from} is a ghost");
                map.src[a][n] = from as usize;
            }
        }
        map
    }

    /// The whole ghost box on the `dir` side, read from the facing
    /// interior cells of a same-level neighbor in that direction;
    /// `(0, 0, 0)` maps the interior onto itself.
    pub fn same_level(dir: (i32, i32, i32)) -> BoxMap {
        let step = [dir.0, dir.1, dir.2].map(|d| d.signum() as isize * N_SUB as isize);
        BoxMap::new([dir.0, dir.1, dir.2].map(ghost_span), |a, cell| cell - step[a])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_views_are_disjoint_and_sized() {
        assert_eq!(SubGrid::new().field(Field::Rho).len(), 8 * 8 * 8);
        let mut g = SubGrid::ghosted();
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
        let mut g = SubGrid::ghosted();
        g.set(Field::Rho, -2, 0, 9, 3.5);
        assert_eq!(g.at(Field::Rho, -2, 0, 9), 3.5);
        g.add(Field::Rho, -2, 0, 9, 0.5);
        assert_eq!(g.at(Field::Rho, -2, 0, 9), 4.0);
    }

    #[test]
    fn interior_sum_ignores_ghosts() {
        let mut g = SubGrid::ghosted();
        g.field_mut(Field::Rho).fill(1.0); // ghosts included
        assert_eq!(g.interior_sum(Field::Rho), 512.0);
    }

    /// A leaf grid whose cell `(i, j, k)` of field `n` holds
    /// `1000 n + 100 i + 10 j + k`.
    fn numbered() -> SubGrid {
        let mut g = SubGrid::new();
        for (n, f) in ALL_FIELDS.into_iter().enumerate() {
            for (i, j, k) in g.indexer().interior() {
                g.set(f, i, j, k, (1000 * n as isize + 100 * i + 10 * j + k) as f64);
            }
        }
        g
    }

    /// A fresh ghosted grid whose `dir` ghost box was copied from `a`, a
    /// same-level neighbor in that direction.
    fn exchanged(a: &SubGrid, dir: (i32, i32, i32)) -> SubGrid {
        let mut b = SubGrid::ghosted();
        b.copy_box(&BoxMap::same_level(dir), a);
        b
    }

    #[test]
    fn halo_roundtrip_face() {
        // Two grids side by side along +x: B is at +x of A, so B's ghost
        // layer on its -x side comes from A's high-x cells; the
        // direction from receiver (B) towards sender (A) is (-1, 0, 0).
        let a = numbered();
        let b = exchanged(&a, (-1, 0, 0));
        // B's ghost (-1, j, k) must equal A's interior (7, j, k), and
        // (-2, j, k) must equal A's (6, j, k) — in every field.
        for f in ALL_FIELDS {
            for j in 0..N_SUB as isize {
                for k in 0..N_SUB as isize {
                    assert_eq!(b.at(f, -1, j, k), a.at(f, 7, j, k));
                    assert_eq!(b.at(f, -2, j, k), a.at(f, 6, j, k));
                }
            }
        }
        // Nothing but that ghost box was written (its source cells, at
        // i >= 5, are all non-zero).
        let written = b.data.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(written, FIELD_COUNT * N_GHOST * N_SUB * N_SUB);
    }

    #[test]
    fn halo_roundtrip_edge_and_corner() {
        let a = numbered();
        // Edge: sender towards +y,+z of receiver.
        let b = exchanged(&a, (0, 1, 1));
        assert_eq!(b.at(Field::Egas, 3, 8, 8), a.at(Field::Egas, 3, 0, 0));
        assert_eq!(b.at(Field::Egas, 3, 9, 9), a.at(Field::Egas, 3, 1, 1));
        // Corner.
        let b = exchanged(&a, (-1, -1, -1));
        assert_eq!(b.at(Field::Egas, -1, -1, -1), a.at(Field::Egas, 7, 7, 7));
        assert_eq!(b.at(Field::Tau, -2, -2, -2), a.at(Field::Tau, 6, 6, 6));
        // The null direction is the interior onto itself, out of and
        // back into a leaf's layout.
        let b = exchanged(&a, (0, 0, 0));
        for (i, j, k) in a.indexer().interior() {
            assert_eq!(b.at(Field::Tau, i, j, k), a.at(Field::Tau, i, j, k));
        }
        let mut back = SubGrid::new();
        back.copy_box(&BoxMap::same_level((0, 0, 0)), &b);
        assert_eq!(back, a);
    }

    #[test]
    fn box_maps_repeat_reverse_and_average() {
        let a = numbered();
        let whole = [-1, 0, 0].map(ghost_span);
        // Clamp x to cell 0, mirror y, halve z (a coarse injection).
        let map = BoxMap::new(whole, |axis, cell| match axis {
            0 => 0,
            1 => 7 - cell,
            _ => cell / 2,
        });
        let mut b = SubGrid::ghosted();
        b.copy_box(&map, &a);
        assert_eq!(b.at(Field::Sx, -3, 2, 5), a.at(Field::Sx, 0, 5, 2));
        assert_eq!(b.at(Field::Lz, -1, 7, 7), a.at(Field::Lz, 0, 0, 3));
        // A sub-box writes only its own cells: the x = -1 layer, upper
        // y half, averaged from 2×2×2 blocks.
        let mut b = SubGrid::ghosted();
        let map = BoxMap::new([(-1, 1), (4, 4), (0, 8)], |axis, cell| match axis {
            0 => 6,
            1 => 2 * (cell - 4),
            _ => 2 * (cell / 2),
        });
        b.average_box(&map, &a);
        // Block at (6, 2, 4): mean of 100 i + 10 j + k over {6,7}×{2,3}×{4,5}.
        assert_eq!(b.at(Field::Rho, -1, 5, 4), 650.0 + 25.0 + 4.5);
        assert_eq!(b.at(Field::Sx, -1, 5, 5), 1000.0 + 650.0 + 25.0 + 4.5);
        assert_eq!(b.at(Field::Rho, -1, 3, 4), 0.0);
        assert_eq!(b.at(Field::Rho, -2, 5, 4), 0.0);
    }

    #[test]
    fn serde_roundtrip_preserves_values() {
        use serde::{Deserialize, Reader, Serialize, Writer};
        let mut g = SubGrid::new();
        for (n, f) in ALL_FIELDS.into_iter().enumerate() {
            g.set(f, n as isize % 8, 0, 7, 9.25 + n as f64);
        }
        g.set(Field::Rho, 0, 0, 1, -0.0);
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
        vec![1.0f64; N_SUB * N_SUB * N_SUB].serialize(&mut w);
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
