//! Distributed halo exchange across the simulated cluster, as the
//! driver does it: a leaf's grid — its interior alone — travels as a
//! parcel over either parcelport, and the receiver moves the ghost box
//! out of it into a ghosted grid with the fill's own all-fields box
//! copy — bit-exact in all 26 directions. And the leaves a leaf's ghost
//! gather reads are exactly the leaves sharing a face with it, all of
//! them among the sources its interface plan lists.

use amt::GlobalId;
use octotiger::Scenario;
use octree::geometry::Domain;
use octree::halo::{BoundaryCondition, InterfacePlan};
use octree::subgrid::{BoxMap, SubGrid, ALL_FIELDS};
use octree::{MortonKey, Octree};
use parcelport::cluster::Cluster;
use parcelport::netmodel::TransportKind;
use parcelport::parcel::ActionId;
use std::sync::{Arc, Mutex};

/// What the driver's halo push carries: where the sender lies, seen
/// from the receiver, and the sender's leaf grid.
struct HaloMsg {
    dir: (i32, i32, i32),
    grid: SubGrid,
}

serde::impl_codec_struct!(HaloMsg { dir, grid });

impl HaloMsg {
    fn from_neighbor(dir: (i32, i32, i32), sender: &SubGrid) -> HaloMsg {
        HaloMsg { dir, grid: sender.clone() }
    }

    /// The receiving side: fill the ghost box facing the sender.
    fn apply(&self, receiver: &mut SubGrid) {
        receiver.copy_box(&BoxMap::same_level(self.dir), &self.grid);
    }
}

/// A leaf grid with every field painted from `f(field, i, j, k)`.
fn painted(f: impl Fn(usize, isize, isize, isize) -> f64) -> SubGrid {
    let mut g = SubGrid::new();
    for (n, field) in ALL_FIELDS.into_iter().enumerate() {
        for (i, j, k) in g.indexer().interior() {
            g.set(field, i, j, k, f(n, i, j, k));
        }
    }
    g
}

fn exchange_over(kind: TransportKind) {
    // Locality 0 owns grid A, locality 1 owns grid B (B at +x of A).
    let a = painted(|n, i, j, k| (1000 * n as isize + 100 * i + 10 * j + k) as f64 + 0.5);

    let cluster = Cluster::builder().localities(2).threads_per(2).transport(kind).build();
    let received: Arc<Mutex<Option<HaloMsg>>> = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&received);
    let halo = cluster.register_action(ActionId(7), move |_rt, _id, msg: HaloMsg| {
        *sink.lock().unwrap() = Some(msg);
    });

    // A sends its interior to B (direction from B towards A is -x).
    let msg = HaloMsg::from_neighbor((-1, 0, 0), &a);
    cluster.locality(0).send_action(halo, 1, GlobalId(1), &msg).expect("halo send");
    cluster.wait_quiescent();

    // B fills its -x ghost box from what arrived; it must equal A's
    // facing interior cells, in every field.
    let msg = received.lock().unwrap().take().expect("halo must arrive");
    let mut b = SubGrid::ghosted();
    msg.apply(&mut b);
    for f in ALL_FIELDS {
        for j in 0..8 {
            for k in 0..8 {
                assert_eq!(
                    b.at(f, -1, j, k),
                    a.at(f, 7, j, k),
                    "{f:?} ghost mismatch over {kind} at ({j},{k})"
                );
                assert_eq!(b.at(f, -3, j, k), a.at(f, 5, j, k));
            }
        }
    }
}

#[test]
fn halo_exchange_over_mpi() {
    exchange_over(TransportKind::Mpi);
}

#[test]
fn halo_exchange_over_libfabric() {
    exchange_over(TransportKind::Libfabric);
}

#[test]
fn all_26_directions_roundtrip_over_the_wire() {
    // Every direction's ghost box must survive codec + transport + box
    // copy bit-exactly.
    let a = painted(|n, i, j, k| ((1 + n as isize * 131 + i * 31 + j * 7 + k) as f64).sin());
    let cluster = Cluster::builder().localities(2).transport(TransportKind::Libfabric).build();
    let got: Arc<Mutex<Vec<HaloMsg>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let halo = cluster.register_action(ActionId(8), move |_rt, _id, msg: HaloMsg| {
        sink.lock().unwrap().push(msg);
    });
    let mut sent = 0;
    for dx in -1i32..=1 {
        for dy in -1i32..=1 {
            for dz in -1i32..=1 {
                if (dx, dy, dz) == (0, 0, 0) {
                    continue;
                }
                let msg = HaloMsg::from_neighbor((dx, dy, dz), &a);
                cluster.locality(0).send_action(halo, 1, GlobalId(0), &msg).expect("halo send");
                sent += 1;
            }
        }
    }
    cluster.wait_quiescent();
    let got = got.lock().unwrap();
    assert_eq!(got.len(), sent);
    for msg in got.iter() {
        let mut b = SubGrid::ghosted();
        msg.apply(&mut b);
        // Per axis: the ghost cells on the `d` side and the sender's
        // cells they face.
        let facing = |d: i32| match d {
            -1 => (-3..0, 8),
            0 => (0..8, 0),
            _ => (8..11, -8),
        };
        let (dx, dy, dz) = msg.dir;
        let ((is, di), (js, dj), (ks, dk)) = (facing(dx), facing(dy), facing(dz));
        let mut cells = 0;
        for f in ALL_FIELDS {
            for i in is.clone() {
                for j in js.clone() {
                    for k in ks.clone() {
                        let (got, sent) = (b.at(f, i, j, k), a.at(f, i + di, j + dj, k + dk));
                        assert_eq!(got.to_bits(), sent.to_bits(), "{f:?} ({i},{j},{k})");
                        cells += 1;
                    }
                }
            }
        }
        // ... and nothing else was written (the sine of a non-zero
        // integer is never zero).
        let written: usize =
            ALL_FIELDS.iter().map(|&f| b.field(f).iter().filter(|&&v| v != 0.0).count()).sum();
        assert_eq!(written, cells, "{:?}", msg.dir);
    }
}

/// The leaves whose interiors the gather of `leaf` through `plan` reads,
/// observed from outside: every leaf's interior is painted with its own
/// index in all fields (copies, injections and 8-cell averages of one
/// leaf's cells all reproduce a small integer exactly), then the
/// distinct values in the gathered ghosts name the leaves that were
/// read. The scratch starts as NaN, and the cells the gather leaves
/// alone — exactly the edge and corner ghosts — stay NaN.
fn leaves_read_by_fill(tree: &Octree, leaf: MortonKey, plan: &InterfacePlan) -> Vec<MortonKey> {
    let leaves = tree.leaves();
    let mut tagged = tree.clone();
    for (n, &key) in leaves.iter().enumerate() {
        let grid = tagged.node_mut(key).unwrap().grid.as_mut().unwrap();
        for f in ALL_FIELDS {
            grid.field_mut(f).fill(n as f64);
        }
    }
    let mut grid = SubGrid::ghosted();
    for f in ALL_FIELDS {
        grid.field_mut(f).fill(f64::NAN);
    }
    plan.gather(&tagged, leaf, &mut grid);
    let indexer = grid.indexer();
    let mut read = std::collections::BTreeSet::new();
    for f in ALL_FIELDS {
        for (i, j, k) in indexer.all().filter(|&(i, j, k)| !indexer.is_interior(i, j, k)) {
            let tag = grid.at(f, i, j, k);
            let outside = [i, j, k].iter().filter(|&&c| !(0..8).contains(&c)).count();
            if outside > 1 {
                assert!(tag.is_nan(), "{leaf:?} {f:?} ({i},{j},{k}): an edge or corner ghost written");
                continue;
            }
            assert_eq!(tag.fract(), 0.0, "{leaf:?} {f:?} ({i},{j},{k}) mixes leaves: {tag}");
            read.insert(leaves[tag as usize]);
        }
    }
    read.remove(&leaf);
    read.into_iter().collect()
}

/// Two leaves share a face: their boxes, compared at the finer level,
/// touch along one axis and overlap with positive length along the
/// other two.
fn share_a_face(a: MortonKey, b: MortonKey) -> bool {
    let level = a.level.max(b.level);
    let span = |key: MortonKey| {
        let (x, y, z) = key.coords();
        let size = 1i64 << (level - key.level);
        [x, y, z].map(|c| (c as i64 * size, (c as i64 + 1) * size))
    };
    let (sa, sb) = (span(a), span(b));
    let touching = (0..3).filter(|&ax| sa[ax].1 == sb[ax].0 || sb[ax].1 == sa[ax].0).count();
    let overlapping = (0..3).filter(|&ax| sa[ax].0 < sb[ax].1 && sb[ax].0 < sa[ax].1).count();
    touching == 1 && overlapping == 2
}

#[test]
fn a_fill_reads_exactly_its_face_sources() {
    // The gather of a leaf reads exactly the leaves sharing a face with
    // it — the flux sweep reads face ghosts only — and those are among
    // the sources the plan lists, which the push plan and the resident
    // sets project: on the corner-refined `star_amr` tree and on a
    // half-refined one (coarse faces tiled by four fine children), under
    // both boundary conditions.
    let mut half = Octree::new(Domain::new(16.0));
    half.refine_where(2, |d, k| d.node_origin(k).x < 0.0);
    for tree in [Scenario::star_amr().tree, half] {
        tree.check_invariants();
        let leaves = tree.leaves();
        for bc in [BoundaryCondition::Outflow, BoundaryCondition::Reflect] {
            let plan = InterfacePlan::new(&tree, bc);
            for &leaf in &leaves {
                let mut faces: Vec<MortonKey> =
                    leaves.iter().copied().filter(|&other| share_a_face(leaf, other)).collect();
                faces.sort();
                let read = leaves_read_by_fill(&tree, leaf, &plan);
                assert_eq!(read, faces, "{leaf:?} {bc:?}");
                let planned = plan.sources(leaf);
                let within = read.iter().all(|s| planned.contains(s));
                assert!(within, "{leaf:?} {bc:?}: {read:?} ⊄ {planned:?}");
            }
        }
    }
}
