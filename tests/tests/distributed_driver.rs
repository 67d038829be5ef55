//! Distributed determinism suite: the sharded TVD-RK2 driver must be
//! **bit-identical** to the single-locality reference at 1, 2, and 4
//! localities over both parcelports, on a hydro-only scenario and a
//! self-gravitating one, both with a level-2 AMR corner (so sub-grids,
//! halo traffic, and multipole exchange all cross refinement jumps and
//! shard boundaries). Comparisons are `f64::to_bits` — no tolerances.
//!
//! Also exercises the quiescence machinery under the distributed
//! driver's real traffic shape: many ~57 KB interior-sized parcels in
//! flight at once (the libfabric in-flight counter regression test).

use integration_tests::assert_trees_bit_identical;
use octotiger::diagnostics::totals;
use octotiger::regrid::RegridPolicy;
use octotiger::scenarios::state_digest;
use octotiger::{DistributedDriver, Scenario, Simulation};
use proptest::prelude::*;
use octree::tree::Octree;
use parcelport::cluster::Cluster;
use parcelport::netmodel::TransportKind;
use std::sync::Arc;

fn assert_totals_bit_identical(a: &Octree, b: &Octree, tag: &str) {
    let (ta, tb) = (totals(a, None), totals(b, None));
    assert_eq!(ta.mass.to_bits(), tb.mass.to_bits(), "{tag}: mass");
    for axis in 0..3 {
        assert_eq!(
            ta.momentum.to_array()[axis].to_bits(),
            tb.momentum.to_array()[axis].to_bits(),
            "{tag}: momentum[{axis}]"
        );
        assert_eq!(
            ta.angular.to_array()[axis].to_bits(),
            tb.angular.to_array()[axis].to_bits(),
            "{tag}: angular[{axis}]"
        );
    }
    assert_eq!(ta.kinetic.to_bits(), tb.kinetic.to_bits(), "{tag}: kinetic");
    assert_eq!(ta.internal.to_bits(), tb.internal.to_bits(), "{tag}: internal");
    assert_eq!(ta.scalars.to_bits(), tb.scalars.to_bits(), "{tag}: scalars");
}

/// A facade-built `Simulation` owns every leaf: whatever it has run —
/// halo fills, moment passes, regrid rounds, dt reduces — no parcel may have
/// been built for a peer that does not exist.
fn assert_sent_nothing(sim: &Simulation, tag: &str) {
    let m = sim.cluster().metrics();
    for counter in [
        "driver/halo/parcels_tx",
        "driver/moments/parcels_tx",
        "driver/regrid/parcels_tx",
        "driver/dt/parcels_tx",
        "parcelport/mpi/parcels_tx",
    ] {
        assert_eq!(m.get(counter), 0, "{tag}: {counter}");
    }
}

/// Run the reference and the distributed driver `steps` steps from the
/// same scenario and demand bitwise agreement of every per-step dt, the
/// final state, and the conserved totals.
fn check_matrix(make: fn() -> Scenario, steps: usize, localities: &[usize]) {
    let mut reference = Simulation::new(make());
    let mut ref_dts = Vec::with_capacity(steps);
    for _ in 0..steps {
        ref_dts.push(reference.step());
    }
    assert_sent_nothing(&reference, make().name);

    // The facade's worker count comes from `config.threads`; a 2-worker
    // loopback must land on the same bits as the default one.
    let mut two_workers = make();
    two_workers.config.threads = 2;
    let mut sim = Simulation::new(two_workers);
    assert_eq!(sim.runtime().scheduler().n_threads(), 2);
    for (s, &dt_ref) in ref_dts.iter().enumerate() {
        assert_eq!(sim.step().to_bits(), dt_ref.to_bits(), "2 workers: dt of step {s}");
    }
    assert_trees_bit_identical(sim.tree(), reference.tree(), "2 workers");

    for &n in localities {
        for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
            let tag = format!("{} x{} {kind}", make().name, n);
            let cluster = Arc::new(
                Cluster::builder().localities(n).threads_per(2).transport(kind).build(),
            );
            let mut dist = DistributedDriver::builder(make(), cluster).build().expect("driver");
            for (s, &dt_ref) in ref_dts.iter().enumerate() {
                let dt = dist.step().expect("step");
                assert_eq!(dt.to_bits(), dt_ref.to_bits(), "{tag}: dt of step {s}");
            }
            let assembled = dist.assemble();
            assert_trees_bit_identical(&assembled, reference.tree(), &tag);
            assert_totals_bit_identical(&assembled, reference.tree(), &tag);
            // The fabric must be fully drained after the step's last
            // exchange round.
            assert_eq!(dist.cluster().transport().in_flight(), 0, "{tag}: in flight");
            if n > 1 {
                let m = dist.cluster().metrics();
                assert!(m.get("driver/halo/parcels_tx") > 0, "{tag}: no halo traffic");
            }
        }
    }
}

#[test]
fn hydro_amr_bit_identical_at_1_2_4_localities_both_transports() {
    check_matrix(Scenario::sod_amr, 3, &[1, 2, 4]);
}

#[test]
fn gravity_amr_bit_identical_at_1_2_4_localities_both_transports() {
    // One step (= two full FMM solves + two exchanges per driver): the
    // debug-mode FMM dominates the suite's runtime, and the multi-step
    // mirror-staleness invariant is covered by the hydro matrix above.
    check_matrix(Scenario::star_amr, 1, &[1, 2, 4]);
}

#[test]
fn moment_traffic_flows_when_gravity_is_on() {
    let cluster = Arc::new(
        Cluster::builder()
            .localities(2)
            .threads_per(2)
            .transport(TransportKind::Libfabric)
            .build(),
    );
    let mut dist =
        DistributedDriver::builder(Scenario::star_amr(), cluster).build().expect("driver");
    dist.step().expect("step");
    let m = dist.cluster().metrics();
    assert!(m.get("driver/moments/parcels_tx") > 0);
    assert!(m.get("driver/moments/bytes_tx") > 0);
    // The transport-level aliases the bench bins read must agree that
    // bytes moved: the driver's counters are payload accounting, the
    // parcelport's are wire accounting.
    assert!(m.get("parcelport/libfabric/bytes_tx") >= m.get("driver/moments/bytes_tx"));
}

/// A moment parcel carries one leaf's 512 cell masses: 4 149 B on the
/// wire (`HEADER_BYTES`, the sender, the epoch, the key and 4 096 B of
/// masses), one per leaf and peer, on both transports.
#[test]
fn a_moment_parcel_carries_one_leafs_masses() {
    for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
        let cluster = Arc::new(
            Cluster::builder().localities(2).threads_per(2).transport(kind).build(),
        );
        let dist =
            DistributedDriver::builder(Scenario::star_amr(), cluster).build().expect("driver");
        dist.solve_gravity().expect("solve");
        let m = dist.cluster().metrics();
        let parcels = m.get("driver/moments/parcels_tx");
        assert_eq!(parcels, dist.assemble().leaves().len() as u64, "{kind}: one parcel a leaf");
        assert_eq!(m.get("driver/moments/bytes_tx"), 4_149 * parcels, "{kind}: bytes");
    }
}

/// Every parcel on the wire belongs to a named driver channel: over a
/// two-locality run that proposes a regrid, solves gravity and
/// rebalances, the transport's parcel and byte counts are the sums of
/// the driver's per-channel ones, on both transports. The driver counts
/// `HEADER_BYTES` + payload, which is `Parcel::wire_size`.
#[test]
fn every_wire_parcel_belongs_to_a_driver_channel() {
    for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
        let mut scenario = Scenario::single_star(2);
        // Proposals go round every step; none can refine past level 2.
        scenario.config.regrid =
            Some(RegridPolicy { base_level: 2, max_level: 2, cadence: 1, ..test_policy() });
        let cluster = Arc::new(
            Cluster::builder().localities(2).threads_per(2).transport(kind).build(),
        );
        let mut dist = DistributedDriver::builder(scenario, cluster)
            .skewed_partition(900)
            .build()
            .expect("driver");
        dist.step().expect("step");
        assert!(dist.rebalance().expect("rebalance") >= 1, "{kind}: the skew must move leaves");
        dist.step().expect("step");
        let m = dist.cluster().metrics();
        let units = [("parcels_tx", "migrated_parcels"), ("bytes_tx", "migrated_bytes")];
        for (unit, migrated) in units {
            let channels: Vec<u64> = ["halo", "moments", "regrid", "dt"]
                .iter()
                .map(|ch| m.get(&format!("driver/{ch}/{unit}")))
                .chain([m.get(&format!("driver/{migrated}"))])
                .collect();
            assert!(channels.iter().all(|&c| c > 0), "{kind}: a silent channel: {channels:?}");
            assert_eq!(
                m.get(&format!("parcelport/{}/{unit}", kind.as_str())),
                channels.iter().sum::<u64>(),
                "{kind}: {unit}"
            );
        }
    }
}

/// The two AMR trees every matrix above starts from, pinned bit for
/// bit: a builder that moves may not move a bit.
#[test]
fn the_amr_scenarios_keep_their_initial_bits() {
    assert_eq!(state_digest(&Scenario::sod_amr().tree), 0xae28_6e84_fff6_e8f6);
    assert_eq!(state_digest(&Scenario::star_amr().tree), 0x048b_d6a9_4214_1826);
}

/// A `Config` out of range is an `Err` from `build()`, not an unwind
/// out of a function that returns `Result`.
#[test]
fn invalid_config_is_an_error_from_build() {
    let cluster = Arc::new(Cluster::builder().localities(2).build());
    let mut scenario = Scenario::sod_amr();
    scenario.config.cfl = 1.5;
    let built = DistributedDriver::builder(scenario, cluster).build();
    let err = built.err().expect("cfl = 1.5 must not build");
    assert!(matches!(&err, util::Error::Driver(why) if why.contains("CFL")), "{err}");
}

/// The regrid policy the dynamic-AMR tests run: hot (ρ = 1) level-1
/// leaves refine to level 2, nothing coarsens (the cold side's parents
/// never have eight cold *leaf* children on this tree), so the leaf
/// count grows once and then the proposal collective goes trivial. A
/// pass every second step.
fn test_policy() -> RegridPolicy {
    RegridPolicy {
        rho_ref: 0.5,
        ratio: 4.0,
        base_level: 1,
        max_level: 2,
        coarsen_fraction: 0.5,
        cadence: 2,
    }
}

/// `sod_amr` with dynamic regridding on the given cadence.
fn sod_amr_regrid(cadence: usize) -> Scenario {
    let mut s = Scenario::sod_amr();
    s.config.regrid = Some(RegridPolicy { cadence, ..test_policy() });
    s
}

/// ISSUE 10 tentpole: a distributed run with dynamic regrid enabled is
/// bit-identical to the single-locality `Simulation` with the same
/// `RegridPolicy` at 1/2/4 localities over both transports. The first
/// collective (before step 2) is non-trivial — the tree refines and the
/// shard map repartitions to a successor epoch — and the second (before
/// step 4) takes the trivial fast path.
#[test]
fn distributed_regrid_bit_identical_at_1_2_4_localities_both_transports() {
    // Prove the scenario actually regrids (otherwise the matrix is
    // vacuous): 5 reference steps on cadence 2 must grow the tree.
    let mut probe = Simulation::new(sod_amr_regrid(2));
    let before = probe.tree().leaf_count();
    for _ in 0..5 {
        probe.step();
    }
    assert!(probe.tree().leaf_count() > before, "policy must trigger refinement");

    check_matrix(|| sod_amr_regrid(2), 5, &[1, 2, 4]);
}

/// The facade's regrid is the serial reference: a facade-built
/// `Simulation` crosses a cadence-triggered, non-trivial regrid without
/// putting a parcel on the fabric and lands on the state of serial
/// `regrid::regrid` applied to the same tree, stepped on from there as
/// a static tree.
#[test]
fn facade_regrid_lands_on_the_serial_regrid_and_sends_nothing() {
    let mut sim = Simulation::new(sod_amr_regrid(2));
    sim.step();
    sim.step();
    let mut tree = sim.tree().clone();
    let stats = octotiger::regrid::regrid(&mut tree, &test_policy());
    assert!(stats.refined > 0, "the regrid ahead must be non-trivial");
    let config = Scenario::sod_amr().config;
    let mut reference = Simulation::new(Scenario { name: "regridded", tree, config, binary: None });

    let dt = sim.step(); // steps = 2: the cadence fires first
    assert_eq!(dt.to_bits(), reference.step().to_bits());
    assert_eq!(sim.cluster().metrics().get("driver/regrids"), 1);
    assert_trees_bit_identical(sim.tree(), reference.tree(), "facade vs serial regrid");
    assert_eq!(
        octotiger::scenarios::state_digest(sim.tree()),
        octotiger::scenarios::state_digest(reference.tree())
    );
    assert_sent_nothing(&sim, "facade regrid");
}

/// Dynamic regrid bumps the epoch and reports it through the metrics.
#[test]
fn regrid_repartitions_to_a_successor_epoch() {
    let cluster = Arc::new(Cluster::builder().localities(2).threads_per(2).build());
    let mut dist = DistributedDriver::builder(sod_amr_regrid(2), cluster).build().unwrap();
    assert_eq!(dist.epoch(), 0);
    for _ in 0..4 {
        dist.step().unwrap();
    }
    assert_eq!(dist.epoch(), 1, "one non-trivial regrid, one trivial fast path");
    let m = dist.cluster().metrics();
    assert_eq!(m.get("driver/regrids"), 1);
    assert_eq!(m.get("driver/stale_epoch_drops"), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random regrid policies and cadences stay bit-identical between
    /// the reference and the distributed driver at 2 and 4 localities
    /// over both transports (the deterministic matrix above covers the
    /// 1-locality loopback).
    #[test]
    fn random_regrid_policies_stay_bit_identical(seed in any::<u64>()) {
        let policy = RegridPolicy {
            rho_ref: 0.2 + (seed & 0xF) as f64 / 20.0,
            ratio: 2.0 + ((seed >> 4) & 0x3) as f64,
            base_level: 1,
            max_level: 2,
            coarsen_fraction: 0.3 + ((seed >> 6) & 0x7) as f64 / 20.0,
            cadence: 1 + ((seed >> 9) % 3) as usize,
        };
        let make = || {
            let mut s = Scenario::sod_amr();
            s.config.regrid = Some(policy);
            s
        };
        let mut reference = Simulation::new(make());
        let mut ref_dts = Vec::new();
        for _ in 0..3 {
            ref_dts.push(reference.step());
        }
        for n in [2usize, 4] {
            for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
                let cluster = Arc::new(
                    Cluster::builder().localities(n).threads_per(2).transport(kind).build(),
                );
                let mut dist =
                    DistributedDriver::builder(make(), cluster).build().expect("driver");
                for &dt_ref in &ref_dts {
                    let dt = dist.step().expect("step");
                    prop_assert_eq!(dt.to_bits(), dt_ref.to_bits());
                }
                let assembled = dist.assemble();
                assert_trees_bit_identical(&assembled, reference.tree(), &format!("x{n} {kind}"));
            }
        }
    }
}

/// ISSUE 10 satellite: force ≥ 1 owner change mid-run on a gravitating
/// scenario and demand the conservation gates (bitwise totals against
/// the reference) still hold — migration moves ownership, never values.
#[test]
fn forced_migration_keeps_conservation_and_bit_identity() {
    let mut reference = Simulation::new(Scenario::star_amr());
    let cluster = Arc::new(
        Cluster::builder()
            .localities(4)
            .threads_per(2)
            .transport(TransportKind::Libfabric)
            .build(),
    );
    let mut dist = DistributedDriver::builder(Scenario::star_amr(), cluster)
        .skewed_partition(800)
        .build()
        .expect("driver");
    let dt_ref = reference.step();
    let dt = dist.step().expect("step");
    assert_eq!(dt.to_bits(), dt_ref.to_bits());

    let moved = dist.rebalance().expect("rebalance");
    assert!(moved >= 1, "an 80% skew over 4 localities must move leaves");
    assert!(dist.imbalance_permille() < 500);

    let dt_ref = reference.step();
    let dt = dist.step().expect("step");
    assert_eq!(dt.to_bits(), dt_ref.to_bits(), "post-migration dt");
    let assembled = dist.assemble();
    assert_trees_bit_identical(&assembled, reference.tree(), "post-migration");
    assert_totals_bit_identical(&assembled, reference.tree(), "post-migration");
}

/// The PR-1 regression shape, under the distributed driver's real
/// message size: blast interior-sized (~57 KB, rendezvous/RMA path)
/// parcels from every locality at once, then demand full quiescence
/// with zero in-flight messages on both transports.
#[test]
fn quiescence_under_interior_sized_halo_blast() {
    use amt::GlobalId;
    use bytes::Bytes;
    use parcelport::parcel::{ActionId, Parcel};
    use std::sync::atomic::{AtomicUsize, Ordering};

    // 14 fields x 512 interior cells x 8 bytes: one GridMsg payload.
    let payload = Bytes::from(vec![0x5Au8; 14 * 512 * 8]);
    for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
        let cluster =
            Cluster::builder().localities(4).threads_per(2).transport(kind).build();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        cluster.register_raw_action(ActionId(0xD07), move |_rt, _id, p| {
            assert_eq!(p.len(), 14 * 512 * 8);
            h.fetch_add(1, Ordering::SeqCst);
        });
        let rounds = 8;
        let mut sent = 0;
        for round in 0..rounds {
            for from in 0..4usize {
                for to in 0..4u32 {
                    if to as usize == from {
                        continue;
                    }
                    cluster
                        .locality(from)
                        .try_send(Parcel {
                            dest_locality: to,
                            dest_component: GlobalId((round * 16 + from) as u64),
                            action: ActionId(0xD07),
                            payload: payload.clone(),
                        })
                        .unwrap();
                    sent += 1;
                }
            }
        }
        cluster.wait_quiescent();
        assert_eq!(hits.load(Ordering::SeqCst), sent, "{kind}: lost parcels");
        assert_eq!(cluster.transport().in_flight(), 0, "{kind}: in-flight not drained");
    }
}

/// The counter namespace of a distributed run, pinned: two steps of
/// `star_amr` on two localities with the reliable layer on, on both
/// transports. The non-zero keys of the cluster's snapshot and of each
/// locality runtime's are checked, and so are the counts a run
/// determines: the driver's channels, the wire totals and the tasks each
/// locality spawned. Zero entries are ignored (a component may take its
/// counter handles before it counts anything); retransmissions,
/// duplicate drops, steals and parks depend on timing, so those keys
/// are left out of the comparison.
#[test]
fn the_counter_namespace_keeps_its_names_and_counts() {
    const TIMED: [&str; 4] =
        ["parcelport/retries", "parcelport/dup_dropped", "tasks/stolen", "workers/parks"];
    let nonzero = |snapshot: std::collections::BTreeMap<String, u64>| -> Vec<String> {
        let timed = |k: &str| TIMED.iter().any(|t| k.ends_with(t));
        snapshot.into_iter().filter(|(k, v)| *v > 0 && !timed(k)).map(|(k, _)| k).collect()
    };
    let runtime_keys: Vec<String> = [
        "fmm/chunks",
        "fmm/interactions/near_field",
        "fmm/interactions/same_level",
        "fmm/pairs/evaluated",
        "fmm/pairs/full_body",
        "fmm/pairs/lattice",
        "fmm/scratch_hits",
        "fmm/scratch_misses",
        "tasks/executed",
        "tasks/spawned",
    ]
    .map(String::from)
    .to_vec();
    for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
        let cluster = Arc::new(
            Cluster::builder()
                .localities(2)
                .threads_per(2)
                .transport(kind)
                .reliable(parcelport::ReliablePolicy::default())
                .build(),
        );
        let mut dist = DistributedDriver::builder(Scenario::star_amr(), Arc::clone(&cluster))
            .build()
            .expect("driver");
        for _ in 0..2 {
            dist.step().expect("step");
        }
        let fabric = format!("parcelport/{}", kind.as_str());
        let mut expected: Vec<String> = ["dt", "halo", "moments"]
            .iter()
            .flat_map(|ch| [format!("driver/{ch}/bytes_tx"), format!("driver/{ch}/parcels_tx")])
            .collect();
        for i in 0..2 {
            expected.extend(runtime_keys.iter().map(|k| format!("locality/{i}/{k}")));
        }
        expected.extend(["parcelport/acked", "parcelport/acks"].map(String::from));
        let wire: &[&str] = match kind {
            TransportKind::Mpi => {
                &["mpi/eager_sends", "mpi/rendezvous_sends", "parcels/payload_copies"]
            }
            TransportKind::Libfabric => &["libfabric/rma_puts"],
        };
        let own = ["bytes_tx", "parcels/received", "parcels_tx"];
        expected.extend(wire.iter().chain(&own).map(|k| format!("{fabric}/{k}")));
        expected.sort();
        let m = cluster.metrics();
        assert_eq!(nonzero(m.snapshot()), expected, "{kind}: cluster keys");
        for i in 0..2 {
            let local = cluster.locality(i).runtime().metrics().snapshot();
            assert_eq!(nonzero(local), runtime_keys, "{kind}: locality {i} keys");
        }
        let counts = [
            ("driver/dt/parcels_tx", 4),
            ("driver/dt/bytes_tx", 176),
            ("driver/halo/parcels_tx", 56),
            ("driver/halo/bytes_tx", 3_214_232),
            ("driver/moments/parcels_tx", 60),
            ("driver/moments/bytes_tx", 248_940),
            ("locality/0/tasks/spawned", 194),
            ("locality/1/tasks/spawned", 176),
        ];
        for (name, count) in counts {
            assert_eq!(m.get(name), count, "{kind}: {name}");
        }
        // The raw fabric counts every frame it carries: each of the 120
        // data parcels framed (+13 B), its 37-byte ack (a header and a
        // bare frame) and, when timing makes the reliable layer resend a
        // frame, the copy and its re-ack — so `parcels_tx` is the
        // fabric's own `parcels/received`, and the bytes are exact
        // whenever nothing was resent.
        let retries = m.get("parcelport/retries");
        let sent = m.get(&format!("{fabric}/parcels_tx"));
        let bytes = m.get(&format!("{fabric}/bytes_tx"));
        assert_eq!(sent, 240 + 2 * retries, "{kind}: parcels_tx");
        assert_eq!(sent, m.get(&format!("{fabric}/parcels/received")), "{kind}: parcels_tx");
        let framed = 3_463_348 + 120 * (13 + 37);
        if retries == 0 {
            assert_eq!(bytes, framed, "{kind}: bytes_tx");
        } else {
            assert!(bytes >= framed + retries * 2 * 37, "{kind}: bytes_tx {bytes}, {retries} resent");
        }
    }
}
