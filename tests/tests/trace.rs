//! Correctness of the `amt::trace` observability layer: spans nest per
//! worker, idle accounting matches wall − busy, traces survive the wire
//! codec, tracing is invisible when disabled (no counters, bit-identical
//! distributed results).
//!
//! Trace sessions are process-global and exclusive; concurrent tests in
//! this binary serialize on `TraceSession::begin` and attribute events
//! through each scheduler's `worker_trace_ids`, so foreign workers
//! recording into their own rings never pollute an assertion.

use amt::trace::{TraceCategory, TraceEvent, TraceSession};
use amt::Runtime;
use octotiger::regrid::RegridPolicy;
use octotiger::{DistributedDriver, Scenario, Simulation};
use octree::subgrid::ALL_FIELDS;
use parcelport::cluster::Cluster;
use parcelport::netmodel::TransportKind;
use parcelport::{from_bytes, to_bytes};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn events_of<'a>(events: &'a [TraceEvent], tids: &[u32]) -> Vec<&'a TraceEvent> {
    events.iter().filter(|e| tids.contains(&e.tid)).collect()
}

/// Spans recorded by one worker must strictly nest: any two either are
/// disjoint in time or one contains the other. Instants are ignored.
#[test]
fn spans_nest_per_worker() {
    let rt = Runtime::new(2);
    // Workers register their trace ids as they start; on a loaded host
    // the 16 short tasks below can finish before the second one has.
    while rt.scheduler().worker_trace_ids().len() < 2 {
        std::thread::yield_now();
    }
    let session = TraceSession::begin();
    for _ in 0..16 {
        rt.scheduler().spawn(|| {
            let _outer = amt::trace::span(TraceCategory::Custom);
            std::thread::sleep(Duration::from_micros(300));
            {
                let _inner = amt::trace::span(TraceCategory::Custom);
                std::thread::sleep(Duration::from_micros(200));
            }
            std::thread::sleep(Duration::from_micros(100));
        });
    }
    rt.wait_quiescent();
    let trace = session.end();
    let tids = rt.scheduler().worker_trace_ids();
    assert_eq!(tids.len(), 2, "both workers must have registered");
    for &tid in &tids {
        let spans: Vec<&TraceEvent> = events_of(&trace.events, &[tid])
            .into_iter()
            .filter(|e| e.dur_ns > 0)
            .collect();
        for (i, a) in spans.iter().enumerate() {
            for b in spans.iter().skip(i + 1) {
                let disjoint = a.end_ns() <= b.t0_ns || b.end_ns() <= a.t0_ns;
                let a_in_b = b.t0_ns <= a.t0_ns && a.end_ns() <= b.end_ns();
                let b_in_a = a.t0_ns <= b.t0_ns && b.end_ns() <= a.end_ns();
                assert!(
                    disjoint || a_in_b || b_in_a,
                    "worker {tid}: spans overlap without nesting:\n  {a:?}\n  {b:?}"
                );
            }
        }
    }
    // The workload itself must have been observed. `wait_quiescent`
    // help-runs tasks on the calling thread, so count across all
    // threads, not just the two workers.
    let custom = trace.events.iter().filter(|e| e.cat == TraceCategory::Custom).count();
    assert_eq!(custom, 32, "16 outer + 16 inner spans");
}

/// On a single worker, recorded idle time must account for the gap
/// between wall-clock and busy (task-run) time.
#[test]
fn idle_accounts_for_wall_minus_busy() {
    let rt = Runtime::new(1);
    let session = TraceSession::begin();
    // Two bursts of work separated by an enforced idle gap. Drain each
    // burst by polling instead of `wait_quiescent`, which would help-run
    // tasks on this thread and take them away from the traced worker.
    let drain = |rt: &Arc<Runtime>| {
        while rt.scheduler().in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    for burst in 0..2 {
        for _ in 0..4 {
            rt.scheduler().spawn(|| std::thread::sleep(Duration::from_millis(5)));
        }
        drain(&rt);
        if burst == 0 {
            std::thread::sleep(Duration::from_millis(40));
        }
    }
    let trace = session.end();
    let tids = rt.scheduler().worker_trace_ids();
    let events = events_of(&trace.events, &tids);
    let spans: Vec<_> = events.iter().filter(|e| e.dur_ns > 0).collect();
    assert!(!spans.is_empty());
    let wall = spans.iter().map(|e| e.end_ns()).max().unwrap()
        - spans.iter().map(|e| e.t0_ns).min().unwrap();
    let busy: u64 = spans
        .iter()
        .filter(|e| e.cat == TraceCategory::TaskRun)
        .map(|e| e.dur_ns)
        .sum();
    let idle: u64 = spans
        .iter()
        .filter(|e| e.cat == TraceCategory::Idle)
        .map(|e| e.dur_ns)
        .sum();
    assert!(busy >= 8 * 5_000_000, "8 tasks × 5 ms each: busy = {busy} ns");
    assert!(idle >= 30_000_000, "the 40 ms gap must be recorded: idle = {idle} ns");
    let expected = wall.saturating_sub(busy);
    let err = idle.abs_diff(expected);
    assert!(
        err <= wall / 4,
        "idle {idle} ns vs wall − busy {expected} ns (wall {wall} ns)"
    );
}

/// A drained trace survives the shim serde wire codec and re-exports
/// the exact same chrome JSON.
#[test]
fn trace_round_trips_through_wire_codec() {
    let rt = Runtime::new(2);
    let session = TraceSession::begin();
    for i in 0..8 {
        rt.scheduler().spawn(move || {
            let _s = amt::trace::span_labeled(TraceCategory::Custom, || format!("task {i}"));
            std::thread::sleep(Duration::from_micros(200));
        });
    }
    rt.wait_quiescent();
    let trace = session.end();
    assert!(!trace.events.is_empty());
    let bytes = to_bytes(&trace).expect("trace serializes");
    let back: amt::Trace = from_bytes(&bytes).expect("trace deserializes");
    assert_eq!(trace, back);
    assert_eq!(trace.export_chrome_json(), back.export_chrome_json());
}

/// Without an active session nothing is recorded and nothing leaks into
/// the metrics namespace: `trace/*` counters exist only after an
/// explicit `Trace::publish`.
#[test]
fn disabled_tracing_registers_no_counters() {
    let mut sim = Simulation::new(Scenario::single_star(1));
    sim.step();
    let snap = sim.runtime().metrics().snapshot();
    assert!(
        !snap.keys().any(|k| k.starts_with("trace/")),
        "no trace/ counters without a session: {:?}",
        snap.keys().filter(|k| k.starts_with("trace/")).collect::<Vec<_>>()
    );
    // Publishing a drained trace is what creates them.
    let session = TraceSession::begin();
    sim.step();
    let trace = session.end();
    trace.publish(sim.runtime().metrics());
    let snap = sim.runtime().metrics().snapshot();
    assert!(snap.contains_key("trace/events"));
    assert!(snap.contains_key("trace/idle_rate"));
    assert!(snap.get("trace/events").copied().unwrap_or(0) > 0);
}

/// A leaf's stage task takes its RHS and then writes its update, and
/// the two are sibling spans: every `hydro/apply` span starts after the
/// task's `hydro/rhs` span has ended, so no update time is counted
/// inside the RHS (`perfmodel::calibrate::COMPUTE_CATEGORIES` sums
/// both). A traced step has one of each per leaf and stage.
#[test]
fn a_stage_tasks_update_is_no_part_of_its_rhs_span() {
    let mut sim = Simulation::new(Scenario::single_star(1));
    let leaves = sim.tree().leaves().len();
    let session = TraceSession::begin();
    sim.step();
    let trace = session.end();
    // `get_help` runs tasks on this thread too.
    let mut tids = sim.runtime().scheduler().worker_trace_ids();
    tids.push(amt::trace::current_tid());
    let events = events_of(&trace.events, &tids);
    let spans = |cat| events.iter().filter(|e| e.cat == cat).collect::<Vec<_>>();
    let (rhs, apply) = (spans(TraceCategory::HydroRhs), spans(TraceCategory::HydroApply));
    assert_eq!((rhs.len(), apply.len()), (2 * leaves, 2 * leaves), "one each a leaf and stage");
    for a in &apply {
        for r in rhs.iter().filter(|r| r.tid == a.tid) {
            let disjoint = a.end_ns() <= r.t0_ns || r.end_ns() <= a.t0_ns;
            assert!(disjoint, "an update inside an RHS span:\n  {a:?}\n  {r:?}");
        }
    }
}

/// Per-(node, field) interior digests of a tree, for order-insensitive
/// bitwise comparison.
fn field_digests(tree: &octree::tree::Octree) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for level in 0..=tree.max_level() {
        for key in tree.level_keys(level) {
            let Some(grid) = tree.node(key).and_then(|n| n.grid.as_ref()) else {
                continue;
            };
            for field in ALL_FIELDS {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for (i, j, k) in grid.indexer().interior() {
                    h ^= grid.at(field, i, j, k).to_bits();
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                out.insert(format!("{key:?}/{field:?}"), h);
            }
        }
    }
    out
}

/// Tracing must only observe: a distributed run with a live session
/// produces bit-identical dts and state to one without.
#[test]
fn tracing_does_not_perturb_distributed_results() {
    let run = |traced: bool| {
        let cluster = Arc::new(
            Cluster::builder()
                .localities(2)
                .threads_per(2)
                .transport(TransportKind::Libfabric)
                .build(),
        );
        let mut driver =
            DistributedDriver::builder(Scenario::single_star(1), cluster).build().expect("driver");
        let session = traced.then(TraceSession::begin);
        let dts: Vec<u64> = (0..2).map(|_| driver.step().expect("step").to_bits()).collect();
        let trace = session.map(TraceSession::end);
        (dts, field_digests(&driver.assemble()), trace)
    };
    let (dts_off, state_off, _) = run(false);
    let (dts_on, state_on, trace) = run(true);
    assert_eq!(dts_off, dts_on, "per-step dt must be bit-identical");
    assert_eq!(state_off, state_on, "assembled state must be bit-identical");
    // The traced run actually observed the distributed machinery, and
    // the phases every entry point into the one pipeline emits: the
    // futurized moment pass and both stage updates.
    let trace = trace.unwrap();
    for cat in [
        TraceCategory::Step,
        TraceCategory::DtReduce,
        TraceCategory::ParcelSend,
        TraceCategory::ParcelRecv,
        TraceCategory::FmmP2M,
        TraceCategory::FmmM2M,
        TraceCategory::HydroApply,
    ] {
        assert!(
            trace.events.iter().any(|e| e.cat == cat),
            "expected at least one {cat:?} event"
        );
    }
}

/// The regrid collective and a rebalance are spans of their own
/// categories, named `driver/regrid` and `driver/rebalance` in the
/// Chrome export: a step that regrids emits a `Regrid` span (nested in
/// its `Step` span, on the driver's thread), a rebalance a `Rebalance`
/// one.
#[test]
fn a_regrid_step_emits_a_regrid_span() {
    let mut scenario = Scenario::sod_amr();
    // Hot level-1 leaves refine to level 2: the first collective is
    // non-trivial (the regrid suite's policy).
    let policy = RegridPolicy {
        rho_ref: 0.5,
        ratio: 4.0,
        base_level: 1,
        max_level: 2,
        coarsen_fraction: 0.5,
        cadence: 1,
    };
    scenario.config.regrid = Some(policy);
    let cluster = Arc::new(Cluster::builder().localities(2).threads_per(1).build());
    let mut driver = DistributedDriver::builder(scenario, cluster).build().expect("driver");
    let before = driver.shard_map().n_leaves();
    let session = TraceSession::begin();
    driver.step().expect("step 0");
    driver.step().expect("step 1: the cadence fires first");
    driver.rebalance().expect("rebalance");
    let trace = session.end();
    assert!(driver.shard_map().n_leaves() > before, "the regrid must refine");
    let spans = |cat: TraceCategory| trace.events.iter().filter(|e| e.cat == cat).count();
    assert_eq!(spans(TraceCategory::Regrid), 1, "one regrid collective, one span");
    assert_eq!(spans(TraceCategory::Rebalance), 1);
    let chrome = trace.export_chrome_json();
    for name in ["\"driver/regrid\"", "\"driver/rebalance\""] {
        assert!(chrome.contains(name), "no {name} event in the Chrome export");
    }
}
