//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with what kind of
//! number each is and which end-to-end metric it is expected to move.
//!
//! `BENCHMARK.json` at the repo root carries the subset of this table
//! the builder contract has keys for (name, unit, direction, bound); a
//! test holds the two equal. `README.md` carries the prose.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What a reported number is, which decides how two runs compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured on this host's clock (or derived from such a time):
    /// noisy, compared against a bound or only shown.
    Host,
    /// An exact count made by the program: the same commit, seed and
    /// workload must give the same number.
    Count,
    /// A value in simulated time (netmodel / DES): exact like a count.
    Simulated,
}

impl Kind {
    pub fn must_repeat(self) -> bool {
        !matches!(self, Kind::Host)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Host => "host time",
            Kind::Count => "exact count",
            Kind::Simulated => "simulated",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// `octotiger::scenarios` registry key.
    pub scenario: &'static str,
    /// 1 = `Simulation`; more = `DistributedDriver` over libfabric.
    pub localities: usize,
    /// Timed steps per repeat. Fixed: the repeat count is the only
    /// thing `--seconds` changes.
    pub steps: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hydro_blast",
        scenario: "sedov",
        localities: 1,
        steps: 5,
        why: "sedov, 64 uniform leaves, gravity off: hydro + same-level halo + amt do all the work; the bypass workload for every FMM and parcelport change",
    },
    Workload {
        name: "binary_uniform",
        scenario: "mini_binary",
        localities: 1,
        steps: 3,
        why: "mini_binary, 64 uniform leaves, FMM + rotating frame + floors: gravity dominates the step; single-locality reference for binary_dist2",
    },
    Workload {
        name: "binary_dist2",
        scenario: "mini_binary",
        localities: 2,
        steps: 3,
        why: "mini_binary on DistributedDriver, 2 localities, libfabric: same physics through the subset entry points, parcelport and codec; bit-identical to binary_uniform",
    },
    Workload {
        name: "v1309_amr",
        scenario: "v1309",
        localities: 1,
        steps: 1,
        why: "v1309, 260 leaves on levels 2-6: coarse-fine halos and multi-level M2M/L2L/near-field, so a same-level win that costs the AMR path shows",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression. The two time metrics sit at the
    /// contract's ceiling because this host's speed itself drifts by
    /// ~10 % over minutes (README, "Noise"); anything finer is decided
    /// by alternating pairs, not by this gate.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "subgrids_per_s",
        unit: "sub-grids/s",
        better: Better::Higher,
        bound: 0.25,
        what: "leaves*K / sum over step index of the fastest of the R bit-identical repeats",
    },
    EndToEnd {
        name: "cpu_s_per_step",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "per step index the least process CPU time (all threads) of the R repeats, averaged over the K indices",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        what: "VmHWM of a fresh process after one build and K steps (the first repeat)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "scenario build + driver construction in a fresh process, median of 21 processes",
    },
    EndToEnd {
        name: "mass_drift",
        unit: "relative",
        better: Better::Lower,
        bound: 0.02,
        what: "max(1e-12, largest per-step relative mass drift over the K steps)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// The end-to-end metric and workload this number is expected to
    /// move, written down before any change is measured.
    pub moves: &'static str,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind: Kind::Host,
        moves,
    }
}

const fn count(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Count,
        moves,
    }
}

const fn simulated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind: Kind::Simulated,
        moves,
    }
}

use Better::{Higher, Lower};

const OCTREE: &str = "subgrids_per_s on hydro_blast first, v1309_amr via the coarse-fine path";
const HYDRO: &str = "subgrids_per_s, cpu_s_per_step on hydro_blast; <= 10 % of a step elsewhere";
const GRAVITY: &str =
    "subgrids_per_s, cpu_s_per_step on binary_uniform, binary_dist2, v1309_amr; none on hydro_blast";
const KERNEL: &str = "through gravity.solve_ms: subgrids_per_s on the three gravity workloads";
const AMT: &str = "subgrids_per_s on all four, most where tasks/step is largest";
const CORE: &str = "subgrids_per_s on every workload";
const TRAFFIC: &str = "subgrids_per_s and peak_rss_mb on binary_dist2 only";
const WRITE_SIDE: &str =
    "no end-to-end metric today; shows a halo-path win that slows the write side";
const PARCELPORT: &str = "subgrids_per_s on binary_dist2; flat on the single-locality workloads";
const SCF: &str = "setup_s on binary_uniform, binary_dist2, v1309_amr";
const PERFMODEL: &str = "no end-to-end metric; simulated values must stay bit-equal";
const GPUSIM: &str = "none: neither driver builds a GPU context today";

pub const PER_LAYER: [PerLayer; 61] = [
    // octree
    host("octree.halo_fill_ms", "ms", Lower, OCTREE),
    host("octree.halo_fill_us_per_leaf", "us", Lower, OCTREE),
    host("octree.restrict_all_ms", "ms", Lower, OCTREE),
    host(
        "octree.partition_ms",
        "ms",
        Lower,
        "setup_s on binary_dist2",
    ),
    count("octree.halo_plan_parcels", "count", TRAFFIC),
    // hydro
    host("hydro.rhs_ms", "ms", Lower, HYDRO),
    host("hydro.rhs_ns_per_cell", "ns", Lower, HYDRO),
    host("hydro.signal_speed_ms", "ms", Lower, HYDRO),
    host("hydro.apply_ms", "ms", Lower, HYDRO),
    // gravity
    host("gravity.solve_ms", "ms", Lower, GRAVITY),
    host("gravity.solve_serial_ms", "ms", Lower, GRAVITY),
    host("gravity.moments_ms", "ms", Lower, GRAVITY),
    count("gravity.interactions_per_solve", "count", GRAVITY),
    host("gravity.ns_per_interaction", "ns", Lower, GRAVITY),
    count("gravity.chunks_per_solve", "count", AMT),
    host("gravity.scratch_hit_rate", "ratio", Higher, GRAVITY),
    host("gravity.monopole_ns_per_interaction", "ns", Lower, KERNEL),
    host("gravity.multipole_ns_per_interaction", "ns", Lower, KERNEL),
    host("gravity.monopole_model_gflops", "GFLOP/s", Higher, KERNEL),
    host("gravity.multipole_model_gflops", "GFLOP/s", Higher, KERNEL),
    // amt
    host("amt.spawn_ns_per_task", "ns", Lower, AMT),
    host("amt.when_all_ns_per_future", "ns", Lower, AMT),
    count("amt.tasks_per_step", "count", AMT),
    host("amt.steals_per_step", "count", Lower, AMT),
    // core
    host("core.step_ms", "ms", Lower, CORE),
    host("core.untraced_step_ms", "ms", Lower, CORE),
    host("core.trace_overhead_ms", "ms", Lower, CORE),
    host("core.compute_dt_ms", "ms", Lower, CORE),
    host("core.replay_sum_ms", "ms", Lower, CORE),
    host("core.step_coverage", "ratio", Higher, CORE),
    host("core.unattributed_ms", "ms", Lower, CORE),
    count("core.halo_parcels_per_step", "count", TRAFFIC),
    count("core.halo_bytes_per_step", "bytes", TRAFFIC),
    count("core.moment_parcels_per_step", "count", TRAFFIC),
    count("core.moment_bytes_per_step", "bytes", TRAFFIC),
    count("core.parcel_amplification", "ratio", TRAFFIC),
    count("core.imbalance_permille", "permille", TRAFFIC),
    host("core.assemble_ms", "ms", Lower, WRITE_SIDE),
    host("core.checkpoint_encode_ms", "ms", Lower, WRITE_SIDE),
    count("core.checkpoint_bytes", "bytes", WRITE_SIDE),
    host("core.restore_ms", "ms", Lower, WRITE_SIDE),
    host("core.rebalance_ms", "ms", Lower, WRITE_SIDE),
    count("core.migrated_bytes", "bytes", WRITE_SIDE),
    // parcelport
    count("parcelport.parcels_per_step", "count", PARCELPORT),
    count("parcelport.bytes_per_step", "bytes", PARCELPORT),
    simulated(
        "parcelport.modeled_wire_ms_per_step",
        "ms",
        Lower,
        PARCELPORT,
    ),
    host("parcelport.lf_us_per_parcel", "us", Lower, PARCELPORT),
    host("parcelport.mpi_us_per_parcel", "us", Lower, PARCELPORT),
    host("parcelport.lf_us_per_parcel_230k", "us", Lower, PARCELPORT),
    host("parcelport.mpi_us_per_parcel_230k", "us", Lower, PARCELPORT),
    host("parcelport.codec_mb_per_s", "MB/s", Higher, PARCELPORT),
    // scf
    host("scf.model_build_ms", "ms", Lower, SCF),
    host("scf.paint_ms", "ms", Lower, SCF),
    // perfmodel
    host("perfmodel.pattern_build_ms", "ms", Lower, PERFMODEL),
    host("perfmodel.des_host_ms", "ms", Lower, PERFMODEL),
    host("perfmodel.des_host_ns_per_event", "ns", Lower, PERFMODEL),
    count("perfmodel.des_events", "count", PERFMODEL),
    simulated("perfmodel.des_sim_step_s", "s", Lower, PERFMODEL),
    simulated(
        "perfmodel.des_sim_efficiency_5400",
        "ratio",
        Higher,
        PERFMODEL,
    ),
    // gpusim
    host("gpusim.gpu_launch_fraction", "ratio", Higher, GPUSIM),
    host("gpusim.agg_collapse", "ratio", Higher, GPUSIM),
];

#[cfg(test)]
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The character set the builder contract allows in a name.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The character set the builder contract allows in a unit.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The whole vocabulary as text: what `BENCHMARK.json` has no keys for
/// (kind of number, expected effect) is printed from here.
pub fn describe() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "workloads");
    for w in &WORKLOADS {
        let _ = writeln!(
            out,
            "  {:<16} {} x{} · K = {} · {}",
            w.name, w.scenario, w.localities, w.steps, w.why
        );
    }
    let _ = writeln!(out, "end-to-end metrics (per workload)");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<16} {:<12} {} is better · bound {:.0} % · {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    let _ = writeln!(out, "per-layer metrics (traced run)");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<40} {:<8} {:<11} {} is better · moves: {}",
            m.name,
            m.unit,
            m.kind.as_str(),
            m.better.as_str(),
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(
                octotiger::scenarios::spec(w.scenario).is_some(),
                "{}",
                w.scenario
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("sub grids") && !valid_unit(""));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// harness reports. They must be the same sets, units and bounds.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let rows = |key: &str| -> Vec<Vec<(String, Json)>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|r| {
                    r.as_obj()
                        .unwrap()
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect()
                })
                .collect()
        };
        let s = |v: &str| Json::Str(v.to_string());

        let want: Vec<Vec<(String, Json)>> = WORKLOADS
            .iter()
            .map(|w| vec![("name".into(), s(w.name)), ("why".into(), s(w.why))])
            .collect();
        assert_eq!(rows("workloads"), want);

        let want: Vec<Vec<(String, Json)>> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    ("better".into(), s(m.better.as_str())),
                    ("bound".into(), Json::Num(m.bound)),
                    ("name".into(), s(m.name)),
                    ("unit".into(), s(m.unit)),
                ]
            })
            .collect();
        assert_eq!(rows("end_to_end"), want);

        let want: Vec<Vec<(String, Json)>> = PER_LAYER
            .iter()
            .map(|m| {
                vec![
                    ("better".into(), s(m.better.as_str())),
                    ("name".into(), s(m.name)),
                    ("unit".into(), s(m.unit)),
                ]
            })
            .collect();
        assert_eq!(rows("per_layer"), want);

        let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
        assert_eq!(doc.get("paths"), Some(&Json::Arr(vec![s("benchmark")])));
    }
}
