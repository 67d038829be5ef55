//! The typed report: what one run of one workload prints, what a full
//! run writes to `out/report.json`, and how two reports compare.

use crate::json::Json;
use crate::metrics::{self, Better};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub type Metrics = BTreeMap<String, Value>;

#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: String,
}

fn metrics_to_json(m: &Metrics) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::obj([
                        ("value", Json::Num(v.value)),
                        ("unit", Json::Str(v.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

fn metrics_from_json(j: &Json) -> Result<Metrics, String> {
    j.as_obj()
        .ok_or("metrics: not an object")?
        .iter()
        .map(|(k, v)| {
            let value = v
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{k}: no numeric value"))?;
            let unit = v
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("{k}: no unit"))?;
            Ok((
                k.clone(),
                Value {
                    value,
                    unit: unit.to_string(),
                },
            ))
        })
        .collect()
}

/// The last line one workload run prints: exactly the keys the builder
/// contract names.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_to_json(&self.metrics)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<RunResult, String> {
        Ok(RunResult {
            correct: j
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result: no `correct`")?,
            attempted: j
                .get("attempted")
                .and_then(Json::as_u64)
                .ok_or("result: no `attempted`")?,
            failed: j
                .get("failed")
                .and_then(Json::as_u64)
                .ok_or("result: no `failed`")?,
            metrics: metrics_from_json(j.get("metrics").ok_or("result: no `metrics`")?)?,
        })
    }
}

/// One workload of a full run: the untraced and the traced result
/// joined, plus what is printed but not gated (sample count, per-step
/// wall percentiles, the final digest).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub name: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub info: Json,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub git_sha: String,
    pub host_cpus: u64,
    pub seed: u64,
    pub seconds: f64,
    /// Smoke mode: one repeat, bounds not evaluated.
    pub quick: bool,
    pub workloads: Vec<WorkloadReport>,
}

const SCHEMA: f64 = 1.0;

impl Report {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Num(SCHEMA)),
            ("git_sha", Json::Str(self.git_sha.clone())),
            ("host_cpus", Json::Num(self.host_cpus as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("quick", Json::Bool(self.quick)),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("name", Json::Str(w.name.clone())),
                                ("ops_attempted", Json::Num(w.ops_attempted as f64)),
                                ("ops_failed", Json::Num(w.ops_failed as f64)),
                                ("end_to_end", metrics_to_json(&w.end_to_end)),
                                ("per_layer", metrics_to_json(&w.per_layer)),
                                ("info", w.info.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Report, String> {
        if j.get("schema").and_then(Json::as_f64) != Some(SCHEMA) {
            return Err("report: unknown schema".into());
        }
        let workloads = j
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("report: no `workloads`")?
            .iter()
            .map(|w| {
                Ok(WorkloadReport {
                    name: w
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("workload: no `name`")?
                        .to_string(),
                    ops_attempted: w
                        .get("ops_attempted")
                        .and_then(Json::as_u64)
                        .ok_or("no `ops_attempted`")?,
                    ops_failed: w
                        .get("ops_failed")
                        .and_then(Json::as_u64)
                        .ok_or("no `ops_failed`")?,
                    end_to_end: metrics_from_json(w.get("end_to_end").ok_or("no `end_to_end`")?)?,
                    per_layer: metrics_from_json(w.get("per_layer").ok_or("no `per_layer`")?)?,
                    info: w.get("info").cloned().unwrap_or(Json::Null),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Report {
            git_sha: j
                .get("git_sha")
                .and_then(Json::as_str)
                .ok_or("report: no `git_sha`")?
                .to_string(),
            host_cpus: j
                .get("host_cpus")
                .and_then(Json::as_u64)
                .ok_or("report: no `host_cpus`")?,
            seed: j
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("report: no `seed`")?,
            seconds: j
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("report: no `seconds`")?,
            quick: j
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or("report: no `quick`")?,
            workloads,
        })
    }

    pub fn read(path: &str) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Report::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Better,
    Worse,
}

/// `b` against base `a`: worse or better only beyond `bound`, a share
/// of the base.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    let (lo, hi) = (a * (1.0 - bound), a * (1.0 + bound));
    let (worse, improved) = match better {
        Better::Higher => (b < lo, b > hi),
        Better::Lower => (b > hi, b < lo),
    };
    if worse {
        Verdict::Worse
    } else if improved {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Compare report `b` against base `a`. Returns the printed table and
/// whether `b` holds: no end-to-end metric worse than its bound, every
/// exact count and simulated value equal, no higher failure share.
pub fn compare(a: &Report, b: &Report) -> (String, bool) {
    let mut out = String::new();
    let mut holds = true;
    let gated = !(a.quick || b.quick);
    let exact = a.seed == b.seed;
    let _ = writeln!(
        out,
        "base a: {} (seed {}, {} CPUs)",
        a.git_sha, a.seed, a.host_cpus
    );
    let _ = writeln!(
        out,
        "     b: {} (seed {}, {} CPUs)",
        b.git_sha, b.seed, b.host_cpus
    );
    if !gated {
        let _ = writeln!(
            out,
            "a --quick report is in the pair: bounds are not evaluated"
        );
    }
    if !exact {
        let _ = writeln!(
            out,
            "seeds differ: exact counts and simulated values are not compared"
        );
    }
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(out, "{}: missing from b", wa.name);
            holds = false;
            continue;
        };
        let _ = writeln!(out, "{}", wa.name);
        for m in &metrics::END_TO_END {
            let (Some(va), Some(vb)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                let _ = writeln!(out, "  {:<18} missing", m.name);
                holds = false;
                continue;
            };
            let v = verdict(va.value, vb.value, m.better, m.bound);
            let word = match (gated, v) {
                (false, _) => "not evaluated",
                (true, Verdict::Within) => "within",
                (true, Verdict::Better) => "better",
                (true, Verdict::Worse) => "worse",
            };
            holds &= !(gated && v == Verdict::Worse);
            let _ = writeln!(
                out,
                "  {:<18} a {:>12.6e}  b {:>12.6e} {:<11}  b/a {:.4} (base a)  {} (bound {:.0} %, {} is better)",
                m.name,
                va.value,
                vb.value,
                va.unit,
                vb.value / va.value,
                word,
                m.bound * 100.0,
                m.better.as_str(),
            );
        }
        if exact {
            let mut equal = 0;
            for m in metrics::PER_LAYER.iter().filter(|m| m.kind.must_repeat()) {
                match (wa.per_layer.get(m.name), wb.per_layer.get(m.name)) {
                    (Some(va), Some(vb)) if va.value == vb.value => equal += 1,
                    (va, vb) => {
                        let show = |v: Option<&Value>| {
                            v.map_or("missing".to_string(), |v| v.value.to_string())
                        };
                        let _ = writeln!(
                            out,
                            "  {:<40} a {}  b {}  MISMATCH",
                            m.name,
                            show(va),
                            show(vb)
                        );
                        holds = false;
                    }
                }
            }
            let _ = writeln!(out, "  {equal} exact counts and simulated values equal");
        }
        // More failures per attempt in b is a regression whatever the
        // timings say: failed·attempted cross-multiplied, no division.
        let more_failures = (wb.ops_failed as u128) * (wa.ops_attempted as u128)
            > (wa.ops_failed as u128) * (wb.ops_attempted as u128);
        let _ = writeln!(
            out,
            "  ops failed/attempted  a {}/{}  b {}/{}{}",
            wa.ops_failed,
            wa.ops_attempted,
            wb.ops_failed,
            wb.ops_attempted,
            if more_failures { "  MORE FAILURES" } else { "" }
        );
        holds &= !more_failures;
    }
    let _ = writeln!(
        out,
        "{}",
        if holds {
            "b holds against a"
        } else {
            "b does NOT hold against a"
        }
    );
    (out, holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let value = |v: f64, unit: &str| Value {
            value: v,
            unit: unit.to_string(),
        };
        let workloads = metrics::WORKLOADS
            .iter()
            .enumerate()
            .map(|(i, w)| WorkloadReport {
                name: w.name.to_string(),
                ops_attempted: 30,
                ops_failed: 0,
                end_to_end: metrics::END_TO_END
                    .iter()
                    .map(|m| (m.name.to_string(), value(1.5 + i as f64, m.unit)))
                    .collect(),
                per_layer: metrics::PER_LAYER
                    .iter()
                    .map(|m| (m.name.to_string(), value(0.1 + 3.0 * i as f64, m.unit)))
                    .collect(),
                info: Json::obj([("n", Json::Num(30.0)), ("step_wall_p90_ms", Json::Null)]),
            })
            .collect();
        Report {
            git_sha: "abc123".into(),
            host_cpus: 2,
            seed: 0,
            seconds: 25.0,
            quick: false,
            workloads,
        }
    }

    #[test]
    fn report_round_trips_through_its_file_format() {
        let report = sample_report();
        let text = report.to_json().pretty();
        assert_eq!(
            Report::from_json(&Json::parse(&text).unwrap()).unwrap(),
            report
        );
        let result = RunResult {
            correct: true,
            attempted: 12,
            failed: 1,
            metrics: report.workloads[0].end_to_end.clone(),
        };
        let line = result.to_json().compact();
        assert!(!line.contains('\n'));
        assert_eq!(
            RunResult::from_json(&Json::parse(&line).unwrap()).unwrap(),
            result
        );
        assert!(Report::from_json(&Json::parse("{\"schema\":2}").unwrap()).is_err());
    }

    /// What a full run writes carries exactly the sets `BENCHMARK.json`
    /// declares (the metrics module holds the table and the file equal).
    #[test]
    fn report_names_are_the_declared_sets() {
        let report = sample_report();
        let names: Vec<&str> = report.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, metrics::WORKLOADS.map(|w| w.name));
        for w in &report.workloads {
            assert!(w
                .end_to_end
                .keys()
                .all(|k| metrics::end_to_end(k).is_some()));
            assert_eq!(w.end_to_end.len(), metrics::END_TO_END.len());
            assert!(w.per_layer.keys().all(|k| metrics::per_layer(k).is_some()));
            assert_eq!(w.per_layer.len(), metrics::PER_LAYER.len());
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(100.0, 91.0, Higher, 0.10), Verdict::Within);
        assert_eq!(verdict(100.0, 89.0, Higher, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 111.0, Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(100.0, 111.0, Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 89.0, Lower, 0.10), Verdict::Better);
        assert_eq!(verdict(100.0, 100.0, Lower, 0.10), Verdict::Within);
    }

    #[test]
    fn compare_holds_on_itself_and_catches_each_kind_of_regression() {
        let a = sample_report();
        assert!(compare(&a, &a).1);

        let mut slow = a.clone();
        slow.workloads[1]
            .end_to_end
            .get_mut("subgrids_per_s")
            .unwrap()
            .value *= 0.7;
        let (table, holds) = compare(&a, &slow);
        assert!(!holds && table.contains("worse"), "{table}");

        let mut faster = a.clone();
        faster.workloads[1]
            .end_to_end
            .get_mut("subgrids_per_s")
            .unwrap()
            .value *= 1.5;
        assert!(compare(&a, &faster).1, "a gain is not a failure");

        let mut count = a.clone();
        count.workloads[2]
            .per_layer
            .get_mut("core.halo_parcels_per_step")
            .unwrap()
            .value += 1.0;
        let (table, holds) = compare(&a, &count);
        assert!(!holds && table.contains("MISMATCH"), "{table}");

        let mut host_time = a.clone();
        host_time.workloads[2]
            .per_layer
            .get_mut("gravity.solve_ms")
            .unwrap()
            .value *= 3.0;
        assert!(
            compare(&a, &host_time).1,
            "host times of layers are not gated"
        );

        let mut failing = a.clone();
        failing.workloads[0].ops_failed = 1;
        assert!(!compare(&a, &failing).1);

        let mut missing = a.clone();
        missing.workloads.pop();
        assert!(!compare(&a, &missing).1);

        // Smoke reports are shown, not judged; other seeds change counts.
        let mut quick = slow.clone();
        quick.quick = true;
        assert!(compare(&a, &quick).1);
        let mut reseeded = count.clone();
        reseeded.seed = 9;
        assert!(compare(&a, &reseeded).1);
    }
}
