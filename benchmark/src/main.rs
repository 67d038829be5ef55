//! The repo benchmark.
//!
//! ```text
//! benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is one
//!     JSON object {correct, attempted, failed, metrics}: the
//!     end-to-end metrics with --trace 0, the per-layer metrics of the
//!     layer replay with --trace 1.
//! benchmark run [--seed <n>] [--seconds <s>] [--only <name>] [--quick]
//!     every workload, untraced then traced, one child process each;
//!     prints every metric and writes out/report.json.
//! benchmark compare <a.json> <b.json>
//!     report b against base a; non-zero exit if b does not hold.
//! benchmark metrics
//!     the vocabulary: every workload and metric with its unit, kind,
//!     direction, bound and the end-to-end metric it should move.
//! ```
//!
//! It claims no gain; it is the baseline later claims are measured with.

mod json;
mod ladder;
mod metrics;
mod replay;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use json::Json;
use metrics::Workload;
use report::{Metrics, Report, RunResult, Value, WorkloadReport};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Seconds one run measures; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// Fresh processes behind `setup_s`: single builds take 20–130 ms and
/// are too noisy alone.
const SETUP_PROCESSES: usize = 21;

struct RunArgs {
    workload: Option<&'static Workload>,
    only: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        only: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let known =
            |name: &String| metrics::workload(name).ok_or(format!("unknown workload {name}"));
        match flag.as_str() {
            "--workload" => out.workload = Some(known(value()?)?),
            "--only" => out.only = Some(known(value()?)?),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn print_metrics(metrics: &Metrics) {
    for (name, v) in metrics {
        // Drifts are ~1e-4 and byte counts ~1e7: fixed below 1e-3 would
        // print zeros.
        if v.value != 0.0 && v.value.abs() < 1e-3 {
            println!("  {name:<40} {:>16.6e} {}", v.value, v.unit);
        } else {
            println!("  {name:<40} {:>16.6} {}", v.value, v.unit);
        }
    }
}

/// One workload in this process.
fn run_one(w: &'static Workload, a: &RunArgs) -> Result<(RunResult, Json), String> {
    let value = |value: f64, unit: &str| Value {
        value,
        unit: unit.to_string(),
    };
    if a.trace {
        let rec = replay::run_traced(w, a.seed, a.seconds, a.quick)?;
        for f in &rec.failures {
            eprintln!("{}: {f}", w.name);
        }
        match write_out(&format!("trace_{}.json", w.name), &rec.chrome_json()) {
            Ok(path) => println!("{} spans -> {}", rec.spans.len(), path.display()),
            // The spans are a by-product; the metrics below do not
            // depend on the file.
            Err(e) => eprintln!("trace not written: {e}"),
        }
        let metrics: Metrics = metrics::PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), value(rec.metrics[m.name], m.unit)))
            .collect();
        let info = Json::obj([("spans", Json::Num(rec.spans.len() as f64))]);
        let failed = rec.failed.min(rec.attempted);
        return Ok((
            RunResult {
                correct: failed == 0,
                attempted: rec.attempted,
                failed,
                metrics,
            },
            info,
        ));
    }

    // Set-up first, in children: this process's heap is untouched when
    // the timed repeats start.
    let setup_s = setup_seconds(w, a.seed, if a.quick { 3 } else { SETUP_PROCESSES })?;
    let run = workloads::run_end_to_end(w, a.seed, a.seconds, a.quick)?;
    for f in &run.failures {
        eprintln!("{}: {f}", w.name);
    }
    let numbers = [
        run.subgrids_per_s(),
        run.cpu_s_per_step(),
        run.peak_rss_mb,
        setup_s,
        run.mass_drift,
    ];
    let metrics: Metrics = metrics::END_TO_END
        .iter()
        .zip(numbers)
        .map(|(m, v)| (m.name.to_string(), value(v, m.unit)))
        .collect();
    let wall_ms: Vec<f64> = run.all_wall().iter().map(|s| s * 1e3).collect();
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let info = Json::obj([
        ("n", Json::Num(wall_ms.len() as f64)),
        ("repeats", Json::Num(run.wall.len() as f64)),
        ("steps_per_repeat", Json::Num(run.steps as f64)),
        ("leaves", Json::Num(run.leaves as f64)),
        ("step_wall_p50_ms", opt(stats::median(&wall_ms))),
        // Only when at least ten samples lie beyond it.
        (
            "step_wall_p90_ms",
            opt(stats::percentile(&wall_ms, 0.9, 10)),
        ),
        ("digest", Json::Str(format!("{:#018x}", run.digest))),
        ("host_cpus", Json::Num(sys::host_cpus() as f64)),
        // Not gated: it grows with the number of rebuilds in the run.
        ("peak_rss_end_mb", Json::Num(run.peak_rss_end_mb)),
    ]);
    Ok((
        RunResult {
            correct: run.failed == 0,
            attempted: run.attempted,
            failed: run.failed,
            metrics,
        },
        info,
    ))
}

/// Set-up time as a user pays it: once, in a fresh process. Inside one
/// process the allocator settles into one of two regimes after a few
/// 60 MB build-and-drop cycles (24 ms or 40 ms per `binary_dist2`
/// build, switching mid-run), so repeats in-process have a bimodal
/// median; the first build of a fresh process does not. Each sample is
/// one child running `benchmark setup`; the median is reported.
fn setup_seconds(w: &'static Workload, seed: u64, processes: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(processes);
    for _ in 0..processes {
        // `output` waits for the child to end.
        let output = Command::new(&exe)
            .args(["setup", "--workload", w.name, "--seed", &seed.to_string()])
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let seconds = stdout
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| output.status.success());
        samples.push(seconds.ok_or(format!("setup child failed: {}", output.status))?);
    }
    stats::median(&samples).ok_or("no setup sample".into())
}

/// Run one workload as a child process — so `peak_rss_mb` is that
/// workload's alone — and read back its `info` and result lines. A
/// child that dies fails every step it was given.
fn run_child(w: &'static Workload, a: &RunArgs, trace: bool) -> (RunResult, Json) {
    let dead = |why: String| {
        eprintln!("{}: {why}", w.name);
        let steps = w.steps as u64;
        (
            RunResult {
                correct: false,
                attempted: steps,
                failed: steps,
                metrics: Metrics::new(),
            },
            Json::Null,
        )
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return dead(format!("current_exe: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if a.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => return dead(format!("spawn: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut info = Json::Null;
    let mut last = None;
    for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
        if let Some(rest) = line.strip_prefix("info ") {
            info = Json::parse(rest).unwrap_or(Json::Null);
        }
        last = Some(line);
    }
    if !output.status.success() {
        return dead(format!("child exited with {}", output.status));
    }
    match last.map(Json::parse) {
        Some(Ok(j)) => match RunResult::from_json(&j) {
            Ok(result) => (result, info),
            Err(e) => dead(e),
        },
        _ => dead("child printed no result line".into()),
    }
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, untraced then traced.
fn run_all(a: &RunArgs) -> Result<bool, String> {
    let mut report = Report {
        git_sha: git_sha(),
        host_cpus: sys::host_cpus() as u64,
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
        workloads: Vec::new(),
    };
    println!(
        "benchmark @ {} · {} CPUs · seed {} · {} s per run{}",
        report.git_sha,
        report.host_cpus,
        a.seed,
        a.seconds,
        if a.quick {
            " · quick (bounds not evaluated)"
        } else {
            ""
        }
    );
    for w in metrics::WORKLOADS
        .iter()
        .filter(|w| a.only.is_none_or(|o| o.name == w.name))
    {
        println!("\n{} — {}", w.name, w.why);
        let (e2e, info) = run_child(w, a, false);
        print_metrics(&e2e.metrics);
        println!("  info {}", info.compact());
        let (layers, _) = run_child(w, a, true);
        print_metrics(&layers.metrics);
        let coverage = layers
            .metrics
            .get("core.step_coverage")
            .map_or(0.0, |v| v.value);
        let overhead = layers
            .metrics
            .get("core.trace_overhead_ms")
            .map_or(0.0, |v| v.value);
        println!("  step coverage {coverage:.3} · tracing overhead {overhead:.3} ms");
        let attempted = e2e.attempted + layers.attempted;
        let failed = e2e.failed + layers.failed;
        println!("  ops_attempted {attempted} · ops_failed {failed}");
        report.workloads.push(WorkloadReport {
            name: w.name.to_string(),
            ops_attempted: attempted,
            ops_failed: failed,
            end_to_end: e2e.metrics,
            per_layer: layers.metrics,
            info,
        });
    }
    let path = write_out("report.json", &report.to_json())?;
    println!("\nreport -> {}", path.display());
    Ok(report.workloads.iter().all(|w| w.ops_failed == 0))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let a = parse_run_args(&args[1..])?;
            let Some(w) = a.workload else {
                return run_all(&a);
            };
            let (result, info) = run_one(w, &a)?;
            print_metrics(&result.metrics);
            println!("info {}", info.compact());
            println!("{}", result.to_json().compact());
            // The result line carries the verdict; the exit code says
            // the benchmark itself ran.
            Ok(true)
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err("compare takes two report files".into());
            };
            let (table, holds) = report::compare(&Report::read(a)?, &Report::read(b)?);
            print!("{table}");
            Ok(holds)
        }
        // What `setup_seconds` runs in a fresh process: one timed build.
        Some("setup") => {
            let a = parse_run_args(&args[1..])?;
            let w = a.workload.ok_or("setup needs --workload")?;
            let (driver, seconds) = workloads::timed_build(w, &workloads::spec_of(w), a.seed)?;
            drop(driver);
            println!("{seconds}");
            Ok(true)
        }
        Some("metrics") => {
            print!("{}", metrics::describe());
            Ok(true)
        }
        _ => Err(
            "usage: benchmark run [--workload W --trace 0|1] [--seed N] [--seconds S] [--only W] \
                  [--quick] | benchmark compare <a.json> <b.json> | benchmark metrics"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seconds_is_what_benchmark_json_declares() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn run_arguments_are_checked() {
        let parse =
            |s: &str| parse_run_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload v1309_amr --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.unwrap().name, a.seed, a.seconds, a.trace),
            ("v1309_amr", 7, 3.0, true)
        );
        assert!(parse("--only binary_dist2 --quick").unwrap().quick);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--trace 2",
            "--seed",
            "--fast",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
