//! The harness's own in-memory spans and the sampling rule of the
//! layer replay.
//!
//! Spans are recorded here, around the calls into each layer;
//! `amt::trace::TraceSession` is not enabled, so what happens inside a
//! call (barrier waits, per-locality idle time) is out of scope. The
//! buffer is written as Chrome trace JSON when the run ends.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one step (or one replay pass) share an identifier.
    pub step_id: u64,
}

/// Calls per timing: one warm-up, then up to this many samples.
const MAX_SAMPLES: usize = 5;

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Span every timing is recorded under.
    pub parent: Option<usize>,
    pub step_id: u64,
    /// Seconds one timing may spend on its samples. A call slower than
    /// this is sampled once, warm-up and sample in one, so a 3 s solve
    /// on the flagship tree does not cost 18 s.
    pub sample_budget_s: f64,
    /// Calls made into the program, and those that returned an error
    /// or broke an exactness check.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new(sample_budget_s: f64) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            parent: None,
            step_id: 0,
            sample_budget_s,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.parent,
            step_id: self.step_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// One spanned call; returns its result and its seconds.
    pub fn call<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.attempted += 1;
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// Median seconds of up to five calls after one warm-up, within the
    /// sample budget; also returns how many samples the median is over.
    pub fn sample(&mut self, name: &str, mut f: impl FnMut()) -> (f64, usize) {
        self.sample_prepared(name, || (), |()| f())
    }

    /// [`Recorder::sample`] for a call that consumes its input: `prep`
    /// builds a fresh input before every call, outside the span.
    pub fn sample_prepared<P>(
        &mut self,
        name: &str,
        mut prep: impl FnMut() -> P,
        mut f: impl FnMut(P),
    ) -> (f64, usize) {
        let input = prep();
        let ((), first) = self.call(&format!("{name}#warmup"), || f(input));
        if first >= self.sample_budget_s {
            return (first, 1);
        }
        let n = ((self.sample_budget_s / first.max(1e-9)) as usize).clamp(1, MAX_SAMPLES);
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let input = prep();
            samples.push(self.call(name, || f(input)).1);
        }
        (stats::median(&samples).expect("n >= 1"), n)
    }

    /// [`Recorder::sample`] stored as milliseconds under `metric`.
    pub fn sample_ms(&mut self, metric: &'static str, f: impl FnMut()) -> f64 {
        let (s, _) = self.sample(metric, f);
        self.set(metric, s * 1e3)
    }

    /// Fastest seconds of `n` calls: for kernels short enough that the
    /// minimum is the undisturbed cost.
    pub fn best_of(&mut self, name: &str, n: usize, mut f: impl FnMut()) -> f64 {
        (0..n)
            .map(|_| self.call(name, &mut f).1)
            .fold(f64::INFINITY, f64::min)
    }

    pub fn set(&mut self, metric: &'static str, value: f64) -> f64 {
        self.metrics.insert(metric, value);
        value
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// An exact count must come out the same every time it is taken.
    pub fn expect_equal(&mut self, what: &str, a: u64, b: u64) {
        if a != b {
            self.fail(format!("{what} did not repeat exactly: {a} then {b}"));
        }
    }

    /// Chrome `about:tracing` / Perfetto JSON, one complete event per
    /// span, parent and step id in `args`.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    (
                        "cat",
                        Json::Str(s.name.split('.').next().unwrap_or("").to_string()),
                    ),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("step_id", Json::Num(s.step_id as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut rec = Recorder::new(1.0);
        let root = rec.open("core.step");
        rec.parent = Some(root);
        rec.step_id = 3;
        let (v, s) = rec.call("octree.halo_fill_ms", || 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        rec.parent = None;
        rec.close(root);
        assert_eq!(rec.spans[1].parent, Some(root));
        assert_eq!(rec.spans[1].step_id, 3);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let doc = Json::parse(&rec.chrome_json().compact()).unwrap();
        assert_eq!(
            doc.get("traceEvents").and_then(Json::as_arr).unwrap().len(),
            2
        );
    }

    #[test]
    fn sampling_respects_the_budget() {
        let mut calls = 0;
        let mut rec = Recorder::new(1.0);
        let (_, n) = rec.sample("fast", || calls += 1);
        assert_eq!((n, calls), (MAX_SAMPLES, MAX_SAMPLES + 1));
        // A call slower than the budget is its own single sample.
        let mut slow = Recorder::new(0.0);
        let mut calls = 0;
        let (_, n) = slow.sample("slow", || calls += 1);
        assert_eq!((n, calls), (1, 1));
        assert_eq!(rec.attempted, (MAX_SAMPLES + 1) as u64);
    }

    #[test]
    fn inexact_counts_fail() {
        let mut rec = Recorder::new(1.0);
        rec.expect_equal("x", 4, 4);
        assert_eq!(rec.failed, 0);
        rec.expect_equal("x", 4, 5);
        assert_eq!((rec.failed, rec.failures.len()), (1, 1));
    }
}
