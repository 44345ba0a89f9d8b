//! Metric names, the result line, and the small statistics every
//! workload shares.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload when tracing is off.
/// Names and units must match `BENCHMARK.json` (a test checks this).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("sim_io_ms_per_op", "ms"),
    ("ok_share", "share"),
    ("heap_peak_mb", "MB"),
    ("read_p50_ms", "ms"),
    ("recovery_s", "s"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
];

/// Join operators as named in per-layer metrics, with the span name
/// their run records carry.
pub const ALGOS: &[(&str, &str)] = &[
    ("inljn", "inljn"),
    ("stacktree", "stack_tree_desc"),
    ("adb", "adb"),
    ("shcj", "shcj"),
    ("mhcj", "mhcj"),
    ("mhcj_rollup", "mhcj_rollup"),
    ("vpj", "vpj"),
];

/// Planner choices as named in `joins.planner.<NAME>_steps`.
pub const PLANNER: &[&str] = &[
    "INLJN",
    "STACKTREE",
    "ADBPLUS",
    "SHCJ",
    "MHCJ_ROLLUP",
    "VPJ",
    "SHARED",
];

/// Tiled phase groups of `joins.phase.<phase>.self_ms`; every other
/// phase name (load, plan, fallback, the tracer's remainder) is `other`.
pub const PHASES: &[&str] = &["partition", "sort", "build", "probe", "merge", "other"];

/// Per-layer metrics, printed by every workload when tracing is on. A
/// workload that does not exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut push = |n: &str, u: &'static str| v.push((n.to_string(), u));
    push("datagen.generate_s", "s");
    push("xml.encode_s", "s");
    push("storage.load_s", "s");
    push("storage.load_pages", "count");
    push("server.service_p50_ms", "ms");
    push("server.net_ms", "ms");
    push("server.admission.peak_waiting", "count");
    push("server.admission.rejected", "count");
    for p in PLANNER {
        push(&format!("joins.planner.{p}_steps"), "count");
    }
    for (a, _) in ALGOS {
        push(&format!("joins.{a}.wall_ms"), "ms");
        push(&format!("joins.{a}.sim_io_ms"), "ms");
    }
    for p in PHASES {
        push(&format!("joins.phase.{p}.self_ms"), "ms");
    }
    push("joins.rollup.false_hits", "count");
    push("joins.pairs_per_op", "count");
    push("joins.shared.fallback_share", "share");
    push("joins.shared.pages_read_per_op", "count");
    push("storage.pool.hit_ratio", "share");
    push("storage.pool.misses_per_op", "count");
    push("storage.pool.hit_ns_1t", "ns");
    push("storage.pool.hit_ns_2t", "ns");
    push("storage.disk.reads_per_op", "count");
    push("storage.disk.writes_per_op", "count");
    push("storage.disk.seq_read_share", "share");
    push("storage.zone.pages_skipped_per_op", "count");
    push("storage.codec.packed_ratio", "ratio");
    push("storage.codec.decodes_per_op", "count");
    push("index.probe_ns", "ns");
    push("index.bulk_load_ms", "ms");
    push("core.ancestors_ns", "ns");
    push("joins.update.mutate_us", "us");
    push("storage.wal.flush_us", "us");
    push("storage.wal.frames_per_op", "count");
    push("storage.wal.page_writes_per_op", "count");
    push("storage.wal.gate_flushes", "count");
    push("storage.recovery.frames_scanned", "count");
    push("storage.recovery.ops_applied", "count");
    push("storage.recovery.us_per_frame", "us");
    push("trace.overhead_share", "share");
    push("trace.spans", "count");
    v
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Measured operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed their correctness check.
    pub failed: u64,
    /// Correctness or repeatability violations, one line each.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Exact counters (page, frame and pair counts) that must repeat
    /// bit-for-bit for a seed; printed to stderr for citation.
    pub exact: BTreeMap<String, u64>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a correctness violation.
    pub fn fail(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: end-to-end metrics, or per-layer ones when
    /// `traced`. A missing end-to-end metric is a bug in the workload.
    pub fn render(&self, traced: bool) -> String {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut m = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("workload did not measure {name}"),
            };
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                m.push_str(", ");
            }
            m.push_str(&format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The exact counters as one JSON object.
    pub fn exact_json(&self) -> String {
        let body: Vec<String> = self
            .exact
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Nearest rank (1-based) of the `p`-th percentile (0–100) among `n`
/// samples. Multiplying before dividing keeps whole-number ranks exact.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile (0–100) of ascending `sorted`, nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// The smallest of `values`: the time of a repeated, identical piece of
/// work with the host's slow spells left out. On a shared host a stretch
/// of a second or more can run 1.5x slower than the next, so the median
/// of a few short timings jumps between the two speeds.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Latency samples of one kind, in milliseconds.
#[derive(Default, Clone)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    /// Adds one sample given in nanoseconds.
    pub fn push_ns(&mut self, ns: u128) {
        self.0.push(ns as f64 / 1e6);
    }

    /// Sorted copy.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median in ms.
    pub fn p50(&self) -> f64 {
        percentile(&self.sorted(), 50.0)
    }

    /// The `p`-th percentile in ms; `None` when fewer than ten samples
    /// lie beyond it, the least a tail figure needs.
    pub fn tail(&self, p: f64) -> Option<f64> {
        let v = self.sorted();
        (v.len() >= rank(p, v.len()) + 10).then(|| percentile(&v, p))
    }
}

/// Derives an independent 64-bit value for input stream `stream` from
/// the benchmark seed (SplitMix64 finalizer). The program under test only
/// ever sees values derived this way, never the seed itself.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sets `tail_ms` to the `p`-th percentile of `lat`, or records a
/// violation when fewer than ten samples lie beyond it.
pub fn set_tail(out: &mut Outcome, lat: &Latencies, p: f64) {
    match lat.tail(p) {
        Some(v) => out.set("tail_ms", v),
        None => out.fail(format!(
            "{} samples: fewer than ten beyond p{p}",
            lat.0.len()
        )),
    }
}

/// One window of a measured phase: the ops it completed, its length and
/// their latencies.
#[derive(Default)]
pub struct Window {
    /// Ops completed in the window.
    pub ops: u64,
    /// Length of the window in seconds.
    pub secs: f64,
    /// Latencies of those ops.
    pub lat: Latencies,
}

/// Cuts a measured phase of `wall` seconds into equal windows of about
/// `window_s` seconds (at least one). `done` holds each op's completion
/// time (seconds into the phase) and latency (ms).
pub fn split(done: &[(f64, f64)], wall: f64, window_s: f64) -> Vec<Window> {
    let n = ((wall / window_s).floor() as usize).max(1);
    let secs = wall / n as f64;
    let mut w: Vec<Window> = (0..n)
        .map(|_| Window {
            secs,
            ..Window::default()
        })
        .collect();
    for &(at, ms) in done {
        let i = ((at / secs) as usize).min(n - 1);
        w[i].ops += 1;
        w[i].lat.0.push(ms);
    }
    w
}

/// Sets `ops_per_s`, `p50_ms` and `tail_ms` (the workload's fixed
/// percentile `tail`) to the medians of their per-window values, so that
/// a slow spell of the host covering less than half of the windows does
/// not move them. Every window must hold at least ten samples beyond the
/// tail percentile.
pub fn set_windowed(out: &mut Outcome, windows: &[Window], tail: f64) {
    let (mut rate, mut p50, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    for w in windows {
        rate.push(w.ops as f64 / w.secs);
        p50.push(w.lat.p50());
        match w.lat.tail(tail) {
            Some(v) => tails.push(v),
            None => out.fail(format!(
                "a window has only {} samples: fewer than ten beyond p{tail}",
                w.lat.0.len()
            )),
        }
    }
    out.set("ops_per_s", median(&rate));
    out.set("p50_ms", median(&p50));
    out.set("tail_ms", median(&tails));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut l = Latencies::default();
        for i in 0..100 {
            l.push_ns(i * 1_000_000);
        }
        assert!(l.tail(99.0).is_none(), "100 samples leave 1 beyond p99");
        assert_eq!(l.tail(90.0), Some(89.0), "and 10 beyond p90");
    }

    #[test]
    fn windows_split_by_completion_time() {
        let done: Vec<(f64, f64)> = (0..300).map(|i| (i as f64 / 100.0, 1.0)).collect();
        let w = split(&done, 3.0, 1.0);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|w| w.ops == 100 && w.secs == 1.0));
        assert_eq!(split(&done, 0.5, 1.0).len(), 1, "at least one window");
        let mut out = Outcome::default();
        set_windowed(&mut out, &w, 90.0);
        assert!(out.errors.is_empty());
        assert_eq!(out.metrics["ops_per_s"], 100.0);
        set_windowed(&mut out, &w, 99.0);
        assert_eq!(out.errors.len(), 3, "p99 of 100 samples has one beyond it");
    }

    #[test]
    fn derived_streams_differ_by_seed_and_stream() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(8, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), 7);
    }

    #[test]
    fn render_prints_every_metric_once() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (n, _) in END_TO_END {
            o.set(n, 1.5);
        }
        let line = o.render(false);
        for (n, u) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{n}\": ")).count(), 1, "{n}");
            assert!(line.contains(&format!("\"unit\": \"{u}\"")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        let traced = o.render(true);
        assert!(traced.contains("\"trace.spans\": {\"value\": 0.0"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (n, u) in END_TO_END {
            let key = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&key), "BENCHMARK.json lacks {key}");
        }
        for (n, u) in per_layer() {
            let key = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&key), "BENCHMARK.json lacks {key}");
        }
        assert_eq!(
            json.matches("\"bound\"").count(),
            END_TO_END.len(),
            "one bound per end-to-end metric"
        );
    }
}
