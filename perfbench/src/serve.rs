//! `serve_query` and `serve_batch`: the query service, embedded and
//! driven over loopback TCP by a closed loop of two clients.
//!
//! Every response is compared byte for byte with a serial baseline taken
//! at set-up, and the baseline itself is checked against the in-memory
//! evaluator (`DescendantPath::evaluate_naive`).

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pbitree_datagen::rng::Rng;
use pbitree_datagen::xmark::{self, XMarkSpec};
use pbitree_joins::trace::Tracer;
use pbitree_server::proto::Response;
use pbitree_server::{
    spawn, xmark_workload, Client, QueryOutcome, QueryService, ServerHandle, ServiceConfig,
};
use pbitree_storage::{CostModel, IoStats, PoolStats, PAGE_SIZE};
use pbitree_xml::{DescendantPath, EncodedDocument};

use crate::layers;
use crate::report::{derive, fastest, median, set_windowed, split, Latencies, Outcome};

/// One serving workload's fixed shape.
pub struct Spec {
    /// XMark scale factor of the corpus.
    pub sf: f64,
    /// Region-range shards of the service (above 1 the corpus is loaded
    /// a second time, partitioned, for the shared-scan path).
    pub shards: usize,
    /// Buffer-pool frames of the service.
    pub frames: usize,
    /// Whether element pages are packed.
    pub compression: bool,
    /// Paths per request: 1 sends `QUERY`, more send one `QUERYBATCH`.
    pub batch: usize,
    /// Frames each request asks admission for (`None`: the default).
    pub budget: Option<usize>,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// The fixed percentile of `tail_ms`: the highest of p99 / p90 with
    /// at least ten samples beyond it in every window.
    pub tail: f64,
    /// Length of the windows the measured phase is cut into.
    pub window_s: f64,
    /// The corpus fits the pool, so the measured phase reads nothing from
    /// disk; `sim_io_ms_per_op` is then the simulated disk time per
    /// request of one serial pass over every path from a cold pool.
    pub hot: bool,
}

/// Hot service: the corpus (≈270 pages) fits the 500-frame pool.
pub const QUERY: Spec = Spec {
    sf: 0.05,
    shards: 1,
    frames: 500,
    compression: false,
    batch: 1,
    budget: None,
    setups: 40,
    tail: 99.0,
    window_s: 1.0,
    hot: true,
};

/// Cold batched scans: the packed corpus (≈1070 pages) is sixteen times
/// the 64-frame pool, and the four descendant files the batches scan
/// (≈130 packed pages) are four times a shard's 32 frames. Each batch
/// asks for all 48 grantable frames, so the two clients' batches queue
/// in admission.
pub const BATCH: Spec = Spec {
    sf: 0.5,
    shards: 2,
    frames: 64,
    compression: true,
    batch: 16,
    budget: Some(48),
    setups: 16,
    tail: 90.0,
    window_s: 4.0,
    hot: false,
};

/// Closed-loop clients (the host has two cores).
pub const CLIENTS: usize = 2;
/// Bytes of one stored element record.
const ELEMENT_BYTES: usize = 12;

/// The distinct paths requests draw from.
pub fn paths(spec: &Spec) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    if spec.batch == 1 {
        // The sorted-input B1–B10 mix; raw rows are left to join_cold.
        for w in xmark_workload() {
            if !w.raw && !out.contains(&w.path) {
                out.push(w.path);
            }
        }
    } else {
        // Shareable two-step paths: small ancestor sets (so a group's
        // ancestors fit the grant and the quadratic ground-truth check
        // stays cheap) over four shared descendant tags.
        for d in ["#text", "text", "keyword", "bold"] {
            for a in ["category", "mail", "mailbox", "closed_auction"] {
                out.push(format!("//{a}//{d}"));
            }
        }
    }
    out
}

fn config(spec: &Spec, corpus_seed: u64) -> ServiceConfig {
    ServiceConfig {
        sf: spec.sf,
        seed: corpus_seed,
        buffer_pages: spec.frames,
        reserve_frames: 16,
        default_budget: 64,
        max_queue: 4096,
        cost: CostModel::default(),
        compression: spec.compression,
        threads: 1,
        shards: spec.shards,
    }
}

/// The requests of one client: indices into [`paths`], `batch` per op.
struct Picker {
    rng: Rng,
    n: usize,
    batch: usize,
}

impl Picker {
    fn new(seed: u64, client: usize, n: usize, batch: usize) -> Self {
        Picker {
            rng: Rng::seed_from_u64(derive(seed, 100 + client as u64)),
            n,
            batch,
        }
    }

    fn next(&mut self) -> Vec<usize> {
        (0..self.batch)
            .map(|_| self.rng.gen_range(0..self.n))
            .collect()
    }
}

/// The expected answer to every path.
struct Baseline {
    bytes: Vec<Vec<u8>>,
    codes: Vec<Vec<u64>>,
}

/// A running embedded server plus its serial baseline.
struct Stood {
    handle: ServerHandle,
    baseline: Baseline,
}

impl Stood {
    fn service(&self) -> &Arc<QueryService> {
        self.handle.service()
    }

    fn stop(self) {
        self.handle.shutdown();
        if let Err(e) = self.handle.join() {
            eprintln!("warning: server join failed: {e}");
        }
    }
}

/// Spawns the server and takes the serial baseline over one connection,
/// which also warms the pool.
fn stand_up(svc: QueryService, paths: &[String]) -> Result<Stood, String> {
    let handle = spawn(Arc::new(svc), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let mut baseline = Baseline {
        bytes: Vec::new(),
        codes: Vec::new(),
    };
    let mut c = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for p in paths {
        match c.query(p, false, None) {
            Ok(Response::Ok { codes, bytes }) => {
                baseline.bytes.push(bytes);
                baseline.codes.push(codes);
            }
            Ok(Response::Err(e)) => return Err(format!("baseline {p}: {e}")),
            Err(e) => return Err(format!("baseline {p}: {e}")),
        }
    }
    Ok(Stood { handle, baseline })
}

/// The set-ups of one run.
#[derive(Default)]
struct SetUps {
    /// Process-level set-up times: load, stand up, baseline pass.
    setup_s: Vec<f64>,
    /// Times of `QueryService::new` alone: rebuilding the service's
    /// stored corpus from its source, the read-only service's recovery.
    restart_s: Vec<f64>,
    /// The first set-up's baseline; every later one must equal it.
    first: Option<Vec<Vec<u8>>>,
    /// Load counters of the latest set-up (every set-up loads the same).
    load_io: Disks,
    load_pool: PoolStats,
    elements: usize,
}

impl SetUps {
    /// Loads the corpus, stands the service up and takes its baseline.
    fn one(
        &mut self,
        cfg: ServiceConfig,
        paths: &[String],
        out: &mut Outcome,
    ) -> Result<Stood, String> {
        let t0 = Instant::now();
        let svc = QueryService::new(cfg).map_err(|e| format!("corpus load: {e:?}"))?;
        let restart = t0.elapsed().as_secs_f64();
        self.load_io = disks(&svc);
        self.load_pool = svc.pool().pool_stats();
        self.elements = svc.document().all_coded_nodes().count();
        let s = stand_up(svc, paths)?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.restart_s.push(restart);
        match &self.first {
            None => {
                check_naive(out, s.service().document(), paths, &s.baseline);
                self.first = Some(s.baseline.bytes.clone());
            }
            Some(b) if *b != s.baseline.bytes => out.fail("baselines differ across set-ups".into()),
            Some(_) => {}
        }
        Ok(s)
    }
}

/// Checks the baseline against the in-memory evaluator.
fn check_naive(out: &mut Outcome, doc: &EncodedDocument, paths: &[String], base: &Baseline) {
    for (i, p) in paths.iter().enumerate() {
        let want: Vec<u64> = DescendantPath::parse(p)
            .expect("benchmark paths parse")
            .evaluate_naive(doc)
            .into_iter()
            .map(|c| c.get())
            .collect();
        if want != base.codes[i] {
            out.fail(format!("baseline {p} differs from evaluate_naive"));
        }
        if want.is_empty() {
            out.fail(format!("{p} has an empty answer"));
        }
    }
}

/// `sim_s` of every shard row in a `STATS` line, in shard order.
fn shard_values(stats: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\":");
    stats
        .match_indices(&pat)
        .map(|(i, _)| {
            let rest = &stats[i + pat.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].parse().expect("numeric shard counter")
        })
        .collect()
}

/// Disk counters of the service: its main pool plus every shard.
#[derive(Clone, Copy, Default)]
struct Disks {
    sim_ms: f64,
    reads: f64,
    writes: f64,
}

fn disks(svc: &QueryService) -> Disks {
    let io = svc.pool().io_stats();
    let stats = svc.stats_json();
    Disks {
        sim_ms: io.sim_ns as f64 / 1e6 + shard_values(&stats, "sim_s").iter().sum::<f64>() * 1e3,
        reads: io.reads() as f64 + shard_values(&stats, "reads").iter().sum::<f64>(),
        writes: io.writes() as f64 + shard_values(&stats, "writes").iter().sum::<f64>(),
    }
}

/// One client's measured phase.
struct Tally {
    start: Instant,
    attempted: u64,
    failed: u64,
    /// Completion time (s into the phase) and latency (ms) of each op
    /// that succeeded.
    done: Vec<(f64, f64)>,
    first_error: Option<String>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            start: Instant::now(),
            attempted: 0,
            failed: 0,
            done: Vec::new(),
            first_error: None,
        }
    }

    /// Records an op that was sent at `sent` and has just completed.
    fn record(&mut self, ok: Result<(), String>, sent: Instant) {
        let end = Instant::now();
        self.attempted += 1;
        match ok {
            Ok(()) => self.done.push((
                (end - self.start).as_secs_f64(),
                (end - sent).as_secs_f64() * 1e3,
            )),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }
}

/// What a measured phase of all clients produced.
struct Phase {
    attempted: u64,
    failed: u64,
    done: Vec<(f64, f64)>,
    wall: f64,
    errors: Vec<String>,
}

impl Phase {
    /// Every latency of the phase, pooled.
    fn lat(&self) -> Latencies {
        Latencies(self.done.iter().map(|&(_, ms)| ms).collect())
    }
}

fn merge(tallies: Vec<Tally>, wall: f64) -> Phase {
    let mut p = Phase {
        attempted: 0,
        failed: 0,
        done: Vec::new(),
        wall,
        errors: Vec::new(),
    };
    for t in tallies {
        p.attempted += t.attempted;
        p.failed += t.failed;
        p.done.extend(t.done);
        p.errors.extend(t.first_error);
    }
    p
}

/// Runs the closed loop over TCP for `dur`: every client issues its next
/// request as soon as the previous answer is in and checked.
fn drive_tcp(spec: &Spec, stood: &Stood, paths: &[String], seed: u64, dur: Duration) -> Phase {
    let addr = stood.handle.addr();
    let base = &stood.baseline;
    let start = Barrier::new(CLIENTS + 1);
    let (tallies, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let start = &start;
                s.spawn(move || {
                    let mut pick = Picker::new(seed, id, paths.len(), spec.batch);
                    let conn = Client::connect(addr);
                    start.wait();
                    let mut t = Tally::new();
                    let mut c = match conn {
                        Ok(c) => c,
                        Err(e) => {
                            t.record(Err(format!("connect: {e}")), Instant::now());
                            return t;
                        }
                    };
                    let deadline = Instant::now() + dur;
                    while Instant::now() < deadline {
                        let ix = pick.next();
                        let refs: Vec<&str> = ix.iter().map(|&i| paths[i].as_str()).collect();
                        let t0 = Instant::now();
                        let resp = if spec.batch == 1 {
                            c.query(refs[0], false, spec.budget).map(|r| vec![r])
                        } else {
                            c.query_batch(&refs, false, spec.budget)
                        };
                        let ok = match resp {
                            Err(e) => Err(format!("io: {e}")),
                            Ok(rs) => ix.iter().zip(&rs).try_for_each(|(&i, r)| match r {
                                Response::Ok { bytes, .. } if *bytes == base.bytes[i] => Ok(()),
                                Response::Ok { .. } => Err(format!("{} mismatched", paths[i])),
                                Response::Err(e) => Err(format!("{}: {e}", paths[i])),
                            }),
                        };
                        let broken = ok.as_ref().is_err_and(|e| e.starts_with("io:"));
                        t.record(ok, t0);
                        if broken {
                            break;
                        }
                    }
                    t
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (tallies, t0.elapsed().as_secs_f64())
    });
    merge(tallies, wall)
}

/// The same closed loop, calling the service in process (no protocol,
/// no sockets); returns the phase and every outcome's algorithms.
fn drive_in_process(
    spec: &Spec,
    svc: &QueryService,
    base: &Baseline,
    paths: &[String],
    seed: u64,
    dur: Duration,
) -> (Phase, Vec<pbitree_server::Algorithm>) {
    let start = Barrier::new(CLIENTS + 1);
    let (results, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let start = &start;
                s.spawn(move || {
                    let mut algos = Vec::new();
                    let mut pick = Picker::new(seed, id, paths.len(), spec.batch);
                    start.wait();
                    let mut t = Tally::new();
                    let deadline = Instant::now() + dur;
                    while Instant::now() < deadline {
                        let ix = pick.next();
                        let t0 = Instant::now();
                        let res: Result<Vec<QueryOutcome>, String> = if spec.batch == 1 {
                            svc.execute(&paths[ix[0]], false, spec.budget)
                                .map(|o| vec![o])
                                .map_err(|e| e.to_string())
                        } else {
                            let batch: Vec<String> = ix.iter().map(|&i| paths[i].clone()).collect();
                            svc.execute_batch(&batch, false, spec.budget)
                                .map_err(|e| e.to_string())
                                .and_then(|v| {
                                    v.into_iter()
                                        .collect::<Result<Vec<_>, _>>()
                                        .map_err(|e| e.to_string())
                                })
                        };
                        let ok = res.and_then(|outs| {
                            ix.iter().zip(&outs).try_for_each(|(&i, o)| {
                                algos.extend(o.algorithms.iter().copied());
                                if o.codes == base.codes[i] {
                                    Ok(())
                                } else {
                                    Err(format!("{} mismatched in process", paths[i]))
                                }
                            })
                        });
                        t.record(ok, t0);
                    }
                    (t, algos)
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let results: Vec<(Tally, Vec<_>)> = handles
            .into_iter()
            .map(|h| h.join().expect("in-process client panicked"))
            .collect();
        (results, t0.elapsed().as_secs_f64())
    });
    let mut algos = Vec::new();
    let mut tallies = Vec::new();
    for (t, a) in results {
        tallies.push(t);
        algos.extend(a);
    }
    (merge(tallies, wall), algos)
}

/// Simulated disk milliseconds per request of one serial in-process pass
/// over every path, starting from an empty pool.
fn cold_pass_sim_ms(svc: &QueryService, paths: &[String], base: &Baseline) -> Result<f64, String> {
    svc.pool()
        .evict_all()
        .map_err(|e| format!("evict_all: {e}"))?;
    let d0 = disks(svc);
    for (i, p) in paths.iter().enumerate() {
        let o = svc.execute(p, false, None).map_err(|e| e.to_string())?;
        if o.codes != base.codes[i] {
            return Err(format!("{p} mismatched in the cold pass"));
        }
    }
    Ok((disks(svc).sim_ms - d0.sim_ms) / paths.len() as f64)
}

fn absorb(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    for e in &phase.errors {
        out.fail(e.clone());
    }
}

/// Runs the workload. Untraced: every end-to-end metric. Traced: the
/// per-layer metrics, from an untraced TCP phase, an in-process phase
/// and a traced TCP phase of a third of `seconds` each.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(spec, seed, seconds, traced, &mut out) {
        out.fail(e);
    }
    out
}

fn run_inner(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = config(spec, derive(seed, 1));
    let paths = paths(spec);
    // Half the set-ups run before the measured phase and half after it,
    // so their times sample the host at two moments.
    let before = if traced { 1 } else { spec.setups.div_ceil(2) };
    let mut ups = SetUps::default();
    let mut stood = ups.one(cfg, &paths, out)?;
    for _ in 1..before {
        stood.stop();
        stood = ups.one(cfg, &paths, out)?;
    }
    let user_bytes = (ups.elements * ELEMENT_BYTES) as f64;
    let load_bytes = ups.load_io.writes * PAGE_SIZE as f64;

    if !traced {
        let svc = stood.service().clone();
        let d0 = disks(&svc);
        let phase = drive_tcp(spec, &stood, &paths, seed, Duration::from_secs_f64(seconds));
        let d1 = disks(&svc);
        let sim_ms_per_op = if spec.hot {
            cold_pass_sim_ms(&svc, &paths, &stood.baseline)?
        } else {
            (d1.sim_ms - d0.sim_ms) / phase.attempted.max(1) as f64
        };
        drop(svc);
        stood.stop();
        for _ in before..spec.setups {
            ups.one(cfg, &paths, out)?.stop();
        }
        absorb(out, &phase);
        out.set("setup_s", median(&ups.setup_s));
        out.set("recovery_s", fastest(&ups.restart_s));
        set_windowed(
            out,
            &split(&phase.done, phase.wall, spec.window_s),
            spec.tail,
        );
        // Every op of a read-only workload is a read.
        out.set("read_p50_ms", out.metrics["p50_ms"]);
        out.set("sim_io_ms_per_op", sim_ms_per_op);
        // The service writes each corpus page once at load and never
        // again, so the pages written are also the pages held.
        out.set("write_amp", load_bytes / user_bytes);
        out.set("space_amp", load_bytes / user_bytes);
        return Ok(());
    }

    // Traced run. Generation and encoding are timed apart here (the
    // service does both inside `QueryService::new`).
    let t = Instant::now();
    let doc = xmark::generate(XMarkSpec {
        sf: cfg.sf,
        seed: cfg.seed,
    });
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let enc = EncodedDocument::encode(doc).map_err(|e| format!("encode: {e:?}"))?;
    let encode_s = t.elapsed().as_secs_f64();
    drop(enc);
    out.set("datagen.generate_s", generate_s);
    out.set("xml.encode_s", encode_s);
    out.set(
        "storage.load_s",
        (ups.restart_s[0] - generate_s - encode_s).max(0.0),
    );
    out.set("storage.load_pages", ups.load_io.writes);
    layers::set_packed_ratio(out, &ups.load_pool);

    let third = Duration::from_secs_f64(seconds / 3.0);
    let svc = stood.service().clone();
    let (io0, pool0, d0) = (svc.pool().io_stats(), svc.pool().pool_stats(), disks(&svc));
    let tcp = drive_tcp(spec, &stood, &paths, seed, third);
    let (io1, pool1, d1): (IoStats, _, _) =
        (svc.pool().io_stats(), svc.pool().pool_stats(), disks(&svc));
    absorb(out, &tcp);
    let ops = tcp.attempted.max(1);
    layers::set_storage_counters(out, &io1.since(&io0), &pool1.since(&pool0), ops);
    if spec.batch > 1 {
        out.set(
            "joins.shared.pages_read_per_op",
            (d1.reads - d0.reads) / ops as f64,
        );
    }
    let adm = svc.admission().stats();
    out.set("server.admission.peak_waiting", adm.peak_waiting as f64);
    out.set("server.admission.rejected", adm.rejected as f64);

    let (inproc, algos) = drive_in_process(spec, &svc, &stood.baseline, &paths, seed, third);
    absorb(out, &inproc);
    out.set("server.service_p50_ms", inproc.lat().p50());
    out.set("server.net_ms", tcp.lat().p50() - inproc.lat().p50());
    if spec.batch > 1 {
        let fallback = algos
            .iter()
            .filter(|&&a| a != pbitree_server::Algorithm::SharedScan)
            .count();
        out.set(
            "joins.shared.fallback_share",
            fallback as f64 / (inproc.attempted as usize * spec.batch).max(1) as f64,
        );
    }
    // Planner steps of one fixed pass: every path once, or the first
    // eight batches of client 0.
    let mut steps = Vec::new();
    if spec.batch == 1 {
        for p in &paths {
            let o = svc.execute(p, false, None).map_err(|e| e.to_string())?;
            steps.extend(o.algorithms);
        }
    } else {
        let mut pick = Picker::new(seed, 0, paths.len(), spec.batch);
        for _ in 0..8 {
            let batch: Vec<String> = pick.next().iter().map(|&i| paths[i].clone()).collect();
            for o in svc
                .execute_batch(&batch, false, spec.budget)
                .map_err(|e| e.to_string())?
            {
                steps.extend(o.map_err(|e| e.to_string())?.algorithms);
            }
        }
    }
    layers::set_planner_steps(out, &steps);
    layers::set_pool_hits(out, svc.pool());
    drop(svc);
    stood.stop();
    if pbitree_joins::trace::spans_recorded() != 0 {
        out.fail("untraced phases recorded spans".into());
    }

    let tracer = Arc::new(Tracer::default());
    let svc = QueryService::new(cfg)
        .map_err(|e| format!("corpus load: {e:?}"))?
        .with_tracer(tracer.clone());
    let stood = stand_up(svc, &paths)?;
    let spans_before = tracer.span_count();
    let traced_phase = drive_tcp(spec, &stood, &paths, seed, third);
    stood.stop();
    absorb(out, &traced_phase);
    if tracer.span_count() == spans_before {
        out.fail("the traced phase recorded no spans".into());
    }
    layers::set_trace_summary(out, &tracer.spans()[spans_before..], traced_phase.attempted);
    layers::set_overhead(out, tcp.lat().p50(), traced_phase.lat().p50());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_reaches_the_service_only_as_generated_inputs() {
        let (one, two) = (config(&QUERY, derive(1, 1)), config(&QUERY, derive(2, 1)));
        assert!(one.seed != 1 && one.seed != two.seed);
        let picks = |seed| {
            let mut p = Picker::new(seed, 0, paths(&BATCH).len(), BATCH.batch);
            (0..4).map(|_| p.next()).collect::<Vec<_>>()
        };
        assert_eq!(picks(1), picks(1));
        assert_ne!(picks(1), picks(2));
    }
}
