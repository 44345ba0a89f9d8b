//! Per-layer measurements shared by the workloads: counter deltas, span
//! summaries from the existing tracer, and timed loops over single
//! layers' public functions.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pbitree_core::{Code, PBiTreeShape};
use pbitree_joins::trace::{SpanKind, SpanRecord};
use pbitree_joins::Algorithm;
use pbitree_storage::{BufferPool, IoStats, PageId, PoolStats};

use crate::report::{median, Outcome, ALGOS, PHASES};

/// The `joins.planner.<NAME>_steps` name of a planner choice.
pub fn planner_name(a: Algorithm) -> &'static str {
    match a {
        Algorithm::InlJn => "INLJN",
        Algorithm::StackTree => "STACKTREE",
        Algorithm::AncDesBPlus => "ADBPLUS",
        Algorithm::Shcj => "SHCJ",
        Algorithm::MhcjRollup => "MHCJ_ROLLUP",
        Algorithm::Vpj => "VPJ",
        Algorithm::SharedScan => "SHARED",
    }
}

/// Adds the planner's step counts to `out`.
pub fn set_planner_steps(out: &mut Outcome, algos: &[Algorithm]) {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for &a in algos {
        *counts.entry(planner_name(a)).or_default() += 1;
    }
    for (name, n) in counts {
        out.set(&format!("joins.planner.{name}_steps"), n as f64);
        out.exact.insert(format!("planner.{name}"), n);
    }
}

/// The sum of two disk-counter deltas.
pub fn add_io(a: IoStats, b: IoStats) -> IoStats {
    IoStats {
        seq_reads: a.seq_reads + b.seq_reads,
        rand_reads: a.rand_reads + b.rand_reads,
        seq_writes: a.seq_writes + b.seq_writes,
        rand_writes: a.rand_writes + b.rand_writes,
        sim_ns: a.sim_ns + b.sim_ns,
    }
}

/// Pool and disk counters of a measured phase, per operation.
pub fn set_storage_counters(out: &mut Outcome, io: &IoStats, pool: &PoolStats, ops: u64) {
    let per_op = |x: u64| x as f64 / ops.max(1) as f64;
    let requests = pool.hits + pool.misses;
    out.set(
        "storage.pool.hit_ratio",
        if requests == 0 {
            0.0
        } else {
            pool.hits as f64 / requests as f64
        },
    );
    out.set("storage.pool.misses_per_op", per_op(pool.misses));
    out.set("storage.disk.reads_per_op", per_op(io.reads()));
    out.set("storage.disk.writes_per_op", per_op(io.writes()));
    out.set(
        "storage.disk.seq_read_share",
        if io.reads() == 0 {
            0.0
        } else {
            io.seq_reads as f64 / io.reads() as f64
        },
    );
    out.set(
        "storage.zone.pages_skipped_per_op",
        per_op(pool.pages_skipped),
    );
    out.set("storage.codec.decodes_per_op", per_op(pool.packed_decodes));
}

/// Bytes the packed pages written during a load use, over what their
/// records would take raw (0 when nothing was packed).
pub fn set_packed_ratio(out: &mut Outcome, load: &PoolStats) {
    out.set(
        "storage.codec.packed_ratio",
        if load.packed_pre_bytes == 0 {
            0.0
        } else {
            load.packed_post_bytes as f64 / load.packed_pre_bytes as f64
        },
    );
}

/// Summarizes the spans a traced phase of `ops` operations recorded:
/// tiled phase self time per op, per-operator wall and simulated I/O,
/// pairs and rollup false hits per op, and the span count.
pub fn set_trace_summary(out: &mut Outcome, spans: &[SpanRecord], ops: u64) {
    let ops = ops.max(1) as f64;
    let mut phase_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut wall: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut sim: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let (mut pairs, mut false_hits) = (0u64, 0u64);
    for s in spans {
        match s.kind {
            SpanKind::Phase if s.tiled => {
                let group = PHASES
                    .iter()
                    .find(|&&p| p == s.name)
                    .copied()
                    .unwrap_or("other");
                *phase_ns.entry(group).or_default() += s.cpu_ns;
            }
            SpanKind::Run if s.parent.is_none() => {
                pairs += s.pairs;
                false_hits += s.false_hits;
                if let Some((algo, _)) = ALGOS.iter().find(|(_, span)| *span == s.name) {
                    wall.entry(algo).or_default().push(s.cpu_ns as f64 / 1e6);
                    let e = sim.entry(algo).or_default();
                    e.0 += s.io.sim_ns;
                    e.1 += 1;
                }
            }
            _ => {}
        }
    }
    for p in PHASES {
        let ns = phase_ns.get(p).copied().unwrap_or(0);
        out.set(&format!("joins.phase.{p}.self_ms"), ns as f64 / 1e6 / ops);
    }
    for (algo, _) in ALGOS {
        if let Some(w) = wall.get(algo) {
            out.set(&format!("joins.{algo}.wall_ms"), median(w));
        }
        if let Some(&(ns, n)) = sim.get(algo) {
            out.set(
                &format!("joins.{algo}.sim_io_ms"),
                ns as f64 / 1e6 / n as f64,
            );
        }
    }
    out.set("joins.pairs_per_op", pairs as f64 / ops);
    out.set("joins.rollup.false_hits", false_hits as f64 / ops);
    out.set("trace.spans", spans.len() as f64);
}

/// `trace.overhead_share`: how much slower the traced phase's median
/// latency was than the untraced one's.
pub fn set_overhead(out: &mut Outcome, untraced_p50: f64, traced_p50: f64) {
    out.set(
        "trace.overhead_share",
        if untraced_p50 > 0.0 {
            traced_p50 / untraced_p50 - 1.0
        } else {
            0.0
        },
    );
}

/// Up to `max` pages of the pool's live files, each read once so they
/// are resident afterwards.
fn resident_pages(pool: &BufferPool, max: usize) -> Vec<PageId> {
    let mut pages = Vec::new();
    'files: for f in pool.live_files() {
        for p in 0..pool.num_pages(f) {
            if pages.len() >= max {
                break 'files;
            }
            pages.push(PageId::new(f, p));
        }
    }
    for &pid in &pages {
        drop(pool.read_page(pid).expect("resident page read"));
    }
    pages
}

/// Nanoseconds per `BufferPool::read_page` of a resident page, with
/// `threads` threads looping over the same pages for `dur`.
fn pool_hit_ns(pool: &BufferPool, pages: &[PageId], threads: usize, dur: Duration) -> f64 {
    if pages.is_empty() {
        return 0.0;
    }
    let per_thread: Vec<(u64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let start = Instant::now();
                    let mut n = 0u64;
                    let mut i = t * 7;
                    while start.elapsed() < dur {
                        for _ in 0..1024 {
                            let pid = pages[i % pages.len()];
                            i += 1;
                            let page = pool.read_page(pid).expect("resident page read");
                            std::hint::black_box(&page[0]);
                        }
                        n += 1024;
                    }
                    (n, start.elapsed().as_nanos() as f64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hit-loop thread panicked"))
            .collect()
    });
    let ns_per: Vec<f64> = per_thread.iter().map(|&(n, ns)| ns / n as f64).collect();
    median(&ns_per)
}

/// `storage.pool.hit_ns_1t` / `_2t` over a resident set of half the
/// pool's frames.
pub fn set_pool_hits(out: &mut Outcome, pool: &BufferPool) {
    let pages = resident_pages(pool, pool.capacity() / 2);
    let dur = Duration::from_millis(150);
    out.set("storage.pool.hit_ns_1t", pool_hit_ns(pool, &pages, 1, dur));
    out.set("storage.pool.hit_ns_2t", pool_hit_ns(pool, &pages, 2, dur));
}

/// `core.ancestors_ns`: nanoseconds to enumerate every ancestor of one
/// code, over `codes`.
pub fn set_ancestors_ns(out: &mut Outcome, shape: PBiTreeShape, codes: &[u64]) {
    if codes.is_empty() {
        return;
    }
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut acc = 0u64;
        for &c in codes {
            for a in shape.ancestors(Code::from_raw_unchecked(c)) {
                acc = acc.wrapping_add(a.get());
            }
        }
        std::hint::black_box(acc);
        samples.push(t.elapsed().as_nanos() as f64 / codes.len() as f64);
    }
    out.set("core.ancestors_ns", median(&samples));
}
