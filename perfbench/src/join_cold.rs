//! `join_cold`: the paper's own experiment. One op is one containment
//! join from a cold pool of `FRAMES` frames over raw (unsorted,
//! unindexed) inputs, with the default year-2000 disk cost model.
//!
//! Ops run in a fixed cycle — the seven algorithms over a single-height
//! Table 2 dataset, then the six that accept a multi-height ancestor set
//! over a multi-height one — and a run measures whole cycles only. With
//! one thread every op's page and simulated-I/O counts are a function of
//! the inputs alone, so they must repeat exactly: across the cycles of a
//! run, across its set-ups, and across runs of one seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pbitree_bench::harness::Algo;
use pbitree_bench::workloads::Workload;
use pbitree_datagen::rng::Rng;
use pbitree_datagen::synthetic::{self, SyntheticSpec};
use pbitree_index::BPlusTree;
use pbitree_joins::element::element_file_with;
use pbitree_joins::trace::Tracer;
use pbitree_joins::{CountSink, Element, JoinCtx, JoinError, JoinStats, SortPolicy};
use pbitree_storage::{BufferPool, CostModel, Disk, HeapFile, MemBackend, ScanOptions, PAGE_SIZE};

use crate::layers;
use crate::report::{derive, fastest, median, set_tail, Latencies, Outcome};

/// The paper's `b`: frames of the cold pool.
pub const FRAMES: usize = 64;
/// Scale of the Table 2 datasets: 100 000 elements a side, ≈300 pages,
/// so every input is more than four times the pool.
pub const SCALE: f64 = 0.1;
/// Groups the measured cycles are cut into: one fastest repeat per op
/// and group gives 104 timings, ten of them beyond the p90 of `tail_ms`.
const GROUPS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 6;
/// Input loads per set-up; `recovery_s` is the fastest.
const RELOADS: usize = 8;
const ELEMENT_BYTES: usize = 12;

const SINGLE_ALGOS: [Algo; 7] = [
    Algo::InlJn,
    Algo::StackTree,
    Algo::AncDesBPlus,
    Algo::Shcj,
    Algo::Mhcj,
    Algo::MhcjRollup,
    Algo::Vpj,
];
/// SHCJ needs a single-height ancestor set.
const MULTI_ALGOS: [Algo; 6] = [
    Algo::InlJn,
    Algo::StackTree,
    Algo::AncDesBPlus,
    Algo::Mhcj,
    Algo::MhcjRollup,
    Algo::Vpj,
];

/// The two datasets, SLLH and MLLH of Table 2, re-seeded from the
/// benchmark seed.
pub fn specs(seed: u64) -> [SyntheticSpec; 2] {
    let single = SyntheticSpec {
        seed: derive(seed, 10),
        ..synthetic::paper_single_height()[0].scaled(SCALE)
    };
    let multi = SyntheticSpec {
        seed: derive(seed, 11),
        ..synthetic::paper_multi_height()[0].scaled(SCALE)
    };
    [single, multi]
}

fn generate(spec: &SyntheticSpec) -> Workload {
    let ds = synthetic::generate(spec);
    Workload {
        name: spec.name.to_string(),
        shape: ds.shape,
        a: ds.a,
        d: ds.d,
        paper_results: None,
    }
}

/// One dataset loaded onto its own cold pool.
struct Loaded {
    ctx: JoinCtx,
    a: HeapFile<Element>,
    d: HeapFile<Element>,
    algos: &'static [Algo],
    name: String,
}

fn load(w: &Workload, algos: &'static [Algo]) -> Result<Loaded, String> {
    let ctx = JoinCtx::builder(
        BufferPool::new(
            Disk::new(Box::new(MemBackend::new()), CostModel::default()),
            FRAMES,
        ),
        w.shape,
    )
    .compression(false)
    .build();
    let opts = ScanOptions::default().with_compress(false);
    let a = element_file_with(&ctx.pool, opts, w.a.iter().copied()).map_err(|e| e.to_string())?;
    let d = element_file_with(&ctx.pool, opts, w.d.iter().copied()).map_err(|e| e.to_string())?;
    ctx.pool.evict_all().map_err(|e| e.to_string())?;
    Ok(Loaded {
        ctx,
        a,
        d,
        algos,
        name: w.name.clone(),
    })
}

fn join(
    ctx: &JoinCtx,
    algo: Algo,
    a: &HeapFile<Element>,
    d: &HeapFile<Element>,
) -> Result<(JoinStats, u64), JoinError> {
    use pbitree_joins::{adb, inljn, mhcj, rollup, shcj, stacktree, vpj};
    let mut sink = CountSink::default();
    let stats = match algo {
        Algo::InlJn => inljn::inljn(ctx, a, d, &mut sink),
        Algo::StackTree => {
            stacktree::stack_tree_desc(ctx, a, d, SortPolicy::SortOnTheFly, &mut sink)
        }
        Algo::AncDesBPlus => adb::anc_des_bplus(ctx, a, d, SortPolicy::SortOnTheFly, &mut sink),
        Algo::Shcj => shcj::shcj(ctx, a, d, &mut sink),
        Algo::Mhcj => mhcj::mhcj(ctx, a, d, &mut sink),
        Algo::MhcjRollup => {
            rollup::mhcj_rollup(ctx, a, d, rollup::RollupOptions::default(), &mut sink)
        }
        Algo::Vpj => vpj::vpj(ctx, a, d, &mut sink).map(|(s, _)| s),
    }?;
    Ok((stats, sink.count))
}

/// The exact counters of one op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Counts {
    seq_reads: u64,
    rand_reads: u64,
    seq_writes: u64,
    rand_writes: u64,
    sim_ns: u64,
    pairs: u64,
    false_hits: u64,
}

/// One measured (or warm-up) cycle.
struct Cycle {
    counts: Vec<Counts>,
    ms: Vec<f64>,
    /// Ops that errored or returned the wrong pair count.
    failed: u64,
    io: pbitree_storage::IoStats,
    pool: pbitree_storage::PoolStats,
}

/// Runs every op of the cycle once, each from a cold pool, checking its
/// pair count against ground truth.
fn cycle(sets: &[Loaded], exact: &[u64], out: &mut Outcome) -> Cycle {
    let mut c = Cycle {
        counts: Vec::new(),
        ms: Vec::new(),
        failed: 0,
        io: Default::default(),
        pool: Default::default(),
    };
    for (k, set) in sets.iter().enumerate() {
        for &algo in set.algos {
            if let Err(e) = set.ctx.pool.evict_all() {
                out.fail(format!("evict_all: {e}"));
            }
            let (io0, pool0) = (set.ctx.pool.io_stats(), set.ctx.pool.pool_stats());
            let t0 = Instant::now();
            let res = join(&set.ctx, algo, &set.a, &set.d);
            let ns = t0.elapsed().as_nanos();
            let io = set.ctx.pool.io_stats().since(&io0);
            let pool = set.ctx.pool.pool_stats().since(&pool0);
            c.io = layers::add_io(c.io, io);
            c.pool.absorb(&pool);
            c.ms.push(ns as f64 / 1e6);
            let stats = match res {
                Ok((stats, sunk)) if stats.pairs == exact[k] && sunk == exact[k] => stats,
                Ok((stats, sunk)) => {
                    c.failed += 1;
                    out.fail(format!(
                        "{} {}: {} pairs ({} sunk), expected {}",
                        set.name,
                        algo.name(),
                        stats.pairs,
                        sunk,
                        exact[k]
                    ));
                    stats
                }
                Err(e) => {
                    c.failed += 1;
                    out.fail(format!("{} {}: {e:?}", set.name, algo.name()));
                    JoinStats::default()
                }
            };
            c.counts.push(Counts {
                seq_reads: io.seq_reads,
                rand_reads: io.rand_reads,
                seq_writes: io.seq_writes,
                rand_writes: io.rand_writes,
                sim_ns: io.sim_ns,
                pairs: stats.pairs,
                false_hits: stats.false_hits,
            });
        }
    }
    c
}

/// A whole set-up: generate, load and one warm-up cycle.
struct Setup {
    sets: Vec<Loaded>,
    exact: Vec<u64>,
    warm: Vec<Counts>,
    generate_s: f64,
    load_s: f64,
    reload_s: Vec<f64>,
    total_s: f64,
    load_writes: u64,
    load_pool: pbitree_storage::PoolStats,
    elements: usize,
    pages: u64,
    work: Vec<Workload>,
}

fn set_up(seed: u64, exact: Option<&[u64]>, out: &mut Outcome) -> Result<Setup, String> {
    let t0 = Instant::now();
    let work: Vec<Workload> = specs(seed).iter().map(generate).collect();
    let generate_s = t0.elapsed().as_secs_f64();
    // Ground truth is the benchmark's own work: computed once, untimed.
    let pause = Instant::now();
    let exact: Vec<u64> = match exact {
        Some(e) => e.to_vec(),
        None => work.iter().map(|w| w.exact_results()).collect(),
    };
    let untimed = pause.elapsed();
    let t1 = Instant::now();
    let sets = vec![
        load(&work[0], &SINGLE_ALGOS)?,
        load(&work[1], &MULTI_ALGOS)?,
    ];
    let load_s = t1.elapsed().as_secs_f64();
    let load_writes: u64 = sets.iter().map(|s| s.ctx.pool.io_stats().writes()).sum();
    let mut load_pool = pbitree_storage::PoolStats::default();
    for s in &sets {
        load_pool.absorb(&s.ctx.pool.pool_stats());
    }
    let pages: u64 = sets
        .iter()
        .map(|s| {
            let p = &s.ctx.pool;
            p.live_files()
                .iter()
                .map(|&f| p.num_pages(f) as u64)
                .sum::<u64>()
        })
        .sum();
    let elements = work.iter().map(|w| w.a.len() + w.d.len()).sum();
    let warm = cycle(&sets, &exact, out).counts;
    let total_s = (t0.elapsed() - untimed).as_secs_f64();
    // Reloads after set-up, timed for `recovery_s` only: the inputs
    // rebuilt from their source on a fresh pool.
    let mut reload_s = vec![load_s];
    for _ in 1..RELOADS {
        let t = Instant::now();
        let again = [
            load(&work[0], &SINGLE_ALGOS)?,
            load(&work[1], &MULTI_ALGOS)?,
        ];
        reload_s.push(t.elapsed().as_secs_f64());
        drop(again);
    }
    Ok(Setup {
        sets,
        exact,
        warm,
        generate_s,
        load_s,
        reload_s,
        total_s,
        load_writes,
        load_pool,
        elements,
        pages,
        work,
    })
}

/// The measured cycles cut into `GROUPS` runs of consecutive cycles
/// (fewer when there are fewer cycles), and within each run every op's
/// fastest repeat. Every cycle is the same work, its exact counters
/// checked equal, so the spread between repeats of an op is the host's.
fn group_bests(cycles: &[Cycle]) -> Latencies {
    let groups = GROUPS.min(cycles.len()).max(1);
    let per = cycles.len() / groups;
    let mut best = Vec::new();
    for g in 0..groups {
        let end = if g + 1 == groups {
            cycles.len()
        } else {
            (g + 1) * per
        };
        let group = &cycles[g * per..end];
        for k in 0..group[0].ms.len() {
            best.push(fastest(&group.iter().map(|c| c.ms[k]).collect::<Vec<_>>()));
        }
    }
    Latencies(best)
}

/// The set-ups of one run.
#[derive(Default)]
struct SetUps {
    setup_s: Vec<f64>,
    reload_s: Vec<f64>,
    /// The first set-up's warm-up counters; every later one must equal
    /// them.
    warm: Option<Vec<Counts>>,
    /// Ground-truth pair counts, computed once.
    exact: Option<Vec<u64>>,
}

impl SetUps {
    fn one(&mut self, seed: u64, out: &mut Outcome) -> Result<Setup, String> {
        let s = set_up(seed, self.exact.as_deref(), out)?;
        match &self.warm {
            None => self.warm = Some(s.warm.clone()),
            Some(w) if *w != s.warm => out.fail("exact counters differ between set-ups".into()),
            Some(_) => {}
        }
        self.exact.get_or_insert_with(|| s.exact.clone());
        self.setup_s.push(s.total_s);
        self.reload_s.extend(&s.reload_s);
        Ok(s)
    }
}

/// Runs whole cycles until `dur` has passed; checks every op's counters
/// against the same op in the first measured cycle.
fn measure(s: &Setup, dur: Duration, out: &mut Outcome) -> Vec<Cycle> {
    let t0 = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.is_empty() || t0.elapsed() < dur {
        let c = cycle(&s.sets, &s.exact, out);
        out.attempted += c.ms.len() as u64;
        out.failed += c.failed;
        if let Some(first) = cycles.first() {
            if c.counts != first.counts {
                out.fail(format!(
                    "exact counters changed between cycles 0 and {}",
                    cycles.len()
                ));
            }
        }
        cycles.push(c);
    }
    cycles
}

fn op_names(s: &Setup) -> Vec<String> {
    s.sets
        .iter()
        .flat_map(|set| {
            set.algos
                .iter()
                .map(move |a| format!("{}.{}", set.name, a.name()))
        })
        .collect()
}

fn record_exact(out: &mut Outcome, s: &Setup, counts: &[Counts]) {
    for (name, c) in op_names(s).iter().zip(counts) {
        out.exact
            .insert(format!("{name}.reads"), c.seq_reads + c.rand_reads);
        out.exact.insert(format!("{name}.seq_reads"), c.seq_reads);
        out.exact
            .insert(format!("{name}.writes"), c.seq_writes + c.rand_writes);
        out.exact.insert(format!("{name}.sim_ns"), c.sim_ns);
        out.exact.insert(format!("{name}.pairs"), c.pairs);
        out.exact.insert(format!("{name}.false_hits"), c.false_hits);
    }
}

/// Runs the workload (see the module docs).
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(seed, seconds, traced, &mut out) {
        out.fail(e);
    }
    out
}

fn run_inner(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    // Half the set-ups run before the measured phase and half after it,
    // so their times sample the host at two moments.
    let before = if traced { 1 } else { SETUPS.div_ceil(2) };
    let mut ups = SetUps::default();
    let mut s = ups.one(seed, out)?;
    for _ in 1..before {
        drop(s);
        s = ups.one(seed, out)?;
    }
    let ops_per_cycle = s.warm.len() as u64;

    if !traced {
        let cycles = measure(&s, Duration::from_secs_f64(seconds), out);
        let ops = cycles.len() as u64 * ops_per_cycle;
        let sim_ns: u64 = cycles.iter().map(|c| c.io.sim_ns).sum();
        record_exact(out, &s, &cycles[0].counts);
        let user = (s.elements * ELEMENT_BYTES) as f64;
        let (load_writes, pages) = (s.load_writes, s.pages);
        drop(s);
        for _ in before..SETUPS {
            drop(ups.one(seed, out)?);
        }
        out.set("setup_s", median(&ups.setup_s));
        out.set("recovery_s", fastest(&ups.reload_s));
        let best = group_bests(&cycles);
        out.set(
            "ops_per_s",
            best.0.len() as f64 / (best.0.iter().sum::<f64>() / 1e3),
        );
        out.set("p50_ms", best.p50());
        set_tail(out, &best, 90.0);
        // Every op of a read-only workload is a read.
        out.set("read_p50_ms", out.metrics["p50_ms"]);
        out.set("sim_io_ms_per_op", sim_ns as f64 / 1e6 / ops as f64);
        out.set("write_amp", (load_writes * PAGE_SIZE as u64) as f64 / user);
        out.set("space_amp", (pages * PAGE_SIZE as u64) as f64 / user);
        return Ok(());
    }

    out.set("datagen.generate_s", s.generate_s);
    out.set("xml.encode_s", 0.0);
    out.set("storage.load_s", s.load_s);
    out.set("storage.load_pages", s.load_writes as f64);
    layers::set_packed_ratio(out, &s.load_pool);
    let half = Duration::from_secs_f64(seconds / 2.0);
    let cycles = measure(&s, half, out);
    let ops = cycles.len() as u64 * ops_per_cycle;
    let mut lat = Latencies::default();
    let mut io = pbitree_storage::IoStats::default();
    let mut pool = pbitree_storage::PoolStats::default();
    for c in &cycles {
        lat.0.extend(&c.ms);
        io = layers::add_io(io, c.io);
        pool.absorb(&c.pool);
    }
    layers::set_storage_counters(out, &io, &pool, ops);
    record_exact(out, &s, &cycles[0].counts);
    if pbitree_joins::trace::spans_recorded() != 0 {
        out.fail("untraced cycles recorded spans".into());
    }
    set_index_and_core(out, &s.work[0], seed);
    layers::set_pool_hits(out, &s.sets[0].ctx.pool);

    let tracer = Arc::new(Tracer::default());
    let Setup { sets, exact, .. } = s;
    let traced_sets: Vec<Loaded> = sets
        .into_iter()
        .map(|l| Loaded {
            ctx: l.ctx.with_tracer(tracer.clone()),
            ..l
        })
        .collect();
    let t0 = Instant::now();
    let mut tlat = Latencies::default();
    let mut tops = 0u64;
    while tops == 0 || t0.elapsed() < half {
        let c = cycle(&traced_sets, &exact, out);
        tlat.0.extend(&c.ms);
        tops += ops_per_cycle;
        out.failed += c.failed;
    }
    out.attempted += tops;
    layers::set_trace_summary(out, &tracer.spans(), tops);
    layers::set_overhead(out, lat.p50(), tlat.p50());
    set_per_algo(out, &traced_sets, &cycles);
    Ok(())
}

/// The `joins.<algo>` name of an operator.
fn metric_name(a: Algo) -> &'static str {
    match a {
        Algo::InlJn => "inljn",
        Algo::StackTree => "stacktree",
        Algo::AncDesBPlus => "adb",
        Algo::Shcj => "shcj",
        Algo::Mhcj => "mhcj",
        Algo::MhcjRollup => "mhcj_rollup",
        Algo::Vpj => "vpj",
    }
}

/// Per-operator figures from the untraced cycles, over both datasets:
/// `joins.<algo>.wall_ms` is the median of the benchmark's own timings,
/// `joins.<algo>.sim_io_ms` the mean simulated disk time of a run.
fn set_per_algo(out: &mut Outcome, sets: &[Loaded], cycles: &[Cycle]) {
    let algos: Vec<Algo> = sets.iter().flat_map(|s| s.algos.iter().copied()).collect();
    for &algo in &SINGLE_ALGOS {
        let (mut ms, mut sim_ns) = (Vec::new(), 0u64);
        for c in cycles {
            for (k, _) in algos.iter().enumerate().filter(|&(_, &a)| a == algo) {
                ms.push(c.ms[k]);
                sim_ns += c.counts[k].sim_ns;
            }
        }
        let name = metric_name(algo);
        out.set(&format!("joins.{name}.wall_ms"), median(&ms));
        out.set(
            &format!("joins.{name}.sim_io_ms"),
            sim_ns as f64 / 1e6 / ms.len().max(1) as f64,
        );
    }
}

/// `index.bulk_load_ms` and `index.probe_ns` over the single-height
/// dataset's ancestor codes (on a pool that holds the whole tree, so
/// probes are warm), and `core.ancestors_ns` over its descendants.
fn set_index_and_core(out: &mut Outcome, w: &Workload, seed: u64) {
    let pool = BufferPool::new(
        Disk::new(Box::new(MemBackend::new()), CostModel::default()),
        4096,
    );
    let mut entries: Vec<(u64, u32)> = w.a.clone();
    entries.sort_unstable();
    let mut loads = Vec::new();
    let mut tree = None;
    for _ in 0..3 {
        let t = Instant::now();
        let built =
            BPlusTree::<u64, u32>::bulk_load(&pool, entries.iter().copied()).expect("bulk load");
        loads.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(old) = tree.replace(built) {
            old.drop_file(&pool);
        }
    }
    out.set("index.bulk_load_ms", median(&loads));
    let tree = tree.expect("tree built");
    let mut keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
    Rng::seed_from_u64(derive(seed, 12)).shuffle(&mut keys);
    for k in &keys {
        tree.get(&pool, k).expect("warm-up probe");
    }
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut found = 0u64;
        for k in &keys {
            found += tree.get(&pool, k).expect("probe").is_some() as u64;
        }
        if found != keys.len() as u64 {
            out.fail(format!("index found {found} of {} keys", keys.len()));
        }
        samples.push(t.elapsed().as_nanos() as f64 / keys.len() as f64);
    }
    out.set("index.probe_ns", median(&samples));
    let codes: Vec<u64> = w.d.iter().map(|&(c, _)| c).collect();
    layers::set_ancestors_ns(out, w.shape, &codes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_reaches_the_engine_only_as_generated_inputs() {
        let [single, multi] = specs(1);
        assert!(single.seed != 1 && multi.seed != 1 && single.seed != multi.seed);
        let again = generate(&specs(1)[0]);
        let other = generate(&specs(2)[0]);
        let first = generate(&single);
        assert_eq!((&first.a, &first.d), (&again.a, &again.d));
        assert_ne!(first.d, other.d, "another seed gives other inputs");
    }

    #[test]
    fn group_bests_take_each_ops_fastest_repeat_per_group() {
        let cycle = |ms: Vec<f64>| Cycle {
            counts: Vec::new(),
            ms,
            io: Default::default(),
            pool: Default::default(),
            failed: 0,
        };
        let one = [cycle(vec![3.0, 9.0]), cycle(vec![2.0, 8.0])];
        assert_eq!(
            group_bests(&one).0,
            vec![3.0, 9.0, 2.0, 8.0],
            "one cycle a group"
        );
        let many: Vec<Cycle> = (0..17)
            .map(|i| cycle(vec![i as f64, 50.0 - i as f64]))
            .collect();
        let best = group_bests(&many).0;
        assert_eq!(best.len(), 2 * GROUPS);
        assert_eq!(&best[..2], &[0.0, 49.0], "first group: cycles 0 and 1");
        assert_eq!(
            &best[best.len() - 2..],
            &[14.0, 34.0],
            "last group takes the remainder"
        );
    }

    #[test]
    fn one_seed_repeats_its_exact_counters() {
        let mut out = Outcome::default();
        let first = set_up(5, None, &mut out).expect("set-up");
        let again = set_up(5, Some(&first.exact), &mut out).expect("set-up");
        let other = set_up(6, None, &mut out).expect("set-up");
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(first.warm, again.warm);
        assert_ne!(first.warm, other.warm);
    }
}
