//! `update_mix`: durable writes over a bulk-loaded `ElementStore` several
//! times the pool, with an interleaved containment self-join, a crash and
//! recovery.
//!
//! One op is one *durable write*: `MUTATIONS` seeded logged mutations
//! (`insert_under` / `insert_sibling_after` / `remove`) followed by
//! `Wal::flush`, the point a client would be acknowledged. Flush policy:
//! the log is flushed once per op; data pages reach disk on eviction and
//! at a checkpoint (`BufferPool::flush_all`) taken right before each
//! self-join, every `JOIN_EVERY` ops. The checkpoint keeps the join's own
//! spill writes apart from data write-backs, so `write_amp` counts only
//! the write path.
//!
//! A history is a fixed sequence of `OPS` ops, so every page, frame and
//! pair count it produces is a function of the seed alone; a run repeats
//! the whole history (set-up, ops, crash, recovery) until its time is up
//! and fails if any repetition's counts differ from the first's.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use pbitree_core::{Code, PBiTreeShape};
use pbitree_datagen::rng::Rng;
use pbitree_datagen::synthetic::{self, SyntheticSpec};
use pbitree_joins::element::element_file_with;
use pbitree_joins::trace::Tracer;
use pbitree_joins::{
    plan_and_execute, Algorithm, CountSink, Element, ElementStore, InputState, JoinCtx, StoreError,
};
use pbitree_storage::{
    recover, BufferPool, CostModel, Disk, DiskBackend, IoStats, MemBackend, PageBuf, PageId,
    PoolStats, ScanOptions, SharedBackend, Wal, PAGE_SIZE,
};

use crate::layers;
use crate::report::{derive, fastest, median, set_tail, Latencies, Outcome};

/// Frames of the pool.
pub const FRAMES: usize = 64;
/// Scale of the base store: Table 2's MLLL at 5% — 100 000 elements on
/// ≈300 pages, over four times the pool.
pub const SCALE: f64 = 0.05;
/// Logged mutations per durable write.
pub const MUTATIONS: usize = 8;
/// Durable writes per history.
pub const OPS: usize = 1500;
/// Durable writes between two self-joins.
pub const JOIN_EVERY: usize = 100;
/// Histories a run makes at least (`setup_s` is their median).
const MIN_REPS: usize = 3;
/// Timed recoveries of each history's crash image.
const RECOVERIES: usize = 5;
const ELEMENT_BYTES: usize = 12;

/// The base element set: both sides of a multi-height Table 2 dataset,
/// re-seeded from the benchmark seed.
pub fn base_spec(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        seed: derive(seed, 20),
        ..synthetic::paper_multi_height()[4].scaled(SCALE)
    }
}

/// The benchmark's model of the acknowledged state: live codes and tags,
/// plus the self-join's pair count, kept current per mutation.
struct Model {
    shape: PBiTreeShape,
    codes: Vec<u64>,
    tags: Vec<u32>,
    pos: HashMap<u64, usize>,
    sorted: BTreeSet<u64>,
    pairs: u64,
}

impl Model {
    fn new(shape: PBiTreeShape, elems: &[(u64, u32)]) -> Model {
        let mut m = Model {
            shape,
            codes: Vec::new(),
            tags: Vec::new(),
            pos: HashMap::new(),
            sorted: BTreeSet::new(),
            pairs: 0,
        };
        for &(c, t) in elems {
            m.insert(c, t);
        }
        m
    }

    /// Pairs `c` forms with the live set: its live ancestors plus its
    /// live descendants (its region minus itself).
    fn links(&self, c: u64) -> u64 {
        let code = Code::from_raw_unchecked(c);
        let up = self
            .shape
            .ancestors(code)
            .filter(|a| self.pos.contains_key(&a.get()))
            .count() as u64;
        let (start, end) = code.region();
        let down = self.sorted.range(start..=end).filter(|&&x| x != c).count() as u64;
        up + down
    }

    fn insert(&mut self, c: u64, tag: u32) {
        self.pairs += self.links(c);
        self.pos.insert(c, self.codes.len());
        self.codes.push(c);
        self.tags.push(tag);
        self.sorted.insert(c);
    }

    fn remove(&mut self, c: u64) {
        let i = self.pos.remove(&c).expect("removing a live code");
        self.codes.swap_remove(i);
        self.tags.swap_remove(i);
        if i < self.codes.len() {
            self.pos.insert(self.codes[i], i);
        }
        self.sorted.remove(&c);
        self.pairs -= self.links(c);
    }

    fn elements(&self) -> Vec<Element> {
        let mut v: Vec<Element> = self
            .codes
            .iter()
            .zip(&self.tags)
            .map(|(&c, &t)| Element::new(c, t))
            .collect();
        v.sort();
        v
    }
}

/// What one history produced.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    /// Time the engine spent in the history's ops, checkpoints and
    /// self-joins (the benchmark's own bookkeeping left out).
    busy_s: f64,
    recovery_s: f64,
    op_ms: Latencies,
    read_ms: Latencies,
    mutate_us: Vec<f64>,
    flush_us: Vec<f64>,
    ops: u64,
    failed: u64,
    /// Disk traffic of the write path: the ops and the checkpoints.
    write_io: IoStats,
    write_pool: PoolStats,
    user_bytes: u64,
    disk_bytes: u64,
    live_bytes: u64,
    io: IoStats,
    algos: Vec<Algorithm>,
    exact: BTreeMap<String, u64>,
    frames_scanned: u64,
    ops_applied: u64,
    wal_frames: u64,
    wal_page_writes: u64,
    gate_flushes: u64,
    generate_s: f64,
    load_s: f64,
    base_codes: Vec<u64>,
    shape: Option<PBiTreeShape>,
}

/// One mutation the op applies, chosen from the model before the call.
enum Mutation {
    Under(Code),
    Sibling(Code),
    Remove(u64, u32),
}

fn choose(rng: &mut Rng, m: &Model) -> Mutation {
    let root = m.shape.root();
    let roll = rng.gen_range(0u32..100);
    let pick = |rng: &mut Rng| m.codes[rng.gen_range(0..m.codes.len())];
    if roll < 40 && m.codes.len() > 1 {
        let c = pick(rng);
        return Mutation::Remove(c, m.tags[m.pos[&c]]);
    }
    if roll < 55 {
        let c = pick(rng);
        if c != root.get() {
            return Mutation::Sibling(Code::from_raw_unchecked(c));
        }
    }
    // A parent with room below it: a stored element of height >= 4.
    for _ in 0..8 {
        let c = Code::from_raw_unchecked(pick(rng));
        if c.height() >= 4 {
            return Mutation::Under(c);
        }
    }
    Mutation::Under(root)
}

/// Runs one whole history: set-up, `OPS` durable writes with the
/// interleaved self-joins, a crash, recovery and the final check.
fn history(seed: u64, tracer: Option<Arc<Tracer>>, out: &mut Outcome) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let t_setup = Instant::now();
    let spec = base_spec(seed);
    let ds = synthetic::generate(&spec);
    let mut base: Vec<(u64, u32)> = ds.a.iter().chain(&ds.d).copied().collect();
    base.sort_unstable();
    base.dedup_by_key(|e| e.0);
    rep.generate_s = t_setup.elapsed().as_secs_f64();
    let shape = ds.shape;
    rep.shape = Some(shape);
    rep.base_codes = base.iter().map(|e| e.0).collect();
    // The model is the benchmark's ground truth; building it is untimed.
    let pause = Instant::now();
    let mut model = Model::new(shape, &base);
    let untimed = pause.elapsed();

    let t_load = Instant::now();
    let backend = SharedBackend::new(MemBackend::new());
    let mut builder = JoinCtx::builder(
        BufferPool::new(
            Disk::new(Box::new(backend.clone()), CostModel::default()),
            FRAMES,
        ),
        shape,
    )
    .compression(false);
    if let Some(t) = &tracer {
        builder = builder.tracer(t.clone());
    }
    let ctx = builder.build();
    let pool: &BufferPool = &ctx.pool;
    let opts = ScanOptions::default().with_compress(false);
    let heap = element_file_with(pool, opts, base.iter().copied()).map_err(|e| e.to_string())?;
    // Checkpoint: the bulk-loaded pages are durable before logging starts.
    pool.flush_all().map_err(|e| e.to_string())?;
    let wal = Wal::create(pool);
    let mut store = ElementStore::from_heap(pool, heap, shape).map_err(|e| e.to_string())?;
    rep.load_s = t_load.elapsed().as_secs_f64();
    rep.setup_s = (t_setup.elapsed() - untimed).as_secs_f64();
    let heap_file = store.heap().file_id();
    let wal_file = wal.file();

    let mut rng = Rng::seed_from_u64(derive(seed, 21));
    let io0 = pool.io_stats();
    let mut busy_ns = 0u128;
    let mut join_pairs = 0u64;
    let mut join_io = IoStats::default();
    let mut mutations = 0u64;
    let mut rejected = 0u64;
    for op in 0..OPS {
        let (io_before, pool_before) = (pool.io_stats(), pool.pool_stats());
        let mut ns = 0u128;
        let mut ok = true;
        for k in 0..MUTATIONS {
            let m = choose(&mut rng, &model);
            let tag = 100_000 + (op * MUTATIONS + k) as u32;
            let t = Instant::now();
            let res = match m {
                Mutation::Under(p) => store.insert_under(pool, &wal, p, tag).map(Some),
                Mutation::Sibling(n) => store
                    .insert_sibling_after(pool, &wal, shape.root(), n, tag)
                    .map(Some),
                Mutation::Remove(c, t) => store
                    .remove(pool, &wal, Code::from_raw_unchecked(c), t)
                    .map(|removed| removed.then_some(Code::from_raw_unchecked(c))),
            };
            let call = t.elapsed().as_nanos();
            ns += call;
            rep.mutate_us.push(call as f64 / 1e3);
            match (m, res) {
                (Mutation::Remove(c, _), Ok(Some(_))) => {
                    model.remove(c);
                    mutations += 1;
                }
                (Mutation::Remove(c, _), Ok(None)) => {
                    ok = false;
                    out.fail(format!("remove of live code {c:#x} found nothing"));
                }
                (_, Ok(Some(code))) => {
                    if model.pos.contains_key(&code.get()) {
                        ok = false;
                        out.fail(format!("insert reused live code {:#x}", code.get()));
                    } else {
                        model.insert(code.get(), tag);
                        mutations += 1;
                    }
                }
                (_, Ok(None)) => unreachable!("inserts return a code"),
                (_, Err(StoreError::Update(_))) => rejected += 1,
                (_, Err(e)) => {
                    ok = false;
                    out.fail(format!("op {op}: {e}"));
                }
            }
        }
        let t = Instant::now();
        if let Err(e) = wal.flush(pool) {
            ok = false;
            out.fail(format!("flush: {e}"));
        }
        let flush = t.elapsed().as_nanos();
        rep.flush_us.push(flush as f64 / 1e3);
        rep.op_ms.push_ns(ns + flush);
        busy_ns += ns + flush;
        rep.write_io = layers::add_io(rep.write_io, pool.io_stats().since(&io_before));
        rep.write_pool
            .absorb(&pool.pool_stats().since(&pool_before));
        rep.ops += 1;
        rep.failed += u64::from(!ok);

        if (op + 1) % JOIN_EVERY == 0 {
            let (io_before, pool_before) = (pool.io_stats(), pool.pool_stats());
            let t = Instant::now();
            pool.flush_all().map_err(|e| format!("checkpoint: {e}"))?;
            busy_ns += t.elapsed().as_nanos();
            rep.write_io = layers::add_io(rep.write_io, pool.io_stats().since(&io_before));
            rep.write_pool
                .absorb(&pool.pool_stats().since(&pool_before));
            let before = pool.io_stats();
            let mut sink = CountSink::default();
            let t = Instant::now();
            let res = plan_and_execute(
                &ctx,
                InputState::raw(),
                InputState::raw(),
                store.heap(),
                store.heap(),
                false,
                &mut sink,
            );
            let join_ns = t.elapsed().as_nanos();
            busy_ns += join_ns;
            rep.read_ms.push_ns(join_ns);
            join_io = layers::add_io(join_io, pool.io_stats().since(&before));
            match res {
                Ok((algo, stats)) => {
                    rep.algos.push(algo);
                    join_pairs += stats.pairs;
                    if stats.pairs != model.pairs || sink.count != model.pairs {
                        // Charged to the write the join follows.
                        rep.failed += 1;
                        out.fail(format!(
                            "self-join after op {op}: {} pairs, model has {}",
                            stats.pairs, model.pairs
                        ));
                    }
                }
                Err(e) => {
                    rep.failed += 1;
                    out.fail(format!("self-join after op {op}: {e:?}"));
                }
            }
        }
    }
    rep.busy_s = busy_ns as f64 / 1e9;
    rep.io = pool.io_stats().since(&io0);
    let ws = wal.stats();
    rep.wal_frames = ws.frames;
    rep.wal_page_writes = ws.page_writes;
    rep.gate_flushes = ws.gate_flushes;
    rep.user_bytes = mutations * ELEMENT_BYTES as u64;

    // Crash: the pool and every frame it cached vanish; only what reached
    // the shared backend survives.
    drop(store);
    drop(wal);
    drop(ctx);
    // Recovery replays into the image it runs on, so each timed recovery
    // starts from its own copy of the crashed disk.
    let mut recovery_s = Vec::new();
    let mut recovered = None;
    for _ in 0..RECOVERIES {
        let pool = BufferPool::new(
            Disk::new(Box::new(copy_image(&backend)), CostModel::default()),
            FRAMES,
        );
        let t = Instant::now();
        let (_wal, report) = recover(&pool, wal_file).map_err(|e| format!("recover: {e}"))?;
        let store =
            ElementStore::open(&pool, heap_file, shape).map_err(|e| format!("open: {e}"))?;
        recovery_s.push(t.elapsed().as_secs_f64());
        recovered = Some((pool, store, report));
    }
    let (pool, store, report) = recovered.expect("at least one recovery");
    rep.recovery_s = fastest(&recovery_s);
    rep.frames_scanned = report.frames_scanned;
    rep.ops_applied = report.ops_applied;
    let mut got = store.heap().read_all(&pool).map_err(|e| e.to_string())?;
    got.sort();
    if got != model.elements() {
        // Every acknowledged write of the history is in doubt.
        rep.failed = rep.ops;
        out.fail(format!(
            "recovered store has {} elements, acknowledged writes leave {}",
            got.len(),
            model.codes.len()
        ));
    }
    let pages: u64 = pool
        .live_files()
        .iter()
        .map(|&f| pool.num_pages(f) as u64)
        .sum();
    rep.disk_bytes = pages * PAGE_SIZE as u64;
    rep.live_bytes = model.codes.len() as u64 * ELEMENT_BYTES as u64;

    let e = &mut rep.exact;
    e.insert("update.write_sim_ns".into(), rep.write_io.sim_ns);
    e.insert("update.write_pages".into(), rep.write_io.writes());
    e.insert("update.mutations".into(), mutations);
    e.insert("update.rejected".into(), rejected);
    e.insert("update.wal_frames".into(), ws.frames);
    e.insert("update.wal_commits".into(), ws.commits);
    e.insert("update.wal_page_writes".into(), ws.page_writes);
    e.insert("update.gate_flushes".into(), ws.gate_flushes);
    e.insert("update.join_pairs".into(), join_pairs);
    e.insert("update.join_reads".into(), join_io.reads());
    e.insert("update.join_writes".into(), join_io.writes());
    e.insert("update.join_sim_ns".into(), join_io.sim_ns);
    e.insert("update.history_reads".into(), rep.io.reads());
    e.insert("update.history_writes".into(), rep.io.writes());
    e.insert("update.recovery_frames".into(), report.frames_scanned);
    e.insert("update.recovery_ops".into(), report.ops_applied);
    e.insert("update.disk_pages".into(), pages);
    e.insert("update.live_elements".into(), model.codes.len() as u64);
    Ok(rep)
}

/// Position by position, the fastest of repeated latency series.
fn best_repeats<'a>(series: impl Iterator<Item = &'a Latencies>) -> Latencies {
    let mut best: Vec<f64> = Vec::new();
    for s in series {
        if best.is_empty() {
            best = s.0.clone();
        }
        for (b, &v) in best.iter_mut().zip(&s.0) {
            *b = b.min(v);
        }
    }
    Latencies(best)
}

/// A private copy of a crashed disk image, with the same file ids.
fn copy_image(crashed: &SharedBackend<MemBackend>) -> MemBackend {
    let mut src = crashed.clone();
    let live = src.live_files();
    let files = live.iter().map(|f| f.0 + 1).max().unwrap_or(0);
    let mut copy = MemBackend::new();
    let mut buf: PageBuf = [0; PAGE_SIZE];
    for _ in 0..files {
        let f = copy.create_file();
        if !live.contains(&f) {
            copy.delete_file(f);
            continue;
        }
        for p in 0..src.num_pages(f) {
            let pid = PageId::new(f, p);
            src.read_page(pid, &mut buf).expect("memory pages read");
            copy.allocate_page(f).expect("memory pages allocate");
            copy.write_page(pid, &buf).expect("memory pages write");
        }
    }
    copy
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
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let min_reps = if traced { 1 } else { MIN_REPS };
    while reps.len() < min_reps || (!traced && t0.elapsed().as_secs_f64() < seconds) {
        let rep = history(seed, None, out)?;
        if let Some(first) = reps.first() {
            if rep.exact != first.exact {
                out.fail(format!(
                    "exact counters of history {} differ from the first: {:?} vs {:?}",
                    reps.len(),
                    rep.exact,
                    first.exact
                ));
            }
        }
        reps.push(rep);
    }
    for r in &reps {
        out.attempted += r.ops;
        out.failed += r.failed;
    }
    let first = &reps[0];
    out.exact = first.exact.clone();

    if !traced {
        // Every history repeats the same work, op for op, so the spread
        // between repeats of one op or self-join is the host's: each is
        // timed by its fastest repeat.
        let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
        out.set("setup_s", median(&per_rep(|r| r.setup_s)));
        out.set("recovery_s", fastest(&per_rep(|r| r.recovery_s)));
        out.set(
            "ops_per_s",
            first.ops as f64 / fastest(&per_rep(|r| r.busy_s)),
        );
        let ops = best_repeats(reps.iter().map(|r| &r.op_ms));
        out.set("p50_ms", ops.p50());
        set_tail(out, &ops, 99.0);
        out.set(
            "read_p50_ms",
            best_repeats(reps.iter().map(|r| &r.read_ms)).p50(),
        );
        out.set(
            "sim_io_ms_per_op",
            first.write_io.sim_ns as f64 / 1e6 / first.ops as f64,
        );
        out.set(
            "write_amp",
            (first.write_io.writes() * PAGE_SIZE as u64) as f64 / first.user_bytes as f64,
        );
        out.set(
            "space_amp",
            first.disk_bytes as f64 / first.live_bytes as f64,
        );
        return Ok(());
    }

    let r = first;
    out.set("datagen.generate_s", r.generate_s);
    out.set("xml.encode_s", 0.0);
    out.set("storage.load_s", r.load_s);
    out.set(
        "storage.load_pages",
        r.base_codes
            .len()
            .div_ceil(pbitree_storage::records_per_page::<Element>()) as f64,
    );
    layers::set_storage_counters(out, &r.write_io, &r.write_pool, r.ops);
    layers::set_planner_steps(out, &r.algos);
    out.set("joins.update.mutate_us", median(&r.mutate_us));
    out.set("storage.wal.flush_us", median(&r.flush_us));
    out.set(
        "storage.wal.frames_per_op",
        r.wal_frames as f64 / r.ops as f64,
    );
    out.set(
        "storage.wal.page_writes_per_op",
        r.wal_page_writes as f64 / r.ops as f64,
    );
    out.set("storage.wal.gate_flushes", r.gate_flushes as f64);
    out.set("storage.recovery.frames_scanned", r.frames_scanned as f64);
    out.set("storage.recovery.ops_applied", r.ops_applied as f64);
    out.set(
        "storage.recovery.us_per_frame",
        r.recovery_s * 1e6 / r.frames_scanned.max(1) as f64,
    );
    if let Some(shape) = r.shape {
        layers::set_ancestors_ns(out, shape, &r.base_codes);
    }
    set_pool_hits(out, seed)?;
    if pbitree_joins::trace::spans_recorded() != 0 {
        out.fail("untraced histories recorded spans".into());
    }

    let tracer = Arc::new(Tracer::default());
    let traced_rep = history(seed, Some(tracer.clone()), out)?;
    if traced_rep.exact != r.exact {
        out.fail("tracing changed the exact counters".into());
    }
    out.attempted += traced_rep.ops;
    out.failed += traced_rep.failed;
    // The self-joins are the only operators a history runs, so the span
    // summary is per self-join.
    layers::set_trace_summary(out, &tracer.spans(), traced_rep.read_ms.0.len() as u64);
    layers::set_overhead(out, r.read_ms.p50(), traced_rep.read_ms.p50());
    Ok(())
}

/// The resident hit loop on a pool of this workload's size holding the
/// first pages of a bulk-loaded base store.
fn set_pool_hits(out: &mut Outcome, seed: u64) -> Result<(), String> {
    let ds = synthetic::generate(&base_spec(seed));
    let pool = BufferPool::new(
        Disk::new(Box::new(MemBackend::new()), CostModel::default()),
        FRAMES,
    );
    element_file_with(&pool, ScanOptions::default(), ds.a.iter().copied())
        .map_err(|e| e.to_string())?;
    pool.evict_all().map_err(|e| e.to_string())?;
    layers::set_pool_hits(out, &pool);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_repeats_its_exact_counters() {
        assert!(base_spec(7).seed != 7 && base_spec(7).seed != base_spec(8).seed);
        let mut out = Outcome::default();
        let first = history(7, None, &mut out).expect("history");
        let again = history(7, None, &mut out).expect("history");
        let other = history(8, None, &mut out).expect("history");
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(first.exact, again.exact);
        assert_ne!(first.exact, other.exact);
    }

    #[test]
    fn best_repeats_takes_each_positions_fastest() {
        let (a, b) = (
            Latencies(vec![1.0, 5.0, 3.0]),
            Latencies(vec![2.0, 4.0, 3.0]),
        );
        assert_eq!(best_repeats([&a, &b].into_iter()).0, vec![1.0, 4.0, 3.0]);
    }

    #[test]
    fn a_copied_image_keeps_file_ids_and_pages() {
        let mut src = SharedBackend::new(MemBackend::new());
        let (a, gone, b) = (src.create_file(), src.create_file(), src.create_file());
        src.delete_file(gone);
        for (f, byte) in [(a, 1u8), (b, 2u8)] {
            let p = src.allocate_page(f).expect("allocate");
            src.write_page(PageId::new(f, p), &[byte; PAGE_SIZE])
                .expect("write");
        }
        let mut copy = copy_image(&src);
        assert_eq!(copy.live_files(), vec![a, b]);
        let mut buf: PageBuf = [0; PAGE_SIZE];
        copy.read_page(PageId::new(b, 0), &mut buf).expect("read");
        assert_eq!(buf[0], 2);
    }
}
