//! `serve_churn`: the `plan` and `serve` layers under read-write traffic,
//! and, in its traced run, a probe of the same layers under hot reads.
//!
//! Both run against the join fixture at ROADMAP scale (256 stations, 5k
//! certain rows and 20k blocks per relation) behind a `ProbDbServer` with
//! two workers, and check every served answer bit for bit against a
//! direct `CatalogEngine` evaluation on the same catalog generation.
//!
//! - `serve_churn`: one reader in a closed loop drawing uniformly from
//!   512 shapes (4× the plan cache, so most reads plan cold), a fixed
//!   share of them chain bounds queries, plus a Monte Carlo submit every
//!   [`MC_EVERY`] reads whose ticket is dropped once a worker runs it; one
//!   writer publishes a one-block upsert every [`PUBLISH_EVERY`] reads.
//! - the hot probe: two client threads in a closed loop over six warm
//!   exact-route shapes (they fit the hot tier and the plan cache). It is
//!   not a workload of its own: its per-query cost is mostly thread
//!   start-up and hand-off, whose CPU time doubles when the hypervisor
//!   steals the vCPUs, so it cannot hold a bound from run to run.

use crate::report::{self, median, ms, Outcome, SpanLog};
use crate::Args;
use mrsl_bench::{synthetic_chain_catalog, synthetic_join_catalog};
use mrsl_probdb::{
    Alternative, Block, Catalog, CatalogEngine, PlanCache, PlanCacheStats, Predicate, ProbDbServer,
    Query, QueryAnswer, QueryEngineConfig, ServeConfig, ServerStats, Statistic,
};
use mrsl_relation::{AttrId, CompleteTuple, ValueId};
use mrsl_util::{derive_seed, seeded_rng};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const HOT_CLIENTS: usize = 2;
/// One Monte Carlo submit (ticket dropped) per this many churn reads.
const MC_EVERY: usize = 64;
/// Tickets the traced `serve_churn` run drops while both workers are busy.
const ABANDON_PROBE: u64 = 8;
/// Writer pace in `serve_churn`: one publish per this many reads, so that
/// every run does the same work per read however fast the host runs.
const PUBLISH_EVERY: usize = 5;

/// Fixture scale: (stations, certain rows, blocks) per relation.
fn scale(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (16, 200, 400)
    } else {
        (256, 5_000, 20_000)
    }
}

fn values(mask: u16) -> impl Iterator<Item = ValueId> {
    (0..4u16).filter(move |v| mask >> v & 1 == 1).map(ValueId)
}

/// σ[attr1(sensors) ∈ a] sensors ⨝ σ[attr(readings) ∈ b] readings on the
/// station, with `a`/`b` as 4-bit value masks.
fn join(a: u16, reading_attr: u16, b: u16) -> Query {
    Query::scan("sensors")
        .filter(Predicate::is_in(AttrId(1), values(a)))
        .join_on(
            Query::scan("readings").filter(Predicate::is_in(AttrId(reading_attr), values(b))),
            [(AttrId(0), AttrId(0))],
        )
}

/// `σ[ok ∧ x ∈ [lo, hi]] R(x) ⨝ σ[ok] S(x,y) ⨝ σ[ok] T(y)`: unsafe for
/// the exact plan, dissociable for bounds.
fn chain(lo: u16, hi: u16) -> Query {
    let ok2 = Predicate::eq(AttrId(1), ValueId(1));
    let ok3 = Predicate::eq(AttrId(2), ValueId(1));
    Query::scan("r")
        .filter(
            ok2.clone()
                .and(Predicate::range(AttrId(0), ValueId(lo), ValueId(hi))),
        )
        .join_on(Query::scan("s").filter(ok3), [(AttrId(0), AttrId(0))])
        .join_on_rel("s", Query::scan("t").filter(ok2), [(AttrId(1), AttrId(0))])
}

/// The bits of an answer, for bit-identity checks.
type Bits = [u64; 4];

fn answer_bits(a: &QueryAnswer) -> Bits {
    let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
    match a {
        QueryAnswer::Probability { p, std_error } => [p.to_bits(), opt(*std_error), 0, 0],
        QueryAnswer::Count { mean, std_error } => [mean.to_bits(), opt(*std_error), 1, 0],
        QueryAnswer::Bounds(b) => [
            b.lower.to_bits(),
            b.upper.to_bits(),
            opt(b.estimate),
            opt(b.std_error),
        ],
        other => panic!("the workloads issue no query answered by {other:?}"),
    }
}

fn config(engine: QueryEngineConfig) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        engine,
        ..ServeConfig::default()
    }
}

/// Counter deltas of the server over one phase.
fn delta(before: &ServerStats, after: &ServerStats) -> (ServerStats, PlanCacheStats) {
    let (b, a) = (&before.plan_cache, &after.plan_cache);
    let cache = PlanCacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        evictions: a.evictions - b.evictions,
        invalidations: a.invalidations - b.invalidations,
        reg_patches: a.reg_patches - b.reg_patches,
        reg_rebinds: a.reg_rebinds - b.reg_rebinds,
        hot_hits: a.hot_hits - b.hot_hits,
        hot_promotions: a.hot_promotions - b.hot_promotions,
        len: a.len,
        capacity: a.capacity,
    };
    let stats = ServerStats {
        queries: after.queries - before.queries,
        cache_hits: after.cache_hits - before.cache_hits,
        hot_hits: after.hot_hits - before.hot_hits,
        coalesced: after.coalesced - before.coalesced,
        abandoned: after.abandoned - before.abandoned,
        lagged_reads: after.lagged_reads - before.lagged_reads,
        ..*after
    };
    (stats, cache)
}

// --------------------------------------------------------------------
// hot probe
// --------------------------------------------------------------------

/// The six exact-route shapes and how many slots each takes in the
/// 20-slot traffic cycle. The two cheap selections take 4 slots (20%),
/// the join probabilities and expected counts 16 (80%): p50 and p90 both
/// fall inside the join classes, well away from the cheap/join boundary.
fn hot_shapes() -> Vec<(Query, Statistic, usize)> {
    let kind_sel = Query::scan("sensors").filter(Predicate::eq(AttrId(1), ValueId(0)));
    let level_sel = Query::scan("readings").filter(Predicate::is_in(AttrId(1), values(0b0110)));
    vec![
        (join(0b0011, 1, 0b1100), Statistic::Probability, 5),
        (join(0b0100, 2, 0b0010), Statistic::Probability, 5),
        (join(0b0011, 1, 0b1100), Statistic::ExpectedCount, 3),
        (join(0b0100, 2, 0b0010), Statistic::ExpectedCount, 3),
        (kind_sel, Statistic::Probability, 2),
        (level_sel, Statistic::Probability, 2),
    ]
}

struct Hot {
    server: ProbDbServer,
    shapes: Vec<(Query, Statistic)>,
    expected: Vec<Bits>,
    /// Shape index per slot of the traffic cycle (a seeded shuffle).
    cycle: Vec<usize>,
    generation: u64,
}

fn hot_setup(args: &Args) -> Hot {
    let (stations, certain, blocks) = scale(args.smoke);
    let catalog = synthetic_join_catalog(stations, certain, blocks, 3, args.seed);
    let engine = QueryEngineConfig::default();
    let server = ProbDbServer::with_config(catalog, config(engine));
    let mut shapes = Vec::new();
    let mut cycle = Vec::new();
    for (i, (q, stat, slots)) in hot_shapes().into_iter().enumerate() {
        shapes.push((q, stat));
        cycle.extend(std::iter::repeat_n(i, slots));
    }
    cycle.shuffle(&mut seeded_rng(derive_seed(args.seed, &[0x407])));
    let snapshot = server.snapshot();
    let direct = CatalogEngine::with_config(snapshot.catalog(), engine);
    let expected = shapes
        .iter()
        .map(|(q, stat)| answer_bits(&direct.evaluate(q, *stat).expect("direct answer").0))
        .collect();
    // Warm-up: enough hits per shape to promote it into the hot tier.
    let handle = server.handle();
    for _ in 0..8 {
        for (q, stat) in &shapes {
            handle.evaluate(q, *stat).expect("warm-up");
        }
    }
    Hot {
        generation: snapshot.generation(),
        server,
        shapes,
        expected,
        cycle,
    }
}

/// Per-client results of one closed-loop phase.
#[derive(Default)]
struct Client {
    /// (completion s since the phase began, latency ms) per request.
    ops: Vec<(f64, f64)>,
    rows: u64,
    out: Outcome,
    log: Option<SpanLog>,
}

/// `HOT_CLIENTS` closed-loop clients for `seconds`. Returns every
/// request as (completion s since the phase began, latency ms) in
/// completion order, the rows scanned, and the merged gate counts and
/// spans.
fn hot_phase(hot: &Hot, seconds: f64, origin: Option<Instant>) -> (Vec<(f64, f64)>, u64, Outcome) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let clients: Vec<Client> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..HOT_CLIENTS)
            .map(|c| {
                let handle = hot.server.handle();
                s.spawn(move || {
                    let mut cl = Client {
                        log: origin.map(|o| SpanLog::new(o, 4 + c as u64)),
                        ..Client::default()
                    };
                    let offset = c * hot.cycle.len() / HOT_CLIENTS;
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let idx = hot.cycle[(offset + i) % hot.cycle.len()];
                        let (q, stat) = &hot.shapes[idx];
                        let op = 1 << 45 | (c as u64) << 32 | i as u64;
                        let t0 = Instant::now();
                        let served = match cl.log.as_mut() {
                            Some(log) => log.span("probdb.serve.evaluate", op, None, |_, _| {
                                handle.evaluate(q, *stat)
                            }),
                            None => handle.evaluate(q, *stat),
                        };
                        let lat = ms(t0);
                        cl.ops.push(((t0 - start).as_secs_f64() + lat / 1e3, lat));
                        let verdict =
                            served
                                .map_err(|e| format!("shape {idx}: {e}"))
                                .and_then(|s| {
                                    cl.rows += (s.report.certain_rows + s.report.alt_rows) as u64;
                                    let bits = answer_bits(&s.answer);
                                    if s.generation != hot.generation {
                                        Err(format!("shape {idx}: generation {}", s.generation))
                                    } else if bits != hot.expected[idx] {
                                        Err(format!(
                                            "shape {idx}: served answer differs from direct"
                                        ))
                                    } else {
                                        Ok(())
                                    }
                                });
                        cl.out.gate(verdict);
                        i += 1;
                    }
                    cl
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let mut merged = Outcome {
        clients: HOT_CLIENTS,
        workers: WORKERS,
        ..Outcome::default()
    };
    let mut ops = Vec::new();
    let mut rows = 0;
    for cl in clients {
        ops.extend(cl.ops);
        rows += cl.rows;
        merge(&mut merged, cl.out);
        if let Some(log) = cl.log {
            merged.spans.extend(log.spans);
        }
    }
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    (ops, rows, merged)
}

fn merge(into: &mut Outcome, from: Outcome) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    for e in from.errors {
        if into.errors.len() < 5 {
            into.errors.push(e);
        }
    }
    into.spans.extend(from.spans);
}

/// Direct engine-evaluation p50 (µs) over the traffic cycle, `iters`
/// evaluations, each in a span when `log` is given.
fn direct_p50_us(
    hot: &Hot,
    engine: &CatalogEngine<'_>,
    iters: usize,
    mut log: Option<&mut SpanLog>,
) -> f64 {
    let mut lats = Vec::with_capacity(iters);
    for i in 0..iters {
        let (q, stat) = &hot.shapes[hot.cycle[i % hot.cycle.len()]];
        let t0 = Instant::now();
        match log.as_deref_mut() {
            Some(log) => log.span("probdb.plan.evaluate", 1 << 40 | i as u64, None, |_, _| {
                std::hint::black_box(engine.evaluate(q, *stat).expect("direct"))
            }),
            None => std::hint::black_box(engine.evaluate(q, *stat).expect("direct")),
        };
        lats.push(ms(t0) * 1e3);
    }
    median(&mut lats)
}

/// The hot-shape probe of the traced `serve_churn` run: its own server on
/// the join fixture, `HOT_CLIENTS` closed-loop clients over the six warm
/// shapes untraced and then traced, and direct engine evaluations. Sets
/// the serving-overhead, shard and cache-tier metrics.
fn hot_layers(args: &Args, origin: Instant, out: &mut Outcome) {
    let hot = hot_setup(args);
    let seconds = if args.smoke { 0.5 } else { 2.0 };
    let (plain, _, phase) = hot_phase(&hot, seconds, None);
    merge(out, phase);
    let served_p50 = report::median_latency(&plain);
    let before = hot.server.stats();
    let (traced, rows, phase) = hot_phase(&hot, seconds, Some(origin));
    let (stats, _) = delta(&before, &hot.server.stats());
    merge(out, phase);

    let snapshot = hot.server.snapshot();
    let engine_cfg = QueryEngineConfig::default();
    let iters = if args.smoke { 200 } else { 4_000 };
    let mut log = SpanLog::new(origin, 3);
    let pinned = CatalogEngine::with_plan_cache(
        snapshot.catalog(),
        engine_cfg,
        hot.server.plan_cache().clone(),
    );
    let direct = direct_p50_us(&hot, &pinned, iters, Some(&mut log));
    let sharded = |shards| {
        let engine = CatalogEngine::with_config(
            snapshot.catalog(),
            QueryEngineConfig {
                shards,
                ..engine_cfg
            },
        );
        direct_p50_us(&hot, &engine, iters / 2, None)
    };
    let auto = sharded(0);
    let sequential = sharded(1);
    out.spans.extend(log.spans);

    let queries = stats.queries.max(1) as f64;
    out.set("probdb.plan.direct_p50_us", direct);
    out.set("probdb.plan.shard_auto_ratio", auto / sequential);
    out.set("probdb.serve.overhead_ratio", served_p50 * 1e3 / direct);
    out.set(
        "probdb.plan.cache_hit_rate",
        stats.cache_hits as f64 / queries,
    );
    out.set("probdb.plan.hot_hit_share", stats.hot_hits as f64 / queries);
    out.set(
        "probdb.serve.coalesced_share",
        stats.coalesced as f64 / queries,
    );
    out.set(
        "probdb.plan.rows_per_query",
        rows as f64 / traced.len().max(1) as f64,
    );
}

// --------------------------------------------------------------------
// serve_churn
// --------------------------------------------------------------------

/// Shape classes of the churn universe, with their counts: 300 join
/// probabilities, 150 join expected counts, 62 chain bounds — 512 shapes.
const JOIN_PROB: usize = 300;
const JOIN_COUNT: usize = 150;
const CHAIN_BOUNDS: usize = 62;
/// Chain fixture: join keys and blocks in `r`/`t` (`s` has twice as many).
const CHAIN_KEYS: u16 = 16;
const CHAIN_BLOCKS: usize = 200;

/// The 512-shape universe. Join shapes vary their two value masks (and
/// the readings attribute once the 225 mask pairs are used up); chain
/// shapes vary the `x` range of `r`.
fn churn_shapes() -> Vec<(Query, Statistic)> {
    let join_masks = |n: usize| {
        (0..n).map(|i| {
            let pair = i % 225;
            let attr = 1 + (i / 225) as u16;
            join(1 + (pair / 15) as u16, attr, 1 + (pair % 15) as u16)
        })
    };
    let mut shapes: Vec<(Query, Statistic)> = Vec::new();
    shapes.extend(join_masks(JOIN_PROB).map(|q| (q, Statistic::Probability)));
    shapes.extend(join_masks(JOIN_COUNT).map(|q| (q, Statistic::ExpectedCount)));
    let ranges = (0..CHAIN_KEYS).flat_map(|lo| (lo..CHAIN_KEYS).map(move |hi| (lo, hi)));
    shapes.extend(
        ranges
            .filter(|(lo, hi)| hi - lo >= 4)
            .take(CHAIN_BOUNDS)
            .map(|(lo, hi)| (chain(lo, hi), Statistic::ProbabilityBounds)),
    );
    assert_eq!(shapes.len(), JOIN_PROB + JOIN_COUNT + CHAIN_BOUNDS);
    shapes
}

/// The Monte Carlo shapes: non-hierarchical chain probabilities.
fn mc_shapes() -> Vec<Query> {
    (0..4).map(|i| chain(i, CHAIN_KEYS - 1 - i)).collect()
}

fn churn_engine(smoke: bool) -> QueryEngineConfig {
    QueryEngineConfig {
        // Brackets are served as computed: no Monte Carlo refinement.
        bounds_tolerance: 1.0,
        mc_samples: if smoke { 200 } else { 1_000 },
        ..QueryEngineConfig::default()
    }
}

struct Churn {
    server: ProbDbServer,
    /// The catalog the server started from (shared copy-on-write).
    base: Catalog,
    base_generation: u64,
    shapes: Vec<(Query, Statistic)>,
    /// Shape index per read: seeded uniform draws from the universe, so a
    /// read finds its plan cached about as often as the cache holds a
    /// share of the universe, and cached plans meet publishes.
    schedule: Vec<usize>,
    stations: usize,
    blocks: usize,
    seed: u64,
}

/// Warm-up reads before timing: about 160 distinct shapes, so the plan
/// cache starts full.
const CHURN_WARMUP: usize = 192;

fn churn_setup(args: &Args) -> Churn {
    let (stations, certain, blocks) = scale(args.smoke);
    let mut base = synthetic_join_catalog(stations, certain, blocks, 3, args.seed);
    let chain_catalog = synthetic_chain_catalog(CHAIN_KEYS as usize, CHAIN_BLOCKS, args.seed);
    for (name, db) in chain_catalog.iter() {
        base.add(name, db.clone()).expect("distinct relation names");
    }
    let shapes = churn_shapes();
    let mut rng = seeded_rng(derive_seed(args.seed, &[0xc4u64]));
    let schedule: Vec<usize> = (0..shapes.len() * 32)
        .map(|_| rng.gen_range(0..shapes.len()))
        .collect();
    let server = ProbDbServer::with_config(base.clone(), config(churn_engine(args.smoke)));
    let handle = server.handle();
    for &idx in &schedule[..CHURN_WARMUP] {
        let (q, stat) = &shapes[idx];
        handle.evaluate(q, *stat).expect("warm-up");
    }
    Churn {
        base_generation: server.generation(),
        server,
        base,
        shapes,
        schedule,
        stations,
        blocks,
        seed: args.seed,
    }
}

/// The `k`-th writer upsert: a new two-alternative block on a seeded
/// station of `sensors`.
fn upsert(churn: &Churn, k: usize) -> Block {
    let station = (derive_seed(churn.seed, &[0x5e, k as u64]) % churn.stations as u64) as u16;
    Block::normalized(
        churn.blocks + k,
        vec![
            Alternative {
                tuple: CompleteTuple::from_values(vec![station, 0, 0]),
                prob: 1.0,
            },
            Alternative {
                tuple: CompleteTuple::from_values(vec![station, 1, 1]),
                prob: 2.0,
            },
        ],
    )
    .expect("valid block")
}

/// What the churn phases accumulate for verification and metrics.
#[derive(Default)]
struct ChurnLog {
    /// (shape, generation, answer bits) per answered read.
    reads: Vec<(usize, u64, Bits)>,
    /// Generation published by each upsert, in order.
    published: Vec<u64>,
    /// begin_update, publish and round-trip times per upsert (ms).
    begin_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    round_trip_ms: Vec<f64>,
    mc_submits: u64,
    next_read: usize,
}

/// One churn phase: the reader's closed loop runs for `seconds` while the
/// writer publishes, concurrently, the upserts the reader's progress calls
/// for. Returns the reader's reads as (completion s since the phase
/// began, latency ms).
fn churn_phase(
    churn: &Churn,
    seconds: f64,
    log: &mut ChurnLog,
    origin: Option<Instant>,
    spans: &mut Vec<report::Span>,
) -> Vec<(f64, f64)> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let first_upsert = log.published.len();
    let (due, upserts) = std::sync::mpsc::channel::<usize>();
    let mc = mc_shapes();
    let reader_start = log.next_read;
    let (reads, lats, mc_submits, reader_spans, writes, writer_spans) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut span_log = origin.map(|o| SpanLog::new(o, 2));
            let mut writes = Vec::new();
            for k in upserts {
                let block = upsert(churn, k);
                let write = || {
                    let t0 = Instant::now();
                    let mut builder = churn.server.begin_update();
                    let begin = ms(t0);
                    builder
                        .catalog_mut()
                        .get_mut("sensors")
                        .expect("sensors")
                        .push_block(block)
                        .expect("arity ok");
                    let t1 = Instant::now();
                    let generation = builder.publish();
                    (generation, begin, ms(t1), ms(t0))
                };
                let w = match span_log.as_mut() {
                    Some(l) => l.span("probdb.serve.write", 1 << 41 | k as u64, None, |_, _| {
                        write()
                    }),
                    None => write(),
                };
                writes.push(w);
            }
            (writes, span_log.map(|l| l.spans).unwrap_or_default())
        });
        let handle = churn.server.handle();
        let mut span_log = origin.map(|o| SpanLog::new(o, 1));
        let mut reads = Vec::new();
        let mut lats = Vec::new();
        let mut mc_submits = 0u64;
        let mut i = reader_start;
        let mut next_upsert = first_upsert;
        // The phase ends half-way between two Monte Carlo submits, when
        // the last job has long finished, so that every job the phase
        // submits runs within it.
        while Instant::now() < deadline || i % MC_EVERY != MC_EVERY / 2 {
            // The Monte Carlo ticket is dropped on purpose, but only after
            // a worker has picked the job up: a running evaluation cannot
            // be cancelled, so every run pays for the same jobs.
            let mc_ticket = (i % MC_EVERY == MC_EVERY - 1).then(|| {
                let q = mc[(i / MC_EVERY) % mc.len()].clone();
                let ticket = handle
                    .submit(q, Statistic::Probability)
                    .expect("unbounded queue");
                wait_picked_up(&churn.server);
                mc_submits += 1;
                ticket
            });
            let idx = churn.schedule[i % churn.schedule.len()];
            let (q, stat) = &churn.shapes[idx];
            let t0 = Instant::now();
            let served = match span_log.as_mut() {
                Some(l) => l.span("probdb.serve.evaluate", i as u64, None, |_, _| {
                    handle.evaluate(q, *stat)
                }),
                None => handle.evaluate(q, *stat),
            };
            let lat = ms(t0);
            lats.push(((t0 - start).as_secs_f64() + lat / 1e3, lat));
            reads.push((idx, served));
            drop(mc_ticket);
            i += 1;
            if i.is_multiple_of(PUBLISH_EVERY) {
                due.send(next_upsert).expect("writer runs");
                next_upsert += 1;
            }
        }
        drop(due);
        log.next_read = i;
        let (writes, writer_spans) = writer.join().expect("writer thread");
        (
            reads,
            lats,
            mc_submits,
            span_log.map(|l| l.spans).unwrap_or_default(),
            writes,
            writer_spans,
        )
    });
    for (idx, served) in reads {
        match served {
            Ok(s) => log.reads.push((idx, s.generation, answer_bits(&s.answer))),
            // An error can never match the direct answer.
            Err(_) => log.reads.push((idx, u64::MAX, [u64::MAX; 4])),
        }
    }
    for (generation, begin, publish, round_trip) in writes {
        log.published.push(generation);
        log.begin_ms.push(begin);
        log.publish_ms.push(publish);
        log.round_trip_ms.push(round_trip);
    }
    log.mc_submits += mc_submits;
    spans.extend(reader_spans);
    spans.extend(writer_spans);
    lats
}

/// Waits until no submitted job waits for a worker.
fn wait_picked_up(server: &ProbDbServer) {
    while server.stats().queue_depth > 0 {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Keeps both workers busy on Monte Carlo jobs, submits
/// [`ABANDON_PROBE`] more and drops their tickets at once; returns how
/// many of them the workers skipped unevaluated.
fn abandon_probe(churn: &Churn) -> u64 {
    let handle = churn.server.handle();
    let before = churn.server.stats().abandoned;
    let mc = mc_shapes();
    let blockers: Vec<_> = mc[..WORKERS]
        .iter()
        .map(|q| {
            handle
                .submit(q.clone(), Statistic::Probability)
                .expect("unbounded queue")
        })
        .collect();
    wait_picked_up(&churn.server);
    for q in mc.iter().cycle().take(ABANDON_PROBE as usize) {
        drop(
            handle
                .submit(q.clone(), Statistic::Probability)
                .expect("unbounded queue"),
        );
    }
    for b in blockers {
        b.wait().expect("Monte Carlo answer");
    }
    wait_picked_up(&churn.server);
    // The last skip is counted just after its pickup.
    std::thread::sleep(Duration::from_millis(10));
    churn.server.stats().abandoned - before
}

/// Verifies every answered read: each distinct (shape, generation)
/// answer must be bit-identical to a direct evaluation on that
/// generation's catalog, rebuilt here by replaying the writer's upserts
/// on the base catalog. Bounds brackets must be ordered within [0, 1].
/// The generations are split between two threads, each replaying its own
/// catalog, so checking takes about half the measured time.
fn verify_reads(
    churn: &Churn,
    log: &ChurnLog,
    engine_cfg: QueryEngineConfig,
    fault: bool,
    out: &mut Outcome,
) {
    let mut by_gen: BTreeMap<u64, Vec<(usize, Bits)>> = BTreeMap::new();
    for &(idx, generation, bits) in &log.reads {
        by_gen.entry(generation).or_default().push((idx, bits));
    }
    if fault {
        if let Some(bits) = by_gen
            .values_mut()
            .next()
            .and_then(|reads| reads.first_mut())
        {
            bits.1[0] ^= 1;
        }
    }
    let gens: Vec<(u64, Vec<(usize, Bits)>)> = by_gen.into_iter().collect();
    let (early, late) = gens.split_at(gens.len() / 2);
    let parts: Vec<Outcome> = std::thread::scope(|s| {
        let workers: Vec<_> = [early, late]
            .into_iter()
            .map(|part| s.spawn(move || verify_generations(churn, log, engine_cfg, part)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("verifier thread"))
            .collect()
    });
    for part in parts {
        merge(out, part);
    }
}

/// [`verify_reads`] for one ascending run of generations.
fn verify_generations(
    churn: &Churn,
    log: &ChurnLog,
    engine_cfg: QueryEngineConfig,
    gens: &[(u64, Vec<(usize, Bits)>)],
) -> Outcome {
    let mut out = Outcome::default();
    // Answers are bit-identical at every shard count, so the sequential
    // fold is the oracle: it checks the served (auto-sharded) path and
    // skips the per-fold thread start-up.
    let sequential = QueryEngineConfig {
        shards: 1,
        ..engine_cfg
    };
    let mut catalog = churn.base.clone();
    let cache = Arc::new(PlanCache::with_capacity(4 * churn.shapes.len()));
    let mut applied = 0;
    for (generation, reads) in gens {
        let generation = *generation;
        let upserts = log.published.partition_point(|&g| g <= generation);
        if generation == u64::MAX || generation != churn.base_generation + upserts as u64 {
            for (idx, _) in reads {
                out.gate(Err(format!("shape {idx}: no answer at a known generation")));
            }
            continue;
        }
        while applied < upserts {
            catalog
                .get_mut("sensors")
                .expect("sensors")
                .push_block(upsert(churn, applied))
                .expect("arity ok");
            applied += 1;
        }
        let engine = CatalogEngine::with_plan_cache(&catalog, sequential, cache.clone());
        let mut direct: HashMap<usize, Bits> = HashMap::new();
        for &(idx, bits) in reads {
            let (q, stat) = &churn.shapes[idx];
            let want = *direct.entry(idx).or_insert_with(|| {
                answer_bits(&engine.evaluate(q, *stat).expect("direct answer").0)
            });
            let (lo, hi) = (f64::from_bits(bits[0]), f64::from_bits(bits[1]));
            let verdict = if bits != want {
                Err(format!(
                    "shape {idx} at generation {generation}: served answer differs from direct"
                ))
            } else if *stat == Statistic::ProbabilityBounds && !(0.0 <= lo && lo <= hi && hi <= 1.0)
            {
                Err(format!("shape {idx}: bracket [{lo}, {hi}] out of order"))
            } else {
                Ok(())
            };
            out.gate(verdict);
        }
    }
    out
}

/// Checks the paths the served answers cannot: every Monte Carlo shape's
/// estimate lies within 4 SE of its dissociation bracket, and bounds on
/// hierarchical joins contain their exact probability.
fn verify_estimates(churn: &Churn, engine_cfg: QueryEngineConfig, out: &mut Outcome) {
    let engine = CatalogEngine::with_config(&churn.base, engine_cfg);
    for q in mc_shapes() {
        let verdict = match (
            engine.evaluate(&q, Statistic::Probability).map(|a| a.0),
            engine.probability_bounds(&q),
        ) {
            (
                Ok(QueryAnswer::Probability {
                    p,
                    std_error: Some(se),
                }),
                Ok((b, _)),
            ) => {
                if p >= b.lower - 4.0 * se && p <= b.upper + 4.0 * se {
                    Ok(())
                } else {
                    Err(format!("MC {p} ± {se} outside [{}, {}]", b.lower, b.upper))
                }
            }
            (p, b) => Err(format!("MC check: {p:?} / {b:?}")),
        };
        out.gate(verdict);
    }
    for (q, _) in churn.shapes.iter().take(4) {
        let verdict = match (engine.probability(q), engine.probability_bounds(q)) {
            (Ok((p, _)), Ok((b, _))) if b.contains(p) => Ok(()),
            (p, b) => Err(format!("bounds on an exact shape: {p:?} / {b:?}")),
        };
        out.gate(verdict);
    }
}

pub fn run_churn(args: &Args) -> Outcome {
    let engine_cfg = churn_engine(args.smoke);
    let (churn, setup_s) = if args.trace {
        (churn_setup(args), 0.0)
    } else {
        report::timed_setup(|| churn_setup(args))
    };
    let mut log = ChurnLog {
        next_read: CHURN_WARMUP,
        ..ChurnLog::default()
    };
    // One reader and one writer.
    let mut out = Outcome {
        clients: 2,
        workers: WORKERS,
        ..Outcome::default()
    };
    let mut spans = Vec::new();

    if !args.trace {
        let cpu = report::cpu_s();
        let ops = churn_phase(&churn, args.seconds, &mut log, None, &mut spans);
        report::cpu_per_op(&mut out, cpu, ops.len());
        out.set("setup_s", setup_s);
        verify_reads(&churn, &log, engine_cfg, args.inject_fault, &mut out);
        verify_estimates(&churn, engine_cfg, &mut out);
        out.attempted += log.mc_submits;
        return out;
    }

    let half = args.seconds / 2.0;
    let plain = churn_phase(&churn, half, &mut log, None, &mut spans);
    report::windowed_metrics(&mut out, &plain, 1.0);
    let plain_p50 = report::median_latency(&plain);
    let publishes_before = log.round_trip_ms.len();
    let before = churn.server.stats();
    let origin = Instant::now();
    let traced = churn_phase(&churn, half, &mut log, Some(origin), &mut spans);
    let (stats, cache) = delta(&before, &churn.server.stats());

    // Probes on fresh engines: cold plan + first evaluate of join shapes,
    // cold chain bounds, and direct Monte Carlo.
    let mut probe = SpanLog::new(origin, 0);
    let probe_iters = if args.smoke { 8 } else { 64 };
    for (i, &idx) in churn
        .schedule
        .iter()
        .filter(|&&i| i < JOIN_PROB + JOIN_COUNT)
        .take(probe_iters)
        .enumerate()
    {
        let (q, stat) = &churn.shapes[idx];
        let engine = CatalogEngine::with_config(&churn.base, engine_cfg);
        probe.span("probdb.plan.cold", 1 << 42 | i as u64, None, |_, _| {
            engine.plan(q, *stat).expect("plans");
            std::hint::black_box(engine.evaluate(q, *stat).expect("cold"));
        });
    }
    for (i, (q, stat)) in churn.shapes[JOIN_PROB + JOIN_COUNT..].iter().enumerate() {
        let engine = CatalogEngine::with_config(&churn.base, engine_cfg);
        probe.span("probdb.plan.bounds", 1 << 43 | i as u64, None, |_, _| {
            std::hint::black_box(engine.evaluate(q, *stat).expect("bounds"));
        });
    }
    let abandoned = abandon_probe(&churn);
    out.gate(if abandoned == ABANDON_PROBE {
        Ok(())
    } else {
        Err(format!(
            "{abandoned} of {ABANDON_PROBE} dropped tickets skipped"
        ))
    });
    let engine = CatalogEngine::with_config(&churn.base, engine_cfg);
    for (i, q) in mc_shapes().iter().cycle().take(8).enumerate() {
        probe.span("probdb.mc.query", 1 << 44 | i as u64, None, |_, _| {
            std::hint::black_box(engine.evaluate(q, Statistic::Probability).expect("mc"));
        });
    }
    spans.extend(probe.spans);
    out.set("process.peak_rss_mb", report::peak_rss_mb());
    hot_layers(args, origin, &mut out);

    verify_reads(&churn, &log, engine_cfg, args.inject_fault, &mut out);
    verify_estimates(&churn, engine_cfg, &mut out);
    out.attempted += log.mc_submits;

    let traced_writes = |v: &[f64]| median(&mut v[publishes_before..].to_vec());
    out.set(
        "probdb.plan.cold_p50_ms",
        report::median_dur_ms(&spans, "probdb.plan.cold"),
    );
    out.set(
        "probdb.plan.bounds_p50_ms",
        report::median_dur_ms(&spans, "probdb.plan.bounds"),
    );
    out.set("probdb.plan.evictions", cache.evictions as f64);
    out.set("probdb.plan.invalidations", cache.invalidations as f64);
    out.set("probdb.plan.reg_patches", cache.reg_patches as f64);
    out.set("probdb.plan.reg_rebinds", cache.reg_rebinds as f64);
    out.set("probdb.plan.hot_promotions", cache.hot_promotions as f64);
    out.set("probdb.plan.cache_len", cache.len as f64);
    out.set(
        "probdb.mc.query_ms",
        report::median_dur_ms(&spans, "probdb.mc.query"),
    );
    out.set("probdb.serve.abandoned", abandoned as f64);
    out.set("probdb.serve.begin_update_ms", traced_writes(&log.begin_ms));
    out.set("probdb.serve.publish_ms", traced_writes(&log.publish_ms));
    out.set(
        "probdb.serve.publish_p50_ms",
        traced_writes(&log.round_trip_ms),
    );
    out.set("probdb.serve.lagged_reads", stats.lagged_reads as f64);
    out.set(
        "trace.overhead_ratio",
        report::median_latency(&traced) / plain_p50,
    );
    out.spans.extend(spans);
    out
}
