//! `derive`: the paper's pipeline as a batch job.
//!
//! One op is one `derive_probabilistic_db` call on a fixed relation:
//! BN18, 5,000 complete and 500 incomplete tuples with 1–3 values hidden
//! each, θ = 0.005, the default `DeriveConfig` (tuple-DAG strategy,
//! default rayon threads). Ops run one at a time and every op reuses the
//! same relation. The traced run alternates these ops with the same
//! pipeline driven through its public stages — `MrslModel::learn`,
//! `infer_batch` per partition, `ProbDb` assembly — and asserts that it
//! rebuilds the database `derive_probabilistic_db` returns.

use crate::report::{self, median, ms, Outcome, SpanLog};
use crate::Args;
use mrsl_core::{
    derive_probabilistic_db, infer_batch, workload_engine, DeriveConfig, JointEstimate,
    LearnConfig, MrslModel, SamplingCost, SingleVoting, TupleDag,
};
use mrsl_probdb::{Alternative, Block, ProbDb};
use mrsl_relation::{AttrId, CompleteTuple, PartialTuple, Relation};
use mrsl_util::{derive_seed, seeded_rng};
use rand::seq::SliceRandom;
use std::time::Instant;

const NETWORK_SEED: u64 = 42;

struct Fixture {
    relation: Relation,
    /// The hidden true tuple of every incomplete tuple, in order.
    truth: Vec<CompleteTuple>,
    config: DeriveConfig,
    /// The warm-up op's database; every later op must equal it.
    reference: ProbDb,
}

fn fixture(args: &Args) -> Fixture {
    let (network, complete_n, incomplete_n) = if args.smoke {
        ("BN9", 1_000, 100)
    } else {
        ("BN18", 5_000, 500)
    };
    // One fixed network instance; the seed draws the data and the holes.
    let bn = mrsl_bench::network(network, NETWORK_SEED);
    let points = mrsl_bayesnet::sampler::sample_dataset(
        &bn,
        complete_n + incomplete_n,
        derive_seed(args.seed, &[1]),
    );
    let (complete, held) = points.split_at(complete_n);
    let arity = bn.schema().attr_count();
    assert!(arity > 3, "{network} has too few attributes to hide 3");
    // Exactly a third of the tuples miss 1, 2 and 3 values, in seeded
    // order, so every seed derives the same mix of single- and
    // multi-attribute tuples.
    let mut rng = seeded_rng(derive_seed(args.seed, &[3]));
    let mut hidden: Vec<usize> = (0..held.len()).map(|i| 1 + i % 3).collect();
    hidden.shuffle(&mut rng);
    let incomplete: Vec<PartialTuple> = held
        .iter()
        .zip(hidden)
        .map(|(p, k)| {
            let mut attrs: Vec<u16> = (0..arity as u16).collect();
            attrs.shuffle(&mut rng);
            attrs[..k]
                .iter()
                .fold(p.to_partial(), |t, &a| t.without_attr(AttrId(a)))
        })
        .collect();
    let relation = Relation::from_parts(bn.schema().clone(), complete.to_vec(), incomplete)
        .expect("generated tuples match the schema");
    let config = DeriveConfig {
        learn: LearnConfig {
            support_threshold: 0.005,
            max_itemsets: 1000,
        },
        seed: derive_seed(args.seed, &[4]),
        ..DeriveConfig::default()
    };
    // Warm-up op: its database is the reference every measured op must
    // reproduce.
    let reference = derive_probabilistic_db(&relation, &config).db;
    Fixture {
        relation,
        truth: held.to_vec(),
        config,
        reference,
    }
}

/// The `derive` gate: one block per incomplete tuple, every block sums to
/// 1 within 1e-9, alternatives agree with the observed values, certain
/// rows equal the complete part, and the database equals the reference.
fn check(db: &ProbDb, fx: &Fixture) -> Result<(), String> {
    let incomplete = fx.relation.incomplete_part();
    if db.certain() != fx.relation.complete_part() {
        return Err("certain rows differ from the complete part".into());
    }
    if db.blocks().len() != incomplete.len() {
        return Err(format!(
            "{} blocks for {} incomplete tuples",
            db.blocks().len(),
            incomplete.len()
        ));
    }
    for (i, (block, t)) in db.blocks().iter().zip(incomplete).enumerate() {
        if block.key() != i {
            return Err(format!("block {i} has key {}", block.key()));
        }
        let sum: f64 = block.alternatives().iter().map(|a| a.prob).sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("block {i} sums to {sum}"));
        }
        if let Some(a) = block
            .alternatives()
            .iter()
            .find(|a| !t.matches_point(&a.tuple))
        {
            return Err(format!(
                "block {i}: {:?} contradicts the observed values",
                a.tuple
            ));
        }
    }
    same_db(db, &fx.reference)
}

/// Bit-for-bit equality of two derived databases.
fn same_db(a: &ProbDb, b: &ProbDb) -> Result<(), String> {
    if a.certain() != b.certain() || a.blocks().len() != b.blocks().len() {
        return Err("database shape differs from the reference".into());
    }
    for (x, y) in a.blocks().iter().zip(b.blocks()) {
        let same = x.key() == y.key()
            && x.len() == y.len()
            && x.alternatives()
                .iter()
                .zip(y.alternatives())
                .all(|(p, q)| p.tuple == q.tuple && p.prob.to_bits() == q.prob.to_bits());
        if !same {
            return Err(format!("block {} differs from the reference", x.key()));
        }
    }
    Ok(())
}

/// Share of incomplete tuples whose most probable alternative is the
/// hidden true tuple.
fn top1_accuracy(db: &ProbDb, truth: &[CompleteTuple]) -> f64 {
    let hits = db
        .blocks()
        .iter()
        .zip(truth)
        .filter(|(b, t)| b.most_probable().tuple == **t)
        .count();
    hits as f64 / truth.len() as f64
}

/// Untraced ops until `seconds` of op time have passed and at least
/// `min_ops` ran. Returns per-op
/// latencies in ms; gate checks run between ops, outside the timing.
fn untraced_phase(
    fx: &Fixture,
    seconds: f64,
    min_ops: usize,
    fault: bool,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut lats = Vec::new();
    let mut busy = 0.0;
    while busy < seconds * 1e3 || lats.len() < min_ops {
        let start = Instant::now();
        let mut db = derive_probabilistic_db(&fx.relation, &fx.config).db;
        let lat = ms(start);
        busy += lat;
        lats.push(lat);
        if fault && lats.len() == 1 {
            db.push_certain(fx.relation.complete_part()[0].clone())
                .expect("arity ok");
        }
        out.gate(check(&db, fx));
    }
    lats
}

/// The multi-attribute partition of the incomplete tuples.
fn multi_workload(rel: &Relation) -> Vec<PartialTuple> {
    rel.incomplete_part()
        .iter()
        .filter(|t| t.missing_mask().count() > 1)
        .cloned()
        .collect()
}

/// One derive op driven stage by stage, each stage in its own span.
fn staged_op(fx: &Fixture, log: &mut SpanLog, op: u64) -> (ProbDb, SamplingCost, usize) {
    let config = &fx.config;
    let rel = &fx.relation;
    log.span("derive.op", op, None, |log, root| {
        let model = log.span("core.model.learn", op, Some(root), |_, _| {
            MrslModel::learn(rel.schema(), rel.complete_part(), &config.learn)
        });
        let incomplete = rel.incomplete_part();
        let (single, multi): (Vec<usize>, Vec<usize>) =
            (0..incomplete.len()).partition(|&i| incomplete[i].missing_mask().count() <= 1);
        let single_w: Vec<PartialTuple> = single.iter().map(|&i| incomplete[i].clone()).collect();
        let multi_w: Vec<PartialTuple> = multi.iter().map(|&i| incomplete[i].clone()).collect();
        let single_r = log.span("core.infer.single", op, Some(root), |_, _| {
            infer_batch(&model, &single_w, &SingleVoting, config.voting, config.seed)
        });
        let engine = workload_engine(config.strategy, &config.gibbs);
        let multi_r = log.span("core.infer.multi", op, Some(root), |_, _| {
            infer_batch(
                &model,
                &multi_w,
                engine.as_ref(),
                config.gibbs.voting,
                config.seed,
            )
        });
        let db = log.span("probdb.database.assemble", op, Some(root), |_, _| {
            let mut estimates: Vec<Option<&JointEstimate>> = vec![None; incomplete.len()];
            for (&i, e) in single.iter().zip(&single_r.estimates) {
                estimates[i] = Some(e);
            }
            for (&i, e) in multi.iter().zip(&multi_r.estimates) {
                estimates[i] = Some(e);
            }
            let mut db = ProbDb::new(rel.schema().clone());
            db.set_provenance(engine.name());
            for p in rel.complete_part() {
                db.push_certain(p.clone()).expect("arity ok");
            }
            for (key, (t, est)) in incomplete.iter().zip(estimates).enumerate() {
                let est = est.expect("every incomplete tuple has an estimate");
                db.push_block(to_block(key, t, est)).expect("valid block");
            }
            db
        });
        (db, multi_r.cost, model.stats().num_meta_rules)
    })
}

/// `Δt` as a block of complete alternatives (the default
/// `min_block_prob = 0` keeps every completion with non-zero mass).
fn to_block(key: usize, t: &PartialTuple, est: &JointEstimate) -> Block {
    let alternatives = est
        .probs
        .iter()
        .enumerate()
        .filter(|(_, &p)| p > 0.0)
        .map(|(idx, &prob)| {
            let mut values = vec![0u16; t.arity()];
            for asg in t.assignments() {
                values[asg.attr.index()] = asg.value.0;
            }
            for (attr, v) in est.indexer.decode(idx) {
                values[attr.index()] = v.0;
            }
            Alternative {
                tuple: CompleteTuple::from_values(values),
                prob,
            }
        })
        .collect();
    Block::normalized(key, alternatives).expect("an estimate has non-zero mass")
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        clients: 1,
        ..Outcome::default()
    };
    let (fx, setup_s) = if args.trace {
        (fixture(args), 0.0)
    } else {
        report::timed_setup(|| fixture(args))
    };
    out.gate(check(&fx.reference, &fx));
    let tuples = fx.relation.incomplete_part().len() as f64;

    if !args.trace {
        let cpu = report::cpu_s();
        let lats = untraced_phase(&fx, args.seconds, 1, args.inject_fault, &mut out);
        out.set("setup_s", setup_s);
        report::cpu_per_op(&mut out, cpu, lats.len());
        return out;
    }

    // Traced run: untraced ops (for the wall-clock metrics and the
    // overhead baseline) alternate with the staged pipeline under spans,
    // so that both meet the same host; then per-layer probes.
    let origin = Instant::now();
    let mut log = SpanLog::new(origin, 0);
    let mut untraced = Vec::new();
    let mut busy = 0.0;
    let mut op = 0;
    let mut cost = SamplingCost::default();
    let mut meta_rules = 0;
    while untraced.len() < report::MIN_OPS || busy < args.seconds / 2.0 * 1e3 {
        untraced.extend(untraced_phase(&fx, 0.0, 1, false, &mut out));
        let start = Instant::now();
        let (mut db, c, rules) = staged_op(&fx, &mut log, op);
        busy += ms(start);
        cost = c;
        meta_rules = rules;
        if args.inject_fault && op == 0 {
            db.push_certain(fx.relation.complete_part()[0].clone())
                .expect("arity ok");
        }
        out.gate(check(&db, &fx));
        op += 1;
    }

    report::windowed_metrics(&mut out, &report::back_to_back(&untraced), tuples);
    let untraced_p50 = median(&mut untraced);

    // Probes outside the ops: DAG construction alone, and the
    // multi-attribute batch at one thread against the default pool.
    let multi = multi_workload(&fx.relation);
    let model = MrslModel::learn(
        fx.relation.schema(),
        fx.relation.complete_part(),
        &fx.config.learn,
    );
    let engine = workload_engine(fx.config.strategy, &fx.config.gibbs);
    let probe_op = 1 << 30;
    for _ in 0..5 {
        log.span("core.infer.dag_build", probe_op, None, |_, _| {
            std::hint::black_box(TupleDag::build(&multi));
        });
    }
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    for _ in 0..3 {
        log.span("core.infer.multi_1thread", probe_op, None, |_, _| {
            one_thread.install(|| {
                infer_batch(
                    &model,
                    &multi,
                    engine.as_ref(),
                    fx.config.gibbs.voting,
                    fx.config.seed,
                )
            })
        });
        log.span("core.infer.multi_default", probe_op, None, |_, _| {
            infer_batch(
                &model,
                &multi,
                engine.as_ref(),
                fx.config.gibbs.voting,
                fx.config.seed,
            )
        });
    }

    let spans = log.spans;
    let selfs = report::self_times(&spans);
    let stage = |name| report::median_self_ms(&spans, &selfs, name);
    let (learn, single, multi_ms, assemble) = (
        stage("core.model.learn"),
        stage("core.infer.single"),
        stage("core.infer.multi"),
        stage("probdb.database.assemble"),
    );
    out.set("core.model.learn_ms", learn);
    out.set("core.model.meta_rules", meta_rules as f64);
    out.set("core.infer.single_ms", single);
    out.set("core.infer.multi_ms", multi_ms);
    out.set(
        "core.infer.dag_build_ms",
        report::median_dur_ms(&spans, "core.infer.dag_build"),
    );
    out.set("core.infer.draws", cost.total_draws as f64);
    out.set("core.infer.shared_draws", cost.shared_samples as f64);
    out.set(
        "core.infer.ns_per_draw",
        multi_ms * 1e6 / cost.total_draws.max(1) as f64,
    );
    out.set(
        "core.infer.thread_speedup",
        report::median_dur_ms(&spans, "core.infer.multi_1thread")
            / report::median_dur_ms(&spans, "core.infer.multi_default"),
    );
    out.set(
        "core.infer.top1_accuracy",
        top1_accuracy(&fx.reference, &fx.truth),
    );
    out.set("probdb.database.assemble_ms", assemble);
    out.set(
        "trace.stage_sum_ratio",
        (learn + single + multi_ms + assemble) / untraced_p50,
    );
    out.set(
        "trace.overhead_ratio",
        report::median_dur_ms(&spans, "derive.op") / untraced_p50,
    );
    out.set("process.peak_rss_mb", report::peak_rss_mb());
    out.spans = spans;
    out
}
