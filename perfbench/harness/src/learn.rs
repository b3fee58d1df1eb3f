//! `learn`: one op is a learning round — `fit_ensemble_weights` (EM over
//! the four paper engines, BN9 model) and then `fit_block_masses` over
//! labeled join queries. Every round starts from the same model, holdout
//! and catalog; `fit_block_masses` builds a fresh `CatalogEngine`, and so
//! a cold plan cache, every epoch. Rounds run on the default rayon pool,
//! as every caller of the learning crate does.

use crate::report::{self, median, ms, Outcome, SpanLog};
use crate::Args;
use mrsl_bayesnet::sampler::sample_dataset;
use mrsl_bench::synthetic_join_catalog;
use mrsl_core::{GibbsConfig, LearnConfig, MrslModel, VotingConfig};
use mrsl_learn::{
    fit_block_masses, fit_ensemble_weights, standard_members, EnsembleFitReport, LabeledQuery,
    MassFitConfig, MassFitReport, WeightStrategy,
};
use mrsl_probdb::{Catalog, CatalogEngine, Predicate, Query};
use mrsl_relation::{AttrId, CompleteTuple, ValueId};
use mrsl_util::derive_seed;
use std::time::Instant;

const EPOCHS: usize = 20;
const NETWORK_SEED: u64 = 42;

struct Fixture {
    model: MrslModel,
    holdout: Vec<CompleteTuple>,
    catalog: Catalog,
    labeled: Vec<LabeledQuery>,
    seed: u64,
    /// The warm-up round's results; every later round must repeat them.
    reference: Option<(EnsembleFitReport, MassFitReport)>,
}

fn gibbs() -> GibbsConfig {
    GibbsConfig {
        burn_in: 30,
        samples: 300,
        voting: VotingConfig::best_averaged(),
    }
}

/// σ[station = s ∧ kind ∈ {0,1}] sensors ⨝ σ[level ∈ {2,3}] readings:
/// liftable, so differentiable.
fn labeled_query(station: u16) -> Query {
    Query::scan("sensors")
        .filter(
            Predicate::eq(AttrId(0), ValueId(station))
                .and(Predicate::is_in(AttrId(1), [ValueId(0), ValueId(1)])),
        )
        .join_on(
            Query::scan("readings").filter(Predicate::is_in(AttrId(1), [ValueId(2), ValueId(3)])),
            [(AttrId(0), AttrId(0))],
        )
}

fn fixture(args: &Args) -> Fixture {
    let (train, holdout_n, stations, blocks, queries) = if args.smoke {
        (500, 10, 64, 128, 6)
    } else {
        (4_000, 60, 512, 1_024, 12)
    };
    // One fixed network instance; the seed draws the data.
    let bn = mrsl_bench::network("BN9", NETWORK_SEED);
    let data = sample_dataset(&bn, train + holdout_n, derive_seed(args.seed, &[1]));
    let (train_set, holdout) = data.split_at(train);
    let model = MrslModel::learn(
        bn.schema(),
        train_set,
        &LearnConfig {
            support_threshold: 0.005,
            max_itemsets: 1000,
        },
    );
    let holdout = holdout.to_vec();
    // No certain rows and two blocks per station: query probabilities
    // stay away from 1, so the mass gradients are non-zero.
    let catalog = synthetic_join_catalog(stations, 0, blocks, 3, args.seed);
    let engine = CatalogEngine::new(&catalog);
    let labeled = (0..queries)
        .map(|i| {
            let q = labeled_query((i * stations / queries) as u16);
            let (p, _) = engine.probability(&q).expect("liftable");
            LabeledQuery::new(q, 0.6 * p + 0.2)
        })
        .collect();
    let mut fx = Fixture {
        model,
        holdout,
        catalog,
        labeled,
        seed: args.seed,
        reference: None,
    };
    fx.reference = Some(round(&fx, None, 0));
    fx
}

/// One learning round, each stage in a span when `log` is given.
fn round(fx: &Fixture, log: Option<&mut SpanLog>, op: u64) -> (EnsembleFitReport, MassFitReport) {
    let fit = || {
        fit_ensemble_weights(
            &fx.model,
            &fx.holdout,
            VotingConfig::best_averaged(),
            standard_members(&gibbs()),
            WeightStrategy::Em {
                max_iters: 100,
                tol: 1e-9,
            },
            derive_seed(fx.seed, &[9]),
        )
        .expect("holdout is non-empty")
        .1
    };
    let mass = || {
        let mut catalog = fx.catalog.clone();
        fit_block_masses(
            &mut catalog,
            &fx.labeled,
            &[],
            &MassFitConfig {
                epochs: EPOCHS,
                learning_rate: 0.02,
                ..MassFitConfig::default()
            },
        )
        .expect("labeled queries are liftable")
    };
    match log {
        None => (fit(), mass()),
        Some(log) => log.span("learn.round", op, None, |log, root| {
            let f = log.span("learn.weights.fit", op, Some(root), |_, _| fit());
            let m = log.span("learn.mass.fit", op, Some(root), |_, _| mass());
            (f, m)
        }),
    }
}

/// The `learn` gate: weights form a distribution, EM's fitted mixture is
/// no worse than uniform on held-out log-likelihood, the mass fit lowers
/// the training error, and the round repeats the reference bit for bit.
fn check(fit: &EnsembleFitReport, mass: &MassFitReport, fx: &Fixture) -> Result<(), String> {
    let sum: f64 = fit.weights.iter().sum();
    if (sum - 1.0).abs() > 1e-9 || fit.weights.iter().any(|&w| w < 0.0) {
        return Err(format!("weights {:?} are not a distribution", fit.weights));
    }
    if fit.ensemble_log_likelihood < fit.uniform_log_likelihood - 1e-9 {
        return Err("EM weights are worse than uniform on the holdout".into());
    }
    if mass.final_train_loss() > mass.initial_train_loss() {
        return Err("mass fit raised the training error".into());
    }
    let (rf, rm) = fx.reference.as_ref().expect("reference round ran");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&fit.weights) != bits(&rf.weights)
        || bits(&mass.train_loss) != bits(&rm.train_loss)
        || fit.ensemble_accuracy.to_bits() != rf.ensemble_accuracy.to_bits()
    {
        return Err("learning round differs from the reference round".into());
    }
    Ok(())
}

/// Rounds until `seconds` of op time have passed and at least `min_ops`
/// ran, numbered from `first_op`; per-op latencies (ms).
fn phase(
    fx: &Fixture,
    seconds: f64,
    min_ops: usize,
    first_op: u64,
    mut log: Option<&mut SpanLog>,
    fault: bool,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut lats = Vec::new();
    let mut busy = 0.0;
    while busy < seconds * 1e3 || lats.len() < min_ops {
        let start = Instant::now();
        let op = first_op + lats.len() as u64;
        let (fit, mut mass) = round(fx, log.as_deref_mut(), op);
        let lat = ms(start);
        busy += lat;
        lats.push(lat);
        if fault && lats.len() == 1 {
            let last = mass.train_loss.len() - 1;
            mass.train_loss[last] = f64::from_bits(mass.train_loss[last].to_bits() ^ 1);
        }
        out.gate(check(&fit, &mass, fx));
    }
    lats
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
    let (fit, mass) = fx.reference.as_ref().expect("reference round ran");
    out.gate(check(fit, mass, &fx));

    if !args.trace {
        let cpu = report::cpu_s();
        let lats = phase(&fx, args.seconds, 1, 0, None, args.inject_fault, &mut out);
        out.set("setup_s", setup_s);
        report::cpu_per_op(&mut out, cpu, lats.len());
        return out;
    }

    // Untraced rounds (for the wall-clock metrics and the overhead
    // baseline) alternate with traced ones, so that both meet the same
    // host.
    let origin = Instant::now();
    let mut log = SpanLog::new(origin, 0);
    let mut plain = Vec::new();
    let mut traced_ms = 0.0;
    let mut op = 0;
    while plain.len() < report::MIN_OPS || traced_ms < args.seconds / 2.0 * 1e3 {
        plain.extend(phase(&fx, 0.0, 1, 0, None, false, &mut out));
        let fault = args.inject_fault && op == 0;
        traced_ms += phase(&fx, 0.0, 1, op, Some(&mut log), fault, &mut out)[0];
        op += 1;
    }
    report::windowed_metrics(&mut out, &report::back_to_back(&plain), 1.0);
    let plain_p50 = median(&mut plain);

    // Gradient probe: reverse sweep against the forward evaluation it
    // mirrors, each on a fresh engine (the gradient path plans cold).
    let iters = if args.smoke { 4 } else { 10 };
    for i in 0..iters {
        for (j, lq) in fx.labeled.iter().enumerate() {
            let op = 1 << 40 | (i * fx.labeled.len() + j) as u64;
            log.span("probdb.plan.probability", op, None, |_, _| {
                let engine = CatalogEngine::new(&fx.catalog);
                std::hint::black_box(engine.probability(&lq.query).expect("forward"));
            });
            log.span("probdb.plan.probability_with_gradient", op, None, |_, _| {
                let engine = CatalogEngine::new(&fx.catalog);
                std::hint::black_box(
                    engine
                        .probability_with_gradient(&lq.query)
                        .expect("gradient"),
                );
            });
        }
    }

    let spans = log.spans;
    let selfs = report::self_times(&spans);
    out.set(
        "learn.weights.fit_ms",
        report::median_self_ms(&spans, &selfs, "learn.weights.fit"),
    );
    out.set("learn.weights.top1_accuracy", fit.ensemble_accuracy);
    out.set(
        "learn.mass.epoch_ms",
        report::median_self_ms(&spans, &selfs, "learn.mass.fit") / EPOCHS as f64,
    );
    out.set("learn.mass.final_mse", mass.final_train_loss());
    out.set(
        "probdb.plan.grad_overhead",
        report::median_dur_ms(&spans, "probdb.plan.probability_with_gradient")
            / report::median_dur_ms(&spans, "probdb.plan.probability"),
    );
    out.set(
        "trace.overhead_ratio",
        report::median_dur_ms(&spans, "learn.round") / plain_p50,
    );
    out.set("process.peak_rss_mb", report::peak_rss_mb());
    out.spans = spans;
    out
}
