//! Engine-layer guarantees across the refactored inference stack:
//!
//! * the `GibbsSampler` engine reproduces an independent reimplementation
//!   of the ordered Gibbs chain bit-for-bit under a fixed seed;
//! * the `TupleDagWorkload` engine reproduces a hash-map reimplementation
//!   of Algorithm 3 bit-for-bit, estimates and every cost counter, at any
//!   thread count;
//! * the `IndependentBaseline` measurably diverges from Gibbs on a
//!   correlated two-attribute tuple (the paper's §V ablation claim);
//! * `infer_batch` and `derive_probabilistic_db` yield bit-identical
//!   results regardless of the executor's thread count.

use mrsl_repro::bayesnet::catalog::by_name;
use mrsl_repro::bayesnet::sampler::sample_dataset;
use mrsl_repro::bayesnet::BayesianNetwork;
use mrsl_repro::core::{
    derive_probabilistic_db, infer_batch, workload_engine, DeriveConfig, GibbsConfig, GibbsSampler,
    IndependentBaseline, InferContext, InferenceEngine, LearnConfig, MrslModel, TupleDag,
    TupleDagWorkload, VotingConfig, WorkloadStrategy,
};
use mrsl_repro::eval::missing::inject_missing_varying;
use mrsl_repro::relation::relation::fig1_relation;
use mrsl_repro::relation::{AttrId, JointIndexer, PartialTuple, ValueId};
use mrsl_repro::util::{derive_seed, seeded_rng, FxHashMap};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

fn model() -> MrslModel {
    let rel = fig1_relation();
    MrslModel::learn(
        rel.schema(),
        rel.complete_part(),
        &LearnConfig {
            support_threshold: 0.01,
            max_itemsets: 1000,
        },
    )
}

fn gibbs_config(burn_in: usize, samples: usize) -> GibbsConfig {
    GibbsConfig {
        burn_in,
        samples,
        voting: VotingConfig::best_averaged(),
    }
}

/// The ordered Gibbs chain rebuilt from public primitives only: per-sweep
/// voting through `vote_single` on an explicit evidence tuple, no CPD
/// cache, no engine plumbing. Comparing the engines against chains built
/// from *this* makes the parity checks non-vacuous: they prove the engines
/// keep the chain (seed expansion, uniform init, ordered sweeps,
/// categorical draws) and that the context's CPD cache is
/// value-transparent.
struct ReferenceChain {
    state: Vec<u16>,
    missing: Vec<AttrId>,
    rng: StdRng,
}

impl ReferenceChain {
    fn new(m: &MrslModel, t: &PartialTuple, seed: u64) -> Self {
        let schema = m.schema();
        let mut rng = seeded_rng(derive_seed(seed, &[0x61bb5]));
        let mut state = vec![0u16; schema.attr_count()];
        for asg in t.assignments() {
            state[asg.attr.index()] = asg.value.0;
        }
        let missing: Vec<AttrId> = t.missing_mask().iter().collect();
        for &a in &missing {
            state[a.index()] = rng.gen_range(0..schema.cardinality(a)) as u16;
        }
        Self {
            state,
            missing,
            rng,
        }
    }

    fn sweep(&mut self, ctx: &mut InferContext<'_>) -> &[u16] {
        for &attr in &self.missing {
            // Voting evidence: every attribute except the one resampled,
            // clamped to the current chain state.
            let mut slots: Vec<Option<u16>> = self.state.iter().map(|&v| Some(v)).collect();
            slots[attr.index()] = None;
            let evidence = PartialTuple::from_options(&slots);
            let cpd = ctx.vote_single(&evidence, attr);
            let mut u: f64 = self.rng.gen::<f64>();
            let mut chosen = cpd.iter().rposition(|&w| w > 0.0).expect("positive CPD") as u16;
            for (i, &w) in cpd.iter().enumerate() {
                if u < w {
                    chosen = i as u16;
                    break;
                }
                u -= w;
            }
            self.state[attr.index()] = chosen;
        }
        &self.state
    }
}

/// Index of `point`'s values on the indexer's attributes.
fn combo_index(indexer: &JointIndexer, point: &[u16]) -> usize {
    let combo: Vec<ValueId> = indexer
        .attrs()
        .iter()
        .map(|a| ValueId(point[a.index()]))
        .collect();
    indexer.index_of(&combo)
}

/// Tuple-at-a-time Gibbs (`B` burn-in sweeps, then `N` recorded) on a
/// [`ReferenceChain`].
fn reference_infer_joint(
    m: &MrslModel,
    t: &PartialTuple,
    burn_in: usize,
    samples: usize,
    voting: VotingConfig,
    seed: u64,
) -> Vec<f64> {
    let mut ctx = InferContext::new(m, voting, 0);
    let mut chain = ReferenceChain::new(m, t, seed);
    for _ in 0..burn_in {
        chain.sweep(&mut ctx);
    }
    let indexer = JointIndexer::new(m.schema(), t.missing_mask());
    let mut counts = vec![0u32; indexer.size()];
    for _ in 0..samples {
        counts[combo_index(&indexer, chain.sweep(&mut ctx))] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / samples as f64)
        .collect()
}

/// Per-node state of [`reference_workload_dag`].
struct ReferenceNode {
    indexer: JointIndexer,
    counts: Vec<u32>,
    points: Vec<Box<[u16]>>,
    completed: bool,
    pending_parents: usize,
}

impl ReferenceNode {
    fn record(&mut self, point: &[u16]) {
        self.counts[combo_index(&self.indexer, point)] += 1;
        self.points.push(point.into());
    }
}

/// The outputs [`reference_workload_dag`] compares: per workload entry
/// `(probs, sample_count)`, and the cost counters `(total_draws,
/// burn_in_draws, shared_samples, chains)`.
type ReferenceRun = (Vec<(Vec<f64>, usize)>, [usize; 4]);

/// Algorithm 3 as a straightforward sequential program: every node's
/// state in a hash map, every recorded point boxed and kept, one fresh
/// context per connected component, chains on [`ReferenceChain`]s. Only
/// the DAG itself (`TupleDag`) comes from the crate. The second value
/// counts the roots promoted after their parents completed.
fn reference_workload_dag(
    m: &MrslModel,
    workload: &[PartialTuple],
    burn_in: usize,
    samples: usize,
    voting: VotingConfig,
    seed: u64,
) -> (ReferenceRun, usize) {
    let dag = TupleDag::build(workload);
    let mut node_estimates: Vec<Option<(Vec<f64>, usize)>> = vec![None; dag.len()];
    let [mut total_draws, mut burn_in_draws, mut shared_samples, mut chain_count] = [0usize; 4];
    let mut promoted = 0;
    for nodes in dag.components() {
        let mut ctx = InferContext::new(m, voting, seed);
        let mut states: FxHashMap<usize, ReferenceNode> = nodes
            .iter()
            .map(|&i| {
                let tuple = &dag.nodes()[i];
                let indexer = JointIndexer::new(m.schema(), tuple.missing_mask());
                let state = ReferenceNode {
                    counts: vec![0u32; indexer.size()],
                    indexer,
                    points: Vec::new(),
                    completed: tuple.is_complete(),
                    pending_parents: dag.parents(i).len(),
                };
                (i, state)
            })
            .collect();
        let mut active: VecDeque<usize> = nodes
            .iter()
            .copied()
            .filter(|&i| dag.parents(i).is_empty() && !states[&i].completed)
            .collect();
        let mut chains: FxHashMap<usize, ReferenceChain> = FxHashMap::default();
        let mut done: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|&i| states[&i].completed)
            .collect();
        loop {
            // ShareSamples + promotion: drain the completion worklist.
            while let Some(r) = done.pop() {
                for &s in dag.children(r) {
                    if states[&s].completed {
                        continue;
                    }
                    let child_tuple = &dag.nodes()[s];
                    let needed = samples.saturating_sub(states[&s].points.len());
                    let shared: Vec<Box<[u16]>> = states[&r]
                        .points
                        .iter()
                        .filter(|p| {
                            child_tuple
                                .assignments()
                                .all(|asg| p[asg.attr.index()] == asg.value.0)
                        })
                        .take(needed)
                        .cloned()
                        .collect();
                    let child = states.get_mut(&s).expect("child in component");
                    for p in shared {
                        child.record(&p);
                        shared_samples += 1;
                    }
                    child.pending_parents = child.pending_parents.saturating_sub(1);
                    if child.points.len() >= samples {
                        child.completed = true;
                        done.push(s);
                    } else if child.pending_parents == 0 {
                        promoted += 1;
                        active.push_back(s);
                    }
                }
            }
            // Round-robin over the active roots, one recorded sweep each.
            let Some(r) = active.pop_front() else { break };
            if states[&r].completed {
                continue;
            }
            let chain = chains.entry(r).or_insert_with(|| {
                chain_count += 1;
                let mut chain =
                    ReferenceChain::new(m, &dag.nodes()[r], derive_seed(seed, &[r as u64]));
                for _ in 0..burn_in {
                    chain.sweep(&mut ctx);
                }
                burn_in_draws += burn_in;
                total_draws += burn_in;
                chain
            });
            let point = chain.sweep(&mut ctx).to_vec();
            total_draws += 1;
            let state = states.get_mut(&r).expect("active node in component");
            state.record(&point);
            if state.points.len() >= samples {
                state.completed = true;
                chains.remove(&r);
                done.push(r);
            } else {
                active.push_back(r);
            }
        }
        for i in nodes {
            let state = &states[&i];
            let n: u32 = state.counts.iter().sum();
            let probs = if state.indexer.size() == 1 {
                vec![1.0]
            } else {
                state.counts.iter().map(|&c| c as f64 / n as f64).collect()
            };
            node_estimates[i] = Some((probs, n as usize));
        }
    }
    let estimates = dag
        .workload_nodes()
        .iter()
        .map(|&i| node_estimates[i].clone().expect("every node sampled"))
        .collect();
    (
        (
            estimates,
            [total_draws, burn_in_draws, shared_samples, chain_count],
        ),
        promoted,
    )
}

#[test]
fn gibbs_engine_reproduces_legacy_sampler_exactly() {
    let m = model();
    let config = gibbs_config(60, 800);
    // Every incomplete-tuple shape of Fig. 1, several seeds.
    let tuples = [
        PartialTuple::from_options(&[Some(0), Some(0), None, None]),
        PartialTuple::from_options(&[Some(0), None, Some(0), None]),
        PartialTuple::from_options(&[Some(0), None, None, None]),
        PartialTuple::from_options(&[None, Some(0), None, None]),
        PartialTuple::from_options(&[None, None, None, None]),
    ];
    for (i, t) in tuples.iter().enumerate() {
        for seed in [0u64, 7, 0xdead_beef] {
            let reference =
                reference_infer_joint(&m, t, config.burn_in, config.samples, config.voting, seed);
            let mut ctx = InferContext::new(&m, config.voting, seed);
            let engine = GibbsSampler::from_config(&config).estimate(&mut ctx, t);
            assert_eq!(reference, engine.probs, "tuple {i}, seed {seed}");
        }
    }
}

#[test]
fn independent_baseline_diverges_from_gibbs_on_correlated_tuple() {
    // Fig. 1's Rc strongly correlates inc and nw given ⟨20, HS⟩ (§V's
    // motivating example): the Gibbs joint captures that, the product
    // baseline cannot. Total variation between the two must be visible.
    let m = model();
    let t = PartialTuple::from_options(&[Some(0), Some(0), None, None]);
    let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 11);
    let gibbs = GibbsSampler {
        burn_in: 300,
        samples: 20_000,
    }
    .estimate(&mut ctx, &t);
    let independent = IndependentBaseline.estimate(&mut ctx, &t);
    assert_eq!(gibbs.probs.len(), independent.probs.len());
    let total_variation: f64 = gibbs
        .probs
        .iter()
        .zip(&independent.probs)
        .map(|(g, i)| (g - i).abs())
        .sum::<f64>()
        / 2.0;
    assert!(
        total_variation > 0.05,
        "expected a visible gap on a correlated tuple, got TV {total_variation}"
    );
    // Sanity: both are distributions over the same 2×2 joint.
    assert!((gibbs.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!((independent.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn infer_batch_is_bit_identical_across_thread_counts() {
    let m = model();
    let workload: Vec<PartialTuple> = fig1_relation().incomplete_part().to_vec();
    let config = gibbs_config(50, 400);
    for strategy in [WorkloadStrategy::TupleAtATime, WorkloadStrategy::TupleDag] {
        let engine = workload_engine(strategy, &config);
        let reference = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool")
            .install(|| infer_batch(&m, &workload, engine.as_ref(), config.voting, 5));
        for threads in [2, 4, 16] {
            let run = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| infer_batch(&m, &workload, engine.as_ref(), config.voting, 5));
            assert_eq!(reference.estimates.len(), run.estimates.len());
            for (a, b) in reference.estimates.iter().zip(&run.estimates) {
                assert_eq!(a.probs, b.probs, "{strategy:?} with {threads} threads");
            }
            assert_eq!(
                reference.cost.total_draws, run.cost.total_draws,
                "{strategy:?} with {threads} threads"
            );
            assert_eq!(reference.cost.shared_samples, run.cost.shared_samples);
        }
    }
}

#[test]
fn derivation_is_bit_identical_across_thread_counts() {
    let rel = fig1_relation();
    let config = DeriveConfig {
        learn: LearnConfig {
            support_threshold: 0.01,
            max_itemsets: 1000,
        },
        gibbs: gibbs_config(30, 300),
        ..DeriveConfig::default()
    };
    let reference = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(|| derive_probabilistic_db(&rel, &config));
    for threads in [2, 8] {
        let run = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(|| derive_probabilistic_db(&rel, &config));
        for (a, b) in reference.estimates.iter().zip(&run.estimates) {
            assert_eq!(a.probs, b.probs, "{threads} threads");
        }
        assert_eq!(
            reference.db.alternative_count(),
            run.db.alternative_count(),
            "{threads} threads"
        );
    }
}

#[test]
fn singleton_dag_engine_matches_its_batch_path() {
    // TupleDagWorkload::estimate is defined as the singleton workload; the
    // two entry points must agree exactly.
    let m = model();
    let t = PartialTuple::from_options(&[Some(0), None, None, None]);
    let engine = TupleDagWorkload {
        burn_in: 25,
        samples: 250,
    };
    let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 9);
    let single = engine.estimate(&mut ctx, &t);
    let batch = infer_batch(
        &m,
        std::slice::from_ref(&t),
        &engine,
        VotingConfig::best_averaged(),
        9,
    );
    assert_eq!(single.probs, batch.estimates[0].probs);
}

#[test]
fn tuple_dag_engine_reproduces_reference_algorithm_3_exactly() {
    // A BN-sampled workload: BN10 (six four-valued attributes) with up to
    // three of six values hidden gives dozens of components, several of
    // them multi-level, so every thread count below splits the components
    // over chunks.
    let net = by_name("BN10").expect("catalog network").topology;
    let bn = BayesianNetwork::instantiate(&net, 0.5, 3);
    let points = sample_dataset(&bn, 2_000 + 120, 3);
    let (train, held) = points.split_at(2_000);
    let m = MrslModel::learn(
        bn.schema(),
        train,
        &LearnConfig {
            support_threshold: 0.005,
            max_itemsets: 1000,
        },
    );
    let workload = inject_missing_varying(held, 3, 3);
    let (burn_in, samples, seed) = (15, 120, 77);
    let voting = VotingConfig::best_averaged();

    let (reference, promoted) =
        reference_workload_dag(&m, &workload, burn_in, samples, voting, seed);
    let components = TupleDag::build(&workload).components();
    assert!(
        components.len() > 16 && components.iter().any(|c| c.len() > 3),
        "the workload must have many components, some multi-node"
    );
    assert!(
        promoted > 0,
        "the workload must promote roots after their parents complete"
    );

    let engine = TupleDagWorkload { burn_in, samples };
    for threads in [1, 2, 4, 16] {
        let run = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(|| infer_batch(&m, &workload, &engine, voting, seed));
        let estimates: Vec<(Vec<f64>, usize)> = run
            .estimates
            .iter()
            .map(|e| (e.probs.clone(), e.sample_count))
            .collect();
        let counters = [
            run.cost.total_draws,
            run.cost.burn_in_draws,
            run.cost.shared_samples,
            run.cost.chains,
        ];
        assert_eq!(estimates, reference.0, "estimates at {threads} threads");
        assert_eq!(counters, reference.1, "cost counters at {threads} threads");
    }
}
