//! Fig. 11: efficiency of multi-variable inference — sample size and
//! wall-clock time as a function of workload size, tuple-DAG vs the
//! tuple-at-a-time baseline (500 samples per tuple).
//!
//! Cells run on one thread, so the times compare the two samplers rather
//! than their parallel schedules. Each point's time is the best of three
//! identical runs (results are deterministic per seed, so only the clock
//! differs between them).

use crate::experiments::{grid, ExpOptions};
use crate::missing::inject_missing_varying;
use crate::report::Report;
use crate::runner::run_parallel;
use mrsl_core::{infer_batch, workload_engine, GibbsConfig, VotingConfig, WorkloadStrategy};
use mrsl_util::table::fmt_f;
use mrsl_util::Table;

/// Runs per (point, strategy); the table reports the fastest.
const TIMING_RUNS: usize = 3;

fn workload_sizes(opts: &ExpOptions) -> Vec<usize> {
    if opts.full {
        vec![500, 1_000, 2_000, 3_000]
    } else {
        vec![100, 250, 500]
    }
}

fn networks(opts: &ExpOptions) -> Vec<&'static str> {
    if opts.full {
        vec![
            "BN1", "BN2", "BN3", "BN5", "BN8", "BN9", "BN10", "BN13", "BN17",
        ]
    } else {
        vec!["BN8", "BN9", "BN13"]
    }
}

fn params(opts: &ExpOptions) -> (usize, f64, usize, usize) {
    // (train, support, samples per tuple N, burn-in B)
    if opts.full {
        (20_000, 0.002, 500, 100)
    } else {
        (5_000, 0.005, 500, 100)
    }
}

/// Regenerates Fig. 11: per (network, workload size, strategy), the total
/// number of sampled points and the wall-clock time of inference.
pub fn run(opts: &ExpOptions) -> Report {
    let (train, support, samples, burn_in) = params(opts);
    let gibbs = GibbsConfig {
        burn_in,
        samples,
        voting: VotingConfig::best_averaged(),
    };
    let mut table = Table::new([
        "network",
        "workload",
        "strategy",
        "sample size (draws)",
        "shared",
        "time (ms)",
        "DAG ÷ tuple-at-a-time time",
    ]);
    // (DAG ÷ tuple-at-a-time) time and draw ratios, one per point.
    let mut time_ratios: Vec<f64> = Vec::new();
    let mut draw_ratios: Vec<f64> = Vec::new();

    for name in networks(opts) {
        let net = mrsl_bayesnet::catalog::by_name(name)
            .expect("catalog name")
            .topology;
        let max_workload = *workload_sizes(opts).iter().max().expect("non-empty");
        let single = ExpOptions {
            instances: 1,
            splits: 1,
            ..*opts
        };
        let cells = grid(
            std::slice::from_ref(&net),
            &single,
            train,
            max_workload,
            |s| {
                s.support = support;
            },
        );
        // Timing experiment: run cells sequentially.
        let rows = run_parallel(cells, 1, |spec| {
            let ctx = spec.build();
            let max_k = ctx.bn.spec().num_attrs() - 1;
            workload_sizes(opts)
                .into_iter()
                .map(|w| {
                    let workload =
                        inject_missing_varying(&ctx.test_points[..w], max_k, spec.seed ^ w as u64);
                    let [base, dag] = [WorkloadStrategy::TupleAtATime, WorkloadStrategy::TupleDag]
                        .map(|strategy| {
                            let engine = workload_engine(strategy, &gibbs);
                            let run = || {
                                infer_batch(
                                    &ctx.model,
                                    &workload,
                                    engine.as_ref(),
                                    gibbs.voting,
                                    spec.seed,
                                )
                                .cost
                            };
                            let mut cost = run();
                            for _ in 1..TIMING_RUNS {
                                cost.elapsed = cost.elapsed.min(run().elapsed);
                            }
                            cost
                        });
                    (w, base, dag)
                })
                .collect::<Vec<_>>()
        });
        for (w, base, dag) in rows.into_iter().flatten() {
            let time_ratio = dag.elapsed.as_secs_f64() / base.elapsed.as_secs_f64();
            time_ratios.push(time_ratio);
            draw_ratios.push(dag.total_draws as f64 / base.total_draws as f64);
            for (strategy, cost, ratio) in [
                ("tuple-at-a-time", base, "-".to_string()),
                ("tuple-DAG", dag, fmt_f(time_ratio, 2)),
            ] {
                table.push_row([
                    name.to_string(),
                    w.to_string(),
                    strategy.to_string(),
                    cost.total_draws.to_string(),
                    cost.shared_samples.to_string(),
                    fmt_f(cost.elapsed.as_secs_f64() * 1e3, 2),
                    ratio,
                ]);
            }
        }
    }
    let range = |ratios: &[f64]| {
        let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().copied().fold(0.0, f64::max);
        (lo, hi)
    };
    let (time_lo, time_hi) = range(&time_ratios);
    let (draw_lo, draw_hi) = range(&draw_ratios);
    let no_slower = time_ratios.iter().filter(|&&r| r <= 1.0).count();
    Report::new(
        "fig11",
        format!("Efficiency of multi-variable inference (N = {samples}/tuple, B = {burn_in})"),
        table,
    )
    .note("paper: sample size and wall-clock grow linearly with workload size; tuple-DAG beats tuple-at-a-time by up to ~an order of magnitude")
    .note(format!(
        "measured: tuple-DAG took no more time than tuple-at-a-time at {no_slower} of {} points; DAG ÷ tuple-at-a-time time {}–{}, draws {}–{}",
        time_ratios.len(),
        fmt_f(time_lo, 2),
        fmt_f(time_hi, 2),
        fmt_f(draw_lo, 2),
        fmt_f(draw_hi, 2),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::CellSpec;

    #[test]
    fn dag_beats_baseline_on_sample_size() {
        let net = mrsl_bayesnet::catalog::by_name("BN8").unwrap().topology;
        let mut spec = CellSpec::new(net, 3_000, 150);
        spec.support = 0.005;
        let ctx = spec.build();
        let workload = inject_missing_varying(&ctx.test_points, 3, 5);
        let gibbs = GibbsConfig {
            burn_in: 50,
            samples: 200,
            voting: VotingConfig::best_averaged(),
        };
        let base = infer_batch(
            &ctx.model,
            &workload,
            workload_engine(WorkloadStrategy::TupleAtATime, &gibbs).as_ref(),
            gibbs.voting,
            1,
        );
        let dag = infer_batch(
            &ctx.model,
            &workload,
            workload_engine(WorkloadStrategy::TupleDag, &gibbs).as_ref(),
            gibbs.voting,
            1,
        );
        assert!(
            dag.cost.total_draws < base.cost.total_draws,
            "dag {} vs baseline {}",
            dag.cost.total_draws,
            base.cost.total_draws
        );
        assert!(dag.cost.shared_samples > 0);
    }
}
