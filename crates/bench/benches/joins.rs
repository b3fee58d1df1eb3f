//! Bench: exact extensional joins vs multi-relation Monte Carlo, and
//! dissociation bounds vs sampling on unsafe shapes.
//!
//! A hierarchical two-relation join (sensors ⨝ readings on the station
//! key, with a selection on each side) is evaluated through the
//! [`CatalogEngine`] on both physical paths: the exact safe plan — key
//! partition with per-block products — and the forced joint-world sampler.
//! The gap is the price of sampling where lifting is possible; the
//! expected-count rows additionally measure the mass-table join that stays
//! exact for every shape.
//!
//! The `dissociation` group runs the non-hierarchical chain
//! `R(x), S(x,y), T(y)`: `bounds_probability` computes the deterministic
//! dissociation bracket on the exact path (no sampling — tolerance 1.0),
//! `mc_probability` is the joint-world sampler the same query takes for
//! the point statistic. The bracket should be exact-path fast while the
//! sampler pays per-world join costs.
//!
//! The `interp_*` rows time the reference interpreter
//! ([`mrsl_probdb::testutil::interpreted`]) on the same queries. Under
//! `--test` (CI smoke) every fixture shrinks to seconds of work, each
//! criterion row runs once, and the report is printed but
//! `BENCH_plan.json` is not rewritten.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrsl_bench::{git_rev, smoke_mode, synthetic_chain_catalog, synthetic_join_catalog};
use mrsl_probdb::testutil::interpreted;
use mrsl_probdb::{Catalog, CatalogEngine, Predicate, Query, QueryEngineConfig, Statistic};
use mrsl_relation::{AttrId, ValueId};
use std::fmt::Write as _;
use std::time::Instant;

/// Brackets never refined, so the bounds rows measure the pure
/// deterministic path.
fn vm_config() -> QueryEngineConfig {
    QueryEngineConfig {
        bounds_tolerance: 1.0,
        ..QueryEngineConfig::default()
    }
}

/// σ[kind ∈ {0,1}](sensors) ⨝ σ[level ≥ 2](readings) on the station.
fn join_query() -> Query {
    Query::scan("sensors")
        .filter(Predicate::is_in(AttrId(1), [ValueId(0), ValueId(1)]))
        .join_on(
            Query::scan("readings").filter(Predicate::range(AttrId(1), ValueId(2), ValueId(3))),
            [(AttrId(0), AttrId(0))],
        )
}

fn bench_joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("joins");
    group.sample_size(15);
    let sizes: &[(usize, usize, usize)] = if smoke_mode() {
        &[(16, 400, 200)]
    } else {
        &[(64, 2_000, 1_000), (256, 10_000, 5_000)]
    };
    for &(stations, certain, blocks) in sizes {
        let catalog = synthetic_join_catalog(stations, certain, blocks, 3, 42);
        let query = join_query();
        let size = certain + blocks;
        // `exact_probability` reuses one engine: the first iteration
        // compiles and caches, the rest are warm VM hits.
        group.bench_with_input(
            BenchmarkId::new("exact_probability", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::new(catalog);
                b.iter(|| std::hint::black_box(engine.probability(&query).expect("exact")))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("interp_probability", size),
            &catalog,
            |b, catalog| {
                b.iter(|| {
                    std::hint::black_box(
                        interpreted(catalog, &query, Statistic::Probability, &vm_config())
                            .expect("interp"),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mc_probability", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::with_config(
                    catalog,
                    QueryEngineConfig {
                        force_monte_carlo: true,
                        mc_samples: MC_SAMPLES,
                        ..QueryEngineConfig::default()
                    },
                );
                b.iter(|| {
                    std::hint::black_box(
                        engine.evaluate(&query, Statistic::Probability).expect("mc"),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exact_expected_count", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::new(catalog);
                b.iter(|| std::hint::black_box(engine.expected_count(&query).expect("exact")))
            },
        );
    }
    group.finish();
}

/// `σ[ok] R(x) ⨝ σ[ok] S(x,y) ⨝ σ[ok] T(y)` — unsafe, dissociable.
fn chain_query() -> Query {
    let ok2 = Predicate::eq(AttrId(1), ValueId(1));
    let ok3 = Predicate::eq(AttrId(2), ValueId(1));
    Query::scan("r")
        .filter(ok2.clone())
        .join_on(Query::scan("s").filter(ok3), [(AttrId(0), AttrId(0))])
        .join_on_rel("s", Query::scan("t").filter(ok2), [(AttrId(1), AttrId(0))])
}

fn bench_dissociation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dissociation");
    group.sample_size(15);
    let sizes: &[(usize, usize)] = if smoke_mode() {
        &[(8, 100)]
    } else {
        &[(16, 500), (64, 2_500)]
    };
    for &(keys, blocks) in sizes {
        let catalog = synthetic_chain_catalog(keys, blocks, 42);
        let query = chain_query();
        let size = 4 * blocks; // r + t + 2·blocks in s
        group.bench_with_input(
            BenchmarkId::new("bounds_probability", size),
            &catalog,
            |b, catalog| {
                // Tolerance 1.0: the bracket is never refined, so this
                // row measures the pure exact-path dissociation cost
                // (warm compiled plans after the first iteration).
                let engine = CatalogEngine::with_config(catalog, vm_config());
                b.iter(|| std::hint::black_box(engine.probability_bounds(&query).expect("bounds")))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("interp_bounds_probability", size),
            &catalog,
            |b, catalog| {
                b.iter(|| {
                    std::hint::black_box(
                        interpreted(catalog, &query, Statistic::ProbabilityBounds, &vm_config())
                            .expect("bounds"),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mc_probability", size),
            &catalog,
            |b, catalog| {
                let engine = CatalogEngine::with_config(
                    catalog,
                    QueryEngineConfig {
                        mc_samples: MC_SAMPLES,
                        ..QueryEngineConfig::default()
                    },
                );
                b.iter(|| {
                    std::hint::black_box(
                        engine.evaluate(&query, Statistic::Probability).expect("mc"),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Joint worlds per Monte Carlo call in the report (and in the criterion
/// `mc_probability` rows).
const MC_SAMPLES: usize = 500;

/// Mean wall-clock nanoseconds per call of `f` over `iters` timed
/// iterations (after one untimed warm-up call).
fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// One interpreter-vs-VM comparison row for the JSON report.
struct PlanRow {
    name: &'static str,
    interp_ns: f64,
    vm_ns: f64,
}

fn plan_rows(catalog: &Catalog, query: &Query, stat: Statistic, iters: u32) -> PlanRow {
    let name = match stat {
        Statistic::Probability => "probability",
        Statistic::ExpectedCount => "expected_count",
        Statistic::ProbabilityBounds => "bounds_probability",
        _ => "other",
    };
    let interp_ns = time_ns(iters, || {
        std::hint::black_box(interpreted(catalog, query, stat, &vm_config()).expect("interp"));
    });
    let vm = CatalogEngine::with_config(catalog, vm_config());
    let vm_ns = time_ns(iters, || {
        std::hint::black_box(vm.evaluate(query, stat).expect("vm"));
    });
    PlanRow {
        name,
        interp_ns,
        vm_ns,
    }
}

fn write_rows(
    out: &mut String,
    fixture: &str,
    rows: &[PlanRow],
    extra: &[(&str, f64)],
    cold_ns: f64,
    warm_ns: f64,
) {
    let _ = writeln!(out, "  \"{fixture}\": {{");
    for row in rows {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"interpreter_ns\": {:.0}, \"vm_ns\": {:.0}, \"speedup\": {:.2}}},",
            row.name,
            row.interp_ns,
            row.vm_ns,
            row.interp_ns / row.vm_ns
        );
    }
    for (name, ns) in extra {
        let _ = writeln!(out, "    \"{name}\": {ns:.0},");
    }
    let _ = writeln!(
        out,
        "    \"plan_ns\": {{\"cold\": {cold_ns:.0}, \"warm\": {warm_ns:.0}}}"
    );
    let _ = writeln!(out, "  }},");
}

/// Self-timed interpreter-vs-VM report, written to `BENCH_plan.json` at
/// the repo root. The vendored criterion shim has no programmatic timing
/// hooks, so this measures with [`Instant`] directly: per-statistic
/// interpreter vs warm-VM nanoseconds, the cold-vs-warm planning gap
/// (fresh engine per call vs shared [`PlanCache`] hits), a cold expected
/// count (planning, mass tables and fold from scratch), a Monte Carlo
/// chain probability (the joint-world sampler and its per-world hash
/// join), and the cache hit/miss counters from the warm engine. The
/// report records the host's core count and the git revision it
/// measured. Smoke runs shrink both fixtures and print the report
/// without writing it.
fn emit_plan_report(_c: &mut Criterion) {
    let smoke = smoke_mode();
    let (stations, certain, blocks) = if smoke {
        (64, 2_000, 1_000)
    } else {
        (256, 10_000, 5_000)
    };
    let (chain_keys, chain_blocks) = if smoke { (16, 500) } else { (64, 2_500) };
    let iters = if smoke { 4 } else { 12 };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = format!(
        "{{\n  \"host_cores\": {cores},\n  \"git_rev\": \"{}\",\n",
        git_rev()
    );

    // Join fixture at ≥2k uncertain blocks (full run): hierarchical,
    // exact path.
    let join_catalog = synthetic_join_catalog(stations, certain, blocks, 3, 42);
    let join = join_query();
    let rows = [
        plan_rows(&join_catalog, &join, Statistic::Probability, iters),
        plan_rows(&join_catalog, &join, Statistic::ExpectedCount, iters),
    ];
    // The warm VM reuses memoized mass tables; falling behind the
    // interpreter here is a regression, not noise.
    assert!(
        rows[1].vm_ns < rows[1].interp_ns,
        "expected_count VM regressed vs interpreter: {:.0}ns vs {:.0}ns",
        rows[1].vm_ns,
        rows[1].interp_ns
    );
    let warm_engine = CatalogEngine::new(&join_catalog);
    let warm_ns = time_ns(iters, || {
        std::hint::black_box(warm_engine.probability(&join).expect("warm"));
    });
    let cold_ns = time_ns(iters, || {
        let engine = CatalogEngine::new(&join_catalog);
        std::hint::black_box(engine.probability(&join).expect("cold"));
    });
    let cold_count_ns = time_ns(iters, || {
        let engine = CatalogEngine::new(&join_catalog);
        std::hint::black_box(engine.expected_count(&join).expect("cold"));
    });
    write_rows(
        &mut out,
        if smoke {
            "join_smoke"
        } else {
            "join_2k_blocks"
        },
        &rows,
        &[("cold_expected_count_ns", cold_count_ns)],
        cold_ns,
        warm_ns,
    );
    let stats = warm_engine.plan_cache().stats();

    // Dissociable chain: both bounds are compiled programs.
    let chain_catalog = synthetic_chain_catalog(chain_keys, chain_blocks, 42);
    let chain = chain_query();
    let rows = [plan_rows(
        &chain_catalog,
        &chain,
        Statistic::ProbabilityBounds,
        iters,
    )];
    let warm_engine = CatalogEngine::with_config(&chain_catalog, vm_config());
    let warm_ns = time_ns(iters, || {
        std::hint::black_box(warm_engine.probability_bounds(&chain).expect("warm"));
    });
    let cold_ns = time_ns(iters, || {
        let engine = CatalogEngine::with_config(&chain_catalog, vm_config());
        std::hint::black_box(engine.probability_bounds(&chain).expect("cold"));
    });
    // The point probability of the unsafe chain has no exact plan: every
    // call samples `mc_samples` joint worlds.
    let mc_engine = CatalogEngine::with_config(
        &chain_catalog,
        QueryEngineConfig {
            mc_samples: MC_SAMPLES,
            ..QueryEngineConfig::default()
        },
    );
    let mc_ns = time_ns(5, || {
        std::hint::black_box(
            mc_engine
                .evaluate(&chain, Statistic::Probability)
                .expect("mc"),
        );
    });
    write_rows(
        &mut out,
        if smoke {
            "chain_smoke"
        } else {
            "chain_2500_blocks"
        },
        &rows,
        &[
            ("mc_probability_ns", mc_ns),
            ("mc_samples", MC_SAMPLES as f64),
        ],
        cold_ns,
        warm_ns,
    );
    let chain_stats = warm_engine.plan_cache().stats();

    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}}}\n}}",
        stats.hits + chain_stats.hits,
        stats.misses + chain_stats.misses
    );

    if smoke {
        println!("joins bench smoke mode: BENCH_plan.json left untouched");
        print!("{out}");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan.json");
    if let Err(err) = std::fs::write(path, &out) {
        eprintln!("BENCH_plan.json not written: {err}");
    } else {
        println!("wrote {path}");
        print!("{out}");
    }
}

criterion_group!(benches, bench_joins, bench_dissociation, emit_plan_report);
criterion_main!(benches);
