//! Lowering safe plans to bytecode, and the shape-keyed plan cache.
//!
//! The compile pipeline turns one planning verdict into a reusable
//! artifact:
//!
//! 1. **Shape key** — [`crate::algebra::Flattened::shape_hash`]
//!    fingerprints the query shape (scan names, relations, raw
//!    predicates, join pairs; the projection is excluded). The statistic
//!    tag joins it in the cache key, and every hit re-verifies full
//!    structural equality ([`CachedPlan::matches`]) so fingerprint
//!    collisions cannot reuse a wrong plan.
//! 2. **Lowering** — [`compile_boolean`] / [`compile_bound`] walk the
//!    same component/covering-root recursion as the interpreter
//!    (`exact::component_probability`, `dissociate::component_bound`)
//!    but emit flat [`vm::Op`]s instead of recursing over row maps;
//!    [`compile_count`] captures the deterministic mass-join schedule.
//! 3. **Peephole** — [`peephole`] fuses all-leaf partition bodies into
//!    inline leaf lists; the lowering itself already hoists
//!    loop-invariant (copied-only) subtrees and records per-term sort
//!    paths so partition keys are sorted once at bind time instead of
//!    hashed per recursion level.
//! 4. **Cache** — [`PlanCache`] stores the owned shape, the compiled
//!    program, the schemas, data-version stamps and the data-dependent
//!    guard verdicts. A warm hit skips flatten-resolve-classify-
//!    dissociate entirely: it re-binds the owned shape against current
//!    column data and executes the cached program.
//!
//! **Invalidation.** Classification is partly data-dependent (the
//! key-straddle and alias-live-set guards), so a cached verdict is only
//! reused when it is provably still right: if every relation's
//! [`crate::ProbDb::version`] stamp is unchanged the guards cannot have
//! moved and are skipped outright; if any stamp moved, the two guards are
//! recomputed (cheap linear scans — still no classification) and compared
//! against the recorded verdicts. A flipped guard or a swapped schema
//! invalidates the entry and falls back to a cold replan.

use super::classify::{
    alias_live_mismatch, components, key_straddle, Class, CompiledTerm, Resolved, Term,
};
use super::dissociate::{
    alias_multiplicities, covering_root, describe_bounds, extended_class_terms,
    intersect_candidates, DissociatedBounds, Dissociation, Mode,
};
use super::exact;
use super::report::{EvalPath, PlanClass, SafePlan};
use super::vm::{self, BodyStep, BoundsProgram, CountProgram, Op, Program, Transform};
use crate::algebra::{Flattened, ResolvedPair, Statistic};
use crate::column::SHARD_COUNT;
use crate::database::ProbDb;
use crate::predicate::Predicate;
use mrsl_relation::{AttrId, Schema};
use std::ops::Range;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache tag of a statistic, for statistics whose planning verdict and
/// program are pure functions of the query shape (plus the guarded data
/// properties). Other statistics always plan fresh.
pub(crate) fn cache_tag(stat: Statistic) -> Option<u8> {
    match stat {
        Statistic::Probability => Some(1),
        Statistic::ProbabilityBounds => Some(2),
        Statistic::ExpectedCount => Some(3),
        _ => None,
    }
}

/// Lowers a liftable (hierarchical) shape to a boolean-probability
/// program, mirroring `exact::component_probability`'s recursion order
/// exactly.
pub(crate) fn compile_boolean(resolved: &Resolved) -> Program {
    let class_terms: Vec<Vec<usize>> = resolved.classes.iter().map(Class::terms).collect();
    let all: Vec<usize> = (0..resolved.terms.len()).collect();
    let active: Vec<usize> = (0..resolved.classes.len()).collect();
    let mut ops = Vec::new();
    let mut paths = vec![Vec::new(); resolved.terms.len()];
    let roots = components(&class_terms, &all, &active)
        .into_iter()
        .map(|comp| lower_exact(resolved, &class_terms, &comp, &active, &mut paths, &mut ops))
        .collect();
    peephole(Program { ops, roots, paths })
}

fn lower_exact(
    resolved: &Resolved,
    class_terms: &[Vec<usize>],
    comp: &[usize],
    active: &[usize],
    paths: &mut [Vec<usize>],
    ops: &mut Vec<Op>,
) -> u32 {
    if comp.len() == 1 {
        ops.push(Op::Leaf {
            term: comp[0] as u32,
            transform: Transform::Identity,
        });
        return (ops.len() - 1) as u32;
    }
    let root = *active
        .iter()
        .find(|&&c| {
            let terms = resolved.classes[c].terms();
            comp.iter().all(|t| terms.contains(t))
        })
        .expect("hierarchical connected component has a covering class");
    let binding: Vec<(u32, u32)> = comp
        .iter()
        .map(|&t| {
            paths[t].push(root);
            (t as u32, (paths[t].len() - 1) as u32)
        })
        .collect();
    let remaining: Vec<usize> = active.iter().copied().filter(|&c| c != root).collect();
    let body: Vec<BodyStep> = components(class_terms, comp, &remaining)
        .iter()
        .map(|sub| {
            BodyStep::Eval(lower_exact(
                resolved,
                class_terms,
                sub,
                &remaining,
                paths,
                ops,
            ))
        })
        .collect();
    ops.push(Op::Partition {
        binding,
        copied: Vec::new(),
        body,
        fused: None,
    });
    (ops.len() - 1) as u32
}

/// Lowers one dissociation candidate to a single-bound program, mirroring
/// `dissociate::component_bound`: terms binding the root partition as
/// usual, dissociated copies replicated with their replication registers
/// accumulating the branch count, and the mode's mass transform at the
/// leaves.
pub(crate) fn compile_bound(resolved: &Resolved, ext: &[(usize, usize)], mode: Mode) -> Program {
    let class_terms = extended_class_terms(resolved, ext);
    let alias_k = alias_multiplicities(resolved);
    let all: Vec<usize> = (0..resolved.terms.len()).collect();
    let active: Vec<usize> = (0..resolved.classes.len()).collect();
    let mut ops = Vec::new();
    let mut paths = vec![Vec::new(); resolved.terms.len()];
    let roots = components(&class_terms, &all, &active)
        .into_iter()
        .map(|comp| {
            lower_bound(
                resolved,
                &class_terms,
                &alias_k,
                mode,
                &comp,
                &active,
                &mut paths,
                &mut ops,
            )
        })
        .collect();
    peephole(Program { ops, roots, paths })
}

#[allow(clippy::too_many_arguments)]
fn lower_bound(
    resolved: &Resolved,
    class_terms: &[Vec<usize>],
    alias_k: &[f64],
    mode: Mode,
    comp: &[usize],
    active: &[usize],
    paths: &mut [Vec<usize>],
    ops: &mut Vec<Op>,
) -> u32 {
    if comp.len() == 1 {
        let t = comp[0];
        let transform = match mode {
            Mode::Upper => {
                if alias_k[t] > 1.0 {
                    Transform::ConjRoot { k: alias_k[t] }
                } else {
                    Transform::Identity
                }
            }
            Mode::Lower => Transform::DisjRoot,
        };
        ops.push(Op::Leaf {
            term: t as u32,
            transform,
        });
        return (ops.len() - 1) as u32;
    }
    let root = covering_root(resolved, class_terms, comp, active)
        .expect("admissible dissociations decompose");
    let root_terms = resolved.classes[root].terms();
    let binding: Vec<(u32, u32)> = comp
        .iter()
        .filter(|t| root_terms.contains(t))
        .map(|&t| {
            paths[t].push(root);
            (t as u32, (paths[t].len() - 1) as u32)
        })
        .collect();
    let copied: Vec<usize> = comp
        .iter()
        .copied()
        .filter(|t| !root_terms.contains(t))
        .collect();
    let remaining: Vec<usize> = active.iter().copied().filter(|&c| c != root).collect();
    let body: Vec<BodyStep> = components(class_terms, comp, &remaining)
        .iter()
        .map(|sub| {
            let op = lower_bound(
                resolved,
                class_terms,
                alias_k,
                mode,
                sub,
                &remaining,
                paths,
                ops,
            );
            // Copied-only subtrees see the same windows and replication
            // registers in every branch — loop-invariant, hoist.
            if sub.iter().all(|t| copied.contains(t)) {
                BodyStep::Hoisted(op)
            } else {
                BodyStep::Eval(op)
            }
        })
        .collect();
    ops.push(Op::Partition {
        binding,
        copied: copied.iter().map(|&t| t as u32).collect(),
        body,
        fused: None,
    });
    (ops.len() - 1) as u32
}

/// Lowers the expected-count statistic: the single-relation closed form
/// when there are no join classes, the mass-join schedule otherwise.
pub(crate) fn compile_count(resolved: &Resolved) -> CountProgram {
    if resolved.classes.is_empty() && resolved.terms.len() == 1 {
        CountProgram {
            steps: None,
            classes: 0,
        }
    } else {
        CountProgram {
            steps: Some(exact::count_steps(resolved)),
            classes: resolved.classes.len(),
        }
    }
}

/// The peephole pass: partitions whose body is entirely un-hoisted leaves
/// get the fused inline leaf list (no op dispatch per branch). Selection
/// fusion happens upstream of lowering — flattening conjoins adjacent
/// `Filter`s into one per-term predicate, compiled into a single live-row
/// bitmap — and leaf-mass hoisting plus the one-time key pre-sort are
/// encoded by the lowering itself ([`BodyStep::Hoisted`],
/// [`Program::paths`]).
fn peephole(mut prog: Program) -> Program {
    for i in 0..prog.ops.len() {
        let fused = match &prog.ops[i] {
            Op::Partition {
                binding,
                body,
                fused: None,
                ..
            } => body
                .iter()
                .map(|step| match step {
                    BodyStep::Eval(op) => match &prog.ops[*op as usize] {
                        // Memoizable iff this partition is the term's
                        // first binding level (outer window = the full
                        // register for the whole fold).
                        Op::Leaf { term, transform } => Some((
                            *term,
                            *transform,
                            binding.iter().any(|&(t, lvl)| t == *term && lvl == 0),
                        )),
                        _ => None,
                    },
                    BodyStep::Hoisted(_) => None,
                })
                .collect::<Option<Vec<_>>>(),
            _ => None,
        };
        if let Some(f) = fused {
            if let Op::Partition { fused: slot, .. } = &mut prog.ops[i] {
                *slot = Some(f);
            }
        }
    }
    prog
}

/// Compiles every bounds candidate into its upper/lower program pair.
pub(crate) fn compile_bounds(
    resolved: &Resolved,
    candidates: &[Dissociation],
) -> Vec<BoundsProgram> {
    candidates
        .iter()
        .map(|cand| BoundsProgram {
            upper: compile_bound(resolved, &cand.extensions, Mode::Upper),
            lower: compile_bound(resolved, &cand.extensions, Mode::Lower),
        })
        .collect()
}

/// Memo of the bounds report rendering, keyed by the winning
/// `(upper_at, lower_at)` candidate pair. `describe_bounds` re-derives
/// the winner's dissociated decomposition — pure shape work, identical
/// for every evaluation that picks the same winner — so warm hits reuse
/// it instead of re-walking the component recursion.
pub(crate) type DescribeMemo = Mutex<Option<((usize, usize), (SafePlan, Vec<String>))>>;

/// Executes compiled bounds candidates over their bound registers
/// ([`BoundRegs::per_program`] layout) and intersects the brackets — the
/// VM counterpart of `dissociate::evaluate_bounds`, sharing its selection
/// and report-rendering logic so both paths pick identical winners.
///
/// The candidate brackets are independent of each other, so on a
/// multi-threaded rayon pool they evaluate concurrently — the shim
/// collects in candidate order and each bracket's fold is itself
/// deterministic ([`vm::run_prebound_sharded`]), so the evals vector,
/// the intersection, and the winning candidate are bit-identical to the
/// sequential loop at every thread count.
pub(crate) fn run_bounds_prebound(
    resolved: &Resolved,
    candidates: &[Dissociation],
    programs: &[BoundsProgram],
    regs: &[Vec<vm::TermRegs>],
    shards: usize,
    describe: &DescribeMemo,
) -> DissociatedBounds {
    let eval_one = |(i, bp): (usize, &BoundsProgram)| {
        (
            vm::run_prebound_sharded(&bp.upper, &regs[2 * i], shards).clamp(0.0, 1.0),
            vm::run_prebound_sharded(&bp.lower, &regs[2 * i + 1], shards).clamp(0.0, 1.0),
        )
    };
    let evals: Vec<(f64, f64)> = if rayon::current_num_threads() > 1 && programs.len() > 1 {
        use rayon::prelude::*;
        programs
            .iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(eval_one)
            .collect()
    } else {
        programs.iter().enumerate().map(eval_one).collect()
    };
    let choice = intersect_candidates(&evals);
    let key = (choice.upper_at, choice.lower_at);
    let (plan, dissociated) = {
        let mut slot = describe.lock().expect("describe memo lock");
        match &*slot {
            Some((k, v)) if *k == key => v.clone(),
            _ => {
                let v = describe_bounds(resolved, candidates, &choice);
                *slot = Some((key, v.clone()));
                v
            }
        }
    };
    DissociatedBounds {
        lower: choice.lower,
        upper: choice.upper,
        plan,
        dissociated,
    }
}

/// The executable part of a cached plan.
#[derive(Debug)]
pub(crate) enum CompiledProgram {
    /// Exact boolean probability (also the collapsed-bracket case of
    /// `ProbabilityBounds` on safe shapes).
    Boolean(Program),
    /// Dissociation ensemble: per-candidate upper/lower program pairs.
    Bounds {
        candidates: Vec<Dissociation>,
        programs: Vec<BoundsProgram>,
    },
    /// Expected count.
    Count(CountProgram),
    /// The verdict was Monte Carlo — no bytecode, but caching it still
    /// skips replanning. For `ProbabilityBounds` the planner's sampling
    /// reason is kept for the report's `Unsafe` node.
    Sampled { bounds_reason: Option<String> },
}

/// Bound registers memoized inside a cache entry: the gathered, pre-
/// sorted columns of every deterministic program, valid exactly while
/// every relation's data version matches `versions`. The cold miss that
/// creates the entry binds them; a warm hit whose stamps match skips
/// predicate compilation and register binding and goes straight to the
/// fold; any mutation makes the stamps differ and the next evaluation
/// patches or rebinds (and overwrites) the registers.
#[derive(Debug)]
pub(crate) struct BoundRegs {
    /// Data versions the registers were gathered under, term order.
    pub versions: Vec<u64>,
    /// Per-term shard stamps ([`ProbDb::shard_versions`]) at gather
    /// time. When only some shards moved, [`rebind_or_patch`] re-gathers
    /// just those leading-key ranges ([`vm::patch_term`]) and splices
    /// the untouched runs over from the memo.
    pub shard_versions: Vec<Vec<u64>>,
    /// Register sets per program: `[regs]` for a boolean program;
    /// candidate-major for a bounds ensemble, upper program first then
    /// lower (their sort paths differ, so each program gets its own
    /// register set); empty for a count program (whose memo is
    /// [`BoundRegs::count`]).
    pub per_program: Vec<Vec<vm::TermRegs>>,
    /// Memoized grouped mass tables of an expected-count program, step
    /// order; reused per step while that step's term data is unchanged.
    pub count: Option<Vec<exact::MassTable>>,
    /// The scan statistics the report would recompute from the compiled
    /// terms.
    pub stats: Vec<crate::plan::RelationStats>,
}

/// One term of the owned query shape stored in the cache.
#[derive(Debug)]
struct OwnedTerm {
    name: String,
    relation: String,
    /// The raw flattened predicate, compared verbatim against incoming
    /// queries on every hit.
    raw_pred: Predicate,
    /// The simplified predicate, re-bound into [`Term`]s on warm hits.
    pred: Predicate,
    class_attrs: Vec<(usize, AttrId)>,
}

/// A fully planned, compiled, shape-verified cache entry: everything a
/// warm hit needs to execute against current column data without
/// resolving or classifying anything.
#[derive(Debug)]
pub(crate) struct CachedPlan {
    terms: Vec<OwnedTerm>,
    classes: Vec<(Vec<(usize, AttrId)>, String)>,
    joins: Vec<ResolvedPair>,
    schemas: Vec<Arc<Schema>>,
    /// Recorded verdict of the key-straddle guard at plan time.
    pub straddle: bool,
    /// Recorded verdict of the alias-live-mismatch guard at plan time.
    pub alias_mismatch: bool,
    /// The planned evaluation path (pre any hybrid upgrade, which is an
    /// evaluation-time decision re-made per answer).
    pub path: EvalPath,
    pub plan_class: PlanClass,
    /// The classifier's decomposition (bounds answers re-derive their
    /// winning candidate's decomposition at evaluation time).
    pub decomposition: Option<SafePlan>,
    pub program: CompiledProgram,
    /// Version-guarded register memo (see [`BoundRegs`]); `None` until
    /// the first execution binds it, and always for sampled verdicts.
    pub regs: Mutex<Option<BoundRegs>>,
    /// Bounds report-rendering memo (see [`DescribeMemo`]).
    pub describe: DescribeMemo,
}

impl CachedPlan {
    /// Builds the owned entry from a cold plan, recording the guard
    /// verdicts uniformly and stamping the relations' data versions.
    pub(crate) fn capture(
        flat: &Flattened,
        resolved: &Resolved,
        compiled: &[CompiledTerm],
        path: EvalPath,
        plan_class: PlanClass,
        decomposition: Option<SafePlan>,
        program: CompiledProgram,
    ) -> (Self, Vec<u64>) {
        let versions = resolved.terms.iter().map(|t| t.db.version()).collect();
        let plan = CachedPlan {
            terms: flat
                .terms
                .iter()
                .zip(&resolved.terms)
                .map(|(ft, rt)| OwnedTerm {
                    name: rt.name.clone(),
                    relation: rt.relation.clone(),
                    raw_pred: ft.pred.clone(),
                    pred: rt.pred.clone(),
                    class_attrs: rt.class_attrs.clone(),
                })
                .collect(),
            classes: resolved
                .classes
                .iter()
                .map(|c| (c.members.clone(), c.label.clone()))
                .collect(),
            joins: flat.joins.clone(),
            schemas: resolved
                .terms
                .iter()
                .map(|t| t.db.schema().clone())
                .collect(),
            straddle: key_straddle(resolved, compiled).is_some(),
            alias_mismatch: alias_live_mismatch(resolved, compiled).is_some(),
            path,
            plan_class,
            decomposition,
            program,
            regs: Mutex::new(None),
            describe: Mutex::new(None),
        };
        (plan, versions)
    }

    /// Full structural shape verification on a fingerprint match.
    pub(crate) fn matches(&self, flat: &Flattened) -> bool {
        self.terms.len() == flat.terms.len()
            && self.joins == flat.joins
            && self
                .terms
                .iter()
                .zip(&flat.terms)
                .all(|(a, b)| a.name == b.name && a.relation == b.relation && a.raw_pred == b.pred)
    }

    /// Re-binds the owned shape against current catalog data: cheap
    /// per-term lookups plus `O(shape)` clones, no resolution or
    /// classification. Returns `None` (stale — cold replan) when a
    /// relation disappeared or its schema changed.
    pub(crate) fn bind<'a, F>(&self, lookup: &F) -> Option<(Resolved<'a>, Vec<u64>)>
    where
        F: Fn(&str) -> Option<&'a ProbDb>,
    {
        let mut terms = Vec::with_capacity(self.terms.len());
        let mut versions = Vec::with_capacity(self.terms.len());
        for (i, t) in self.terms.iter().enumerate() {
            let db = lookup(&t.relation)?;
            let schema = db.schema();
            if !Arc::ptr_eq(schema, &self.schemas[i]) && **schema != *self.schemas[i] {
                return None;
            }
            versions.push(db.version());
            terms.push(Term {
                name: t.name.clone(),
                relation: t.relation.clone(),
                db,
                pred: t.pred.clone(),
                class_attrs: t.class_attrs.clone(),
            });
        }
        let classes = self
            .classes
            .iter()
            .map(|(members, label)| Class {
                members: members.clone(),
                label: label.clone(),
            })
            .collect();
        Some((Resolved { terms, classes }, versions))
    }
}

/// Per-term register delta between a memo's shard stamps and the
/// current data, decided by [`term_deltas`].
enum TermDelta {
    /// Every shard stamp unchanged: the memoized registers are still the
    /// data and move over untouched.
    Clean,
    /// Only these leading-key value ranges changed (ascending,
    /// disjoint): patch candidates.
    Dirty(Vec<Range<u32>>),
    /// Everything changed (or the memo predates this database): full
    /// re-gather.
    Rebind,
}

/// Classifies every term by comparing the memo's shard stamps against
/// the current per-shard stamps, merging adjacent dirty shards into one
/// splice range.
fn term_deltas(resolved: &Resolved, old: &[Vec<u64>]) -> Vec<TermDelta> {
    resolved
        .terms
        .iter()
        .zip(old)
        .map(|(term, old_stamps)| {
            let new = term.db.shard_versions();
            if old_stamps.as_slice() == new {
                return TermDelta::Clean;
            }
            let map = term.db.shard_map();
            let mut ranges: Vec<Range<u32>> = Vec::new();
            for s in 0..SHARD_COUNT {
                if old_stamps[s] == new[s] {
                    continue;
                }
                let r = map.value_range(s);
                if r.is_empty() {
                    continue;
                }
                match ranges.last_mut() {
                    Some(last) if last.end == r.start => last.end = r.end,
                    _ => ranges.push(r),
                }
            }
            let card = map.value_range(SHARD_COUNT - 1).end;
            if ranges.is_empty() || (ranges.len() == 1 && ranges[0] == (0..card)) {
                TermDelta::Rebind
            } else {
                TermDelta::Dirty(ranges)
            }
        })
        .collect()
}

/// Can term `t`'s registers for this sort path be range-patched? The
/// splice operates on the level-0 sort key, while the shard stamps cover
/// the *leading attribute's* value ranges — so patching is sound exactly
/// when the program's root partition keys this term on attribute 0.
fn patchable(resolved: &Resolved, path: &[usize], t: usize) -> bool {
    path.first().is_some_and(|&c| {
        resolved.terms[t]
            .class_attrs
            .iter()
            .any(|&(ci, a)| ci == c && a == AttrId(0))
    })
}

/// Result of [`rebind_or_patch`]: the refreshed memo, plus how its
/// register sets were obtained (for the cache counters).
pub(crate) struct RegsMaintenance {
    pub regs: BoundRegs,
    /// Term register sets refreshed by range patching.
    pub patched: u64,
    /// Term register sets (or mass tables) rebuilt from scratch.
    pub rebound: u64,
}

/// Refreshes a cached plan's register memo against current column data,
/// consuming the old memo: terms whose shard stamps are all unchanged
/// move over untouched, terms whose data moved in only some shards are
/// range-patched ([`vm::patch_term`]), and everything else is re-bound.
/// Count programs refresh per-step mass tables the same way (reuse per
/// unchanged term, rebuild otherwise). With no usable memo — a cold
/// miss, or a memo of another layout — every program binds fresh, one
/// after another: a bounds ensemble's binds are small, and fanning them
/// out would start OS threads inside serving workers that already run
/// one query per core. Count mass tables build over the rayon pool when
/// it has more than one thread.
pub(crate) fn rebind_or_patch(
    plan: &CachedPlan,
    old: Option<BoundRegs>,
    resolved: &Resolved,
    compiled: &[CompiledTerm],
    versions: &[u64],
) -> RegsMaintenance {
    let programs: Vec<&Program> = match &plan.program {
        CompiledProgram::Boolean(p) => vec![p],
        CompiledProgram::Bounds { programs, .. } => programs
            .iter()
            .flat_map(|bp| [&bp.upper, &bp.lower])
            .collect(),
        _ => Vec::new(),
    };
    let steps = match &plan.program {
        CompiledProgram::Count(cp) => cp.steps.as_deref(),
        _ => None,
    };
    let parallel = rayon::current_num_threads() > 1;
    let mut patched = 0u64;
    let mut rebound = 0u64;
    let usable = old.filter(|memo| {
        memo.per_program.len() == programs.len()
            && memo.shard_versions.len() == resolved.terms.len()
    });
    let (per_program, count) = match usable {
        Some(memo) => {
            let deltas = term_deltas(resolved, &memo.shard_versions);
            let per_program: Vec<Vec<vm::TermRegs>> = programs
                .iter()
                .zip(memo.per_program)
                .map(|(prog, old_regs)| {
                    old_regs
                        .into_iter()
                        .enumerate()
                        .map(|(t, old_t)| match &deltas[t] {
                            TermDelta::Clean => old_t,
                            TermDelta::Dirty(ranges) if patchable(resolved, &prog.paths[t], t) => {
                                patched += 1;
                                vm::patch_term(&old_t, &prog.paths[t], &compiled[t], ranges)
                            }
                            _ => {
                                rebound += 1;
                                vm::bind_term(&prog.paths[t], &compiled[t])
                            }
                        })
                        .collect()
                })
                .collect();
            let count = steps.map(|st| {
                let reusable = memo.count.filter(|tables| {
                    tables.len() == st.len() && memo.versions.len() == versions.len()
                });
                match reusable {
                    Some(tables) => st
                        .iter()
                        .zip(tables)
                        .map(|(step, table)| {
                            if memo.versions[step.term] == versions[step.term] {
                                table
                            } else {
                                rebound += 1;
                                exact::grouped_term_mass(&compiled[step.term], step)
                            }
                        })
                        .collect(),
                    None => {
                        rebound += st.len() as u64;
                        exact::mass_tables(st, compiled, parallel)
                    }
                }
            });
            (per_program, count)
        }
        None => {
            rebound += (programs.len() * resolved.terms.len()) as u64;
            let per_program: Vec<Vec<vm::TermRegs>> = programs
                .iter()
                .map(|prog| vm::bind_program(prog, compiled))
                .collect();
            let count = steps.map(|st| {
                rebound += st.len() as u64;
                exact::mass_tables(st, compiled, parallel)
            });
            (per_program, count)
        }
    };
    let regs = BoundRegs {
        versions: versions.to_vec(),
        shard_versions: resolved
            .terms
            .iter()
            .map(|t| t.db.shard_versions().to_vec())
            .collect(),
        per_program,
        count,
        stats: super::relation_stats(compiled),
    };
    RegsMaintenance {
        regs,
        patched,
        rebound,
    }
}

/// Cumulative cache counters plus the current size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Warm hits: answers produced from a cached program.
    pub hits: u64,
    /// Cold misses (including fingerprint collisions that failed shape
    /// verification).
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped because their guarded data properties or schemas
    /// changed out from under them.
    pub invalidations: u64,
    /// Memoized term register sets refreshed by *range patching* after a
    /// mutation touched only some shards: just the dirty leading-key
    /// ranges were re-gathered, the rest spliced over from the memo.
    pub reg_patches: u64,
    /// Memoized term register sets (or count mass tables) rebuilt from
    /// scratch because the mutation was not range-patchable.
    pub reg_rebinds: u64,
    /// Warm hits answered from the lock-free hot tier without touching a
    /// cache stripe (a subset of [`PlanCacheStats::hits`]).
    pub hot_hits: u64,
    /// Shapes promoted into (or re-promoted within) the hot tier.
    pub hot_promotions: u64,
    /// Current number of cached plans.
    pub len: usize,
    /// Maximum number of cached plans.
    pub capacity: usize,
}

/// A [`PlanCache::probe`] hit: the entry, its recorded data versions,
/// and whether the lock-free hot tier served it.
pub(crate) struct Probe {
    pub plan: Arc<CachedPlan>,
    pub versions: Vec<u64>,
    pub hot: bool,
}

#[derive(Debug)]
struct Entry {
    tag: u8,
    hash: u64,
    plan: Arc<CachedPlan>,
    versions: Vec<u64>,
    last_used: u64,
    /// Striped-probe hits since insertion; drives hot-tier promotion.
    hits: u64,
}

/// Upper bound on the number of independently locked stripes of a
/// [`PlanCache`]. Small caches (capacity below `2 ×` this) collapse to
/// one stripe so their LRU order stays globally exact.
const CACHE_STRIPES: usize = 8;

/// Slots in the lock-free hot tier probed before the striped table.
const HOT_SLOTS: usize = 8;

/// Striped-probe hits after which a shape is promoted into the hot tier
/// (and re-promoted at every further multiple, so a shape evicted from
/// its hot slot by a collision can win it back while it stays hot).
const HOT_PROMOTE_HITS: u64 = 3;

/// Hot entries inline their per-term version stamps as atomics so
/// readers never lock; shapes with more terms than this stay striped.
const HOT_MAX_TERMS: usize = 8;

/// Replaced hot entries cannot be freed while lock-free readers may
/// still hold a pointer, so they are retired into a graveyard freed when
/// the cache drops. The cap bounds the graveyard: once it fills, no
/// further promotions replace a live entry (the hot set has churned
/// enough; the striped tier still serves everything correctly).
const HOT_RETIRED_CAP: usize = 256;

#[derive(Debug)]
struct CacheStripe {
    entries: Vec<Entry>,
    capacity: usize,
}

/// One resident of the hot tier. Immutable except for the version
/// stamps, which are refreshed in place with atomic stores — a reader
/// racing a refresh can observe a torn stamp vector, which at worst
/// sends that one execution through the guard-revalidation path (the
/// executor always compares against the *actual* current data versions).
#[derive(Debug)]
struct HotEntry {
    tag: u8,
    hash: u64,
    plan: Arc<CachedPlan>,
    nterms: usize,
    versions: [AtomicU64; HOT_MAX_TERMS],
}

/// Retired hot entries await deallocation at cache drop. Raw pointers
/// are not `Send`; the graveyard is only ever touched under its mutex
/// and freed once no reader can exist, so the transfer is sound.
#[derive(Debug, Default)]
struct Graveyard(Vec<*mut HotEntry>);

unsafe impl Send for Graveyard {}

/// A shape-keyed cache of compiled plans, shared across engines — and,
/// under the serving layer, across worker threads.
///
/// Keys are `(statistic tag, 64-bit shape fingerprint)`; hits re-verify
/// full structural equality before reuse, so collisions degrade to
/// misses, never to wrong answers.
///
/// **Eviction policy: least-recently-used.** Every lookup and insert
/// stamps the entry with a monotonically increasing tick; when an insert
/// would exceed the capacity (default 128 plans; see
/// [`PlanCache::with_capacity`]) the entry with the smallest tick is
/// dropped and counted in [`PlanCacheStats::evictions`]. Entries whose
/// guarded data properties change are removed eagerly and counted in
/// [`PlanCacheStats::invalidations`].
///
/// **Concurrency.** The table is striped: entries hash to one of up to
/// eight independently locked stripes, counters are atomics,
/// and each operation locks exactly one stripe — concurrent workers
/// probing different shapes never serialize on each other. Capacity is
/// enforced per stripe (each stripe gets an equal share), so under
/// striping LRU is exact within a stripe and approximate globally;
/// caches smaller than two entries per stripe use a single stripe and
/// keep the globally exact order. Shareable behind an [`Arc`] across
/// engine instances — and across catalog mutations, which is the point:
/// rebuild the borrowing engine, keep the warmth.
#[derive(Debug)]
pub struct PlanCache {
    stripes: Vec<Mutex<CacheStripe>>,
    /// The hot tier: one `AtomicPtr<HotEntry>` per slot (null = empty),
    /// probed before any stripe lock. Entries are only written under the
    /// graveyard mutex and never freed while the cache lives, so readers
    /// dereference the loaded pointer without any synchronization.
    hot: [AtomicPtr<HotEntry>; HOT_SLOTS],
    retired: Mutex<Graveyard>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    reg_patches: AtomicU64,
    reg_rebinds: AtomicU64,
    hot_hits: AtomicU64,
    hot_promotions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// A cache with the default capacity of 128 plans.
    pub fn new() -> Self {
        Self::with_capacity(128)
    }

    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let stripes = if capacity >= 2 * CACHE_STRIPES {
            CACHE_STRIPES
        } else {
            1
        };
        let (base, extra) = (capacity / stripes, capacity % stripes);
        Self {
            stripes: (0..stripes)
                .map(|i| {
                    Mutex::new(CacheStripe {
                        entries: Vec::new(),
                        capacity: base + usize::from(i < extra),
                    })
                })
                .collect(),
            hot: [const { AtomicPtr::new(std::ptr::null_mut()) }; HOT_SLOTS],
            retired: Mutex::new(Graveyard::default()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            reg_patches: AtomicU64::new(0),
            reg_rebinds: AtomicU64::new(0),
            hot_hits: AtomicU64::new(0),
            hot_promotions: AtomicU64::new(0),
        }
    }

    /// Snapshot of the cumulative counters and current size.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            reg_patches: self.reg_patches.load(Ordering::Relaxed),
            reg_rebinds: self.reg_rebinds.load(Ordering::Relaxed),
            hot_hits: self.hot_hits.load(Ordering::Relaxed),
            hot_promotions: self.hot_promotions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.stripes.iter().map(|s| self.lock(s).capacity).sum(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| self.lock(s).entries.len())
            .sum()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry, hot tier included (counters are kept).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            self.lock(stripe).entries.clear();
        }
        let mut retired = self.lock_retired();
        for slot in &self.hot {
            let old = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !old.is_null() {
                retired.0.push(old);
            }
        }
    }

    fn lock<'a>(&self, stripe: &'a Mutex<CacheStripe>) -> std::sync::MutexGuard<'a, CacheStripe> {
        stripe.lock().expect("plan cache stripe lock")
    }

    fn lock_retired(&self) -> std::sync::MutexGuard<'_, Graveyard> {
        self.retired.lock().expect("hot graveyard lock")
    }

    /// The hot slot `(tag, hash)` maps to (same folding as the stripes).
    fn hot_slot(&self, tag: u8, hash: u64) -> &AtomicPtr<HotEntry> {
        let mix = hash ^ (hash >> 32) ^ u64::from(tag);
        &self.hot[(mix as usize) % HOT_SLOTS]
    }

    /// Installs (or refreshes) `(tag, hash)` in its hot slot. The old
    /// resident is retired, never freed in place — a reader may still
    /// hold it. Promotion is skipped when the graveyard is full.
    fn promote(&self, tag: u8, hash: u64, plan: &Arc<CachedPlan>, versions: &[u64]) {
        if versions.len() > HOT_MAX_TERMS {
            return;
        }
        let slot = self.hot_slot(tag, hash);
        let mut retired = self.lock_retired();
        let incumbent = slot.load(Ordering::Acquire);
        if !incumbent.is_null() && retired.0.len() >= HOT_RETIRED_CAP {
            return;
        }
        let entry = Box::new(HotEntry {
            tag,
            hash,
            plan: plan.clone(),
            nterms: versions.len(),
            versions: [const { AtomicU64::new(0) }; HOT_MAX_TERMS],
        });
        for (cell, &v) in entry.versions.iter().zip(versions) {
            cell.store(v, Ordering::Release);
        }
        let old = slot.swap(Box::into_raw(entry), Ordering::AcqRel);
        if !old.is_null() {
            retired.0.push(old);
        }
        self.hot_promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops `(tag, hash)` from the hot tier if resident (stale guards,
    /// or an explicit invalidation).
    fn demote(&self, tag: u8, hash: u64) {
        let slot = self.hot_slot(tag, hash);
        let mut retired = self.lock_retired();
        let ptr = slot.load(Ordering::Acquire);
        if ptr.is_null() {
            return;
        }
        // Safety: see `probe` — live until cache drop.
        let entry = unsafe { &*ptr };
        if entry.tag == tag && entry.hash == hash {
            let old = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !old.is_null() {
                retired.0.push(old);
            }
        }
    }

    /// The stripe `(tag, hash)` lives in: the fingerprint's high bits
    /// folded over the low ones (the low bits alone correlate with the
    /// shapes' shared hashing prefix), salted with the statistic tag.
    fn stripe_of(&self, tag: u8, hash: u64) -> &Mutex<CacheStripe> {
        let mix = hash ^ (hash >> 32) ^ u64::from(tag);
        &self.stripes[(mix as usize) % self.stripes.len()]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The entry under `(tag, hash)` whose plan passes `matches` (the
    /// caller's full shape verification), with its recorded data
    /// versions. The lock-free hot tier is probed first: one atomic load,
    /// a key compare and per-term atomic version loads, no stripe lock.
    /// Otherwise the striped entry is LRU-bumped and, every
    /// [`HOT_PROMOTE_HITS`]th probe, promoted into the hot tier (after
    /// the stripe lock is released). Callers count the hit
    /// ([`PlanCache::record_hit`]) or miss, and route stale entries
    /// through [`PlanCache::invalidate`].
    pub(crate) fn probe(
        &self,
        tag: u8,
        hash: u64,
        matches: impl Fn(&CachedPlan) -> bool,
    ) -> Option<Probe> {
        let ptr = self.hot_slot(tag, hash).load(Ordering::Acquire);
        if !ptr.is_null() {
            // Safety: hot entries are never deallocated while the cache
            // is alive (replaced ones go to the graveyard, freed only in
            // `Drop`), and every caller borrows the cache.
            let entry = unsafe { &*ptr };
            if entry.tag == tag && entry.hash == hash && matches(&entry.plan) {
                return Some(Probe {
                    plan: entry.plan.clone(),
                    versions: entry.versions[..entry.nterms]
                        .iter()
                        .map(|v| v.load(Ordering::Acquire))
                        .collect(),
                    hot: true,
                });
            }
        }
        let tick = self.next_tick();
        let (plan, versions, promote) = {
            let mut stripe = self.lock(self.stripe_of(tag, hash));
            let entry = stripe
                .entries
                .iter_mut()
                .find(|e| e.tag == tag && e.hash == hash)?;
            entry.last_used = tick;
            entry.hits += 1;
            let promote = entry.hits % HOT_PROMOTE_HITS == 0;
            (entry.plan.clone(), entry.versions.clone(), promote)
        };
        if promote {
            self.promote(tag, hash, &plan, &versions);
        }
        matches(&plan).then_some(Probe {
            plan,
            versions,
            hot: false,
        })
    }

    /// Counts one warm hit; `hot` hits are also counted in
    /// [`PlanCacheStats::hot_hits`].
    pub(crate) fn record_hit(&self, hot: bool) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if hot {
            self.hot_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one warm execution's register maintenance (see
    /// [`PlanCacheStats::reg_patches`] / [`PlanCacheStats::reg_rebinds`]).
    pub(crate) fn record_reg_maintenance(&self, patched: u64, rebound: u64) {
        if patched > 0 {
            self.reg_patches.fetch_add(patched, Ordering::Relaxed);
        }
        if rebound > 0 {
            self.reg_rebinds.fetch_add(rebound, Ordering::Relaxed);
        }
    }

    /// Removes a stale entry (guards or schema changed), hot tier
    /// included.
    pub(crate) fn invalidate(&self, tag: u8, hash: u64) {
        let removed = {
            let mut stripe = self.lock(self.stripe_of(tag, hash));
            let before = stripe.entries.len();
            stripe.entries.retain(|e| !(e.tag == tag && e.hash == hash));
            stripe.entries.len() < before
        };
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        self.demote(tag, hash);
    }

    /// Updates the recorded data versions after the guards re-validated,
    /// so the next unchanged-data hit skips them again. A hot-tier
    /// resident has its inline stamps refreshed in place.
    pub(crate) fn refresh_versions(&self, tag: u8, hash: u64, versions: &[u64]) {
        {
            let mut stripe = self.lock(self.stripe_of(tag, hash));
            if let Some(e) = stripe
                .entries
                .iter_mut()
                .find(|e| e.tag == tag && e.hash == hash)
            {
                e.versions.clear();
                e.versions.extend_from_slice(versions);
            }
        }
        let ptr = self.hot_slot(tag, hash).load(Ordering::Acquire);
        if !ptr.is_null() {
            // Safety: see `probe` — live until cache drop.
            let entry = unsafe { &*ptr };
            if entry.tag == tag && entry.hash == hash && entry.nterms == versions.len() {
                for (cell, &v) in entry.versions.iter().zip(versions) {
                    cell.store(v, Ordering::Release);
                }
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting the stripe's least
    /// recently used one when the stripe is full.
    pub(crate) fn insert(&self, tag: u8, hash: u64, plan: Arc<CachedPlan>, versions: Vec<u64>) {
        let tick = self.next_tick();
        let mut stripe = self.lock(self.stripe_of(tag, hash));
        if let Some(e) = stripe
            .entries
            .iter_mut()
            .find(|e| e.tag == tag && e.hash == hash)
        {
            e.plan = plan;
            e.versions = versions;
            e.last_used = tick;
            return;
        }
        if stripe.entries.len() >= stripe.capacity {
            if let Some(oldest) = stripe
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                stripe.entries.swap_remove(oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        stripe.entries.push(Entry {
            tag,
            hash,
            plan,
            versions,
            last_used: tick,
            hits: 0,
        });
    }
}

impl Drop for PlanCache {
    fn drop(&mut self) {
        // Exclusive access: no reader can hold a hot pointer anymore, so
        // the slots and the graveyard can finally be freed.
        for slot in &self.hot {
            let ptr = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !ptr.is_null() {
                // Safety: created by `Box::into_raw` in `promote`,
                // removed from the slot above, never freed before.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
        let mut retired = self.lock_retired();
        for ptr in retired.0.drain(..) {
            // Safety: retired pointers left every slot when they were
            // replaced and are owned solely by the graveyard.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}
