//! The safe-plan bytecode VM: flat programs over columnar registers.
//!
//! [`super::compile`] lowers a classified safe plan (including
//! dissociation `Copy` nodes and the transformed-mass leaves of both
//! oblivious bounds) into a [`Program`] — a flat `Vec` of ops — that this
//! module executes directly against the current column data. The op set:
//!
//! * [`Op::Leaf`] — the per-block complement product
//!   `1 - ∏_blocks (1 - t(mass))` over one term's current register
//!   window, where `t` is the leaf's [`Transform`]: identity for exact
//!   plans, `m^(1/k)` ([`Transform::ConjRoot`]) for the conjunctive
//!   alias upper bound, `1 - (1-m)^(1/d)` ([`Transform::DisjRoot`], `d`
//!   read from the term's runtime replication register) for the
//!   disjunctive lower bound.
//! * [`Op::Partition`] — the key-partition fold
//!   `1 - ∏_values (1 - ∏_subcomponents p)`: a k-way sorted-run merge
//!   over the binding terms' pre-sorted key registers that narrows each
//!   binding term's window to its value run and runs the embedded
//!   subcomponent product (the body) per common key value. Dissociated
//!   `Copy` terms keep their full windows and accumulate the branch
//!   count into their replication registers. The body embeds two
//!   peephole results: loop-invariant steps ([`BodyStep::Hoisted`],
//!   subcomponents containing only copied terms) are evaluated once per
//!   fold instead of per branch, and an all-leaf body is fused into an
//!   inline `(term, transform)` list with no op dispatch per branch.
//! * The expected-count mass join ([`CountProgram`]) — set-at-a-time
//!   already; it executes through the same deterministic kernels
//!   (`exact::mass_tables`, `exact::run_mass_join_tables`) as the
//!   interpreter's `exact::run_mass_join`, which is what makes the two
//!   paths bit-identical by construction.
//!
//! **Registers.** [`bind_program`] is the per-data half of compilation:
//! it gathers each term's live rows into columnar registers — key
//! columns for every partition level on the term's path, plus per-block
//! probability masses — sorted once, lexicographically by the term's
//! root-to-leaf key path with original row order breaking ties, then
//! collapsed to block granularity (every live row of a block shares its
//! path keys, so blocks are contiguous after the sort). That single
//! pre-sort replaces the interpreter's per-recursion-level hash
//! partitioning: every partition branch becomes a contiguous window
//! `[c0, c1) × [a0, a1)` and the recursion only moves window bounds.
//! Because ties keep original row order, block masses accumulate in the
//! interpreter's exact addition sequence, and the interpreter iterates
//! key values in ascending order, the VM performs *exactly* the
//! interpreter's floating-point operations and reproduces its results
//! bit for bit. Registers are owned and data-addressed, so the plan
//! cache memoizes them next to version stamps — an unchanged-data warm
//! hit skips the gather entirely.
//!
//! **Sharded execution.** The root partition fold is independent across
//! key values, so [`run_prebound_sharded`] splits the sorted key domain
//! into contiguous value ranges ([`shard_ranges`]), evaluates each range
//! on the rayon pool, and merges in range order. Each shard returns its
//! per-value *complement factors* `1 - p_v` in ascending value order —
//! not a partial product — and the merge multiplies the concatenated
//! factor sequence left to right. That sequence is exactly the sequence
//! the sequential fold multiplies, so the result is **bit-identical to
//! the sequential VM (and therefore the interpreter) at every thread
//! and shard count**: floating-point non-associativity never enters,
//! because the multiplication order never changes. Dissociated folds
//! need one extra pass — the branch count `d` feeding the lower bound's
//! replication registers is counted per shard and summed in shard order
//! (exact: counts are small integers) before any factor is computed, so
//! every shard sees the same global `d` the sequential fold would.
//!
//! **Incremental maintenance.** [`patch_term`] rebuilds only the dirty
//! key ranges of a memoized register set after an upsert: the store's
//! per-shard version stamps ([`crate::ProbDb::shard_versions`]) prove
//! which leading-key ranges changed, the stale runs are re-gathered and
//! re-sorted, and the clean runs are spliced over from the old registers
//! unchanged. Because the level-0 key is the pre-sort's primary key and
//! equal stamps imply identical shard contents, the splice reproduces a
//! fresh [`bind_program`] bit for bit.

use super::classify::CompiledTerm;
use super::exact::MassStep;
use mrsl_util::FxHashMap;

/// Per-block mass transform applied by [`Op::Leaf`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Transform {
    /// The exact mass (safe plans, and the un-transformed side of each
    /// bound).
    Identity,
    /// `m^(1/k)` — the conjunctive upper bound for `k > 1` aliased
    /// copies; `k` is a compile-time constant of the shape.
    ConjRoot {
        /// Alias multiplicity of the term's relation.
        k: f64,
    },
    /// `1 - (1-m)^(1/d)` — the disjunctive lower bound for branch
    /// replicas; `d` is the term's runtime replication register (the
    /// transform is the identity while it stays at 1).
    DisjRoot,
}

/// One factor of a partition body, in subcomponent order. The order is
/// load-bearing: the interpreter multiplies subcomponents left to right
/// with a zero early-exit, and the VM must reproduce that exact sequence
/// of floating-point multiplications.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BodyStep {
    /// Evaluate the op per branch.
    Eval(u32),
    /// Loop-invariant op (only copied terms below it): evaluated once per
    /// fold, multiplied in place per branch.
    Hoisted(u32),
}

/// One bytecode op. See the module docs for semantics.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// `1 - ∏_blocks (1 - transform(mass))` over the term's window.
    Leaf {
        /// Term register set the leaf reads.
        term: u32,
        /// Per-block mass transform.
        transform: Transform,
    },
    /// Key-partition fold over the binding terms' sorted key registers.
    Partition {
        /// `(term, level)` pairs: which terms bind the key, and at which
        /// position of their sort path this class sits.
        binding: Vec<(u32, u32)>,
        /// Terms replicated unchanged into every branch; their
        /// replication registers accumulate the branch count.
        copied: Vec<u32>,
        /// Per-branch factors in subcomponent order.
        body: Vec<BodyStep>,
        /// Peephole: when every body step is an un-hoisted leaf, the
        /// inlined `(term, transform, memoizable)` list evaluated without
        /// dispatch. A leaf is memoizable when this partition is the
        /// term's *first* binding level: its outer window is then the
        /// full register for the whole fold, so the leaf value depends
        /// only on the key value (and the term's current replication
        /// register) and can be reused across enclosing branches.
        fused: Option<Vec<(u32, Transform, bool)>>,
    },
}

/// A compiled boolean-probability (or single-bound) program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Program {
    /// Flat op pool; ops reference each other by index.
    pub ops: Vec<Op>,
    /// Top-level connected components, multiplied without early exit
    /// (matching the interpreter's top loop).
    pub roots: Vec<u32>,
    /// Per-term sort path: the partition classes that narrow this term,
    /// root to leaf. Drives the bind-time pre-sort.
    pub paths: Vec<Vec<usize>>,
}

/// Upper/lower program pair of one dissociation candidate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BoundsProgram {
    pub upper: Program,
    pub lower: Program,
}

/// The expected-count program: either the single-relation closed form or
/// the deterministic mass-join schedule.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CountProgram {
    /// `None`: one relation, no join classes — the closed form
    /// `exact::single_expected_count` applies.
    pub steps: Option<Vec<MassStep>>,
    /// Number of join classes (the mass-join assignment width).
    pub classes: usize,
}

/// One term's columnar registers, gathered and pre-sorted by
/// [`bind_program`]. Registers are owned columns, so callers may keep
/// them across executions (the plan cache stores them next to the data
/// version stamps they were gathered under).
#[derive(Debug)]
pub(crate) struct TermRegs {
    /// Key column per sort-path level, certain rows, sorted order.
    ckeys: Vec<Vec<u16>>,
    /// Key column per sort-path level, one entry per *block*, sorted
    /// order. Alternatives are collapsed to block granularity at bind
    /// time: every live row of a block shares its path keys, so blocks
    /// are contiguous after the sort and windows never split them.
    akeys: Vec<Vec<u16>>,
    /// Per-block probability mass, accumulated over the block's live
    /// alternatives in sorted-row order — the exact addition sequence the
    /// interpreter's leaf would perform, so downstream arithmetic stays
    /// bit-identical.
    amass: Vec<f64>,
    /// Number of live certain rows.
    clen: u32,
    /// Number of blocks with live alternatives.
    alen: u32,
}

/// Gathers and pre-sorts every term's live rows into columnar registers
/// (the per-execution half of compilation — the program itself is
/// data-free and cacheable).
pub(crate) fn bind_term(path: &[usize], ct: &CompiledTerm) -> TermRegs {
    let mut cert: Vec<u32> = ct.live_certain.iter_ones().map(|i| i as u32).collect();
    let mut alts: Vec<u32> = ct.live_alts.iter_ones().map(|i| i as u32).collect();
    let ccols: Vec<&[u16]> = path
        .iter()
        .map(|&c| ct.class_key(c).expect("sort path classes key the term").0)
        .collect();
    let acols: Vec<&[u16]> = path
        .iter()
        .map(|&c| ct.class_key(c).expect("sort path classes key the term").1)
        .collect();
    // LSD radix over the path levels: each pass is a stable counting sort,
    // so the final order is lexicographic by root-to-leaf key with the
    // initial ascending row order breaking ties. That tie-break is what
    // keeps blocks contiguous inside the deepest windows and the row
    // visit order identical to the interpreter's partition iteration.
    sort_by_path(&mut cert, &ccols);
    sort_by_path(&mut alts, &acols);
    let probs = ct.db.columns().alt_probs();
    // Collapse alternative rows to block runs: one key tuple and one
    // accumulated mass per block, visited in sorted-row order (identical
    // to the grouping the leaf op would otherwise do per execution).
    let mut heads: Vec<u32> = Vec::new();
    let mut amass: Vec<f64> = Vec::new();
    let mut i = 0;
    while i < alts.len() {
        let block = ct.alt_block[alts[i] as usize];
        heads.push(alts[i]);
        let mut mass = 0.0;
        while i < alts.len() && ct.alt_block[alts[i] as usize] == block {
            mass += probs[alts[i] as usize];
            i += 1;
        }
        amass.push(mass);
    }
    TermRegs {
        ckeys: ccols
            .iter()
            .map(|col| cert.iter().map(|&r| col[r as usize]).collect())
            .collect(),
        akeys: acols
            .iter()
            .map(|col| heads.iter().map(|&r| col[r as usize]).collect())
            .collect(),
        alen: amass.len() as u32,
        amass,
        clen: cert.len() as u32,
    }
}

/// Incrementally re-binds a term's registers after an upsert that only
/// touched the level-0 key ranges in `dirty` (sorted, disjoint,
/// ascending): the dirty rows are re-gathered and re-sorted exactly as
/// [`bind_term`] would, and the clean runs are spliced over from `old`
/// unchanged.
///
/// Bit-identity to a fresh [`bind_term`]: the level-0 key is the LSD
/// pre-sort's *primary* key, so a fresh bind's output is partitioned
/// into contiguous segments by level-0 key range, each segment being the
/// stable sort of exactly the rows in that range. Segments over clean
/// ranges are unchanged from `old` (equal shard stamps imply the
/// identical push sequence there), and segments over dirty ranges equal
/// the stable sort of the re-gathered rows — which is what this splice
/// assembles, range by ascending range.
pub(crate) fn patch_term(
    old: &TermRegs,
    path: &[usize],
    ct: &CompiledTerm,
    dirty: &[std::ops::Range<u32>],
) -> TermRegs {
    let ccols: Vec<&[u16]> = path
        .iter()
        .map(|&c| ct.class_key(c).expect("sort path classes key the term").0)
        .collect();
    let acols: Vec<&[u16]> = path
        .iter()
        .map(|&c| ct.class_key(c).expect("sort path classes key the term").1)
        .collect();
    let in_dirty = |v: u16| dirty.iter().any(|r| r.contains(&(v as u32)));
    // Re-gather only the live rows whose leading key landed in a dirty
    // range; the sort and block collapse mirror `bind_term` exactly.
    let mut cert: Vec<u32> = ct
        .live_certain
        .iter_ones()
        .map(|i| i as u32)
        .filter(|&r| in_dirty(ccols[0][r as usize]))
        .collect();
    let mut alts: Vec<u32> = ct
        .live_alts
        .iter_ones()
        .map(|i| i as u32)
        .filter(|&r| in_dirty(acols[0][r as usize]))
        .collect();
    sort_by_path(&mut cert, &ccols);
    sort_by_path(&mut alts, &acols);
    let probs = ct.db.columns().alt_probs();
    let mut heads: Vec<u32> = Vec::new();
    let mut hmass: Vec<f64> = Vec::new();
    let mut i = 0;
    while i < alts.len() {
        let block = ct.alt_block[alts[i] as usize];
        heads.push(alts[i]);
        let mut mass = 0.0;
        while i < alts.len() && ct.alt_block[alts[i] as usize] == block {
            mass += probs[alts[i] as usize];
            i += 1;
        }
        hmass.push(mass);
    }
    // Splice: for each dirty range, copy the preceding clean segment
    // from the old registers, then append the re-gathered runs of the
    // range; finish with the clean tail.
    let levels = path.len();
    let mut ckeys: Vec<Vec<u16>> = vec![Vec::new(); levels];
    let mut akeys: Vec<Vec<u16>> = vec![Vec::new(); levels];
    let mut amass: Vec<f64> = Vec::new();
    let (mut oc, mut oa) = (0u32, 0u32); // old-register cursors
    let (mut nc, mut na) = (0usize, 0usize); // re-gathered cursors
    let old_ck0 = &old.ckeys[0];
    let old_ak0 = &old.akeys[0];
    for range in dirty {
        let cs = seek(old_ck0, range.start).max(oc);
        let as_ = seek(old_ak0, range.start).max(oa);
        for lvl in 0..levels {
            ckeys[lvl].extend_from_slice(&old.ckeys[lvl][oc as usize..cs as usize]);
            akeys[lvl].extend_from_slice(&old.akeys[lvl][oa as usize..as_ as usize]);
        }
        amass.extend_from_slice(&old.amass[oa as usize..as_ as usize]);
        oc = seek(old_ck0, range.end).max(cs);
        oa = seek(old_ak0, range.end).max(as_);
        while nc < cert.len() && (ccols[0][cert[nc] as usize] as u32) < range.end {
            for lvl in 0..levels {
                ckeys[lvl].push(ccols[lvl][cert[nc] as usize]);
            }
            nc += 1;
        }
        while na < heads.len() && (acols[0][heads[na] as usize] as u32) < range.end {
            for lvl in 0..levels {
                akeys[lvl].push(acols[lvl][heads[na] as usize]);
            }
            amass.push(hmass[na]);
            na += 1;
        }
    }
    for lvl in 0..levels {
        ckeys[lvl].extend_from_slice(&old.ckeys[lvl][oc as usize..]);
        akeys[lvl].extend_from_slice(&old.akeys[lvl][oa as usize..]);
    }
    amass.extend_from_slice(&old.amass[oa as usize..]);
    debug_assert_eq!(
        ckeys[0].len(),
        ct.live_certain.count_ones(),
        "patched certain registers cover every live row"
    );
    debug_assert_eq!((nc, na), (cert.len(), heads.len()));
    TermRegs {
        clen: ckeys[0].len() as u32,
        alen: amass.len() as u32,
        ckeys,
        akeys,
        amass,
    }
}

/// Stable LSD counting sort of `rows` by the key columns, last level
/// first. Dictionary-encoded keys are dense small `u16`s, so counting
/// beats a comparator sort's per-comparison column indirection; per-pass
/// stability makes earlier levels dominate and keeps ties in the
/// incoming order.
fn sort_by_path(rows: &mut Vec<u32>, cols: &[&[u16]]) {
    let mut scratch = vec![0u32; rows.len()];
    for col in cols.iter().rev() {
        let max = rows.iter().map(|&r| col[r as usize]).max().unwrap_or(0) as usize;
        let mut starts = vec![0u32; max + 2];
        for &r in rows.iter() {
            starts[col[r as usize] as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        for &r in rows.iter() {
            let k = col[r as usize] as usize;
            scratch[starts[k] as usize] = r;
            starts[k] += 1;
        }
        std::mem::swap(rows, &mut scratch);
    }
}

/// Gathers and pre-sorts every term's registers for one program — the
/// per-data half of compilation, reusable across executions while the
/// underlying data versions are unchanged.
pub(crate) fn bind_program(program: &Program, compiled: &[CompiledTerm]) -> Vec<TermRegs> {
    program
        .paths
        .iter()
        .zip(compiled)
        .map(|(path, ct)| bind_term(path, ct))
        .collect()
}

/// Runs a boolean program against registers bound earlier (and still
/// valid for the current data).
pub(crate) fn run_prebound(program: &Program, regs: &[TermRegs]) -> f64 {
    let mut ex = Exec::new(program, regs);
    let mut p = 1.0;
    for &root in &program.roots {
        p *= ex.eval(root);
    }
    p
}

/// Default shard count when the engine auto-configures sharding
/// (`QueryEngineConfig::shards == 0` on a multi-threaded pool). Matches
/// [`crate::column::SHARD_COUNT`] so register patching and parallel
/// execution partition the key domain the same way, but the two are
/// independent knobs: any shard count produces bit-identical answers.
pub(crate) const DEFAULT_SHARDS: usize = 16;

/// Minimum binding rows before an *auto-configured* fold bothers
/// sharding; explicitly requested shard counts ignore it. Purely an
/// overhead threshold — results are identical either way.
const AUTO_SHARD_MIN_ROWS: u32 = 4096;

/// Resolves a configured shard count for a fold over `rows` rows. `0`
/// means "auto": stay sequential unless the fold is at least
/// [`AUTO_SHARD_MIN_ROWS`] rows, the current rayon pool has more than
/// one thread, *and* the host actually has more than one core —
/// otherwise shard to [`DEFAULT_SHARDS`]. The size gate applies
/// regardless of pool size: below the threshold the fan-out/merge
/// overhead dwarfs the fold itself (sub-threshold warm folds measured
/// ~300× slower when force-sharded onto an 8-thread pool of a 1-core
/// host), so auto mode never pays it. A nonzero count is honored as-is
/// (even on one thread), which is what lets tests and benches force the
/// sharded path deterministically. Purely a scheduling decision —
/// results are bit-identical at every shard count.
pub(crate) fn effective_shards(requested: usize, rows: u32) -> usize {
    match requested {
        0 => {
            let host = std::thread::available_parallelism().map_or(1, usize::from);
            if rows < AUTO_SHARD_MIN_ROWS || rayon::current_num_threads() <= 1 || host <= 1 {
                1
            } else {
                DEFAULT_SHARDS
            }
        }
        n => n,
    }
}

/// [`run_prebound`], with each root partition fold sharded across the
/// rayon pool. Bit-identical to the sequential path at every thread and
/// shard count — see the module docs for the argument — because shards
/// return per-value complement factors that are merged in value order,
/// reproducing the sequential multiplication sequence exactly.
///
/// `shards` is the raw configured count: `0` lets each root fold decide
/// per its own size via [`effective_shards`], `1` forces the sequential
/// path outright.
pub(crate) fn run_prebound_sharded(program: &Program, regs: &[TermRegs], shards: usize) -> f64 {
    if shards == 1 {
        return run_prebound(program, regs);
    }
    let mut p = 1.0;
    for &root in &program.roots {
        // A fresh `Exec` per root is bit-identical to the shared one in
        // `run_prebound`: windows, replication registers and memos carry
        // no state across root components.
        p *= eval_root_sharded(program, regs, root, shards);
    }
    p
}

/// Evaluates one root component, sharding its partition fold by key
/// range when the fold is large enough to split.
fn eval_root_sharded(program: &Program, regs: &[TermRegs], root: u32, requested: usize) -> f64 {
    let Op::Partition {
        binding,
        copied,
        body,
        fused,
    } = &program.ops[root as usize]
    else {
        return Exec::new(program, regs).eval(root);
    };
    let rows: u32 = binding
        .iter()
        .map(|&(t, _)| {
            let r = &regs[t as usize];
            r.clen + r.alen
        })
        .sum();
    let ranges = shard_ranges(binding, regs, effective_shards(requested, rows));
    if ranges.len() <= 1 {
        return Exec::new(program, regs).eval(root);
    }
    use rayon::prelude::*;
    // Dissociated folds replicate the global branch count d into every
    // copied term, so it must be known before any shard computes a
    // factor: count per shard, sum in shard order (exact — counts are
    // small integers, so the sum order cannot matter anyway).
    let d = if copied.is_empty() {
        0.0
    } else {
        ranges
            .par_iter()
            .map(|range| shard_exec(program, regs, binding, range).count_values(binding))
            .collect::<Vec<f64>>()
            .into_iter()
            .sum()
    };
    let chunks: Vec<Vec<f64>> = ranges
        .par_iter()
        .map(|range| {
            let mut ex = shard_exec(program, regs, binding, range);
            ex.partition_factors(root, binding, copied, body, fused.as_deref(), d)
        })
        .collect();
    // Merge: multiply the concatenated factor sequence left to right —
    // the exact sequence (and early exit) of the sequential fold.
    let mut none = 1.0;
    'merge: for chunk in &chunks {
        for &f in chunk {
            none *= f;
            if none == 0.0 {
                break 'merge;
            }
        }
    }
    1.0 - none
}

/// Splits the root fold's key domain into up to `shards` contiguous
/// value ranges with roughly balanced row counts, cutting at values
/// drawn from the largest binding term's sorted key register. The ranges
/// tile `[0, 65536)` in ascending order, so concatenating the per-range
/// value sequences reproduces the sequential fold's value order exactly.
#[allow(clippy::single_range_in_vec_init)] // ranges are shard intervals, not element sets
fn shard_ranges(
    binding: &[(u32, u32)],
    regs: &[TermRegs],
    shards: usize,
) -> Vec<std::ops::Range<u32>> {
    const DOMAIN_END: u32 = u16::MAX as u32 + 1;
    if shards <= 1 || binding.is_empty() {
        return vec![0..DOMAIN_END];
    }
    let &(t, lvl) = binding
        .iter()
        .max_by_key(|&&(t, _)| {
            let r = &regs[t as usize];
            r.clen + r.alen
        })
        .expect("binding is non-empty");
    let r = &regs[t as usize];
    let keys: &[u16] = if r.alen >= r.clen {
        &r.akeys[lvl as usize]
    } else {
        &r.ckeys[lvl as usize]
    };
    if keys.is_empty() {
        return vec![0..DOMAIN_END];
    }
    // Equidistant positions in the sorted key register give balanced
    // *rows* per range (not balanced value counts); duplicate cut values
    // collapse, so skewed keys degrade shard count, never correctness.
    let mut bounds: Vec<u32> = vec![0];
    for i in 1..shards {
        let v = keys[i * keys.len() / shards] as u32;
        if v > *bounds.last().expect("bounds start non-empty") {
            bounds.push(v);
        }
    }
    bounds.push(DOMAIN_END);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// An `Exec` whose binding-term windows are narrowed to `range` of the
/// level-0 key domain. All other terms (copied terms, separate subtrees)
/// keep their full windows, exactly as in the sequential fold.
fn shard_exec<'p>(
    program: &'p Program,
    regs: &'p [TermRegs],
    binding: &[(u32, u32)],
    range: &std::ops::Range<u32>,
) -> Exec<'p> {
    let mut ex = Exec::new(program, regs);
    for &(t, lvl) in binding {
        // Root partitions always bind at the first path level: compile
        // pushes the root class onto every bound term's path before
        // recursing into the body.
        debug_assert_eq!(lvl, 0, "root partitions bind at the first path level");
        let r = &regs[t as usize];
        let ck = &r.ckeys[lvl as usize];
        let ak = &r.akeys[lvl as usize];
        ex.win[t as usize] = [
            seek(ck, range.start),
            seek(ck, range.end),
            seek(ak, range.start),
            seek(ak, range.end),
        ];
    }
    ex
}

/// First position in the sorted key register whose key is `>= bound`
/// (`bound` ranges over `0..=65536`, one past the `u16` domain).
fn seek(keys: &[u16], bound: u32) -> u32 {
    keys.partition_point(|&k| (k as u32) < bound) as u32
}

/// First position in `[cur, end)` whose key is `>= v` (keys are sorted).
/// Binary search instead of stepping: partition merges over a copied
/// term re-walk its full window once per branch, and galloping turns
/// that from `O(rows)` into `O(log rows)` per branch.
fn skip_to(keys: &[u16], cur: u32, end: u32, v: u16) -> u32 {
    cur + keys[cur as usize..end as usize].partition_point(|&k| k < v) as u32
}

/// First position in `[cur, end)` past the run of keys `== v`.
fn past_run(keys: &[u16], cur: u32, end: u32, v: u16) -> u32 {
    cur + keys[cur as usize..end as usize].partition_point(|&k| k <= v) as u32
}

/// Execution state: windows and replication registers per term.
struct Exec<'p> {
    prog: &'p Program,
    regs: &'p [TermRegs],
    /// `[c0, c1, a0, a1)` — current certain/alternative window per term.
    win: Vec<[u32; 4]>,
    /// Replication multiplicity per term (the lower bound's runtime `d`).
    repl: Vec<f64>,
    /// Per-partition-op memo of fused invariant-window leaf values,
    /// keyed by `(term, key value, replication register bits)`. Reuses
    /// the exact `f64` computed on the first visit, so the downstream
    /// multiplication sequence is unchanged bit for bit.
    memo: Vec<FxHashMap<(u32, u16, u64), f64>>,
}

impl<'p> Exec<'p> {
    /// Fresh execution state: full windows, unit replication, empty memos.
    fn new(prog: &'p Program, regs: &'p [TermRegs]) -> Self {
        Exec {
            prog,
            win: regs.iter().map(|r| [0, r.clen, 0, r.alen]).collect(),
            repl: vec![1.0; regs.len()],
            memo: vec![FxHashMap::default(); prog.ops.len()],
            regs,
        }
    }

    fn eval(&mut self, op: u32) -> f64 {
        let prog = self.prog;
        match &prog.ops[op as usize] {
            Op::Leaf { term, transform } => self.leaf(*term, *transform),
            Op::Partition {
                binding,
                copied,
                body,
                fused,
            } => self.partition(op, binding, copied, body, fused.as_deref()),
        }
    }

    /// `1 - ∏_blocks (1 - t(mass))` over the term's current window; a
    /// certain row in the window decides it.
    fn leaf(&self, t: u32, tr: Transform) -> f64 {
        let r = &self.regs[t as usize];
        let [c0, c1, a0, a1] = self.win[t as usize];
        if c1 > c0 {
            return 1.0;
        }
        let repl = self.repl[t as usize];
        let mut none = 1.0;
        for &mass in &r.amass[a0 as usize..a1 as usize] {
            let m = mass.min(1.0);
            let tm = match tr {
                Transform::Identity => m,
                Transform::ConjRoot { k } => m.powf(1.0 / k),
                Transform::DisjRoot => {
                    if repl > 1.0 {
                        1.0 - (1.0 - m).powf(1.0 / repl)
                    } else {
                        m
                    }
                }
            };
            none *= (1.0 - tm).max(0.0);
        }
        1.0 - none
    }

    fn partition(
        &mut self,
        op: u32,
        binding: &[(u32, u32)],
        copied: &[u32],
        body: &[BodyStep],
        fused: Option<&[(u32, Transform, bool)]>,
    ) -> f64 {
        // Outer windows of the binding terms (restored on exit; the value
        // loop overwrites them with per-value runs).
        let outer: Vec<[u32; 4]> = binding.iter().map(|&(t, _)| self.win[t as usize]).collect();
        let mut cur: Vec<[u32; 2]> = outer.iter().map(|w| [w[0], w[2]]).collect();

        let saved_repl: Vec<f64> = copied.iter().map(|&t| self.repl[t as usize]).collect();
        if !copied.is_empty() {
            // The branch count d multiplies every copied term's
            // replication register, identically in all branches — so it
            // is applied once, before the value loop.
            let d = self.count_values(binding);
            for &t in copied {
                self.repl[t as usize] *= d;
            }
        }

        let mut hoist_vals: Vec<f64> = Vec::new();
        let mut first = true;
        let mut none = 1.0;
        while let Some(v) = self.next_value(binding, &outer, &mut cur) {
            self.narrow_to_run(binding, &outer, &mut cur, v);
            if first {
                self.hoist_body(body, &mut hoist_vals);
                first = false;
            }
            let p_v = self.branch_product(op, body, fused, &hoist_vals, v);
            none *= 1.0 - p_v;
            if none == 0.0 {
                break;
            }
        }

        for (i, &(t, _)) in binding.iter().enumerate() {
            self.win[t as usize] = outer[i];
        }
        for (i, &t) in copied.iter().enumerate() {
            self.repl[t as usize] = saved_repl[i];
        }
        1.0 - none
    }

    /// The partition fold's value loop, returning the per-value
    /// complement factors `1 - p_v` in ascending value order instead of
    /// folding them — the sharded executor's per-shard kernel. `d` is the
    /// *global* branch count (across all shards), precomputed by the
    /// caller. Windows and replication registers are not restored: the
    /// shard `Exec` is discarded after this call.
    fn partition_factors(
        &mut self,
        op: u32,
        binding: &[(u32, u32)],
        copied: &[u32],
        body: &[BodyStep],
        fused: Option<&[(u32, Transform, bool)]>,
        d: f64,
    ) -> Vec<f64> {
        let outer: Vec<[u32; 4]> = binding.iter().map(|&(t, _)| self.win[t as usize]).collect();
        let mut cur: Vec<[u32; 2]> = outer.iter().map(|w| [w[0], w[2]]).collect();
        for &t in copied {
            self.repl[t as usize] *= d;
        }
        let mut hoist_vals: Vec<f64> = Vec::new();
        let mut first = true;
        let mut out = Vec::new();
        while let Some(v) = self.next_value(binding, &outer, &mut cur) {
            self.narrow_to_run(binding, &outer, &mut cur, v);
            if first {
                self.hoist_body(body, &mut hoist_vals);
                first = false;
            }
            let p_v = self.branch_product(op, body, fused, &hoist_vals, v);
            out.push(1.0 - p_v);
            if p_v == 1.0 {
                // This factor is exactly 0.0, so the merged product is
                // 0.0 no matter what follows — the same early exit the
                // sequential fold takes when `none` first hits zero.
                break;
            }
        }
        out
    }

    /// Counts the distinct key values of the fold over the *current*
    /// windows (the branch count `d` of a dissociated fold). Read-only:
    /// iterates private cursors, windows stay untouched.
    fn count_values(&self, binding: &[(u32, u32)]) -> f64 {
        let outer: Vec<[u32; 4]> = binding.iter().map(|&(t, _)| self.win[t as usize]).collect();
        let mut cur: Vec<[u32; 2]> = outer.iter().map(|w| [w[0], w[2]]).collect();
        let mut d = 0.0;
        while let Some(v) = self.next_value(binding, &outer, &mut cur) {
            d += 1.0;
            for (i, &(t, lvl)) in binding.iter().enumerate() {
                let (ce, ae) = self.run_end(t, lvl, &outer[i], &cur[i], v);
                cur[i] = [ce, ae];
            }
        }
        d
    }

    /// Narrows every binding term's window to its `v` run and advances
    /// the merge cursors past it.
    fn narrow_to_run(
        &mut self,
        binding: &[(u32, u32)],
        outer: &[[u32; 4]],
        cur: &mut [[u32; 2]],
        v: u16,
    ) {
        for (i, &(t, lvl)) in binding.iter().enumerate() {
            let (ce, ae) = self.run_end(t, lvl, &outer[i], &cur[i], v);
            self.win[t as usize] = [cur[i][0], ce, cur[i][1], ae];
            cur[i] = [ce, ae];
        }
    }

    /// Evaluates the loop-invariant (hoisted) body steps once, in body
    /// order: copied-only subtrees see the same un-narrowed windows in
    /// every branch.
    fn hoist_body(&mut self, body: &[BodyStep], hoist_vals: &mut Vec<f64>) {
        for step in body {
            if let BodyStep::Hoisted(op) = step {
                hoist_vals.push(self.eval(*op));
            }
        }
    }

    /// One branch's subcomponent product `∏ p`, left to right with the
    /// interpreter's zero early-exit, through either the fused leaf list
    /// or the general body.
    fn branch_product(
        &mut self,
        op: u32,
        body: &[BodyStep],
        fused: Option<&[(u32, Transform, bool)]>,
        hoist_vals: &[f64],
        v: u16,
    ) -> f64 {
        let mut p_v = 1.0;
        if let Some(leaves) = fused {
            for &(t, tr, memoizable) in leaves {
                let p = if memoizable {
                    let key = (t, v, self.repl[t as usize].to_bits());
                    match self.memo[op as usize].get(&key) {
                        Some(&p) => p,
                        None => {
                            let p = self.leaf(t, tr);
                            self.memo[op as usize].insert(key, p);
                            p
                        }
                    }
                } else {
                    self.leaf(t, tr)
                };
                p_v *= p;
                if p_v == 0.0 {
                    break;
                }
            }
        } else {
            let mut hi = 0;
            for step in body {
                p_v *= match step {
                    BodyStep::Eval(op) => self.eval(*op),
                    BodyStep::Hoisted(_) => {
                        let x = hoist_vals[hi];
                        hi += 1;
                        x
                    }
                };
                if p_v == 0.0 {
                    break;
                }
            }
        }
        p_v
    }

    /// Advances the merge to the next key value present in *every*
    /// binding term (certain or alternative side), or `None` when any
    /// term is exhausted. Cursors are left at the start of each term's
    /// value run. Equivalent to the interpreter's sorted intersection of
    /// the per-term partition key sets.
    fn next_value(
        &self,
        binding: &[(u32, u32)],
        outer: &[[u32; 4]],
        cur: &mut [[u32; 2]],
    ) -> Option<u16> {
        let head = |cur: &[[u32; 2]], i: usize| -> Option<u16> {
            let (t, lvl) = binding[i];
            let r = &self.regs[t as usize];
            let c = (cur[i][0] < outer[i][1]).then(|| r.ckeys[lvl as usize][cur[i][0] as usize]);
            let a = (cur[i][1] < outer[i][3]).then(|| r.akeys[lvl as usize][cur[i][1] as usize]);
            match (c, a) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        };
        let mut v = head(cur, 0)?;
        for i in 1..binding.len() {
            v = v.max(head(cur, i)?);
        }
        loop {
            let mut stable = true;
            for i in 0..binding.len() {
                let (t, lvl) = binding[i];
                let r = &self.regs[t as usize];
                let ck = &r.ckeys[lvl as usize];
                let ak = &r.akeys[lvl as usize];
                cur[i][0] = skip_to(ck, cur[i][0], outer[i][1], v);
                cur[i][1] = skip_to(ak, cur[i][1], outer[i][3], v);
                let h = head(cur, i)?;
                if h > v {
                    v = h;
                    stable = false;
                }
            }
            if stable {
                return Some(v);
            }
        }
    }

    /// End of the `v` run starting at `cur` in term `t`'s level-`lvl` key
    /// registers, bounded by the outer window.
    fn run_end(&self, t: u32, lvl: u32, outer: &[u32; 4], cur: &[u32; 2], v: u16) -> (u32, u32) {
        let r = &self.regs[t as usize];
        let ck = &r.ckeys[lvl as usize];
        let ak = &r.akeys[lvl as usize];
        (
            past_run(ck, cur[0], outer[1], v),
            past_run(ak, cur[1], outer[3], v),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("test pool")
            .install(f)
    }

    #[test]
    fn auto_mode_keeps_small_folds_sequential_even_in_wide_pools() {
        // The regression this guards: auto mode used to shard any fold 16
        // ways as soon as the pool had >1 thread, which made warm
        // microsecond folds hundreds of times slower. The size gate must
        // hold at every pool width.
        for threads in [1, 2, 4, 8] {
            let eff = in_pool(threads, || effective_shards(0, AUTO_SHARD_MIN_ROWS - 1));
            assert_eq!(eff, 1, "small fold sharded in a {threads}-thread pool");
        }
    }

    #[test]
    fn forced_counts_are_honored_verbatim() {
        for threads in [1, 8] {
            assert_eq!(in_pool(threads, || effective_shards(1, 1_000_000)), 1);
            assert_eq!(in_pool(threads, || effective_shards(5, 10)), 5);
            assert_eq!(in_pool(threads, || effective_shards(16, 0)), 16);
        }
    }

    #[test]
    fn auto_mode_follows_pool_and_host_width_for_large_folds() {
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        // A single-thread pool never shards, whatever the host has.
        assert_eq!(in_pool(1, || effective_shards(0, u32::MAX)), 1);
        // A wide pool shards large folds only when the host can actually
        // run the shards in parallel.
        let expected = if host > 1 { DEFAULT_SHARDS } else { 1 };
        assert_eq!(in_pool(8, || effective_shards(0, u32::MAX)), expected);
    }
}
