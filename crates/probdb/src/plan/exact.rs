//! Exact extensional evaluation of safe (hierarchical) query plans.
//!
//! Three evaluators, all running on the columnar stores through the
//! compiled live-row bitmaps:
//!
//! * [`boolean_probability`] — `P(result non-empty)` by the safe-plan
//!   recursion: partition every relation of a connected component by the
//!   shared join key, treat key values as independent (sound because the
//!   classifier verified no block straddles keys — each block's mass lands
//!   in exactly one partition), recurse into the subcomponents the removed
//!   key leaves behind, and bottom out at single relations where
//!   `P(∃ match) = 1 - ∏_blocks (1 - p_block)`.
//! * [`expected_join_count`] — `E[|result|]` by linearity of expectation:
//!   every combination of one row per relation that satisfies the join
//!   contributes the product of its row probabilities (rows of different
//!   relations are always independent). This needs no hierarchy or key
//!   uniqueness, so it is exact for *every* join shape. The mass join
//!   behind it keeps keys strided: a [`MassTable`] holds one flat `u16`
//!   key array (one column per key position) and a parallel mass array,
//!   sorted by an LSD counting sort over the dictionary codes; each term's
//!   table is probed by binary search on the key prefix earlier terms
//!   bound, and the accumulator of class assignments uses the same
//!   layout. No step allocates per row.
//! * [`value_marginal`] — the selection-weighted histogram of one
//!   attribute over a single relation.
//!
//! The first two are the reference interpreter, reached only through
//! [`crate::testutil::interpreted`]: the engine answers both statistics
//! with compiled programs, whose expected counts run this module's mass
//! join kernels ([`mass_tables`], [`run_mass_join_tables`]) over memoized
//! tables.

use super::classify::{components, Class, CompiledTerm, Resolved};
use mrsl_relation::AttrId;
use mrsl_util::FxHashMap;

/// Live rows of one term inside the recursion: indices into the certain
/// and alternative column sets.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rows {
    pub(crate) certain: Vec<u32>,
    pub(crate) alts: Vec<u32>,
}

impl Rows {
    /// The initial live rows of every compiled term.
    pub(crate) fn live(compiled: &[CompiledTerm]) -> Vec<Rows> {
        compiled
            .iter()
            .map(|ct| Rows {
                certain: ct.live_certain.iter_ones().map(|i| i as u32).collect(),
                alts: ct.live_alts.iter_ones().map(|i| i as u32).collect(),
            })
            .collect()
    }
}

/// `P(query result is non-empty)` of a classified-safe query.
pub(crate) fn boolean_probability(resolved: &Resolved, compiled: &[CompiledTerm]) -> f64 {
    let all: Vec<usize> = (0..compiled.len()).collect();
    let active: Vec<usize> = (0..resolved.classes.len()).collect();
    let class_terms: Vec<Vec<usize>> = resolved.classes.iter().map(Class::terms).collect();
    let live = Rows::live(compiled);
    let rows: Vec<&Rows> = live.iter().collect();
    let mut p = 1.0;
    for comp in components(&class_terms, &all, &active) {
        p *= component_probability(resolved, compiled, &comp, &active, &rows);
    }
    p
}

fn component_probability(
    resolved: &Resolved,
    compiled: &[CompiledTerm],
    comp: &[usize],
    active: &[usize],
    rows: &[&Rows],
) -> f64 {
    if comp.len() == 1 {
        return leaf_probability(&compiled[comp[0]], rows[comp[0]]);
    }
    // Root class: covers every term of a connected hierarchical component
    // (guaranteed by classification).
    let root = *active
        .iter()
        .find(|&&c| {
            let terms = resolved.classes[c].terms();
            comp.iter().all(|t| terms.contains(t))
        })
        .expect("hierarchical connected component has a covering class");

    // Partition each term's live rows by the root-class key value.
    let mut parts: Vec<FxHashMap<u16, Rows>> = Vec::with_capacity(comp.len());
    for &t in comp {
        let (ckey, akey) = compiled[t].class_key(root).expect("root covers the term");
        let mut map: FxHashMap<u16, Rows> = FxHashMap::default();
        for &r in &rows[t].certain {
            map.entry(ckey[r as usize]).or_default().certain.push(r);
        }
        for &r in &rows[t].alts {
            map.entry(akey[r as usize]).or_default().alts.push(r);
        }
        parts.push(map);
    }

    // Candidate key values: present in every term of the component (a
    // value missing anywhere zeroes that branch). Iterate the smallest map
    // in sorted order for determinism.
    let probe = parts
        .iter()
        .enumerate()
        .min_by_key(|(_, m)| m.len())
        .map(|(i, _)| i)
        .expect("component is non-empty");
    let mut values: Vec<u16> = parts[probe].keys().copied().collect();
    values.sort_unstable();
    values.retain(|v| parts.iter().all(|m| m.contains_key(v)));

    let remaining: Vec<usize> = active.iter().copied().filter(|&c| c != root).collect();
    let class_terms: Vec<Vec<usize>> = resolved.classes.iter().map(Class::terms).collect();
    let subcomps = components(&class_terms, comp, &remaining);
    let mut none = 1.0; // P(no key value produces a result)
                        // One scratch view per recursion level, retargeted per key value —
                        // no per-branch `Rows` clones. Entries outside `comp` are never read
                        // by the subcomponent recursion.
    let mut branch_rows: Vec<&Rows> = rows.to_vec();
    for v in values {
        // Rows of this branch: the v-partitions. Branches over different
        // values touch disjoint blocks (no block straddles keys), so they
        // are independent.
        for (pi, &t) in comp.iter().enumerate() {
            branch_rows[t] = parts[pi].get(&v).expect("value present everywhere");
        }
        let mut p_v = 1.0;
        for sub in &subcomps {
            p_v *= component_probability(resolved, compiled, sub, &remaining, &branch_rows);
            if p_v == 0.0 {
                break;
            }
        }
        none *= 1.0 - p_v;
        if none == 0.0 {
            break;
        }
    }
    1.0 - none
}

/// `P(∃ live row)` of one relation: certain rows decide it; otherwise the
/// per-block masses are independent Bernoulli trials.
fn leaf_probability(ct: &CompiledTerm, rows: &Rows) -> f64 {
    leaf_probability_with(ct, rows, |mass| mass)
}

/// [`leaf_probability`] with a parameterized per-block mass: dissociation
/// evaluates the same leaves with transformed Bernoulli masses (e.g.
/// `m^(1/k)` for the conjunctive upper bound of `k` aliased copies,
/// `1 - (1-m)^(1/d)` for the disjunctive lower bound of `d` replicated
/// copies), so both bounds share the exact path's arithmetic.
pub(crate) fn leaf_probability_with(
    ct: &CompiledTerm,
    rows: &Rows,
    transform: impl Fn(f64) -> f64,
) -> f64 {
    if !rows.certain.is_empty() {
        return 1.0;
    }
    let probs = ct.db.columns().alt_probs();
    let mut none = 1.0;
    let mut i = 0;
    while i < rows.alts.len() {
        let block = ct.alt_block[rows.alts[i] as usize];
        let mut mass = 0.0;
        while i < rows.alts.len() && ct.alt_block[rows.alts[i] as usize] == block {
            mass += probs[rows.alts[i] as usize];
            i += 1;
        }
        none *= (1.0 - transform(mass.min(1.0))).max(0.0);
    }
    1.0 - none
}

/// `E[|result|]` of any conjunctive query shape, by joining per-relation
/// expected-mass tables over the join-class assignments.
pub(crate) fn expected_join_count(resolved: &Resolved, compiled: &[CompiledTerm]) -> f64 {
    run_mass_join(&count_steps(resolved), compiled, resolved.classes.len())
}

/// One fold step of the expected-count mass join ([`run_mass_join`]):
/// which key positions of `term` probe classes already bound by earlier
/// steps, and which bind fresh classes for the steps after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MassStep {
    /// Index into the compiled terms.
    pub(crate) term: usize,
    /// `(key position, class)` pairs bound by earlier steps — the probe.
    pub(crate) bound: Vec<(usize, usize)>,
    /// `(key position, class)` pairs this step binds.
    pub(crate) fresh: Vec<(usize, usize)>,
}

/// The fold schedule for [`run_mass_join`], derived purely from the
/// resolved shape (term order and per-term class keys) — it contains no
/// data, so the plan cache can store it.
pub(crate) fn count_steps(resolved: &Resolved) -> Vec<MassStep> {
    join_steps(
        resolved.classes.len(),
        resolved
            .terms
            .iter()
            .map(|term| term.class_attrs.iter().map(|&(ci, _)| ci)),
    )
}

/// The join schedule of terms keyed on the given classes (one class per
/// key position, in term order): each position either probes a class an
/// earlier term bound or binds it fresh. Shared by the expected-count
/// fold and the Monte-Carlo world count, whose hash join groups each
/// term's rows by exactly the positions listed in `bound`.
pub(crate) fn join_steps<T, C>(classes: usize, terms: T) -> Vec<MassStep>
where
    T: IntoIterator<Item = C>,
    C: IntoIterator<Item = usize>,
{
    let mut bound_classes = vec![false; classes];
    terms
        .into_iter()
        .enumerate()
        .map(|(t, term_classes)| {
            let mut bound = Vec::new();
            let mut fresh = Vec::new();
            for (pos, ci) in term_classes.into_iter().enumerate() {
                if bound_classes[ci] {
                    bound.push((pos, ci));
                } else {
                    fresh.push((pos, ci));
                    bound_classes[ci] = true;
                }
            }
            MassStep {
                term: t,
                bound,
                fresh,
            }
        })
        .collect()
}

/// Grouped expected masses under strided class keys: row `i`'s key is
/// `keys[i * width..(i + 1) * width]` and its mass is `mass[i]`. A step's
/// table (see [`grouped_term_mass`]) keys `bound ++ fresh` positions,
/// sorted lexicographically with equal keys merge-summed; the fold's
/// accumulator uses the same layout with one column per join class
/// (`u16::MAX` = not yet bound). Tables depend only on the step shape and
/// the term's live rows, so the plan cache memoizes them next to the
/// boolean registers.
#[derive(Debug)]
pub(crate) struct MassTable {
    width: usize,
    keys: Vec<u16>,
    mass: Vec<f64>,
}

impl MassTable {
    fn with_capacity(width: usize, rows: usize) -> Self {
        Self {
            width,
            keys: Vec::with_capacity(rows * width),
            mass: Vec::with_capacity(rows),
        }
    }

    fn len(&self) -> usize {
        self.mass.len()
    }

    /// Key of row `i`.
    fn key(&self, i: usize) -> &[u16] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.mass.clear();
    }

    /// Rows whose key starts with `prefix`, by binary search (the table is
    /// sorted).
    fn prefix_range(&self, prefix: &[u16]) -> std::ops::Range<usize> {
        let nb = prefix.len();
        let lo = partition_point(0, self.len(), |i| self.key(i)[..nb] < *prefix);
        let hi = partition_point(lo, self.len(), |i| self.key(i)[..nb] == *prefix);
        lo..hi
    }

    /// Stable-sorts the rows by key and merge-sums runs of equal keys in
    /// row order (the first row of a run starts the sum, later ones are
    /// added one by one). The sort is an LSD counting sort over the dense
    /// dictionary codes, one pass per column, as in the VM's
    /// `sort_by_path`; columns holding one value throughout (such as the
    /// accumulator's unbound classes) cannot reorder anything and are
    /// skipped.
    fn sort_and_merge(&mut self, scratch: &mut SortScratch) {
        let (n, w) = (self.len(), self.width);
        let SortScratch {
            order,
            spare,
            starts,
            keys,
            mass,
        } = scratch;
        order.clear();
        order.extend(0..u32::try_from(n).expect("row ids fit in u32"));
        spare.resize(n, 0);
        for c in (0..w).rev() {
            let column = || (0..n).map(|i| self.keys[i * w + c]);
            let lo = column().min().unwrap_or(0);
            let hi = column().max().unwrap_or(0);
            if lo == hi {
                continue;
            }
            starts.clear();
            starts.resize(usize::from(hi - lo) + 2, 0);
            for v in column() {
                starts[usize::from(v - lo) + 1] += 1;
            }
            for i in 1..starts.len() {
                starts[i] += starts[i - 1];
            }
            for &r in order.iter() {
                let k = usize::from(self.keys[r as usize * w + c] - lo);
                spare[starts[k] as usize] = r;
                starts[k] += 1;
            }
            std::mem::swap(order, spare);
        }
        keys.clear();
        mass.clear();
        for &r in order.iter() {
            let r = r as usize;
            let key = &self.keys[r * w..(r + 1) * w];
            match mass.last_mut() {
                Some(sum) if keys[keys.len() - w..] == *key => *sum += self.mass[r],
                _ => {
                    keys.extend_from_slice(key);
                    mass.push(self.mass[r]);
                }
            }
        }
        std::mem::swap(&mut self.keys, keys);
        std::mem::swap(&mut self.mass, mass);
    }
}

/// The first index in `lo..hi` where `pred` turns false (`pred` must hold
/// on a prefix of the range), like [`slice::partition_point`] over row
/// indices.
fn partition_point(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Reusable buffers of [`MassTable::sort_and_merge`]: the row permutation
/// and its counting-sort twin, the per-pass bucket starts, and the merged
/// output swapped into the table.
#[derive(Debug, Default)]
struct SortScratch {
    order: Vec<u32>,
    spare: Vec<u32>,
    starts: Vec<u32>,
    keys: Vec<u16>,
    mass: Vec<f64>,
}

/// Builds every step's grouped mass table, fanning the per-step group
/// sorts out over the rayon pool when `parallel` (tables are
/// independent; the shim collects in step order, so the output is
/// identical either way).
pub(crate) fn mass_tables(
    steps: &[MassStep],
    compiled: &[CompiledTerm],
    parallel: bool,
) -> Vec<MassTable> {
    if parallel && steps.len() > 1 {
        use rayon::prelude::*;
        steps
            .par_iter()
            .map(|step| grouped_term_mass(&compiled[step.term], step))
            .collect()
    } else {
        steps
            .iter()
            .map(|step| grouped_term_mass(&compiled[step.term], step))
            .collect()
    }
}

/// Deterministic expected-count fold: each step joins the accumulated
/// class assignments against its term's grouped mass table, probing only
/// the keys compatible with the already-bound classes (binary search on
/// the bound-key prefix) instead of an `assign × key` cross product.
/// Assignments and mass tables are kept sorted with equal keys merge-
/// summed, so the result is independent of hash iteration order; the
/// interpreter calls this kernel, and the bytecode VM calls its two
/// halves ([`mass_tables`], [`run_mass_join_tables`]), which makes their
/// expected counts bit-identical by construction.
pub(crate) fn run_mass_join(steps: &[MassStep], compiled: &[CompiledTerm], classes: usize) -> f64 {
    run_mass_join_tables(steps, &mass_tables(steps, compiled, false), classes, 1)
}

/// [`run_mass_join`] over prebuilt (possibly memoized) mass tables, with
/// the probe loop sharded across the rayon pool. `shards` is the raw
/// configured count: `0` lets each step decide per its accumulator size
/// via [`super::vm::effective_shards`], so small probe loops stay
/// sequential in auto mode.
///
/// Sharding is bit-identical to the sequential fold: the accumulator is
/// split into contiguous chunks, each chunk probes the (shared,
/// read-only) table independently, and the chunk outputs are
/// concatenated in chunk order — exactly the sequential push sequence.
/// The stable sort and run merge that follow therefore see the identical
/// input, and every weight flows through the identical additions and
/// multiplications.
///
/// The accumulator and its successor are two strided tables swapped per
/// step, so the sequential fold allocates nothing per row.
pub(crate) fn run_mass_join_tables(
    steps: &[MassStep],
    tables: &[MassTable],
    classes: usize,
    shards: usize,
) -> f64 {
    // Seed: the empty assignment (one column per class, all unbound).
    let mut acc = MassTable {
        width: classes,
        keys: vec![u16::MAX; classes],
        mass: vec![1.0],
    };
    let mut next = MassTable::with_capacity(classes, 0);
    let mut scratch = SortScratch::default();
    for (step, grouped) in steps.iter().zip(tables) {
        let rows = u32::try_from(acc.len()).unwrap_or(u32::MAX);
        let shards = super::vm::effective_shards(shards, rows);
        next.clear();
        if shards > 1 && acc.len() >= shards.max(2) {
            use rayon::prelude::*;
            let size = acc.len().div_ceil(shards);
            let starts: Vec<usize> = (0..acc.len()).step_by(size).collect();
            let parts: Vec<MassTable> = starts
                .into_par_iter()
                .map(|start| {
                    let mut part = MassTable::with_capacity(classes, 0);
                    probe_step(
                        step,
                        grouped,
                        &acc,
                        start..acc.len().min(start + size),
                        &mut part,
                    );
                    part
                })
                .collect();
            for part in parts {
                next.keys.extend_from_slice(&part.keys);
                next.mass.extend_from_slice(&part.mass);
            }
        } else {
            probe_step(step, grouped, &acc, 0..acc.len(), &mut next);
        }
        if next.len() == 0 {
            return 0.0;
        }
        next.sort_and_merge(&mut scratch);
        std::mem::swap(&mut acc, &mut next);
    }
    acc.mass.iter().sum()
}

/// Probes one step's grouped table with the accumulated assignments in
/// `rows`, in order, appending each match (the assignment with this
/// step's fresh classes filled in, weighted by `assignment × mass`) to
/// `out` — the sequential fold's inner loop, factored out so the sharded
/// fold can run it per chunk.
fn probe_step(
    step: &MassStep,
    grouped: &MassTable,
    acc: &MassTable,
    rows: std::ops::Range<usize>,
    out: &mut MassTable,
) {
    let nb = step.bound.len();
    let mut probe = vec![0u16; nb];
    for i in rows {
        let assign = acc.key(i);
        for (slot, &(_, ci)) in probe.iter_mut().zip(&step.bound) {
            *slot = assign[ci];
        }
        let w = acc.mass[i];
        for j in grouped.prefix_range(&probe) {
            let key = grouped.key(j);
            let start = out.keys.len();
            out.keys.extend_from_slice(assign);
            for (&(_, ci), &v) in step.fresh.iter().zip(&key[nb..]) {
                out.keys[start + ci] = v;
            }
            out.mass.push(w * grouped.mass[j]);
        }
    }
}

/// Expected mass of one step's term keyed by `bound ++ fresh` positions
/// (certain rows weigh 1, alternatives their probability), sorted
/// lexicographically with equal keys merge-summed in row order — so the
/// probe side is a binary search on the bound prefix.
pub(crate) fn grouped_term_mass(ct: &CompiledTerm, step: &MassStep) -> MassTable {
    let probs = ct.db.columns().alt_probs();
    let cols: Vec<(&[u16], &[u16])> = step
        .bound
        .iter()
        .chain(&step.fresh)
        .map(|&(pos, _)| (ct.keys[pos].1, ct.keys[pos].2))
        .collect();
    let rows = ct.live_certain.count_ones() + ct.live_alts.count_ones();
    let mut table = MassTable::with_capacity(cols.len(), rows);
    for r in ct.live_certain.iter_ones() {
        table.keys.extend(cols.iter().map(|&(c, _)| c[r]));
        table.mass.push(1.0);
    }
    for r in ct.live_alts.iter_ones() {
        table.keys.extend(cols.iter().map(|&(_, a)| a[r]));
        table.mass.push(probs[r]);
    }
    table.sort_and_merge(&mut SortScratch::default());
    table
}

/// `E[|result|]` of a single relation with no join classes: certain rows
/// count 1, blocks contribute their selection-restricted mass. Shared by
/// the interpreter path and the VM's count program so both are
/// bit-identical.
pub(crate) fn single_expected_count(ct: &CompiledTerm) -> f64 {
    ct.live_certain.count_ones() as f64
        + ct.db
            .columns()
            .block_probs(&ct.live_alts)
            .iter()
            .sum::<f64>()
}

/// Selection-weighted marginal distribution of `attr` over one relation:
/// live certain rows count 1, live alternatives their probability,
/// normalized over the matching mass. With the always-true selection this
/// equals [`crate::query::value_marginal`].
pub(crate) fn value_marginal(ct: &CompiledTerm, attr: AttrId) -> Vec<f64> {
    let cols = ct.db.columns();
    let card = ct.db.schema().cardinality(attr);
    let mut hist = vec![0.0f64; card];
    let ccol = cols.certain().col(attr);
    for r in ct.live_certain.iter_ones() {
        hist[ccol[r] as usize] += 1.0;
    }
    let acol = cols.alternatives().col(attr);
    let probs = cols.alt_probs();
    for r in ct.live_alts.iter_ones() {
        hist[acol[r] as usize] += probs[r];
    }
    let total: f64 = hist.iter().sum();
    if total > 0.0 {
        hist.iter_mut().for_each(|h| *h /= total);
    }
    hist
}

/// Join fixtures shared by the mass-join and world-count tests: seeded
/// random catalogs and queries, plus the wide shapes (many classes, or
/// many classes on one term) the random ones rarely reach.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::super::classify::{resolve, CompiledTerm, Resolved};
    use crate::algebra::Query;
    use crate::block::{Alternative, Block};
    use crate::catalog::Catalog;
    use crate::database::ProbDb;
    use crate::predicate::Predicate;
    use mrsl_relation::{AttrId, CompleteTuple, Schema, ValueId};
    use std::sync::Arc;

    /// Cheap deterministic pseudo-randomness from a seed.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % n
        }
    }

    /// Every relation shares one schema, so any attribute pair is a
    /// compatible join: `arity` attributes over `{v0, v1, v2}`.
    fn schema(arity: usize) -> Arc<Schema> {
        let mut builder = Schema::builder();
        for a in 0..arity {
            builder = builder.attribute(format!("a{a}"), ["v0", "v1", "v2"]);
        }
        builder.build().unwrap()
    }

    /// A relation of `certain` certain rows and `blocks` blocks of one to
    /// three distinct alternatives with random normalized weights.
    fn relation(rng: &mut Lcg, arity: usize, certain: usize, blocks: usize) -> ProbDb {
        let mut db = ProbDb::new(schema(arity));
        let row = |rng: &mut Lcg| -> Vec<u16> { (0..arity).map(|_| rng.below(3) as u16).collect() };
        for _ in 0..certain {
            db.push_certain(CompleteTuple::from_values(row(rng)))
                .unwrap();
        }
        for b in 0..blocks {
            let mut tuples: Vec<Vec<u16>> = Vec::new();
            for _ in 0..1 + rng.below(3) {
                let t = row(rng);
                if !tuples.contains(&t) {
                    tuples.push(t);
                }
            }
            let weights: Vec<f64> = tuples.iter().map(|_| 1.0 + rng.below(97) as f64).collect();
            let total: f64 = weights.iter().sum();
            let alts = tuples
                .into_iter()
                .zip(weights)
                .map(|(t, w)| Alternative {
                    tuple: CompleteTuple::from_values(t),
                    prob: w / total,
                })
                .collect();
            db.push_block(Block::new(b, alts).unwrap()).unwrap();
        }
        db
    }

    /// A random join of `terms` scans `t0, t1, …` over up to three
    /// three-attribute relations (so scans often alias one relation),
    /// each relation with `blocks` blocks. Scan `i > 0` joins a random
    /// earlier scan on one or two attribute pairs, and about half the
    /// scans carry a selection.
    pub(crate) fn random_join(seed: u64, terms: usize, blocks: usize) -> (Catalog, Query) {
        let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        let relations = 1 + rng.below(3);
        let mut catalog = Catalog::new();
        for r in 0..relations {
            let certain = rng.below(4);
            catalog
                .add(format!("r{r}"), relation(&mut rng, 3, certain, blocks))
                .unwrap();
        }
        let scan = |rng: &mut Lcg, i: usize| {
            let q = Query::scan_as(format!("r{}", rng.below(relations)), format!("t{i}"));
            if rng.below(2) == 0 {
                let attr = AttrId(rng.below(3) as u16);
                let skip = rng.below(3) as u16;
                q.filter(Predicate::is_in(
                    attr,
                    (0..3u16).filter(|&v| v != skip).map(ValueId),
                ))
            } else {
                q
            }
        };
        let mut query = scan(&mut rng, 0);
        for i in 1..terms {
            let left = format!("t{}", rng.below(i));
            let mut pairs = vec![(AttrId(rng.below(3) as u16), AttrId(rng.below(3) as u16))];
            if rng.below(2) == 0 {
                let extra = (AttrId(rng.below(3) as u16), AttrId(rng.below(3) as u16));
                if !pairs.contains(&extra) {
                    pairs.push(extra);
                }
            }
            let right = scan(&mut rng, i);
            query = query.join_on_rel(left, right, pairs);
        }
        (catalog, query)
    }

    /// `R0(a0, a1) ⨝ R1(a0, a1) ⨝ … ⨝ R{n-1}` chained on `Ri.a1 = R{i+1}.a0`:
    /// `n - 1` join classes, each relation two blocks of two alternatives
    /// plus one certain row (small enough for the brute-force oracle).
    pub(crate) fn chain(relations: usize, seed: u64) -> (Catalog, Query) {
        let mut rng = Lcg(seed);
        let mut catalog = Catalog::new();
        for r in 0..relations {
            let mut db = relation(&mut rng, 2, 1, 0);
            for b in 0..2 {
                let x = rng.below(3) as u16;
                let p = (1 + rng.below(9)) as f64 / 10.0;
                let alts = vec![
                    Alternative {
                        tuple: CompleteTuple::from_values(vec![x, rng.below(3) as u16]),
                        prob: p,
                    },
                    Alternative {
                        tuple: CompleteTuple::from_values(vec![(x + 1) % 3, rng.below(3) as u16]),
                        prob: 1.0 - p,
                    },
                ];
                db.push_block(Block::new(b, alts).unwrap()).unwrap();
            }
            catalog.add(format!("r{r}"), db).unwrap();
        }
        let mut query = Query::scan("r0");
        for r in 1..relations {
            query = query.join_on_rel(
                format!("r{}", r - 1),
                Query::scan(format!("r{r}")),
                [(AttrId(1), AttrId(0))],
            );
        }
        (catalog, query)
    }

    /// A star whose hub `h(a0, a1, a2)` keys on three classes, one per
    /// spoke `s0(a0) ⨝ h`, `s1(a0) ⨝ h` and `s2(a0) ⨝ h`.
    pub(crate) fn star(seed: u64) -> (Catalog, Query) {
        let mut rng = Lcg(seed);
        let mut catalog = Catalog::new();
        catalog.add("h", relation(&mut rng, 3, 2, 4)).unwrap();
        for s in 0..3 {
            catalog
                .add(format!("s{s}"), relation(&mut rng, 1, 1, 2))
                .unwrap();
        }
        let mut query = Query::scan("h");
        for s in 0..3u16 {
            query = query.join_on(Query::scan(format!("s{s}")), [(AttrId(s), AttrId(0))]);
        }
        (catalog, query)
    }

    /// Resolves and compiles `query`: the shape and its per-term live
    /// rows and key columns.
    pub(crate) fn compile<'a>(
        catalog: &'a Catalog,
        query: &Query,
    ) -> (Resolved<'a>, Vec<CompiledTerm<'a>>) {
        let flat = query.flatten().unwrap();
        let resolved = resolve(&flat, |name| catalog.get(name)).unwrap();
        let compiled = resolved
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| CompiledTerm::compile(i, t, &resolved.classes))
            .collect();
        (resolved, compiled)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{chain, compile, random_join, star};
    use super::*;
    use crate::algebra::Query;
    use crate::algebra::Statistic;
    use crate::catalog::Catalog;
    use crate::plan::{CatalogEngine, QueryAnswer, QueryEngineConfig};
    use crate::testutil::{interpreted, oracle_expected_count};

    /// The expected-count kernel as it was before strided keys: one heap
    /// `Vec<u16>` per key, comparison sorts, a merge that moves every
    /// pair. The parity tests hold the strided kernel to its tables and
    /// sums bit for bit.
    mod reference {
        use super::super::{CompiledTerm, MassStep};

        pub(super) type Table = Vec<(Vec<u16>, f64)>;

        pub(super) fn run_mass_join_tables(
            steps: &[MassStep],
            tables: &[Table],
            classes: usize,
            shards: usize,
        ) -> f64 {
            let mut acc: Table = vec![(vec![u16::MAX; classes], 1.0)];
            for (step, grouped) in steps.iter().zip(tables) {
                let rows = u32::try_from(acc.len()).unwrap_or(u32::MAX);
                let shards = super::super::super::vm::effective_shards(shards, rows);
                let mut next = if shards > 1 && acc.len() >= shards.max(2) {
                    use rayon::prelude::*;
                    let size = acc.len().div_ceil(shards);
                    let parts: Vec<Table> = acc
                        .chunks(size)
                        .collect::<Vec<_>>()
                        .into_par_iter()
                        .map(|chunk| probe_step(step, grouped, chunk))
                        .collect();
                    parts.into_iter().flatten().collect()
                } else {
                    probe_step(step, grouped, &acc)
                };
                if next.is_empty() {
                    return 0.0;
                }
                next.sort_by(|a, b| a.0.cmp(&b.0));
                acc = merge_runs(next);
            }
            acc.iter().map(|&(_, w)| w).sum()
        }

        fn probe_step(step: &MassStep, grouped: &Table, acc: &[(Vec<u16>, f64)]) -> Table {
            let nb = step.bound.len();
            let mut next: Table = Vec::new();
            let mut probe = vec![0u16; nb];
            for (assign, w) in acc {
                for (i, &(_, ci)) in step.bound.iter().enumerate() {
                    probe[i] = assign[ci];
                }
                let lo = grouped.partition_point(|(k, _)| k[..nb] < probe[..]);
                let hi = lo + grouped[lo..].partition_point(|(k, _)| k[..nb] == probe[..]);
                for (key, m) in &grouped[lo..hi] {
                    let mut merged = assign.clone();
                    for (i, &(_, ci)) in step.fresh.iter().enumerate() {
                        merged[ci] = key[nb + i];
                    }
                    next.push((merged, w * m));
                }
            }
            next
        }

        pub(super) fn grouped_term_mass(ct: &CompiledTerm, step: &MassStep) -> Table {
            let probs = ct.db.columns().alt_probs();
            let nk = step.bound.len() + step.fresh.len();
            let mut rows: Table = Vec::new();
            for r in ct.live_certain.iter_ones() {
                let mut key = Vec::with_capacity(nk);
                for &(pos, _) in step.bound.iter().chain(&step.fresh) {
                    key.push(ct.keys[pos].1[r]);
                }
                rows.push((key, 1.0));
            }
            for r in ct.live_alts.iter_ones() {
                let mut key = Vec::with_capacity(nk);
                for &(pos, _) in step.bound.iter().chain(&step.fresh) {
                    key.push(ct.keys[pos].2[r]);
                }
                rows.push((key, probs[r]));
            }
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            merge_runs(rows)
        }

        fn merge_runs(mut rows: Table) -> Table {
            let mut out: Table = Vec::with_capacity(rows.len());
            for (key, w) in rows.drain(..) {
                match out.last_mut() {
                    Some((k, acc)) if *k == key => *acc += w,
                    _ => out.push((key, w)),
                }
            }
            out
        }
    }

    /// A strided table as `(key, mass bits)` rows, for exact comparison.
    fn table_bits(table: &MassTable) -> Vec<(Vec<u16>, u64)> {
        (0..table.len())
            .map(|i| (table.key(i).to_vec(), table.mass[i].to_bits()))
            .collect()
    }

    /// Asserts that the strided kernel reproduces the reference's tables
    /// and its `E`, bit for bit, at shards 1 and 16 on 1-, 2- and
    /// 8-thread pools; returns `E`.
    fn assert_matches_reference(catalog: &Catalog, query: &Query) -> f64 {
        let (resolved, compiled) = compile(catalog, query);
        let steps = count_steps(&resolved);
        let classes = resolved.classes.len();
        let tables = mass_tables(&steps, &compiled, false);
        let expected: Vec<reference::Table> = steps
            .iter()
            .map(|step| reference::grouped_term_mass(&compiled[step.term], step))
            .collect();
        for (table, reference) in tables.iter().zip(&expected) {
            let reference: Vec<(Vec<u16>, u64)> = reference
                .iter()
                .map(|(k, m)| (k.clone(), m.to_bits()))
                .collect();
            assert_eq!(table_bits(table), reference);
        }
        let e = reference::run_mass_join_tables(&steps, &expected, classes, 1);
        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                // The parallel table build collects in step order.
                let tables = mass_tables(&steps, &compiled, true);
                for shards in [1, 16] {
                    let got = run_mass_join_tables(&steps, &tables, classes, shards);
                    let want = reference::run_mass_join_tables(&steps, &expected, classes, shards);
                    assert_eq!(want.to_bits(), e.to_bits(), "reference moved with shards");
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "E {got} vs reference {want} at {threads} threads x {shards} shards"
                    );
                }
            });
        }
        e
    }

    #[test]
    fn six_relation_chain_counts_match_the_oracle() {
        for seed in 0..4 {
            let (catalog, query) = chain(6, seed);
            let (resolved, _) = compile(&catalog, &query);
            assert_eq!(resolved.classes.len(), 5);
            let e = assert_matches_reference(&catalog, &query);
            let oracle = oracle_expected_count(&catalog, &query).unwrap();
            assert!(
                (e - oracle).abs() <= 1e-12 * oracle.max(1.0),
                "{e} vs oracle {oracle}"
            );
            let (served, _) = CatalogEngine::new(&catalog).expected_count(&query).unwrap();
            assert_eq!(served.to_bits(), e.to_bits());
            let reference = interpreted(
                &catalog,
                &query,
                Statistic::ExpectedCount,
                &QueryEngineConfig::default(),
            );
            let Ok((QueryAnswer::Count { mean, .. }, _)) = reference else {
                panic!("interpreter count expected: {reference:?}");
            };
            assert_eq!(mean.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn a_term_keyed_on_three_classes_matches_the_oracle() {
        for seed in 0..4 {
            let (catalog, query) = star(seed);
            let (resolved, _) = compile(&catalog, &query);
            assert_eq!(resolved.classes.len(), 3);
            assert_eq!(
                resolved.terms[0].class_attrs.len(),
                3,
                "the hub keys every class"
            );
            let e = assert_matches_reference(&catalog, &query);
            let oracle = oracle_expected_count(&catalog, &query).unwrap();
            assert!(
                (e - oracle).abs() <= 1e-12 * oracle.max(1.0),
                "{e} vs oracle {oracle}"
            );
        }
    }

    #[test]
    fn sort_and_merge_is_a_stable_sort_with_ordered_run_sums() {
        let mut table = MassTable {
            width: 2,
            keys: vec![2, 1, 0, 5, 2, 1, 0, 5, 2, 0],
            mass: vec![0.1, 0.2, 0.3, 0.4, 0.5],
        };
        table.sort_and_merge(&mut SortScratch::default());
        assert_eq!(table.keys, vec![0, 5, 2, 0, 2, 1]);
        assert_eq!(table.mass, vec![0.2 + 0.4, 0.5, 0.1 + 0.3]);
        // Zero-width keys all collide into one run.
        let mut table = MassTable {
            width: 0,
            keys: Vec::new(),
            mass: vec![0.25, 0.5],
        };
        table.sort_and_merge(&mut SortScratch::default());
        assert_eq!(table.mass, vec![0.75]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Random joins of two to five scans (aliases, multi-attribute
        /// keys, selections): strided tables and `E` equal the reference
        /// kernel's bit for bit at every thread and shard count.
        #[test]
        fn strided_mass_join_matches_the_reference(
            seed in 0u64..1_000_000,
            terms in 2usize..6,
            blocks in 1usize..40,
        ) {
            let (catalog, query) = random_join(seed, terms, blocks);
            assert_matches_reference(&catalog, &query);
        }
    }
}

/// Accuracy of the directly computed leaf product `1 − ∏(1 − p)` against
/// the log-space reference [`crate::testutil::noisy_or`], on the regime
/// where it cancels: many blocks, each with a tiny selected mass.
#[cfg(test)]
mod numerics {
    use crate::algebra::{Query, Statistic};
    use crate::block::{Alternative, Block};
    use crate::catalog::Catalog;
    use crate::database::ProbDb;
    use crate::plan::{CatalogEngine, QueryAnswer, QueryEngineConfig};
    use crate::predicate::Predicate;
    use crate::testutil::{interpreted, noisy_or};
    use mrsl_relation::{AttrId, CompleteTuple, Schema, ValueId};

    /// `r(k, ok)`: one block per probability, all at key `k0`, with the
    /// selected `ok = yes` alternative at that probability. `s(k, ok)`
    /// holds one certain `(k0, yes)` row, so `σ[ok] s ⨝ σ[ok] r` on `k`
    /// evaluates the same leaf product under a key partition.
    fn catalog(probs: &[f64]) -> Catalog {
        let schema = || {
            Schema::builder()
                .attribute("k", ["k0", "k1"])
                .attribute("ok", ["no", "yes"])
                .build()
                .unwrap()
        };
        let alt = |ok: u16, prob: f64| Alternative {
            tuple: CompleteTuple::from_values(vec![0, ok]),
            prob,
        };
        let mut r = ProbDb::new(schema());
        for (b, &p) in probs.iter().enumerate() {
            r.push_block(Block::new(b, vec![alt(0, 1.0 - p), alt(1, p)]).unwrap())
                .unwrap();
        }
        let mut s = ProbDb::new(schema());
        s.push_certain(CompleteTuple::from_values(vec![0, 1]))
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.add("r", r).unwrap();
        catalog.add("s", s).unwrap();
        catalog
    }

    /// Relative error of every exact leaf path (interpreter and VM, alone
    /// and under a join) against the log-space reference.
    fn leaf_errors(probs: &[f64]) -> Vec<f64> {
        let catalog = catalog(probs);
        let ok = || Predicate::eq(AttrId(1), ValueId(1));
        let single = Query::scan("r").filter(ok());
        let join = Query::scan("s")
            .filter(ok())
            .join_on(Query::scan("r").filter(ok()), [(AttrId(0), AttrId(0))]);
        let reference = noisy_or(probs.iter().copied());
        let engine = CatalogEngine::new(&catalog);
        let config = QueryEngineConfig::default();
        let mut errors = Vec::new();
        for q in [&single, &join] {
            let (p, _) = engine.probability(q).unwrap();
            errors.push((p - reference).abs() / reference);
            let Ok((QueryAnswer::Probability { p, .. }, _)) =
                interpreted(&catalog, q, Statistic::Probability, &config)
            else {
                panic!("interpreter probability expected");
            };
            errors.push((p - reference).abs() / reference);
        }
        errors
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Every path agrees with the reference to within the textbook
        /// forward-error bound of the direct form: `n` roundings of the
        /// complements and their product (one unit roundoff `u` each)
        /// leave an absolute error of about `2nu`, which the final
        /// subtraction turns into `2nu / P` relative.
        #[test]
        fn leaf_products_stay_within_the_direct_form_error_bound(
            scale in -12.0f64..-3.0,
            jitter in proptest::collection::vec(0.0f64..1.0, 1..3000),
        ) {
            // Every block's probability within a decade of 10^scale.
            let probs: Vec<f64> = jitter.iter().map(|&j| 10f64.powf(scale + j)).collect();
            let p = noisy_or(probs.iter().copied());
            let bound = 4.0 * probs.len() as f64 * f64::EPSILON / 2.0 / p + 1e-15;
            for err in leaf_errors(&probs) {
                proptest::prop_assert!(err <= bound, "relative error {err:e} over bound {bound:e}");
            }
        }
    }

    /// A fixed case of the cancelling regime: 2,000 blocks of 10⁻⁷ each.
    /// Every path gives the same answer, 5.3e-10 relative from the
    /// reference (x86-64) — far above a 1e-12 accuracy target, so a
    /// log-space kernel would show its gain here.
    #[test]
    fn long_small_p_products_lose_digits_to_cancellation() {
        let probs = vec![1e-7; 2_000];
        let errors = leaf_errors(&probs);
        assert!(
            errors.iter().all(|&e| e == errors[0]),
            "paths disagree: {errors:?}"
        );
        assert!(errors[0] < 1e-8, "relative error {:e}", errors[0]);
    }
}
