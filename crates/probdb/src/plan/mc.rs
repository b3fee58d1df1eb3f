//! Monte-Carlo evaluation of resolved queries.
//!
//! The fallback path for everything the exact evaluators cannot lift:
//! non-hierarchical shapes, key-correlated blocks, aliased self-joins,
//! out-of-budget DPs, forced sampling, and the bracket-gated refinement of
//! dissociation bounds. One *joint world* draws one alternative per block
//! in every **distinct** catalog relation the query touches (through the
//! shared [`choose_weighted`](crate::world::choose_weighted) primitive,
//! so single-relation draws match the legacy sampler draw for draw);
//! aliased scans of one relation read the *same* draw — they see one
//! world, which is exactly the dependence that makes self-joins unsafe
//! for the independent-product plans. The query tree is then evaluated
//! row-wise against the drawn world by a hash join over the join-class
//! assignments, yielding the per-world result count every estimator is
//! derived from: each term's present rows are grouped by the key
//! positions earlier terms bound (a set fixed by term order, computed
//! once per query), and the accumulated assignments probe those groups.
//! Every buffer and hash index lives across worlds, so a world allocates
//! nothing once the buffers have grown to size.

use super::classify::CompiledTerm;
use super::exact::{self, MassStep};
use crate::montecarlo::sample_block_rows;
use mrsl_util::{seeded_rng, FxHasher, OnlineStats};
use std::hash::Hasher;

/// Per-world result counts of a resolved query over `n` joint worlds.
pub(crate) fn sample_join_counts(
    compiled: &[CompiledTerm],
    class_count: usize,
    n: usize,
    seed: u64,
) -> Vec<u64> {
    debug_assert!(n > 0, "callers check the sample budget");
    let mut rng = seeded_rng(seed);
    // One draw per *distinct relation*, shared by its aliased scans:
    // map every term to the first term scanning the same relation.
    let draw_group: Vec<usize> = compiled
        .iter()
        .map(|ct| {
            compiled
                .iter()
                .position(|o| o.relation == ct.relation)
                .expect("the term itself matches")
        })
        .collect();
    // Live certain rows are present in every world; precompute their ids.
    let certain_rows: Vec<Vec<u32>> = compiled
        .iter()
        .map(|ct| ct.live_certain.iter_ones().map(|i| i as u32).collect())
        .collect();
    let mut join = WorldJoin::new(compiled, class_count);
    let mut counts = Vec::with_capacity(n);
    let mut chosen: Vec<Vec<usize>> = vec![Vec::new(); compiled.len()];
    let mut alt_rows: Vec<Vec<u32>> = vec![Vec::new(); compiled.len()];
    for _ in 0..n {
        // One world: one draw per distinct relation, then per scan the
        // live certain rows plus the drawn live alternatives.
        for (t, ct) in compiled.iter().enumerate() {
            if draw_group[t] == t {
                chosen[t].clear();
                sample_block_rows(ct.db, &mut rng, &mut chosen[t]);
            }
        }
        for (t, (ct, alts)) in compiled.iter().zip(&mut alt_rows).enumerate() {
            alts.clear();
            alts.extend(
                chosen[draw_group[t]]
                    .iter()
                    .filter(|&&r| ct.live_alts.get(r))
                    .map(|&r| r as u32),
            );
        }
        counts.push(join.count(compiled, &certain_rows, &alt_rows));
    }
    counts
}

/// The per-world hash join behind [`sample_join_counts`], with every
/// buffer and index allocated once per query and reused by each world.
///
/// The join schedule ([`exact::join_steps`]) depends only on term order:
/// term `t` probes the classes earlier terms bound and binds the rest.
/// Per world, each term's present rows are grouped by their full key
/// (probe positions first, then fresh ones) with a row count per group,
/// the groups are indexed by their probe prefix, and every accumulated
/// class assignment looks its probe values up in that index and extends
/// itself by each matching group's fresh values. Distinct assignments
/// joined with distinct groups stay distinct, so the accumulator never
/// needs de-duplicating; counts are integers, so the order in which they
/// are multiplied and summed cannot change the result.
struct WorldJoin {
    classes: usize,
    steps: Vec<MassStep>,
    /// The current term's groups; each term regroups in place.
    term: TermGroups,
    /// Accumulated assignments (strided, one column per class, `u16::MAX`
    /// = unbound) and their result counts; `next_*` is the successor.
    acc_keys: Vec<u16>,
    acc_counts: Vec<u64>,
    next_keys: Vec<u16>,
    next_counts: Vec<u64>,
    /// One row's key, or one assignment's probe values.
    key: Vec<u16>,
}

/// One term's grouped present rows in the current world.
#[derive(Default)]
struct TermGroups {
    /// Distinct full keys (probe ++ fresh positions) → group ids.
    groups: StridedIndex,
    /// Present rows per group.
    counts: Vec<u64>,
    /// Distinct probe prefixes → prefix ids.
    prefixes: StridedIndex,
    /// First group of each prefix's chain, and each group's successor in
    /// its chain.
    head: Vec<u32>,
    chain: Vec<u32>,
}

/// End of a group chain, and an empty hash slot.
const NONE: u32 = u32::MAX;

impl WorldJoin {
    fn new(compiled: &[CompiledTerm], classes: usize) -> Self {
        Self {
            classes,
            steps: exact::join_steps(
                classes,
                compiled
                    .iter()
                    .map(|ct| ct.keys.iter().map(|&(ci, _, _)| ci)),
            ),
            term: TermGroups::default(),
            acc_keys: Vec::new(),
            acc_counts: Vec::new(),
            next_keys: Vec::new(),
            next_counts: Vec::new(),
            key: Vec::new(),
        }
    }

    /// Result count of one drawn world: a hash join of the per-term
    /// present rows (certain rows index the certain columns, alternatives
    /// the alternative columns) over the join-class assignments. With no
    /// classes (single relation) this is just the row count.
    fn count(
        &mut self,
        compiled: &[CompiledTerm],
        certain_rows: &[Vec<u32>],
        alt_rows: &[Vec<u32>],
    ) -> u64 {
        if self.classes == 0 {
            debug_assert_eq!(compiled.len(), 1, "joins always bind classes");
            return (certain_rows[0].len() + alt_rows[0].len()) as u64;
        }
        let w = self.classes;
        self.acc_keys.clear();
        self.acc_keys.resize(w, u16::MAX);
        self.acc_counts.clear();
        self.acc_counts.push(1);
        for (t, (step, ct)) in self.steps.iter().zip(compiled).enumerate() {
            let term = &mut self.term;
            term.group(ct, step, &certain_rows[t], &alt_rows[t], &mut self.key);
            let nb = step.bound.len();
            self.next_keys.clear();
            self.next_counts.clear();
            for (assign, &m) in self.acc_keys.chunks_exact(w).zip(&self.acc_counts) {
                self.key.clear();
                self.key
                    .extend(step.bound.iter().map(|&(_, ci)| assign[ci]));
                let Some(p) = term.prefixes.find(&self.key) else {
                    continue;
                };
                let mut g = term.head[p];
                while g != NONE {
                    let start = self.next_keys.len();
                    self.next_keys.extend_from_slice(assign);
                    let fresh = &term.groups.key(g as usize)[nb..];
                    for (&(_, ci), &v) in step.fresh.iter().zip(fresh) {
                        self.next_keys[start + ci] = v;
                    }
                    self.next_counts.push(m * term.counts[g as usize]);
                    g = term.chain[g as usize];
                }
            }
            std::mem::swap(&mut self.acc_keys, &mut self.next_keys);
            std::mem::swap(&mut self.acc_counts, &mut self.next_counts);
            if self.acc_counts.is_empty() {
                return 0;
            }
        }
        self.acc_counts.iter().sum()
    }
}

impl TermGroups {
    /// Groups this world's present rows of one term by full key and
    /// chains the groups by probe prefix; `key` is scratch.
    fn group(
        &mut self,
        ct: &CompiledTerm,
        step: &MassStep,
        certain: &[u32],
        alts: &[u32],
        key: &mut Vec<u16>,
    ) {
        let positions = || step.bound.iter().chain(&step.fresh).map(|&(pos, _)| pos);
        self.groups.reset(
            step.bound.len() + step.fresh.len(),
            certain.len() + alts.len(),
        );
        self.counts.clear();
        let rows = certain
            .iter()
            .map(|&r| (r as usize, true))
            .chain(alts.iter().map(|&r| (r as usize, false)));
        for (r, is_certain) in rows {
            key.clear();
            key.extend(positions().map(|pos| {
                let (_, ckey, akey) = ct.keys[pos];
                if is_certain {
                    ckey[r]
                } else {
                    akey[r]
                }
            }));
            let g = self.groups.insert(key);
            if g == self.counts.len() {
                self.counts.push(0);
            }
            self.counts[g] += 1;
        }
        // With nothing to probe (`nb == 0`) every group shares the empty
        // prefix, so one chain holds them all.
        let nb = step.bound.len();
        self.prefixes.reset(nb, self.counts.len());
        self.head.clear();
        self.chain.clear();
        for g in 0..self.counts.len() {
            let p = self.prefixes.insert(&self.groups.key(g)[..nb]);
            if p == self.head.len() {
                self.head.push(NONE);
            }
            self.chain.push(self.head[p]);
            self.head[p] = g as u32;
        }
    }
}

/// An insert-only open-addressing hash index from strided `u16` keys to
/// dense ids (insertion order), sized up front for a known maximum number
/// of keys so it never rehashes. Reset and refilled once per world; its
/// buffers keep their capacity across worlds.
#[derive(Default)]
struct StridedIndex {
    width: usize,
    /// Key of id `i` at `keys[i * width..(i + 1) * width]`.
    keys: Vec<u16>,
    len: usize,
    /// Id per slot ([`NONE`] = empty); the live table is
    /// `slots[..=mask]`.
    slots: Vec<u32>,
    mask: usize,
}

impl StridedIndex {
    /// Empties the index for keys of `width` values, at most `max_keys`
    /// of them.
    fn reset(&mut self, width: usize, max_keys: usize) {
        let cap = (2 * max_keys).next_power_of_two().max(8);
        if self.slots.len() < cap {
            self.slots.resize(cap, NONE);
        }
        self.slots[..cap].fill(NONE);
        self.mask = cap - 1;
        self.width = width;
        self.keys.clear();
        self.len = 0;
    }

    fn key(&self, id: usize) -> &[u16] {
        &self.keys[id * self.width..(id + 1) * self.width]
    }

    fn slot_of(&self, key: &[u16]) -> usize {
        let mut h = FxHasher::default();
        for &v in key {
            h.write_u16(v);
        }
        // FxHash ends on a multiply, so its high bits mix best.
        (h.finish() >> 32) as usize & self.mask
    }

    /// Id of `key`, if present.
    fn find(&self, key: &[u16]) -> Option<usize> {
        let mut s = self.slot_of(key);
        loop {
            match self.slots[s] {
                NONE => return None,
                id if self.key(id as usize) == key => return Some(id as usize),
                _ => s = (s + 1) & self.mask,
            }
        }
    }

    /// Id of `key`, inserting it (as the next id) when absent.
    fn insert(&mut self, key: &[u16]) -> usize {
        let mut s = self.slot_of(key);
        loop {
            match self.slots[s] {
                NONE => {
                    debug_assert!(2 * self.len <= self.mask, "sized up front");
                    self.slots[s] = self.len as u32;
                    self.keys.extend_from_slice(key);
                    self.len += 1;
                    return self.len - 1;
                }
                id if self.key(id as usize) == key => return id as usize,
                _ => s = (s + 1) & self.mask,
            }
        }
    }
}

/// `(estimate, standard error)` of `P(result non-empty)` from per-world
/// counts.
pub(crate) fn probability_estimate(counts: &[u64]) -> (f64, f64) {
    let n = counts.len() as f64;
    let hits = counts.iter().filter(|&&c| c > 0).count() as f64;
    let p = hits / n;
    (p, (p * (1.0 - p) / n).sqrt())
}

/// `(mean, standard error)` of the result count from per-world counts.
pub(crate) fn count_estimate(counts: &[u64]) -> (f64, f64) {
    let mut stats = OnlineStats::new();
    for &c in counts {
        stats.push(c as f64);
    }
    (stats.mean(), stats.std_dev() / (counts.len() as f64).sqrt())
}

/// Histogram `d[k] = P(|result| = k)` from per-world counts.
pub(crate) fn count_histogram(counts: &[u64]) -> Vec<f64> {
    let max = counts.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0.0f64; max + 1];
    for &c in counts {
        hist[c as usize] += 1.0;
    }
    let n = counts.len() as f64;
    hist.iter_mut().for_each(|h| *h /= n);
    hist
}

/// Per-block hit frequency of the selection over `n` sampled worlds
/// (single-relation marginals on the forced-Monte-Carlo path).
pub(crate) fn mc_selection_marginals(ct: &CompiledTerm, n: usize, seed: u64) -> Vec<f64> {
    let cols = ct.db.columns();
    let mut rng = seeded_rng(seed);
    let mut hits = vec![0usize; cols.block_count()];
    for _ in 0..n {
        for (b, hit) in hits.iter_mut().enumerate() {
            let range = cols.block_range(b);
            let chosen = crate::world::choose_weighted(
                cols.alt_probs()[range.clone()].iter().copied(),
                &mut rng,
            );
            if ct.live_alts.get(range.start + chosen) {
                *hit += 1;
            }
        }
    }
    hits.iter().map(|&h| h as f64 / n as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::super::exact::fixtures::{chain, compile, random_join, star};
    use super::*;
    use crate::algebra::Query;
    use crate::catalog::Catalog;
    use crate::predicate::Predicate;
    use mrsl_relation::{AttrId, ValueId};

    /// [`sample_join_counts`] as it was before the hash join: a nested
    /// `assign × group` loop that clones a `Vec<u16>` per pair, with
    /// fresh maps per term and world. Same draws, same counts.
    fn reference_join_counts(
        compiled: &[CompiledTerm],
        class_count: usize,
        n: usize,
        seed: u64,
    ) -> Vec<u64> {
        use mrsl_util::FxHashMap;
        let mut rng = seeded_rng(seed);
        let draw_group: Vec<usize> = compiled
            .iter()
            .map(|ct| {
                compiled
                    .iter()
                    .position(|o| o.relation == ct.relation)
                    .unwrap()
            })
            .collect();
        let certain_rows: Vec<Vec<u32>> = compiled
            .iter()
            .map(|ct| ct.live_certain.iter_ones().map(|i| i as u32).collect())
            .collect();
        let mut counts = Vec::with_capacity(n);
        let mut chosen: Vec<Vec<usize>> = vec![Vec::new(); compiled.len()];
        for _ in 0..n {
            for (t, ct) in compiled.iter().enumerate() {
                if draw_group[t] == t {
                    chosen[t].clear();
                    sample_block_rows(ct.db, &mut rng, &mut chosen[t]);
                }
            }
            let alt_rows: Vec<Vec<u32>> = compiled
                .iter()
                .enumerate()
                .map(|(t, ct)| {
                    chosen[draw_group[t]]
                        .iter()
                        .filter(|&&r| ct.live_alts.get(r))
                        .map(|&r| r as u32)
                        .collect()
                })
                .collect();
            if class_count == 0 {
                counts.push((certain_rows[0].len() + alt_rows[0].len()) as u64);
                continue;
            }
            let mut acc: FxHashMap<Vec<u16>, u64> = FxHashMap::default();
            acc.insert(vec![u16::MAX; class_count], 1);
            for (t, ct) in compiled.iter().enumerate() {
                let mut groups: FxHashMap<Vec<u16>, u64> = FxHashMap::default();
                for &r in &certain_rows[t] {
                    let key: Vec<u16> = ct.keys.iter().map(|k| k.1[r as usize]).collect();
                    *groups.entry(key).or_insert(0) += 1;
                }
                for &r in &alt_rows[t] {
                    let key: Vec<u16> = ct.keys.iter().map(|k| k.2[r as usize]).collect();
                    *groups.entry(key).or_insert(0) += 1;
                }
                let mut next: FxHashMap<Vec<u16>, u64> = FxHashMap::default();
                for (assign, m) in &acc {
                    'keys: for (key, c) in &groups {
                        let mut merged = assign.clone();
                        for (&(ci, _, _), &v) in ct.keys.iter().zip(key) {
                            if merged[ci] == u16::MAX {
                                merged[ci] = v;
                            } else if merged[ci] != v {
                                continue 'keys;
                            }
                        }
                        *next.entry(merged).or_insert(0) += m * c;
                    }
                }
                acc = next;
                if acc.is_empty() {
                    break;
                }
            }
            counts.push(acc.values().sum());
        }
        counts
    }

    /// Asserts per-world count parity with the reference over `n` worlds;
    /// returns the counts.
    fn assert_matches_reference(catalog: &Catalog, query: &Query, n: usize, seed: u64) -> Vec<u64> {
        let (resolved, compiled) = compile(catalog, query);
        let classes = resolved.classes.len();
        let counts = sample_join_counts(&compiled, classes, n, seed);
        assert_eq!(counts, reference_join_counts(&compiled, classes, n, seed));
        counts
    }

    #[test]
    fn wide_joins_count_like_the_reference() {
        for seed in 0..4 {
            let (catalog, query) = chain(6, seed);
            let counts = assert_matches_reference(&catalog, &query, 400, seed);
            assert!(
                counts.iter().any(|&c| c > 0),
                "the chain joins in some world"
            );
            let (catalog, query) = star(seed);
            assert_matches_reference(&catalog, &query, 400, seed);
        }
    }

    /// Aliased scans read one draw per relation (`draw_group`), so both
    /// scans of a self-join see the same world; the hash join's counts
    /// agree with the reference world for world.
    #[test]
    fn aliased_self_joins_share_draws_like_the_reference() {
        for seed in 0..4 {
            let (catalog, _) = star(seed);
            let sel = Predicate::is_in(AttrId(1), [ValueId(0), ValueId(1)]);
            let query = Query::scan_as("h", "h1").filter(sel.clone()).join_on(
                Query::scan_as("h", "h2").filter(sel),
                [(AttrId(0), AttrId(0)), (AttrId(2), AttrId(2))],
            );
            let (_, compiled) = compile(&catalog, &query);
            assert_eq!(compiled[0].relation, compiled[1].relation);
            assert_matches_reference(&catalog, &query, 400, seed);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Random joins (aliased scans, multi-attribute keys, selections):
        /// the hash join reproduces every world's count, and the shared
        /// RNG stream stays in lockstep with the reference.
        #[test]
        fn hash_join_world_counts_match_the_reference(
            seed in 0u64..1_000_000,
            terms in 1usize..6,
            blocks in 1usize..24,
        ) {
            let (catalog, query) = random_join(seed, terms, blocks);
            assert_matches_reference(&catalog, &query, 64, seed);
        }
    }
}
