//! Row-major indexing of joint value combinations over an attribute set.
//!
//! The paper's output `Δt` is a distribution over "all possible combinations
//! of values of the attributes missing in `t`". Both the exact Bayesian-
//! network conditionals (ground truth) and the MRSL estimates must agree on
//! how a combination maps to a vector index; this type pins the convention:
//! attributes in **ascending id order**, row-major, the **last attribute
//! least significant**.

use crate::mask::AttrMask;
use crate::schema::{AttrId, Schema, ValueId};
use crate::tuple::{CompleteTuple, PartialTuple};
use serde::{Deserialize, Serialize};

/// Maps value combinations over a fixed attribute set to dense indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointIndexer {
    attrs: Vec<AttrId>,
    cards: Vec<usize>,
    strides: Vec<usize>,
    size: usize,
}

impl JointIndexer {
    /// Builds an indexer over the attributes of `mask` (ascending order).
    ///
    /// # Panics
    /// Panics if the joint domain size overflows `usize` (cannot happen for
    /// the paper's benchmark, which caps at ~5·10⁵ combinations).
    pub fn new(schema: &Schema, mask: AttrMask) -> Self {
        let attrs: Vec<AttrId> = mask.iter().collect();
        let cards: Vec<usize> = attrs.iter().map(|&a| schema.cardinality(a)).collect();
        let mut strides = vec![1usize; attrs.len()];
        let mut size = 1usize;
        for i in (0..attrs.len()).rev() {
            strides[i] = size;
            size = size
                .checked_mul(cards[i])
                .expect("joint domain size overflow");
        }
        Self {
            attrs,
            cards,
            strides,
            size,
        }
    }

    /// The attributes, ascending.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Cardinalities aligned with [`JointIndexer::attrs`].
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// Total number of combinations (product of cardinalities; 1 if empty).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Index of the combination where attribute `attrs()[i]` takes
    /// `values[i]`.
    ///
    /// # Panics
    /// Panics (debug) on arity mismatch or out-of-range values.
    #[inline]
    pub fn index_of(&self, values: &[ValueId]) -> usize {
        debug_assert_eq!(values.len(), self.attrs.len());
        let mut idx = 0;
        for (i, v) in values.iter().enumerate() {
            debug_assert!(v.index() < self.cards[i]);
            idx += v.index() * self.strides[i];
        }
        idx
    }

    /// Index of the combination a complete tuple takes on these attributes.
    #[inline]
    pub fn index_of_point(&self, t: &CompleteTuple) -> usize {
        let mut idx = 0;
        for (i, &a) in self.attrs.iter().enumerate() {
            idx += t.value(a).index() * self.strides[i];
        }
        idx
    }

    /// Index of the combination a full raw assignment (one value per
    /// schema attribute, indexed by attribute id) takes on these
    /// attributes. Allocation-free: samplers call it once per draw.
    #[inline]
    pub fn index_of_state(&self, state: &[u16]) -> usize {
        let mut idx = 0;
        for (i, &a) in self.attrs.iter().enumerate() {
            debug_assert!((state[a.index()] as usize) < self.cards[i]);
            idx += state[a.index()] as usize * self.strides[i];
        }
        idx
    }

    /// Index of the combination a partial tuple takes; `None` when the
    /// tuple does not assign all indexed attributes.
    pub fn index_of_partial(&self, t: &PartialTuple) -> Option<usize> {
        let mut idx = 0;
        for (i, &a) in self.attrs.iter().enumerate() {
            idx += t.get(a)?.index() * self.strides[i];
        }
        Some(idx)
    }

    /// Decodes an index back into `(attr, value)` pairs (ascending attrs).
    pub fn decode(&self, mut idx: usize) -> Vec<(AttrId, ValueId)> {
        assert!(idx < self.size, "index {idx} out of range {}", self.size);
        let mut out = Vec::with_capacity(self.attrs.len());
        for (i, &a) in self.attrs.iter().enumerate() {
            let v = idx / self.strides[i];
            idx %= self.strides[i];
            out.push((a, ValueId(v as u16)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::fig1_schema;

    #[test]
    fn indexes_full_fig1_domain() {
        let s = fig1_schema();
        let ix = JointIndexer::new(&s, AttrMask::full(4));
        assert_eq!(ix.size(), 36); // 3*3*2*2
        assert_eq!(ix.attrs().len(), 4);
        // Last attribute is least significant.
        assert_eq!(ix.index_of([ValueId(0); 4].as_ref()), 0);
        assert_eq!(
            ix.index_of(&[ValueId(0), ValueId(0), ValueId(0), ValueId(1)]),
            1
        );
        assert_eq!(
            ix.index_of(&[ValueId(1), ValueId(0), ValueId(0), ValueId(0)]),
            12
        );
    }

    #[test]
    fn roundtrips_all_indices() {
        let s = fig1_schema();
        let mask = AttrMask::from_attrs([AttrId(0), AttrId(2)]); // 3 * 2 = 6
        let ix = JointIndexer::new(&s, mask);
        assert_eq!(ix.size(), 6);
        for idx in 0..ix.size() {
            let combo = ix.decode(idx);
            let values: Vec<ValueId> = combo.iter().map(|&(_, v)| v).collect();
            assert_eq!(ix.index_of(&values), idx);
        }
    }

    #[test]
    fn point_and_partial_agree() {
        let s = fig1_schema();
        let mask = AttrMask::from_attrs([AttrId(1), AttrId(3)]);
        let ix = JointIndexer::new(&s, mask);
        let point = CompleteTuple::from_values(vec![2, 1, 0, 1]);
        let partial = point.to_partial();
        assert_eq!(
            ix.index_of_point(&point),
            ix.index_of_partial(&partial).unwrap()
        );
        // A tuple missing an indexed attribute yields None.
        let missing = PartialTuple::from_options(&[Some(2), None, Some(0), Some(1)]);
        assert_eq!(ix.index_of_partial(&missing), None);
    }

    #[test]
    fn state_index_matches_value_index_on_every_combination() {
        let s = fig1_schema();
        let ix = JointIndexer::new(&s, AttrMask::from_attrs([AttrId(0), AttrId(3)]));
        // Attributes outside the indexer must not move the index.
        let mut state = [0u16, 2, 1, 0];
        for idx in 0..ix.size() {
            for (a, v) in ix.decode(idx) {
                state[a.index()] = v.0;
            }
            assert_eq!(ix.index_of_state(&state), idx);
            state[1] = (state[1] + 1) % 3;
            assert_eq!(ix.index_of_state(&state), idx);
        }
    }

    #[test]
    fn empty_mask_has_single_combination() {
        let s = fig1_schema();
        let ix = JointIndexer::new(&s, AttrMask::EMPTY);
        assert_eq!(ix.size(), 1);
        assert_eq!(ix.index_of(&[]), 0);
        assert!(ix.decode(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_rejects_out_of_range() {
        let s = fig1_schema();
        let ix = JointIndexer::new(&s, AttrMask::single(AttrId(2)));
        ix.decode(2);
    }
}
