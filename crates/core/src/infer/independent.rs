//! The independence-assuming baseline the paper argues against (§V).
//!
//! "One approach would be to estimate the CPDs for age and for edu
//! separately, and then to compute P(age, edu | …) = P(age | …) × P(edu |
//! …), but that would rely on independence assumptions that are not
//! warranted." The product estimator lives in
//! [`crate::infer::engine::IndependentBaseline`] so the ablation
//! experiments can quantify the gap against Gibbs sampling; this module
//! keeps the baseline's unit tests.

#[cfg(test)]
mod tests {
    use crate::config::{LearnConfig, VotingConfig};
    use crate::infer::engine::{IndependentBaseline, InferContext, InferenceEngine};
    use crate::infer::gibbs::JointEstimate;
    use crate::model::MrslModel;
    use mrsl_relation::relation::fig1_relation;
    use mrsl_relation::AttrId;
    use mrsl_relation::PartialTuple;

    fn model() -> MrslModel {
        let rel = fig1_relation();
        MrslModel::learn(rel.schema(), rel.complete_part(), &LearnConfig::default())
    }

    fn independent(m: &MrslModel, t: &PartialTuple) -> JointEstimate {
        IndependentBaseline.estimate(
            &mut InferContext::new(m, VotingConfig::best_averaged(), 0),
            t,
        )
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn product_structure_holds() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(1), Some(2), None, None]);
        let est = independent(&m, &t);
        let mut ctx = InferContext::new(&m, VotingConfig::best_averaged(), 0);
        let inc = ctx.vote_single(&t, AttrId(2));
        let nw = ctx.vote_single(&t, AttrId(3));
        // Cell (inc=i, nw=j) = inc[i] * nw[j].
        for i in 0..2 {
            for j in 0..2 {
                let idx = i * 2 + j;
                assert!(
                    (est.probs[idx] - inc[i] * nw[j]).abs() < 1e-9,
                    "cell ({i},{j})"
                );
            }
        }
        assert!((est.probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginals_of_product_match_single_inference() {
        let m = model();
        let t = PartialTuple::from_options(&[None, Some(0), None, Some(1)]);
        let est = independent(&m, &t);
        // Marginal over age (attr 0) from the joint must equal the direct
        // single-attribute estimate.
        let direct =
            InferContext::new(&m, VotingConfig::best_averaged(), 0).vote_single(&t, AttrId(0));
        let ix = &est.indexer;
        let mut marginal = [0.0f64; 3];
        for idx in 0..ix.size() {
            let combo = ix.decode(idx);
            marginal[combo[0].1.index()] += est.probs[idx];
        }
        for (a, b) in marginal.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn complete_tuple_is_trivial() {
        let m = model();
        let t = PartialTuple::from_options(&[Some(0), Some(0), Some(0), Some(0)]);
        let est = independent(&m, &t);
        assert_eq!(est.probs, vec![1.0]);
    }
}
