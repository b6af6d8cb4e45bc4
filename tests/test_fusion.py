import numpy as np
import pytest

from fairmix.errors import ConfigError, ShapeError, StackingError
from fairmix.fusion import (
    FusionSpec,
    early_fuse,
    fit_fusion,
    fit_stacking_meta,
    fuse_predict,
)
from fairmix.models import PredictorSpec, TrainedPredictor


class FixedModel(TrainedPredictor):
    """Deterministic stub emitting preset positive-class probabilities."""

    def __init__(self, p1, n_features=2):
        super().__init__(PredictorSpec("logistic"), n_features, 2)
        self.p1 = np.asarray(p1, dtype=float)

    def proba_positive(self, X):
        return self.p1[: len(np.atleast_2d(X))]


def spec(strategy):
    return FusionSpec(strategy, PredictorSpec("logistic"))


class TestEarlyFuse:
    def test_concatenation_widths(self):
        out = early_fuse([np.zeros((4, 3)), np.ones((4, 2))])
        assert out.shape == (4, 5)
        assert (out[:, 3:] == 1).all()

    def test_single_modality_identity(self):
        X = np.arange(6).reshape(3, 2).astype(float)
        np.testing.assert_array_equal(early_fuse([X]), X)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            early_fuse([np.zeros((3, 1)), np.zeros((4, 1))])

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
        perm = rng.permutation(5)
        np.testing.assert_array_equal(
            early_fuse([A, B])[perm], early_fuse([A[perm], B[perm]])
        )


class TestVoting:
    def test_soft_vote_is_mean_then_argmax(self):
        bases = [FixedModel([0.4]), FixedModel([0.7])]
        X = [np.zeros((1, 2)), np.zeros((1, 2))]
        labels, proba = fuse_predict(spec("vote_soft"), bases, None, X)
        np.testing.assert_allclose(proba, [[0.45, 0.55]])
        assert labels[0] == 1

    def test_hard_vote_majority(self):
        bases = [FixedModel([0.9]), FixedModel([0.8]), FixedModel([0.1])]
        X = [np.zeros((1, 2))] * 3
        labels, _ = fuse_predict(spec("vote_hard"), bases, None, X)
        assert labels[0] == 1

    def test_hard_vote_tie_broken_by_confidence(self):
        # votes 1 (conf 0.9) vs 0 (conf 0.6) -> 1
        bases = [FixedModel([0.9]), FixedModel([0.4])]
        X = [np.zeros((1, 2))] * 2
        labels, _ = fuse_predict(spec("vote_hard"), bases, None, X)
        assert labels[0] == 1
        # reversed confidences -> 0 wins
        bases = [FixedModel([0.6]), FixedModel([0.1])]
        labels, _ = fuse_predict(spec("vote_hard"), bases, None, X)
        assert labels[0] == 0

    def test_hard_vote_confidence_tie_goes_to_one(self):
        bases = [FixedModel([0.8]), FixedModel([0.2])]  # both 80% confident
        labels, _ = fuse_predict(spec("vote_hard"), bases, None, [np.zeros((1, 2))] * 2)
        assert labels[0] == 1

    def test_soft_vote_matches_mean_argmax_on_random_cases(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 8))
            p1s = [rng.random(n) for _ in range(m)]
            bases = [FixedModel(p) for p in p1s]
            X = [np.zeros((n, 2))] * m
            labels, proba = fuse_predict(spec("vote_soft"), bases, None, X)
            mean = np.mean([np.column_stack([1 - p, p]) for p in p1s], axis=0)
            np.testing.assert_array_equal(proba, mean)
            np.testing.assert_array_equal(labels, (mean[:, 1] >= mean[:, 0]).astype(int))

    def test_modality_count_mismatch(self):
        with pytest.raises(ConfigError):
            fuse_predict(spec("vote_soft"), [FixedModel([0.5])], None, [np.zeros((1, 2))] * 2)


def separable_modalities(seed=0, n=40):
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n // 2))
    Xa = y[:, None] * 4.0 + rng.normal(0, 0.3, size=(n, 2))
    Xb = y[:, None] * np.array([3.0, -3.0]) + rng.normal(0, 0.3, size=(n, 2))
    return [Xa, Xb], y


class TestStacking:
    def test_meta_feature_widths(self):
        Xs, y = separable_modalities()
        _, _, feats_soft = fit_stacking_meta(spec("stack_soft"), Xs, y, seed=0)
        assert feats_soft.shape[1] == 4  # two probability pairs
        _, _, feats_hard = fit_stacking_meta(spec("stack_hard"), Xs, y, seed=0)
        assert feats_hard.shape[1] == 2

    def test_three_modalities_hard_width(self):
        Xs, y = separable_modalities()
        Xs = Xs + [Xs[0] * 0.5]
        _, _, feats = fit_stacking_meta(spec("stack_hard"), Xs, y, seed=0)
        assert feats.shape[1] == 3

    def test_perfect_bases_give_perfect_meta(self):
        Xs, y = separable_modalities(seed=3)
        meta, assign, feats = fit_stacking_meta(spec("stack_soft"), Xs, y, seed=1)
        assert (meta.predict(feats) == y).mean() == 1.0

    def test_out_of_fold_guarantee(self):
        # every row's meta feature comes from bases fitted without that row:
        # the fold bookkeeping must form a partition with k >= 2 parts
        Xs, y = separable_modalities(seed=4)
        _, assign, _ = fit_stacking_meta(spec("stack_soft"), Xs, y, seed=2)
        assert len(np.unique(assign)) >= 2
        for fold in np.unique(assign):
            train_rows = np.flatnonzero(assign != fold)
            test_rows = np.flatnonzero(assign == fold)
            assert len(np.intersect1d(train_rows, test_rows)) == 0

    def test_small_split_falls_back_to_two_folds(self):
        Xs, y = separable_modalities(n=8)
        _, assign, _ = fit_stacking_meta(spec("stack_soft"), Xs, y, seed=0)
        assert len(np.unique(assign)) == 2

    def test_tiny_split_errors(self):
        Xs, y = separable_modalities(n=2)
        with pytest.raises(StackingError):
            fit_stacking_meta(spec("stack_soft"), Xs, y, seed=0)


class TestFitFusion:
    @pytest.mark.parametrize("strategy", ["early", "vote_hard", "vote_soft", "stack_hard", "stack_soft"])
    def test_all_strategies_fit_and_predict(self, strategy):
        Xs, y = separable_modalities(seed=5)
        model = fit_fusion(FusionSpec(strategy, PredictorSpec("logistic")), Xs, y, seed=0)
        labels, proba = model.predict_with_proba(Xs)
        assert (labels == y).mean() >= 0.95
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("strategy", ["vote_hard", "vote_soft", "stack_hard", "stack_soft"])
    def test_single_modality_equals_base(self, strategy):
        Xs, y = separable_modalities(seed=6)
        single = [Xs[0]]
        fused = fit_fusion(FusionSpec(strategy, PredictorSpec("logistic")), single, y, seed=0)
        from fairmix import models as mm
        base = mm.fit(PredictorSpec("logistic"), Xs[0], y)
        np.testing.assert_array_equal(fused.predict_with_proba(single)[0], base.predict(Xs[0]))
