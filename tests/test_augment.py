import numpy as np
import pytest

from fairmix.augment import (
    MixFeatConfig,
    augment_dataset,
    mix_pair,
    mixfeat,
    plan_balancing,
    random_oversample,
)
from fairmix.dataset import ColumnMeta, Dataset, ModalityTable
from fairmix.errors import InputError

from conftest import make_dataset


def cell_counts(ds):
    counts = {}
    for m in ds.meta:
        key = (tuple(v for _, v in m.attributes), m.label)
        counts[key] = counts.get(key, 0) + 1
    return counts


def imbalanced_dataset(seed=0, n=20):
    rng = np.random.default_rng(seed)
    # skew: minority group (attr 0) rare
    attrs = (rng.random(n) < 0.75).astype(int).reshape(-1, 1)
    labels = rng.integers(0, 2, n)
    attrs[:4] = [[0], [0], [1], [1]]
    labels[:4] = [0, 1, 0, 1]  # all four cells non-empty
    return make_dataset(
        {"face": rng.normal(size=(n, 3)), "audio": rng.normal(size=(n, 2))},
        labels,
        attrs,
    )


class TestPlanBalancing:
    def test_targets_are_global_max(self):
        ds = imbalanced_dataset()
        plan = plan_balancing(ds)
        target = max(cell_counts(ds).values())
        assert all(c.target_count == target for c in plan.cells.values())

    def test_balanced_input_is_noop(self):
        ds = make_dataset(
            {"m": np.arange(8).reshape(4, 2)},
            labels=[0, 1, 0, 1],
            attrs=[[0], [0], [1], [1]],
        )
        plan = plan_balancing(ds)
        assert plan.total_synthetic == 0

    def test_synthetic_count_arithmetic(self):
        # cells of size 3,5,7,9 -> all raised to 9, 12 synthetic rows
        labels, attrs = [], []
        for cnt, (a, y) in zip((3, 5, 7, 9), [(0, 0), (0, 1), (1, 0), (1, 1)]):
            labels += [y] * cnt
            attrs += [[a]] * cnt
        ds = make_dataset({"m": np.random.default_rng(0).normal(size=(24, 2))}, labels, attrs)
        plan = plan_balancing(ds)
        assert plan.total_synthetic == 12


class TestRandomOversample:
    def test_copies_are_exact_rows(self):
        ds = imbalanced_dataset()
        plan = plan_balancing(ds, "random_oversample")
        out = random_oversample(ds, plan, seed=1)
        originals = {tuple(row) for row in ds.modality("face").samples}
        for row in out.modality("face").samples[ds.n_samples:]:
            assert tuple(row) in originals

    def test_copies_inherit_subject_id(self):
        ds = imbalanced_dataset()
        out = random_oversample(ds, plan_balancing(ds), seed=1)
        original_subjects = set(ds.subject_ids())
        for m in out.meta[ds.n_samples:]:
            assert m.subject_id in original_subjects
            assert m.sample_id not in set(ds.sample_ids())

    def test_noop_plan_identity(self):
        ds = make_dataset({"m": [[1.0], [2.0]]}, labels=[0, 1], attrs=[[1], [1]])
        out = random_oversample(ds, plan_balancing(ds), seed=0)
        assert out.n_samples == 2

    def test_same_seed_identical(self):
        ds = imbalanced_dataset()
        plan = plan_balancing(ds)
        a = random_oversample(ds, plan, seed=9)
        b = random_oversample(ds, plan, seed=9)
        np.testing.assert_array_equal(a.modality("face").samples, b.modality("face").samples)
        assert a.meta == b.meta


class TestMixPair:
    def test_quarter_weight(self):
        np.testing.assert_array_equal(
            mix_pair(np.array([1.0, 2.0]), np.array([3.0, 6.0]), 0.25), [2.5, 5.0]
        )

    def test_endpoints_reproduce_parents(self):
        i, j = np.array([1.0, -2.0, 0.5]), np.array([4.0, 0.0, 9.0])
        np.testing.assert_array_equal(mix_pair(i, j, 1.0), i)
        np.testing.assert_array_equal(mix_pair(i, j, 0.0), j)


class TestMixFeat:
    def test_convexity_per_coordinate(self):
        ds = imbalanced_dataset()
        out = mixfeat(ds, plan_balancing(ds), MixFeatConfig(seed=2))
        for t in ds.modalities:
            lo = t.samples.min(axis=0) - 1e-12
            hi = t.samples.max(axis=0) + 1e-12
            synth = out.modality(t.modality_name).samples[ds.n_samples:]
            assert (synth >= lo).all() and (synth <= hi).all()

    def test_labels_and_attributes_preserved_and_balanced(self):
        ds = imbalanced_dataset()
        out = mixfeat(ds, plan_balancing(ds), MixFeatConfig(seed=3))
        counts = cell_counts(out)
        assert len(set(counts.values())) == 1  # all cells equal after balancing

    def test_synthetic_subject_ids_fresh(self):
        ds = imbalanced_dataset()
        out = mixfeat(ds, plan_balancing(ds), MixFeatConfig(seed=4))
        originals = set(ds.subject_ids())
        for m in out.meta[ds.n_samples:]:
            assert m.subject_id not in originals

    def test_per_modality_independent_lambdas(self):
        # two 1-feature modalities with distinct parent values: over many
        # draws the mixing weights of the modalities must differ
        ds = make_dataset(
            {"a": [[0.0], [1.0], [0.0]], "b": [[0.0], [1.0], [0.0]]},
            labels=[1, 1, 0],
            attrs=[[1], [1], [1]],
        )
        out = mixfeat(ds, plan_balancing(ds), MixFeatConfig(seed=5))
        # cell ((1,),0) has one row, duplicates; cell ((1,),1) mixes
        assert out.n_samples == ds.n_samples + 1

    def test_singleton_cell_duplicates(self):
        ds = make_dataset(
            {"m": [[1.0], [2.0], [3.0]]},
            labels=[1, 1, 0],
            attrs=[[1], [1], [1]],
        )
        out = mixfeat(ds, plan_balancing(ds), MixFeatConfig(seed=6))
        synth = out.modality("m").samples[3:]
        assert synth.shape == (1, 1) and synth[0, 0] == 3.0

    def test_determinism(self):
        ds = imbalanced_dataset()
        plan = plan_balancing(ds)
        cfg = MixFeatConfig(seed=11)
        a, b = mixfeat(ds, plan, cfg), mixfeat(ds, plan, cfg)
        np.testing.assert_array_equal(a.modality("audio").samples, b.modality("audio").samples)
        assert a.meta == b.meta

    def test_originals_untouched(self):
        ds = imbalanced_dataset()
        before = {t.modality_name: t.samples.copy() for t in ds.modalities}
        out = mixfeat(ds, plan_balancing(ds), MixFeatConfig(seed=12))
        for t in ds.modalities:
            np.testing.assert_array_equal(t.samples, before[t.modality_name])
            np.testing.assert_array_equal(
                out.modality(t.modality_name).samples[: ds.n_samples], before[t.modality_name]
            )

    def test_invalid_beta_params(self):
        with pytest.raises(InputError):
            MixFeatConfig(beta_alpha=0.0)


class TestMarginalParity:
    @pytest.mark.parametrize("method", ["random_oversample", "mixfeat"])
    def test_attribute_marginals_balanced(self, method):
        ds = imbalanced_dataset(seed=3, n=30)
        out = augment_dataset(ds, method, seed=7)
        labels = out.labels()
        for a in ds.declared_attributes:
            av = out.attribute_values(a)
            for y in (0, 1):
                n0 = int(((av == 0) & (labels == y)).sum())
                n1 = int(((av == 1) & (labels == y)).sum())
                assert n0 == n1


class TestSyntheticIds:
    @pytest.mark.parametrize("method", ["random_oversample", "mixfeat"])
    def test_short_ids_do_not_truncate_synthetic_ids(self, method):
        # appending must widen the one-character id column, not cut the new ids
        table = ModalityTable("m", np.arange(8.0).reshape(4, 2), (ColumnMeta("f0"), ColumnMeta("f1")))
        ds = Dataset((table,), ["a", "b", "c", "d"], ["s0", "s1", "s2", "s3"],
                     [0, 0, 0, 1], [[1], [1], [1], [0]], ("gender",))
        out = augment_dataset(ds, method, seed=0)
        assert out.sample_ids() == ["a", "b", "c", "d", f"syn-{method}-00001", f"syn-{method}-00002"]
