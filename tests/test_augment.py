import hashlib

import numpy as np
import pytest

from fairmix.augment import (
    MixFeatConfig, _cells_of, _mix_cell, augment_dataset, mix_pair, synthesize,
)
from fairmix.dataset import ColumnMeta, Dataset, ModalityTable
from fairmix.errors import InputError
from fairmix.synthgen import SynthSpec, generate

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


class TestBalancing:
    def test_targets_are_global_max(self):
        ds = imbalanced_dataset()
        out = augment_dataset(ds, "mixfeat", seed=0)
        target = max(cell_counts(ds).values())
        assert all(count == target for count in cell_counts(out).values())

    def test_balanced_input_is_noop(self):
        ds = make_dataset(
            {"m": np.arange(8).reshape(4, 2)},
            labels=[0, 1, 0, 1],
            attrs=[[0], [0], [1], [1]],
        )
        out = augment_dataset(ds, "mixfeat", seed=0)
        assert out.n_samples - ds.n_samples == 0

    def test_synthetic_count_arithmetic(self):
        # cells of size 3,5,7,9 -> all raised to 9, 12 synthetic rows
        labels, attrs = [], []
        for cnt, (a, y) in zip((3, 5, 7, 9), [(0, 0), (0, 1), (1, 0), (1, 1)]):
            labels += [y] * cnt
            attrs += [[a]] * cnt
        ds = make_dataset({"m": np.random.default_rng(0).normal(size=(24, 2))}, labels, attrs)
        out = augment_dataset(ds, "mixfeat", seed=0)
        assert out.n_samples - ds.n_samples == 12


class TestRandomOversample:
    def test_copies_are_exact_rows(self):
        ds = imbalanced_dataset()
        out = augment_dataset(ds, "random_oversample", seed=1)
        originals = {tuple(row) for row in ds.modality("face").samples}
        for row in out.modality("face").samples[ds.n_samples:]:
            assert tuple(row) in originals

    def test_copies_inherit_subject_id(self):
        ds = imbalanced_dataset()
        out = augment_dataset(ds, "random_oversample", seed=1)
        original_subjects = set(ds.subject_ids())
        for m in out.meta[ds.n_samples:]:
            assert m.subject_id in original_subjects
            assert m.sample_id not in set(ds.sample_ids())

    def test_noop_plan_identity(self):
        ds = make_dataset({"m": [[1.0], [2.0]]}, labels=[0, 1], attrs=[[1], [1]])
        out = augment_dataset(ds, "random_oversample", seed=0)
        assert out.n_samples == 2

    def test_same_seed_identical(self):
        ds = imbalanced_dataset()
        a = augment_dataset(ds, "random_oversample", seed=9)
        b = augment_dataset(ds, "random_oversample", seed=9)
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
        out = augment_dataset(ds, "mixfeat", seed=2)
        for t in ds.modalities:
            lo = t.samples.min(axis=0) - 1e-12
            hi = t.samples.max(axis=0) + 1e-12
            synth = out.modality(t.modality_name).samples[ds.n_samples:]
            assert (synth >= lo).all() and (synth <= hi).all()

    def test_labels_and_attributes_preserved_and_balanced(self):
        ds = imbalanced_dataset()
        out = augment_dataset(ds, "mixfeat", seed=3)
        counts = cell_counts(out)
        assert len(set(counts.values())) == 1  # all cells equal after balancing

    def test_synthetic_subject_ids_fresh(self):
        ds = imbalanced_dataset()
        out = augment_dataset(ds, "mixfeat", seed=4)
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
        out = augment_dataset(ds, "mixfeat", seed=5)
        # cell ((1,),0) has one row, duplicates; cell ((1,),1) mixes
        assert out.n_samples == ds.n_samples + 1

    def test_singleton_cell_duplicates(self):
        ds = make_dataset(
            {"m": [[1.0], [2.0], [3.0]]},
            labels=[1, 1, 0],
            attrs=[[1], [1], [1]],
        )
        out = augment_dataset(ds, "mixfeat", seed=6)
        synth = out.modality("m").samples[3:]
        assert synth.shape == (1, 1) and synth[0, 0] == 3.0

    def test_determinism(self):
        ds = imbalanced_dataset()
        a = augment_dataset(ds, "mixfeat", seed=11)
        b = augment_dataset(ds, "mixfeat", seed=11)
        np.testing.assert_array_equal(a.modality("audio").samples, b.modality("audio").samples)
        assert a.meta == b.meta

    def test_originals_untouched(self):
        ds = imbalanced_dataset()
        before = {t.modality_name: t.samples.copy() for t in ds.modalities}
        out = augment_dataset(ds, "mixfeat", seed=12)
        for t in ds.modalities:
            np.testing.assert_array_equal(t.samples, before[t.modality_name])
            np.testing.assert_array_equal(
                out.modality(t.modality_name).samples[: ds.n_samples], before[t.modality_name]
            )

    def test_invalid_beta_params(self):
        with pytest.raises(InputError):
            MixFeatConfig(beta_alpha=0.0)
        with pytest.raises(InputError, match="beta_beta must be positive"):
            augment_dataset(imbalanced_dataset(), "mixfeat", seed=0, beta_beta=-1.0)


@pytest.mark.parametrize("method", ["smote", "", "none"])
def test_unknown_methods_are_rejected(method):
    with pytest.raises(InputError, match="unknown augmentation method"):
        synthesize(imbalanced_dataset(), method, seed=0)
    if method != "none":
        with pytest.raises(InputError, match="unknown augmentation method"):
            augment_dataset(imbalanced_dataset(), method, seed=0)


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

    def test_rows_are_named_after_the_method_that_ran(self):
        ds = imbalanced_dataset()
        oversampled = augment_dataset(ds, "random_oversample", seed=1).sample_ids()[ds.n_samples:]
        mixed = augment_dataset(ds, "mixfeat", seed=1)
        assert oversampled[0] == "syn-random_oversample-00001"
        assert all(s.startswith("syn-random_oversample-") for s in oversampled)
        assert all(s.startswith("syn-mixfeat-") for s in mixed.sample_ids()[ds.n_samples:])

    @pytest.mark.parametrize("method", ["random_oversample", "mixfeat"])
    def test_synthetic_ids_never_equal_training_ids(self, method):
        # training ids that already use the synthetic prefix, with and
        # without one leading "_", push the new ids to a prefix no id has
        ids = [f"syn-{method}-00001", "b", f"_syn-{method}-00002", "d"]
        table = ModalityTable("m", np.arange(8.0).reshape(4, 2), (ColumnMeta("f0"), ColumnMeta("f1")))
        ds = Dataset((table,), ids, ["s0", "s1", "s2", "s3"],
                     [0, 0, 0, 1], [[1], [1], [1], [0]], ("gender",))
        out = augment_dataset(ds, method, seed=0)
        assert out.sample_ids() == ids + [f"__syn-{method}-00001", f"__syn-{method}-00002"]


def pinned_dataset():
    """Three modalities; cells ((0,0),0)x1 (singleton), ((0,1),1)x2, ((1,0),0)x4,
    ((1,1),1)x7 (the largest, so zero deficit) and ((1,0),1)x3."""
    rng = np.random.default_rng(2024)
    cells = [((0, 0), 0, 1), ((0, 1), 1, 2), ((1, 0), 0, 4), ((1, 1), 1, 7), ((1, 0), 1, 3)]
    attrs, labels = [], []
    for key, y, count in cells:
        attrs += [list(key)] * count
        labels += [y] * count
    order = rng.permutation(len(labels))
    n = len(labels)
    return make_dataset(
        {"face": rng.normal(size=(n, 3)), "audio": rng.normal(size=(n, 2)),
         "text": rng.normal(size=(n, 4))},
        np.asarray(labels)[order],
        np.asarray(attrs)[order],
        subject_ids=[f"p{i % 5}" for i in range(n)],
        attr_names=("gender", "race"),
    )


def dataset_digest(ds):
    h = hashlib.sha256()
    for t in ds.modalities:
        h.update(t.modality_name.encode() + b"\0" + np.ascontiguousarray(t.samples, "<f8").tobytes())
    for column in (ds.sample_id, ds.subject_id):
        h.update("\n".join(column.tolist()).encode() + b"\0")
    h.update(ds.label.astype("<i8").tobytes() + ds.attrs.astype("<i8").tobytes())
    return h.hexdigest()


class TestPinnedOutput:
    """The augmented bytes are pinned: the draw order is part of the
    contract, so that reports stay byte-stable across rewrites."""

    CASES = {
        ("mixfeat", 1.0, 1.0): "73fb451f5feb267861d9bbe467253efce336899fc85cda7f76c988c478cbe79a",
        ("mixfeat", 0.4, 2.0): "1a751abb1acc370b8c93805978648a34ab713c49eec4cf2fedebe57a9102f122",
        ("random_oversample", 1.0, 1.0): "5cc93fdcac1a0f09b0127cad601b841e29ed622aed191877584671369fd4502f",
    }

    @pytest.mark.parametrize("method,a,b", sorted(CASES))
    def test_augment_dataset_digest(self, method, a, b):
        ds = pinned_dataset()
        out = augment_dataset(ds, method, seed=17, beta_alpha=a, beta_beta=b)
        assert out.n_samples == 5 * 7
        assert dataset_digest(out) == self.CASES[method, a, b]

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.4, 2.0)])
    def test_provenance_variant_gives_the_same_dataset(self, a, b):
        ds = pinned_dataset()
        out, parent_i, parent_j, lams = synthesize(ds, "mixfeat", 17, a, b)
        assert dataset_digest(out) == self.CASES["mixfeat", a, b]
        assert len(parent_i) == len(parent_j) == len(lams) == out.n_samples - ds.n_samples

    # the first 4,000 rows of the benchmark's many_rows shape: cells of
    # hundreds of rows, where the pinned dataset above has at most 7
    MANY_ROWS = {
        ("mixfeat", 1.0, 1.0): "805fa71517a38b047823c8d5e929ded2e9bac5f102c740e80d466f35f98fe2c0",
        ("mixfeat", 0.4, 2.0): "ea1515b314a71b021a322246c2d99e938d9861c328732dba6d76c54161350ded",
        ("random_oversample", 1.0, 1.0): "1b6f875f07d4769023d40d743c44953d597c5ae64a19acb4cbecc7149997284b",
    }

    @pytest.mark.parametrize("method,a,b", sorted(MANY_ROWS))
    def test_synthesize_digest_on_large_cells(self, method, a, b):
        spec = SynthSpec(n_subjects=1000, sessions_per_subject=5,
                         attribute_props=(("gender", 0.75), ("race", 0.7)), seed=3)
        ds = generate(spec).subset(range(4000))
        out, parent_i, parent_j, lams = synthesize(ds, method, 29, a, b)
        h = hashlib.sha256(dataset_digest(out).encode())
        h.update(parent_i.astype("<i8").tobytes() + parent_j.astype("<i8").tobytes())
        h.update(np.ascontiguousarray(lams, "<f8").tobytes())
        assert h.hexdigest() == self.MANY_ROWS[method, a, b]


class TestMixCell:
    """_mix_cell replays rng.choice(c, 2, replace=False) on next_uint32 by
    numpy's bounded-integer rule; if a numpy release changes that rule or
    choice's algorithm, these fail before any report digest moves."""

    # c - 1 and c span one-value ranges (c = 2), heavy rejection (2**31 + 5
    # rejects almost half its draws, so the redraw loops run) and the full
    # 32-bit range
    SIZES = [2, 3, 4, 7, 50, 1000, 2**31 + 5, 2**32]

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.2, 0.5), (0.4, 2.0)])  # both Beta algorithms
    @pytest.mark.parametrize("c", SIZES)
    def test_replays_choice_then_beta(self, c, a, b):
        # the mixfeat draw protocol is rng.choice(c, 2, replace=False) then a
        # sized beta; the cheaper draw must give the same pairs and weights
        # and leave the generator in the same state
        ours, ref = np.random.default_rng(c), np.random.default_rng(c)
        pairs, weights = _mix_cell(ours, c, 300, a, b, 3)
        assert pairs.shape == (300, 2) and weights.shape == (300, 3)
        for (i, j), lam in zip(pairs.tolist(), weights):
            assert (i, j) == tuple(ref.choice(c, 2, replace=False))
            np.testing.assert_array_equal(lam, ref.beta(a, b, size=3))
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_cells_in_turn_keep_the_stream(self):
        # cells of every size in turn, between the sized draws of the other
        # branches (random_oversample's integers, a singleton cell's beta):
        # the replayed draws share the generator's uint32 buffer with them
        ours, ref = np.random.default_rng(17), np.random.default_rng(17)
        for k in range(240):
            c = self.SIZES[k % len(self.SIZES)]
            pairs, weights = _mix_cell(ours, c, 1 + k % 3, 0.4, 2.0, 2)
            for (i, j), lam in zip(pairs.tolist(), weights):
                assert (i, j) == tuple(ref.choice(c, 2, replace=False))
                np.testing.assert_array_equal(lam, ref.beta(0.4, 2.0, size=2))
            if k % 3 == 0:
                np.testing.assert_array_equal(ours.integers(c, size=3), ref.integers(c, size=3))
                np.testing.assert_array_equal(ours.beta(1.0, 1.0, size=(2, 2)),
                                              ref.beta(1.0, 1.0, size=(2, 2)))
        assert ours.bit_generator.state == ref.bit_generator.state


def cells_by_unique(train):
    """The earlier formulation of _cells_of, kept as its oracle."""
    keys, cell_of_row = np.unique(
        np.column_stack([train.attrs, train.label]), axis=0, return_inverse=True
    )
    cell_of_row = cell_of_row.reshape(-1)
    return {
        (tuple(key[:-1]), key[-1]): np.flatnonzero(cell_of_row == c)
        for c, key in enumerate(keys.tolist())
    }


class TestCellsOf:
    def assert_matches_oracle(self, ds):
        ours, ref = _cells_of(ds), cells_by_unique(ds)
        assert list(ours) == list(ref)  # same keys in the same order
        for key, rows in ref.items():
            assert ours[key].dtype == rows.dtype
            np.testing.assert_array_equal(ours[key], rows)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_integer_tables(self, seed):
        # values outside {0, 1}, negative ones included, and 1 to 3 attributes
        rng = np.random.default_rng(seed)
        n, n_attrs = int(rng.integers(2, 400)), int(rng.integers(1, 4))
        attrs = rng.integers(-3, 4, size=(n, n_attrs))
        ds = make_dataset({"m": rng.normal(size=(n, 2))}, rng.integers(-1, 3, n), attrs,
                          attr_names=[f"a{k}" for k in range(n_attrs)])
        self.assert_matches_oracle(ds)

    def test_single_cell(self):
        ds = make_dataset({"m": np.zeros((5, 1))}, [1] * 5, [[0, 1]] * 5, attr_names=("gender", "race"))
        assert list(_cells_of(ds)) == [((0, 1), 1)]
        self.assert_matches_oracle(ds)

    def test_single_row(self):
        ds = make_dataset({"m": np.zeros((1, 1))}, [0], [[1, 0]], attr_names=("gender", "race"))
        self.assert_matches_oracle(ds)

    def test_no_declared_attribute(self):
        ds = make_dataset({"m": np.zeros((6, 1))}, [1, 0, 1, 1, 0, 1], np.empty((6, 0), int),
                          attr_names=())
        assert list(_cells_of(ds)) == [((), 0), ((), 1)]
        self.assert_matches_oracle(ds)
