import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from fairmix.augment import (
    _cells_of, augment_dataset, mix_pair, synthesize,
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
        original_subjects = set(ds.subject_id.tolist())
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
        # a training subject named like the first synthetic one once shared its id
        named_like_synthetic = make_dataset(
            {"m": np.arange(6.0)[:, None]}, labels=[0, 1, 0, 1, 1, 1],
            attrs=[[0], [0], [1], [1], [1], [1]],
            subject_ids=["syn-subject-00001", "s1", "s2", "s3", "s4", "s5"])
        for ds, seed in ((imbalanced_dataset(), 4), (named_like_synthetic, 0)):
            out = augment_dataset(ds, "mixfeat", seed=seed)
            originals = set(ds.subject_id.tolist())
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
        with pytest.raises(InputError, match=r"^beta_alpha: expected a positive finite number, got 0\.0$"):
            synthesize(imbalanced_dataset(), "mixfeat", 0, 0.0, 1.0)
        with pytest.raises(InputError, match=r"^beta_beta: expected a positive finite number, got -1\.0$"):
            augment_dataset(imbalanced_dataset(), "mixfeat", seed=0, beta_beta=-1.0)


@pytest.mark.parametrize("method", ["smote", "", "none"])
def test_unknown_methods_are_rejected(method):
    with pytest.raises(InputError, match=rf"^method: expected one of \('random_oversample', 'mixfeat'\), "
                                         rf"got {method!r}$"):
        synthesize(imbalanced_dataset(), method, seed=0)
    if method != "none":
        with pytest.raises(InputError, match=r"^method: expected one of \('none', 'random_oversample', "
                                             rf"'mixfeat'\), got {method!r}$"):
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


def many_rows_split():
    """The first 4,000 rows of the benchmark's many_rows shape: cells of
    hundreds of rows, where pinned_dataset has at most 7."""
    spec = SynthSpec(n_subjects=1000, sessions_per_subject=5,
                     attribute_props=(("gender", 0.75), ("race", 0.7)), seed=3)
    return generate(spec).subset(range(4000))


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
        ("mixfeat", 1.0, 1.0): "7074ed3ac0383c69616163bce70ff9ec4a0e89048b14ededae3e5ed51389f9a2",
        ("mixfeat", 0.4, 2.0): "91b3e459c093cd655a36f7502e7e0d66d96a9d19e17fd2336adc5d5cce568774",
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

    MANY_ROWS = {
        ("mixfeat", 1.0, 1.0): "1efae7ace2060059b07424b4acca6521699ee602c3e0e14d4f5f09243ea018f7",
        ("mixfeat", 0.4, 2.0): "aa09635e817859f93c94e9b8905de1db56b54864d6fa40a329d0368075fe5e7f",
        ("random_oversample", 1.0, 1.0): "1b6f875f07d4769023d40d743c44953d597c5ae64a19acb4cbecc7149997284b",
    }

    @pytest.mark.parametrize("method,a,b", sorted(MANY_ROWS))
    def test_synthesize_digest_on_large_cells(self, method, a, b):
        ds = many_rows_split()
        out, parent_i, parent_j, lams = synthesize(ds, method, 29, a, b)
        h = hashlib.sha256(dataset_digest(out).encode())
        h.update(parent_i.astype("<i8").tobytes() + parent_j.astype("<i8").tobytes())
        h.update(np.ascontiguousarray(lams, "<f8").tobytes())
        assert h.hexdigest() == self.MANY_ROWS[method, a, b]


def protocol_draws(ds, method, seed, a, b):
    """The module's draw protocol written out on a fresh generator: parent_i,
    parent_j and lams. random_oversample's cells draw only i, and a
    singleton cell draws nothing (its one row twice, weight 1)."""
    rng, n_modalities = np.random.default_rng(seed), len(ds.modalities)
    cells = list(_cells_of(ds).values())
    target = max(map(len, cells))
    parent_i, parent_j, lams = [], [], []
    for rows in cells:
        c, deficit = len(rows), target - len(rows)
        if not deficit:
            continue
        i = rng.integers(c, size=deficit) if c > 1 else np.zeros(deficit, int)
        j, lam = i, np.ones((deficit, n_modalities))
        if method == "mixfeat" and c > 1:
            j = np.array([k if k < first else k + 1
                          for k, first in zip(rng.integers(c - 1, size=deficit).tolist(), i.tolist())])
            lam = rng.beta(a, b, size=(deficit, n_modalities))
        parent_i.append(rows[i])
        parent_j.append(rows[j])
        lams.append(lam)
    return np.concatenate(parent_i), np.concatenate(parent_j), np.concatenate(lams)


class TestDrawProtocol:
    """synthesize draws exactly the protocol of the module docstring, and
    mixfeat's pairs are distinct rows of one cell."""

    CASES = [("mixfeat", 1.0, 1.0), ("mixfeat", 0.4, 2.0), ("mixfeat", 0.2, 0.5),
             ("random_oversample", 1.0, 1.0)]

    @pytest.mark.parametrize("method,a,b", CASES)
    @pytest.mark.parametrize("split,seed", [("pinned", 17), ("many_rows", 29)])
    def test_synthesize_follows_the_protocol(self, split, seed, method, a, b):
        ds = pinned_dataset() if split == "pinned" else many_rows_split()
        out, parent_i, parent_j, lams = synthesize(ds, method, seed, a, b)
        want_i, want_j, want_lams = protocol_draws(ds, method, seed, a, b)
        np.testing.assert_array_equal(parent_i, want_i)
        np.testing.assert_array_equal(parent_j, want_j)
        np.testing.assert_array_equal(lams, want_lams)
        # both parents carry the synthetic row's cell key
        key = np.column_stack([out.attrs, out.label])[ds.n_samples:]
        table = np.column_stack([ds.attrs, ds.label])
        np.testing.assert_array_equal(table[parent_i], key)
        np.testing.assert_array_equal(table[parent_j], key)
        sizes = {cell: len(rows) for cell, rows in _cells_of(ds).items()}
        from_pairs = np.array([sizes[tuple(k[:-1]), k[-1]] > 1 for k in key.tolist()])
        if method == "mixfeat":
            assert (parent_i[from_pairs] != parent_j[from_pairs]).all()
            assert (parent_i[~from_pairs] == parent_j[~from_pairs]).all()
        else:
            np.testing.assert_array_equal(parent_i, parent_j)
            assert (lams == 1.0).all()

    def test_pairs_cover_every_ordered_pair(self):
        # a cell of 3 rows beside one of 60: its 57 pairs reach all 6
        # ordered pairs of distinct rows, both orders of each
        ds = make_dataset({"m": np.arange(63.0).reshape(-1, 1)}, [0] * 3 + [1] * 60, [[1]] * 63)
        _, parent_i, parent_j, _ = synthesize(ds, "mixfeat", seed=8)
        assert set(zip(parent_i.tolist(), parent_j.tolist())) == {
            (i, j) for i in range(3) for j in range(3) if i != j}

    def test_singleton_rows_are_bitwise_copies_and_draw_nothing(self):
        # standard-normal rows, where mixing a row with itself by a random
        # weight changes the last bit of some 6% of the results
        rng = np.random.default_rng(41)
        labels = [0] + [1] * 2 + [0] * 40 + [1] * 40
        attrs = [[0]] * 3 + [[1]] * 80  # cells: ((0,), 0) x1, ((0,), 1) x2, ((1,), 0/1) x40
        ds = make_dataset({"a": rng.normal(size=(83, 150)), "b": rng.normal(size=(83, 100))},
                          labels, attrs)
        out, parent_i, parent_j, lams = synthesize(ds, "mixfeat", seed=3)
        copies = slice(0, 39)  # the singleton cell comes first in key order
        assert (parent_i[copies] == 0).all() and (parent_j[copies] == 0).all()
        assert (lams[copies] == 1.0).all()
        for t in ds.modalities:
            synth = out.modality(t.modality_name).samples[ds.n_samples:][copies]
            assert synth.tobytes() == np.tile(t.samples[0], (39, 1)).tobytes()
        # the next cell's draws start on a fresh generator's state
        rng = np.random.default_rng(3)
        first = rng.integers(2, size=38)
        np.testing.assert_array_equal(parent_i[39:], 1 + first)
        np.testing.assert_array_equal(parent_j[39:], 2 - first)  # integers(1) draws nothing
        np.testing.assert_array_equal(lams[39:], rng.beta(1.0, 1.0, size=(38, 2)))


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
        # values outside {0, 1}, negative ones included, and 1 to 3 attributes;
        # a Dataset refuses such values, so the two columns come bare
        rng = np.random.default_rng(seed)
        n, n_attrs = int(rng.integers(2, 400)), int(rng.integers(1, 4))
        columns = SimpleNamespace(attrs=rng.integers(-3, 4, size=(n, n_attrs)),
                                  label=rng.integers(-1, 3, n))
        self.assert_matches_oracle(columns)

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
