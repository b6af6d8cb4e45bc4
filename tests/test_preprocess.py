import numpy as np
import pytest

from fairmix.dataset import ColumnMeta, ModalityTable
from fairmix.errors import EmptyTableError, FitError, SelectionError
from fairmix.preprocess import fit_column_cleaner, fit_pca, fit_standardizer, select_columns

from conftest import read_only


def table(X, levels=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    levels = levels or ["low"] * X.shape[1]
    return ModalityTable("m", X, tuple(ColumnMeta(f"f{j}", lv) for j, lv in enumerate(levels)))


class TestDropConstantAndNull:
    """fit_column_cleaner drops constant and all-null columns of the rows it
    is fitted on and mean-imputes the remaining gaps."""

    def test_removes_constant_column(self):
        X = np.array([[1.0, 1], [1, 2], [1, 3]])
        cleaner = fit_column_cleaner(X)
        assert cleaner.keep == (1,)
        np.testing.assert_array_equal(cleaner.apply(X), [[1], [2], [3]])

    def test_removes_all_null_column(self):
        cleaner = fit_column_cleaner(np.array([[np.nan, 1], [np.nan, 2]]))
        assert cleaner.keep == (1,)

    def test_imputes_with_column_mean(self):
        X = np.array([[1.0], [np.nan], [3]])
        np.testing.assert_array_equal(fit_column_cleaner(X).apply(X)[:, 0], [1, 2, 3])

    def test_identity_when_nothing_to_remove(self):
        X = np.array([[1.0, 4], [2, 5], [3, 6]])
        cleaner = fit_column_cleaner(X)
        assert cleaner.keep == (0, 1)
        np.testing.assert_array_equal(cleaner.apply(X), X)

    def test_idempotent(self):
        X = np.array([[1.0, 1, np.nan], [1, 2, 5], [1, 3, np.nan]])
        once = fit_column_cleaner(X).apply(X)
        refit = fit_column_cleaner(once)
        assert refit.keep == tuple(range(once.shape[1]))
        np.testing.assert_array_equal(refit.apply(once), once)

    def test_all_columns_removed_errors(self):
        assert issubclass(EmptyTableError, FitError)  # the fold is skipped, not the run
        with pytest.raises(EmptyTableError):
            fit_column_cleaner(np.array([[1, np.nan], [1, np.nan]]))


class TestColumnCleaner:
    def test_train_statistics_apply_to_test(self):
        train = np.array([[1.0, 7.0], [3.0, 7.0]])  # second column constant
        cleaner = fit_column_cleaner(train)
        assert cleaner.keep == (0,)
        test = np.array([[np.nan, 9.0]])
        np.testing.assert_array_equal(cleaner.apply(test), [[2.0]])  # train mean

    def test_means_match_per_column_nanmean_bitwise(self):
        # from 9 rows on, numpy sums in pairwise blocks, so a mean over the
        # whole matrix at once can round differently from a per-column one
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, d = int(rng.integers(9, 60)), int(rng.integers(1, 8))
            X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, d)
            X[rng.random((n, d)) < 0.3] = np.nan
            X[:2] = rng.normal(size=(2, d))  # no column constant or null
            cleaner = fit_column_cleaner(X)
            assert cleaner.keep == tuple(range(d))
            expected = np.array([np.nanmean(X[:, j]) for j in range(d)])
            assert cleaner.impute_means.tobytes() == expected.tobytes()


class TestSelectLevel:
    def test_selects_matching_columns(self):
        t = table(np.arange(15).reshape(3, 5), levels=["high", "low", "high", "low", "low"])
        out = select_columns(t, "high", None)
        assert out.feature_names == ("f0", "f2")

    def test_no_match_errors(self):
        with pytest.raises(SelectionError, match="low"):
            select_columns(table([[1], [2]], levels=["high"]), "low", None)

    def test_identity_when_all_match(self):
        t = table([[1, 2], [3, 4]], levels=["high", "high"])
        np.testing.assert_array_equal(select_columns(t, "high", None).samples, t.samples)


class TestSelectColumns:
    """select_columns keeps the columns tagged with the level ("all": any)
    whose descriptor suffix is in the mask (None: no mask)."""

    NAMES = ["a__mean", "b__std", "c", "d__foo", "e__max", "mean", "g__mean"]
    LEVELS = ["high", "low", "high", "low", "high", "low", "low"]

    def described(self):
        t = table(np.arange(14).reshape(2, 7), levels=self.LEVELS)
        return ModalityTable("m", t.samples, tuple(
            ColumnMeta(name, c.level) for name, c in zip(self.NAMES, t.column_meta)))

    def test_no_filter_returns_the_table_itself(self):
        t = self.described()
        assert select_columns(t, "all", None) is t

    def test_level_only(self):
        out = select_columns(self.described(), "low", None)
        assert out.feature_names == ("b__std", "d__foo", "mean", "g__mean")
        np.testing.assert_array_equal(out.samples, [[1, 3, 5, 6], [8, 10, 12, 13]])

    def test_descriptors_only(self):
        out = select_columns(self.described(), "all", ("mean", "max"))
        assert out.feature_names == ("a__mean", "c", "d__foo", "e__max", "mean", "g__mean")

    def test_level_and_descriptors(self):
        out = select_columns(self.described(), "high", ("std", "max"))
        assert out.feature_names == ("c", "e__max")

    def test_suffixless_and_unknown_suffix_columns_always_pass(self):
        # "mean" has no "__" separator and "foo" is no descriptor
        out = select_columns(self.described(), "all", ("median",))
        assert out.feature_names == ("c", "d__foo", "mean")

    def test_mask_keeping_every_column_returns_the_table_itself(self):
        t = table([[1, 2], [3, 4]])  # names f0, f1: no descriptor suffix
        assert select_columns(t, "low", ("std",)) is t

    def test_empty_level_selection_is_a_selection_error(self):
        t = table([[1, 2], [3, 4]], levels=["low", "low"])
        with pytest.raises(SelectionError, match="no columns tagged 'high'"):
            select_columns(t, "high", ("mean",))

    def test_empty_descriptor_mask_is_a_selection_error(self):
        t = ModalityTable("m", [[1.0, 2.0]], (ColumnMeta("x__mean"), ColumnMeta("y__std")))
        with pytest.raises(SelectionError, match="descriptor mask removed every column"):
            select_columns(t, "all", ("median",))


class TestStandardizer:
    def test_hand_example(self):
        s = fit_standardizer(np.array([[0.0], [2.0]]))
        np.testing.assert_array_equal(s.apply([[1.0]]), [[0.0]])

    def test_constant_column_divide_by_one(self):
        s = fit_standardizer(np.array([[5.0], [5.0]]))
        np.testing.assert_array_equal(s.apply([[7.0]]), [[2.0]])

    def test_training_matrix_centered(self):
        rng = np.random.default_rng(1)
        X = rng.normal(3, 2, size=(50, 4))
        s = fit_standardizer(X)
        out = s.apply(X)
        np.testing.assert_allclose(out.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1, atol=1e-12)

    @pytest.mark.parametrize("column", [
        [1e308, -1e308] * 4,  # the mean is finite, the squares overflow
        [1e308, 1e308, 1e308, 1.0, 2.0],  # the sum overflows
    ])
    def test_overflow_is_a_fit_error(self, column):
        # a numpy RuntimeWarning would fail the test as well
        with pytest.raises(FitError, match="overflows float64"):
            fit_standardizer(np.array(column)[:, None])

    def test_far_test_row_is_named(self):
        # the quotient overflows; a numpy RuntimeWarning would fail the test
        s = fit_standardizer([[1e-150], [2e-150], [3e-150]])
        with pytest.raises(FitError, match=r"^standardized matrix: non-finite value inf at row 0, "
                                           r"column 0$"):
            s.apply([[1e200]])


def pca_oracle(X, target):
    """Independent oracle: full eigendecomposition of the sample covariance."""
    Xc = X - X.mean(axis=0)
    C = np.cov(Xc, rowvar=False, ddof=1)
    evals, evecs = np.linalg.eig(np.atleast_2d(C))
    order = np.argsort(evals.real)[::-1]
    evals = np.clip(evals.real[order], 0, None)
    ratios = evals / evals.sum()
    k = 1
    while np.sum(ratios[:k]) < target - 1e-12:
        k += 1
    return k, ratios, evecs.real[:, order]


class TestPca:
    def test_rank_one_data(self):
        t = np.linspace(0, 1, 10)
        X = np.column_stack([t, t])  # all on the line y=x
        model = fit_pca(X, 0.80)
        assert model.n_components == 1
        np.testing.assert_allclose(model.explained_ratio, [1.0], atol=1e-12)

    def test_isotropic_gaussian_needs_both_components(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(500, 2))
        k_expected, _, _ = pca_oracle(X, 0.80)
        assert k_expected == 2  # each direction explains about half
        assert fit_pca(X, 0.80).n_components == 2

    @pytest.mark.parametrize("X", [np.full((3, 2), 1.7e308),  # the column sum overflows
                                   [[1.7e308, 0.0], [1.7e308, 1.0], [-1.7e308, 2.0]]])  # X - mean
    def test_overflow_in_centring_is_named(self, X):
        with pytest.raises(FitError, match="^a column's mean or centred values overflow float64$"):
            fit_pca(X)

    def test_full_target_keeps_all_on_full_rank_data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        assert fit_pca(X, 1.0).n_components == 5

    def test_orthonormal_components(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 6)) @ np.diag([5, 3, 2, 1, 1, 0.5])
        model = fit_pca(X, 0.9)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(model.n_components), atol=1e-8)

    def test_matches_oracle_up_to_sign(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, d = int(rng.integers(5, 40)), int(rng.integers(2, 10))
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5, size=d)
            model = fit_pca(X, 0.80)
            k, ratios, evecs = pca_oracle(X, 0.80)
            assert model.n_components == k
            np.testing.assert_allclose(model.explained_ratio, ratios[:k], atol=1e-9)
            for i in range(k):
                dot = abs(model.components[i] @ evecs[:, i])
                np.testing.assert_allclose(dot, 1.0, atol=1e-6)

    @pytest.mark.parametrize("shape", ["wide", "rank_deficient", "constant_columns", "d1"])
    def test_matches_oracle_beyond_criterion_4(self, shape):
        rng = np.random.default_rng(8)
        if shape == "wide":  # the wide_pca benchmark shape, n << d
            X = rng.normal(size=(128, 1000)) * rng.uniform(0.1, 5, size=1000)
        elif shape == "rank_deficient":  # rank 3 in 12 dimensions
            X = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 12))
        elif shape == "constant_columns":
            X = rng.normal(size=(20, 6)) * [3, 0, 1, 0, 2, 0.5]
            X[:, [1, 3]] = [4.0, -2.0]
        else:
            X = rng.normal(size=(15, 1))
        model = fit_pca(X, 0.80)
        k, ratios, evecs = pca_oracle(X, 0.80)
        assert model.n_components == k
        np.testing.assert_allclose(model.explained_ratio, ratios[:k], atol=1e-9)
        np.testing.assert_allclose(np.abs(np.sum(model.components * evecs[:, :k].T, axis=1)), 1.0,
                                   atol=1e-6)
        assert model.components.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("shape", [(6, 4), (4, 10)])
    def test_zero_variance_keeps_one_direction(self, shape):
        model = fit_pca(np.full(shape, 3.0), 0.80)
        np.testing.assert_array_equal(model.explained_ratio, [1.0])
        np.testing.assert_array_equal(model.components, np.eye(1, shape[1]))
        np.testing.assert_array_equal(model.apply(np.full((2, shape[1]), 3.0)), np.zeros((2, 1)))
        assert model.components.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("target", [1.0, 1 - 1e-9])
    def test_ill_conditioned_wide_split_stays_orthonormal(self, target):
        # dividing Xc'U by the singular values left these 3.1e-6 (target 1.0)
        # and 2.2e-8 (1 - 1e-9) from orthonormal
        rng = np.random.default_rng(12)
        U, _ = np.linalg.qr(rng.normal(size=(20, 20)))
        V, _ = np.linalg.qr(rng.normal(size=(60, 20)))
        X = (U * np.geomspace(1, 1e-7, 20)) @ V.T
        model = fit_pca(X, target)
        assert model.n_components > 5
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(model.n_components), atol=1e-8)
        assert model.components.flags["C_CONTIGUOUS"]

    def test_directions_at_the_k_rule_floor_stay_orthonormal(self):
        # Cholesky QR could fail only on a kept direction whose variance is
        # at the rounding level of the Gram matrix; the k rule keeps one only
        # while the variance after it exceeds 1e-12 of the total, so a tail
        # of 63 variances of 3e-14 of the largest each has about 20 kept
        rng = np.random.default_rng(13)
        U, _ = np.linalg.qr(rng.normal(size=(64, 64)))
        V, _ = np.linalg.qr(rng.normal(size=(200, 64)))
        s = np.concatenate([[1.0], np.full(63, np.sqrt(2e-12 / 63))])
        model = fit_pca((U * s) @ V.T, 1.0)
        assert model.n_components > 10
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(model.n_components), atol=1e-12)

    @pytest.mark.parametrize("shape", [(30, 6), (8, 40)])
    def test_a_power_of_two_scale_keeps_every_bit(self, shape):
        # the Gram matrix of the unscaled rows overflows at 2**530 and loses
        # its small entries to underflow at 2**-530
        X = np.random.default_rng(14).normal(size=shape)
        model = fit_pca(X, 0.9)
        for scale in (2.0**530, 2.0**-530):
            scaled = fit_pca(X * scale, 0.9)
            np.testing.assert_array_equal(scaled.components, model.components)
            np.testing.assert_array_equal(scaled.explained_ratio, model.explained_ratio)

    @pytest.mark.parametrize("shape", [(30, 6), (8, 40)])
    def test_memory_order_does_not_change_bits(self, shape):
        X = np.random.default_rng(15).normal(size=shape)
        a, b = fit_pca(np.asfortranarray(X), 0.9), fit_pca(np.ascontiguousarray(X), 0.9)
        for got, want in ((a.mean, b.mean), (a.components, b.components),
                          (a.explained_ratio, b.explained_ratio)):
            np.testing.assert_array_equal(got, want)
        assert a.components.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("shape", [(30, 6), (8, 40)])
    def test_no_svd_is_taken(self, shape, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("fit_pca took an SVD")

        monkeypatch.setattr(np.linalg, "svd", svd)
        fit_pca(np.random.default_rng(16).normal(size=shape), 0.9)

    def test_projection_variance_matches_reported_ratio(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 8)) * np.arange(1, 9)
        model = fit_pca(X, 0.80)
        proj = model.apply(X)
        total = np.var(X - X.mean(axis=0), axis=0, ddof=1).sum()
        kept = np.var(proj, axis=0, ddof=1).sum()
        np.testing.assert_allclose(kept / total, model.explained_ratio.sum(), atol=1e-8)

    def test_single_row_rejected(self):
        with pytest.raises(FitError):
            fit_pca(np.array([[1.0, 2.0]]))

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 4))
        a, b = fit_pca(X, 0.9), fit_pca(X.copy(), 0.9)
        np.testing.assert_array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0


class TestReadOnlyInputs:
    """The transforms write only into arrays they made: a read-only input
    gives the bits a writable copy gives, and neither input is changed."""

    @staticmethod
    def chain(X, prepare):
        """Every fit and apply, each given prepare(its input); returns the
        inputs as given and every fitted and transformed array."""
        X = prepare(X)
        cleaner = fit_column_cleaner(X)
        C = prepare(cleaner.apply(X))
        std = fit_standardizer(C)
        Z = prepare(std.apply(C))
        pca = fit_pca(Z, 0.9)
        return [X, C, Z], [cleaner.impute_means, C, std.mean, std.std, Z,
                           pca.mean, pca.components, pca.explained_ratio, pca.apply(Z)]

    # every column kept, and one constant column dropped; tall and wide
    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("shape", [(12, 6), (6, 12)])
    def test_read_only_inputs_give_the_same_bits(self, shape, constant):
        rng = np.random.default_rng(3)
        X = rng.normal(size=shape)
        X[rng.random(shape) < 0.2] = np.nan
        X[:2] = rng.normal(size=(2, shape[1]))  # no column null
        if constant:
            X[:, 2] = 1.0
        given = []

        def copy(A):
            A = np.array(A)
            given.append(A.copy())
            return A

        inputs, writable = self.chain(X, copy)
        for A, before in zip(inputs, given):  # a writable input is left as it was
            assert A.tobytes() == before.tobytes()
        inputs, frozen = self.chain(X, read_only)
        assert [A.tobytes() for A in frozen] == [A.tobytes() for A in writable]
        assert [A.tobytes() for A in inputs] == [A.tobytes() for A in given]
