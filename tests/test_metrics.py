"""Metric tests against an independent brute-force counting oracle
(exact rational arithmetic via fractions)."""

from fractions import Fraction

import numpy as np
import pytest

from fairmix.errors import InputError, MetricUndefinedError
from fairmix.metrics import (
    accuracy,
    counts,
    disparate_impact,
    equal_accuracy,
    f1,
    uar,
)


def preds_from(truth, pred, attr):
    """The true labels, predicted labels and group column as int arrays."""
    return tuple(np.asarray(x, dtype=int) for x in (truth, pred, attr))


# -- oracle: literal counting with Fractions ---------------------------------

def oracle_metrics(truth, pred, attr):
    n = len(truth)
    out = {}
    out["accuracy"] = Fraction(sum(t == p for t, p in zip(truth, pred)), n)
    tp = sum(1 for t, p in zip(truth, pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(truth, pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(truth, pred) if t == 1 and p == 0)
    tn = sum(1 for t, p in zip(truth, pred) if t == 0 and p == 0)
    out["confusion"] = [[tn, fp], [fn, tp]]
    rows = list(zip(attr, truth, pred))
    out["group_confusion"] = [[[rows.count((g, t, p)) for p in (0, 1)] for t in (0, 1)]
                              for g in (0, 1)]
    out["f1"] = None if tp + fp + fn == 0 else Fraction(2 * tp, 2 * tp + fp + fn)
    recalls = []
    for cls in (0, 1):
        members = [(t, p) for t, p in zip(truth, pred) if t == cls]
        recalls.append(
            Fraction(sum(p == cls for _, p in members), len(members)) if members else Fraction(0)
        )
    out["uar"] = (recalls[0] + recalls[1]) / 2
    groups = {g: [(t, p) for t, p, a in zip(truth, pred, attr) if a == g] for g in (0, 1)}
    if groups[0] and groups[1]:
        err = {
            g: Fraction(sum(t != p for t, p in rows), len(rows))
            for g, rows in groups.items()
        }
        out["ea"] = abs(err[1] - err[0])
        pos = {g: Fraction(sum(p == 1 for _, p in rows), len(rows)) for g, rows in groups.items()}
        if pos[1] == 0:
            out["di"] = ("0/0" if pos[0] == 0 else "div-by-zero")
        else:
            out["di"] = pos[0] / pos[1]
    else:
        out["ea"] = out["di"] = "empty-group"
    return out


class TestHandExamples:
    def test_ea_counting_example(self):
        # group 1 errs 2/10, group 0 errs 7/20
        truth = [0] * 10 + [0] * 20
        pred = [1] * 2 + [0] * 8 + [1] * 7 + [0] * 13
        attr = [1] * 10 + [0] * 20
        assert equal_accuracy(*preds_from(truth, pred, attr)) == pytest.approx(0.15, abs=1e-15)

    def test_ea_perfect_classifier(self):
        t, p, g = preds_from([0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1])
        assert equal_accuracy(t, p, g) == 0.0

    def test_ea_extreme_gap(self):
        truth = [1, 1, 0, 0]
        pred = [0, 0, 0, 0]  # group 0 fully wrong, group 1 perfect
        attr = [0, 0, 1, 1]
        assert equal_accuracy(*preds_from(truth, pred, attr)) == 1.0

    def test_di_ratio(self):
        pred = [1] * 3 + [0] * 7 + [1] * 6 + [0] * 4
        attr = [0] * 10 + [1] * 10
        _, p, g = preds_from([0] * 20, pred, attr)
        r = disparate_impact(p, g)
        assert r.value == pytest.approx(0.5, abs=1e-15)

    def test_di_equal_rates_is_one(self):
        _, p, g = preds_from([0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1])
        r = disparate_impact(p, g)
        assert r.value == 1.0

    def test_di_div_by_zero(self):
        _, p, g = preds_from([0, 0], [1, 0], [0, 1])
        r = disparate_impact(p, g)
        assert not r.defined and r.reason == "div-by-zero"

    def test_di_zero_over_zero(self):
        _, p, g = preds_from([0, 0], [0, 0], [0, 1])
        r = disparate_impact(p, g)
        assert not r.defined and r.reason == "0/0"

    def test_empty_group_raises(self):
        with pytest.raises(MetricUndefinedError, match=r"^group A=0 \(minority\) is empty$"):
            equal_accuracy(*preds_from([0, 1], [0, 1], [1, 1]))

    def test_uar_mixed_recalls(self):
        # class 0 recall 0.5, class 1 recall 1.0 -> 0.75
        t, p, _ = preds_from([0, 0, 1, 1], [0, 1, 1, 1], [0, 1, 0, 1])
        assert uar(t, p) == 0.75

    def test_all_positive_predictions(self):
        t, p, _ = preds_from([0, 0, 1, 1], [1, 1, 1, 1], [0, 1, 0, 1])
        assert accuracy(t, p) == 0.5
        assert uar(t, p) == 0.5
        assert f1(t, p) == pytest.approx(2 / 3, abs=1e-15)

    def test_perfect(self):
        t, p, _ = preds_from([0, 1], [0, 1], [0, 1])
        assert accuracy(t, p) == f1(t, p) == uar(t, p) == 1.0

    def test_f1_undefined(self):
        with pytest.raises(InputError):
            f1(*preds_from([0, 0], [0, 0], [0, 1])[:2])


class TestOracleEquivalence:
    def test_thousand_random_prediction_sets(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            n = int(rng.integers(2, 31))
            truth = rng.integers(0, 2, n)
            pred = rng.integers(0, 2, n)
            attr = rng.integers(0, 2, n)
            t, p, g = preds_from(truth, pred, attr)
            o = oracle_metrics(list(truth), list(pred), list(attr))
            assert counts(t, p).tolist() == o["confusion"]
            assert counts(g, t, p).tolist() == o["group_confusion"]
            assert abs(accuracy(t, p) - float(o["accuracy"])) <= 1e-12
            assert abs(uar(t, p) - float(o["uar"])) <= 1e-12
            if o["f1"] is None:
                with pytest.raises(InputError):
                    f1(t, p)
            else:
                assert abs(f1(t, p) - float(o["f1"])) <= 1e-12
            if o["ea"] == "empty-group":
                with pytest.raises(MetricUndefinedError):
                    equal_accuracy(t, p, g)
            else:
                assert abs(equal_accuracy(t, p, g) - float(o["ea"])) <= 1e-12
                di = disparate_impact(p, g)
                if isinstance(o["di"], str):
                    assert not di.defined and di.reason == o["di"]
                else:
                    assert abs(di.value - float(o["di"])) <= 1e-12


class TestScaleInvariance:
    def test_permutation_and_proba_independence(self):
        rng = np.random.default_rng(5)
        n = 25
        truth, pred, attr = (rng.integers(0, 2, n) for _ in range(3))
        attr[:2] = [0, 1]
        rng.random(n)  # keeps the generator where it was, so the permutation is unchanged
        a = preds_from(truth, pred, attr)
        perm = rng.permutation(n)
        b = preds_from(truth[perm], pred[perm], attr[perm])  # shuffled
        assert equal_accuracy(*a) == equal_accuracy(*b)
        da, db = disparate_impact(*a[1:]), disparate_impact(*b[1:])
        assert (da.value, da.reason) == (db.value, db.reason)


class TestCounts:
    def test_two_columns_are_a_confusion_matrix(self):
        t, p, _ = preds_from([0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 1, 1, 1], [0] * 7)
        assert counts(t, p).tolist() == [[1, 2], [1, 3]]  # [[TN, FP], [FN, TP]]

    def test_boolean_and_float_columns(self):
        t, p, g = preds_from([0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 1, 1])
        assert counts(g, t != p).tolist() == [[1, 1], [1, 1]]
        assert counts(g.astype(float), p.astype(float)).tolist() == counts(g, p).tolist()

    def test_one_column_counts_its_values(self):
        assert counts(np.array([1, 1, 0])).tolist() == [1, 2]

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_value_outside_0_1_is_refused(self, bad, at):
        columns = [np.array([0, 1, 0, 1], dtype=float) for _ in range(3)]
        columns[at][2] = bad
        with pytest.raises(InputError, match=r"^expected 0/1 values"):
            counts(*columns)

    @pytest.mark.parametrize("metric,params,bad", [
        (accuracy, "truth pred", "truth"), (accuracy, "truth pred", "pred"),
        (f1, "truth pred", "truth"), (f1, "truth pred", "pred"),
        (uar, "truth pred", "truth"), (uar, "truth pred", "pred"),
        (equal_accuracy, "truth pred group", "truth"), (equal_accuracy, "truth pred group", "pred"),
        (equal_accuracy, "truth pred group", "group"),
        (disparate_impact, "pred group", "pred"), (disparate_impact, "pred group", "group"),
    ])
    def test_every_metric_refuses_a_2_in_what_it_counts(self, metric, params, bad):
        columns = dict(zip(("truth", "pred", "group"),
                           preds_from([0, 1, 1, 0], [0, 1, 0, 1], [0, 1, 0, 1])))
        columns[bad][0] = 2
        with pytest.raises(InputError, match=r"^expected 0/1 values, got \[0, 1, 2\]$"):
            metric(*(columns[name] for name in params.split()))

    @pytest.mark.parametrize("metric", [accuracy, f1, uar, equal_accuracy, disparate_impact])
    @pytest.mark.parametrize("lengths,message", [
        ((0, 0, 0), "expected 0/1 columns, got no rows"),
        ((4, 3, 4), "expected 0/1 columns of one length"),
        ((4, 4, 3), "expected 0/1 columns of one length"),
    ])
    def test_every_metric_refuses_unequal_or_empty_columns(self, metric, lengths, message):
        # plain lists, as a caller of the package API passes them
        columns = [[0, 1, 1, 0][:n] for n in lengths]
        n_params = 3 if metric is equal_accuracy else 2
        with pytest.raises(InputError, match="^" + message):
            metric(*columns[-n_params:])

    def test_plain_lists_are_counted(self):
        assert counts([0, 1, 1], [0, 1, 0]).tolist() == [[1, 0], [1, 1]]
        assert accuracy([0, 1, 1], [0, 1, 0]) == 2 / 3

    def test_a_matrix_is_not_a_column(self):
        with pytest.raises(InputError, match="of one length, got shapes"):
            counts(np.zeros((2, 2), int), np.zeros((2, 2), int))
