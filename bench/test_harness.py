"""Tests of the benchmark's own logic: span arithmetic, the reference
scaling, the percentile summary, metric names, the operation plan and the
per-operation output checks."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import harness
import run
from fairmix import experiment
from fairmix.config import PipelineConfig
from fairmix.metrics import PredictionSet
from fairmix.synthgen import SynthSpec, generate

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        harness.Span("root", 0.0, 10.0, None),
        harness.Span("a", 1.0, 4.0, 0),
        harness.Span("b", 3.0, 6.0, 0),  # overlaps a: the union is [1, 6]
        harness.Span("a.child", 1.0, 2.0, 1),
    ]
    assert harness.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_layer_metrics_split_nested_spans_into_inclusive_and_self_time():
    spans = [
        harness.Span("experiment.run", 0.0, 10.0, None),
        harness.Span("fusion.fit", 2.0, 8.0, 0),
        harness.Span("fusion.stack", 3.0, 6.0, 1),
        harness.Span("models.fit.mlp", 3.5, 5.5, 2),
        harness.Span("models.fit.mlp", 6.5, 7.5, 1),
    ]
    m = harness.layer_metrics(spans, {"models.fit_calls.mlp": 2})
    assert m["experiment.run_s"] == pytest.approx(10.0)
    assert m["experiment.self_s"] == pytest.approx(4.0)
    assert m["fusion.fit_s"] == pytest.approx(6.0)
    assert m["fusion.stack_s"] == pytest.approx(3.0)
    assert m["fusion.self_s"] == pytest.approx((3.0 - 2.0) + (6.0 - 3.0 - 1.0))
    assert m["models.fit_s.mlp"] == pytest.approx(3.0)
    assert m["models.fit_calls.mlp"] == 2
    assert m["models.fit_s.rbf_svm"] == 0.0


def test_tracer_wraps_and_restores():
    class Owner:
        @staticmethod
        def work(x, name="n"):
            return x + 1

    original = Owner.work
    t = harness.Tracer()
    t.wrap(Owner, "work", "layer.work", lambda tr, args, out: tr.count("layer.calls"))
    assert Owner.work(1, name="other") == 2
    t.restore()
    assert Owner.work is original
    assert [s.name for s in t.spans] == ["layer.work"]
    assert t.counts == {"layer.calls": 1}


def test_speed_factor_is_nominal_over_trimmed_mean_reference_time():
    nominal = harness.REF_NOMINAL_S
    assert harness.speed_factor([2 * nominal] * 3) == pytest.approx(0.5)
    # a fast and a slow mode count by their shares; one stall in ten is trimmed
    samples = [nominal] * 6 + [2 * nominal] * 3 + [100 * nominal]
    assert harness.speed_factor(samples) == pytest.approx(1 / ((5 + 2 * 3) / 8))


def test_reference_work_is_deterministic():
    assert harness.reference_work() == harness.reference_work()


def test_summary_reports_median_with_sample_count():
    s = harness.summarize([5.0, 1.0, 3.0, 2.0, 4.0, 9.0])
    assert s["n"] == 6 and s["p50"] == 3.5 and s["tail"] is None


@pytest.mark.parametrize("n,q,rank", [(100, 90.0, 90), (999, 90.0, 900), (1000, 99.0, 990),
                                      (10000, 99.9, 9990)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q, rank):
    s = harness.summarize(range(1, n + 1))
    assert s["n"] == n
    assert s["tail"] == {"q": q, "value": rank}
    assert n - rank >= 10


def test_no_tail_percentile_below_a_hundred_samples():
    assert harness.summarize(range(99))["tail"] is None


def test_every_metric_name_is_well_formed_and_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"] for m in bench["end_to_end"]}
    declared_layer = {m["name"] for m in bench["per_layer"]}
    produced_layer = set(harness.layer_metrics([], {}))
    produced_layer |= set(harness.source_line_counts(ROOT / "src"))
    produced_layer.add("trace.overhead_s")
    assert declared_e2e == set(run.UNITS)
    assert declared_layer == produced_layer
    for name in declared_e2e | declared_layer | {w["name"] for w in bench["workloads"]}:
        assert NAME.fullmatch(name), name
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name in declared_layer:
        assert units[name] == harness.unit_of(name), name
    for name in declared_e2e:
        assert units[name] == run.UNITS[name], name
    assert {w["name"] for w in bench["workloads"]} == set(harness.WORKLOADS) == set(
        run.WORKLOAD_NAMES)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def audited():
    ds = generate(SynthSpec(n_subjects=12, sessions_per_subject=2,
                            attribute_props=(("gender", 0.5),), seed=3))
    assert harness._has_both_groups(ds)
    cfg = PipelineConfig(seed=3, model_kind="logistic", augment_method="mixfeat")
    return ds, cfg, experiment.run_experiment(cfg, ds)


def _with_records(report, edit):
    records = list(report.predictions.records)
    edit(records)
    return dataclasses.replace(report, predictions=PredictionSet(records))


def test_correct_report_passes(audited):
    ds, cfg, report = audited
    assert harness.check_report(report, ds, cfg) == []


def test_wrong_row_count_is_rejected(audited):
    ds, cfg, report = audited
    bad = _with_records(report, lambda r: r.pop())
    assert any("exactly once" in p for p in harness.check_report(bad, ds, cfg))


def test_duplicated_row_is_rejected(audited):
    ds, cfg, report = audited

    def duplicate(records):
        records[-1] = records[0]

    bad = _with_records(report, duplicate)
    assert any("exactly once" in p for p in harness.check_report(bad, ds, cfg))


def test_nan_probability_is_rejected(audited):
    ds, cfg, report = audited

    def nan(records):
        records[0] = dataclasses.replace(records[0], predicted_proba=(float("nan"), 0.5))

    bad = _with_records(report, nan)
    assert any("finite" in p for p in harness.check_report(bad, ds, cfg))


def test_flipped_label_is_rejected(audited):
    ds, cfg, report = audited

    def flip(records):
        records[0] = dataclasses.replace(records[0],
                                         predicted_label=1 - records[0].predicted_label)

    problems = harness.check_report(_with_records(report, flip), ds, cfg)
    assert any("argmax" in p for p in problems)


def test_reported_metric_must_match_recount(audited):
    ds, cfg, report = audited
    bad = dataclasses.replace(report, overall={**report.overall,
                                               "accuracy": report.overall["accuracy"] + 0.01})
    assert any("accuracy" in p for p in harness.check_report(bad, ds, cfg))


def test_undefined_di_is_rejected(audited):
    ds, cfg, report = audited

    def all_negative(records):
        records[:] = [dataclasses.replace(r, predicted_label=0, predicted_proba=(1.0, 0.0))
                      for r in records]

    problems = harness.check_report(_with_records(report, all_negative), ds, cfg)
    assert any("DI is undefined" in p for p in problems)


def test_written_reports_must_reread_to_the_same_values(audited, tmp_path):
    ds, cfg, report = audited
    experiment.write_report_json(report, str(tmp_path / "report.json"))
    experiment.write_predictions_csv(report.predictions, str(tmp_path / "predictions.csv"),
                                     ds.declared_attributes)
    assert harness.check_written(report, tmp_path, ds.declared_attributes) == []
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) + 1e-9)
    lines[1] = ",".join(fields)
    (tmp_path / "predictions.csv").write_text("\n".join(lines) + "\n")
    assert harness.check_written(report, tmp_path, ds.declared_attributes) != []


def test_dataset_seeds_are_deterministic_and_usable():
    kind = harness.MLP_STACK
    seeds = harness.dataset_seeds(kind, 4, 3)
    assert seeds == harness.dataset_seeds(kind, 4, 3)
    assert all(4000 <= s < 5000 for s in seeds)
    for s in seeds:
        assert harness._has_both_groups(generate(dataclasses.replace(kind.spec, seed=s)))
    assert np.all(np.diff(seeds) > 0)


def test_plan_gives_each_kind_its_share_spread_through_the_batch():
    fast = harness.OpKind("fast", harness.MLP_STACK.spec, ("none", "mixfeat"), {}, unit_s=1.0)
    slow = harness.OpKind("slow", harness.MLP_STACK.spec, ("mixfeat",), {}, unit_s=4.0)
    ops = harness.plan_operations(harness.Workload("w", "", (fast, slow)), 2, 16.0)
    kinds = [op.kind.name for op in ops]
    assert kinds.count("fast") == 2 * 8 and kinds.count("slow") == 2
    assert [op.index for op in ops] == list(range(len(ops)))
    # both arms of an audit run back to back, on one dataset and config seed
    for a, b in zip(ops, ops[1:]):
        if a.kind is fast and a.config.augment_method == "none":
            assert b.kind is fast and b.config.augment_method == "mixfeat"
            assert (b.data_seed, b.config.seed) == (a.data_seed, a.config.seed)
    # the slow kind's two audits fall in different halves of the batch
    slow_at = [i for i, k in enumerate(kinds) if k == "slow"]
    assert slow_at[0] < len(ops) / 2 < slow_at[1]
