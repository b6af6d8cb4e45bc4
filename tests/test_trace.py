"""The benchmark's traced run (`bench/harness.py`, `--trace 1`) wraps package
functions by name and reads attributes of their results. This runs it on a
small experiment per model kind, so that renaming or deleting something it
needs fails here and not only in the benchmark."""

import importlib
from pathlib import Path

import pytest

from fairmix import experiment
from fairmix.config import PipelineConfig
from fairmix.synthgen import SynthSpec, generate

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("harness")


def test_traced_run_counts_every_layer_and_restores_the_originals(harness):
    ds = generate(SynthSpec(n_subjects=12, sessions_per_subject=2,
                            attribute_props=(("gender", 0.5),), seed=3))
    tracer = harness.install_tracer()
    patches = list(tracer._patches)
    try:
        assert patches
        for kind in ("logistic", "rbf_svm", "mlp"):
            cfg = PipelineConfig(seed=3, model_kind=kind, augment_method="mixfeat", cv_k=2)
            experiment.run_experiment(cfg, ds)
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"
    m = harness.layer_metrics(tracer.spans, tracer.counts)
    assert m["augment.calls"] > 0 and m["augment.synthetic_rows"] > 0
    assert m["preprocess.pca_calls"] > 0
    assert m["metrics.calls"] > 0
    for kind in ("logistic", "rbf_svm", "mlp"):
        assert m[f"models.fit_calls.{kind}"] > 0, kind
        assert m[f"models.fit_rows.{kind}"] > 0, kind
