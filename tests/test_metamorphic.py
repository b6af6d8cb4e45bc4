"""Metamorphic relations: a run gives the same result when its input is
presented differently but holds the same content.

Each relation is exact and is checked on the bundled data and on two
synthgen sets, in all three augmentation arms:
- renaming the sample and subject ids with their sort order kept gives the
  same predictions row for row and the same figures;
- a permutation of the rows gives the same output bytes.
"""

import csv
import pathlib
import shutil

import numpy as np
import pytest

from fairmix.augment import METHODS as AUGMENT_METHODS
from fairmix.cli import main
from fairmix.config import PipelineConfig, load_config
from fairmix.dataset import Dataset, load_dataset
from fairmix.experiment import (
    run_arms,
    write_comparison_markdown,
    write_predictions_csv,
    write_report_json,
)
from fairmix.synthgen import SynthSpec, generate

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def bundled():
    return load_config(str(DATA / "compare_config.txt")), load_dataset(str(DATA / "demo_manifest.txt"))


def synth_mlp_stack():
    spec = SynthSpec(n_subjects=12, sessions_per_subject=3, seed=41,
                     attribute_props=(("gender", 0.7), ("race", 0.6)))
    cfg = PipelineConfig(seed=5, model_kind="mlp", model_hyperparams={"epochs": 10},
                         fusion_strategy="stack_soft", cv_k=4)
    return cfg, generate(spec)


def synth_svm_vote_ungrouped():
    spec = SynthSpec(n_subjects=10, sessions_per_subject=4, seed=42,
                     separation_majority=3.0, separation_minority=1.0)
    cfg = PipelineConfig(seed=9, model_kind="rbf_svm", fusion_strategy="vote_hard",
                         cv_grouped=False, augment_seed=13)
    return cfg, generate(spec)


CASES = {"bundled": bundled, "synth_mlp_stack": synth_mlp_stack,
         "synth_svm_vote_ungrouped": synth_svm_vote_ungrouped}


def run(cfg, ds):
    return dict(zip(AUGMENT_METHODS, run_arms(cfg, ds, AUGMENT_METHODS)))


def output_bytes(reports, attribute_names, out: pathlib.Path) -> dict:
    """Every file the writers make of the arms' reports, by name."""
    write_comparison_markdown(reports, str(out / "report.md"))
    for arm, r in reports.items():
        write_report_json(r, str(out / f"report_{arm}.json"))
        write_predictions_csv(r.predictions, str(out / f"predictions_{arm}.csv"), attribute_names)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def base():
    """Each case's config, dataset and reports, computed once."""
    cache = {}

    def get(case):
        if case not in cache:
            cfg, ds = CASES[case]()
            cache[case] = cfg, ds, run(cfg, ds)
        return cache[case]

    return get


def renamed(ds: Dataset, seed: int):
    """ds with new sample and subject ids that sort as the old ones do, and
    the old id of each new one."""
    old_of = {}

    def rename(ids, stem):
        ranks = np.unique(ids, return_inverse=True)[1]
        # increasing numbers with random gaps: the new ids sort as the old ones
        steps = np.cumsum(np.random.default_rng(seed).integers(1, 50, ranks.max() + 1))
        new = np.array([f"{stem}{steps[r]:06d}" for r in ranks])
        old_of.update(zip(new.tolist(), ids.tolist()))
        return new

    out = Dataset(ds.modalities, rename(ds.sample_id, "row"), rename(ds.subject_id, "p"),
                  ds.label, ds.attrs, ds.declared_attributes)
    return out, old_of


@pytest.mark.parametrize("case", CASES)
def test_order_keeping_id_renaming_changes_no_result(case, base):
    cfg, ds, want = base(case)
    ds2, old_of = renamed(ds, seed=len(case))
    assert sorted(old_of) != sorted(ds.sample_ids())  # the ids did change
    got = run(cfg, ds2)
    for arm in AUGMENT_METHODS:
        a, b = want[arm], got[arm]
        assert [old_of[r.sample_id] for r in b.predictions.records] == \
            [r.sample_id for r in a.predictions.records]
        assert [old_of[r.subject_id] for r in b.predictions.records] == \
            [r.subject_id for r in a.predictions.records]
        for ra, rb in zip(a.predictions.records, b.predictions.records):
            assert (rb.true_label, rb.predicted_label, rb.predicted_proba, rb.attributes) == \
                (ra.true_label, ra.predicted_label, ra.predicted_proba, ra.attributes)
        ja, jb = a.to_json_dict(), b.to_json_dict()
        assert jb["overall"] == ja["overall"]
        assert jb["per_attribute"] == ja["per_attribute"]
        assert jb["cv"]["skipped_folds"] == ja["cv"]["skipped_folds"]
        for fa, fb in zip(ja["per_fold"], jb["per_fold"], strict=True):
            fb = {**fb, "test_subjects": sorted(old_of[s] for s in fb["test_subjects"])}
            assert fb == fa


@pytest.mark.parametrize("case", CASES)
def test_row_permutation_gives_identical_bytes(case, base, tmp_path):
    cfg, ds, want = base(case)
    perm = np.random.default_rng(len(case)).permutation(ds.n_samples)
    shuffled = ds.subset(perm)
    assert shuffled.sample_ids() != ds.sample_ids()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    expected = output_bytes(want, ds.declared_attributes, tmp_path / "a")
    assert output_bytes(run(cfg, shuffled), ds.declared_attributes, tmp_path / "b") == expected


def test_resorted_bundled_csvs_give_identical_compare_bytes(tmp_path):
    """End to end: the metadata and each feature CSV re-sorted on disk, each
    in its own order, give the bytes of the shipped order."""
    shutil.copytree(DATA, tmp_path / "data")
    run_dir = tmp_path / "data"
    outputs = []
    for order in ("shipped", "reversed", "shuffled"):
        if order != "shipped":
            for k, p in enumerate(sorted(run_dir.glob("demo_*.csv"))):
                if p.name.endswith("_levels.csv"):
                    continue
                with open(DATA / p.name, newline="", encoding="utf-8") as fh:
                    header, *rows = list(csv.reader(fh))
                perm = (np.arange(len(rows))[::-1] if order == "reversed"
                        else np.random.default_rng(k).permutation(len(rows)))
                with open(p, "w", newline="", encoding="utf-8") as fh:
                    csv.writer(fh).writerows([header, *(rows[i] for i in perm)])
        assert main(["compare", "--config", str(run_dir / "compare_config.txt"),
                     "--set", f"output_dir={tmp_path / 'out'}"]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())})
    assert len(outputs[0]) == 5
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
