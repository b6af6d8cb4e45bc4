import csv
import hashlib
import json
import os
import pathlib
import re
import stat
import subprocess
import sys

import pytest

import fairmix.config
from fairmix.cli import main
from fairmix.config import KEYS, build_config, load_config, synth_spec_to_dict
from fairmix.dataset import RESERVED_ATTRIBUTES
from fairmix.errors import ConfigError, DegenerateGroupWarning
from fairmix.synthgen import SynthSpec

SYNTH_SPEC = """\
n_subjects=14
sessions_per_subject=3
modality.face=4
modality.audio=3
attribute.gender=0.7
base_rate_majority=0.5
base_rate_minority=0.5
separation_majority=2.0
separation_minority=1.0
seed=5
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "synth.txt").write_text(SYNTH_SPEC)
    (tmp_path / "config.txt").write_text(
        "dataset.synth=synth.txt\n"
        "model.kind=logistic\n"
        "fusion.strategy=early\n"
        "cv.mode=kfold\n"
        "cv.k=4\n"
        "seed=3\n"
        f"output_dir={tmp_path / 'out'}\n"
    )
    return tmp_path


class TestConfig:
    def test_required_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            build_config({"dataset.manifest": "x"})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="fusion.strategee"):
            build_config({"seed": "1", "dataset.manifest": "x", "fusion.strategee": "early"})

    def test_bad_fusion_strategy_named(self, workdir):
        with pytest.raises(ConfigError, match="fusion.strategy"):
            load_config(str(workdir / "config.txt"), {"fusion.strategy": "median"})

    def test_model_hyperparams_collected(self, workdir):
        cfg = load_config(str(workdir / "config.txt"), {"model.kind": "mlp", "model.epochs": "50"})
        assert cfg.model_hyperparams["epochs"] == 50

    # every key, the PipelineConfig field it sets, a non-default text and
    # its parsed value (paths are joined to the base directory "conf")
    KEY_FIELDS = {
        "seed": ("seed", "9", 9),
        "dataset.manifest": ("manifest", "m.txt", "conf/m.txt"),
        "dataset.synth": ("synth_spec", "synth.txt", SynthSpec(n_subjects=9, seed=5)),
        "modalities": ("modalities", "face, audio", ("face", "audio")),
        "features.level": ("level", "low", "low"),
        "features.descriptors": ("descriptors", "std,max", ("std", "max")),
        "pca.enabled": ("pca_enabled", "no", False),
        "pca.target_ratio": ("pca_target_ratio", "0.5", 0.5),
        "augment.method": ("augment_method", "mixfeat", "mixfeat"),
        "augment.beta_alpha": ("beta_alpha", "2.5", 2.5),
        "augment.beta_beta": ("beta_beta", "0.5", 0.5),
        "augment.seed": ("augment_seed", "11", 11),
        "model.kind": ("model_kind", "mlp", "mlp"),
        "fusion.strategy": ("fusion_strategy", "vote_soft", "vote_soft"),
        "fusion.meta_kind": ("meta_kind", "mlp", "mlp"),
        "cv.mode": ("cv_mode", "loso", "loso"),
        "cv.k": ("cv_k", "3", 3),
        "cv.grouped": ("cv_grouped", "false", False),
        "output_dir": ("output_dir", "out", "conf/out"),
    }

    def test_every_key_reaches_its_field(self, tmp_path, monkeypatch):
        assert set(self.KEY_FIELDS) == set(KEYS)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "conf").mkdir()
        (tmp_path / "conf" / "synth.txt").write_text("n_subjects=9\nseed=5\n")
        for key, (name, text, value) in self.KEY_FIELDS.items():
            kv = {"seed": "1", "dataset.manifest": "m.txt"}
            if key == "dataset.synth":
                del kv["dataset.manifest"]
            cfg = build_config({**kv, key: text}, base_dir="conf")
            assert getattr(cfg, name) == value, key
            flat = cfg.to_flat_dict()
            assert (key in flat) == (key != "output_dir"), key
            if isinstance(value, SynthSpec):
                value = synth_spec_to_dict(value)
            if key in flat:
                assert flat[key] == (list(value) if isinstance(value, tuple) else value), key

    def test_docstring_lists_every_key(self):
        # the schema is declared once, as KEYS; the module docstring is its written copy
        doc = fairmix.config.__doc__
        listed = re.findall(r"(?:^    |\| )([\w.<>]+)=", doc, re.MULTILINE)
        assert listed == [*KEYS, "model.<hyperparam>"]

    def test_dataset_source_exclusive(self):
        with pytest.raises(ConfigError):
            build_config({"seed": "1"})
        with pytest.raises(ConfigError):
            build_config({"seed": "1", "dataset.manifest": "a", "dataset.synth": "b"})


class TestAudit:
    def test_happy_path_writes_reports(self, workdir):
        rc = main(["audit", "--config", str(workdir / "config.txt")])
        assert rc == 0
        out = workdir / "out"
        assert (out / "report.json").exists()
        assert (out / "report.md").exists()
        assert (out / "predictions.csv").exists()
        data = json.loads((out / "report.json").read_text())
        assert data["seed"] == 3

    def test_unknown_fusion_strategy_exit_2(self, workdir, capsys):
        rc = main(["audit", "--config", str(workdir / "config.txt"),
                   "--set", "fusion.strategy=bogus"])
        assert rc == 2
        assert "fusion.strategy" in capsys.readouterr().err

    def test_single_group_attribute_reports_undefined(self, workdir):
        (workdir / "synth1.txt").write_text(SYNTH_SPEC.replace("attribute.gender=0.7", "attribute.gender=1.0"))
        with pytest.warns(UserWarning, match="single group"):
            rc = main(["audit", "--config", str(workdir / "config.txt"),
                       "--set", "dataset.synth=synth1.txt"])
        assert rc == 0
        data = json.loads((workdir / "out" / "report.json").read_text())
        assert data["per_attribute"]["gender"]["ea"] is None
        assert data["per_attribute"]["gender"]["di_reason"] == (
            "attribute 'gender': group A=0 (minority) is empty")

    def test_env_seed_override(self, workdir, monkeypatch):
        monkeypatch.setenv("FAIRMIX_SEED", "99")
        assert main(["audit", "--config", str(workdir / "config.txt")]) == 0
        data = json.loads((workdir / "out" / "report.json").read_text())
        assert data["seed"] == 99

    def test_unwritable_output_dir_exit_3(self, workdir, capsys):
        (workdir / "file").write_text("")
        rc = main(["audit", "--config", str(workdir / "config.txt"),
                   "--set", f"output_dir={workdir / 'file' / 'out'}"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("data error: cannot write ")

    def test_non_finite_predictions_exit_4(self, tmp_path, capsys):
        # Adam at this rate overflows: the fit names it without a numpy warning,
        # every fold is skipped, nothing is written
        rc = main(["audit", "--config", str(BUNDLED_AUDIT), "--set", f"output_dir={tmp_path}",
                   "--set", "model.kind=mlp", "--set", "model.learning_rate=1e300",
                   "--set", "model.epochs=3"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == "experiment error: every fold was skipped: MLP loss is not finite\n"
        assert not list(tmp_path.iterdir())

    def test_unallocatable_mlp_exit_4(self, tmp_path, capsys):
        rc = main(["audit", "--config", str(BUNDLED_AUDIT), "--set", f"output_dir={tmp_path}",
                   "--set", "model.kind=mlp", "--set", "model.hidden_units=2000000000000000000"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("experiment error: every fold was skipped: "
                              "hidden_units 2000000000000000000: cannot allocate the MLP's arrays (")
        assert not list(tmp_path.iterdir())

    @staticmethod
    def _rewritten_synth_config(workdir, **rewrites):
        """The workdir config over its synthetic dataset, with the lines of
        each named CSV (file stem as keyword) passed through its rewrite."""
        assert main(["synth", "--spec", str(workdir / "synth.txt"),
                     "--out", str(workdir / "ds")]) == 0
        for stem, rewrite in rewrites.items():
            path = workdir / "ds" / f"{stem}.csv"
            path.write_text("\n".join(rewrite(path.read_text().splitlines())) + "\n")
        config = workdir / "config.txt"
        config.write_text(config.read_text().replace(
            "dataset.synth=synth.txt", "dataset.manifest=ds/data_manifest.txt"))
        return str(config)

    @staticmethod
    def _float64_limit_config(workdir, rows):
        """The workdir config over a dataset whose first face column holds
        1e308 / -1e308 in the given rows: finite values whose sum or squares
        overflow."""
        def limit(lines):
            for r in rows or range(1, len(lines)):
                cells = lines[r].split(",")
                cells[1] = "1e308" if r % 2 else "-1e308"
                lines[r] = ",".join(cells)
            return lines

        return TestAudit._rewritten_synth_config(workdir, data_face=limit)

    # a numpy RuntimeWarning fails either test as well
    def test_float64_limit_column_exit_4(self, workdir, capsys):
        assert main(["audit", "--config", self._float64_limit_config(workdir, None)]) == 4
        assert capsys.readouterr().err == ("experiment error: every fold was skipped: "
                                           "column mean or standard deviation overflows float64\n")
        assert not (workdir / "out").exists()

    def test_float64_limit_cells_skip_their_training_folds(self, workdir):
        # with five folds, the fold that tests these rows scores them with an
        # overflowing product
        assert main(["audit", "--config", self._float64_limit_config(workdir, [1, 2, 3]),
                     "--set", "cv.k=5"]) == 0
        report = json.loads((workdir / "out" / "report.json").read_text())
        reasons = {s["reason"] for s in report["cv"]["skipped_folds"]}
        assert "column mean or standard deviation overflows float64" in reasons

    def test_modality_constant_everywhere_exit_4(self, workdir, capsys):
        config = self._rewritten_synth_config(workdir, data_audio=lambda lines: [
            lines[0], *(line.split(",")[0] + ",1,1,1" for line in lines[1:])])
        assert main(["audit", "--config", config]) == 4
        assert capsys.readouterr().err == (
            "experiment error: every fold was skipped: modality 'audio': "
            "every column is constant or null on the training split\n")
        assert not (workdir / "out").exists()

    def test_descriptor_mask_emptying_a_modality_exit_2(self, workdir, capsys):
        def suffixed(lines):  # every face feature named "<feature>__mean"
            return [re.sub(r"(face_f\d+)", r"\1__mean", line) for line in lines]

        config = self._rewritten_synth_config(workdir, data_face=suffixed,
                                              data_face_levels=suffixed)
        assert main(["audit", "--config", config, "--set", "features.descriptors=mean"]) == 0
        capsys.readouterr()
        assert main(["audit", "--config", config, "--set", "features.descriptors=std"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: modality 'face': descriptor mask removed every column\n")

    def test_missing_manifest_exit_3(self, workdir):
        (workdir / "bad.txt").write_text("dataset.manifest=nope.txt\nseed=1\n")
        rc = main(["audit", "--config", str(workdir / "bad.txt")])
        assert rc == 3

    @pytest.mark.parametrize("in_manifest", [False, True])
    def test_path_holding_a_nul_exit_3(self, workdir, capsys, in_manifest):
        # open() raises ValueError, not OSError, for such a path
        assert main(["synth", "--spec", str(workdir / "synth.txt"),
                     "--out", str(workdir / "ds")]) == 0
        manifest = next((workdir / "ds").glob("*manifest*"))
        if in_manifest:
            text = manifest.read_text()
            metadata = re.search(r"^metadata=(.*)$", text, re.M)[1]
            manifest.write_text(text.replace(f"metadata={metadata}", f"metadata=x\0{metadata}"))
            bad = f"{workdir / 'ds'}{os.sep}x\0{metadata}"
        else:
            manifest = bad = f"{manifest}\0"
        (workdir / "config.txt").write_text(f"seed=1\ndataset.manifest={manifest}\n")
        assert main(["audit", "--config", str(workdir / "config.txt")]) == 3
        what = "" if in_manifest else "manifest "
        assert capsys.readouterr().err.splitlines()[0] == (
            f"data error: cannot read {what}{bad}: embedded null byte")

    @pytest.mark.parametrize("command", ["audit", "validate"])
    def test_synth_path_holding_a_nul_exit_2(self, workdir, capsys, command):
        (workdir / "config.txt").write_text("seed=1\ndataset.synth=a\0b.txt\n")
        assert main([command, "--config", str(workdir / "config.txt")]) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            f"configuration error: cannot read {workdir / 'a'}\0b.txt: embedded null byte")

    def test_output_dir_holding_a_nul_exit_3(self, workdir, capsys):
        (workdir / "config.txt").write_text("seed=1\ndataset.synth=synth.txt\noutput_dir=o\0ut\n")
        assert main(["audit", "--config", str(workdir / "config.txt")]) == 3
        assert capsys.readouterr().err.splitlines()[0] == (
            f"data error: cannot write {workdir / 'o'}\0ut{os.sep}report.json: embedded null byte")


class TestCompare:
    def test_three_arms_shared_folds(self, workdir):
        rc = main(["compare", "--config", str(workdir / "config.txt")])
        assert rc == 0
        data = json.loads((workdir / "out" / "report.json").read_text())
        assert set(data["arms"]) == {"none", "random_oversample", "mixfeat"}
        fps = [tuple(a["cv"]["fold_fingerprints"]) for a in data["arms"].values()]
        assert len(set(fps)) == 1
        md = (workdir / "out" / "report.md").read_text()
        assert "mixfeat" in md and "Overall Acc" in md

    def test_byte_identical_reruns(self, workdir):
        main(["compare", "--config", str(workdir / "config.txt")])
        first = (workdir / "out" / "report.json").read_bytes()
        main(["compare", "--config", str(workdir / "config.txt")])
        assert (workdir / "out" / "report.json").read_bytes() == first


class TestBlasThreadCount:
    """README's byte-stability scope on the smallest shape found to test it:
    8 rows of 99 columns, logistic early fusion, no PCA. Each Newton step
    solves a 100 x 100 system, the size from which OpenBLAS's LU runs
    threaded, so 1 and 2 threads rounded the probabilities differently (by
    up to 2.2e-16 with OpenBLAS 0.3.31 on a 2-core x86-64) until the folds
    ran at one BLAS thread (parallel.map_folds). Labels, metrics and the
    bytes of report.json and predictions.csv must agree."""

    def test_one_and_two_openblas_threads_agree(self, tmp_path):
        (tmp_path / "synth.txt").write_text("n_subjects=4\nsessions_per_subject=2\n"
                                            "modality.face=99\nattribute.gender=0.7\nseed=5\n")
        (tmp_path / "config.txt").write_text("dataset.synth=synth.txt\nmodel.kind=logistic\n"
                                             "fusion.strategy=early\npca.enabled=false\nseed=3\n")
        src = os.path.dirname(os.path.dirname(fairmix.config.__file__))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "fairmix.cli", "audit",
                            "--config", str(tmp_path / "config.txt"), "--set", f"output_dir={out}"],
                           env=env, check=True, capture_output=True, timeout=120)
            report = json.loads((out / "report.json").read_text())
            with open(out / "predictions.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            runs.append(({k: report[k] for k in ("cv", "overall", "per_attribute", "per_fold")},
                         [(r["sample_id"], r["predicted_label"]) for r in rows],
                         [(out / name).read_bytes() for name in ("report.json", "predictions.csv")]))
        (metrics1, labels1, bytes1), (metrics2, labels2, bytes2) = runs
        assert len(labels1) == 8
        assert labels1 == labels2
        assert metrics1 == metrics2
        assert bytes1 == bytes2


BUNDLED_AUDIT = pathlib.Path(__file__).resolve().parent.parent / "data" / "audit_config.txt"


class TestConfigRejections:
    @pytest.mark.parametrize("command", ["audit", "validate"])
    @pytest.mark.parametrize("overrides, env_seed, key", [
        (["seed=-1"], None, "seed"),
        ([], "-1", "seed"),
        (["augment.seed=-1"], None, "augment.seed"),
        (["model.seed=-1"], None, "model.seed"),
        (["model.kind=logistic", "model.seed=3"], None, "model.seed"),  # logistic takes no seed
        (["model.hidden_units=3"], None, "model.hidden_units"),  # not an rbf_svm hyperparameter
        (["model.kind=mlp", "model.learning_rate=nan"], None, "model.learning_rate"),
        (["augment.beta_alpha=inf"], None, "augment.beta_alpha"),
        (["augment.beta_alpha=0"], None, "augment.beta_alpha"),
        (["model.C=0"], None, "model.C"),
        (["model.kind=mlp", "model.epochs=0"], None, "model.epochs"),
        (["model.tol=0"], None, "model.tol"),
        (["model.max_passes=5"], None, "model.max_passes"),  # not a hyperparameter any more
        (["model.kind=logistic", "model.max_iter=0"], None, "model.max_iter"),
        (["model.kind=mlp", "model.l2=-5"], None, "model.l2"),
        (["model.kind=mlp", "model.learning_rate=0"], None, "model.learning_rate"),
        (["model.kind=mlp", "model.batch_size=0"], None, "model.batch_size"),
        (["features.descriptors="], None, "features.descriptors"),  # an empty mask is not no mask
    ])
    def test_rejected_with_exit_2(self, command, overrides, env_seed, key, tmp_path,
                                  monkeypatch, capsys):
        if env_seed is not None:
            monkeypatch.setenv("FAIRMIX_SEED", env_seed)
        args = [command, "--config", str(BUNDLED_AUDIT), "--set", f"output_dir={tmp_path}"]
        for kv in overrides:
            args += ["--set", kv]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and key in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["synth", "audit"])
    def test_unknown_synth_key_exit_2(self, command, workdir, capsys):
        (workdir / "synth.txt").write_text(SYNTH_SPEC.replace("n_subjects=", "n_subject="))
        args = {"synth": ["synth", "--spec", str(workdir / "synth.txt"), "--out", str(workdir / "ds")],
                "audit": ["audit", "--config", str(workdir / "config.txt")]}[command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "unknown synth keys ['n_subject']" in err
        assert not (workdir / "ds").exists() and not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "audit"])
    @pytest.mark.parametrize("name", ["sample_id", "subject_id", "label", "true_label", "proba_1"])
    def test_synth_attribute_named_like_a_column_exit_2(self, command, name, workdir, capsys):
        (workdir / "synth.txt").write_text(SYNTH_SPEC + f"attribute.{name}=0.5\n")
        args = {"synth": ["synth", "--spec", str(workdir / "synth.txt"), "--out", str(workdir / "ds")],
                "audit": ["audit", "--config", str(workdir / "config.txt")]}[command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"attribute {name!r} {RESERVED_ATTRIBUTES[name]}" in err
        assert not (workdir / "ds").exists() and not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "audit", "validate"])
    @pytest.mark.parametrize("line, named", [
        ("modality.=3", "modality '' has an empty name"),
        ("attribute.=0.5", "attribute '' has an empty name"),
        ("attribute.pa_score=0.5", "attribute 'pa_score' is an outcome column name"),
    ])
    def test_synth_name_a_saved_dataset_cannot_carry_exit_2(self, command, line, named, workdir,
                                                            capsys):
        (workdir / "synth.txt").write_text(SYNTH_SPEC + line + "\n")
        args = {"synth": ["synth", "--spec", str(workdir / "synth.txt"), "--out", str(workdir / "ds")],
                "audit": ["audit", "--config", str(workdir / "config.txt")],
                "validate": ["validate", "--config", str(workdir / "config.txt")]}[command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and named in err
        assert not (workdir / "ds").exists() and not (workdir / "out").exists()

    def test_hyperparameter_of_another_kind_names_the_kinds_own(self, capsys):
        args = ["validate", "--config", str(BUNDLED_AUDIT),
                "--set", "model.kind=logistic", "--set", "model.seed=3"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "model.seed" in err and "['l2', 'max_iter']" in err

    @pytest.mark.parametrize("command", ["audit", "validate"])
    def test_set_without_equals_exit_2(self, command, workdir, capsys):
        assert main([command, "--config", str(workdir / "config.txt"), "--set", "foo"]) == 2
        assert "configuration error: --set expects key=value, got 'foo'" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_unknown_modality_named(self, workdir, capsys):
        rc = main(["audit", "--config", str(workdir / "config.txt"),
                   "--set", "modalities=face,nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'nope'" in err and "'face'" in err and "'audio'" in err

    def test_repeated_modality_rejected(self, workdir, capsys):
        rc = main(["audit", "--config", str(workdir / "config.txt"),
                   "--set", "modalities=face,face", "--set", "fusion.strategy=stack_soft"])
        assert rc == 2
        assert "modalities: expected distinct names, got 'face,face'" in capsys.readouterr().err


class TestSynthSpecRejections:
    """A synth spec that its parser or SynthSpec rejects ends validate and
    audit alike: exit 2, the same first stderr line, and no file written."""

    # an edit of SYNTH_SPEC (old text, new text; no old text appends) and what
    # the error names
    CASES = {
        "no_equals": (b"", b"not a key value line\n", "expected key=value"),
        "duplicate_key": (b"", b"seed=2\n", "duplicate key 'seed'"),
        "not_utf8": (b"", b"note=caf\xe9\n", "not UTF-8 text"),
        "unknown_key": (b"n_subjects=", b"n_subject=", "unknown synth keys ['n_subject']"),
        "non_numeric": (b"n_subjects=14", b"n_subjects=many", "n_subjects"),
        "no_subjects": (b"n_subjects=14", b"n_subjects=0", "n_subjects: expected an integer >= 1, got '0'"),
        "zero_dim": (b"modality.face=4", b"modality.face=0",
                     "modality.face: expected an integer >= 1, got '0'"),
        "too_many_rows": (b"n_subjects=14", b"n_subjects=1000000000000", "more than MAX_ROWS"),
        # the parser refuses these before SynthSpec, which refuses them too
        "negative_seed": (b"seed=5", b"seed=-1", "seed: expected a non-negative integer, got '-1'"),
        "fractional_seed": (b"seed=5", b"seed=1.5",
                            "seed: expected a non-negative integer, got '1.5'"),
        "fractional_subjects": (b"n_subjects=14", b"n_subjects=2.5",
                                "n_subjects: expected an integer >= 1, got '2.5'"),
        "fractional_dim": (b"modality.face=4", b"modality.face=2.5",
                           "modality.face: expected an integer >= 1, got '2.5'"),
        "empty_modality_name": (b"", b"modality.=3\n", "modality '' has an empty name"),
        "empty_attribute_name": (b"", b"attribute.=0.5\n", "attribute '' has an empty name"),
        "modality_edge_space": (b"modality.face=", b"modality. face=",
                                "modality ' face' has leading or trailing whitespace"),
        **{f"attribute_{name}": (b"", f"attribute.{name}=0.5\n".encode(),
                                 f"attribute {name!r} {RESERVED_ATTRIBUTES[name]}")
           for name in ("sample_id", "subject_id", "pa_score", "label", "true_label", "proba_1")},
        "proportion": (b"gender=0.7", b"gender=1.5",
                       "attribute.gender: expected a number in [0, 1], got '1.5'"),
        "noise_std": (b"", b"noise_std=0\n", "noise_std: expected a positive finite number, got '0'"),
        "separation": (b"separation_minority=1.0", b"separation_minority=-1",
                       "separation_minority: expected a non-negative finite number, got '-1'"),
        "bias_attribute": (b"", b"bias_attribute=race\n", "bias_attribute 'race' not among"),
        "base_rate_majority": (b"base_rate_majority=0.5", b"base_rate_majority=2",
                               "base_rate_majority: expected a number in [0, 1], got '2'"),
        "base_rate_minority": (b"base_rate_minority=0.5", b"base_rate_minority=-1",
                               "base_rate_minority: expected a number in [0, 1], got '-1'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_validate_and_audit_agree(self, case, workdir, capsys):
        old, new, named = self.CASES[case]
        spec = SYNTH_SPEC.encode()
        (workdir / "synth.txt").write_bytes(spec.replace(old, new, 1) if old else spec + new)
        before = sorted(workdir.rglob("*"))
        first_lines = []
        for command in ("validate", "audit"):
            assert main([command, "--config", str(workdir / "config.txt")]) == 2
            first_lines.append(capsys.readouterr().err.splitlines()[0])
        assert first_lines[0] == first_lines[1]
        assert first_lines[0].startswith("configuration error: ") and named in first_lines[0]
        assert sorted(workdir.rglob("*")) == before


class TestKeyValueSyntax:
    """A line without '=', a repeated key or text that is not UTF-8 is a
    configuration error (exit 2) in a config or synth spec, and a data error
    (exit 3) in a manifest."""

    # a line appended to a valid file, the reason the error names, and the
    # line number it names (a decoding error names none)
    BAD = {
        "no_equals": (b"not a key value line\n", "expected key=value", ":2"),
        "duplicate": (b"seed=2\n", "duplicate key 'seed'", ":2"),
        "not_utf8": (b"note=caf\xe9\n", "not UTF-8 text", ""),
    }

    @pytest.mark.parametrize("command", ["validate", "audit"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_config_exit_2(self, command, case, tmp_path, capsys):
        line, reason, where = self.BAD[case]
        (tmp_path / "bad.txt").write_bytes(b"seed=1\n" + line)
        assert main([command, "--config", str(tmp_path / "bad.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and f"bad.txt{where}: {reason}" in err

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_synth_spec_exit_2(self, case, workdir, capsys):
        line, reason, _ = self.BAD[case]
        (workdir / "synth.txt").write_bytes(SYNTH_SPEC.encode() + line)
        assert main(["synth", "--spec", str(workdir / "synth.txt"),
                     "--out", str(workdir / "ds")]) == 2
        assert main(["validate", "--config", str(workdir / "config.txt")]) == 2  # dataset.synth
        err = capsys.readouterr().err
        assert err.count("configuration error: ") == 2 and err.count(reason) == 2

    def test_manifest_stays_exit_3(self, workdir, capsys):
        assert main(["synth", "--spec", str(workdir / "synth.txt"),
                     "--out", str(workdir / "ds")]) == 0
        manifest = next((workdir / "ds").glob("*manifest*"))
        manifest.write_text(manifest.read_text() + "not a key value line\n")
        (workdir / "config.txt").write_text(f"seed=1\ndataset.manifest={manifest}\n")
        assert main(["audit", "--config", str(workdir / "config.txt")]) == 3
        assert capsys.readouterr().err.startswith("data error: ")

    def test_manifest_not_utf8_stays_exit_3(self, workdir, capsys):
        assert main(["synth", "--spec", str(workdir / "synth.txt"),
                     "--out", str(workdir / "ds")]) == 0
        manifest = next((workdir / "ds").glob("*manifest*"))
        manifest.write_bytes(manifest.read_bytes() + self.BAD["not_utf8"][0])
        (workdir / "config.txt").write_text(f"seed=1\ndataset.manifest={manifest}\n")
        assert main(["audit", "--config", str(workdir / "config.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "not UTF-8 text" in err


class TestLoaderErrors:
    """A feature named twice, an empty modality name, a feature row missing
    from the metadata, a feature file without feature columns, a levels row
    with extra cells or a level other than high or low, and a metadata
    attribute that is unnamed or named like a fixed column, either outcome
    or a predictions.csv column are data errors (exit 3)."""

    # the file edited in a materialized dataset, the edit, and what the
    # message names
    EDITS = {
        "levels_feature_twice": ("data_face_levels.csv", lambda t: t + "face_f0,high\n",
                                 "feature 'face_f0' is listed more than once"),
        "header_feature_twice": ("data_face.csv", lambda t: t.replace("face_f1", "face_f0", 1),
                                 "column 'face_f0' is named more than once"),
        "empty_modality_name": ("data_manifest.txt", lambda t: t + "modality.=data_face.csv\n",
                                "modality '' has an empty name"),
        "modality_edge_space": ("data_manifest.txt", lambda t: t.replace(".face=", ". face="),
                                "modality ' face' has leading or trailing whitespace"),
        "row_not_in_metadata": ("data_face.csv", lambda t: t + "zz,1,2,3,4\n",
                                "sample_id 'zz' present in"),
        "no_feature_columns": ("data_face.csv",
                               lambda t: "".join(line.split(",")[0] + "\n" for line in t.splitlines()),
                               "no feature columns after 'sample_id'"),
        "levels_extra_cells": ("data_face_levels.csv", lambda t: t + "face_f9,low,oops\n",
                               "expected 2 cells, got 3"),
        "levels_bad_level": ("data_face_levels.csv", lambda t: t.replace("face_f1,low", "face_f1,mid", 1),
                             "data_face_levels.csv: row 3: level: expected one of ('high', 'low'), got 'mid'"),
        "attribute_repeats_subject_id": ("data_metadata.csv",
                                         lambda t: t.replace("label,gender", "label,subject_id", 1),
                                         "row 1: attribute 'subject_id' is an id column name"),
        "attribute_is_a_predictions_column": ("data_metadata.csv",
                                              lambda t: t.replace("label,gender", "label,true_label", 1),
                                              "row 1: attribute 'true_label' is a predictions.csv column"),
        "attribute_is_the_other_outcome": ("data_metadata.csv",
                                           lambda t: t.replace("label,gender", "label,pa_score", 1),
                                           "row 1: attribute 'pa_score' is an outcome column name"),
        "label_attribute_under_pa_score": ("data_metadata.csv",
                                           lambda t: t.replace("label,gender", "pa_score,label", 1),
                                           "row 1: attribute 'label' is an outcome column name"),
        "unnamed_attribute": ("data_metadata.csv", lambda t: t.replace("label,gender", "label,", 1),
                              "row 1: attribute '' has an empty name"),
    }

    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_audit_exit_3(self, case, workdir, capsys):
        fname, edit, named = self.EDITS[case]
        assert main(["synth", "--spec", str(workdir / "synth.txt"),
                     "--out", str(workdir / "ds")]) == 0
        path = workdir / "ds" / fname
        path.write_text(edit(path.read_text()))
        (workdir / "config.txt").write_text(
            f"seed=1\ndataset.manifest={workdir / 'ds' / 'data_manifest.txt'}\n")
        assert main(["audit", "--config", str(workdir / "config.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and named in err


class TestDataErrorFirstLines:
    """Reachable data errors, each pinned by exit code 3 and the first line
    of stderr."""

    def audit_err(self, workdir, capsys, fname, edit):
        assert main(["synth", "--spec", str(workdir / "synth.txt"),
                     "--out", str(workdir / "ds")]) == 0
        path = workdir / "ds" / fname
        edit(path)
        (workdir / "config.txt").write_text(
            f"seed=1\ndataset.manifest={workdir / 'ds' / 'data_manifest.txt'}\n")
        capsys.readouterr()
        assert main(["audit", "--config", str(workdir / "config.txt")]) == 3
        return capsys.readouterr().err.splitlines()[0]

    def test_manifest_without_modality_keys(self, workdir, capsys):
        def keep_metadata(path):
            path.write_text("".join(line for line in path.read_text().splitlines(True)
                                    if line.startswith("metadata=")))
        first = self.audit_err(workdir, capsys, "data_manifest.txt", keep_metadata)
        manifest = workdir / "ds" / "data_manifest.txt"
        assert first == f"data error: {manifest}: no 'modality.<name>' entries"

    def test_manifest_lists_a_missing_csv(self, workdir, capsys):
        first = self.audit_err(workdir, capsys, "data_face.csv", lambda path: path.unlink())
        assert first.startswith(f"data error: cannot read {workdir / 'ds' / 'data_face.csv'}: ")

    def test_third_metadata_column_named_score(self, workdir, capsys):
        def rename(path):
            path.write_text(path.read_text().replace("label,gender", "score,gender", 1))
        first = self.audit_err(workdir, capsys, "data_metadata.csv", rename)
        meta = workdir / "ds" / "data_metadata.csv"
        assert first == f"data error: {meta}: third metadata column must be 'pa_score' or 'label'"


class TestOneSubjectExit4:
    """A one-subject dataset forms no fold: exit 4, and the first line of
    stderr names why."""

    @pytest.mark.parametrize("sessions, settings, message", [
        (3, ["cv.mode=kfold"], "grouped k-fold needs at least 2 subjects"),
        # one subject once passed the fold rule as no folds, named by run_arms
        (3, ["cv.mode=loso"], "leave-one-subject-out needs at least 2 subjects"),
        # one row, which plain k-fold once cut into no fold without a word
        (1, ["cv.mode=kfold", "cv.grouped=false"], "plain k-fold needs at least 2 rows"),
    ], ids=["kfold", "loso", "plain_kfold_one_row"])
    def test_audit(self, sessions, settings, message, workdir, capsys):
        spec = workdir / "synth.txt"
        spec.write_text(SYNTH_SPEC.replace("n_subjects=14", "n_subjects=1", 1)
                        .replace("sessions_per_subject=3", f"sessions_per_subject={sessions}", 1))
        with pytest.warns(DegenerateGroupWarning) as warned:  # one row also has a single label
            rc = main(["audit", "--config", str(workdir / "config.txt"),
                       *(arg for setting in settings for arg in ("--set", setting))])
        assert "attribute 'gender' has a single group" in [str(w.message) for w in warned]
        assert rc == 4
        assert capsys.readouterr().err.splitlines()[0] == f"experiment error: {message}"
        assert not (workdir / "out").exists()


class TestSynthCommand:
    def test_materializes_loadable_dataset(self, workdir):
        out = workdir / "synthds"
        rc = main(["synth", "--spec", str(workdir / "synth.txt"), "--out", str(out)])
        assert rc == 0
        from fairmix.dataset import load_dataset
        manifest = next(p for p in out.iterdir() if p.name.endswith("manifest.txt"))
        ds = load_dataset(str(manifest))
        assert ds.n_samples == 42
        assert ds.modality_names == ("face", "audio")

    def test_audit_runs_on_materialized_manifest(self, workdir):
        out = workdir / "synthds"
        main(["synth", "--spec", str(workdir / "synth.txt"), "--out", str(out)])
        (workdir / "cfg2.txt").write_text(
            f"dataset.manifest={out / 'data_manifest.txt'}\n"
            "model.kind=logistic\nseed=2\n"
            f"output_dir={workdir / 'out2'}\n"
        )
        assert main(["audit", "--config", str(workdir / "cfg2.txt")]) == 0

    # each was written: the first two overwrote a file with another (reload:
    # ParseError, SchemaError), the third wrote into a subdirectory that the
    # manifest does not name (DataError), the fourth wrote a manifest line
    # that reads back another file name
    @pytest.mark.parametrize("edit, name, fault", [
        ("modality.metadata=3\n", "data", "file 'data_metadata.csv' is named more than once"),
        ("modality.m=2\nmodality.m_levels=2\n", "data", "file 'data_m_levels.csv' is named more than once"),
        ("modality.a/b=2\n", "data", "file 'data_a/b.csv' would not read back from a manifest line"),
        ("", " x", "file ' x_face.csv' would not read back from a manifest line"),
    ])
    def test_save_that_would_not_read_back_exit_2(self, edit, name, fault, workdir, capsys):
        (workdir / "synth.txt").write_text(SYNTH_SPEC + edit)
        out = workdir / "ds"
        out.mkdir()
        before = sorted(workdir.iterdir())
        args = ["synth", "--spec", str(workdir / "synth.txt"), "--out", str(out), "--name", name]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: cannot save a dataset in {str(out)!r}: {fault}\n"
        assert not any(out.iterdir())
        assert sorted(workdir.iterdir()) == before
        # only the save is refused: the same spec still audits
        assert main(["audit", "--config", str(workdir / "config.txt")]) == 0


@pytest.fixture(params=[0o022, 0o077], ids=["umask022", "umask077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


class TestWriters:
    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_every_output_has_the_mode_of_a_plain_open(self, workdir, umask):
        config = str(workdir / "config.txt")
        assert main(["audit", "--config", config, "--set", f"output_dir={workdir / 'audit'}"]) == 0
        assert main(["compare", "--config", config, "--set", f"output_dir={workdir / 'compare'}"]) == 0
        assert main(["synth", "--spec", str(workdir / "synth.txt"), "--out", str(workdir / "synth")]) == 0
        assert os.umask(umask) == umask  # the writers left the umask as it was
        files = sorted(p for d in ("audit", "compare", "synth") for p in (workdir / d).iterdir())
        assert len(files) == 3 + 5 + 6
        modes = {str(p.relative_to(workdir)): stat.S_IMODE(p.stat().st_mode) for p in files}
        assert modes == dict.fromkeys(modes, 0o666 & ~umask)

    def test_synth_below_a_regular_file_exit_3(self, workdir, capsys):
        (workdir / "file").write_text("")
        out = workdir / "file" / "ds"
        assert main(["synth", "--spec", str(workdir / "synth.txt"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write {out / 'data_face.csv'}: ")


class TestValidate:
    def test_valid_config(self, workdir, capsys):
        assert main(["validate", "--config", str(workdir / "config.txt")]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_invalid_config(self, workdir):
        assert main(["validate", "--config", str(workdir / "config.txt"),
                     "--set", "cv.mode=bootstrap"]) == 2


class TestBundledData:
    def test_bundled_manifest_audits_cleanly(self, tmp_path):
        import pathlib

        data_dir = pathlib.Path(__file__).resolve().parent.parent / "data"
        rc = main(["audit", "--config", str(data_dir / "audit_config.txt"),
                   "--set", f"output_dir={tmp_path}"])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["overall"]["n_predictions"] == 80
        assert set(report["per_attribute"]) == {"gender", "race"}


class TestBundledBytes:
    """The files of the bundled `audit` and `compare` are pinned byte for
    byte; in report.json the absolute manifest path reads "<manifest>"."""

    DIGESTS = {
        "audit": {
            "predictions.csv": "2604a97c6b999e8652cebc4f6db86371b8d96b881ee63e7a4596019af252ef49",
            "report.json": "e419158b28575ea509b50a7d74d060f7840ede402030a7ad915cd758906d03c0",
            "report.md": "d0aadafececf26cb7c16e435d75c3292342dafb0146e1d1970c7dd31bcc1b237",
        },
        "compare": {
            "predictions_mixfeat.csv": "65f6d337ba6fc69bdeaa2723cd181469790de40eaf13a13fa416cfb1928cad12",
            "predictions_none.csv": "2604a97c6b999e8652cebc4f6db86371b8d96b881ee63e7a4596019af252ef49",
            "predictions_random_oversample.csv":
                "371d0645b81c3ecb9bc586aa5ee6681f7a6e7163eb1570f3ba7c40b95070ee7b",
            "report.json": "2af37dfe32a183a8f2c61b89b84112bd9b7f49cf8220b1b5c10d8952474bffd1",
            "report.md": "1d9fc2497d244a2e829fa6a3decf5060b78ab1b2a6fab647982f5cae6d6827c6",
        },
    }

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_outputs_match_pinned_digests(self, command, tmp_path):
        assert main([command, "--config", str(BUNDLED_AUDIT.with_name(f"{command}_config.txt")),
                     "--set", f"output_dir={tmp_path}"]) == 0
        manifest = json.dumps(str(BUNDLED_AUDIT.with_name("demo_manifest.txt"))).encode()
        digests = {}
        for path in sorted(tmp_path.iterdir()):
            data = path.read_bytes()
            if path.name == "report.json":
                assert manifest in data
                data = data.replace(manifest, b'"<manifest>"')
            digests[path.name] = hashlib.sha256(data).hexdigest()
        assert digests == self.DIGESTS[command]

    def test_byte_order_marks_change_no_byte(self, tmp_path):
        # a UTF-8 BOM, as Excel's "CSV UTF-8" writes, made the metadata
        # header and the config's first line unreadable
        copy = tmp_path / "data"
        copy.mkdir()
        for path in BUNDLED_AUDIT.parent.iterdir():
            if path.suffix in (".csv", ".txt"):
                (copy / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        written = []
        for config in (BUNDLED_AUDIT, copy / BUNDLED_AUDIT.name):
            out = tmp_path / config.parent.name
            assert main(["audit", "--config", str(config), "--set", f"output_dir={out}"]) == 0
            manifest = json.dumps(str(config.with_name("demo_manifest.txt"))).encode()
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            assert manifest in files["report.json"]
            files["report.json"] = files["report.json"].replace(manifest, b'"<manifest>"')
            written.append(files)
        assert written[1] == written[0]
