import json
import pathlib
import re

import pytest

from fairmix.cli import main
from fairmix.config import build_config, load_config
from fairmix.errors import ConfigError

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


BUNDLED_AUDIT = pathlib.Path(__file__).resolve().parent.parent / "data" / "audit_config.txt"


class TestConfigRejections:
    @pytest.mark.parametrize("command", ["audit", "validate"])
    @pytest.mark.parametrize("overrides, env_seed, key", [
        (["seed=-1"], None, "seed"),
        ([], "-1", "seed"),
        (["augment.seed=-1"], None, "augment.seed"),
        (["model.seed=-1"], None, "model.seed"),
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
    from the metadata, a feature file without feature columns and a levels
    row with extra cells are data errors (exit 3)."""

    # the file edited in a materialized dataset, the edit, and what the
    # message names
    EDITS = {
        "levels_feature_twice": ("data_face_levels.csv", lambda t: t + "face_f0,high\n",
                                 "feature 'face_f0' is listed more than once"),
        "header_feature_twice": ("data_face.csv", lambda t: t.replace("face_f1", "face_f0", 1),
                                 "column 'face_f0' is named more than once"),
        "empty_modality_name": ("data_manifest.txt", lambda t: t + "modality.=data_face.csv\n",
                                "key 'modality.' has an empty modality name"),
        "row_not_in_metadata": ("data_face.csv", lambda t: t + "zz,1,2,3,4\n",
                                "sample_id 'zz' present in"),
        "no_feature_columns": ("data_face.csv",
                               lambda t: "".join(line.split(",")[0] + "\n" for line in t.splitlines()),
                               "no feature columns after 'sample_id'"),
        "levels_extra_cells": ("data_face_levels.csv", lambda t: t + "face_f9,low,oops\n",
                               "expected 2 cells, got 3"),
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
