"""Seeded fuzz test of the command line: random --set overrides and corrupted
manifests and CSVs, run in-process through cli.main.

Every case must end in a known exit code (0, 2, 3 or 4) without an
exception escaping, and a successful run must not write a non-finite
number into any report or predictions file.
"""

import math
import pathlib
import random
import re
import shutil
import warnings

from fairmix.cli import main

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
N_CASES = 400
SEED = 20240

# values per key: valid ones, out-of-range ones and unparsable ones
OVERRIDES = {
    "seed": ["0", "7", "-1", "x", "1.5"],
    "cv.mode": ["kfold", "loso", "bootstrap"],
    "cv.k": ["2", "3", "1", "0", "500"],
    "augment.method": ["none", "random_oversample", "mixfeat", "smote"],
    "augment.beta_alpha": ["0.5", "0", "-1", "nan", "inf", "1e300"],
    "augment.seed": ["3", "-2"],
    "pca.enabled": ["true", "false", "maybe"],
    "pca.target_ratio": ["0.5", "1", "0", "1.5", "nan", "1e-300"],
    "fusion.strategy": ["early", "vote_hard", "vote_soft", "stack_hard", "stack_soft", "median"],
    "fusion.meta_kind": ["logistic", "svm"],
    "features.level": ["all", "high", "low", "mid"],
    "features.descriptors": ["mean", "std,mean", "bogus", ""],
    "modalities": ["face", "audio", "face,audio", "face,nope", ","],
    "model.l2": ["0", "1e-4", "-5", "1e300", "nan"],
    "model.max_iter": ["0", "1", "3"],
    "model.seed": ["1", "-1"],
    "unknown.key": ["1"],
}
# a model kind with values for its own hyperparameters (few epochs keep mlp fast)
MODELS = {
    "mlp": {
        "epochs": ["2", "0"],
        "learning_rate": ["1e-3", "1e300", "0", "nan"],
        "batch_size": ["0", "1", "1000"],
        "hidden_units": ["1", "0", "3"],
        "l2": ["0", "-1"],
    },
    "rbf_svm": {
        "C": ["1", "0", "1e-6"],
        "gamma": ["scale", "0", "1e300", "1e-300", "abc"],
        "tol": ["1e-3", "0", "10"],
    },
}
CELLS = ["", "abc", "inf", "-inf", "nan", "1e400", "1e308", "-1e308", "2", "-0", " 1", "0x1",
         "1" * 140_000]  # longer than the csv module's field limit
FILES = ["demo_face.csv", "demo_audio.csv", "demo_metadata.csv", "demo_face_levels.csv"]


def _draw_overrides(rng, tmp):
    pairs = [f"{k}={rng.choice(OVERRIDES[k])}" for k in rng.sample(sorted(OVERRIDES), rng.choice([0, 1, 1, 2, 3]))]
    if rng.random() < 0.4:
        kind = rng.choice(sorted(MODELS))
        hps = MODELS[kind]
        pairs.append(f"model.kind={kind}")
        if kind == "mlp":
            pairs += [f"model.{hp}={rng.choice(hps[hp])}" for hp in ("epochs", "learning_rate")]
        for hp in rng.sample(sorted(hps), rng.randint(0, 2)):
            pairs.append(f"model.{hp}={rng.choice(hps[hp])}")
    if rng.random() < 0.05:
        (tmp / "file").write_text("")
        pairs.append(f"output_dir={tmp / 'file' / 'out'}")
    return pairs


def _corrupt_manifest(rng, path):
    lines = path.read_text().splitlines()
    i = rng.randrange(len(lines))
    how = rng.choice(["drop", "threshold", "missing", "garbage", "duplicate", "empty", "bytes",
                      "nul"])
    if how == "drop":
        del lines[i]
    elif how == "threshold":
        lines[-1] = f"panas_threshold={rng.choice(['abc', 'nan', 'inf', '-1e308', '50'])}"
    elif how == "missing":
        lines[i] = lines[i].split("=")[0] + "=missing.csv"
    elif how == "garbage":
        lines.insert(i, "no equals sign here")
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "empty":
        lines = []
    elif how == "nul":  # open() refuses a path that holds a NUL
        j = rng.choice([j for j, line in enumerate(lines) if not line.startswith("panas_threshold")])
        key, _, value = lines[j].partition("=")
        lines[j] = f"{key}={value[:1]}\0{value[1:]}"
    else:
        path.write_bytes(b"\xff\xfe\x00metadata=")
        return how
    path.write_text("\n".join(lines) + "\n")
    return how


def _corrupt_csv(rng, path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    r = rng.randrange(1, len(rows))
    c = rng.randrange(len(rows[0]))
    how = rng.choice(["cell", "cell", "cell", "drop_row", "dup_row", "short_row", "header",
                      "header_only", "empty", "bytes", "blank_column", "constant_column",
                      "float64_limit_column"])
    if how == "cell":
        rows[r][min(c, len(rows[r]) - 1)] = rng.choice(CELLS)
    elif how == "drop_row":
        del rows[r]
    elif how == "dup_row":
        rows.insert(r, list(rows[r]))
    elif how == "short_row":
        rows[r] = rows[r][:-1]
    elif how == "header":
        rows[0][0] = "id"
    elif how == "header_only":
        rows = rows[:1]
    elif how == "empty":
        rows = []
    elif how == "bytes":
        path.write_bytes(b"sample_id,f\n\xff\xfe,1\n")
        return how
    elif how == "float64_limit_column":  # finite, but its sum or squares overflow
        for r, row in enumerate(rows[1:]):
            if c < len(row):
                row[c] = "-1e308" if r % 2 else "1e308"
    else:
        value = "" if how == "blank_column" else "1"
        for row in rows[1:]:
            if c < len(row):
                row[c] = value
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return how


def _non_finite_tokens(path):
    text = path.read_text()
    bad = []
    for token in re.split(r"[\s,|:\"\[\]{}()]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            bad.append(token)
    return bad


def test_cli_survives_fuzzed_configs_and_data(tmp_path):
    rng = random.Random(SEED)
    failures = []
    for n in range(N_CASES):
        case_dir = tmp_path / f"case{n}"
        data = case_dir / "data"
        shutil.copytree(DATA, data)
        corruption = "none"
        target = rng.random()
        if target < 0.1:
            corruption = "demo_manifest.txt:" + _corrupt_manifest(rng, data / "demo_manifest.txt")
        elif target < 0.4:
            name = rng.choice(FILES)
            corruption = f"{name}:" + _corrupt_csv(rng, data / name)
        command = rng.choices(["audit", "validate", "compare"], weights=[8, 1, 1])[0]
        config = data / ("compare_config.txt" if command == "compare" else "audit_config.txt")
        out = case_dir / "out"
        argv = [command, "--config", str(config), "--set", f"output_dir={out}", "--set", "model.kind=logistic"]
        for kv in _draw_overrides(rng, case_dir):
            argv += ["--set", kv]
        case = f"case {n}: {corruption} {' '.join(argv[3:])}"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = main(argv)
        except BaseException as exc:  # a traceback, or argparse exiting
            failures.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        if rc not in (0, 2, 3, 4):
            failures.append(f"{case}: exit code {rc}")
        if rc == 0 and out.exists():
            for written in sorted(out.iterdir()):
                bad = _non_finite_tokens(written)
                if bad:
                    failures.append(f"{case}: {written.name} holds {bad[:3]}")
    assert not failures, "\n".join(failures)
