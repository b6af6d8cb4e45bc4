"""The outer folds in forked processes (`fairmix.parallel`): the bytes of
every written report do not depend on how many processes run the folds, a
child's failure reaches the caller, and no child outlives an audit."""

import os
import pathlib
import subprocess
import sys

import pytest

from fairmix import fusion as fusion_mod
from fairmix import parallel
from fairmix.cli import main
from fairmix.config import PipelineConfig
from fairmix.errors import ConfigError, ExperimentError
from fairmix.experiment import make_folds, run_experiment, write_predictions_csv, write_report_json
from fairmix.synthgen import SynthSpec, generate

from conftest import child_pids

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
PROCESSES = (1, 2, 3)


def written_bytes(out: pathlib.Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["audit", "compare"])
def test_bundled_outputs_do_not_depend_on_the_process_count(command, tmp_path, fold_processes):
    outputs = []
    for processes in PROCESSES:
        fold_processes(processes)
        out = tmp_path / str(processes)
        assert main([command, "--config", str(DATA / f"{command}_config.txt"),
                     "--set", f"output_dir={out}"]) == 0
        outputs.append(written_bytes(out))
    assert any(name.startswith("predictions") for name in outputs[0])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def audit_bytes(config: PipelineConfig, ds, out: pathlib.Path) -> dict:
    """The bytes of report.json and predictions.csv of one audit."""
    report = run_experiment(config, ds)
    write_report_json(report, str(out / "report.json"))
    write_predictions_csv(report.predictions, str(out / "predictions.csv"), ds.declared_attributes)
    return written_bytes(out)


def test_criterion_7_seed_0_does_not_depend_on_the_process_count(tmp_path, fold_processes):
    ds = generate(SynthSpec(n_subjects=40, sessions_per_subject=4,
                            attribute_props=(("gender", 0.8),),
                            separation_majority=2.0, separation_minority=1.2, seed=0))
    outputs = []
    for processes in PROCESSES:
        fold_processes(processes)
        outputs.append({method: audit_bytes(
            PipelineConfig(seed=0, augment_method=method, model_kind="rbf_svm"), ds,
            tmp_path / f"{processes}-{method}") for method in ("none", "mixfeat")})
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# late fusion: (modality dims, configuration); "face" of vote_soft is wider
# than the dataset's 36 rows, so PCA takes the wide route in every process
LATE_FUSION = {
    "stack_soft-mlp": ((("face", 4), ("audio", 3)),
                       dict(fusion_strategy="stack_soft", model_kind="mlp",
                            model_hyperparams={"epochs": 5})),
    "stack_hard-logistic": ((("face", 4), ("audio", 3)),
                            dict(fusion_strategy="stack_hard", model_kind="logistic")),
    "vote_soft-logistic-wide": ((("face", 60), ("audio", 3)),
                                dict(fusion_strategy="vote_soft", model_kind="logistic")),
    "vote_hard-rbf_svm": ((("face", 4), ("audio", 3)),
                          dict(fusion_strategy="vote_hard", model_kind="rbf_svm")),
    "stack_soft-three-modalities": ((("face", 4), ("audio", 3), ("text", 5)),
                                    dict(fusion_strategy="stack_soft", model_kind="logistic")),
}


@pytest.mark.parametrize("case", LATE_FUSION)
def test_late_fusion_does_not_depend_on_the_process_count(case, tmp_path, fold_processes):
    dims, settings = LATE_FUSION[case]
    ds = generate(SynthSpec(n_subjects=12, sessions_per_subject=3, modality_dims=dims, seed=3))
    config = PipelineConfig(seed=2, augment_method="mixfeat", **settings)
    outputs = []
    for processes in PROCESSES:
        fold_processes(processes)
        outputs.append(audit_bytes(config, ds, tmp_path / str(processes)))
    assert b'"skipped_folds": []' in outputs[0]["report.json"]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.fixture
def audit():
    ds = generate(SynthSpec(n_subjects=16, sessions_per_subject=3, seed=4))
    config = PipelineConfig(seed=11, model_kind="logistic", fusion_strategy="early")
    assert len(make_folds(config, ds)) == 5
    return config, ds


def fail_in_children(monkeypatch, fail):
    """fit_fusion calls fail() in every process but the caller."""
    caller, real = os.getpid(), fusion_mod.fit_fusion

    def fit(spec, Xs, y, seed=0):
        if os.getpid() != caller:
            fail()
        return real(spec, Xs, y, seed)

    monkeypatch.setattr(fusion_mod, "fit_fusion", fit)


def test_a_child_s_error_is_raised_in_the_caller(audit, monkeypatch, fold_processes):
    fold_processes(2)

    def fail():
        raise ConfigError("raised in a fold process")

    fail_in_children(monkeypatch, fail)
    with pytest.raises(ConfigError, match=r"^raised in a fold process$"):
        run_experiment(*audit)
    assert not child_pids()


def test_a_child_that_exits_is_an_experiment_error(audit, monkeypatch, fold_processes):
    fold_processes(2)
    fail_in_children(monkeypatch, lambda: os._exit(3))
    with pytest.raises(ExperimentError, match=r"^the process running folds \[1, 3\] ended "
                                              r"with exit code 3 and sent no result$"):
        run_experiment(*audit)
    assert not child_pids()


def test_a_child_s_exception_that_does_not_pickle_is_printed(audit, monkeypatch, fold_processes,
                                                            capfd):
    class Local(Exception):  # a local class does not pickle
        pass

    def fail():
        raise Local("not sent")

    fold_processes(2)
    fail_in_children(monkeypatch, fail)
    with pytest.raises(ExperimentError, match=r"^the process running folds \[1, 3\] ended "
                                              r"with exit code 1 and sent no result$"):
        run_experiment(*audit)
    assert "Local: not sent" in capfd.readouterr().err
    assert not child_pids()


def test_a_failed_fork_leaves_its_folds_to_the_caller(audit, monkeypatch, fold_processes):
    fold_processes(1)
    serial = run_experiment(*audit).to_json_dict()
    forks, real = [], os.fork

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise OSError("no more processes")
        return real()

    fold_processes(3)
    monkeypatch.setattr(os, "fork", fork_once)
    assert run_experiment(*audit).to_json_dict() == serial
    assert len(forks) == 2


def test_an_interrupted_caller_leaves_no_child(audit, monkeypatch, fold_processes):
    fold_processes(3)
    caller, real = os.getpid(), fusion_mod.fit_fusion

    def fit(spec, Xs, y, seed=0):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return real(spec, Xs, y, seed)

    monkeypatch.setattr(fusion_mod, "fit_fusion", fit)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(*audit)
    assert not child_pids()


@pytest.mark.parametrize("processes", PROCESSES)
def test_the_lowest_failing_fold_s_error_is_raised(audit, monkeypatch, fold_processes, processes):
    # folds 1 and 2 fail; at 2 and 3 processes they run in different ones
    fold_processes(processes)
    config, ds = audit
    real = fusion_mod.fit_fusion

    def fit(spec, Xs, y, seed=0):
        if seed - config.seed in (1, 2):
            raise ConfigError(f"fold {seed - config.seed}")
        return real(spec, Xs, y, seed)

    monkeypatch.setattr(fusion_mod, "fit_fusion", fit)
    with pytest.raises(ConfigError, match=r"^fold 1$"):
        run_experiment(config, ds)


def test_one_process_forks_nothing(monkeypatch):
    def refuse(*args):
        pytest.fail("map_folds opened a pipe or forked at one process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "pipe", refuse)
    assert parallel.map_folds(lambda f: ("outcome", f), 4, 1) == [("outcome", f) for f in range(4)]

    def fail_from_fold_2(f):
        if f >= 2:
            raise ConfigError(f"fold {f}")
        return f

    with pytest.raises(ConfigError, match=r"^fold 2$"):
        parallel.map_folds(fail_from_fold_2, 4, 1)


def test_process_count(monkeypatch, fold_processes):
    fold_processes(3)
    assert [parallel.fold_processes(n) for n in (1, 2, 5)] == [1, 2, 3]
    monkeypatch.delattr(os, "fork")
    assert parallel.fold_processes(5) == 1


def test_importing_the_cli_does_not_import_the_fork_code():
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    code = ("import sys, fairmix.cli; "
            "print(sorted(m for m in ('fairmix.parallel', 'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout == "[]\n"


@pytest.fixture
def blas_threads():
    """The caller's BLAS thread count, set to 2 for the test (if the BLAS
    takes it) and put back after it, and a function that reads it; skips
    where map_folds finds no known BLAS thread control."""
    blas = parallel._blas_threads()
    if blas is None:
        pytest.skip("no known BLAS thread control in this process")
    get, set_threads = blas
    before = get()
    set_threads(2)
    yield get(), get
    set_threads(before)


def test_the_lookup_reads_numpy_s_blas_thread_count(blas_threads):
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    code = "from fairmix import parallel; print(parallel._blas_threads()[0]())"
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout == "1\n"


@pytest.mark.parametrize("processes", (1, 2))
def test_no_blas_thread_control_changes_no_outcome(audit, tmp_path, monkeypatch, fold_processes,
                                                   processes):
    # as under MKL, BLIS or Accelerate, where no known control is found
    fold_processes(processes)
    found = audit_bytes(*audit, tmp_path / "found")
    monkeypatch.setattr(parallel, "_blas_threads", lambda: None)
    assert audit_bytes(*audit, tmp_path / "none") == found


@pytest.mark.parametrize("processes", PROCESSES)
def test_folds_run_at_one_blas_thread(blas_threads, processes):
    count, get = blas_threads
    assert parallel.map_folds(lambda f: get(), 5, processes) == [1] * 5
    assert get() == count


@pytest.mark.parametrize("processes", (1, 2))
def test_the_caller_s_blas_thread_count_is_put_back(audit, monkeypatch, fold_processes, blas_threads,
                                                    processes):
    count, get = blas_threads
    fold_processes(processes)
    run_experiment(*audit)
    assert get() == count
    config, ds = audit
    real = fusion_mod.fit_fusion

    def fit(spec, Xs, y, seed=0):
        if seed - config.seed == 0:  # the caller's fold
            raise ConfigError("fold 0")
        return real(spec, Xs, y, seed)

    monkeypatch.setattr(fusion_mod, "fit_fusion", fit)
    with pytest.raises(ConfigError, match=r"^fold 0$"):
        run_experiment(config, ds)
    assert get() == count
