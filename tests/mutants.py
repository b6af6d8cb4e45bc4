"""Mutation table: each mutant breaks one rule in a copy of `src/`, and the
tier-1 suite, run without its golden digests, must fail on it.

    python tests/mutants.py                      # every mutant
    python tests/mutants.py platt_in_sample ...  # the named ones

For each mutant the script copies `src/` into a temporary directory, replaces
the mutant's old text (it refuses one whose old text does not occur exactly
once in its module) and runs tier-1 on the copy with the golden classes
deselected, stopping at the first failure. An unmutated copy runs first and
must pass. It prints one row per mutant:
killed, with the first test that failed, or survived; it exits 1 if any
mutant survived. pytest does not collect this file: its name does not start
with `test_`.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a declared-drift change re-pins these digests, so they do not count as kills
GOLDEN = ("TestPinnedOutput", "TestBundledBytes", "TestGoldenFolds",
          "TestPinnedAudits", "TestMlpGolden", "TestSmoGolden", "TestGeneratePinned")

# name -> (module, old text, new text, the rule it breaks)
MUTANTS = {
    "platt_in_sample": (
        "models", "if not blocks or not counts(", "if True or not blocks or not counts(",
        "Platt's sigmoid is fitted on out-of-fold decisions"),
    "standardizer_sees_test": (
        "experiment", "std = fit_standardizer(Xtr)", "std = fit_standardizer(np.vstack([Xtr, Xte]))",
        "the standardizer is fitted on the training rows alone"),
    "pca_sees_test": (
        "experiment", "pca = fit_pca(Xtr, config.pca_target_ratio)",
        "pca = fit_pca(np.vstack([Xtr, Xte]), config.pca_target_ratio)",
        "PCA is fitted on the training rows alone"),
    "grouped_unstratified": (
        "folds", "fold_of = (stratified_positions(majority, seeded_rng(seed)) + earlier) % k",
        "fold_of = seeded_rng(seed).permutation(len(subjects)) % k",
        "grouped k-fold stratifies subjects by majority label"),
    "mixfeat_parent_outside_cell": (
        "augment", "rows[i], rows[j]", "rows[i], j",
        "mixfeat's two parents come from one cell"),
    "cell_one_row_short": (
        "augment", "target - len(rows))", "target - len(rows) - 1)",
        "every cell is raised to the largest cell's count"),
    "beta_swapped": (
        "augment", "rng.beta(beta_alpha, beta_beta,", "rng.beta(beta_beta, beta_alpha,",
        "mixfeat's weights are drawn from Beta(alpha, beta)"),
    "stacking_bases_in_sample": (
        "fusion", "[(X[train], y[train]) for X in train_per_modality",
        "[(X, y) for X in train_per_modality",
        "stacking's meta-features come from bases that did not train on their rows"),
    "grouped_splits_subjects": (
        "folds", "folds_of(fold_of[subject_of_row], k)",
        "folds_of((fold_of[subject_of_row] + np.arange(len(subject_of_row))) % k, k)",
        "grouped k-fold keeps each subject whole"),
    "outer_folds_record_wise": (
        "experiment", "dataset.label, dataset.subject_id, config.cv_k",
        "dataset.label, dataset.sample_id, config.cv_k",
        "outer folds keep each subject whole"),
    "ea_false_positives_only": (
        "metrics", "table[:, 0, 1] + table[:, 1, 0]", "table[:, 0, 1]",
        "EA compares the groups' error rates, false negatives included"),
    "soft_vote_by_max": (
        "fusion", "mean_proba = np.mean(base_probas, axis=0)\n    return argmax_label",
        "mean_proba = np.max(base_probas, axis=0)\n    return argmax_label",
        "a soft vote averages the bases' probabilities"),
    "oversample_fresh_subjects": (
        "augment", 'if method == "random_oversample"\n', 'if method == "no such method"\n',
        "a random_oversample copy keeps its parent's subject"),
    "standardizer_test_mean": (
        "experiment", "Xtr, Xte = std.apply(Xtr), std.apply(Xte)",
        "Xtr, Xte = std.apply(Xtr), (Xte - Xte.mean(axis=0)) / std.std",
        "test rows are standardized by the training mean"),
    "loso_one_subject": (
        "folds", "if len(subjects) < 2:", "if False:",
        "leave-one-subject-out refuses fewer than 2 subjects"),
    "internal_one_class_train": (
        "folds", "if len(train) and len(test) and counts(y[train]).all()",
        "if len(train) and len(test)",
        "an internal fold is kept only if its training rows hold both labels"),
    "standardizer_divides_input": (
        "preprocess", "out = X - self.mean", "out = np.subtract(X, self.mean, out=X)",
        "Standardizer.apply writes only into the array it made"),
    "cleaner_imputes_input": (
        "preprocess",
        'out = np.take(as_matrix(X, "cleaner input", self.n_columns, missing=True), self.keep, axis=1)',
        'X = as_matrix(X, "cleaner input", self.n_columns, missing=True)\n'
        "        out = X if len(self.keep) == X.shape[1] else np.take(X, self.keep, axis=1)",
        "ColumnCleaner.apply imputes only into the array it made"),
    "reorder_skipped": (
        "experiment", "if (order == np.arange(order.size)).all():", "if True:",
        "run_arms puts rows that are out of sample_id order in order"),
    "rename_after_failed_write": (
        "dataset", "            write(fh)\n        os.replace(tmp, path)",
        "            try:\n                write(fh)\n            finally:\n"
        "                os.replace(tmp, path)",
        "a reader sees the old file or the whole new one"),
    "temporary_file_kept": (
        "dataset", "        if tmp is not None and os.path.exists(tmp):\n            os.unlink(tmp)",
        "        pass",
        "no temporary file outlives a failed write"),
    "base_rates_swapped": (
        "synthgen", "np.where(majority, spec.base_rate_majority, spec.base_rate_minority)",
        "np.where(majority, spec.base_rate_minority, spec.base_rate_majority)",
        "each group draws its labels at its own base rate"),
    "offset_sign_by_group": (
        "synthgen", "np.where(labels == 1, 1.0, -1.0)", "np.where(majority, 1.0, -1.0)",
        "a row's class offset takes its sign from its label"),
    "offset_without_noise_std": (
        "synthgen", " * spec.noise_std)", ")",
        "the class offset is measured in noise standard deviations"),
    "attribute_shares_reversed": (
        "synthgen", "[share for _, share in spec.attribute_props]",
        "[share for _, share in spec.attribute_props][::-1]",
        "each attribute is drawn at its own share"),
}


def first_failure(src: Path) -> str | None:
    """The first test that fails tier-1 on `src`, golden classes deselected, or None."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "-o", f"pythonpath={src}",
         "-k", " and ".join(f"not {name}" for name in GOLDEN)],
        cwd=ROOT, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    failed = [line.split(" - ")[0].partition(" ")[2] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"exit {run.returncode}"


def run_on_copy(edit=None) -> str | None:
    """first_failure on a copy of `src/`, with edit = (module, old, new) applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if edit:
            module, old, new = edit
            path = src / "fairmix" / f"{module}.py"
            path.write_text(path.read_text().replace(old, new))
        return first_failure(src)


def main(names) -> int:
    chosen = {name: MUTANTS[name] for name in names} if names else MUTANTS
    for module, old, _, _ in chosen.values():  # refuse a stale table before any run
        found = (ROOT / "src" / "fairmix" / f"{module}.py").read_text().count(old)
        if found != 1:
            raise SystemExit(f"{module}: the old text occurs {found} times, not once: {old!r}")
    start = time.perf_counter()
    baseline = run_on_copy()
    if baseline is not None:  # else every mutant would count as killed
        raise SystemExit(f"the unmutated copy already fails: {baseline}")
    survived = 0
    print("| mutant | rule broken | result |\n|---|---|---|")
    for name, (module, old, new, rule) in chosen.items():
        killer = run_on_copy((module, old, new))
        survived += killer is None
        print(f"| `{name}` | {rule} | {'survived' if killer is None else f'killed by `{killer}`'} |",
              flush=True)
    print(f"\n{len(chosen) - survived} of {len(chosen)} killed in {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
