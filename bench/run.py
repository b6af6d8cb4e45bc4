"""Run one fairmix benchmark workload and print its metrics.

    python3 bench/run.py --workload solvers --seed 1 --seconds 40 --trace 0

Run from the repository root: the package is imported from `src/`. With
`--trace 0` the last line of output is a JSON object holding every
end-to-end metric; with `--trace 1` it holds every per-layer metric from a
traced re-run of the same batch. Times are in reference seconds (see
harness.py). Each run also writes its details (the environment,
per-operation seeds and times, reference samples, report digests) to
`bench/out/<workload>-seed<seed>-trace<trace>.json`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("solvers", "data_path")
BLAS_THREADS = 1  # fixed, so that both sides of a comparison run the same configuration
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_REPEATS = 3
IMPORT_CODE = ("import time; t = time.perf_counter(); import numpy, fairmix.cli; "
               "print(time.perf_counter() - t)")
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "accuracy": "ratio", "ea_parity": "ratio", "di_parity": "ratio",
    "ok_op_ratio": "ratio", "kept_fold_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds(src: Path) -> float:
    """Median time for a fresh interpreter to import numpy and the package
    (every module, `cli` and `config` included)."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "fairmix" / "__init__.py").is_file():
        print(f"fairmix sources not found under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness  # imports numpy and fairmix

    import_s = import_seconds(src)
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s,
                         OUT_DIR / "work", src)
    record["environment"] = harness.environment(BLAS_THREADS, ROOT)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {record['attempted']} operations, "
          f"{record['failed']} failed; details in {detail.relative_to(ROOT)}")
    for i, problems in record["problems"].items():
        print(f"  operation {i}: {'; '.join(problems)}")
    for kind, s in record["audit_s"].items():
        tail = ("no tail percentile (fewer than 10 samples beyond p90)" if s["tail"] is None
                else f"p{s['tail']['q']:g} {s['tail']['value']:.4f} s")
        print(f"{kind}: seconds per audit (all arms on one dataset and config seed): "
              f"median {s['p50']:.4f} over n={s['n']}; {tail}")
    print(f"times below are reference seconds: measured seconds x {record['speed_factor']:.4f} "
          f"(measured wall {record['measured_wall_s']:.4f} s)")
    if "traced" in record:
        print(f"traced report digests match untraced: {record['traced']['digests_match']}")
    metrics = {name: {"value": value, "unit": UNITS.get(name) or harness.unit_of(name)}
               for name, value in record["metrics"].items()}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
