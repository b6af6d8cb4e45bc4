"""The outer folds of an audit in forked processes.

`map_folds(run_fold, n_folds, processes)` returns `[run_fold(f) for f in
range(n_folds)]`. With w = `processes` >= 2, the caller runs folds 0, w,
2w, ... and each of w - 1 forked children runs the folds congruent to its
number modulo w, sending its outcomes back pickled through a pipe. Outcomes
are put back in fold order, so that they do not depend on w. A fold that
raises stops its process; the exception of the lowest such fold is raised
in the caller, as it would be from the serial loop. No child outlives the
call: each is joined, or killed and then joined, before `map_folds` returns
or raises. `experiment.run_arms` imports this module when it first runs,
so that `import fairmix.cli` does not.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import ExperimentError


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fold_processes(n_folds: int) -> int:
    """min(n_folds, usable CPUs) where `fork` exists; 1 elsewhere."""
    return min(n_folds, usable_cpus()) if hasattr(os, "fork") else 1


def _run(run_fold, folds) -> tuple[dict, tuple | None]:
    """The outcomes of `folds` in order, up to the first that raises, and that
    fold with its exception (None if none raised)."""
    outcomes = {}
    for f in folds:
        try:
            outcomes[f] = run_fold(f)
        except Exception as exc:
            return outcomes, (f, exc)
    return outcomes, None


def _child(run_fold, folds, fd) -> None:
    """Runs in a forked child: sends `_run`'s result through fd and exits,
    never returning into the caller's code. A result that cannot be sent (a
    fold's exception that does not pickle, say) is printed to stderr
    instead, with that exception, and the child exits 1."""
    code, result = 1, None
    try:
        result = _run(run_fold, folds)
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    except Exception:
        import traceback  # only here: the caller imports this module on its first audit

        traceback.print_exc()
        if result is not None and result[1] is not None:
            traceback.print_exception(result[1][1])
    finally:
        os._exit(code)


def _receive(pipe):
    """What a child sent through the pipe, once it closed its end; None if it
    sent nothing that unpickles."""
    with pipe:
        data = pipe.read()
    try:
        return pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):  # nothing, or cut short
        return None


def map_folds(run_fold, n_folds: int, processes: int) -> list:
    """[run_fold(f) for f in range(n_folds)], over `processes` processes."""
    if processes < 2:
        return [run_fold(f) for f in range(n_folds)]
    children = {}  # pid -> (the read end of its pipe, its folds); removed once joined
    try:
        for k in range(1, processes):
            try:  # out of descriptors or processes, the caller runs the rest
                read, write = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                os.close(read)
                for pipe, _ in children.values():
                    pipe.close()
                _child(run_fold, range(k, n_folds, processes), write)
            os.close(write)
            children[pid] = (os.fdopen(read, "rb"), range(k, n_folds, processes))
        forked = {f for _, folds in children.values() for f in folds}
        outcomes, failure = _run(run_fold, [f for f in range(n_folds) if f not in forked])
        failures = [failure] if failure else []
        for pid in list(children):
            pipe, folds = children[pid]
            result = _receive(pipe)
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if result is None:
                raise ExperimentError(
                    f"the process running folds {list(folds)} ended with exit code "
                    f"{os.waitstatus_to_exitcode(status)} and sent no result")
            outcomes.update(result[0])
            if result[1]:
                failures.append(result[1])
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return [outcomes[f] for f in range(n_folds)]
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
