"""Forked worker processes that run groups of independent items.

:func:`map_in_workers` is the one place that deals work to processes, by one
rule: it deals items round-robin to ``min(workers, len(items))`` groups when
their path steps reach ``_FORK_MIN_PATH_STEPS`` and this process can fork, and
to one group otherwise.  The first group runs in the calling process and each
other one in a child made with ``os.fork``, which sends its values back
pickled over a pipe.  ``fk_batch`` deals its queries this way, ``reproduce``
its experiments and ``conditioning_sweep`` its noise levels.
``multiprocessing`` is not used: the model callables are closures, which do
not pickle, and it starts helper threads.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Optional

from .errors import EvaluationError
from .models import is_int


# Fewest Euler-Maruyama path steps for which work forks.  Measured with two
# workers on 2 vCPUs: fk_batch was slower forked in 23 of 25 shapes below 2e5
# path steps, faster in 48 of 52 from 1e6 on (shapes listed in CHANGES.md); two
# sweep rows of 300 paths x 50 steps took 20 ms in one process, 24 ms forked.
_FORK_MIN_PATH_STEPS = 1_000_000


def _run_group(task, group):
    """``(values, None)`` for the values ``task(group)`` yields, or ``(values
    so far, exc)`` when it raises ``exc``; a task that yields one value per
    item thereby names its first failing item by ``len(values)``."""
    values = []
    try:
        for value in task(group):
            values.append(value)
    except Exception as exc:
        return values, exc
    return values, None


def _worker_main(task, group, worker: int, fd: int) -> None:
    """Body of a forked worker: send ``_run_group(task, group)`` pickled over
    the pipe ``fd``, with an exception that would not rebuild in the parent
    replaced by an ``EvaluationError`` naming it; then leave through
    ``os._exit``, so no cleanup of the parent's runs here."""
    code = 1
    try:
        try:
            values, exc = _run_group(task, group)
        except BaseException as interrupt:  # the parent re-raises it
            values, exc = [], interrupt
        if exc is not None:
            try:
                pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            except Exception:
                exc = EvaluationError(f"worker {worker} raised {type(exc).__name__}: {exc}")
        view = memoryview(pickle.dumps((values, exc), pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(fd, view):]
        code = 0
    finally:
        os._exit(code)


def _fork_worker(task, group, worker: int):
    """Fork a child that runs ``group`` through :func:`_worker_main`; returns
    its pid and the read end of its pipe.  ``OSError`` when no pipe or
    process can be made."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _worker_main(task, group, worker, write_fd)
    os.close(write_fd)
    return pid, read_fd


def _receive(worker: int, fd: int):
    """The ``(values, exc)`` a worker sent over ``fd``, read to end of file."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    try:
        return pickle.loads(b"".join(chunks))
    except Exception:
        raise EvaluationError(f"worker {worker} exited without a result") from None


def _run_groups(task, groups) -> list:
    """``[list(task(g)) for g in groups]``, each group after the first run by
    a forked child that sends its values back over a pipe.

    When a pipe or a fork fails (``OSError``, e.g. no process to spare),
    that group and the rest run in this process instead.  Each group runs
    to its end or its first exception.  Of the groups that raised, the one
    whose task had yielded the fewest values (the first of those on a tie)
    has its exception raised here: for items dealt round-robin, a value
    yielded per item, that is the first failing item in item order.  Every
    child is reaped before this returns or raises, and is killed first when
    the first group fails before yielding, when this process is interrupted
    or when a child sends no result.
    """
    children = []
    finished = False
    try:
        for worker, group in enumerate(groups[1:], start=1):
            try:
                children.append(_fork_worker(task, group, worker))
            except OSError:
                break
        values, exc = _run_group(task, groups[0])
        if exc is not None and not values:
            raise exc  # no failure can come before it: the workers are killed
        own = [(values, exc), *(_run_group(task, g) for g in groups[1 + len(children):])]
        outcomes = [own[0], *(_receive(worker, read_fd)
                              for worker, (_, read_fd) in enumerate(children, start=1)),
                    *own[1:]]
        finished = True
    finally:
        if not finished:
            import signal  # 0.6 ms to import; only a failed run needs it
        for pid, read_fd in children:
            os.close(read_fd)
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [(len(values), g, exc) for g, (values, exc) in enumerate(outcomes)
              if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[:2])[2]
    return [values for values, _ in outcomes]


def map_in_workers(fn, items, workers: Optional[int], path_steps: float) -> list:
    """The values ``fn`` yields for ``items``, one per item, in item order.

    The items are dealt round-robin to ``min(workers, len(items))`` groups
    (``workers=None``: the CPUs this process may use), and ``fn(group)``
    yields one value per item of the group, in order.  This process runs
    the first group and a forked worker each other one, which sends its
    values back pickled.  A group stops at its first exception, and the one
    of the first failing item in item order, counted by the values yielded
    before it, is raised here, as a serial run raises it.  Everything runs
    here, as one group, when ``path_steps``, the path steps of all items
    together, is below ``_FORK_MIN_PATH_STEPS``, or when this process cannot
    fork: no ``os.fork``, or other threads running (a fork would copy their
    locks).  ``fn`` must not depend on which process runs it.
    """
    items = list(items)
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    elif not is_int(workers) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    n = min(workers, len(items))
    if not (n > 1 and path_steps >= _FORK_MIN_PATH_STEPS and hasattr(os, "fork")
            and threading.active_count() == 1):
        n = 1
    groups = [items[k::n] for k in range(n)]
    results = _run_groups(fn, groups)
    return [results[i % n][i // n] for i in range(len(items))]
