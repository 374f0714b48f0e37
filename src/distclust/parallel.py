"""The thread setting, and the one claim loop of kernel blocks and trials.

``resolve_threads`` is the one thread setting: an explicit count, else
``DISTCLUST_THREADS``, else the CPUs the process may run on. The benchmark
harness counts its trial processes with it, the calling process among
them, and the divergence kernels their threads, the calling thread among
them. Every process that runs trials, the caller and each pool worker,
runs its kernels on one thread inside ``kernels_on_one_thread``, so the
processes never ask for more threads than the cores the setting counts.

``claim`` is the one claim loop, of kernel blocks and of trials alike: a
worker takes the next index off a shared counter until none is left.
``run_claimed`` runs it on the caller and on pool helpers, threads for
``run_blocks`` and worker processes for ``pipeline`` (forked on Linux from
a single-threaded caller, spawned elsewhere; see
``pipeline._start_method``), and raises the lowest failing index's
exception, the one a serial run would raise.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .errors import InvalidConfig

THREADS_ENV_VAR = "DISTCLUST_THREADS"

# 1 in a process running trials; None reads resolve_threads()
_kernel_threads: int | None = None


def resolve_threads(explicit: int | None = None) -> int:
    """Worker count: explicit argument, else DISTCLUST_THREADS, else usable CPUs."""
    if explicit is not None:
        if explicit < 1:
            raise InvalidConfig(f"threads must be positive, got {explicit}")
        return explicit
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise InvalidConfig(
                f"{THREADS_ENV_VAR}={raw!r} is not an integer"
            ) from None
        if value < 1:
            raise InvalidConfig(f"{THREADS_ENV_VAR} must be positive, got {value}")
        return value
    # an affinity mask (containers, taskset) may allow fewer CPUs than the host's
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def kernels_on_one_thread():
    """Run this process's kernels on one thread inside the block, as every
    process running trials does; the previous setting comes back however
    the block ends."""
    global _kernel_threads
    previous, _kernel_threads = _kernel_threads, 1
    try:
        yield
    finally:
        _kernel_threads = previous


def kernel_threads() -> int:
    """Threads for one in-process kernel: 1 in a process running trials,
    else ``resolve_threads()``."""
    return _kernel_threads or resolve_threads()


class _Counter:
    """A ``multiprocessing.Value``'s ``value`` and ``get_lock()`` for threads."""

    def __init__(self):
        self.value, self._lock = 0, threading.Lock()

    def get_lock(self):
        return self._lock


def claim(fn, items, counter) -> dict:
    """One worker's share of ``items``: take the next index off ``counter``
    under its lock and run ``fn`` on its item, until none is left; index ->
    (result, exception). A failure sets the counter past the end."""
    count = len(items)
    outcomes = {}
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= count:
            return outcomes
        try:
            outcomes[i] = fn(items[i]), None
        except Exception as exc:
            outcomes[i] = None, exc
            _stop(counter, count)


def _stop(counter, count: int) -> None:
    with counter.get_lock():
        counter.value = count


def run_claimed(fn, items, counter, pool, helpers: int, task) -> list:
    """``[fn(item) for item in items]`` on the calling thread, running
    ``claim`` over ``counter``, and on ``helpers`` pool tasks ``task()``,
    each a ``claim`` over the same counter. Raises the lowest failing
    index's exception. An exception that escapes ``claim``, such as an
    interrupt in the caller, sets the counter past the end, cancels the
    helpers not yet started and is raised once the running ones return.
    """
    try:
        futures = [pool.submit(task) for _ in range(helpers)]
        outcomes = claim(fn, items, counter)
        for future in futures:
            outcomes.update(future.result())
    except BaseException:
        _stop(counter, len(items))
        pool.shutdown(cancel_futures=True)
        raise
    results = []
    # every index below the lowest failing one has run
    for _, (result, exc) in sorted(outcomes.items()):
        if exc is not None:
            raise exc
        results.append(result)
    return results


def run_blocks(work, count: int, threads: int) -> None:
    """Call ``work(b)`` for every block b in ``range(count)`` on ``threads``
    threads, the calling one and ``threads - 1`` pool threads, through
    ``run_claimed``. ``work`` must be safe to run concurrently on
    different blocks."""
    threads = min(threads, count)
    if threads <= 1:
        for b in range(count):
            work(b)
        return
    # numpy's error handling is per thread (a context variable from NumPy 2.0
    # on, thread-local state before it), so each helper enters the caller's
    caller_err, caller_call = np.geterr(), np.geterrcall()
    counter = _Counter()

    def helper():
        with np.errstate(call=caller_call, **caller_err):
            return claim(work, range(count), counter)

    with ThreadPoolExecutor(threads - 1, thread_name_prefix="distclust-kernel") as pool:
        run_claimed(work, range(count), counter, pool, threads - 1, helper)
