"""The thread setting, the kernel scope, and the one claim loop.

``resolve_threads`` is the one thread setting: an explicit count, else
``DISTCLUST_THREADS``, else the CPUs the process may run on. The benchmark
harness counts its trial processes with it, the calling process among
them, and the in-process kernels their threads, the calling thread among
them. ``kernel_scope`` holds the kernels' thread count and their one
pool of helper threads: every process that runs trials, the caller and
each pool worker, runs them in ``kernel_scope(1)``, so the processes never
ask for more threads than the cores the setting counts, and ``pipeline``
opens one scope per spectral run, whose passes then share one pool, as
a pool takes about 0.2 ms to start and join (2 vCPU). The scope is a
context variable: a thread of the caller's own sees no scope it did not
open.

``claim`` is the one claim loop, of kernel blocks and of trials alike: a
worker takes the next index off a shared counter until none is left.
``run_claimed`` runs it on the caller and on pool helpers, threads for
``run_blocks`` and worker processes for ``pipeline`` (forked on Linux from
a single-threaded caller, spawned elsewhere; see
``pipeline._start_method``), and raises the lowest failing index's
exception, the one a serial run would raise.

Two kinds of kernel run on the threads of ``run_blocks``: the pair blocks
of ``metrics.distance_matrix``, W2's and Bhattacharyya's, and the n x n
passes of a spectral run (the mean distances, the kernel, the degree sums
and the products with W), which ``row_blocks`` cuts into fixed blocks of
``_BLOCK_ROWS`` rows. A block is the same row range at any thread count,
so its results are too. The threads allocate no array of their own beyond
a few KiB: outputs and the scratch buffers ``row_blocks`` hands out are
allocated by the calling thread, so no thread's malloc arena holds freed
n x n pieces.
"""

import contextvars
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from .errors import InvalidConfig
from .matrixcore import _BLOCK_ROWS

THREADS_ENV_VAR = "DISTCLUST_THREADS"

# the open kernel scope, if any
_scope = contextvars.ContextVar("distclust_kernel_scope", default=None)


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
def kernel_scope(threads: int | None = None):
    """Run the kernels inside the block on ``threads`` threads, the calling
    one among them, ``resolve_threads()`` by default, and their helper
    threads on one pool, joined when the block exits, however it exits,
    so no helper outlives it; the first call that needs the pool starts
    it. ``kernel_scope()`` inside an open scope is that scope. A call that
    fails by an exception escaping its blocks, such as an interrupt, shuts
    the pool down and drops it from the scope, so a caller that catches
    the exception inside the scope gets a new pool on its next call."""
    if threads is None and _scope.get() is not None:
        yield
        return
    scope = SimpleNamespace(threads=resolve_threads(threads), pool=None)
    token = _scope.set(scope)
    try:
        yield
    finally:
        _scope.reset(token)
        if scope.pool is not None:
            scope.pool.shutdown()


def kernel_threads() -> int:
    """Threads for one in-process kernel: the open scope's count, else
    ``resolve_threads()``."""
    scope = _scope.get()
    return resolve_threads() if scope is None else scope.threads


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
    interrupt in the caller, sets the counter past the end, shuts the pool
    down, cancelling the helpers not yet started, and is raised once the
    running ones return.
    """
    return _results(_claimed_outcomes(fn, items, counter, pool, helpers, task))


def _claimed_outcomes(fn, items, counter, pool, helpers: int, task) -> dict:
    """``run_claimed``'s claim loops: index -> (result, exception). Every
    exception it raises has escaped a claim loop and shut ``pool`` down."""
    try:
        futures = [pool.submit(task) for _ in range(helpers)]
        outcomes = claim(fn, items, counter)
        for future in futures:
            outcomes.update(future.result())
    except BaseException:
        _stop(counter, len(items))
        pool.shutdown(cancel_futures=True)
        raise
    return outcomes


def _results(outcomes: dict) -> list:
    """The results in index order, or the lowest failing index's exception."""
    results = []
    # every index below the lowest failing one has run
    for _, (result, exc) in sorted(outcomes.items()):
        if exc is not None:
            raise exc
        results.append(result)
    return results


def run_blocks(work, count: int, threads: int) -> list:
    """``[work(b) for b in range(count)]`` on ``threads`` threads, at most
    the open scope's count, the calling one and ``threads - 1`` helpers of
    the scope's pool, through ``run_claimed``; with no scope open, inside
    one of ``threads`` for this call. ``work`` must be safe to run
    concurrently on different blocks."""
    scope = _scope.get()
    threads = min(threads, count, scope.threads if scope else threads)
    if threads <= 1:
        return [work(b) for b in range(count)]
    if scope is None:
        with kernel_scope(threads):
            return run_blocks(work, count, threads)
    # numpy's error handling is per thread (a context variable from NumPy 2.0
    # on, thread-local state before it), so each helper enters the caller's
    caller_err, caller_call = np.geterr(), np.geterrcall()
    counter = _Counter()

    def helper():
        with np.errstate(call=caller_call, **caller_err):
            return claim(work, range(count), counter)

    if scope.pool is None:
        scope.pool = ThreadPoolExecutor(scope.threads - 1, thread_name_prefix="distclust-kernel")
    try:
        outcomes = _claimed_outcomes(work, range(count), counter, scope.pool, threads - 1, helper)
    except BaseException:
        scope.pool = None  # shut down: the scope's next call starts another
        raise
    return _results(outcomes)


def row_blocks(n: int, work, scratch: int = 0) -> list:
    """``[work(s, e) for each block [s, e) of _BLOCK_ROWS rows of n]``, in
    block order, through ``run_blocks`` on ``kernel_threads()`` threads; at
    most _BLOCK_ROWS rows are one block, run on the calling thread alone.

    With ``scratch``, each thread running blocks has its own buffer of that
    many floats, allocated here before any block runs, and a block is
    ``work(s, e, buffer)``. The blocks must write disjoint parts of their
    outputs.
    """
    count = -(-n // _BLOCK_ROWS)
    threads = min(kernel_threads(), count)
    free = queue.SimpleQueue()
    for _ in range(threads if scratch else 0):
        free.put(np.empty(scratch))

    def block(b):
        s, e = b * _BLOCK_ROWS, min((b + 1) * _BLOCK_ROWS, n)
        if not scratch:
            return work(s, e)
        # at most `threads` blocks run at once, so a buffer is always free
        buffer = free.get()
        try:
            return work(s, e, buffer)
        finally:
            free.put(buffer)

    return run_blocks(block, count, threads)
