"""The thread setting, and the block runner of the in-process kernels.

``resolve_threads`` is the one thread setting: an explicit count, else
``DISTCLUST_THREADS``, else the CPUs the process may run on. The benchmark
harness counts its trial processes with it, the calling process among
them, and the divergence kernels their threads. Every process that runs
trials runs its kernels on one thread (a pool worker's initializer calls
``one_kernel_thread``, ``kernels_on_one_thread`` pins the caller for the
length of the map), so the processes never ask for more threads than the
cores the setting counts.

``run_blocks`` runs independent blocks of work on a thread pool, or on the
calling thread alone for one thread, and raises the exception of the lowest
failing block, so the error is the one a serial run would raise.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .errors import InvalidConfig

THREADS_ENV_VAR = "DISTCLUST_THREADS"

# 1 in process-pool workers and in a caller running trials; None reads
# resolve_threads()
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


def one_kernel_thread() -> None:
    """For a process-pool initializer: this process runs its kernels on one
    thread."""
    global _kernel_threads
    _kernel_threads = 1


@contextmanager
def kernels_on_one_thread():
    """Run this process's kernels on one thread inside the block, as a pool
    worker's run; the previous setting comes back however the block ends."""
    global _kernel_threads
    previous, _kernel_threads = _kernel_threads, 1
    try:
        yield
    finally:
        _kernel_threads = previous


def kernel_threads() -> int:
    """Threads for one in-process kernel: 1 in a pool worker or a caller
    running trials, else ``resolve_threads()``."""
    return _kernel_threads or resolve_threads()


def run_blocks(work, count: int, threads: int) -> None:
    """Call ``work(b)`` for every block b in ``range(count)``, on up to
    ``threads`` pool threads, or on the calling thread alone for one.

    Results are collected in block order, so the exception raised is the
    lowest failing block's, the one a serial run would raise. Once a block
    has failed no further block is handed to the pool; when the error is
    raised the blocks not yet started are cancelled, lowest first, and
    those running finish before this returns. ``work`` must be safe to run
    concurrently on different blocks.
    """
    threads = min(threads, count)
    if threads <= 1:
        for b in range(count):
            work(b)
        return
    # numpy's error handling is per thread (a context variable from NumPy 2.0
    # on, thread-local state before it), so each block enters the caller's
    caller_err, caller_call = np.geterr(), np.geterrcall()
    failed = []

    def block(b):
        try:
            with np.errstate(call=caller_call, **caller_err):
                work(b)
        except BaseException:
            failed.append(b)
            raise

    with ThreadPoolExecutor(threads, thread_name_prefix="distclust-kernel") as pool:
        futures = []
        try:
            # the pool starts blocks while this loop submits the rest; after
            # a failure only lower blocks, all submitted already, can matter
            for b in range(count):
                if failed:
                    break
                futures.append(pool.submit(block, b))
            for future in futures:
                future.result()
        except BaseException:
            # empties the queue in submission order, lowest block first
            pool.shutdown(cancel_futures=True)
            raise
