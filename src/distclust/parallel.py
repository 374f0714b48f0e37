"""The thread setting, and the block runner of the in-process kernels.

``resolve_threads`` is the one thread setting: an explicit count, else
``DISTCLUST_THREADS``, else the CPUs the process may run on. The benchmark
harness sizes its process pool with it and the divergence kernels their
threads. A process-pool worker runs its kernels on one thread
(``one_kernel_thread`` is the pool's initializer), so workers never ask
for more threads than the cores the setting counts.

``run_blocks`` runs independent blocks of work on threads, the calling
thread included, and raises the exception of the lowest failing block, so
the error is the one a serial run would raise.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidConfig

THREADS_ENV_VAR = "DISTCLUST_THREADS"

# set to 1 in process-pool workers; None reads resolve_threads()
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
    """Process-pool initializer: this process runs its kernels on one thread."""
    global _kernel_threads
    _kernel_threads = 1


def kernel_threads() -> int:
    """Threads for one in-process kernel: 1 in a pool worker, else
    ``resolve_threads()``."""
    return _kernel_threads or resolve_threads()


def run_blocks(work, count: int, threads: int) -> None:
    """Call ``work(b)`` for every block b in ``range(count)``, on up to
    ``threads`` threads, the caller's one of them.

    Threads claim blocks in ascending order, so every block below a failing
    one has been claimed and runs to its end; blocks above the lowest
    failure are skipped. The lowest failing block's exception is raised.
    ``work`` must be safe to run concurrently on different blocks.
    """
    threads = min(threads, count)
    if threads <= 1:
        for b in range(count):
            work(b)
        return
    lock = threading.Lock()
    claims = iter(range(count))
    errors: dict[int, BaseException] = {}

    def drain():
        while True:
            with lock:
                b = next(claims, None)
                if b is None or (errors and b > min(errors)):
                    return
            try:
                work(b)
            except Exception as exc:
                with lock:
                    errors[b] = exc
                return

    # numpy's error handling is per thread (a context variable from NumPy 2.0
    # on, thread-local state before it), so each helper enters the caller's
    caller_err, caller_call = np.geterr(), np.geterrcall()

    def helper():
        with np.errstate(call=caller_call, **caller_err):
            drain()

    with ThreadPoolExecutor(threads - 1, thread_name_prefix="distclust-kernel") as pool:
        helpers = [pool.submit(helper) for _ in range(threads - 1)]
        try:
            drain()
        except BaseException as exc:  # an interrupt: the helpers claim no more
            with lock:
                errors[-1] = exc
            raise
        for helper in helpers:
            helper.result()
    if errors:
        raise errors[min(errors)]
