"""One worker thread per CPU for numpy kernels that release the GIL."""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def cpu_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """[fn(x) for x in items], evaluated on a thread pool with one worker
    per CPU this process may run on; the results come back in input order.

    The pool is opened and joined within the call, so no thread outlives
    it.  fn should spend its time in numpy routines that release the GIL,
    and must never call a public function of this package: perfbench's
    tracer wraps those with one call stack per process, which is not
    thread-safe.
    """
    # imported here: concurrent.futures adds ~10 ms to every CLI start
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        return list(pool.map(fn, items))
