"""One worker pool: the only place ``src/`` starts worker processes.

The one parallel phase left — describing a corpus (steps 1-3,
:class:`~repro.ingest.builder.ParallelIngestor`) — is an
ordered :meth:`WorkerPool.map` of module-level functions over a
:class:`concurrent.futures.ProcessPoolExecutor` on the default
``multiprocessing`` context, whose initializer installs the phase's
read-only state in each worker once.

**Failure rule.**  A worker that dies (killed, out of memory) or an
initializer that raises surfaces as one :class:`PoolBroken`, and the
caller finishes on its serial path, which yields the identical result.
No retry: a worker killed by its payload dies again on the same payload.
A task's own exception propagates with its type and cancels the tasks
still pending.  ``concurrent.futures`` and ``multiprocessing`` (~26 ms)
are resolved by the first pool; callers resolve this module where they
dispatch, so a serial run loads neither.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Iterable, Iterator

from .._lazy import resolve

#: Tasks in flight per worker: one running, one queued behind it.
WINDOW_PER_WORKER = 2


class PoolBroken(RuntimeError):
    """A worker died or its initializer raised: the pool cannot finish."""


def picklable(value: object) -> bool:
    """Can ``value`` cross a process boundary on any start method?"""
    try:
        resolve("pickle:dumps")(value)
    except Exception:
        return False
    return True


class WorkerPool:
    """An open pool of ``workers`` processes; :meth:`map` runs tasks on it."""

    def __init__(self, executor, workers: int) -> None:
        self._executor = executor
        self.window = WINDOW_PER_WORKER * workers

    def map(self, function: Callable, tasks: Iterable) -> Iterator:
        """``function(task)`` for each task, yielded in task order.

        At most :attr:`window` tasks are in flight: the next task is
        taken from ``tasks`` only as a result is handed out, so a lazy
        stream runs a bounded distance ahead of the workers, never to
        its end.
        """
        tasks = iter(tasks)
        submit = self._executor.submit
        pending = deque(submit(function, task) for task in islice(tasks, self.window))
        while pending:
            result = pending.popleft().result()
            pending.extend(submit(function, task) for task in islice(tasks, 1))
            yield result


@contextmanager
def open_pool(
    workers: int, initializer: Callable | None = None, initargs: tuple = ()
) -> Iterator[WorkerPool]:
    """``workers`` processes, each initialized by ``initializer(*initargs)``.

    Consume :meth:`WorkerPool.map` in the ``with`` block, as often as needed.
    A broken pool raises :class:`PoolBroken` from the block.
    """
    ProcessPoolExecutor = resolve("concurrent.futures:ProcessPoolExecutor")
    broken = resolve("concurrent.futures.process:BrokenProcessPool")
    executor = ProcessPoolExecutor(
        workers,
        mp_context=resolve("multiprocessing:get_context")(),
        initializer=initializer,
        initargs=initargs,
    )
    try:
        yield WorkerPool(executor, workers)
    except broken as error:
        raise PoolBroken("a pool worker died or failed to start") from error
    finally:
        executor.shutdown(cancel_futures=True)
