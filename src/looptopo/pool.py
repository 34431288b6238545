"""One ordered map over the CPUs this process may run on.

``ordered_map`` is the package's one source of threads: the closed-form
kernel maps its row chunks through it, and dataset I/O its array files. Its
result does not depend on the number of CPUs.
"""

import collections
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

#: The threads ``ordered_map`` works with: one per CPU this process may run on.
WORKERS = len(os.sched_getaffinity(0))

_helpers = None


def _drop_helpers():
    global _helpers
    _helpers = None


# a forked child has none of the parent's threads, so it starts its own pool
os.register_at_fork(after_in_child=_drop_helpers)


def ordered_map(fn, items):
    """``[fn(x) for x in items]``, with the items spread over ``WORKERS`` threads.

    The calling thread works through the items beside ``WORKERS - 1`` pool
    threads, started on first use. Each call of ``fn`` runs in a copy of the
    caller's context, so the caller's ``np.errstate`` holds in it. Returns once
    every item has finished; if some raised, raises the exception of the
    earliest of them. With one item or one worker it runs inline.
    """
    global _helpers
    items = list(items)
    if len(items) < 2 or WORKERS < 2:
        return [fn(x) for x in items]
    context = contextvars.copy_context()
    todo = collections.deque(range(len(items)))
    results, errors = [None] * len(items), {}
    finished = threading.Semaphore(0)

    def drain():
        while True:
            try:
                i = todo.popleft()
            except IndexError:
                return
            try:
                results[i] = context.copy().run(fn, items[i])
            except BaseException as exc:
                errors[i] = exc
            finished.release()

    if _helpers is None:
        _helpers = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="looptopo")
    for _ in range(min(WORKERS, len(items)) - 1):
        _helpers.submit(drain)
    drain()
    # count finished items, not helpers: a helper that starts late finds nothing to do
    for _ in items:
        finished.acquire()
    if errors:
        raise errors[min(errors)]
    return results
