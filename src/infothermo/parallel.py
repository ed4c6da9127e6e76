"""Two parts of one job in two processes: this one and one forked worker.

`in_two(lower, upper)` returns `(lower(), upper())`.  The caller promises
that `upper` reads no result of `lower` and that, in the one-process order,
all of `lower`'s work comes before all of `upper`'s.  Under that promise the
result, and the exception raised, are those of one process: this process's
exception wins, and the worker's is raised only when `lower` returned.

The worker is forked, so it starts from this process's memory, test hooks
included, and sends back its result or its exception, pickled, through a
pipe.  It leaves through os._exit, so it writes no file and flushes no stdio
buffer.  An exception here kills the worker, whose result need not fit the
pipe's buffer, and the worker is reaped on every path.  A worker that ends
without a result, killed or unable to pickle it, is a ChildProcessError.

`os.fork`, `os.sched_getaffinity` and `os.waitpid` are looked up at each
call, so a caller or test that replaces them is honoured.
"""

from __future__ import annotations

import os
from typing import Callable


def two_cores() -> bool:
    """Whether this process may run on two cores or more; False on a host
    without `os.sched_getaffinity`."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def in_two(lower: Callable, upper: Callable) -> tuple:
    """`(lower(), upper())`, with `upper` run by one forked worker process on
    a host that allows this one two cores; otherwise, or where no process
    can be started, both are run here, `lower` first."""
    if not two_cores():
        return lower(), upper()
    # imported here, since only this path uses them (numpy has loaded pickle)
    import pickle
    import signal

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return lower(), upper()
    if pid == 0:
        try:
            os.close(read_end)
            try:
                result = upper()
            except BaseException as exc:   # re-raised by the parent
                result = exc
            with open(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(result))
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            first = lower()
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not payload:
        raise ChildProcessError(
            f"the worker process ended without a result (wait status {status})")
    second = pickle.loads(payload)
    if isinstance(second, BaseException):
        raise second
    return first, second
