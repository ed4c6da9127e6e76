"""The fork helper: two parts of one job in this process and one worker,
with the result and the exception of one process, and no process left."""

import errno
import os
import signal
import time

import pytest

from infothermo import parallel
from infothermo.protocols import NotAnErasureError

from builders import allow_cores, assert_no_child_left, deadline


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child_left()


def record_waits(monkeypatch) -> list:
    """Record the wait status of each process reaped."""
    statuses = []
    waitpid = os.waitpid

    def recorded_waitpid(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    return statuses


def test_returns_both_results_upper_from_the_worker(monkeypatch):
    parent = os.getpid()
    forks = allow_cores(monkeypatch, 2)
    statuses = record_waits(monkeypatch)
    with deadline(60):
        lower, upper = parallel.in_two(lambda: ("lower", os.getpid()),
                                       lambda: ("upper", os.getpid()))
    assert lower == ("lower", parent)
    assert upper[0] == "upper" and upper[1] != parent
    assert forks == [parent] and statuses == [0]


def test_the_workers_exception_keeps_its_class_and_message(monkeypatch):
    def fail():
        raise NotAnErasureError("left weight 0.1 (erasure seed=1 index=3)")

    forks = allow_cores(monkeypatch, 2)
    statuses = record_waits(monkeypatch)
    with deadline(60), pytest.raises(NotAnErasureError) as raised:
        parallel.in_two(lambda: 1, fail)
    assert type(raised.value) is NotAnErasureError
    assert str(raised.value) == "left weight 0.1 (erasure seed=1 index=3)"
    assert forks == [os.getpid()] and statuses == [0]


def test_an_exception_here_kills_the_worker_and_propagates(monkeypatch):
    def fail():
        raise MemoryError("injected")

    allow_cores(monkeypatch, 2)
    statuses = record_waits(monkeypatch)
    # the worker would sleep past the deadline if it were not killed
    with deadline(30), pytest.raises(MemoryError, match="^injected$"):
        parallel.in_two(fail, lambda: time.sleep(120))
    assert len(statuses) == 1
    assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL


def test_this_processs_exception_wins_over_the_workers(monkeypatch):
    def fail_here():
        raise NotAnErasureError("lower")

    def fail_there():
        raise NotAnErasureError("upper")

    allow_cores(monkeypatch, 2)
    with deadline(60), pytest.raises(NotAnErasureError, match="^lower$"):
        parallel.in_two(fail_here, fail_there)


@pytest.mark.parametrize("cores", [1, None], ids=["one-core", "no-sched-getaffinity"])
def test_no_second_core_means_no_fork(monkeypatch, cores):
    forks = allow_cores(monkeypatch, cores or 2)
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    assert not parallel.two_cores()
    order = []
    result = parallel.in_two(lambda: order.append("lower") or os.getpid(),
                             lambda: order.append("upper") or os.getpid())
    assert result == (os.getpid(), os.getpid())
    assert order == ["lower", "upper"] and forks == []


def test_a_fork_that_fails_runs_both_here(monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    order = []
    result = parallel.in_two(lambda: order.append("lower") or os.getpid(),
                             lambda: order.append("upper") or os.getpid())
    assert result == (os.getpid(), os.getpid())
    assert order == ["lower", "upper"]
