"""The fork pool on its own: CPU count, part order, dead workers, reaping."""

import os

import pytest

from ssdlab import pool


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["sched_getaffinity", "fork"])
def test_one_cpu_where_the_process_cannot_fork_or_read_its_affinity(monkeypatch, name):
    assert pool.cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, name)
    assert pool.cpus() == 1


def test_results_come_back_in_part_order():
    parent = os.getpid()
    results = pool.fork_map(lambda part: (part, os.getpid()), ["a", "b", "c"])
    assert [part for part, _ in results] == ["a", "b", "c"]
    pids = [pid for _, pid in results]
    assert pids[0] == parent and parent not in pids[1:] and pids[1] != pids[2]


def test_a_worker_that_dies_before_its_result_raises_here():
    parent = os.getpid()

    def fn(part):
        if os.getpid() != parent:
            os._exit(3)
        return part

    with pytest.raises(ChildProcessError, match="a worker exited with code 3"):
        pool.fork_map(fn, [0, 1, 2])
