"""The fork pool on its own: CPU count, part order, dead workers, reaping."""

import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

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


def test_the_callers_error_kills_a_worker_that_is_still_running():
    assert threading.active_count() == 1  # else no worker would be forked
    parent = os.getpid()
    read_end, write_end = os.pipe()

    def fn(part):
        if os.getpid() != parent:
            os.write(write_end, b"up")
            time.sleep(30)
            return part
        assert select.select([read_end], [], [], 10)[0], "the worker never started"
        os.read(read_end, 2)
        raise ValueError("the caller's part failed")

    start = time.monotonic()
    try:
        with pytest.raises(ValueError, match="^the caller's part failed$"):
            pool.fork_map(fn, [0, 1])
    finally:
        os.close(read_end)
        os.close(write_end)
    assert time.monotonic() - start < 5  # killed, not waited for


def test_a_caller_with_other_threads_runs_every_part_itself():
    # a forked child would keep only this thread, and any lock the other holds
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        results = pool.fork_map(lambda part: (part, os.getpid()), ["a", "b", "c"])
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    assert results == [("a", os.getpid()), ("b", os.getpid()), ("c", os.getpid())]


def test_the_calling_process_returns_the_results():
    # a caller that ran a worker's part and _exited would end this process with
    # code 0 while a forked copy of it went on; only a fresh process shows that
    src = str(Path(pool.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = ("import os\nfrom ssdlab import pool\nparent = os.getpid()\n"
              "print(pool.fork_map(lambda part: part * 2, [1, 2, 3]), os.getpid() == parent)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[2, 4, 6] True\n", "")
