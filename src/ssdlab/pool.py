"""One fork pool, which toyfsm.monte_carlo_success and the CLI's analyze-dump
split their work through; where the process cannot fork, cpus() is 1."""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable


def cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    try:
        return len(os.sched_getaffinity(0)) if hasattr(os, "fork") else 1
    except AttributeError:  # no sched_getaffinity
        return 1


def _worker(read_end: int, write_end: int, fn: Callable, part) -> None:
    """A forked worker's whole life: run fn(part), pickle its result or the
    exception it raised into the pipe, and _exit, never returning into the
    caller or flushing inherited stdio. Exit code 0 means the whole pickle was
    written."""
    code = 1
    try:
        os.close(read_end)
        try:
            outcome = True, fn(part)
        except BaseException as exc:  # e.g. KeyboardInterrupt
            outcome = False, exc
        blob = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(blob)
        code = 0
    finally:
        os._exit(code)


def fork_map(fn: Callable, parts: list) -> list:
    """[fn(part) for part in parts]: the first part here, each other in its own
    forked worker, whose exception is raised here. Every worker is reaped on
    every path, and killed first if its result is no longer wanted; a worker
    that dies before sending its result raises ChildProcessError."""
    workers, blobs, statuses = [], [], []  # (pid, read end) per worker, in part order
    try:
        for part in parts[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _worker(read_end, write_end, fn, part)
            os.close(write_end)
            workers.append((pid, read_end))
        results = [fn(parts[0])]
        for _, read_end in workers:
            with open(read_end, "rb", closefd=False) as pipe:
                blobs.append(pipe.read())
    finally:
        for k, (pid, read_end) in enumerate(workers):
            os.close(read_end)
            if k >= len(blobs):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for code, blob in zip(statuses, blobs):
        if code != 0:
            raise ChildProcessError(f"a worker exited with code {code} "
                                    "before sending its result")
        ok, value = pickle.loads(blob)
        if not ok:
            raise value
        results.append(value)
    return results
