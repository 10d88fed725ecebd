"""Work dealt into shares, one per usable CPU, each computed by one process.

The indices of the work are dealt by size into min(n, usable CPUs) shares.
This process computes share 0, which holds the largest item, and one
os.fork()ed helper computes each other share and pickles its outcome into
a pipe. A helper leaves through os._exit, so inherited stdio buffers and
atexit handlers never run twice. The share of a helper that cannot start,
exits nonzero, or sends bytes that do not unpickle is computed by this
process; if this process is interrupted, it kills and reaps the helpers it
has not collected. Without os.fork or os.sched_getaffinity, or with one
usable CPU, this process computes every share through the same code.

Each helper keeps to a usable CPU other than the one this process runs
on, so that every share has a CPU of its own: a kernel that balances no
load across CPUs (a cpuset with sched_load_balance 0) would otherwise
leave every helper on its parent's CPU. This process's own CPUs are left
as they are. A helper that cannot take its CPU runs where the kernel puts
it.

Why fork and not multiprocessing: a spawned helper would import numpy
again, and a process pool costs imports of its own, while numpy has
already loaded pickle. OpenBLAS stops its thread pool before a fork, so
the forking process has one thread.
"""
from __future__ import annotations

import os
import pickle
import signal

__all__ = ["Failed", "map_shares", "map_items"]


class Failed(Exception):
    """error, met by a share at key. Of the shares that fail, map_shares
    raises the error with the smallest key, so keys that follow the order
    of a serial run make it raise what a serial run raises."""

    def __init__(self, key, error: Exception):
        super().__init__(key, error)
        self.key = key
        self.error = error


def _deal(sizes: list[int], n_shares: int) -> list[list[int]]:
    """Indices dealt largest first, each to the share with the least total
    size, and each share in ascending order.

    Ties go to the lower index, so share 0 holds the largest item. A share
    that receives nothing is dropped.
    """
    loads = [0] * n_shares
    shares: list[list[int]] = [[] for _ in range(n_shares)]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += sizes[i]
    return [sorted(share) for share in shares if share]


def _helper_cpus(usable: set[int]) -> list[int]:
    """The usable CPUs, the one this process runs on last; that one is field
    39 of /proc/self/stat, and where that cannot be read the order is plain."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            here = int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        here = None
    return sorted(usable, key=lambda cpu: (cpu == here, cpu))


def _outcome(func, share: list[int]):
    """func(share), or the Failed it raised."""
    try:
        return func(share)
    except Failed as failed:
        return failed


def _fork(func, share: list[int], cpu: int):
    """(pid, pipe read end) of a forked helper on cpu that pickles share's
    outcome into the pipe, or None if no helper could start."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # the CPU left this process's set: run where the kernel puts it
                pass
            with open(write_fd, "wb") as pipe:
                pickle.dump(_outcome(func, share), pipe)
            code = 0
        finally:
            # never return into the caller, flush its inherited stdio buffers
            # or run its atexit handlers a second time
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, read_fd: int):
    """A helper's outcome, or None if it did not deliver it."""
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        return None
    try:
        return pickle.loads(data)  # bytes this program's own helper wrote
    except Exception:  # an exception type that does not unpickle: recompute here
        return None


def map_shares(func, sizes: list[int]) -> list:
    """One value per index of sizes, in index order, computed share by share.

    The indices are dealt by size into one share per usable CPU, and
    func(share) takes one share's indices, ascending, and returns one value
    per index. A share that fails raises Failed from func; once every share
    is in, the error of the Failed with the smallest key is raised. Any
    other exception func raises in this process propagates at once; in a
    helper it leaves that share to be computed here.
    """
    usable = (os.sched_getaffinity(0)
              if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else {0})
    shares = _deal(sizes, min(len(sizes), len(usable)))
    helpers = [(share, _fork(func, share, cpu))
               for share, cpu in zip(shares[1:], _helper_cpus(usable))]
    try:
        outcomes = [(shares[0], _outcome(func, shares[0]))]
        while helpers:
            share, helper = helpers.pop(0)
            outcome = _collect(*helper) if helper else None
            outcomes.append((share, _outcome(func, share) if outcome is None else outcome))
    finally:  # helpers are left over only when this process raised or was interrupted
        for _, helper in helpers:
            if helper:
                os.kill(helper[0], signal.SIGKILL)
                os.close(helper[1])
                os.waitpid(helper[0], 0)
    failures = [outcome for _, outcome in outcomes if isinstance(outcome, Failed)]
    if failures:
        raise min(failures, key=lambda failed: failed.key).error
    values = [None] * len(sizes)
    for share, outcome in outcomes:
        for i, value in zip(share, outcome):
            values[i] = value
    return values


def map_items(func, items: list, sizes: list[int]) -> list:
    """[func(item) for item in items], shared as map_shares shares them.

    If a call raised, the exception of the first such item in the list is
    raised, as a serial loop would raise it.
    """
    def each(share: list[int]) -> list:
        values = []
        for i in share:
            try:
                values.append(func(items[i]))
            except Exception as exc:  # raised later, in item order, by map_shares
                raise Failed(i, exc)
        return values

    return map_shares(each, sizes)
