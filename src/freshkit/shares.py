"""Work dealt into shares, one per usable CPU, each computed by one process.

The indices of the work are dealt by size into min(n, usable CPUs) shares.
This process computes share 0, which holds the largest item, and one
os.fork()ed helper computes each other share and pickles its values into
a pipe. A helper leaves through os._exit, so inherited stdio buffers and
atexit handlers never run twice. Without os.fork or os.sched_getaffinity,
or with one usable CPU, this process computes the one share there is.

One rule covers every failure: if a helper cannot start, exits nonzero
(as it does when func raises) or sends bytes that do not unpickle, or if
func raises an Exception here, this process kills and reaps the helpers it
has not collected and computes every index itself in one share, as on one
CPU. So a failing run raises what a run on one CPU raises, after at most
one extra one-CPU pass. Any other BaseException, such as
KeyboardInterrupt, propagates at once, after the same kill and reap.

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

__all__ = ["map_shares"]


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


def _fork(func, share: list[int], cpu: int) -> tuple[int, int]:
    """(pid, pipe read end) of a forked helper on cpu that pickles
    func(share) into the pipe; OSError if no helper could start."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # the CPU left this process's set: run where the kernel puts it
                pass
            with open(write_fd, "wb") as pipe:
                pickle.dump(func(share), pipe)
            code = 0
        finally:
            # never return into the caller, flush its inherited stdio buffers
            # or run its atexit handlers a second time
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, read_fd: int) -> list:
    """A helper's values; ChildProcessError if it exited nonzero."""
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise ChildProcessError(f"helper {pid} ended with wait status {status}")
    return pickle.loads(data)  # bytes this program's own helper wrote


def map_shares(func, sizes: list[int]) -> list:
    """One value per index of sizes, in index order, computed share by share.

    The indices are dealt by size into one share per usable CPU, and
    func(share) takes one share's indices, ascending, and returns one value
    per index. If any share fails, func(every index) runs here instead, so
    the run raises what a run on one CPU raises.
    """
    usable = (os.sched_getaffinity(0)
              if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else {0})
    shares = _deal(sizes, min(len(sizes), len(usable)))
    if len(shares) > 1:
        helpers = []
        try:
            for share, cpu in zip(shares[1:], _helper_cpus(usable)):
                helpers.append(_fork(func, share, cpu))
            outcomes = [func(shares[0])]
            while helpers:
                outcomes.append(_collect(*helpers.pop(0)))
            values = [None] * len(sizes)
            for share, outcome in zip(shares, outcomes):
                for i, value in zip(share, outcome):
                    values[i] = value
            return values
        except Exception:  # a share failed: the one-CPU run below raises what it raises
            pass
        finally:  # helpers are left over only when a share failed or this process was interrupted
            for pid, read_fd in helpers:
                os.kill(pid, signal.SIGKILL)
                os.close(read_fd)
                os.waitpid(pid, 0)
    return func(list(range(len(sizes))))
