"""freshkit.shares: dealing, the CPU each helper keeps to, and failure order."""
import os

import pytest

from freshkit import shares
from freshkit.shares import Failed, map_items, map_shares


_affinity = os.sched_getaffinity  # the real one, where a test patches os's


def _where(share):
    """(pid, allowed CPUs, current CPU) of the process that computes share, per index."""
    with open("/proc/self/stat", "rb") as stat:
        cpu = int(stat.read().rpartition(b")")[2].split()[36])
    return [(os.getpid(), _affinity(0), cpu)] * len(share)


def test_deal_balances_sizes_and_keeps_each_share_ascending():
    assert shares._deal([5, 9, 1, 4, 4], 2) == [[1, 4], [0, 2, 3]]  # loads 13 and 10
    assert shares._deal([3, 3, 3], 3) == [[0], [1], [2]]
    assert shares._deal([7, 2], 4) == [[0], [1]]  # a share that receives nothing is dropped


def test_helper_cpus_put_the_current_cpu_last():
    usable = os.sched_getaffinity(0)
    try:
        for cpu in sorted(usable):
            os.sched_setaffinity(0, {cpu})  # now this process runs on cpu
            order = shares._helper_cpus(usable)
            assert sorted(order) == sorted(usable) and order[-1] == cpu
    finally:
        os.sched_setaffinity(0, usable)


def test_each_helper_keeps_to_a_cpu_other_than_the_callers(monkeypatch):
    usable = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable)
    try:
        for cpu in sorted(usable):
            os.sched_setaffinity(0, {cpu})  # this process stays on cpu
            values = map_shares(_where, [1] * len(usable))
            here = [v for v in values if v[0] == os.getpid()]
            helpers = [v for v in values if v[0] != os.getpid()]
            assert here == [(os.getpid(), {cpu}, cpu)]  # this process keeps its CPUs
            assert sorted(cpus for _, cpus, _ in helpers) == [{c} for c in sorted(usable - {cpu})]
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    finally:
        os.sched_setaffinity(0, usable)


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_smallest_key_wins_whichever_share_meets_it(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))

    def func(share):  # all items' stage 0, then all items' stage 1, as the nested search
        for stage in (0, 1):
            for i in share:
                if (stage, i) in {(1, 1), (1, 3), (0, 6)}:
                    raise Failed((stage, i), ValueError(f"item {i}"))
        return share

    with pytest.raises(ValueError, match=r"^item 6$"):  # (0, 6) comes before (1, 1)
        map_shares(func, [4, 9, 2, 7, 7, 1, 3])
    assert map_shares(lambda share: [-i for i in share], [4, 9, 2, 7]) == [0, -1, -2, -3]
    with pytest.raises(ZeroDivisionError):  # the first failing item in list order
        map_items(lambda x: 1 / x, [3, 0, "x", 0], [1, 1, 9, 9])
