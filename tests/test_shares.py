"""freshkit.shares: dealing, the CPU each helper keeps to, and the one-CPU fallback."""
import os
import pickle

import pytest

from freshkit import shares
from freshkit.shares import map_shares


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


def _raises(func, sizes, n_cpus, monkeypatch):
    """The exception map_shares(func, sizes) raises on n_cpus CPUs, after checking
    that every helper was reaped."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        with pytest.raises(Exception) as info:
            map_shares(func, sizes)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return type(info.value), str(info.value)


def _fails_at(bad):
    def func(share):  # all items' stage 0, then all items' stage 1, as the nested search
        for stage in (0, 1):
            for i in share:
                if (stage, i) in bad:
                    raise ValueError(f"stage {stage} item {i}")
        return share
    return func


def _first_index_raises(share):
    raise ValueError(str(share[0]))


FAILING = [  # (func, sizes)
    (_fails_at({(1, 1), (1, 3), (0, 6)}), [4, 9, 2, 7, 7, 1, 3]),  # only a helper's stage 0
    (_fails_at({(1, 0), (1, 5)}), [4, 9, 2, 7, 7, 1, 3]),  # stage 1 of this process's share
    (_fails_at({(0, 2), (1, 1)}), [4, 9, 2, 7, 7, 1, 3]),  # both
    # on two CPUs this process's share is [1] and a helper's [0]: each raises,
    # and the one-CPU run raises "0"
    (_first_index_raises, [1, 9]),
    (lambda share: [1 / (i - 2) for i in share], [5, 1, 1, 5]),
    (lambda share: [[9][i] for i in share], [1, 2, 3]),
]


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_a_failing_run_raises_what_the_one_cpu_run_raises(monkeypatch, n_cpus):
    for func, sizes in FAILING:
        with pytest.raises(Exception) as serial:
            func(list(range(len(sizes))))
        assert _raises(func, sizes, n_cpus, monkeypatch) == (type(serial.value),
                                                             str(serial.value))


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_values_come_back_in_index_order(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    assert map_shares(lambda share: [-i for i in share], [4, 9, 2, 7]) == [0, -1, -2, -3]
    items = ["a", "b", "c"]
    assert map_shares(lambda share: [2 * items[i] for i in share], [1, 3, 2]) == ["aa", "bb", "cc"]
    assert map_shares(lambda share: [-i for i in share], []) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure", ["fork", "exit", "junk"])
def test_an_undelivered_share_falls_back_to_the_one_cpu_run(monkeypatch, failure):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if failure == "fork":
        def fork():
            raise OSError("no process")
        monkeypatch.setattr(os, "fork", fork)
    elif failure == "exit":  # a helper dies before it sends; this process never calls dump
        monkeypatch.setattr(pickle, "dump", lambda *args: os._exit(5))
    else:  # a helper sends bytes that do not unpickle, and exits 0
        monkeypatch.setattr(pickle, "dump", lambda obj, pipe: pipe.write(b"junk"))
    calls = []  # this process's calls only

    def func(share):
        calls.append(share)
        return [-i for i in share]

    assert map_shares(func, [4, 9, 2, 7]) == [0, -1, -2, -3]
    # a fork that fails is known before this process computes its own share
    assert calls == ([] if failure == "fork" else [[1, 2]]) + [[0, 1, 2, 3]]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
