import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshkit import pseudomask
from freshkit.errors import DegenerateGraph, DimensionMismatch
from freshkit.maxflow import FlowGraph, _dinic
from freshkit.pseudomask import _LOCK_CAP, CutProblem, _grid_pairs, cut_energy, solve_cut

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


# --- the per-arc reference ------------------------------------------------------
# One add_edge call per arc into Python linked lists, and a separate BFS over
# the final residual graph for the cut: the builder that FlowGraph replaced.

class PerArcFlowGraph:
    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self._head = [-1] * n_nodes
        self._next: list[int] = []
        self._to: list[int] = []
        self._cap: list[float] = []

    def add_edge(self, u: int, v: int, cap_uv: float, cap_vu: float = 0.0) -> None:
        for src, dst, c in ((u, v, cap_uv), (v, u, cap_vu)):
            e = len(self._to)
            self._to.append(dst)
            self._cap.append(c)
            self._next.append(self._head[src])
            self._head[src] = e

    def _arrays(self):
        return (np.asarray(self._head, dtype=np.int64), np.asarray(self._next, dtype=np.int64),
                np.asarray(self._to, dtype=np.int64), np.asarray(self._cap, dtype=np.float64))

    def max_flow(self, s: int, t: int) -> float:
        self._residual = self._arrays()
        self._source = s
        level = np.empty(self.n_nodes, np.int64)
        return float(_dinic(*self._residual, level, s, t))

    def source_side(self) -> np.ndarray:
        return _reachable(*self._residual, self._source)


def _reachable(head, nxt, to, cap, s):
    seen = np.zeros(head.shape[0], np.bool_)
    seen[s] = True
    queue = [s]
    while queue:
        u = queue.pop(0)
        e = head[u]
        while e != -1:
            v = to[e]
            if cap[e] > 0.0 and not seen[v]:
                seen[v] = True
                queue.append(v)
            e = nxt[e]
    return seen


def reference_solve_cut(problem: CutProblem) -> tuple[np.ndarray, tuple]:
    """Labels and the graph arrays that Dinic starts from."""
    n = problem.d_fg.size
    source, sink = n, n + 1
    graph = PerArcFlowGraph(n + 2)
    shift = np.minimum(problem.d_fg, problem.d_bg)
    cap_src = problem.d_bg - shift
    cap_snk = problem.d_fg - shift
    any_capacity = False
    for i in range(n):
        if problem.locked_bg[i]:
            graph.add_edge(i, sink, _LOCK_CAP)
            any_capacity = True
            continue
        if cap_src[i] > 0.0:
            graph.add_edge(source, i, float(cap_src[i]))
            any_capacity = True
        if cap_snk[i] > 0.0:
            graph.add_edge(i, sink, float(cap_snk[i]))
            any_capacity = True
    for k in range(problem.pairs.shape[0]):
        w = float(problem.pair_w[k])
        if w > 0.0:
            graph.add_edge(int(problem.pairs[k, 0]), int(problem.pairs[k, 1]), w, w)
            any_capacity = True
    if not any_capacity:
        raise DegenerateGraph("every capacity is zero")
    arrays = graph._arrays()
    graph.max_flow(source, sink)
    return graph.source_side()[:n], arrays


def _enumeration_minimum(problem: CutProblem) -> float:
    return min(cut_energy(problem, np.array(bits))
               for bits in itertools.product([False, True], repeat=problem.d_fg.size))


# --- strategies -------------------------------------------------------------------

def _costs(n: int, hi: float):
    # zeros and repeated values make zero t-links, ties and zero n-links common
    value = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]),
                      st.floats(0.0, hi, allow_nan=False, allow_infinity=False))
    return st.lists(value, min_size=n, max_size=n).map(np.array)


@st.composite
def cut_problems(draw):
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = h * w
    pairs = _grid_pairs(h, w)
    d_fg = draw(_costs(n, 10.0))
    tied = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    d_bg = np.where(tied, d_fg, draw(_costs(n, 10.0)))
    return CutProblem(
        shape=(h, w),
        d_fg=d_fg,
        d_bg=d_bg,
        pairs=pairs,
        pair_w=draw(_costs(pairs.shape[0], 3.0)) if pairs.size else np.zeros(0),
        locked_bg=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
    )


@st.composite
def flow_networks(draw):
    """(n, arc columns u, v, cap_uv, cap_vu, batch ends, s, t)."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    cap = st.one_of(st.just(0.0), st.integers(1, 4).map(float),
                    st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False))
    arcs = draw(st.lists(st.tuples(node, node, cap, cap).filter(lambda a: a[0] != a[1]),
                         max_size=24))
    cols = [np.array([a[i] for a in arcs], dtype=np.int64 if i < 2 else np.float64)
            for i in range(4)]
    ends = sorted(draw(st.sets(st.integers(0, len(arcs)), max_size=5)) | {len(arcs)})
    s = draw(node)
    t = draw(node.filter(lambda x: x != s))
    return n, cols, ends, s, t


# --- properties ---------------------------------------------------------------------

def _solve_recording_arrays(problem: CutProblem) -> tuple[np.ndarray, tuple]:
    built = []

    class Recording(FlowGraph):
        def max_flow(self, s, t):
            built.append(self._arrays())
            return super().max_flow(s, t)

    with mock.patch.object(pseudomask, "FlowGraph", Recording):
        labels = solve_cut(problem)
    return labels, built[0]


def _assert_same_arrays(got, expected):
    for name, a, b in zip(("head", "nxt", "to", "cap"), got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@PROPERTY
@given(cut_problems())
def test_solve_cut_matches_per_arc_reference_and_enumeration(problem):
    try:
        expected, expected_arrays = reference_solve_cut(problem)
    except DegenerateGraph:
        with pytest.raises(DegenerateGraph):
            solve_cut(problem)
        return
    labels, arrays = _solve_recording_arrays(problem)
    _assert_same_arrays(arrays, expected_arrays)
    assert labels.dtype == np.bool_
    assert np.array_equal(labels, expected)
    assert cut_energy(problem, labels) == _enumeration_minimum(problem)


@PROPERTY
@given(flow_networks())
def test_array_batches_match_per_arc_graph(network):
    n, cols, ends, s, t = network
    reference = PerArcFlowGraph(n)
    for arc in zip(*cols):
        reference.add_edge(int(arc[0]), int(arc[1]), float(arc[2]), float(arc[3]))
    graph = FlowGraph(n)
    for start, end in zip([0, *ends], ends):
        if end - start == 1:
            graph.add_edge(*(col[start].item() for col in cols))  # scalars
        else:
            graph.add_edge(*(col[start:end] for col in cols))
    _assert_same_arrays(graph._arrays(), reference._arrays())
    assert graph.max_flow(s, t) == reference.max_flow(s, t)
    assert np.array_equal(graph.source_side(), reference.source_side())


# --- add_edge checks ------------------------------------------------------------------

def test_scalar_arcs_still_solve():
    graph = FlowGraph(4)
    graph.add_edge(0, 1, 3.0)
    graph.add_edge(1, 3, 2.0)
    graph.add_edge(0, 2, 1.0, 0.5)
    graph.add_edge(2, 3, 5.0)
    assert graph.max_flow(0, 3) == 3.0
    assert graph.source_side().tolist() == [True, True, False, False]


def test_scalars_repeat_along_arrays():
    graph = FlowGraph(5)
    graph.add_edge(np.array([1, 2, 3]), 4, 2.0)
    graph.add_edge(0, np.array([1, 2, 3]), np.array([1.0, 3.0, 0.0]))
    assert graph.max_flow(0, 4) == 3.0


@pytest.mark.parametrize("u, v, cap_uv, cap_vu", [
    ([0, 1, 4], [1, 2, 0], [1.0, 1.0, 1.0], 0.0),     # node out of range
    ([0, 1, -1], [1, 2, 0], [1.0, 1.0, 1.0], 0.0),    # negative node
    ([0, 2, 1], [1, 2, 0], [1.0, 1.0, 1.0], 0.0),     # self-loop
    ([0, 1], [1, 2], [1.0, -0.5], 0.0),               # negative capacity
    ([0, 1], [1, 2], [1.0, 1.0], [0.0, -1.0]),        # negative reverse capacity
    ([0, 1], [1, 2], [1.0, math.nan], 0.0),           # nan capacity
    ([0, 1], [1, 2], [math.inf, 1.0], 0.0),           # inf capacity
    ([0, 1], [1, 2], [1.0, 1.0], [0.0, math.nan]),    # nan reverse capacity
    ([0, 1, 2], [1, 2], [1.0, 1.0, 1.0], 0.0),        # length mismatch
    ([0, 1], [1, 2], [1.0, 1.0, 1.0], 0.0),           # length mismatch
    ([0.0, 1.0], [1, 2], [1.0, 1.0], 0.0),            # float node ids
    ([[0, 1]], [[1, 2]], [[1.0, 1.0]], 0.0),          # not 1-D
])
def test_add_edge_rejects_bad_arrays(u, v, cap_uv, cap_vu):
    graph = FlowGraph(3)
    with pytest.raises(DimensionMismatch):
        graph.add_edge(np.array(u), np.array(v), np.array(cap_uv), np.array(cap_vu))
    # nothing of the rejected batch is kept
    graph.add_edge(0, 2, 1.0)
    assert graph.max_flow(0, 2) == 1.0


def test_cut_needs_a_solve_first():
    with pytest.raises(DimensionMismatch):
        FlowGraph(2).source_side()
