import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freshkit import maxflow, pseudomask
from freshkit.errors import DegenerateGraph, DimensionMismatch
from freshkit.maxflow import FlowGraph
from freshkit.pseudomask import _LOCK_CAP, CutProblem, _grid_pairs, cut_energy, solve_cut

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


# --- the linked-list reference ----------------------------------------------------
# Dinic over a linked adjacency list: head[u] is the last arc out of u and
# nxt[e] the previous arc out of the same tail, or -1. Every BFS labels the
# whole residual graph. These are the kernels the CSR ones replaced.

def _ref_bfs_levels(head, nxt, to, cap, level, queue, s, t):
    level[:] = -1
    level[s] = 0
    queue[0] = s
    q_read, q_write = 0, 1
    while q_read < q_write:
        u = queue[q_read]
        q_read += 1
        e = head[u]
        while e != -1:
            v = to[e]
            if cap[e] > 0.0 and level[v] < 0:
                level[v] = level[u] + 1
                queue[q_write] = v
                q_write += 1
            e = nxt[e]
    return level[t] >= 0


def _ref_augment_once(head, nxt, to, cap, level, iters, path, s, t):
    depth = 0
    u = s
    while True:
        if u == t:
            bottleneck = cap[path[0]]
            for i in range(1, depth):
                if cap[path[i]] < bottleneck:
                    bottleneck = cap[path[i]]
            for i in range(depth):
                e = path[i]
                cap[e] -= bottleneck
                cap[e ^ 1] += bottleneck
            return bottleneck
        advanced = False
        e = iters[u]
        while e != -1:
            v = to[e]
            if cap[e] > 0.0 and level[v] == level[u] + 1:
                path[depth] = e
                depth += 1
                u = v
                advanced = True
                break
            e = nxt[e]
            iters[u] = e
        if not advanced:
            level[u] = -1
            if u == s:
                return 0.0
            depth -= 1
            back = path[depth]
            u = to[back ^ 1]
            iters[u] = nxt[back]


def _ref_dinic(head, nxt, to, cap, level, s, t):
    n = head.shape[0]
    queue = np.empty(n, np.int64)
    iters = np.empty(n, np.int64)
    path = np.empty(n, np.int64)
    total = 0.0
    while _ref_bfs_levels(head, nxt, to, cap, level, queue, s, t):
        for i in range(n):
            iters[i] = head[i]
        while True:
            pushed = _ref_augment_once(head, nxt, to, cap, level, iters, path, s, t)
            if pushed == 0.0:
                break
            total += pushed
    return total


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
        return float(_ref_dinic(*self._residual, level, s, t))

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


def reference_solve_cut(problem: CutProblem) -> tuple[np.ndarray, tuple, float]:
    """Labels, the graph arrays that Dinic starts from, and the flow."""
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
    flow = graph.max_flow(source, sink)
    return graph.source_side()[:n], arrays, flow


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

def _solve_recording(problem: CutProblem) -> tuple[np.ndarray, tuple, float]:
    built = []

    class Recording(FlowGraph):
        def max_flow(self, s, t):
            arrays = self._arrays()
            flow = super().max_flow(s, t)
            built.append((arrays, flow))
            return flow

    with mock.patch.object(pseudomask, "FlowGraph", Recording):
        labels = solve_cut(problem)
    return (labels, *built[0])


def _phase_levels(module, bfs_name, run):
    """Run run(); return its result and the level array each BFS left, in phase order."""
    levels = []
    bfs = getattr(module, bfs_name)

    def recording(*args):
        reached = bfs(*args)
        levels.append(args[4].copy())  # level is the fifth argument of both kernels
        return reached

    with mock.patch.object(module, bfs_name, recording):
        result = run()
    return result, levels


def _reference_levels(run):
    return _phase_levels(sys.modules[__name__], "_ref_bfs_levels", run)


def _levels(run):
    return _phase_levels(maxflow, "_bfs_levels", run)


def _assert_same_phases(got, expected, t):
    """Early-stopped levels agree with full ones up to the sink's level."""
    assert len(got) == len(expected)
    for new, ref in zip(got[:-1], expected[:-1]):
        assert ref[t] >= 0
        near = ref <= ref[t]
        assert np.array_equal(new[near], ref[near])
        assert (new[~near] == -1).all()
    assert expected[-1][t] == -1
    assert np.array_equal(got[-1], expected[-1])


def _assert_same_arcs(csr, linked):
    """Each CSR range, walked from its end, is the node's linked list."""
    start, order, to, cap = csr
    head, nxt, ref_to, ref_cap = linked
    assert to.dtype == ref_to.dtype and np.array_equal(to, ref_to)
    assert cap.dtype == ref_cap.dtype and np.array_equal(cap, ref_cap)
    assert start.shape == (head.size + 1,) and start[0] == 0 and start[-1] == order.size
    for u in range(head.size):
        walked = []
        e = head[u]
        while e != -1:
            walked.append(e)
            e = nxt[e]
        assert order[start[u]:start[u + 1]][::-1].tolist() == walked


def _build_both(network) -> tuple[FlowGraph, PerArcFlowGraph]:
    n, cols, ends, _, _ = network
    reference = PerArcFlowGraph(n)
    for arc in zip(*cols):
        reference.add_edge(int(arc[0]), int(arc[1]), float(arc[2]), float(arc[3]))
    graph = FlowGraph(n)
    for start, end in zip([0, *ends], ends):
        if end - start == 1:
            graph.add_edge(*(col[start].item() for col in cols))  # scalars
        else:
            graph.add_edge(*(col[start:end] for col in cols))
    return graph, reference


@PROPERTY
@given(cut_problems())
def test_solve_cut_matches_per_arc_reference_and_enumeration(problem):
    try:
        (expected, expected_arrays, expected_flow), expected_levels = _reference_levels(
            lambda: reference_solve_cut(problem))
    except DegenerateGraph:
        with pytest.raises(DegenerateGraph):
            solve_cut(problem)
        return
    (labels, arrays, flow), levels = _levels(lambda: _solve_recording(problem))
    _assert_same_arcs(arrays, expected_arrays)
    _assert_same_phases(levels, expected_levels, problem.d_fg.size + 1)
    assert flow == expected_flow
    assert labels.dtype == np.bool_
    assert np.array_equal(labels, expected)
    assert cut_energy(problem, labels) == _enumeration_minimum(problem)


@PROPERTY
@given(flow_networks())
def test_csr_ranges_walk_like_linked_lists(network):
    graph, reference = _build_both(network)
    _assert_same_arcs(graph._arrays(), reference._arrays())


@PROPERTY
@given(flow_networks())
def test_array_batches_match_per_arc_graph(network):
    *_, s, t = network
    graph, reference = _build_both(network)
    assert graph.max_flow(s, t) == reference.max_flow(s, t)
    assert np.array_equal(graph.source_side(), reference.source_side())


@PROPERTY
@given(flow_networks())
def test_levels_match_reference_phase_by_phase(network):
    *_, s, t = network
    graph, reference = _build_both(network)
    _, levels = _levels(lambda: graph.max_flow(s, t))
    _, expected_levels = _reference_levels(lambda: reference.max_flow(s, t))
    _assert_same_phases(levels, expected_levels, t)


# one push of 1.0, then a phase of two 1e-16 pushes: a running total stays 1.0,
# but a per-phase sum would reach 1.0000000000000002
TINY_SECOND_PHASE = (4, [np.array([0, 0, 1, 0, 2]), np.array([3, 1, 3, 2, 3]),
                         np.array([1.0, 1e-16, 1e-16, 1e-16, 1e-16]), np.zeros(5)], [5], 0, 3)


@PROPERTY
@given(flow_networks())
@example(TINY_SECOND_PHASE)
def test_residual_capacities_match_reference_arc_by_arc(network):
    # pins the float64 order of every bottleneck update and flow addition
    *_, s, t = network
    graph, reference = _build_both(network)
    start, order, to, cap = graph._arrays()
    head, nxt, ref_to, ref_cap = reference._arrays()
    flow = maxflow._dinic(start, order, to, cap, np.empty(graph.n_nodes, np.int64), s, t)
    expected = _ref_dinic(head, nxt, ref_to, ref_cap, np.empty(graph.n_nodes, np.int64), s, t)
    assert flow == expected
    assert cap.tolist() == ref_cap.tolist()


# --- the unpruned CSR walk ---------------------------------------------------------------
# Dinic whose search scans every arc of each node's CSR range, before each phase
# picked out its level graph.

def _unpruned_blocking_flow(start, order, to, cap, level, iters, path, s, t, total):
    depth = 0
    u = s
    while True:
        if u == t:
            arcs = path[:depth]
            caps = [cap[e] for e in arcs]
            bottleneck = min(caps)
            for e in arcs:
                cap[e] -= bottleneck
                cap[e ^ 1] += bottleneck
            total += bottleneck
            depth = caps.index(bottleneck)
            u = to[path[depth] ^ 1]
            continue
        i = iters[u]
        lo = start[u]
        next_level = level[u] + 1
        while i >= lo:
            e = order[i]
            if cap[e] > 0.0 and level[to[e]] == next_level:
                break
            i -= 1
        iters[u] = i
        if i >= lo:
            path[depth] = e
            depth += 1
            u = to[e]
        else:
            level[u] = -1
            if u == s:
                return total
            depth -= 1
            u = to[path[depth] ^ 1]
            iters[u] -= 1


def _unpruned_dinic(start, order, to, cap, level, s, t):
    n = start.size - 1
    iters = np.empty(n, np.int64)
    path = np.empty(n, np.int64)
    views = [memoryview(a) for a in (start, order, to, cap, level, iters, path)]
    total = 0.0
    while maxflow._bfs_levels(start, order, to, cap, level, s, t):
        iters[:] = start[1:] - 1
        total = _unpruned_blocking_flow(*views, s, t, total)
    return total


def _random_graph(rng):
    n = int(rng.integers(2, 60))
    m = int(rng.integers(1, 6 * n))
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n  # never a self-loop
    # small integers make equal bottlenecks and exactly zeroed arcs common
    if rng.random() < 0.5:
        caps = rng.integers(0, 4, size=(2, m)).astype(np.float64)
    else:
        caps = rng.uniform(0.0, 5.0, size=(2, m)) * (rng.random((2, m)) < 0.7)
    graph = FlowGraph(n)
    graph.add_edge(u, v, caps[0], caps[1])
    s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
    return graph, s, t


def test_level_graph_walk_matches_the_unpruned_walk_on_random_graphs():
    rng = np.random.default_rng(2004)
    for trial in range(200):
        graph, s, t = _random_graph(rng)
        start, order, to, cap = graph._arrays()
        ref_cap, ref_level = cap.copy(), np.empty(graph.n_nodes, np.int64)
        expected = _unpruned_dinic(start, order, to, ref_cap, ref_level, s, t)
        assert graph.max_flow(s, t) == expected, trial
        assert np.array_equal(graph.source_side(), ref_level >= 0), trial
        level = np.empty(graph.n_nodes, np.int64)
        assert maxflow._dinic(start, order, to, cap, level, s, t) == expected
        assert cap.tolist() == ref_cap.tolist(), trial


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


@pytest.mark.parametrize("s, t", [(0, 0), (0, 3), (-1, 2), (3, 0)])
def test_max_flow_rejects_bad_terminals(s, t):
    graph = FlowGraph(3)
    graph.add_edge(0, 1, 1.0)
    graph.add_edge(1, 2, 1.0)
    with pytest.raises(DimensionMismatch):
        graph.max_flow(s, t)


def test_cut_needs_a_solve_first():
    with pytest.raises(DimensionMismatch):
        FlowGraph(2).source_side()
