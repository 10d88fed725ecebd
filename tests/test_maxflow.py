import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freshkit import maxflow, pseudomask
from freshkit.data_model import RgbImage
from freshkit.errors import DegenerateGraph, DimensionMismatch, FlowStalled
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
    """Labels, the graph arrays that Dinic starts from, and the flow. Every
    pixel has both t-links, a zero capacity included, as in the network that
    solve_cut keeps across GrabCut's cuts."""
    n = problem.d_fg.size
    source, sink = n, n + 1
    graph = PerArcFlowGraph(n + 2)
    shift = np.minimum(problem.d_fg, problem.d_bg)
    cap_src = problem.d_bg - shift
    cap_snk = problem.d_fg - shift
    any_capacity = False
    for i in range(n):
        if problem.locked_bg[i]:
            cap_src[i], cap_snk[i] = 0.0, _LOCK_CAP
        graph.add_edge(source, i, float(cap_src[i]))
        graph.add_edge(i, sink, float(cap_snk[i]))
        any_capacity |= cap_src[i] > 0.0 or cap_snk[i] > 0.0
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
            start, order, to, _, residual = self._fix()
            arrays = start, order, to, residual.copy()
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
    assert start.dtype == order.dtype == to.dtype == np.int32 and np.array_equal(to, ref_to)
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
    start, order, to, reverse, cap = graph._fix()
    _assert_same_arcs((start, order, to, cap), reference._arrays())
    # each edge keeps one capacity, its reverse arc's: all that flow reads
    assert reverse.dtype == cap.dtype and np.array_equal(reverse, cap[1::2])
    assert not np.shares_memory(reverse, cap)


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
    start, order, to, _, cap = graph._fix()
    head, nxt, ref_to, ref_cap = reference._arrays()
    flow = maxflow._dinic(start, order, to, cap, np.empty(graph.n_nodes, np.int64), s, t)
    expected = _ref_dinic(head, nxt, ref_to, ref_cap, np.empty(graph.n_nodes, np.int64), s, t)
    assert flow == expected
    assert cap.tolist() == ref_cap.tolist()


# --- the unpruned CSR walk ---------------------------------------------------------------
# Dinic whose BFS only labels levels and whose search scans every arc of each
# node's CSR range, before each phase picked out the arcs that lead on to the
# sink.

def _unpruned_bfs_levels(start, order, to, cap, level, s, t):
    level[:] = -1
    level[s] = 0
    frontier = np.array([s])
    depth = 0
    while frontier.size and level[t] < 0:
        lo = start[frontier]
        counts = start[frontier + 1] - lo
        pos = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        arcs = order[pos]
        heads = to[arcs[cap[arcs] > 0.0]]
        depth += 1
        level[heads[level[heads] < 0]] = depth
        frontier = np.flatnonzero(level == depth)
    return level[t] >= 0


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
    while _unpruned_bfs_levels(start, order, to, cap, level, s, t):
        iters[:] = start[1:] - 1
        total = _unpruned_blocking_flow(*views, s, t, total)
    return total


def _assert_walks_agree(graph, s, t):
    """Flow, cut and every residual capacity equal the unpruned walk's, from
    the flow the graph holds."""
    start, order, to, _, residual = graph._fix()
    cap, ref_cap = residual.copy(), residual.copy()
    ref_level = np.empty(graph.n_nodes, np.int64)
    expected = _unpruned_dinic(start, order, to, ref_cap, ref_level, s, t)
    held = graph._value
    assert graph.max_flow(s, t) == held + expected
    assert np.array_equal(graph.source_side(), ref_level >= 0)
    assert residual.tolist() == ref_cap.tolist()
    level = np.empty(graph.n_nodes, np.int64)
    assert maxflow._dinic(start, order, to, cap, level, s, t) == expected
    assert np.array_equal(level, ref_level)
    assert cap.tolist() == ref_cap.tolist()


def _random_caps(rng, m):
    # small integers make equal bottlenecks and exactly zeroed arcs common
    if rng.random() < 0.5:
        return rng.integers(0, 4, size=(2, m)).astype(np.float64)
    return rng.uniform(0.0, 5.0, size=(2, m)) * (rng.random((2, m)) < 0.7)


def _random_graph(rng):
    n = int(rng.integers(2, 60))
    m = int(rng.integers(1, 6 * n))
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n  # never a self-loop
    graph = FlowGraph(n)
    graph.add_edge(u, v, *_random_caps(rng, m))
    s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
    return graph, s, t


def test_level_graph_walk_matches_the_unpruned_walk_on_random_graphs():
    rng = np.random.default_rng(2004)
    for trial in range(200):
        graph, s, t = _random_graph(rng)
        try:
            _assert_walks_agree(graph, s, t)
        except AssertionError as error:
            raise AssertionError(f"trial {trial}") from error


def _dead_end_graph(rng):
    """(graph, s, t, first dead node): layers of nodes between s = 0 and t = 1,
    and off s and every layer node a branch of one to three dead nodes.

    A branch's nodes have arcs in from their root and each other only, and
    arcs out to those and to s, so every residual path from them to t runs
    through a node at a lower level: none of them lies on a level-graph path.
    """
    n_layers, width = int(rng.integers(1, 6)), int(rng.integers(2, 6))
    layers = np.arange(2, 2 + n_layers * width).reshape(n_layers, width)
    arcs = [(0, v) for v in layers[0]] + [(u, 1) for u in layers[-1]]
    for here, there in zip(layers[:-1], layers[1:]):
        arcs += [(u, int(rng.choice(there))) for u in here]  # each node leads on
        arcs += [(int(rng.choice(here)), int(rng.choice(there))) for _ in range(width)]
    arcs += [tuple(int(x) for x in rng.choice(layers.ravel(), size=2, replace=False))
             for _ in range(width)]  # across and back up the layers
    first_dead = n = 2 + layers.size
    to_source = []
    for root in [0, *layers.ravel().tolist()]:
        branch = list(range(n, n + int(rng.integers(1, 4))))
        n += len(branch)
        arcs += list(zip([root, *branch[:-1]], branch)) + [(d, root) for d in branch[1:]]
        to_source += [(d, 0) for d in branch]
    u, v = (np.array(col) for col in zip(*arcs))
    caps = _random_caps(rng, len(arcs))
    caps[0] += caps[0] == 0.0  # every forward arc carries something
    graph = FlowGraph(n)
    graph.add_edge(u, v, *caps)
    su, sv = (np.array(col) for col in zip(*to_source))
    graph.add_edge(su, sv, _random_caps(rng, len(to_source))[0])  # nothing back into them
    return graph, 0, 1, first_dead


def test_pruned_walk_matches_the_unpruned_walk_on_dead_end_graphs():
    rng = np.random.default_rng(1970)
    bfs = maxflow._bfs_levels
    into_dead = []

    def recording(start, order, to, cap, level, s, t):
        kept = bfs(start, order, to, cap, level, s, t)
        if kept is not None:
            into_dead.append(int((to[order[kept]] >= first_dead).sum()))
        return kept

    with mock.patch.object(maxflow, "_bfs_levels", recording):
        for trial in range(100):
            graph, s, t, first_dead = _dead_end_graph(rng)
            try:
                _assert_walks_agree(graph, s, t)
            except AssertionError as error:
                raise AssertionError(f"trial {trial}") from error
    assert len(into_dead) >= 200 and not any(into_dead)


def _grabcut_graphs(seed: int) -> list:
    """(graph, s, t) of every cut GrabCut solves on a random image with a
    brighter block in it, each holding the flow its cut starts from."""
    rng = np.random.default_rng(seed)
    h, w = (int(x) for x in rng.integers(8, 25, size=2))
    pixels = rng.integers(0, 160, size=(h, w, 3))
    pixels[h // 4:h - h // 4, w // 4:w - w // 4] += rng.integers(0, 96, size=3)
    graphs = []

    class Recording(FlowGraph):
        def max_flow(self, s, t):
            copy = FlowGraph(self.n_nodes)
            copy._fixed = tuple(a.copy() for a in self._fix())
            graphs.append((copy, s, t))
            return super().max_flow(s, t)

    with mock.patch.object(pseudomask, "FlowGraph", Recording):
        pseudomask.grabcut(RgbImage(pixels.astype(np.uint8)), seed=seed, n_iter=3,
                           n_components=3)
    return graphs


@pytest.mark.parametrize("seed", range(12))
def test_pruned_walk_matches_the_unpruned_walk_on_grabcut_graphs(seed):
    graphs = _grabcut_graphs(seed)
    assert graphs
    for graph, s, t in graphs:
        _assert_walks_agree(graph, s, t)


# --- warm continuation ---------------------------------------------------------------

def _t_linked_graph(m, u, v, n_caps, t_caps):
    """Nodes 0..m-1 between source m and sink m + 1: edges 2i and 2i + 1 are
    node i's source and sink links, with t_caps as (m, 2) rows, then the arcs
    u -> v with n_caps; the layout of pseudomask's cut network."""
    graph = FlowGraph(m + 2)
    node = np.repeat(np.arange(m), 2)
    to_sink = np.tile([False, True], m)
    graph.add_edge(np.where(to_sink, node, m), np.where(to_sink, m + 1, node), t_caps.ravel())
    graph.add_edge(u, v, *n_caps)
    return graph


def _lifted(graph, t_caps):
    """t_caps raised, per node, by the least constant that keeps both links at
    or above the flow they hold: solve_cut's reparametrization."""
    held = graph.flow(slice(0, t_caps.size)).reshape(t_caps.shape)
    slack = t_caps - held
    slack -= np.minimum(slack.min(axis=1), 0.0)[:, None]
    return held + slack


def test_warm_flow_reads_the_cold_cut_on_random_graphs():
    # Either every capacity is a small integer, so every flow is exact and
    # ties between cuts are common, or none is, so no two cuts tie. (A tie
    # met with a held flow that carries rounding may fall either way.)
    rng = np.random.default_rng(2005)

    def draw(*shape):
        if trial % 2:
            return rng.integers(0, 4, size=shape).astype(np.float64)
        return rng.uniform(0.0, 5.0, size=shape) * (rng.random(shape) < 0.7)

    warm_cuts = 0
    for trial in range(200):
        m = int(rng.integers(1, 40))
        k = int(rng.integers(0, 4 * m)) if m > 1 else 0
        u = rng.integers(0, m, size=k)
        v = (u + rng.integers(1, max(m, 2), size=k)) % m
        n_caps = draw(2, k)
        warm = _t_linked_graph(m, u, v, n_caps, draw(m, 2))
        warm.max_flow(m, m + 1)
        for _ in range(int(rng.integers(1, 4))):
            t_caps = draw(m, 2)
            lifted = _lifted(warm, t_caps)
            warm.set_capacities(slice(0, 2 * m), lifted.ravel())
            warm.max_flow(m, m + 1)
            cold = _t_linked_graph(m, u, v, n_caps, t_caps)
            cold.max_flow(m, m + 1)
            assert np.array_equal(warm.source_side(), cold.source_side()), trial
            warm_cuts += bool((lifted != t_caps).any())
    assert warm_cuts >= 200  # most rounds lower some link below its flow


def _grabcut_image(seed: int) -> RgbImage:
    """A random 8-32 px image with a brighter block; odd seeds add stripes and noise."""
    rng = np.random.default_rng(seed)
    h, w = (int(x) for x in rng.integers(8, 33, size=2))
    pixels = rng.integers(0, 100, size=(h, w, 3))
    pixels[h // 4:h - h // 4, w // 4:w - w // 4] += rng.integers(60, 156, size=3)
    if seed % 2:
        yy, xx = np.mgrid[0:h, 0:w]
        pixels += ((np.sin(xx * 0.9) + np.cos(yy * 0.7)) * 20).astype(np.int64)[..., None]
        pixels += rng.integers(-20, 21, size=pixels.shape)
    return RgbImage(np.clip(pixels, 0, 255).astype(np.uint8))


def test_warm_cuts_read_the_cold_cut_on_grabcut_images():
    outcomes = []

    def both(problem, graph=None):
        labels = solve_cut(problem, graph)
        outcomes[-1].append(np.array_equal(labels, solve_cut(problem)))
        return labels

    with mock.patch.object(pseudomask, "solve_cut", both):
        for seed in range(16):
            outcomes.append([])
            pseudomask.grabcut(_grabcut_image(seed), seed=seed, n_iter=6,
                               n_components=seed % 5 + 1)
    assert all(map(all, outcomes)), outcomes
    assert sum(len(cuts) > 1 for cuts in outcomes) >= 12  # images with warm cuts


def _solved_path() -> FlowGraph:
    """0 -> 1 -> 2 at capacities 2 and 1, solved: edge 0 holds flow 1, and so
    does edge 1, added as 2 -> 1 with its capacity on the reverse arc."""
    graph = FlowGraph(3)
    graph.add_edge(0, 1, 2.0)
    graph.add_edge(2, 1, 0.0, 1.0)
    assert graph.max_flow(0, 2) == 1.0
    return graph


def test_a_flow_above_its_new_capacity_raises():
    graph = _solved_path()
    assert graph.flow(slice(None)).tolist() == [1.0, -1.0]
    for edges, cap_uv, cap_vu in ((slice(0, 1), 0.5, 0.0), (slice(1, 2), 0.0, 0.5),
                                  (slice(None), 1.0, 0.9)):
        with pytest.raises(DimensionMismatch, match="more flow"):
            graph.set_capacities(edges, cap_uv, cap_vu)
    # nothing of a rejected call is kept
    assert graph.source_side().tolist() == [True, True, False]
    graph.set_capacities(slice(None), [1.0, 0.0], [0.0, 3.0])
    assert graph.flow(slice(None)).tolist() == [1.0, -1.0]
    assert graph.max_flow(0, 2) == 1.0
    assert graph.source_side().tolist() == [True, False, False]
    graph.set_capacities(slice(0, 1), 4.0)
    assert graph.max_flow(0, 2) == 3.0


@pytest.mark.parametrize("edges, cap_uv, cap_vu", [
    (0, 1.0, 0.0),                          # an edge number, not a slice
    (np.array([0, 1]), 1.0, 0.0),           # edge numbers, not a slice
    (slice(1, 5), [1.0, 1.0], 0.0),         # the slice holds one edge of two
    (slice(None), [1.0, 1.0, 1.0], 0.0),    # length mismatch
    (slice(None), [[2.0], [2.0]], 0.0),     # not 1-D
    (slice(0, 1), -1.0, 0.0),               # negative capacity
    (slice(0, 1), math.nan, 0.0),           # nan capacity
    (slice(0, 1), 2.0, math.inf),           # inf reverse capacity
])
def test_set_capacities_rejects_bad_arrays(edges, cap_uv, cap_vu):
    graph = _solved_path()
    with pytest.raises(DimensionMismatch):
        graph.set_capacities(edges, cap_uv, cap_vu)
    assert graph.flow(slice(None)).tolist() == [1.0, -1.0]


def test_a_solved_graph_keeps_its_arcs_and_terminals():
    graph = _solved_path()
    with pytest.raises(DimensionMismatch):
        graph.add_edge(0, 2, 1.0)
    with pytest.raises(DimensionMismatch):
        graph.max_flow(2, 0)
    assert graph.max_flow(0, 2) == 1.0  # nothing left to push


def _reverse_arc_graph() -> FlowGraph:
    """Its first phase pushes 1 along s a b t; the second phase's only path,
    s c b a d t, takes b -> a, the reverse of a -> b."""
    s, a, b, c, d, t = range(6)
    graph = FlowGraph(6)
    # s's and a's ranges are walked from their ends: s -> a and a -> b come first
    graph.add_edge(np.array([s, s, a, a, b, c, d]), np.array([c, a, d, b, t, b, t]), 1.0)
    return graph


def test_a_phase_that_pushes_nothing_raises_flow_stalled():
    _, levels = _levels(lambda: _reverse_arc_graph().max_flow(0, 5))
    assert [level[5] for level in levels] == [3, 5, -1]
    bfs = maxflow._bfs_levels

    def without_reverse_arcs(start, order, to, cap, level, s, t):
        kept = bfs(start, order, to, cap, level, s, t)
        return None if kept is None else kept[order[kept] % 2 == 0]

    graph = _reverse_arc_graph()
    with mock.patch.object(maxflow, "_bfs_levels", without_reverse_arcs):
        with pytest.raises(FlowStalled, match="found no path"):
            graph.max_flow(0, 5)


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
