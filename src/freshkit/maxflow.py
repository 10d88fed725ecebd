"""Exact max-flow / min-cut over float64 capacities (Dinic's algorithm).

add_edge appends arcs as arrays, one call per batch. Arc 2k is the k-th
added arc and 2k+1 its reverse, so arc e ^ 1 is always the reverse of arc
e. max_flow views the arcs in compressed sparse rows: one stable sort over
arc tails gives order, and the arcs out of node u are
order[start[u]:start[u + 1]], in the order they were added. The augmenting
search walks each range from its end, reading and writing the arc arrays
through memoryviews so that every element is a plain Python int or float.

Each phase's BFS expands the whole frontier at once and stops at the level
of the sink, because no augmenting path runs through a node past it. The
bottleneck arc of every augmenting path is zeroed by exact subtraction, so
the algorithm terminates. Its last BFS, which never reaches the sink, is
therefore complete and marks the source side of the min cut.

Each phase's search walks only the arcs that lead on to the sink: live
when the phase began, one level deeper, and on a level-graph path to the
sink, found by walking the BFS's arcs back from it. A walk over every arc
would also enter each node without such a path, set its level to -1 and
back out, touching no capacity, so both meet the same paths in the same
order. Within a phase arcs only leave the set: a push raises only reverse
arcs, which run one level up, and a level only changes to -1. After each
augmentation the search resumes at the tail of the path's first zeroed
arc: a search restarted at the source would walk the path's prefix, whose
arcs all keep capacity, and arrive at the same node with the same arcs
left to try.

The first max_flow, flow or set_capacities call fixes the arcs: add_edge
raises from then on, the batches go, and the graph keeps the sparse rows
(node ids, levels and positions as int32), each arc's residual, each edge's
reverse-arc capacity (all that flow reads), and the flow its solves pushed.
set_capacities gives arcs new capacities and keeps their flow, so each
residual becomes the new capacity less the flow, which must stay >= 0.
flow reads an edge's flow off its reverse arc: for a zero reverse capacity
that residual is the sum of the pushes along the edge, so two links that
carried the same pushes read the same flow.

max_flow continues from the flow the graph holds. Dinic needs only a
feasible flow to start from, and the argument above still holds: its last
BFS misses the sink and marks every node the residual graph reaches from
the source. That set is the minimal source side of a minimum cut for the
current capacities, whichever maximum flow reached it, so a continued solve
reads the cut a solve from zero flow reads. To lower a link below its flow,
a caller first adds one constant to both links of the node, the source's
and the sink's (Kohli & Torr, ICCV 2005): every source-sink cut pays exactly
one of them, so every cut moves by the constant and no minimum cut moves.
With the smallest constant that keeps both residuals >= 0, the tighter link's
residual is exactly 0.0. pseudomask.solve_cut does this. (In float64, a tie
between two cuts met with a held flow that carries rounding may fall either
way.)
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, FlowStalled

__all__ = ["FlowGraph"]

_INDEX = np.int32  # node ids, levels and arc positions, so the arrays stay compact


def _bfs_levels(start, order, to, cap, level, s, t):
    """Label residual distances from s, up to the sink's level. None if t is
    not reached (level then marks all s reaches); else the positions in
    order, ascending, of each live arc one level deeper whose head has a
    level-graph path on to t: the arcs the phase's search may take."""
    level[:] = -1
    level[s] = 0
    frontier = np.array([s])
    depth = 0
    deeper = []  # per depth: positions of the live arcs that run one level deeper
    while frontier.size and level[t] < 0:
        lo = start[frontier]
        counts = start[frontier + 1] - lo
        # positions of every frontier node's CSR range, concatenated
        pos = np.arange(counts.sum(), dtype=_INDEX)
        pos += np.repeat(lo - np.cumsum(counts, dtype=_INDEX) + counts, counts)
        pos = pos[cap[order[pos]] > 0.0]
        heads = to[order[pos]]
        depth += 1
        level[heads[level[heads] < 0]] = depth
        deeper.append(pos[level[heads] == depth])
        # the new level, ascending; np.unique would also import numpy.ma
        frontier = np.flatnonzero(level == depth)
    if level[t] < 0:
        return None
    # from the sink's level up: keep the arcs whose head reaches t, mark their tails
    reaches = np.zeros(level.size, np.bool_)
    reaches[t] = True
    for d in reversed(range(depth)):
        pos = deeper[d]
        pos = deeper[d] = pos[reaches[to[order[pos]]]]
        reaches[to[order[pos] ^ 1]] = True
    kept = np.concatenate(deeper)
    kept.sort()
    return kept


def _blocking_flow(start, order, to, cap, level, iters, path, s, t, total):
    """Push flow along shortest augmenting paths until none is left; total plus it.

    Every array argument is a memoryview. iters[u] is the position in order
    of the next arc out of u to try; it counts down to start[u]. Each
    bottleneck is added to total in turn. Every arc on a path has positive
    capacity, so a path whose bottleneck is not positive raises FlowStalled.
    The phase's arcs hold a path to t, so a phase that finds none raises it too.
    """
    depth = 0
    u = s
    paths = 0
    while True:
        if u == t:
            arcs = path[:depth]
            caps = [cap[e] for e in arcs]
            bottleneck = min(caps)
            if not bottleneck > 0.0:  # pushing it would find the same path forever
                raise FlowStalled(f"a path of {depth} arcs has bottleneck {bottleneck!r}")
            for e in arcs:
                cap[e] -= bottleneck
                cap[e ^ 1] += bottleneck
            total += bottleneck
            paths += 1
            # x - b is exactly 0.0 only where x == b: the first zeroed arc
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
                if not paths:  # the next BFS would find the same levels, forever
                    raise FlowStalled(f"a phase to the sink's level {level[t]} found no path")
                return total
            depth -= 1
            u = to[path[depth] ^ 1]
            iters[u] -= 1


def _dinic(start, order, to, cap, level, s, t):
    n = start.size - 1
    iters = np.empty(n, _INDEX)
    path = np.empty(n, _INDEX)
    views = [memoryview(a) for a in (to, cap, level, iters, path)]
    total = 0.0
    while (kept := _bfs_levels(start, order, to, cap, level, s, t)) is not None:
        level_start = np.searchsorted(kept, start).astype(_INDEX)
        iters[:] = level_start[1:] - 1
        kept = order[kept]  # the phase's arcs; their positions are done with
        total = _blocking_flow(memoryview(level_start), memoryview(kept), *views, s, t, total)
    return total


def _capacity_rows(cap_uv, cap_vu) -> np.ndarray:
    """(m, 2) float64 rows of two capacity columns, each finite and >= 0."""
    rows = np.stack([cap_uv, cap_vu], axis=1).astype(np.float64, copy=False)
    bad = ~(np.isfinite(rows) & (rows >= 0.0)).all(axis=1)
    if bad.any():
        k = np.argmax(bad)
        raise DimensionMismatch(f"capacities must be finite and >= 0, got {rows[k].tolist()}")
    return rows


class FlowGraph:
    """Flow network built from arc arrays; nodes are 0..n_nodes-1.

    The first max_flow, flow or set_capacities call fixes the arcs. From
    then on the graph holds a flow, which each max_flow continues.
    """

    def __init__(self, n_nodes: int):
        if not 2 <= n_nodes <= np.iinfo(_INDEX).max:
            raise DimensionMismatch(f"a flow network needs 2 to 2**31 - 1 nodes, got {n_nodes}")
        self.n_nodes = n_nodes
        # per add_edge call: tails and capacities of arcs 2k, 2k+1
        self._tail = [np.empty(0, _INDEX)]
        self._cap = [np.empty(0, np.float64)]
        # start, order, to, reverse-arc capacity per edge, residual per arc
        self._fixed: tuple[np.ndarray, ...] | None = None
        self._value = 0.0
        self._terminals: tuple[int, int] | None = None
        self._level: np.ndarray | None = None

    def add_edge(self, u, v, cap_uv, cap_vu=0.0) -> None:
        """Add the arcs u->v (and their reverses) with nonnegative finite capacity.

        Each argument is a scalar or a 1-D array; arrays must share one
        length, and scalars repeat along it. Arcs are appended in order: the
        k-th arc added is edge k of flow and set_capacities.
        """
        if self._fixed is not None:
            raise DimensionMismatch("the arcs are fixed once the graph is solved")
        try:
            u, v, cap_uv, cap_vu = map(np.atleast_1d, np.broadcast_arrays(u, v, cap_uv, cap_vu))
        except ValueError:
            raise DimensionMismatch("arc arrays must share one length") from None
        if u.ndim != 1 or u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
            raise DimensionMismatch(f"node ids must be integers or 1-D integer arrays, "
                                    f"got {u.dtype} and {v.dtype} of shape {u.shape}")
        bad = (u < 0) | (u >= self.n_nodes) | (v < 0) | (v >= self.n_nodes) | (u == v)
        if bad.any():
            k = np.argmax(bad)
            raise DimensionMismatch(f"bad arc ({u[k]}, {v[k]}) in a {self.n_nodes}-node graph")
        caps = _capacity_rows(cap_uv, cap_vu)
        self._tail.append(np.stack([u, v], axis=1).astype(_INDEX).ravel())
        self._cap.append(caps.ravel())

    def _fix(self) -> tuple[np.ndarray, ...]:
        """start, order, to, each edge's reverse-arc capacity, and every
        arc's residual, made on first use. Each add_edge batch goes once it
        is joined, and the int64 argsort before the capacities are."""
        if self._fixed is None:
            tail = np.concatenate(self._tail)
            if tail.size > np.iinfo(_INDEX).max:
                raise DimensionMismatch("a flow network holds at most 2**31 - 1 arcs")
            self._tail = None
            order = np.argsort(tail, kind="stable").astype(_INDEX)
            start = np.searchsorted(tail[order], np.arange(self.n_nodes + 1)).astype(_INDEX)
            to = tail.reshape(-1, 2)[:, ::-1].ravel()  # arc e ends where arc e ^ 1 starts
            del tail
            residual = np.concatenate(self._cap)
            self._cap = None
            self._fixed = start, order, to, residual[1::2].copy(), residual
        return self._fixed

    def _rows(self, edges: slice) -> tuple[np.ndarray, np.ndarray]:
        """Reverse-arc capacity and (u->v, v->u) residual rows of the edges a
        slice selects, as views."""
        if not isinstance(edges, slice):
            raise DimensionMismatch(f"edges must be a slice of edge numbers, got {edges!r}")
        *_, reverse, residual = self._fix()
        return reverse[edges], residual.reshape(-1, 2)[edges]

    def flow(self, edges: slice) -> np.ndarray:
        """The flow held on the arc u->v of each edge in the slice edges (edge
        k is the k-th arc add_edge added), read off its reverse arc v->u."""
        reverse, residual = self._rows(edges)
        return residual[:, 1] - reverse

    def set_capacities(self, edges: slice, cap_uv, cap_vu=0.0) -> None:
        """New capacities for the arcs u->v and v->u of each edge in the slice
        edges, checked as add_edge checks them; their flow is kept.

        Each arc's residual becomes its new capacity less its flow, and a flow
        above its new capacity raises DimensionMismatch. The cut is read
        again after the next max_flow.
        """
        reverse, residual = self._rows(edges)
        held = self.flow(edges)
        try:
            caps = _capacity_rows(np.broadcast_to(cap_uv, held.shape),
                                  np.broadcast_to(cap_vu, held.shape))
        except ValueError:
            raise DimensionMismatch(f"capacities must broadcast to {len(held)} edges") from None
        left = caps.copy()
        left[:, 0] -= held  # u->v less the flow
        left[:, 1] += held  # v->u plus it
        if (left < 0.0).any():
            k = np.argmax((left < 0.0).any(axis=1))
            edge = range(self._fixed[3].size)[edges][k]
            raise DimensionMismatch(f"edge {edge} holds more flow than its new capacities "
                                    f"{caps[k].tolist()}")
        reverse[:] = caps[:, 1]
        residual[:] = left
        self._level = None

    def max_flow(self, s: int, t: int) -> float:
        """Run Dinic from the flow the graph holds, and return the flow from s
        to t; afterwards source_side() reads the min cut."""
        if not (0 <= s < self.n_nodes and 0 <= t < self.n_nodes and s != t):
            raise DimensionMismatch(f"bad terminals ({s}, {t}) in a {self.n_nodes}-node graph")
        if self._terminals not in (None, (s, t)):
            raise DimensionMismatch(f"the graph holds a flow from {self._terminals[0]} to "
                                    f"{self._terminals[1]}, not from {s} to {t}")
        start, order, to, _, residual = self._fix()
        level = np.empty(self.n_nodes, _INDEX)
        self._value += float(_dinic(start, order, to, residual, level, s, t))
        self._terminals = s, t
        self._level = level
        return self._value

    def source_side(self) -> np.ndarray:
        """Nodes still reachable from the source in the residual graph."""
        if self._level is None:
            raise DimensionMismatch("run max_flow before reading the cut")
        return self._level >= 0
