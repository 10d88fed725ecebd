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

Each phase's search walks only the level graph: the arcs that had positive
capacity and ran one level deeper when the phase began, picked out with
numpy and kept in the order of their CSR ranges. Within a phase arcs only
leave that set, because a push raises only reverse arcs, which run one
level up, and a level only changes to -1. So the search meets the same
arcs in the same order as a walk over every arc would. After each
augmentation the search resumes at the tail of the path's first zeroed
arc: a search restarted at the source would walk the path's prefix, whose
arcs all keep capacity, and arrive at the same node with the same arcs
left to try.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, FlowStalled

__all__ = ["FlowGraph"]


def _bfs_levels(start, order, to, cap, level, s, t):
    """Label residual distances from s, up to the sink's level; True if t is reached."""
    level[:] = -1
    level[s] = 0
    frontier = np.array([s])
    depth = 0
    while frontier.size and level[t] < 0:
        lo = start[frontier]
        counts = start[frontier + 1] - lo
        # positions of every frontier node's CSR range, concatenated
        pos = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        arcs = order[pos]
        heads = to[arcs[cap[arcs] > 0.0]]
        depth += 1
        level[heads[level[heads] < 0]] = depth
        # the new level, ascending; np.unique would also import numpy.ma
        frontier = np.flatnonzero(level == depth)
    return level[t] >= 0


def _blocking_flow(start, order, to, cap, level, iters, path, s, t, total):
    """Push flow along shortest augmenting paths until none is left; total plus it.

    Every array argument is a memoryview. iters[u] is the position in order
    of the next arc out of u to try; it counts down to start[u]. Each
    bottleneck is added to total in turn. Every arc on a path has positive
    capacity, so a path whose bottleneck is not positive raises FlowStalled.
    """
    depth = 0
    u = s
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
                return total
            depth -= 1
            u = to[path[depth] ^ 1]
            iters[u] -= 1


def _level_graph(start, order, to, cap, level):
    """The arcs the phase's search may take, as CSR: each arc that has
    positive capacity and runs from a labeled node one level deeper."""
    # per added arc u -> v (arc 2k) and its reverse (2k + 1): the levels of v
    # and u, as int32 to keep the per-arc temporaries small
    ends = level.astype(np.int32)[to].reshape(-1, 2)
    rise = ends[:, 0] - ends[:, 1]
    keep = (cap > 0.0).reshape(-1, 2)
    keep[:, 0] &= (rise == 1) & (ends[:, 1] >= 0)
    keep[:, 1] &= (rise == -1) & (ends[:, 0] >= 0)
    kept = np.flatnonzero(keep.ravel()[order])
    return np.searchsorted(kept, start), order[kept]


def _dinic(start, order, to, cap, level, s, t):
    n = start.size - 1
    iters = np.empty(n, np.int64)
    path = np.empty(n, np.int64)
    views = [memoryview(a) for a in (to, cap, level, iters, path)]
    total = 0.0
    while _bfs_levels(start, order, to, cap, level, s, t):
        level_start, level_order = _level_graph(start, order, to, cap, level)
        iters[:] = level_start[1:] - 1
        total = _blocking_flow(memoryview(level_start), memoryview(level_order), *views,
                               s, t, total)
    return total


class FlowGraph:
    """Flow network built from arc arrays; nodes are 0..n_nodes-1."""

    def __init__(self, n_nodes: int):
        if n_nodes < 2:
            raise DimensionMismatch("a flow network needs at least two nodes")
        self.n_nodes = n_nodes
        # per add_edge call: tails and capacities of arcs 2k, 2k+1
        self._tail = [np.empty(0, np.int64)]
        self._cap = [np.empty(0, np.float64)]
        self._level: np.ndarray | None = None

    def add_edge(self, u, v, cap_uv, cap_vu=0.0) -> None:
        """Add the arcs u->v (and their reverses) with nonnegative finite capacity.

        Each argument is a scalar or a 1-D array; arrays must share one
        length, and scalars repeat along it. Arcs are appended in order.
        """
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
        caps = np.stack([cap_uv, cap_vu], axis=1).astype(np.float64)
        bad = ~(np.isfinite(caps) & (caps >= 0.0)).all(axis=1)
        if bad.any():
            k = np.argmax(bad)
            raise DimensionMismatch(f"capacities must be finite and >= 0, got {caps[k].tolist()}")
        self._tail.append(np.stack([u, v], axis=1).astype(np.int64).ravel())
        self._cap.append(caps.ravel())

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """start, order, to and cap of every arc added so far."""
        tail = np.concatenate(self._tail)
        order = np.argsort(tail, kind="stable")
        start = np.searchsorted(tail[order], np.arange(self.n_nodes + 1))
        to = tail.reshape(-1, 2)[:, ::-1].ravel()  # arc e ends where arc e ^ 1 starts
        return start, order, to, np.concatenate(self._cap)

    def max_flow(self, s: int, t: int) -> float:
        """Run Dinic; afterwards source_side() reads the min cut."""
        if not (0 <= s < self.n_nodes and 0 <= t < self.n_nodes and s != t):
            raise DimensionMismatch(f"bad terminals ({s}, {t}) in a {self.n_nodes}-node graph")
        level = np.empty(self.n_nodes, np.int64)
        flow = float(_dinic(*self._arrays(), level, s, t))
        self._level = level
        return flow

    def source_side(self) -> np.ndarray:
        """Nodes still reachable from the source in the residual graph."""
        if self._level is None:
            raise DimensionMismatch("run max_flow before reading the cut")
        return self._level >= 0
