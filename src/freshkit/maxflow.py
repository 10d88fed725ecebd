"""Exact max-flow / min-cut over float64 capacities (Dinic's algorithm).

Arcs are stored in pairs so arc e ^ 1 is always the reverse of arc e. The
bottleneck arc of every augmenting path is zeroed by exact subtraction, so
the algorithm terminates and the final residual graph yields the source-side
cut directly. Small graphs run fine in pure Python; the kernels are numba
compiled when numba is available, which is what makes desk-scale images
cheap.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

try:
    from numba import njit
except ImportError:  # numba is the optional `fast` extra
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func
        return wrap

__all__ = ["FlowGraph"]


@njit(cache=True)
def _bfs_levels(head, nxt, to, cap, level, queue, s, t):
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


@njit(cache=True)
def _augment_once(head, nxt, to, cap, level, iters, path, s, t):
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


@njit(cache=True)
def _dinic(head, nxt, to, cap, s, t):
    n = head.shape[0]
    level = np.empty(n, np.int64)
    queue = np.empty(n, np.int64)
    iters = np.empty(n, np.int64)
    path = np.empty(n, np.int64)
    total = 0.0
    while _bfs_levels(head, nxt, to, cap, level, queue, s, t):
        for i in range(n):
            iters[i] = head[i]
        while True:
            pushed = _augment_once(head, nxt, to, cap, level, iters, path, s, t)
            if pushed == 0.0:
                break
            total += pushed
    return total


@njit(cache=True)
def _reachable(head, nxt, to, cap, s):
    n = head.shape[0]
    seen = np.zeros(n, np.bool_)
    queue = np.empty(n, np.int64)
    seen[s] = True
    queue[0] = s
    q_read, q_write = 0, 1
    while q_read < q_write:
        u = queue[q_read]
        q_read += 1
        e = head[u]
        while e != -1:
            v = to[e]
            if cap[e] > 0.0 and not seen[v]:
                seen[v] = True
                queue[q_write] = v
                q_write += 1
            e = nxt[e]
    return seen


class FlowGraph:
    """Adjacency-list flow network; nodes are 0..n_nodes-1."""

    def __init__(self, n_nodes: int):
        if n_nodes < 2:
            raise DimensionMismatch("a flow network needs at least two nodes")
        self.n_nodes = n_nodes
        self._head = [-1] * n_nodes
        self._next: list[int] = []
        self._to: list[int] = []
        self._cap: list[float] = []
        self._residual: np.ndarray | None = None
        self._frozen: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def add_edge(self, u: int, v: int, cap_uv: float, cap_vu: float = 0.0) -> None:
        """Add the arc u->v (and its reverse) with nonnegative finite capacity."""
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes) or u == v:
            raise DimensionMismatch(f"bad arc ({u}, {v}) in a {self.n_nodes}-node graph")
        if cap_uv < 0.0 or cap_vu < 0.0 or not (math.isfinite(cap_uv) and math.isfinite(cap_vu)):
            raise DimensionMismatch(f"capacities must be finite and >= 0, got {cap_uv}, {cap_vu}")
        for src, dst, c in ((u, v, cap_uv), (v, u, cap_vu)):
            e = len(self._to)
            self._to.append(dst)
            self._cap.append(c)
            self._next.append(self._head[src])
            self._head[src] = e

    def max_flow(self, s: int, t: int) -> float:
        """Run Dinic; afterwards source_side() reads the min cut."""
        head = np.asarray(self._head, dtype=np.int64)
        nxt = np.asarray(self._next, dtype=np.int64)
        to = np.asarray(self._to, dtype=np.int64)
        cap = np.asarray(self._cap, dtype=np.float64)
        flow = float(_dinic(head, nxt, to, cap, s, t))
        self._frozen = (head, nxt, to)
        self._residual = cap
        self._source = s
        return flow

    def source_side(self) -> np.ndarray:
        """Nodes still reachable from the source in the residual graph."""
        if self._residual is None or self._frozen is None:
            raise DimensionMismatch("run max_flow before reading the cut")
        head, nxt, to = self._frozen
        return np.asarray(_reachable(head, nxt, to, self._residual, self._source))
