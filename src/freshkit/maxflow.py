"""Exact max-flow / min-cut over float64 capacities (Dinic's algorithm).

add_edge appends arcs as arrays, one call per batch. Arc 2k is the k-th
added arc and 2k+1 its reverse, so arc e ^ 1 is always the reverse of arc
e. max_flow turns the arc arrays into a linked adjacency list with one
stable sort over arc tails: head[u] is the last arc out of u and nxt[e] the
previous arc out of the same tail, or -1. The bottleneck arc of every
augmenting path is zeroed by exact subtraction, so the algorithm
terminates, and its last BFS, which no longer reaches the sink, marks the
source side of the min cut. Small graphs run fine in pure Python; the
kernels are numba compiled when numba is available, which is what makes
desk-scale images cheap.
"""
from __future__ import annotations

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
def _dinic(head, nxt, to, cap, level, s, t):
    n = head.shape[0]
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
        """head, nxt, to and cap of every arc added so far."""
        tail = np.concatenate(self._tail)
        order = np.argsort(tail, kind="stable")
        by_tail = tail[order]
        last = np.ones(tail.size, bool)  # last arc of its tail in arc order
        last[:-1] = by_tail[1:] != by_tail[:-1]
        nxt = np.full(tail.size, -1, np.int64)
        nxt[order[1:]] = np.where(last[:-1], -1, order[:-1])
        head = np.full(self.n_nodes, -1, np.int64)
        head[by_tail[last]] = order[last]
        to = tail.reshape(-1, 2)[:, ::-1].ravel()  # arc e ends where arc e ^ 1 starts
        return head, nxt, to, np.concatenate(self._cap)

    def max_flow(self, s: int, t: int) -> float:
        """Run Dinic; afterwards source_side() reads the min cut."""
        level = np.empty(self.n_nodes, np.int64)
        flow = float(_dinic(*self._arrays(), level, s, t))
        self._level = level
        return flow

    def source_side(self) -> np.ndarray:
        """Nodes still reachable from the source in the residual graph."""
        if self._level is None:
            raise DimensionMismatch("run max_flow before reading the cut")
        return self._level >= 0
