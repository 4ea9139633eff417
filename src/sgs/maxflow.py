"""Exact maximum flow / minimum cut on integer capacities.

One entry point, :func:`min_cut`, takes a network as arc lists and
returns the smallest minimum-cut source side: the nodes reachable from
the source in the residual graph of a maximum flow.  That side is the
same for every maximum flow, so it does not depend on the backend or on
arc order.  There are two exact backends:

* scipy's compiled Dinic (``scipy.sparse.csgraph.maximum_flow``) runs
  on an int32 matrix and keeps its flows and residual capacities in
  int32.  It takes networks of at least ``_SCIPY_MIN_ARCS`` arcs in
  which, after parallel arcs are summed, every capacity plus the
  capacity of its reverse arc, the total capacity leaving the source
  and the total entering the sink are all at most 2**31 - 1.  The
  width rule is a correctness condition: scipy silently truncates
  wider inputs (one arc of 2**40 gives flow 0), and the residual
  ``c(u, v) - f(u, v)`` of an arc whose reverse carries flow can reach
  ``c(u, v) + c(v, u)``, which wraps in int32 when that sum does not
  fit.  The size rule only saves time.
* :class:`Dinic`, Dinic's blocking-flow algorithm over adjacency lists
  with plain Python integers, takes every other network (such as the
  rescaled rational capacities of float potentials), exactly and
  without overflow checks.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array

__all__ = ["Dinic", "min_cut"]

_INT32_MAX = 2**31 - 1
# Below this many arcs the Python Dinic finishes before scipy's fixed
# cost of about 1.5 ms per cut (matrix build, guard, residual search).
# Measured on the networks of the benchmark corpora (2-core x86-64,
# scipy 1.17): the two times meet at 512-1023 arcs, and below 512 the
# Python Dinic takes under 0.5 ms.
_SCIPY_MIN_ARCS = 512


def min_cut(n: int, tails: Sequence[int], heads: Sequence[int],
            caps: Sequence[int], s: int, t: int) -> list[int]:
    """Smallest minimum s-t cut source side of a network on nodes
    ``0 .. n-1`` with arcs ``tails[i] -> heads[i]`` of non-negative
    integer capacity ``caps[i]``, in increasing node order.

    Parallel arcs add up, and an arc given in both directions is one
    bidirected arc.
    """
    if min(caps, default=0) < 0:
        raise ValueError("capacities must be non-negative")
    matrix = None
    if len(caps) >= _SCIPY_MIN_ARCS:
        matrix = _int32_matrix(n, tails, heads, caps, s, t)
    if matrix is None:
        return _dinic_cut(n, tails, heads, caps, s, t)[1]
    return _scipy_cut(matrix, s, t)[1]


def _int32_matrix(n: int, tails, heads, caps, s: int, t: int):
    """The capacities as an int32 CSR matrix, or None when scipy's
    int32 Dinic could not solve the network exactly (see the module
    docstring)."""
    if max(caps, default=0) > _INT32_MAX:
        return None  # also keeps the int64 sums below exact
    c = csr_array((np.asarray(caps, dtype=np.int64), (tails, heads)),
                  shape=(n, n))
    if (c.sum(axis=1)[s] > _INT32_MAX or c.sum(axis=0)[t] > _INT32_MAX
            or (c + c.T).max() > _INT32_MAX):
        return None
    return c.astype(np.int32)


def _scipy_cut(matrix: csr_array, s: int, t: int) -> tuple[int, list[int]]:
    """Flow value and smallest source side by scipy's Dinic; ``matrix``
    as from :func:`_int32_matrix`."""
    # imported on first use: a process whose networks all stay below
    # _SCIPY_MIN_ARCS never loads scipy's graph routines (about 1 MB)
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow
    result = maximum_flow(matrix, s, t, method="dinic")
    residual = (matrix - result.flow) > 0
    side = breadth_first_order(residual, s, directed=True,
                               return_predecessors=False)
    return int(result.flow_value), sorted(side.tolist())


def _dinic_cut(n: int, tails, heads, caps, s: int,
               t: int) -> tuple[int, list[int]]:
    """Flow value and smallest source side by the Python :class:`Dinic`.

    An arc whose reverse came earlier becomes that arc's reverse
    capacity, so a bidirected arc is one arc pair as with
    :meth:`Dinic.add_edge`'s ``rcap``.
    """
    net = Dinic(n)
    reverse: dict[tuple[int, int], int] = {}  # (v, u) -> reverse of u->v
    for u, v, cap in zip(tails, heads, caps):
        a = reverse.pop((u, v), None)
        if a is None:
            reverse[v, u] = len(net.to) + 1
            net.add_edge(u, v, cap)
        else:
            net.cap[a] += cap
    return net.max_flow(s, t), net.min_cut_source_side(s)


class Dinic:
    """Max-flow network with ``n`` nodes indexed ``0 .. n-1``."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, rcap: int = 0) -> None:
        """Directed arc u->v with capacity ``cap``; ``rcap`` on the reverse arc."""
        if cap < 0 or rcap < 0:
            raise ValueError("capacities must be non-negative")
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        to, cap, head = self.to, self.cap, self.head
        while queue:
            u = queue.popleft()
            for a in head[u]:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        to, cap, head = self.to, self.cap, self.head
        it = [0] * self.n
        total = 0
        path: list[int] = []  # arcs of the current partial path
        u = s
        while True:
            if u == t:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                total += push
                # retreat to the first saturated arc; stale iterator
                # entries skip saturated arcs on their next scan
                for i, a in enumerate(path):
                    if cap[a] == 0:
                        del path[i:]
                        break
                u = s if not path else to[path[-1]]
                continue
            arc = -1
            while it[u] < len(head[u]):
                a = head[u][it[u]]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    arc = a
                    break
                it[u] += 1
            if arc >= 0:
                path.append(arc)
                u = to[arc]
            else:
                if u == s:
                    break
                level[u] = -1  # dead end; parent skips it via the level test
                path.pop()
                u = s if not path else to[path[-1]]
        return total

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            flow += self._blocking_flow(s, t, level)

    def min_cut_source_side(self, s: int) -> list[int]:
        """Nodes reachable from ``s`` in the residual graph (after max_flow)."""
        seen = [False] * self.n
        seen[s] = True
        queue = deque([s])
        to, cap, head = self.to, self.cap, self.head
        while queue:
            u = queue.popleft()
            for a in head[u]:
                v = to[a]
                if cap[a] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return [v for v in range(self.n) if seen[v]]
