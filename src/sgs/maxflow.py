"""Exact maximum flow / minimum cut on integer capacities.

A network is built once by :func:`cut_network` from its arc lists, and
:func:`min_cut` solves it for one capacity vector, so a family of cuts
that differ only in their capacities (the Dinkelbach steps of
:mod:`sgs.sparseness`) shares one build.  :func:`min_cut` returns the
smallest minimum-cut source side: the nodes reachable from the source in
the residual graph of a maximum flow.  That side is the same for every
maximum flow, so it does not depend on the backend or on arc order.
There are two exact paths, chosen by the number of arcs of nonzero
capacity alone:

* networks of at least ``_SCIPY_MIN_ARCS`` such arcs run on scipy's
  compiled Dinic (``scipy.sparse.csgraph.maximum_flow``) in bit-scaling
  rounds (:func:`_rounds_cut`), whatever their capacity width.  scipy
  keeps capacities, flows and residuals in int32, so each round solves
  the top 31 bits of the exact residual capacities and subtracts that
  flow exactly; a network that fits int32 takes one round.
* :class:`Dinic`, Dinic's blocking-flow algorithm over adjacency lists
  with plain Python integers, takes the smaller networks, and the
  residual of the rare round that makes no progress.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_array

__all__ = ["CutNetwork", "Dinic", "cut_network", "min_cut"]

# Width of the capacities one scipy round may see: scipy silently
# truncates wider ones (one arc of 2**40 gives flow 0), and its int32
# residual c(u, v) - f(u, v) reaches c(u, v) + c(v, u), which wraps
# when that sum does not fit (it then returns less than the maximum
# flow).  A round therefore keeps every capacity plus its reverse's,
# the source total and the sink total below 2**_ROUND_BITS.
_ROUND_BITS = 31
# Below this many arcs of nonzero capacity the Python Dinic finishes
# before scipy's fixed cost of about 1.5 ms per cut (matrix build,
# residual search).  Measured on the networks of the benchmark corpora
# (2-core x86-64, scipy 1.17): the two times meet at 512-1023 arcs, and
# below 512 the Python Dinic takes under 0.5 ms.
_SCIPY_MIN_ARCS = 512
# Capacities below this bound keep every sum of two exact in int64;
# wider residuals stay Python integers.
_INT64_SAFE = 2**62


class CutNetwork(NamedTuple):
    """The arcs ``tails[i] -> heads[i]`` of a network on nodes ``0 ..
    n-1`` with source ``s`` and sink ``t``, and their CSR ``pattern``
    when the network is large enough to reach scipy."""
    n: int
    s: int
    t: int
    tails: np.ndarray
    heads: np.ndarray
    pattern: "_Pattern | None"


class _Pattern(NamedTuple):
    """The symmetric CSR pattern of a network: every arc and its reverse
    once, in (tail, head) order.

    ``indptr`` and ``indices`` are int32, as scipy takes them, ``rows``
    holds the tail of each entry, ``rev`` the entry of each entry's
    reverse and ``slot`` the entry of each arc; parallel arcs share one,
    and ``parallel`` says whether any do.  ``source_out`` and
    ``sink_in`` are the entries of the arcs leaving the source and
    entering the sink.
    """
    slot: np.ndarray
    parallel: bool
    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    rev: np.ndarray
    source_out: np.ndarray
    sink_in: np.ndarray


def cut_network(n: int, tails: Sequence[int], heads: Sequence[int],
                s: int, t: int) -> CutNetwork:
    """The network on nodes ``0 .. n-1`` with arcs ``tails[i] ->
    heads[i]``, source ``s`` and sink ``t``.

    Its CSR pattern is built here when it has at least
    ``_SCIPY_MIN_ARCS`` arcs; a smaller network always runs on the
    Python :class:`Dinic`.  A node outside ``0 .. n-1`` or ``s == t``
    raises ``ValueError``.
    """
    tail = np.asarray(tails, dtype=np.int64)
    head = np.asarray(heads, dtype=np.int64)
    for name, node in (("source", s), ("sink", t)):
        if not 0 <= node < n:
            raise ValueError(f"{name} {node} is not a node (n = {n})")
    for name, nodes in (("arc tail", tail), ("arc head", head)):
        for node in (nodes.min(), nodes.max()) if len(nodes) else ():
            if not 0 <= node < n:
                raise ValueError(f"{name} {node} is not a node (n = {n})")
    if s == t:
        raise ValueError(f"source and sink are the same node {s}")
    pattern = (_pattern(n, tail, head, s, t)
               if len(tail) >= _SCIPY_MIN_ARCS else None)
    return CutNetwork(n, s, t, tail, head, pattern)


def _pattern(n: int, tail: np.ndarray, head: np.ndarray, s: int,
             t: int) -> _Pattern:
    keys = tail * n + head
    pattern = np.sort(np.concatenate((keys, head * n + tail)))
    pattern = pattern[np.concatenate(([True], pattern[1:] != pattern[:-1]))]
    rows, cols = np.divmod(pattern, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    slot = np.searchsorted(pattern, keys)
    rev = np.argsort(cols * n + rows, kind="stable")  # pattern[rev] reversed
    return _Pattern(slot, np.bincount(slot).max(initial=0) > 1,
                    indptr.astype(np.int32), cols.astype(np.int32),
                    rows.astype(np.int32), rev,
                    np.arange(indptr[s], indptr[s + 1]),
                    rev[indptr[t]:indptr[t + 1]])


def min_cut(network: CutNetwork, caps: Sequence[int]) -> list[int]:
    """Smallest minimum s-t cut source side of ``network`` when arc
    ``i`` has the non-negative integer capacity ``caps[i]``, in
    increasing node order.

    Parallel arcs add up, and an arc given in both directions is one
    bidirected arc.  A negative capacity, or a capacity count other
    than the arc count, raises ``ValueError``.
    """
    caps = np.asarray(caps)
    if caps.dtype != np.int64:
        caps = caps.astype(object)  # Python integers of any width
    if len(caps) != len(network.tails):
        raise ValueError(f"{len(caps)} capacities for "
                         f"{len(network.tails)} arcs")
    if len(caps) and caps.min() < 0:
        raise ValueError("capacities must be non-negative")
    used = np.flatnonzero(caps)
    if len(used) >= _SCIPY_MIN_ARCS:
        return _rounds_cut(network, caps)[1]
    return _dinic_cut(network.n, network.tails[used].tolist(),
                      network.heads[used].tolist(), caps[used].tolist(),
                      network.s, network.t)[1]


def _rounds_cut(network: CutNetwork,
                caps: np.ndarray) -> tuple[int, list[int]]:
    """Flow value and smallest source side by scipy's Dinic in exact
    bit-scaling rounds (Edmonds-Karp 1972; Gabow 1985).

    ``caps`` is an int64 or object array of non-negative capacities, one
    per arc.  ``r`` holds the exact residual capacities on the network's
    symmetric pattern, and ``U`` (``bound``) bounds the flow still
    missing, at first the smaller of the source and sink totals.  Each
    round

    1. clamps ``r`` to ``U + 1``, which changes neither the maximum-flow
       value nor any minimum cut: a cut through a clamped arc exceeds
       the missing flow;
    2. takes ``shift`` so that, after ``r >> shift``, every capacity
       plus its reverse's, the source total and the sink total are below
       ``2**_ROUND_BITS`` (scipy's width rule, see above);
    3. runs scipy on ``r >> shift``, a network whose flows are feasible
       in ``r``, and subtracts that flow times ``2**shift`` from ``r``;
    4. sets ``U`` to the exact residual capacity of the cut whose source
       side ``S`` is what the source reaches in the scaled residual.

    The round with ``shift == 0`` solves the exact residual, so ``S`` is
    the witness (the residual graph of ``r`` and the scaled one then
    coincide) and the loop ends.  Why it ends: the arcs leaving ``S``
    are saturated in the scaled network, so in ``r`` each keeps less
    than ``2**shift``, and the new ``U`` is below ``|arcs leaving S| *
    2**shift``.  Here ``2**shift`` is at most ``2**(1 - _ROUND_BITS)``
    times the width, which after the clamp is at most ``max(2, n) *
    (U + 1)``.  ``U`` is a non-negative integer, and a round that fails
    to lower it hands the residual to the exact Python :class:`Dinic`
    instead, so the loop ends after finitely many rounds (2-6 on the
    55-119-bit networks of the benchmark corpora, one for a network
    that fits int32).
    """
    # imported on first use: a process whose networks all stay below
    # _SCIPY_MIN_ARCS never loads scipy's graph routines (about 1 MB)
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow
    n, s, t = network.n, network.s, network.t
    p = network.pattern
    if p is None:
        p = _pattern(n, network.tails, network.heads, s, t)
    indptr, indices, rows = p.indptr, p.indices, p.rows
    rev, source_out, sink_in = p.rev, p.source_out, p.sink_in
    total = caps.sum() if caps.dtype == object else _total(caps)
    r = np.zeros(len(indices),
                 dtype=object if total >= _INT64_SAFE else np.int64)
    if p.parallel:
        np.add.at(r, p.slot, caps.astype(r.dtype))
    else:
        r[p.slot] = caps
    bound = min(_total(r[source_out]), _total(r[sink_in]))
    flow = 0
    while True:
        r = np.minimum(r, bound + 1)
        if bound + 1 < _INT64_SAFE:
            r = r.astype(np.int64, copy=False)
        width = max(int((r + r[rev]).max()), _total(r[source_out]),
                    _total(r[sink_in]))
        shift = max(0, width.bit_length() - _ROUND_BITS)
        scaled = (r >> shift).astype(np.int32)
        result = maximum_flow(csr_array((scaled, indices, indptr),
                                        shape=(n, n)), s, t, method="dinic")
        flow += int(result.flow_value) << shift
        moved = _flow_on_pattern(result.flow, n, p)
        r = r - (moved.astype(r.dtype) << shift)
        # csgraph treats explicit zeros as arcs: keep only residual > 0
        keep = scaled > moved
        kept = np.concatenate(([0], np.cumsum(keep, dtype=np.int32)))[indptr]
        residual = csr_array((np.ones(kept[-1], np.int8), indices[keep],
                              kept), shape=(n, n))
        side = np.zeros(n, dtype=bool)
        side[breadth_first_order(residual, s, directed=True,
                                 return_predecessors=False)] = True
        if shift == 0:
            return flow, np.flatnonzero(side).tolist()
        left = _total(r[side[rows] & ~side[indices]])
        if left >= bound:
            rest, witness = _dinic_cut(n, rows.tolist(), indices.tolist(),
                                       r.tolist(), s, t)
            return flow + rest, witness
        bound = left


def _flow_on_pattern(flow: csr_array, n: int, p: _Pattern) -> np.ndarray:
    """The entries of scipy's ``flow`` matrix on the pattern ``p``.

    scipy returns the flow on the input's own pattern when that pattern
    is symmetric, as here, so its data is read in place; a flow on any
    other pattern is aligned by (row, column) instead.
    """
    if (np.array_equal(flow.indptr, p.indptr)
            and np.array_equal(flow.indices, p.indices)):
        return flow.data
    keys = p.rows.astype(np.int64) * n + p.indices
    flow_rows = np.repeat(np.arange(n), np.diff(flow.indptr))
    moved = np.zeros(len(keys), dtype=flow.data.dtype)
    moved[np.searchsorted(keys, flow_rows * n + flow.indices)] = flow.data
    return moved


def _total(x: np.ndarray) -> int:
    """Exact sum of non-negative int64 entries (or of Python integers)
    in 31-bit halves, which cannot overflow."""
    return (int((x >> 31).sum()) << 31) + int((x & 0x7FFFFFFF).sum())


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
