"""Exact maximum flow / minimum cut on integer capacities.

A network is built once by :func:`cut_network` as its symmetric CSR
pattern, and :func:`min_cut` solves it for one capacity vector, so a
family of cuts that differ only in their capacities (the Dinkelbach
steps of :mod:`sgs.sparseness`) shares one build.  :func:`min_cut`
loads the exact residual capacities on the pattern and returns the
smallest minimum-cut source side: the nodes reachable from the source
in the residual graph of a maximum flow.  That side is the same for
every maximum flow, so it does not depend on the path or on arc order.
There are two exact paths, chosen by the number of arcs of nonzero
capacity alone:

* networks of at least ``_SCIPY_MIN_ARCS`` such arcs run on scipy's
  compiled Dinic (``scipy.sparse.csgraph.maximum_flow``) in bit-scaling
  rounds (:func:`_rounds_cut`), whatever their capacity width.  The
  rounds see only the pattern's live pairs, those with capacity in
  either direction.  scipy keeps capacities, flows and residuals in
  int32, so each round solves the top 31 bits of the exact residual
  capacities, sized by a cut whose capacity is known, and subtracts that
  flow exactly; a network that fits int32 takes one round.
* :class:`Dinic`, Dinic's blocking-flow algorithm over adjacency lists
  with plain Python integers, takes the smaller networks, and the
  residual of the rare round that cannot go on (:func:`_dinic_cut`).
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["CutNetwork", "Dinic", "cut_network", "min_cut"]

# Width of the capacities one scipy round may see: scipy silently
# truncates wider ones (one arc of 2**40 gives flow 0), and its int32
# residual c(u, v) - f(u, v) reaches c(u, v) + c(v, u), which wraps
# when that sum does not fit (it then returns less than the maximum
# flow).  A round therefore keeps every capacity plus its reverse's,
# and the capacity of one known cut, which bounds the flow value, below
# 2**_ROUND_BITS.
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
    """A network on nodes ``0 .. n-1`` with source ``s`` and sink ``t``,
    held as its symmetric CSR pattern: every arc and its reverse once,
    in (tail, head) order.

    ``indptr`` and ``indices`` are int32, as scipy takes them, ``rows``
    holds the tail of each entry, ``rev`` the entry of each entry's
    reverse and ``slot`` the entry of each arc; parallel arcs share one,
    and ``parallel`` says whether any do.
    """
    n: int
    s: int
    t: int
    slot: np.ndarray
    parallel: bool
    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    rev: np.ndarray


def cut_network(n: int, tails: Sequence[int], heads: Sequence[int],
                s: int, t: int) -> CutNetwork:
    """The network on nodes ``0 .. n-1`` with arcs ``tails[i] ->
    heads[i]``, source ``s`` and sink ``t``.

    A node outside ``0 .. n-1`` or ``s == t`` raises ``ValueError``.
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
    keys = tail * n + head
    # sort and mask: np.unique (numpy 2.4) takes 14 times as long here
    pattern = np.sort(np.concatenate((keys, head * n + tail)))
    pattern = pattern[np.diff(pattern, prepend=-1) != 0]
    rows, cols = np.divmod(pattern, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    slot = np.searchsorted(pattern, keys)
    rev = np.argsort(cols * n + rows, kind="stable")  # pattern[rev] reversed
    return CutNetwork(n, s, t, slot, np.bincount(slot).max(initial=0) > 1,
                      indptr.astype(np.int32), cols.astype(np.int32),
                      rows.astype(np.int32), rev)


def min_cut(network: CutNetwork, caps: Sequence[int]) -> list[int]:
    """Smallest minimum s-t cut source side of ``network`` when arc
    ``i`` has the non-negative integer capacity ``caps[i]``, in
    increasing node order.

    Parallel arcs add up, and an arc given in both directions is one
    bidirected arc.  A capacity that is not an integer or is negative,
    or a capacity count other than the arc count, raises ``ValueError``.
    """
    caps = np.asarray(caps)
    if caps.dtype != np.int64:
        caps = caps.astype(object)  # Python integers of any width
    if len(caps) != len(network.slot):
        raise ValueError(f"{len(caps)} capacities for "
                         f"{len(network.slot)} arcs")
    try:  # a float, Fraction or string entry makes the sum no int
        total = caps.sum() if caps.dtype == object else _total(caps)
    except TypeError:
        total = None
    if not isinstance(total, int):
        bad = next(c for c in caps.tolist() if not isinstance(c, int))
        raise ValueError(f"capacities must be integers, got {bad!r}")
    if len(caps) and caps.min() < 0:
        raise ValueError("capacities must be non-negative")
    # the exact residual capacities on the pattern
    r = np.zeros(len(network.indices),
                 dtype=object if total >= _INT64_SAFE else np.int64)
    if network.parallel:
        np.add.at(r, network.slot, caps.astype(r.dtype))
    else:
        r[network.slot] = caps
    if np.count_nonzero(caps) >= _SCIPY_MIN_ARCS:
        return _rounds_cut(network, r)[1]
    return _dinic_cut(network, r)[1]


def _rounds_cut(network: CutNetwork, r: np.ndarray) -> tuple[int, list[int]]:
    """Flow value and smallest source side by scipy's Dinic in exact
    bit-scaling rounds (Edmonds-Karp 1972; Gabow 1985).

    ``r`` holds the exact residual capacities on the network's pattern,
    an int64 or object array.  The rounds and the hand-off run on its
    live pairs only: a pair of capacity 0 both ways carries no flow, so
    it stays 0 in every round.  ``U`` (``bound``) is the residual
    capacity of a known cut ``S``, so it bounds the flow still missing:
    at first the cut {s} or V - {t}, whichever is smaller.  Each round

    1. clamps ``r`` to ``U + 1``, which changes neither the maximum-flow
       value nor any minimum cut: a cut through a clamped arc exceeds
       the missing flow;
    2. takes ``shift`` so that, after ``r >> shift``, every capacity
       plus its reverse's and ``U`` are below ``2**_ROUND_BITS``
       (scipy's width rule, see above): the scaled flow value is at most
       the scaled capacity of ``S``, which is at most ``U >> shift``;
    3. runs scipy on ``r >> shift``, a network whose flows are feasible
       in ``r``, and subtracts that flow times ``2**shift`` from ``r``;
    4. takes as the new ``S`` what the source reaches in the scaled
       residual, and as ``U`` its exact residual capacity.

    The round with ``shift == 0`` solves the exact residual, so ``S`` is
    the witness (the residual graph of ``r`` and the scaled one then
    coincide) and the loop ends.  Why it ends: the arcs leaving ``S``
    are saturated in the scaled network, so in ``r`` each keeps less
    than ``2**shift``, and the new ``U`` is below ``|arcs leaving S| *
    2**shift``.  Here ``2**shift`` is at most ``2**(1 - _ROUND_BITS)``
    times the width, which after the clamp is at most ``2 * (U + 1)``.
    ``U`` is a non-negative integer, and a round that fails to lower it
    hands the residual to the exact Python :class:`Dinic` instead, so
    the loop ends after finitely many rounds (2-6 on the 55-119-bit
    networks of the benchmark corpora, one for a network that fits
    int32).  scipy returns the flow on the input's own pattern, which is
    symmetric, so its data is read in place; a flow on any other pattern
    takes the same hand-off.
    """
    # imported on first use: a process whose networks all stay below
    # _SCIPY_MIN_ARCS never loads scipy (160 modules, about 0.3 s)
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow
    n, s, t = network.n, network.s, network.t
    # the live pairs, renumbered (slot and parallel are not read below)
    live = (r != 0) | (r[network.rev] != 0)
    at = np.concatenate(([0], np.cumsum(live, dtype=np.int32)))
    keep = np.flatnonzero(live)
    indptr, rev = at[network.indptr], at[network.rev[keep]]
    network = network._replace(indptr=indptr, indices=network.indices[keep],
                               rows=network.rows[keep], rev=rev)
    indices, rows, r = network.indices, network.rows, r[keep]
    # the arcs leaving s, then those entering t
    bound = min(_total(r[indptr[s]:indptr[s + 1]]),
                _total(r[rev[indptr[t]:indptr[t + 1]]]))
    flow = 0
    while True:
        r = np.minimum(r, bound + 1)
        if bound + 1 < _INT64_SAFE:
            r = r.astype(np.int64, copy=False)
        width = max(int((r + r[rev]).max(initial=0)), bound)
        shift = max(0, width.bit_length() - _ROUND_BITS)
        scaled = (r >> shift).astype(np.int32)
        result = maximum_flow(csr_array((scaled, indices, indptr),
                                        shape=(n, n)), s, t, method="dinic")
        if not (np.array_equal(result.flow.indptr, indptr)
                and np.array_equal(result.flow.indices, indices)):
            break
        moved = result.flow.data
        flow += int(result.flow_value) << shift
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
            break
        bound = left
    rest, witness = _dinic_cut(network, r)
    return flow + rest, witness


def _total(x: np.ndarray) -> int:
    """Exact sum of non-negative int64 entries (or of Python integers)
    in 31-bit halves, which cannot overflow."""
    return (int((x >> 31).sum()) << 31) + int((x & 0x7FFFFFFF).sum())


def _dinic_cut(network: CutNetwork,
               r: np.ndarray) -> tuple[int, list[int]]:
    """Flow value and smallest source side by the Python :class:`Dinic`
    on the residual capacities ``r`` of the network's pattern.

    Each entry and its reverse (``rev``) become one arc pair, as with
    :meth:`Dinic.add_edge`'s ``rcap``; pairs without capacity are left
    out.
    """
    rev = network.rev
    pairs = np.flatnonzero((np.arange(len(rev)) < rev)
                           & ((r != 0) | (r[rev] != 0)))
    net = Dinic(network.n)
    for u, v, cap, rcap in zip(network.rows[pairs].tolist(),
                               network.indices[pairs].tolist(),
                               r[pairs].tolist(), r[rev[pairs]].tolist()):
        net.add_edge(u, v, cap, rcap)
    s = network.s
    return net.max_flow(s, network.t), net.min_cut_source_side(s)


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
