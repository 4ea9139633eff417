"""JSON graph files and machine-readable analysis reports.

A graph file is a JSON document

    {"vertices": [{"id": "a", "q": 0.0, "host_degree": 3}, ...],
     "edges":    [{"u": "a", "v": "b", "theta": 0.5}, ...]}

with unique string ids, optional host degrees (defaulting to the
internal degree), and optional antisymmetric edge phases stored for the
written (u, v) orientation.  Vertices map to dense indices in file
order; saving normalizes key order and float formatting, after which
load/save round-trips are byte-stable.  The saved text is
``canonical_json`` of ``graph_to_document``, byte for byte, but written
directly from the graph's arrays, and :func:`graph_digest` hashes the
same text.

Both directions work on whole columns, not on one entry at a time:
:func:`document_to_graph` reads each field of the entries in one pass
and checks the columns as whole arrays; only a document that fails is
read again, entry by entry, to name the first faulty entry.
:func:`canonical_json` is one direct writer, which also writes a
report's non-finite floats as strings.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any

import numpy as np

from .graphs import Graph, PhaseField, Potential, subset_stats

__all__ = [
    "graph_to_document", "document_to_graph", "save_graph", "load_graph",
    "canonical_json", "graph_digest", "id_map_digest", "write_report",
    "verify_report_certificates",
]


# every integer up to 2**53 is an exact float, so host degrees and the
# float degree sums of the subset enumerator stay exact below it
_MAX_HOST_DEGREE = 2**53


def canonical_json(obj: Any) -> str:
    """Stable serialization: sorted keys, two-space indent, LF endings.

    The text is that of ``json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=True) + "\n"`` byte for byte, from one direct writer,
    with one difference: a non-finite float is written as the string
    ``"inf"``, ``"-inf"`` or ``"nan"``, so the text is strict JSON.
    Objects need string keys; tuples are written as arrays, and a float
    subclass (``numpy.float64``) as its ``float.__repr__``.
    """
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(node: Any, out: list[str], newline: str) -> None:
    """Append the text of ``node`` to ``out``; ``newline`` is a line
    break plus the indent of the line ``node`` starts on."""
    if isinstance(node, str):
        out.append(encode_basestring_ascii(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    elif isinstance(node, float):
        out.append(float.__repr__(node) if -math.inf < node < math.inf
                   else f'"{float(node)}"')
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key in sorted(node):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{type(key).__name__}")
            out.append(head + encode_basestring_ascii(key) + ": ")
            _write(node[key], out, inner)
            head = "," + inner
        out.append(newline + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, node)) == {str}:  # a witness's ids, in one join
            out.append("[" + inner + ("," + inner).join(
                map(encode_basestring_ascii, node)) + newline + "]")
            return
        head = "[" + inner
        for value in node:
            out.append(head)
            _write(value, out, inner)
            head = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(node).__name__} "
                        f"is not JSON serializable")


def _all_of(values: list, *types: type) -> bool:
    """Whether every one of ``values`` is an instance of ``types`` and
    none is a bool (a JSON ``true`` is no number)."""
    return all(issubclass(t, types) and not issubclass(t, bool)
               for t in set(map(type, values)))


def _vertex_ids(ids: list[str] | None, n: int) -> list[str]:
    if ids is None:
        return [str(i) for i in range(n)]
    if len(ids) != n or not _all_of(ids, str) or len(set(ids)) != n:
        raise ValueError("ids must be unique strings, one per vertex")
    return ids


def graph_to_document(graph: Graph, potential: Potential | None = None,
                      phase: PhaseField | None = None,
                      ids: list[str] | None = None) -> dict:
    n = graph.vertex_count
    ids = _vertex_ids(ids, n)
    q = potential.values if potential is not None else np.zeros(n)
    vertices = []
    for x in range(n):
        entry: dict[str, Any] = {"id": ids[x], "q": float(q[x])}
        if graph.host_degree[x] != graph.internal_degree[x]:
            entry["host_degree"] = int(graph.host_degree[x])
        vertices.append(entry)
    edges = []
    for i, (u, v) in enumerate(graph.edges):
        entry = {"u": ids[u], "v": ids[v]}
        if phase is not None:
            entry["theta"] = float(phase.values[i])
        edges.append(entry)
    return {"vertices": vertices, "edges": edges}


def _finite(value) -> bool:
    """Whether ``value`` is a finite JSON number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _floats(values: list) -> np.ndarray:
    """Numbers as float64; numpy rounds an integer just past the largest
    float down to it, so the entries there are checked as given."""
    x = np.array(values, dtype=np.float64)
    edge = np.flatnonzero(np.abs(x) == sys.float_info.max).tolist()
    if not all(_finite(values[i]) for i in edge):
        raise OverflowError("number past the largest float")
    return x


def _first_fault(vertices: list, edges: list) -> str | None:
    """The message naming the first faulty entry of a graph document,
    read one entry at a time in the order :func:`document_to_graph`
    documents; ``None`` if no entry is at fault."""
    index: dict[str, int] = {}
    host = []
    for i, entry in enumerate(vertices):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            return f"{where}: missing id"
        vid, q = entry["id"], entry.get("q", 0.0)
        h = entry.get("host_degree")
        if not isinstance(vid, str):
            return f"{where}: id must be a string, got {vid!r}"
        if vid in index:
            return f"{where}: duplicate id {vid!r}"
        index[vid] = i
        if not _finite(q):
            return f"{where}: q must be a finite number, got {q!r}"
        if h is not None and (isinstance(h, bool) or not isinstance(h, int)):
            return f"{where}: host_degree must be an integer, got {h!r}"
        if h is not None and h > _MAX_HOST_DEGREE:
            return f"{where}: host_degree {h} too large (limit 2**53)"
        host.append(h)
    internal = [0] * len(vertices)
    pairs = set()
    for j, entry in enumerate(edges):
        where = f"edges[{j}]"
        if not isinstance(entry, dict) or "u" not in entry or "v" not in entry:
            return f"{where}: missing endpoint"
        u, v, theta = entry["u"], entry["v"], entry.get("theta")
        if not isinstance(u, str):
            return f"{where}: u must be a string, got {u!r}"
        if not isinstance(v, str):
            return f"{where}: v must be a string, got {v!r}"
        for x in (u, v):
            if x not in index:
                return f"{where}: unknown id {x!r}"
        if u == v:
            return f"{where}: self-loop at {u!r}"
        pair = frozenset((u, v))
        if pair in pairs:
            return f"{where}: duplicate edge"
        pairs.add(pair)
        if theta is not None and not _finite(theta):
            return f"{where}: theta must be a finite number, got {theta!r}"
        internal[index[u]] += 1
        internal[index[v]] += 1
    for i, (h, d) in enumerate(zip(host, internal)):
        if h is not None and h < d:
            return f"vertices[{i}]: host degree below internal degree"
    return None


def _read(vertices: list, edges: list
          ) -> tuple[Graph, Potential, PhaseField | None, list[str]]:
    """The graph, potential, phases and ids of the entries, read as
    columns and checked as whole arrays; a fault raises, unnamed."""
    if not (_all_of(vertices, dict) and _all_of(edges, dict)):
        raise TypeError("graph entries must be objects")
    n, m = len(vertices), len(edges)
    ids = list(map(itemgetter("id"), vertices))
    index = dict(zip(ids, range(n)))
    q = [e.get("q", 0.0) for e in vertices]
    raw_host = [e.get("host_degree") for e in vertices]
    if not (len(index) == n and _all_of(ids, str) and _all_of(q, int, float)
            and _all_of(raw_host, int, type(None))):
        raise TypeError("ids must be unique strings, q numbers and host "
                        "degrees integers")
    potential = Potential(_floats(q))
    ends = list(map(itemgetter("u"), edges)) + list(map(itemgetter("v"), edges))
    rows = np.fromiter(map(index.__getitem__, ends), np.int64, 2 * m)
    rows = rows.reshape(2, m).T
    host = None
    if raw_host.count(None) < n:
        internal = np.bincount(rows.ravel(), minlength=n).tolist()
        host = np.array([d if h is None else h
                         for h, d in zip(raw_host, internal)], dtype=np.int64)
        if host.max() > _MAX_HOST_DEGREE:
            raise ValueError("host degree too large")
    graph = Graph(n, rows, host_degree=host)
    raw_theta = [e.get("theta") for e in edges]
    phase = None
    if raw_theta.count(None) < m:
        if not _all_of(raw_theta, int, float, type(None)):
            raise TypeError("phases must be numbers")
        given = np.array([t is not None for t in raw_theta])
        theta = _floats([0.0 if t is None else t for t in raw_theta])
        # stored for the written orientation; an absent theta is +0.0
        flip = given & (rows[:, 0] > rows[:, 1])
        theta[flip] = -theta[flip]
        lo, hi = np.sort(rows, axis=1).T
        phase = PhaseField(graph, theta[np.argsort(lo * n + hi)])
    return graph, potential, phase, ids


def document_to_graph(doc: dict) -> tuple[Graph, Potential, PhaseField | None, list[str]]:
    """Parse a graph document; errors name the offending entry.

    The entries are read once into columns (ids, q, host degrees,
    endpoint indices, theta), which are checked as whole arrays, partly
    by the :class:`Graph`, :class:`Potential` and :class:`PhaseField`
    constructors.  Only if they fail is the document read again, one
    entry at a time, to name the first faulty entry: every vertex entry
    before any edge entry, and within an entry the checks in this order.
    A vertex entry needs an ``id`` that is a string not used before, a
    ``q`` (default 0) that is a finite number, and a ``host_degree``, if
    given, that is an integer up to 2**53.  An edge entry needs
    endpoints ``u`` and ``v`` that are the ids of two different
    vertices, joined by no edge before, and a ``theta``, if given and
    not null, that is a finite number.  Last, no host degree may be
    below the internal degree.
    """
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ValueError("graph document needs 'vertices' and 'edges'")
    for key in ("vertices", "edges"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list, got {doc[key]!r}")
    try:
        return _read(doc["vertices"], doc["edges"])
    except (KeyError, TypeError, OverflowError, ValueError):
        message = _first_fault(doc["vertices"], doc["edges"])
        if message is None:
            raise
    raise ValueError(message)


def _graph_text(graph: Graph, potential: Potential | None,
                phase: PhaseField | None, ids: list[str] | None) -> str:
    """``canonical_json(graph_to_document(...))``, written directly: the
    same keys in sorted order, ``encode_basestring_ascii`` for strings
    and ``repr`` for the (finite) floats, as ``json.dumps`` writes them."""
    n = graph.vertex_count
    names = [encode_basestring_ascii(i) for i in _vertex_ids(ids, n)]
    q = potential.values.tolist() if potential is not None else [0.0] * n
    vertices = [
        "    {\n"
        + (f'      "host_degree": {h},\n' if h != d else "")
        + f'      "id": {name},\n      "q": {x!r}\n    }}'
        for name, x, h, d in zip(names, q, graph.host_degree.tolist(),
                                 graph.internal_degree.tolist())]
    thetas = ([f'      "theta": {x!r},\n' for x in phase.values.tolist()]
              if phase is not None else [""] * graph.edge_count)
    edges = [f'    {{\n{theta}      "u": {names[u]},\n'
             f'      "v": {names[v]}\n    }}'
             for theta, (u, v) in zip(thetas, graph.edge_ends.tolist())]
    edge_list = "[\n" + ",\n".join(edges) + "\n  ]" if edges else "[]"
    return ('{\n  "edges": ' + edge_list + ',\n  "vertices": [\n'
            + ",\n".join(vertices) + "\n  ]\n}\n")


def save_graph(path, graph: Graph, potential: Potential | None = None,
               phase: PhaseField | None = None,
               ids: list[str] | None = None) -> None:
    text = _graph_text(graph, potential, phase, ids)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_graph(path) -> tuple[Graph, Potential, PhaseField | None, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return document_to_graph(doc)


def graph_digest(graph: Graph, potential: Potential | None = None,
                 phase: PhaseField | None = None,
                 ids: list[str] | None = None) -> str:
    text = _graph_text(graph, potential, phase, ids)
    return hashlib.sha256(text.encode()).hexdigest()


def id_map_digest(ids: list[str]) -> str:
    return hashlib.sha256(json.dumps(list(ids)).encode()).hexdigest()


def write_report(path, report: dict) -> None:
    """Write ``report`` as :func:`canonical_json`, which writes a
    non-finite float as a string, so the report is strict JSON."""
    text = canonical_json(report)
    if path is None:
        print(text, end="")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def verify_report_certificates(report: dict, graph: Graph,
                               potential: Potential,
                               ids: list[str]) -> float:
    """Re-score every witness in a report against the graph it names.

    Returns the largest absolute deviation between stored and
    recomputed ratios (contracted to stay below 1e-12).
    """
    index = {vid: i for i, vid in enumerate(ids)}
    worst = 0.0

    def rescore(entry: dict) -> None:
        nonlocal worst
        witness = [index[v] for v in entry["witness"]]
        st = subset_stats(graph, potential, witness)
        if "a" in entry:  # sparseness certificate at fixed a
            ratio = (2.0 * st.induced_edges - entry["a"]
                     * (st.boundary + st.q_plus_sum)) / st.size
            stored = entry["ratio"]
        elif "value" in entry:  # (a, 0) threshold certificate
            den = st.boundary + st.q_plus_sum
            stored = entry["value"]
            if stored == "inf":
                if st.induced_edges > 0 and den == 0:
                    return
                worst = max(worst, np.inf)
                return
            if st.induced_edges == 0:
                ratio = 0.0
            else:  # a closed witness has an infinite threshold
                ratio = np.inf if den == 0 else 2.0 * st.induced_edges / den
        else:  # isoperimetric certificate
            den = st.degree_sum + st.q_sum
            ratio = 0.0 if den == 0 else (st.boundary + st.q_sum) / den
            stored = entry["ratio"]
        worst = max(worst, abs(ratio - float(stored)))

    def walk(node) -> None:
        if isinstance(node, dict):
            if "witness" in node and ("ratio" in node or "value" in node):
                rescore(node)
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(report)
    return worst
