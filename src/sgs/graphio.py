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
and checks the columns as arrays, naming the first failing entry as an
entry-by-entry reading would; :func:`canonical_json` is one direct
writer, which also writes a report's non-finite floats as strings.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .graphs import (Graph, PhaseField, Potential, _edge_faults,
                     subset_stats)

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


def _vertex_ids(ids: list[str] | None, n: int) -> list[str]:
    if ids is None:
        return [str(i) for i in range(n)]
    if len(ids) != n or len(set(ids)) != n:
        raise ValueError("ids must be unique, one per vertex")
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


_ABSENT = object()  # a key the entry does not have, unlike an explicit null


def _objects(entries: list) -> list:
    """``entries``, each one that is not a JSON object read as ``{}``."""
    if set(map(type, entries)) <= {dict}:
        return entries
    return [e if isinstance(e, dict) else {} for e in entries]


def _column(entries: list, key: str, default: Any) -> list:
    """The value of ``key`` in each of the objects ``entries``."""
    return list(map(dict.get, entries, repeat(key), repeat(default)))


def _numbers(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as float64 (0 where faulty) and the mask of those that
    are no finite JSON number: a bool, a non-number, NaN, an infinity,
    or an integer no float can hold."""
    if set(map(type, values)) <= {float, int}:
        try:
            column = np.array(values, dtype=np.float64)
        except OverflowError:  # an integer past the float range
            pass
        else:
            return column, ~np.isfinite(column)
    ok = [not isinstance(x, bool) and isinstance(x, (int, float))
          and abs(x) <= sys.float_info.max for x in values]
    return (np.array([float(x) if k else 0.0 for x, k in zip(values, ok)]),
            ~np.array(ok, dtype=bool))


def _host_degrees(values: list):
    """The host degrees as int64 (0 where absent or faulty) and three
    masks: given, not an integer (a bool or a non-number), and above
    ``_MAX_HOST_DEGREE``."""
    n = len(values)
    types = set(map(type, values))
    if types <= {type(None)}:
        none = np.zeros(n, dtype=bool)
        return np.zeros(n, dtype=np.int64), none, none, none
    given = np.ones(n, dtype=bool)
    if type(None) in types:
        given = np.array([h is not None for h in values], dtype=bool)
    not_int = np.zeros(n, dtype=bool)
    if not types <= {int, type(None)}:
        not_int = given & np.array([isinstance(h, bool)
                                    or not isinstance(h, int)
                                    for h in values], dtype=bool)
    if not given.all() or not_int.any():
        values = [h if k else 0 for h, k in zip(values, given & ~not_int)]
    column = np.array(values)
    if column.dtype != np.int64:  # an integer past int64: compare exactly
        column = np.array(values, dtype=object)
    large = (column > _MAX_HOST_DEGREE).astype(bool)
    return (np.where(large, 0, column).astype(np.int64), given, not_int,
            large)


def _raise_first(key: str, checks) -> None:
    """Raise for the first entry of ``key`` that fails one of
    ``checks``, ``(mask, message)`` pairs in the order they apply to one
    entry; ``message(i)`` says what is wrong with entry ``i``."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(text for mask, text in checks if mask[i])
        raise ValueError(f"{key}[{i}]: {message(i)}")


def document_to_graph(doc: dict) -> tuple[Graph, Potential, PhaseField | None, list[str]]:
    """Parse a graph document; errors name the offending entry.

    The entries are read once into columns (ids, q, host degrees,
    endpoint indices, theta), which are checked as arrays.  The checks
    are those of a reading entry by entry: every vertex entry before any
    edge entry, and within an entry in this order.  A vertex entry needs
    an ``id`` that is a string not used before, a ``q`` (default 0) that
    is a finite number, and a ``host_degree``, if given, that is an
    integer up to 2**53.  An edge entry needs endpoints ``u`` and ``v``
    that are the ids of two different vertices, joined by no edge
    before, and a ``theta``, if given and not null, that is a finite
    number.  Last, no host degree may be below the internal degree.
    The first failing ``vertices[i]`` or ``edges[j]`` is found from the
    masks, and its message names it and its first failing check.
    """
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ValueError("graph document needs 'vertices' and 'edges'")
    for key in ("vertices", "edges"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list, got {doc[key]!r}")
    vertices, edges = _objects(doc["vertices"]), _objects(doc["edges"])
    n, m = len(vertices), len(edges)

    ids = _column(vertices, "id", _ABSENT)
    raw_q = _column(vertices, "q", 0.0)
    raw_host = _column(vertices, "host_degree", None)
    index = dict(zip(ids, range(n))) if set(map(type, ids)) <= {str} else {}
    missing, not_str, again = (np.zeros(n, dtype=bool) for _ in range(3))
    if len(index) < n:  # a missing, non-string or repeated id
        missing[:] = [x is _ABSENT for x in ids]
        not_str[:] = [not isinstance(x, str) for x in ids]
        index = {}
        for i, x in enumerate(ids):
            if isinstance(x, str):
                again[i] = x in index
                index.setdefault(x, i)
    q, bad_q = _numbers(raw_q)
    host, given, not_int, large = _host_degrees(raw_host)
    _raise_first("vertices", [
        (missing, lambda i: "missing id"),
        (not_str, lambda i: f"id must be a string, got {ids[i]!r}"),
        (again, lambda i: f"duplicate id {ids[i]!r}"),
        (bad_q, lambda i: f"q must be a finite number, got {raw_q[i]!r}"),
        (not_int, lambda i: f"host_degree must be an integer, "
                            f"got {raw_host[i]!r}"),
        (large, lambda i: f"host_degree {raw_host[i]} too large "
                          f"(limit 2**53)"),
    ])

    us = _column(edges, "u", _ABSENT)
    vs = _column(edges, "v", _ABSENT)
    raw_theta = _column(edges, "theta", None)
    missing = not_str = np.zeros(m, dtype=bool)
    try:  # every endpoint a known id
        rows = np.fromiter(map(index.__getitem__, us + vs), np.int64, 2 * m)
    except (KeyError, TypeError):
        missing = np.array([u is _ABSENT or v is _ABSENT
                            for u, v in zip(us, vs)], dtype=bool)
        not_str = np.array([not (isinstance(u, str) and isinstance(v, str))
                            for u, v in zip(us, vs)], dtype=bool)
        rows = np.array([index.get(x, -1) if isinstance(x, str) else -1
                         for x in us + vs], dtype=np.int64)
    rows = rows.reshape(2, m).T
    unknown, loop, again, _, order = _edge_faults(rows, n)
    has_theta = raw_theta.count(None) < m
    theta, bad_theta = (_numbers([0.0 if t is None else t for t in raw_theta])
                        if has_theta else (None, np.zeros(m, dtype=bool)))

    def not_string(j: int) -> str:
        key, value = ("v", vs[j]) if isinstance(us[j], str) else ("u", us[j])
        return f"{key} must be a string, got {value!r}"

    _raise_first("edges", [
        (missing, lambda j: "missing endpoint"),
        (not_str, not_string),
        (unknown, lambda j: "unknown id "
         f"{us[j] if us[j] not in index else vs[j]!r}"),
        (loop, lambda j: f"self-loop at {us[j]!r}"),
        (again, lambda j: "duplicate edge"),
        (bad_theta, lambda j: f"theta must be a finite number, "
                              f"got {raw_theta[j]!r}"),
    ])

    internal = np.bincount(rows.ravel(), minlength=n)
    host = np.where(given, host, internal)
    below = np.flatnonzero(host < internal)
    if below.size:
        raise ValueError(f"vertices[{below[0]}]: host degree below "
                         f"internal degree")
    graph = Graph(n, rows, host_degree=host)
    phase = None
    if has_theta:
        # stored for the written orientation; an absent theta is +0.0
        flip = rows[:, 0] > rows[:, 1]
        if None in raw_theta:
            flip &= np.array([t is not None for t in raw_theta], dtype=bool)
        theta[flip] = -theta[flip]
        phase = PhaseField(graph, theta[order])
    return graph, Potential(q), phase, ids


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
