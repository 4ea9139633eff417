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
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from json.encoder import encode_basestring_ascii
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
    """Stable serialization: sorted keys, two-space indent, LF endings."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


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


def _finite_number(entry: dict, key: str, where: str) -> float:
    value = entry.get(key, 0.0)
    # a bool is an int to Python but not a number in JSON; the bound
    # rejects NaN, the infinities and integers no float can hold
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{where}: {key} must be a finite number, "
                         f"got {value!r}")
    return float(value)


def document_to_graph(doc: dict) -> tuple[Graph, Potential, PhaseField | None, list[str]]:
    """Parse a graph document; errors name the offending entry."""
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ValueError("graph document needs 'vertices' and 'edges'")
    for key in ("vertices", "edges"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list, got {doc[key]!r}")
    ids: list[str] = []
    q: list[float] = []
    host: list[int | None] = []
    index: dict[str, int] = {}
    for i, entry in enumerate(doc["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValueError(f"{where}: missing id")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise ValueError(f"{where}: id must be a string, got {vid!r}")
        if vid in index:
            raise ValueError(f"{where}: duplicate id {vid!r}")
        index[vid] = i
        ids.append(vid)
        q.append(_finite_number(entry, "q", where))
        hd = entry.get("host_degree")
        if hd is not None and (isinstance(hd, bool) or not isinstance(hd, int)):
            raise ValueError(f"{where}: host_degree must be an integer, "
                             f"got {hd!r}")
        if hd is not None and hd > _MAX_HOST_DEGREE:
            raise ValueError(f"{where}: host_degree {hd} too large "
                             f"(limit 2**53)")
        host.append(hd)
    edges: list[tuple[int, int]] = []
    thetas: dict[tuple[int, int], float] = {}
    has_theta = False
    for j, entry in enumerate(doc["edges"]):
        where = f"edges[{j}]"
        if not isinstance(entry, dict) or "u" not in entry or "v" not in entry:
            raise ValueError(f"{where}: missing endpoint")
        u, v = entry["u"], entry["v"]
        if not (isinstance(u, str) and isinstance(v, str)):
            key, bad = ("v", v) if isinstance(u, str) else ("u", u)
            raise ValueError(f"{where}: {key} must be a string, got {bad!r}")
        try:
            u, v = index[u], index[v]
        except KeyError as exc:
            raise ValueError(f"{where}: unknown id {exc.args[0]!r}") from None
        if u == v:
            raise ValueError(f"{where}: self-loop at {entry['u']!r}")
        key = (u, v) if u < v else (v, u)
        if key in thetas:
            raise ValueError(f"{where}: duplicate edge")
        edges.append(key)
        if "theta" in entry and entry["theta"] is not None:
            has_theta = True
            t = _finite_number(entry, "theta", where)
            thetas[key] = t if u < v else -t
        else:
            thetas[key] = 0.0
    internal = [0] * len(ids)
    for (u, v) in edges:
        internal[u] += 1
        internal[v] += 1
    host_degree = [internal[i] if host[i] is None else host[i]
                   for i in range(len(ids))]
    for i, hd in enumerate(host_degree):
        if hd < internal[i]:
            raise ValueError(
                f"vertices[{i}]: host degree below internal degree")
    graph = Graph(len(ids), edges, host_degree=host_degree)
    potential = Potential(q)
    phase = None
    if has_theta:
        phase = PhaseField(graph, [thetas[e] for e in graph.edges])
    return graph, potential, phase, ids


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


def _strict(node):
    """``node`` with each non-finite float as the string "inf", "-inf"
    or "nan"; ``node`` itself is not changed."""
    if isinstance(node, dict):
        return {key: _strict(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_strict(value) for value in node]
    if isinstance(node, float) and not math.isfinite(node):
        return str(float(node))
    return node


def write_report(path, report: dict) -> None:
    """Write ``report`` as :func:`canonical_json` of strict JSON: a
    non-finite float is written as a string (:func:`_strict`)."""
    text = canonical_json(_strict(report))
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
