import hashlib
import json
import math
import re

import numpy as np
import pytest

from helpers import document_to_graph_by_entry
from sgs import (Graph, PhaseField, Potential, RadialFamilySpec, cycle_graph,
                 graphio, graphs, grid_graph, make_radial_family, path_graph,
                 regular_tree_ball)
from sgs.graphio import (canonical_json, document_to_graph, graph_digest,
                         graph_to_document, load_graph, save_graph,
                         verify_report_certificates)


def test_document_roundtrip(tmp_path):
    g = regular_tree_ball(3, 2)
    q = Potential(np.linspace(-1, 2, g.vertex_count))
    ph = PhaseField(g, np.linspace(0, 1, g.edge_count))
    path = tmp_path / "g.json"
    save_graph(path, g, q, ph)
    g2, q2, ph2, ids = load_graph(path)
    assert g2.vertex_count == g.vertex_count
    assert g2.edges == g.edges
    assert np.allclose(q2.values, q.values)
    assert np.allclose(ph2.values, ph.values)
    assert g2.host_degree.tolist() == g.host_degree.tolist()


def test_save_load_byte_stable(tmp_path):
    # hand-written file with unordered keys, reversed edge orientation
    doc = {"edges": [{"theta": 0.25, "v": "a", "u": "b"},
                     {"u": "a", "v": "c"}],
           "vertices": [{"id": "a"}, {"q": 1.5, "id": "b"},
                        {"id": "c", "host_degree": 4}]}
    first = tmp_path / "first.json"
    first.write_text(json.dumps(doc))
    g, q, ph, ids = load_graph(first)
    second = tmp_path / "second.json"
    save_graph(second, g, q, ph, ids)
    g2, q2, ph2, ids2 = load_graph(second)
    third = tmp_path / "third.json"
    save_graph(third, g2, q2, ph2, ids2)
    assert second.read_bytes() == third.read_bytes()
    # orientation flip: theta stored for (a, b) is the negated angle
    assert ph.theta(0, 1) == pytest.approx(-0.25)


def test_parse_errors_are_positioned():
    # a non-array entry used to end in "TypeError: ... not iterable"
    with pytest.raises(ValueError, match=r"^vertices must be a list, got 5$"):
        document_to_graph({"vertices": 5, "edges": []})
    with pytest.raises(ValueError, match=r"^edges must be a list, got None$"):
        document_to_graph({"vertices": [{"id": "x"}], "edges": None})
    # ids are JSON strings only; str() used to load these as "None",
    # "1.5" and "['a']"
    for bad in (None, 1.5, ["a"], 7, True, {"a": 1}):
        with pytest.raises(ValueError,
                           match=r"^vertices\[1\]: id must be a string, got "):
            document_to_graph({"vertices": [{"id": "x"}, {"id": bad}],
                               "edges": []})
        for key in ("u", "v"):
            edge = {"u": "x", "v": "y", key: bad}
            with pytest.raises(ValueError,
                               match=rf"^edges\[1\]: {key} must be a string"):
                document_to_graph({"vertices": [{"id": "x"}, {"id": "y"},
                                                {"id": "None"}, {"id": "1.5"}],
                                   "edges": [{"u": "x", "v": "None"}, edge]})
    with pytest.raises(ValueError, match=r"vertices\[1\]: duplicate id"):
        document_to_graph({"vertices": [{"id": "x"}, {"id": "x"}],
                           "edges": []})
    with pytest.raises(ValueError, match=r"edges\[0\]: unknown id"):
        document_to_graph({"vertices": [{"id": "x"}],
                           "edges": [{"u": "x", "v": "y"}]})
    with pytest.raises(ValueError, match=r"edges\[1\]: duplicate edge"):
        document_to_graph({"vertices": [{"id": "x"}, {"id": "y"}],
                           "edges": [{"u": "x", "v": "y"},
                                     {"u": "y", "v": "x"}]})
    with pytest.raises(ValueError, match=r"vertices\[0\]: host degree"):
        document_to_graph({"vertices": [{"id": "x", "host_degree": 0},
                                        {"id": "y"}],
                           "edges": [{"u": "x", "v": "y"}]})
    # numbers that would load as something else, or not at all
    for bad in (2.7, True, "x", 2.0):
        with pytest.raises(ValueError, match=r"vertices\[1\]: host_degree"):
            document_to_graph({"vertices": [{"id": "x"},
                                            {"id": "y", "host_degree": bad}],
                               "edges": [{"u": "x", "v": "y"}]})
    # above 2**53, where host degrees stop being exact floats; 10**30
    # used to crash in Graph with an OverflowError
    for big in (2 ** 53 + 1, 10 ** 30):
        with pytest.raises(ValueError,
                           match=r"vertices\[1\]: host_degree \d+ too large"):
            document_to_graph({"vertices": [{"id": "x"},
                                            {"id": "y", "host_degree": big}],
                               "edges": [{"u": "x", "v": "y"}]})
    graph = document_to_graph({"vertices": [{"id": "x", "host_degree": 2 ** 53}],
                               "edges": []})[0]
    assert graph.host_degree.tolist() == [2 ** 53]
    for bad in ("abc", float("nan"), float("inf"), None, True, 10 ** 400):
        with pytest.raises(ValueError, match=r"vertices\[1\]: q"):
            document_to_graph({"vertices": [{"id": "x"}, {"id": "y", "q": bad}],
                               "edges": []})
    for bad in (float("nan"), -float("inf"), "0.5"):
        with pytest.raises(ValueError, match=r"edges\[1\]: theta"):
            document_to_graph({"vertices": [{"id": "x"}, {"id": "y"},
                                            {"id": "z"}],
                               "edges": [{"u": "x", "v": "y", "theta": 0.5},
                                         {"u": "y", "v": "z", "theta": bad}]})


def _outcome(read, doc):
    """What ``read(doc)`` gives: the error's type and message, or the
    graph's arrays, its ids and the bits of its potential and phases."""
    try:
        graph, q, phase, ids = read(doc)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return (graph.vertex_count, graph.edge_ends.tolist(),
            graph.host_degree.tolist(), q.values.tobytes(),
            None if phase is None else phase.values.tobytes(), ids)


# faults planted into one entry (as the document had it before any
# fault; the second argument is that document), by the message they make
_VERTEX_FAULTS = {
    "missing id": [lambda e, d: 5, lambda e, d: {"q": 1.0},
                   lambda e, d: ["id"]],
    "id must be a string": [lambda e, d, b=b: {**e, "id": b} for b in
                            (None, 1.5, ["a"], 7, True, {"a": 1})],
    "duplicate id": [lambda e, d: {**e, "id": d["vertices"][0]["id"]},
                     lambda e, d: {**e, "id": d["vertices"][-1]["id"]}],
    "q must be a finite number": [lambda e, d, b=b: {**e, "q": b} for b in
                                  ("abc", math.nan, math.inf, None, True,
                                   10**400)],
    "host_degree must be an integer": [
        lambda e, d, b=b: {**e, "host_degree": b}
        for b in (2.7, True, "x", 2.0)],
    "host_degree N too large": [lambda e, d, b=b: {**e, "host_degree": b}
                                for b in (2**53 + 1, 2**64, 10**30)],
    "host degree below internal degree": [
        lambda e, d, b=b: {**e, "host_degree": b}
        for b in (0, -2**63, -2**64)],
}
_EDGE_FAULTS = {
    "missing endpoint": [lambda e, d: 5, lambda e, d: {"u": e["u"]},
                         lambda e, d: {"v": e["v"], "theta": 0.5}],
    "u must be a string": [lambda e, d, b=b: {**e, "u": b} for b in
                           (None, 1.5, ["a"], 7, True)],
    "v must be a string": [lambda e, d, b=b: {**e, "v": b} for b in
                           (None, 1.5, ["a"], 7, True)],
    "unknown id": [lambda e, d: {**e, "u": "nowhere"},
                   lambda e, d: {**e, "v": "nowhere"}],
    "self-loop at": [lambda e, d: {**e, "v": e["u"]}],
    "duplicate edge": [lambda e, d: dict(d["edges"][0]),
                       lambda e, d: {"u": d["edges"][0]["v"],
                                     "v": d["edges"][0]["u"]}],
    "theta must be a finite number": [lambda e, d, b=b: {**e, "theta": b}
                                      for b in (math.nan, -math.inf, "0.5",
                                                True, 10**400)],
}


def _seeded_document(rng):
    """A path-plus-chords graph document on 3-9 vertices, with q, some
    host degrees and some phases, edges written in either orientation."""
    n = int(rng.integers(3, 10))
    vertices = [{"id": f"v{rng.integers(10**6)}-{i}",
                 "q": float(rng.uniform(-1, 1))} for i in range(n)]
    for i in rng.choice(n, n // 3, replace=False).tolist():
        vertices[i]["host_degree"] = n
    pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    edges = []
    for u, v in pairs:
        u, v = (v, u) if rng.random() < 0.5 else (u, v)
        edge = {"u": vertices[u]["id"], "v": vertices[v]["id"]}
        if rng.random() < 0.5:
            edge["theta"] = float(rng.uniform(-3, 3))
        edges.append(edge)
    return {"vertices": vertices, "edges": edges}


def test_loader_matches_the_entry_by_entry_oracle():
    """Two different faults planted at two positions of seeded documents:
    the column loader raises the oracle's message, naming the first
    failing entry, for every message the loader knows."""
    rng = np.random.default_rng(24)
    faults = [("vertices", kind, f) for kind, fs in _VERTEX_FAULTS.items()
              for f in fs]
    faults += [("edges", kind, f) for kind, fs in _EDGE_FAULTS.items()
               for f in fs]
    seen = set()
    for _ in range(600):
        doc = _seeded_document(rng)
        base = json.loads(json.dumps(doc))  # the entries before any fault
        first, second = rng.choice(len(faults), 2, replace=False).tolist()
        for key, _, fault in (faults[first], faults[second]):
            at = int(rng.integers(len(doc[key])))
            doc[key][at] = fault(base[key][at], base)
        want = _outcome(document_to_graph_by_entry, doc)
        assert _outcome(document_to_graph, doc) == want
        if want[0] == "ValueError":
            seen.add(re.sub(r"\d+", "N", want[1].split(": ", 1)[1]))
    for kind in [*_VERTEX_FAULTS, *_EDGE_FAULTS]:
        assert any(m.startswith(kind) for m in seen), kind
    # a fault-free document of every shape loads as the oracle loads it
    for _ in range(50):
        doc = _seeded_document(rng)
        assert (_outcome(document_to_graph, doc)
                == _outcome(document_to_graph_by_entry, doc))
    for doc in (5, {}, {"vertices": []}, {"vertices": 5, "edges": []},
                {"vertices": [], "edges": None}, {"vertices": [], "edges": []},
                {"vertices": [{"id": "x", "host_degree": None}], "edges": []}):
        assert (_outcome(document_to_graph, doc)
                == _outcome(document_to_graph_by_entry, doc))


def test_right_input_takes_the_array_path(tmp_path, monkeypatch):
    """Fault-free documents and edge input are checked as whole arrays:
    neither the entry-by-entry reading nor the per-pair edge reader runs
    on them, so loading stays as fast as the arrays are."""
    rng = np.random.default_rng(25)
    docs = [_seeded_document(rng) for _ in range(50)]
    ball, grid = regular_tree_ball(3, 10), grid_graph(60)
    files = [(ball, None), (grid, Potential(rng.uniform(0, 3, 3600))),
             (make_radial_family(RadialFamilySpec(beta=(4,), gamma=(0, 2),
                                                  depth=6)), None)]
    pairs = [(v, u) for u, v in grid.edges[::-1]]

    def reached(*args):
        raise AssertionError("the array path fell back")

    monkeypatch.setattr(graphio, "_first_fault", reached)
    monkeypatch.setattr(graphs, "_keys_by_pair", reached)
    for doc in docs:
        document_to_graph(doc)
    path = tmp_path / "g.json"
    for graph, q in files:
        save_graph(path, graph, q)
        loaded, potential, _, _ = load_graph(path)
        assert np.array_equal(loaded.edge_ends, graph.edge_ends)
        assert np.array_equal(loaded.host_degree, graph.host_degree)
        assert q is None or np.array_equal(potential.values, q.values)
    for edges in (pairs, np.array(pairs), np.array(pairs, np.uint32),
                  iter(pairs)):
        assert np.array_equal(Graph(3600, edges).edge_ends, grid.edge_ends)


def test_digest_stability():
    g = path_graph(3)
    assert graph_digest(g) == graph_digest(path_graph(3))
    assert graph_digest(g) != graph_digest(path_graph(4))


def test_graph_text_is_canonical_json(tmp_path):
    # save_graph and graph_digest write the text directly from the graph;
    # it must be canonical_json(graph_to_document(...)) byte for byte
    host = Graph(4, [(0, 1), (1, 2), (2, 3)], host_degree=[2, 3, 5, 1])
    cases = [
        (host, None, None, None),
        (host, Potential([-0.0, 1 / 3, 2.5, -7e-300]), None, None),
        (host, Potential([0.0, 1e300, -1.5, 3.0]),
         PhaseField(host, [0.5, -1 / 3, -0.0]), ["a", "b", "c", "d"]),
        (host, None, None, ["\u00e9t\u00e9", 'say "hi"', "back\\slash\n",
                            "\U0001d11e\u2028"]),
        (Graph(2, []), Potential([1 / 3, -0.0]), None, ["x", "\x00"]),
        (Graph(1, [], host_degree=[2**53]), None, PhaseField(Graph(1, []), []),
         None),
        (regular_tree_ball(3, 2), None, None, None),
    ]
    path = tmp_path / "g.json"
    for graph, potential, phase, ids in cases:
        text = canonical_json(graph_to_document(graph, potential, phase, ids))
        assert (graph_digest(graph, potential, phase, ids)
                == hashlib.sha256(text.encode()).hexdigest())
        save_graph(path, graph, potential, phase, ids)
        assert path.read_bytes() == text.encode()
    # ids of other types used to fail inside the writer, or write a file
    # the loader rejects
    for ids in (["a", "a", "b", "c"], [0, 1, 2, 3], ["a", "b", ["c"], "d"]):
        for write in (graph_digest, graph_to_document,
                      lambda graph, ids: save_graph(path, graph, ids=ids)):
            with pytest.raises(ValueError, match=r"^ids must be unique "
                                                 r"strings, one per vertex$"):
                write(host, ids=ids)


def test_canonical_json_floats():
    text = canonical_json({"x": 1 / 3})
    assert "0.3333333333333333" in text


def test_verify_report_certificates():
    g = path_graph(3)
    q = Potential.zero(g)
    ids = ["0", "1", "2"]
    report = {"results": {"kmin": [{"flow": {
        "a": 0.0, "k": 4 / 3, "ratio": 4 / 3,
        "witness": ["0", "1", "2"]}}]}}
    assert verify_report_certificates(report, g, q, ids) <= 1e-12
    report["results"]["kmin"][0]["flow"]["ratio"] = 1.25
    assert verify_report_certificates(report, g, q, ids) > 1e-3
    # a finite threshold whose witness is closed (no boundary, no q_+)
    c4 = cycle_graph(4)
    closed = {"results": {"amin": {"value": 2.0,
                                   "witness": ["0", "1", "2", "3"]}}}
    assert verify_report_certificates(
        closed, c4, Potential.zero(c4), ["0", "1", "2", "3"]) == np.inf
    closed["results"]["amin"]["value"] = "inf"
    assert verify_report_certificates(
        closed, c4, Potential.zero(c4), ["0", "1", "2", "3"]) == 0.0
