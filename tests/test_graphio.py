import hashlib
import json

import numpy as np
import pytest

from sgs import (Graph, PhaseField, Potential, cycle_graph, path_graph,
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
    with pytest.raises(ValueError, match="ids must be unique"):
        graph_digest(host, ids=["a", "a", "b", "c"])


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
