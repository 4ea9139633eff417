"""Correctness check of ``sgs analyze`` reports against recorded values.

An analysis counts as failed when any of these holds:

* its exit code is not 0;
* ``sgs.graphio.verify_report_certificates`` on its report exceeds
  ``1e-12``;
* a ``method_agreement`` exceeds the report's ``tol``;
* a certificate value differs from ``reference.json``:

  - flow certificates (``k`` per ``a``, ``amin``, the Cheeger
    ``ratio``) are re-scored here in exact rational arithmetic from the
    witness and the graph file, without ``sgs``; the witness's exact
    value must equal the recorded exact optimum (a brute-force witness
    may be off by ``1e-12`` relative, since enumeration ranks subsets
    in floating point), and the reported float must agree with it to
    ``1e-12`` relative, because floating-point sums over a witness
    depend on the vertex order of the file;
  - flow values in ``verify`` checks, which carry no witness, must
    agree with the recorded value to ``1e-12`` relative;
  - spectral values (the k-tilde grid, the bracket, ``verify``'s
    optimal offsets) must agree within ``1e-9 * (1 + ||M||)``, with
    ``||M||`` the row-sum bound of the instance's operator.

Only values are compared, never report bytes or witnesses: witnesses
may change on ties, and reports may gain fields.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
CERT_TOL = 1e-12
FLOW_REL = 1e-12
SPECTRAL_REL = 1e-9

# verify check-id prefix -> {field: "flow" | "spectral"}
VERIFY_FIELDS = {
    "sandwich_optimal": {"k_lower": "spectral", "k_upper": "spectral"},
    "roundtrip_sparse_to_form": {"k": "flow"},
    "roundtrip_form_to_sparse": {"kmin": "flow"},
    "isoperimetric_dictionary": {"alpha": "flow", "amin": "flow"},
    "cheeger_form_bounds": {"alpha": "flow"},
    "spectral_bottom_bound": {"k": "flow"},
}


def exact_sum(values) -> Fraction:
    """Exact sum of floats (dyadic rationals) with integer arithmetic."""
    parts = [float(v).as_integer_ratio() for v in values]
    den = max((d for _, d in parts), default=1)
    return Fraction(sum(n * (den // d) for n, d in parts), den)


class GraphFile:
    """A graph file read with ``json`` alone, for exact re-scoring."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.ids = [str(v["id"]) for v in doc["vertices"]]
        index = {vid: i for i, vid in enumerate(self.ids)}
        n = len(self.ids)
        self.q = [float(v.get("q", 0.0)) for v in doc["vertices"]]
        self.nbrs: list[set[int]] = [set() for _ in range(n)]
        for e in doc["edges"]:
            u, v = index[str(e["u"])], index[str(e["v"])]
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)
        self.host = [len(self.nbrs[i]) if v.get("host_degree") is None
                     else int(v["host_degree"])
                     for i, v in enumerate(doc["vertices"])]
        self.index = index

    def norm_bound(self) -> float:
        """Row-sum bound of ``Delta + q`` (and of its magnetic variants)."""
        return max(abs(self.host[x] + self.q[x]) + len(self.nbrs[x])
                   for x in range(len(self.ids)))

    def stats(self, witness_ids) -> dict:
        members = {self.index[v] for v in witness_ids}
        induced = sum(1 for x in members for y in self.nbrs[x]
                      if y > x and y in members)
        degsum = sum(self.host[x] for x in members)
        return {"size": len(members), "induced": induced,
                "boundary": degsum - 2 * induced, "degsum": degsum,
                "q": exact_sum(self.q[x] for x in members),
                "qplus": exact_sum(max(self.q[x], 0.0) for x in members)}


def kmin_value(st: dict, a: float) -> Fraction:
    return (2 * st["induced"]
            - Fraction(a) * (st["boundary"] + st["qplus"])) / st["size"]


def amin_value(st: dict):
    den = st["boundary"] + st["qplus"]
    if den == 0:
        return math.inf if st["induced"] > 0 else Fraction(0)
    return Fraction(2 * st["induced"]) / den


def cheeger_value(st: dict) -> Fraction:
    den = st["degsum"] + st["q"]
    return Fraction(0) if den == 0 else (st["boundary"] + st["q"]) / den


def to_text(x) -> str:
    return "inf" if x == math.inf else str(Fraction(x))


def from_text(text: str):
    return math.inf if text == "inf" else Fraction(text)


def _close(value, ref: float, tol: float) -> bool:
    if value == "inf" or ref == math.inf:
        return value in ("inf", math.inf) and ref == math.inf
    return abs(float(value) - ref) <= tol


# -- values a report certifies ----------------------------------------------

def report_values(subcommand: str, report: dict, gf: GraphFile) -> dict:
    """The comparable values of one report, in the reference's layout.

    Flow certificates with a witness give exact rationals (as text);
    spectral values and witness-free flow values stay floats.
    """
    res = report["results"]
    if subcommand == "sparsity":
        kmin = {}
        for entry in res["kmin"]:
            cert = entry.get("flow") or entry["bruteforce"]
            kmin[repr(float(cert["a"]))] = to_text(
                kmin_value(gf.stats(cert["witness"]), cert["a"]))
        return {"kmin": kmin,
                "amin": to_text(amin_value(
                    gf.stats(res["amin"]["witness"])))}
    if subcommand == "cheeger":
        cert = res.get("flow") or res["bruteforce"]
        return {"ratio": to_text(cheeger_value(gf.stats(cert["witness"]))),
                "region_size": res["region_size"]}
    scale = 1.0 + gf.norm_bound()
    if subcommand == "spectrum":
        return {"scale": scale,
                "grid": [[g["a_tilde"], g["k_lower"], g["k_upper"]]
                         for g in res["grid"]],
                "bracket": res["bracket"]}
    checks = {}
    for c in res["checks"]:
        fields = VERIFY_FIELDS.get(c["id"].split("@")[0], {})
        checks[c["id"]] = {"status": c["status"],
                           **{f: c[f] for f in fields if f in c}}
    return {"scale": scale, "checks": checks}


# -- comparison ---------------------------------------------------------------

class Checker:
    """Checks reports and counts attempted and failed analyses."""

    def __init__(self, reference: dict | None = None):
        if reference is None:
            with open(REFERENCE, encoding="utf-8") as fh:
                reference = json.load(fh)
        self.reference = reference
        self._files: dict[str, GraphFile] = {}
        self._loaded: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0

    def _graph_file(self, path: str) -> GraphFile:
        if path not in self._files:
            self._files[path] = GraphFile(path)
        return self._files[path]

    def check(self, workload: str, analysis: dict, rc: int,
              report: dict | None) -> list[str]:
        """Problems with one analysis (empty when it is correct)."""
        self.attempted += 1
        try:
            problems = self._problems(workload, analysis, rc, report)
        except (KeyError, TypeError, ValueError, IndexError,
                ZeroDivisionError) as exc:
            problems = [f"malformed report: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
        return problems

    def _problems(self, workload, analysis, rc, report) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if report is None:
            return ["no report"]
        from sgs.graphio import load_graph, verify_report_certificates
        sub = analysis["argv"][1]
        path = analysis["graph"]
        problems = []
        if path not in self._loaded:
            self._loaded[path] = load_graph(path)
        graph, potential, _phase, ids = self._loaded[path]
        worst = verify_report_certificates(report, graph, potential, ids)
        if not worst <= CERT_TOL:
            problems.append(f"verify_report_certificates gave {worst}")
        tol = report["tolerances"]["tol"]
        for gap in _agreements(report["results"]):
            if not gap <= tol:
                problems.append(f"method_agreement {gap} exceeds tol {tol}")
        gf = self._graph_file(path)
        ref = self.reference[workload][analysis["instance"]][sub]
        compare = {"sparsity": self._sparsity, "cheeger": self._cheeger,
                   "spectrum": self._spectrum, "verify": self._verify}[sub]
        problems += compare(report["results"], ref, gf)
        return problems

    def _sparsity(self, res, ref, gf) -> list[str]:
        problems = []
        seen = set()
        for entry in res["kmin"]:
            for method in ("flow", "bruteforce"):
                cert = entry.get(method)
                if cert is None:
                    continue
                key = repr(float(cert["a"]))
                seen.add(key)
                if key not in ref["kmin"]:
                    problems.append(f"no reference for a={key}")
                    continue
                want = from_text(ref["kmin"][key])
                got = kmin_value(gf.stats(cert["witness"]), cert["a"])
                problems += _exact(f"{method} k_min(a={key})", got, want,
                                   method)
                if not _close(cert["k"], float(max(want, 0)),
                              FLOW_REL * (1 + abs(float(want)))):
                    problems.append(f"{method} k(a={key}) = {cert['k']}, "
                                    f"reference {float(max(want, 0))}")
        if seen != set(ref["kmin"]):
            problems.append(f"a-grid {sorted(seen)} differs from reference "
                            f"{sorted(ref['kmin'])}")
        want = from_text(ref["amin"])
        got = amin_value(gf.stats(res["amin"]["witness"]))
        problems += _exact("amin", got, want, "flow")
        tol = 0.0 if want == math.inf else FLOW_REL * (1 + float(want))
        if not _close(res["amin"]["value"], float(want), tol):
            problems.append(f"amin = {res['amin']['value']}, "
                            f"reference {float(want)}")
        return problems

    def _cheeger(self, res, ref, gf) -> list[str]:
        problems = []
        if res["region_size"] != ref["region_size"]:
            problems.append(f"region_size {res['region_size']}, "
                            f"reference {ref['region_size']}")
        want = from_text(ref["ratio"])
        for method in ("flow", "bruteforce"):
            cert = res.get(method)
            if cert is None:
                continue
            got = cheeger_value(gf.stats(cert["witness"]))
            problems += _exact(f"{method} cheeger ratio", got, want, method)
            if not _close(cert["ratio"], float(want),
                          FLOW_REL * (1 + float(want))):
                problems.append(f"{method} cheeger ratio = {cert['ratio']}, "
                                f"reference {float(want)}")
        return problems

    def _spectrum(self, res, ref, gf) -> list[str]:
        tol = SPECTRAL_REL * ref["scale"]
        problems = []
        got = [[g["a_tilde"], g["k_lower"], g["k_upper"]] for g in res["grid"]]
        if [g[0] for g in got] != [g[0] for g in ref["grid"]]:
            return [f"a_tilde grid {[g[0] for g in got]} differs from "
                    f"reference"]
        for g, w in zip(got, ref["grid"]):
            for name, x, y in (("k_lower", g[1], w[1]), ("k_upper", g[2], w[2])):
                if not _close(x, y, tol):
                    problems.append(f"{name}@a_tilde={g[0]:g} = {x}, "
                                    f"reference {y}")
        if (res["bracket"] is None) != (ref["bracket"] is None):
            problems.append("bracket presence differs from reference")
        elif ref["bracket"] is not None:
            for x, y in zip(res["bracket"], ref["bracket"]):
                if not _close(x, y, tol):
                    problems.append(f"bracket {res['bracket']}, reference "
                                    f"{ref['bracket']}")
                    break
        return problems

    def _verify(self, res, ref, gf) -> list[str]:
        problems = []
        got = {c["id"]: c for c in res["checks"]}
        if set(got) != set(ref["checks"]):
            problems.append(f"check ids differ from reference: "
                            f"{sorted(set(got) ^ set(ref['checks']))}")
        for cid, want in ref["checks"].items():
            have = got.get(cid)
            if have is None:
                continue
            if have["status"] != want["status"]:
                problems.append(f"{cid}: status {have['status']}, "
                                f"reference {want['status']}")
            kinds = VERIFY_FIELDS.get(cid.split("@")[0], {})
            for name, kind in kinds.items():
                if name not in want:
                    continue
                y = want[name]
                tol = (SPECTRAL_REL * ref["scale"] if kind == "spectral"
                       else FLOW_REL * (1 + abs(y)))
                if not _close(have.get(name, math.nan), y, tol):
                    problems.append(f"{cid}: {name} = {have.get(name)}, "
                                    f"reference {y}")
        return problems


def _exact(what: str, got, want, method: str) -> list[str]:
    """Flow witnesses must hit the optimum exactly; enumeration may be
    off by floating-point ranking."""
    if got == want:
        return []
    if method != "flow" and math.inf not in (got, want) \
            and abs(got - want) <= FLOW_REL * (1 + abs(want)):
        return []
    return [f"{what}: witness scores {got}, reference {want}"]


def _agreements(node):
    if isinstance(node, dict):
        if "method_agreement" in node:
            yield node["method_agreement"]
        for v in node.values():
            yield from _agreements(v)
    elif isinstance(node, list):
        for v in node:
            yield from _agreements(v)
