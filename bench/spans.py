"""Tracing from outside the program: wrap the public functions of every
``sgs`` module, record spans in memory, and reduce them to per-layer
metrics.

A span is (name, layer, start, end, parent, thread id, analysis id)
plus a few counters.  Wrappers are installed at every name a caller
binds the function to -- the defining module, every other ``sgs``
module that imported it, and the ``sgs`` package -- and on the class
for methods.  The ``eigen`` layer is the eigensolver kernels of
``EIGEN_KERNELS``, patched on their numpy/scipy modules and wherever an
``sgs`` module bound them by name.

Spans are recorded only while an analysis id is set, so the
benchmark's own correctness checks, which call into ``sgs`` too, stay
out of the trace.  Worker threads of the ``SGS_THREADS`` pool take the
pool span of the submitting thread as their root parent.

Time a wrapper spends on its own bookkeeping (matrix digests,
capacity scans) is stored on the span as ``probe`` and left out of
every busy and self time.
"""
from __future__ import annotations

import functools
import hashlib
import threading
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("cli", "graphio", "generators", "graphs", "sparseness",
          "maxflow", "operators", "spectra")
INT32_MAX = 2**31 - 1
RATIO_ROUTES = ("sparseness.kmin_flow", "sparseness.amin_zero_k",
                 "sparseness.cheeger")

# The eigensolver kernels that make up the ``eigen`` layer: the dense
# LAPACK routines ``sgs`` calls today and the iterative solvers it may
# call for large dimensions.
EIGEN_KERNELS = (("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"),
                 ("scipy.linalg", "eigvalsh"), ("scipy.linalg", "eigh"),
                 ("scipy.sparse.linalg", "eigsh"),
                 ("scipy.sparse.linalg", "lobpcg"))

# Methods wrapped on their classes; per-vertex accessors such as
# Graph.neighbors are left alone, since wrapping them would swamp the
# loops that call them.
METHODS = {
    "graphs": {"Graph": ("__init__",), "PhaseField": ("__init__",)},
    "maxflow": {"Dinic": ("max_flow", "min_cut_source_side")},
}


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    parent: "Span | None"
    thread: int
    analysis: str
    start: float = 0.0
    end: float = 0.0
    probe: float = 0.0
    attrs: dict = field(default_factory=dict)


def _digest(arr) -> bytes:
    import numpy as np
    a = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    h.update(memoryview(a).cast("B"))
    return h.digest()


def _sparse_digest(mat) -> bytes:
    m = mat.tocsr()
    h = hashlib.blake2b(digest_size=16)
    for part in (m.data, m.indices, m.indptr):
        h.update(_digest(part))
    return h.digest()


def _maxflow_attrs(args, kwargs) -> dict:
    """Arc count and capacity width of a ``Dinic`` network before its
    flow runs (read from its ``cap`` and ``head`` lists)."""
    net, s = args[0], args[1] if len(args) > 1 else kwargs["s"]
    caps, head = getattr(net, "cap", None), getattr(net, "head", None)
    if caps is None or head is None:
        return {}
    source = sum(caps[a] for a in head[s])
    top = max(caps, default=0)
    return {"arcs": len(caps) // 2, "cap_bits": max(top, source).bit_length(),
            "int32": top <= INT32_MAX and source <= INT32_MAX}


def _dense_fingerprint(a) -> bytes:
    """Digest of a dense matrix from its diagonal and one product with a
    fixed vector: cheaper than hashing every entry, and two distinct
    matrices collide only if both agree."""
    import numpy as np
    w = np.cos(0.7071 * np.arange(a.shape[1]))
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    h.update(np.ascontiguousarray(np.diagonal(a)).tobytes())
    h.update((a @ w).tobytes())
    return h.digest()


def _eigen_attrs(args, kwargs) -> dict:
    import numpy as np
    a = args[0] if args else kwargs.get("a", kwargs.get("A"))
    if hasattr(a, "tocsr"):
        digest = _sparse_digest(a)
    elif isinstance(a, np.ndarray):
        digest = _dense_fingerprint(a)
    else:  # a linear operator: count every solve as distinct
        digest = repr(id(a)).encode()
    return {"n": a.shape[0], "digest": digest}


def _assemble_result(result) -> dict:
    return {"digest": _sparse_digest(result.matrix) + result.kind.encode()}


def _cheeger_name(args, kwargs) -> str:
    method = kwargs.get("method", args[3] if len(args) > 3 else "flow")
    return "sparseness.cheeger" if method == "flow" \
        else f"sparseness.cheeger_{method}"


# name -> (attrs before the call, attrs from the result, span-name hook)
HOOKS = {
    "maxflow.Dinic.max_flow": (_maxflow_attrs, None, None),
    "operators.assemble": (None, _assemble_result, None),
    "sparseness.cheeger": (None, None, _cheeger_name),
    "eigen": (_eigen_attrs, None, None),
}


class Tracer:
    """Span recorder; ``install`` patches ``sgs``, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.analysis: str | None = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        before, after, rename = HOOKS.get(name, (None, None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            analysis = tracer.analysis
            if analysis is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else getattr(tracer._local, "root",
                                                     None)
            span = Span(rename(args, kwargs) if rename else name, layer,
                        parent, threading.get_ident(), analysis)
            stack.append(span)
            span.start = perf_counter()
            try:
                if before is not None:
                    span.attrs.update(before(args, kwargs))
                    span.probe += perf_counter() - span.start
                result = fn(*args, **kwargs)
                if after is not None:
                    t = perf_counter()
                    span.attrs.update(after(result))
                    span.probe += perf_counter() - t
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def _wrap_pool(self, fn):
        """``sgs.spectra._thread_map``: a waiting span whose id becomes
        the root parent of the spans its worker threads record."""
        tracer = self

        @functools.wraps(fn)
        def traced(work, items):
            if tracer.analysis is None:
                return fn(work, items)
            stack = tracer._stack()
            span = Span("spectra.pool", "pool",
                        stack[-1] if stack else None,
                        threading.get_ident(), tracer.analysis)

            def rooted(x):
                tracer._local.root = span
                try:
                    return work(x)
                finally:
                    tracer._local.root = None

            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(rooted, items)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        import sgs
        modules = {name: importlib.import_module(f"sgs.{name}")
                   for name in LAYERS}
        binders = [sgs, *modules.values()]
        for layer, mod in modules.items():
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if not callable(fn) or isinstance(fn, type) \
                        or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(fn, f"{layer}.{attr}", layer)
                for binder in binders:
                    for key, value in list(vars(binder).items()):
                        if value is fn:
                            self._set(binder, key, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    if cls is not None and meth in vars(cls):
                        self._set(cls, meth, self._wrap(
                            vars(cls)[meth], f"{layer}.{cls_name}.{meth}",
                            layer))
        if hasattr(modules["spectra"], "_thread_map"):
            self._set(modules["spectra"], "_thread_map",
                      self._wrap_pool(modules["spectra"]._thread_map))
        for owner_name, attr in EIGEN_KERNELS:
            owner = importlib.import_module(owner_name)
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, "eigen", "eigen")
            for binder in (owner, *modules.values()):
                for key, value in list(vars(binder).items()):
                    if value is fn:
                        self._set(binder, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# -- reduction to per-layer metrics -----------------------------------------

def _children(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(id(s.parent), []).append(s)
    return kids


def _probe_total(span: Span, kids, memo) -> float:
    key = id(span)
    if key not in memo:
        memo[key] = span.probe + sum(
            _probe_total(c, kids, memo) for c in kids.get(key, ())
            if c.thread == span.thread)
    return memo[key]


def _outermost(span: Span, match) -> bool:
    """No ancestor in the same thread satisfies ``match``."""
    p = span.parent
    while p is not None and p.thread == span.thread:
        if match(p):
            return False
        p = p.parent
    return True


def reduce_spans(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of a set of spans, named as in BENCHMARK.json."""
    kids = _children(spans)
    memo: dict[int, float] = {}

    def busy(match) -> float:
        """Summed over threads: time inside spans that satisfy ``match``."""
        return sum(s.end - s.start - _probe_total(s, kids, memo)
                   for s in spans if match(s) and _outermost(s, match))

    def self_time(layer: str) -> float:
        total = 0.0
        for s in spans:
            if s.layer != layer:
                continue
            inner = sum(c.end - c.start for c in kids.get(id(s), ())
                        if c.thread == s.thread)
            total += s.end - s.start - inner - s.probe
        return total

    def named(*names):
        return lambda s: s.name in names

    def of_layer(layer):
        return lambda s: s.layer == layer

    flows = [s for s in spans if s.name == "maxflow.Dinic.max_flow"]
    certs = [s for s in spans if s.name in RATIO_ROUTES]
    cert_ids = {id(s) for s in certs}

    def in_ratio_route(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if id(p) in cert_ids:
                return True
            p = p.parent
        return False

    eig = [s for s in spans if s.layer == "eigen"]
    builds = [s for s in spans if s.name == "operators.assemble"]
    return {
        "maxflow.calls": len(flows),
        "maxflow.s": busy(of_layer("maxflow")),
        "maxflow.arcs": sum(s.attrs.get("arcs", 0) for s in flows),
        "maxflow.cap_bits_max": max((s.attrs.get("cap_bits", 0)
                                     for s in flows), default=0),
        "maxflow.int32_frac": _frac(sum(s.attrs.get("int32", False)
                                        for s in flows), len(flows)),
        "sparseness.kmin_flow.calls": sum(s.name == "sparseness.kmin_flow"
                                          for s in spans),
        "sparseness.kmin_flow.s": busy(named("sparseness.kmin_flow")),
        "sparseness.amin_zero_k.s": busy(named("sparseness.amin_zero_k")),
        "sparseness.cheeger.s": busy(named("sparseness.cheeger")),
        "sparseness.self_s": self_time("sparseness"),
        "sparseness.cuts_per_cert": _frac(
            sum(in_ratio_route(s) for s in flows), len(certs)),
        "sparseness.kmin_bruteforce.s": busy(
            named("sparseness.kmin_bruteforce")),
        "sparseness.cheeger_bruteforce.s": busy(
            named("sparseness.cheeger_bruteforce")),
        "operators.assemble.calls": len(builds),
        "operators.assemble.s": busy(named("operators.assemble")),
        "operators.assemble.unique_frac": _frac(
            len({s.attrs["digest"] for s in builds}), len(builds)),
        "operators.kato_gap.s": busy(named("operators.kato_gap")),
        "spectra.optimal_ktilde.calls": sum(
            s.name == "spectra.optimal_ktilde" for s in spans),
        "spectra.optimal_ktilde.s": busy(named("spectra.optimal_ktilde")),
        "spectra.verify_sandwich.s": busy(named("spectra.verify_sandwich")),
        "spectra.ratio_report.s": busy(named("spectra.ratio_report")),
        "spectra.self_s": self_time("spectra"),
        "spectra.pool_wait_s": busy(of_layer("pool")),
        "eigen.calls": len(eig),
        "eigen.s": busy(of_layer("eigen")),
        "eigen.n3": sum(s.attrs["n"] ** 3 for s in eig),
        "eigen.unique_frac": _frac(len({s.attrs["digest"] for s in eig}),
                                   len(eig)),
        "graphio.load_s": busy(named("graphio.load_graph")),
        "graphio.report_s": busy(named("graphio.write_report",
                                       "graphio.graph_digest",
                                       "graphio.id_map_digest")),
        "graphs.s": busy(of_layer("graphs")),
        "generators.s": busy(of_layer("generators")),
        "cli.self_s": self_time("cli"),
    }


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0
