"""Spans recorded from outside the hopfgal package, and the per-layer metrics.

`install` replaces the public functions of the layer modules, and the
`Matrix` kernels, with wrappers that record one span per call.  Callers
inside hopfgal reach those functions through module globals (``linalg.rref``)
or through names imported from another module (``_sparse``, ``GF``), so
every module attribute that refers to a wrapped function is replaced, which
catches calls inside a module too.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

LAYERS = ("linalg", "hopf", "actions", "cocyclic", "lattices", "files", "cli")
MATRIX_METHODS = ("__init__", "__matmul__", "kron", "__add__", "scale")
# called hundreds of thousands of times per taft op: counted, not spanned
COUNTED = ("linalg.sparse_entries",)

# span fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def count(self, name, fn):
        """Return fn wrapped so each call is only counted, for hot helpers."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, name, fn, attrs=None):
        """Return fn wrapped so each call records a span named `name`.

        `attrs(args, result)` may return a dict of attributes (domain,
        cells, ...); it runs after the span's end time is taken.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# attributes of the linalg kernels


def domain_key(domain):
    kind = type(domain).__name__
    return {"RationalField": "Q", "PrimeField": "Fp", "IntegerRing": "Z"}.get(kind, kind)


def _cells(m):
    return m.nrows * m.ncols


def _matmul_attrs(args, result):
    a, b = args[0], args[1]
    zero = a.domain.zero
    nnz = sum(1 for row in a.rows for v in row if v != zero)
    return {"domain": domain_key(a.domain), "cells": a.nrows * a.ncols * b.ncols,
            "left_cells": _cells(a), "left_nnz": nnz}


def _result_attrs(args, result):
    return {"domain": domain_key(result.domain), "cells": _cells(result)}


def _input_attrs(args, result):
    return {"domain": domain_key(args[0].domain), "cells": _cells(args[0])}


ATTRS_BY_SPAN = {
    "Matrix.__matmul__": _matmul_attrs,
    "Matrix.kron": _result_attrs,
    "Matrix.__add__": _result_attrs,
    "Matrix.scale": _result_attrs,
    "linalg.rref": _input_attrs,
    "cocyclic.face_matrix": _result_attrs,
    "cocyclic.degeneracy_matrix": _result_attrs,
    "cocyclic.cyclic_matrix": _result_attrs,
    "cocyclic.check_cyclic_identities": lambda args, result: {"level": args[2]},
}


@contextlib.contextmanager
def install(tracer):
    """Patch the layer modules while the block runs; restore them after."""
    package = importlib.import_module("hopfgal")
    modules = [
        importlib.import_module(f"hopfgal.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    wrappers = {}
    for short in LAYERS:
        module = importlib.import_module(f"hopfgal.{short}")
        for attr, fn in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            name = f"{short}.{attr}"
            if name in COUNTED:
                wrapper = tracer.count(name, fn)
            else:
                wrapper = tracer.wrap(name, fn, ATTRS_BY_SPAN.get(name))
            wrappers[id(fn)] = (fn, wrapper)
    restore = []
    for module in modules + [package]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])
    matrix = importlib.import_module("hopfgal.linalg").Matrix
    for attr in MATRIX_METHODS:
        fn = matrix.__dict__[attr]
        name = f"Matrix.{attr}"
        restore.append((matrix, attr, fn))
        setattr(matrix, attr, tracer.wrap(name, fn, ATTRS_BY_SPAN.get(name)))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# aggregation


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """Duration of `span` minus the part of it its child spans cover."""
    start, end = span[START], span[END]
    clipped = [(max(c[START], start), min(c[END], end)) for c in children]
    return (end - start) - covered([iv for iv in clipped if iv[1] > iv[0]])


def outermost(spans, names, where=None, among=None):
    """Spans named in `names` (and passing `where`) with no ancestor in `names`.

    `among` limits the search to a subset of `spans`, such as those named in `names`.
    """
    out = []
    for span in spans if among is None else among:
        if span[NAME] not in names or (where is not None and not where(span)):
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent is None:
            out.append(span)
    return out


def _attr(key, value):
    return lambda span: span[ATTRS] is not None and span[ATTRS].get(key) == value


def _groups():
    """Per-layer metric stem -> (span names, span filter, reported kinds)."""
    s, scc = ("s",), ("s", "calls", "cells")
    groups = {}
    # rref, matmul and kron never run over Z: HNF and SNF eliminate on row lists
    kernels = {
        "rref": (("linalg.rref",), ("Q", "Fp")),
        "matmul": (("Matrix.__matmul__",), ("Q", "Fp")),
        "kron": (("Matrix.kron",), ("Q", "Fp")),
        "add_scale": (("Matrix.__add__", "Matrix.scale"), ("Q", "Fp", "Z")),
    }
    for kernel, (names, domains) in kernels.items():
        for dom in domains:
            groups[f"linalg.{kernel}.{dom}"] = (names, _attr("domain", dom), scc)
    groups["linalg.matrix_init"] = (("Matrix.__init__",), None, s)
    groups["linalg.invert"] = (("linalg.invert",), None, s)
    groups["linalg.hnf"] = (("linalg.hermite_normal_form",), None, s)
    groups["linalg.snf"] = (("linalg.smith_normal_form",), None, s)
    groups["cocyclic.check_cyclic_identities"] = (("cocyclic.check_cyclic_identities",), None, s)
    for n in range(6):
        groups[f"cocyclic.level.{n}"] = (
            ("cocyclic.check_cyclic_identities",), _attr("level", n), s)
    groups["cocyclic.operators"] = (
        ("cocyclic.face_matrix", "cocyclic.degeneracy_matrix", "cocyclic.cyclic_matrix"), None, scc)
    for fn in ("ayd_check", "stability_check"):
        groups[f"cocyclic.{fn}"] = ((f"cocyclic.{fn}",), None, ("calls",))
    for fn in ("cotensor", "bar_complex", "bar_shift_check"):
        groups[f"cocyclic.{fn}"] = ((f"cocyclic.{fn}",), None, s)
    groups["hopf.verify_hopf"] = (("hopf.verify_hopf",), None, ("s", "calls"))
    for fn in ("taft", "tensor_square_algebra", "dual", "group_algebra"):
        groups[f"hopf.{fn}"] = ((f"hopf.{fn}",), None, s)
    groups["hopf.integrals"] = (("hopf.left_integrals", "hopf.right_integrals"), None, s)
    for fn in ("classify_extension", "smash", "morita_decomposition"):
        groups[f"actions.{fn}"] = ((f"actions.{fn}",), None, s)
    groups["actions.galois_maps"] = (("actions.galois_map_j", "actions.galois_map_gamma"), None, s)
    groups["actions.homology"] = (("actions.hopfological_homology_module",), None, s)
    for fn in ("associated_order", "is_hopf_order", "tame_check_integral", "free_rank_one_generator"):
        groups[f"lattices.{fn}"] = ((f"lattices.{fn}",), None, s)
    return groups


GROUPS = _groups()

UNITS = {"s": "s/op", "calls": "count/op", "cells": "count/op"}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for stem, (_, _, kinds) in GROUPS.items():
        names.extend((f"{stem}.{kind}", UNITS[kind]) for kind in kinds)
    names.append(("linalg.matmul.nnz_frac", "ratio"))
    names.append(("linalg.sparse_entries.calls", "count/op"))
    names.append(("files.load.s", "s/op"))
    names.append(("files.load.calls", "count/op"))
    names.append(("cli.parse_render.s", "s/op"))
    names.append(("trace.spans", "count/op"))
    names.append(("trace.overhead_frac", "ratio"))
    return names


def layer_metrics(tracer, ops):
    """Per-op layer metrics from the spans and counts of `ops` traced operations.

    Times are inclusive of nested spans of other layers; a span nested in
    one of its own group is not counted again.
    """
    spans = tracer.spans
    by_name = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
    values = {"linalg.sparse_entries.calls": tracer.counts["linalg.sparse_entries"] / ops}
    for stem, (names, where, kinds) in GROUPS.items():
        among = [span for name in names for span in by_name.get(name, [])]
        top = outermost(spans, set(names), where, among)
        if "s" in kinds:
            values[f"{stem}.s"] = sum(s[END] - s[START] for s in top) / ops
        if "calls" in kinds:
            values[f"{stem}.calls"] = len(top) / ops
        if "cells" in kinds:
            values[f"{stem}.cells"] = sum((s[ATTRS] or {}).get("cells", 0) for s in top) / ops
    matmuls = [s[ATTRS] for s in spans if s[NAME] == "Matrix.__matmul__" and s[ATTRS]]
    attempted = sum(a["left_cells"] for a in matmuls)
    values["linalg.matmul.nnz_frac"] = (
        sum(a["left_nnz"] for a in matmuls) / attempted if attempted else 0.0)
    loads = outermost(spans, {s[NAME] for s in spans if s[NAME].startswith("files.")})
    values["files.load.s"] = sum(s[END] - s[START] for s in loads) / ops
    values["files.load.calls"] = len(loads) / ops
    children = {}
    for span in spans:
        if span[PARENT] is not None and span[NAME].startswith("cli.run_"):
            children.setdefault(span[PARENT], []).append(span)
    values["cli.parse_render.s"] = sum(
        self_time(span, children.get(index, []))
        for index, span in enumerate(spans) if span[NAME] == "cli.main"
    ) / ops
    values["trace.spans"] = len(spans) / ops
    return values
