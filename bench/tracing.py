"""Per-layer tracing of finslercalc from outside the package.

``Tracer.install()`` rebinds the public entry points of each layer (module
functions in every ``finslercalc`` namespace that imported them, and class
methods) to wrappers that record spans; ``uninstall()`` puts the originals
back.  No file of the package is changed.

A span has a name, a start, an end and a parent.  Spans are kept in memory
in flat arrays and written out by ``write_spans``.  The self time of a span
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# Geometry methods that build one cached object each.  ``connection`` only
# bundles cached tensors and is left out.
GEOMETRY_OBJECTS = (
    "metric", "inverse_metric", "finsler_function", "supporting_and_angular",
    "cartan_tensor", "christoffel_gamma", "spray", "nonlinear_connection",
    "berwald_coefficients", "cartan_coefficients", "torsions", "classify",
)


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._open: list[int] = []
        self._child_time: list[float] = []
        self._geo_child_time: list[float] = []
        self._gcd_path: list[str] = []
        self._in_heugcd = False
        self._in_verify = 0
        self._representatives: dict = {}
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.geometry_build: dict[str, float] = defaultdict(float)
        self.verify_time = 0.0
        self.gcd_total = 0.0  # outermost poly_gcd calls, children included
        self._gcd_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(i)
        self._child_time.append(0.0)
        self.span_start.append(time.perf_counter())
        return i

    def _exit(self, i: int, name: str) -> float:
        end = time.perf_counter()
        self.span_end[i] = end
        self._open.pop()
        duration = end - self.span_start[i]
        self.self_time[name] += duration - self._child_time.pop()
        self.calls[name] += 1
        if self._child_time:
            self._child_time[-1] += duration
        return duration

    def spanned(self, name: str, fn):
        def traced(*args, **kwargs):
            i = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(i, name)

        return traced

    def counted(self, name: str, fn):
        def traced(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    # -- rebinding -------------------------------------------------------------

    def _rebind_function(self, original, wrapper):
        """Replace ``original`` in every finslercalc module that holds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "finslercalc" or modname.startswith("finslercalc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _rebind_method(self, cls, name: str, make_wrapper):
        """Replace a method and every alias of it (``__radd__ = __add__``)."""
        original = vars(cls)[name]
        wrapper = make_wrapper(original)
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._patches.append((cls, attr, value))
                setattr(cls, attr, wrapper)

    def install(self):
        from finslercalc import cli, expr, geometry, oracle, parsing, poly, tensor

        self._rebind_function(poly.poly_gcd, self._gcd(poly.poly_gcd))
        self._rebind_function(poly._nonmonomial_gcd, self._nonmonomial(poly._nonmonomial_gcd))
        self._rebind_function(poly._heugcd, self._heuristic(poly._heugcd))
        self._rebind_function(poly.div_exact, self.spanned("poly.div_exact", poly.div_exact))
        self._rebind_method(poly.Poly, "__mul__", lambda f: self.spanned("poly.mul", f))

        self._rebind_method(expr.Expr, "__add__", lambda f: self.spanned("expr.add", f))
        self._rebind_method(expr.Expr, "__mul__", lambda f: self.spanned("expr.mul", f))
        self._rebind_method(expr.Expr, "_diff_sym", self._diff)
        self._rebind_method(expr.Context, "root", lambda f: self.spanned("expr.root", f))

        self._rebind_function(tensor.define, self._define(tensor, tensor.define))
        self._rebind_function(
            tensor.contract_product, self.spanned("tensor.contract", tensor.contract_product)
        )
        self._rebind_function(
            tensor.nonzero_components, self.spanned("tensor.nonzero", tensor.nonzero_components)
        )

        for name in GEOMETRY_OBJECTS:
            self._rebind_method(geometry.Geometry, name, lambda f, n=name: self._geometry(n, f))
        self._rebind_method(geometry.Geometry, "curvature", lambda f: self._geometry(None, f))

        self._rebind_function(oracle.verify_many, self._verify_many(oracle.verify_many))
        self._rebind_method(oracle.NumericGeometry, "object_table",
                            lambda f: self.spanned("oracle.table", f))
        self._rebind_method(oracle.NumericGeometry, "f2", lambda f: self.counted("oracle.f2.calls", f))
        self._rebind_method(oracle.NumericGeometry, "__init__",
                            lambda f: self.counted("oracle.numeric_geometry.builds", f))
        self._rebind_method(expr.Expr, "eval_at", self._eval_at)

        self._rebind_function(parsing.parse, self.spanned("parsing.parse", parsing.parse))
        self._rebind_function(parsing.to_text, self.spanned("parsing.print", parsing.to_text))
        self._rebind_function(parsing.to_latex, self.spanned("parsing.print", parsing.to_latex))
        self._rebind_function(cli.emit, self.spanned("cli.emit", cli.emit))
        self._rebind_function(oracle.verify, self.counted("cli.verify.calls", oracle.verify))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- layer-specific wrappers ---------------------------------------------------

    def _gcd(self, fn):
        def traced(a, b):
            self._gcd_path.append("monomial")
            self._gcd_depth += 1
            i = self._enter("poly.gcd")
            try:
                return fn(a, b)
            finally:
                duration = self._exit(i, "poly.gcd")
                self._gcd_depth -= 1
                if not self._gcd_depth:
                    self.gcd_total += duration
                self.counts[f"poly.gcd.{self._gcd_path.pop()}.calls"] += 1

        return traced

    def _nonmonomial(self, fn):
        def traced(*args):
            # stays "prs" unless the heuristic gcd below succeeds
            self._gcd_path[-1] = "prs"
            return fn(*args)

        return traced

    def _heuristic(self, fn):
        def traced(*args):
            if self._in_heugcd:  # recursion on the remaining variables
                return fn(*args)
            self._in_heugcd = True
            try:
                result = fn(*args)
            finally:
                self._in_heugcd = False
            if result is not None:
                self._gcd_path[-1] = "heuristic"
            return result

        return traced

    def _diff(self, fn):
        def traced(e, sym):
            if (e, sym) in e.ctx._diff_cache:
                self.counts["expr.diff.cache_hits"] += 1
            i = self._enter("expr.diff")
            try:
                return fn(e, sym)
            finally:
                self._exit(i, "expr.diff")

        return traced

    def _eval_at(self, fn):
        """``Expr.eval_at`` is oracle work only inside ``verify_many``;
        elsewhere (zero tests in ``nonzero_components``) it is left to the
        caller's span."""
        spanned = self.spanned("oracle.eval_at", fn)

        def traced(*args):
            return spanned(*args) if self._in_verify else fn(*args)

        return traced

    def representatives(self, tensor_module, dim: int, rank: int, symmetries) -> set:
        """Indices ``define`` fills an orbit from: the lexicographically
        least member of each orbit.  Computed once per shape, outside any
        span, so the tracer's bookkeeping is not charged to the tensor layer."""
        key = (dim, rank, tuple(symmetries))
        reps = self._representatives.get(key)
        if reps is None:
            gens = tensor_module._transpositions(symmetries)
            reps, seen = set(), set()
            for idx in tensor_module.iter_indices(dim, rank):
                if idx not in seen:
                    reps.add(idx)
                    seen.update(tensor_module._orbit(idx, gens) if gens else (idx,))
            self._representatives[key] = reps
        return reps

    def _define(self, tensor_module, fn):
        signature = inspect.signature(fn)
        counts = self.counts

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            generator = bound.arguments["generator"]
            reps = self.representatives(
                tensor_module, bound.arguments["dim"], len(bound.arguments["sig"]),
                bound.arguments["symmetries"],
            )

            # a generator call on an orbit member other than its
            # representative is a symmetry re-check
            def counted_generator(idx):
                counts["tensor.generator.calls"] += 1
                if idx not in reps:
                    counts["tensor.recheck.calls"] += 1
                return generator(idx)

            bound.arguments["generator"] = counted_generator
            i = self._enter("tensor.define")
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self._exit(i, "tensor.define")

        return traced

    def _geometry(self, name, fn):
        def traced(geom, *args):
            obj = name or "curv.{}.{}".format(args[0].value, args[1])
            span = "geometry." + obj
            cached_before = len(geom._cache)
            self._geo_child_time.append(0.0)
            i = self._enter(span)
            try:
                return fn(geom, *args)
            finally:
                duration = self._exit(i, span)
                own = duration - self._geo_child_time.pop()
                if self._geo_child_time:
                    self._geo_child_time[-1] += duration
                if len(geom._cache) == cached_before:
                    self.counts["geometry.cache_hits"] += 1
                else:
                    self.counts["geometry.cache_misses"] += 1
                    self.geometry_build[obj] += own

        return traced

    def _verify_many(self, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["oracle.object_points"] += (
                len(list(bound.arguments["object_ids"])) * bound.arguments["n_points"]
            )
            i = self._enter("oracle.verify")
            self._in_verify += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_verify -= 1
                self.verify_time += self._exit(i, "oracle.verify")

        return traced

    # -- output ---------------------------------------------------------------------

    def write_spans(self, path, meta: dict):
        """Gzipped JSON lines: ``meta`` with the column names, then one
        ``[name, start_s, end_s, parent]`` row per span; ``parent`` is the
        row number of the parent span, -1 for none."""
        names, t0 = self._names, self.t0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(dict(meta, columns=["name", "start_s", "end_s", "parent"])) + "\n")
            for n, s, e, p in zip(self.span_name, self.span_start, self.span_end, self.span_parent):
                fh.write(f'["{names[n]}",{s - t0:.9f},{e - t0:.9f},{p}]\n')
