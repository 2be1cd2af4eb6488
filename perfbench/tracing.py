"""Per-layer tracing from outside the package.

A traced run replaces chosen public functions and methods of the
coneflat modules with wrappers that record one span per call: name,
start, end and parent span.  Spans are kept in flat arrays and reduced
to per-layer metrics when the run ends.  A span's self time is its
duration minus the time covered by its direct child spans (calls are
nested on one thread, so child spans never overlap).

Several modules import functions by name (``cone`` holds its own
reference to ``coframe.tangent_dual_frame``, ``flatten`` to
``cone.characteristic_check``, the benchmark's workloads to anything
they call), so installing a wrapper rebinds every module global and
class attribute that holds the original object, not only the defining
module's.  Leaving the ``Tracer`` context restores all of them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

from coneflat import _antideriv, _modp, cli, coframe, cone, flatten, funcfield, xi


# (metric prefix, owner, attribute): the owner is a module or a class.
# Several attributes may share one metric prefix; their spans are pooled.
TRACED = [
    ("funcfield.multipoly_mul", funcfield.MultiPoly, "__mul__"),
    ("funcfield.divide_exact", funcfield.MultiPoly, "divide_exact"),
    ("funcfield.ratfunc_add", funcfield.RatFunc, "__add__"),
    ("funcfield.ratfunc_mul", funcfield.RatFunc, "__mul__"),
    ("funcfield.ratfunc_eq", funcfield.RatFunc, "__eq__"),
    ("funcfield.subst", funcfield.MultiPoly, "subst"),
    ("funcfield.subst", funcfield.RatFunc, "subst"),
    ("funcfield.evaluate", funcfield.MultiPoly, "evaluate"),
    ("funcfield.evaluate", funcfield.MultiPoly, "evaluate_mod"),
    ("funcfield.evaluate", funcfield.RatFunc, "evaluate"),
    ("funcfield.evaluate", funcfield.RatFunc, "evaluate_mod"),
    ("coframe.structure_function", coframe, "structure_function"),
    ("coframe.tangent_dual_frame", coframe, "tangent_dual_frame"),
    ("coframe.mat_inverse", coframe, "mat_inverse"),
    ("coframe.vector_bracket", coframe.VectorField, "bracket"),
    ("coframe.check_dual_relations", coframe, "check_dual_relations"),
    ("coframe.check_geodesic_identities", coframe, "check_geodesic_identities"),
    ("coframe.verify_induced_structure", coframe, "verify_induced_structure"),
    ("cone.adapted_cone", cone, "adapted_cone"),
    ("cone.geodesic_tangency_check", cone, "geodesic_tangency_check"),
    ("cone.double_bracket_check", cone, "double_bracket_check"),
    ("cone.characteristic_check", cone, "characteristic_check"),
    ("cone.sample_cone", cone, "sample_cone"),
    ("cone.smooth_check", cone, "smooth_check"),
    ("xi.xi_Z", xi, "xi_Z"),
    ("xi.sample_variety_points_modp", xi, "sample_variety_points_modp"),
    ("xi.membership", xi, "membership"),
    ("xi.span_check", xi, "span_check"),
    ("xi.tangent_lines_nondegenerate", xi, "tangent_lines_nondegenerate"),
    ("modp.poly_roots", _modp, "poly_roots"),
    ("modp.rref_mod", _modp, "rref_mod"),
    ("flatten.conformal_closedness_test", flatten, "conformal_closedness_test"),
    ("flatten.integrate_h", flatten, "integrate_h"),
    ("flatten.conformal_factor", flatten, "conformal_factor"),
    ("flatten.flat_coordinates", flatten, "flat_coordinates"),
    ("antideriv.integrate_closed_form", _antideriv, "integrate_closed_form"),
    ("antideriv.grid_evaluate", _antideriv.GridPotential, "evaluate"),
    ("cli.cmd_xi", cli, "cmd_xi"),
]

# (metric name, unit, better) of every per-layer metric, in report order.
# BENCHMARK.json lists the same names.
PER_LAYER = [
    ("funcfield.multipoly_mul.calls", "count", "lower"),
    ("funcfield.multipoly_mul.self_s", "s", "lower"),
    ("funcfield.divide_exact.calls", "count", "lower"),
    ("funcfield.divide_exact.self_s", "s", "lower"),
    ("funcfield.divide_exact.hit_ratio", "ratio", "higher"),
    ("funcfield.ratfunc_add.calls", "count", "lower"),
    ("funcfield.ratfunc_add.self_s", "s", "lower"),
    ("funcfield.ratfunc_mul.calls", "count", "lower"),
    ("funcfield.ratfunc_mul.self_s", "s", "lower"),
    ("funcfield.ratfunc_eq.calls", "count", "lower"),
    ("funcfield.ratfunc_eq.self_s", "s", "lower"),
    ("funcfield.peak_terms", "terms", "lower"),
    ("funcfield.term_budget_errors", "count", "lower"),
    ("funcfield.subst.self_s", "s", "lower"),
    ("funcfield.evaluate.calls", "count", "lower"),
    ("funcfield.evaluate.self_s", "s", "lower"),
    ("coframe.structure_function.calls", "count", "lower"),
    ("coframe.structure_function.self_s", "s", "lower"),
    ("coframe.tangent_dual_frame.calls", "count", "lower"),
    ("coframe.tangent_dual_frame.self_s", "s", "lower"),
    ("coframe.mat_inverse.calls", "count", "lower"),
    ("coframe.mat_inverse.self_s", "s", "lower"),
    ("coframe.vector_bracket.calls", "count", "lower"),
    ("coframe.vector_bracket.self_s", "s", "lower"),
    ("coframe.vector_bracket.out_terms", "terms", "lower"),
    ("coframe.check_dual_relations.self_s", "s", "lower"),
    ("coframe.check_geodesic_identities.self_s", "s", "lower"),
    ("coframe.verify_induced_structure.self_s", "s", "lower"),
    ("cone.adapted_cone.self_s", "s", "lower"),
    ("cone.geodesic_tangency_check.self_s", "s", "lower"),
    ("cone.double_bracket_check.self_s", "s", "lower"),
    ("cone.characteristic_check.self_s", "s", "lower"),
    ("cone.sample_cone.calls", "count", "lower"),
    ("cone.sample_cone.self_s", "s", "lower"),
    ("cone.smooth_check.self_s", "s", "lower"),
    ("xi.xi_Z.self_s", "s", "lower"),
    ("xi.xi_Z.samples_used", "count", "lower"),
    ("xi.sample_variety_points_modp.calls", "count", "lower"),
    ("xi.sample_variety_points_modp.self_s", "s", "lower"),
    ("xi.membership.calls", "count", "lower"),
    ("xi.membership.self_s", "s", "lower"),
    ("xi.span_check.self_s", "s", "lower"),
    ("xi.tangent_lines_nondegenerate.self_s", "s", "lower"),
    ("modp.poly_roots.calls", "count", "lower"),
    ("modp.poly_roots.self_s", "s", "lower"),
    ("modp.rref_mod.calls", "count", "lower"),
    ("modp.rref_mod.self_s", "s", "lower"),
    ("flatten.conformal_closedness_test.self_s", "s", "lower"),
    ("flatten.integrate_h.self_s", "s", "lower"),
    ("flatten.conformal_factor.self_s", "s", "lower"),
    ("flatten.flat_coordinates.self_s", "s", "lower"),
    ("flatten.grid_fallback_ratio", "ratio", "lower"),
    ("antideriv.integrate_closed_form.calls", "count", "lower"),
    ("antideriv.integrate_closed_form.self_s", "s", "lower"),
    ("antideriv.integrate_closed_form.success_ratio", "ratio", "higher"),
    ("antideriv.grid_evaluate.calls", "count", "lower"),
    ("antideriv.grid_evaluate.self_s", "s", "lower"),
    ("cli.cmd_xi.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics that must repeat exactly across traced runs on one seed.
DETERMINISTIC = [name for name, _, _ in PER_LAYER
                 if not name.endswith("_s")]

CASE_SPAN = "case"


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions everywhere they were rebound.
    """

    def __init__(self, extra_modules=()):
        self._extra_modules = list(extra_modules)
        self.names: list[str] = [CASE_SPAN]
        self._name_ids = {CASE_SPAN: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts = {"divide_exact_hits": 0, "closed_form_hits": 0,
                       "grid_modes": 0, "integrate_h_returns": 0,
                       "peak_terms": 0, "out_terms": 0, "samples_used": 0,
                       "term_budget_errors": 0}
        self._last_budget_error = None
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def case_span(self):
        """The root span of one benchmark case."""
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, observe=None):
        name_id = self._name_id(name)
        open_, close = self._open, self._close
        on_error = self._on_error if name.startswith("funcfield.") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            close(idx)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _on_error(self, exc: BaseException) -> None:
        # one budget error unwinds through many funcfield spans; count it once
        if isinstance(exc, funcfield.TermBudgetError) \
                and exc is not self._last_budget_error:
            self._last_budget_error = exc
            self.counts["term_budget_errors"] += 1

    # -- observers for counts that come from results -----------------------

    def _observers(self) -> dict:
        counts = self.counts

        # peak_terms: the largest polynomial a product, or a RatFunc sum
        # or product, returned
        def poly_terms(p):
            if len(p.terms) > counts["peak_terms"]:
                counts["peak_terms"] = len(p.terms)

        def ratfunc_terms(r):
            poly_terms(r.num)
            poly_terms(r.den)

        def divide_exact(q):
            if q is not None:
                counts["divide_exact_hits"] += 1

        def bracket(v):
            counts["out_terms"] += sum(len(r.num.terms) + len(r.den.terms)
                                       for r in v.components)

        def xi_z(space):
            counts["samples_used"] += sum(
                space.meta.get("samples_used", {}).values())

        def integrate_h(h):
            counts["integrate_h_returns"] += 1
            if h.mode == "grid":
                counts["grid_modes"] += 1

        def closed_form(combo):
            if combo is not None:
                counts["closed_form_hits"] += 1

        return {"funcfield.multipoly_mul": poly_terms,
                "funcfield.ratfunc_add": ratfunc_terms,
                "funcfield.ratfunc_mul": ratfunc_terms,
                "funcfield.divide_exact": divide_exact,
                "coframe.vector_bracket": bracket,
                "xi.xi_Z": xi_z,
                "flatten.integrate_h": integrate_h,
                "antideriv.integrate_closed_form": closed_form}

    # -- installing and restoring wrappers ---------------------------------

    def _holders(self):
        mods = [m for key, m in list(sys.modules.items())
                if key == "coneflat" or key.startswith("coneflat.")]
        return mods + self._extra_modules

    def __enter__(self):
        observers = self._observers()
        originals = {}
        for name, owner, attr in TRACED:
            fn = owner.__dict__[attr]
            originals[id(fn)] = self._wrap(name, fn, observers.get(name))
        # every class attribute and module global that holds an original
        owners = {id(o): o for _, o, _ in TRACED if isinstance(o, type)}
        targets = [(o, vars(o)) for o in owners.values()]
        targets += [(m, vars(m)) for m in self._holders()]
        for holder, namespace in targets:
            for key, value in list(namespace.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._restore.append((holder, key, value))
                    setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()
        return False

    # -- reduction ---------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        if not len(self.span_start):
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        nnames = len(self.names)
        calls = np.bincount(names, minlength=nnames)
        self_s = np.bincount(names, weights=duration - child, minlength=nnames)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters
        (trace.overhead_s is added by the caller)."""
        totals = self.span_totals()

        def c(name):
            return totals.get(name, (0, 0.0))[0]

        def s(name):
            return totals.get(name, (0, 0.0))[1]

        def ratio(hits, total):
            return hits / total if total else 0.0

        counts = self.counts
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric.endswith(".calls"):
                out[metric] = c(metric[:-len(".calls")])
            elif metric.endswith(".self_s"):
                out[metric] = s(metric[:-len(".self_s")])
        out["funcfield.divide_exact.hit_ratio"] = ratio(
            counts["divide_exact_hits"], c("funcfield.divide_exact"))
        out["funcfield.peak_terms"] = counts["peak_terms"]
        out["funcfield.term_budget_errors"] = counts["term_budget_errors"]
        out["coframe.vector_bracket.out_terms"] = counts["out_terms"]
        out["xi.xi_Z.samples_used"] = counts["samples_used"]
        out["flatten.grid_fallback_ratio"] = ratio(
            counts["grid_modes"], counts["integrate_h_returns"])
        out["antideriv.integrate_closed_form.success_ratio"] = ratio(
            counts["closed_form_hits"], c("antideriv.integrate_closed_form"))
        return out

    @property
    def span_count(self) -> int:
        return len(self.span_start)
