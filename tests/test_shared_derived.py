"""Each derived object of a coframe is built once and shared: the dual
frame, the structure function, the induced coframe and, on it, the
tangent frames, the geodesic flow and the verdict of
[(D_lambda)_a, gamma] = (D_theta)_a."""
from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from coneflat import cli, coframe
from coneflat.coframe import (
    Chart,
    Coframe,
    check_dual_relations,
    check_geodesic_identities,
    dual_frame,
    induced_coframe,
    structure_function,
    verify_induced_structure,
)
from coneflat.cone import adapted_cone, double_bracket_check, geodesic_tangency_check
from coneflat.funcfield import FuncFieldError, MultiPoly, RatFunc, parse_ratfunc

CHART = Chart.standard(3)


def heisenberg_coframe() -> Coframe:
    rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "x1", "1"]]
    return Coframe(CHART, [[parse_ratfunc(e, CHART.variables) for e in row]
                           for row in rows])


def test_each_identity_case_builds_dual_and_tangent_frames_once(monkeypatch, capsys):
    counts = Counter()
    for name in ("tangent_dual_frame", "mat_inverse"):
        original = getattr(coframe, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(coframe, name, counted)
    assert cli.main(["verify-identities", "--seed", "7", "--cases", "1"]) == cli.EXIT_OK
    capsys.readouterr()
    assert counts == {"tangent_dual_frame": 1, "mat_inverse": 1}


def test_coframe_holds_its_induced_coframe_weakly():
    z = cli.default_variety()
    cf = heisenberg_coframe().scale(parse_ratfunc("1/(1 - x1)", CHART.variables))
    gc.disable()
    try:
        ic = induced_coframe(cf)
        assert all(check_dual_relations(ic).values())
        assert all(check_geodesic_identities(ic).values())
        assert verify_induced_structure(cf).passed
        cs = adapted_cone(cf, z)
        assert cs.induced is ic
        assert geodesic_tangency_check(cs).verdict
        assert double_bracket_check(cs, samples=2, seed=3).verdict
        ref = weakref.ref(ic)
        del cf, ic, cs
        # freed by reference counting alone: no cycle through the caches
        assert ref() is None
    finally:
        gc.enable()


def test_derived_objects_are_shared_while_held():
    cf = heisenberg_coframe()
    ic = induced_coframe(cf)
    assert induced_coframe(cf) is ic
    assert cf.induced is ic
    assert dual_frame(cf) is dual_frame(cf) is cf.dual
    sf = structure_function(cf)
    assert structure_function(cf) is sf
    assert cf.structure is sf
    assert ic.frames is ic.frames
    assert ic.gamma is ic.gamma


def test_inconsistent_coframe_raises_on_every_call():
    cf = heisenberg_coframe()
    # a wrong dual frame makes the reconstruction through A fail
    cf.dual = dual_frame(Coframe.identity(CHART).scale(RatFunc.const(3, 2)))
    for _ in range(2):
        with pytest.raises(FuncFieldError):
            structure_function(cf)
        with pytest.raises(FuncFieldError):
            cf.structure


def test_explicit_dual_is_not_stored():
    cf = heisenberg_coframe()
    unverified = structure_function(cf, verify=False)
    assert structure_function(cf) is not unverified


def test_constant_polynomials_are_shared():
    for n in (1, 3, 6):
        assert MultiPoly.one(n) is MultiPoly.one(n) is MultiPoly.const(n, 1)
        assert MultiPoly.zero(n) is MultiPoly.zero(n) is MultiPoly.const(n, 0)
        assert MultiPoly.one(n).nvars == n
    assert MultiPoly.one(3) is not MultiPoly.one(4)
    assert RatFunc.const(3, 1).num is MultiPoly.one(3)
