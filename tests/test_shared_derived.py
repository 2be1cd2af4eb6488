"""Each derived object of a coframe is built once and shared: the dual
frame, the A B = I proof, the structure function, the induced coframe
and, on it, the geodesic flow and the verdict of
[(D_lambda)_a, gamma] = (D_theta)_a; no check builds the tangent
frames."""
from __future__ import annotations

import argparse
import gc
import random
import weakref
from collections import Counter

import pytest

from coneflat import cli, coframe, flatten
from coneflat.coframe import (
    Chart,
    Coframe,
    SingularCoframeError,
    check_dual_relations,
    check_geodesic_identities,
    dual_frame,
    induced_coframe,
    structure_function,
    verify_induced_structure,
)
from coneflat.cone import adapted_cone, double_bracket_check, geodesic_tangency_check
from coneflat.funcfield import MultiPoly, RatFunc, parse_ratfunc
from coneflat.xi import XiConfig, xi_Z

CHART = Chart.standard(3)


def heisenberg_coframe() -> Coframe:
    rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "x1", "1"]]
    return Coframe(CHART, [[parse_ratfunc(e, CHART.variables) for e in row]
                           for row in rows])


def test_each_identity_case_inverts_and_multiplies_once_and_builds_no_tangent_frame(
        monkeypatch, capsys):
    counts = Counter()
    for name in ("tangent_dual_frame", "mat_inverse", "mat_mul"):
        original = getattr(coframe, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            # a product on the base chart is A B; gamma's are on the tangent chart
            if _name != "mat_mul" or args[0][0][0].nvars == CHART.n:
                counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(coframe, name, counted)
    assert cli.main(["verify-identities", "--seed", "7", "--cases", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    assert counts == {"mat_inverse": 2, "mat_mul": 2}


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
    sf = structure_function(cf)
    assert structure_function(cf) is sf
    assert cf.structure is sf
    # c comes from A's minors: neither the dual frame nor A B = I is formed
    assert "dual" not in vars(cf) and "pairing" not in vars(cf)
    ic = induced_coframe(cf)
    assert induced_coframe(cf) is ic
    assert cf.induced is ic
    assert dual_frame(cf) is dual_frame(cf) is cf.dual
    assert ic.pairing is cf.pairing and vars(cf)["pairing"]
    assert ic.gamma is ic.gamma


def test_inconsistent_coframe_raises_on_every_call():
    cf = heisenberg_coframe()
    # a wrong dual frame fails the A B = I proof that everything reading B
    # rests on; the structure function reads no B and stays the true c
    cf.dual = dual_frame(Coframe.identity(CHART).scale(RatFunc.const(3, 2)))
    for _ in range(2):
        assert structure_function(cf).components == \
            structure_function(heisenberg_coframe()).components
        assert cf.structure is structure_function(cf)
        with pytest.raises(SingularCoframeError):
            cf.pairing
        with pytest.raises(SingularCoframeError):
            cf.induced.pairing


def test_explicit_dual_is_not_stored():
    # verify is ignored: every value is exact by construction and stored,
    # and none forms or stores the dual frame
    cf = heisenberg_coframe()
    sf = structure_function(cf, verify=False)
    assert structure_function(cf) is sf is cf.structure
    assert "dual" not in vars(cf)


def test_structure_function_leaves_no_reference_cycle():
    # the table of minors holds no self-referring closure: a discarded
    # coframe's structure function is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for n in (3, 4):
            cf = coframe.random_polynomial_coframe(
                Chart.standard(n), random.Random(f"cycle{n}"), unimodular=n == 3)
            assert not structure_function(cf).is_zero()
            del cf
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_constant_polynomials_are_shared():
    for n in (1, 3, 6):
        assert MultiPoly.one(n) is MultiPoly.one(n) is MultiPoly.const(n, 1)
        assert MultiPoly.zero(n) is MultiPoly.zero(n) is MultiPoly.const(n, 0)
        assert MultiPoly.one(n).nvars == n
    assert MultiPoly.one(3) is not MultiPoly.one(4)
    assert RatFunc.const(3, 1).num is MultiPoly.one(3)


def test_certify_builds_no_induced_coframe():
    z = cli.default_variety()
    space = xi_Z(z, XiConfig(samples=40, seed=9))
    for name in ("flat", "rescaled", "twisted"):
        bundle = cli.build_model(name, z, argparse.Namespace(scale="1/(1 - x1)", twist="x1"))
        cs = adapted_cone(coframe.coframe_from_json(bundle["coframe"]), z)
        flatten.certify(cs, space, flatten.CertifyConfig(seed=1, validation_samples=10))
        assert "induced" not in cs.__dict__, name
        assert cs.coframe._induced is None, name
