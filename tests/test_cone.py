"""Tests for hypersurfaces, cone structures, and the dynamical checks."""

from __future__ import annotations

import importlib.util
import math
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from coneflat import cone, xi
from coneflat.coframe import Chart, Coframe, StructureFunction, VectorField, \
    random_polynomial_coframe, tangent_dual_frame
from coneflat.funcfield import MultiPoly, RatFunc, parse_poly, parse_ratfunc
from test_coframe import double_bracket_fields, double_bracket_oracle

VARS3 = ["x1", "x2", "x3"]
VARS6 = ["x1", "x2", "x3", "y1", "y2", "y3"]
P1 = xi.DEFAULT_PRIMES[0]


def mk_coframe(rows, names=VARS3):
    chart = Chart(len(names), tuple(names), (Fraction(0),) * len(names))
    return Coframe(chart, [[parse_ratfunc(e, names) for e in row] for row in rows])


def flat_coframe():
    return mk_coframe([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def rescaled_coframe():
    e = "1/(1 - x1)"
    return mk_coframe([[e, "0", "0"], ["0", e, "0"], ["0", "0", e]])


def twisted_coframe():
    return mk_coframe([["1", "0", "0"], ["0", "1", "x1"], ["0", "0", "1"]])


def fermat():
    return cone.Hypersurface(parse_poly("x1^4 + x2^4 + x3^4", VARS3))


@pytest.fixture(scope="module")
def fermat_xiz():
    return xi.xi_Z(fermat(), xi.XiConfig(samples=40, seed=9))


# ---------------------------------------------------------------------------
# hypersurface basics
# ---------------------------------------------------------------------------

def test_hypersurface_validation():
    z = fermat()
    assert z.n == 3 and z.degree == 4
    with pytest.raises(cone.ConeError):
        cone.Hypersurface(parse_poly("x1^2 + x2", VARS3))   # not homogeneous
    with pytest.raises(cone.ConeError):
        cone.Hypersurface(parse_poly("x1 + x2 + x3", VARS3))  # degree 1
    with pytest.raises(cone.ConeError):
        cone.Hypersurface(parse_poly("0", VARS3))
    with pytest.raises(cone.ConeError):
        cone.Hypersurface(parse_poly("x1^4 + x2^4", VARS3), degree=3)


def test_hypersurface_json_round_trip():
    data = {"n": 3, "degree": 4, "f": "x1^4+x2^4+x3^4"}
    z = cone.hypersurface_from_json(data)
    assert z.f == fermat().f
    again = cone.hypersurface_from_json(cone.hypersurface_to_json(z))
    assert again.f == z.f and again.degree == z.degree


def test_hypersurface_json_errors():
    with pytest.raises(cone.ConeError):
        cone.hypersurface_from_json({"n": 3})
    with pytest.raises(cone.ConeError):
        cone.hypersurface_from_json({"n": 3, "degree": 3,
                                     "f": "x1^4+x2^4+x3^4"})


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def test_smooth_check_diagonal():
    report = cone.smooth_check(fermat())
    assert report.verdict == "smooth"
    assert report.method == "macaulay_rank"


def test_smooth_check_diagonal_missing_variable():
    z = cone.Hypersurface(parse_poly("x1^4 + x2^4", VARS3))
    report = cone.smooth_check(z)
    assert report.verdict == "singular"
    # the x3-axis direction is the singular witness
    assert report.witness == (Fraction(0), Fraction(0), Fraction(1))


def test_smooth_check_singular_with_lifted_witness():
    z = cone.Hypersurface(parse_poly("x1^2*x2", VARS3))
    report = cone.smooth_check(z)
    assert report.verdict == "singular"
    assert report.method == "macaulay_rank"
    w = report.witness
    assert w is not None and any(w)
    assert w[0] == 0  # the singular locus is the plane x1 = 0
    assert all(g.evaluate(w) == 0 for g in z.gradient())
    assert z.f.evaluate(w) == 0
    assert z.smoothness is report


def test_smooth_check_generic_quartic_by_search():
    z = cone.Hypersurface(parse_poly("x1^4 + x2^4 + x3^4 + x1^3*x2", VARS3))
    report = cone.smooth_check(z)
    assert report.verdict == "smooth"
    assert report.method == "macaulay_rank"
    assert report.details["rank"] == report.details["columns"]


# singular exactly at (+-sqrt(3) : 1 : 0), with no singular point over
# GF(101) or GF(103) since 3 is a non-residue mod both
IRRATIONAL_SINGULAR = "(x1^2-3*x2^2)^2 + x3^4 + x1*x3^3"


def test_smooth_check_irrational_singular_points():
    z = cone.Hypersurface(parse_poly(IRRATIONAL_SINGULAR, VARS3))
    report = cone.smooth_check(z)
    assert report.verdict == "singular"
    assert report.witness is None
    assert report.details["rank"] == 32 and report.details["columns"] == 36
    with pytest.raises(cone.ConeError, match="no singular point"):
        cone.adapted_cone(flat_coframe(), z)


def test_smoothness_is_computed_once_and_read_only():
    z = fermat()
    report = z.smoothness
    assert cone.smooth_check(z) is report
    with pytest.raises(AttributeError):
        z.smoothness = cone.SmoothnessReport("singular", "macaulay_rank")


def test_smooth_check_bad_prime_decided_over_q():
    # the x2 partial vanishes mod the sampling prime, so only the
    # elimination over Q sees the full rank
    z = cone.Hypersurface(parse_poly(f"x1^2 + {P1}*x2^2 + x3^2", VARS3))
    report = cone.smooth_check(z)
    assert report.verdict == "smooth"
    assert report.details == {"rank": 3, "columns": 3, "field": "rational"}


def test_smooth_check_short_rank_decided_over_q():
    # singular only at (1 : 10^6 : 0), outside the witness box: the
    # short rank mod p is confirmed over Q
    z = cone.Hypersurface(parse_poly("(x2 - 1000000*x1)^2 + x3^2", VARS3))
    report = cone.smooth_check(z)
    assert report.verdict == "singular" and report.witness is None
    assert report.details == {"rank": 2, "columns": 3, "field": "rational"}


def test_smooth_check_rejects_matrix_above_size_bound():
    z = cone.Hypersurface(parse_poly("x1^4 + x2^4 + x3^4 + x4^4 + x5^4",
                                     [f"x{i + 1}" for i in range(5)]))
    with pytest.raises(cone.ConeError, match="2475 x 1365 Macaulay matrix"):
        cone.smooth_check(z)
    with pytest.raises(cone.ConeError, match="2475 x 1365"):
        cone.adapted_cone(flat_coframe(), z)


def _form(n, coeffs):
    return cone.Hypersurface(MultiPoly(n, {e: Fraction(c) for e, c in coeffs.items()}))


@settings(max_examples=40, deadline=None)
# (n, highest degree): n = 4 quintics are above smooth_check's size bound
@given(st.sampled_from([(3, 5), (4, 4)]).flatmap(lambda nd: st.tuples(
    st.integers(2, nd[1]),
    st.lists(st.integers(-3, 3), min_size=nd[0], max_size=nd[0]))))
def test_smooth_check_diagonal_forms(case):
    d, a = case
    assume(any(a))
    n = len(a)
    z = _form(n, {tuple(d if j == i else 0 for j in range(n)): c
                  for i, c in enumerate(a)})
    report = cone.smooth_check(z)
    assert report.verdict == ("smooth" if all(a) else "singular")
    if not all(a):
        first = a.index(0)
        assert report.witness == tuple(Fraction(int(j == first)) for j in range(n))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3)]).flatmap(
    lambda nd: st.tuples(st.just(nd), st.lists(
        st.integers(-3, 3), min_size=len(cone._monomials(*nd)),
        max_size=len(cone._monomials(*nd))))))
def test_smooth_check_planted_singular_point(case):
    """No monomial of degree >= d - 1 in x_n: the gradient vanishes at
    e_n, so the form is singular and its witness is a singular point."""
    (n, d), values = case
    coeffs = {e: c for e, c in zip(cone._monomials(n, d), values) if e[-1] <= d - 2}
    assume(any(coeffs.values()))
    z = _form(n, coeffs)
    report = cone.smooth_check(z)
    assert report.verdict == "singular"
    assert report.details["rank"] < report.details["columns"]
    assert report.witness is not None
    assert all(g.evaluate(report.witness) == 0 for g in z.gradient())


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 4).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.integers(-2, 2), min_size=len(cone._monomials(3, d)),
                         max_size=len(cone._monomials(3, d))))))
def test_smooth_check_agrees_with_groebner(case):
    """Singular exactly when the partials and some x_i - 1 have a
    common zero, that is, a reduced Groebner basis other than [1]."""
    sympy = pytest.importorskip("sympy")
    d, values = case
    assume(any(values))
    z = _form(3, dict(zip(cone._monomials(3, d), values)))
    xs = sympy.symbols("x1:4")
    f = sympy.sympify(z.f.to_string(VARS3).replace("^", "**"),
                      locals=dict(zip(VARS3, xs)))
    partials = [sympy.diff(f, x) for x in xs]
    singular = any(list(sympy.groebner(partials + [x - 1], *xs, order="grevlex")) != [1]
                   for x in xs)
    assert cone.smooth_check(z).verdict == ("singular" if singular else "smooth")


BENCHMARK_VARIETIES = [
    (3, "x1^3 + x2^3 + x3^3"),
    (3, "x1^4 + x2^4 + x3^4"),
    (3, "x1^5 + x2^5 + x3^5"),
    (4, "x1^3 + x2^3 + x3^3 + x4^3"),
    (4, "x1^4 + x2^4 + x3^4 + x4^4"),
    (5, "x1^3 + x2^3 + x3^3 + x4^3 + x5^3"),
    (3, "x1^3*x2 + x2^3*x3 + x3^3*x1"),
    (4, "x1^2 + x2^2 + x3^2 + x4^2"),
]


@pytest.mark.parametrize("n, text", BENCHMARK_VARIETIES)
def test_benchmark_varieties_certify_smooth(n, text):
    z = cone.Hypersurface(parse_poly(text, [f"x{i + 1}" for i in range(n)]))
    report = cone.smooth_check(z)
    assert report.verdict == "smooth"
    assert report.details["rank"] == report.details["columns"]


# ---------------------------------------------------------------------------
# adapted cone structures
# ---------------------------------------------------------------------------

def cone_equation(cs):
    """The expanded cone equation F = f(mu), an oracle: no check builds it."""
    return cs.z.f.subst(list(cs.mu))


def test_adapted_cone_flat_is_x_independent():
    cs = cone.adapted_cone(flat_coframe(), fermat())
    assert cone_equation(cs) == parse_ratfunc("y1^4 + y2^4 + y3^4", VARS6)


def test_adapted_cone_rescaled_formula():
    cs = cone.adapted_cone(rescaled_coframe(), fermat())
    assert cone_equation(cs) == parse_ratfunc("(y1^4 + y2^4 + y3^4)/(1 - x1)^4", VARS6)


def test_adapted_cone_twisted_formula():
    cs = cone.adapted_cone(twisted_coframe(), fermat())
    assert cone_equation(cs) == parse_ratfunc("y1^4 + (y2 + x1*y3)^4 + y3^4", VARS6)


def test_adapted_cone_rejects_singular():
    z = cone.Hypersurface(parse_poly("x1^2*x2", VARS3))
    with pytest.raises(cone.ConeError):
        cone.adapted_cone(flat_coframe(), z)


def test_adapted_cone_dimension_mismatch():
    names4 = ["x1", "x2", "x3", "x4"]
    z4 = cone.Hypersurface(parse_poly("x1^4 + x2^4 + x3^4 + x4^4", names4))
    with pytest.raises(cone.ConeError):
        cone.adapted_cone(flat_coframe(), z4)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_cone_modp_exact_zeros():
    cs = cone.adapted_cone(rescaled_coframe(), fermat())
    pts = cone.sample_cone(cs, 15, seed="sc", field=P1)
    assert len(pts) == 15
    cone_f = cone_equation(cs)
    for x, y in pts:
        assert cone_f.evaluate_mod(list(x) + list(y), P1) == 0
    assert pts == cone.sample_cone(cs, 15, seed="sc", field=P1)
    assert pts != cone.sample_cone(cs, 15, seed="other", field=P1)


# ---------------------------------------------------------------------------
# geodesic tangency
# ---------------------------------------------------------------------------

def test_geodesic_tangency_three_models():
    z = fermat()
    for cf in (flat_coframe(), rescaled_coframe(), twisted_coframe()):
        report = cone.geodesic_tangency_check(cone.adapted_cone(cf, z))
        assert report.verdict
        assert report.mode == "exact"


def test_geodesic_tangency_random_coframe_and_variety():
    rng = random.Random(20260825)
    cf = random_polynomial_coframe(Chart.standard(3), rng, unimodular=True)
    z = cone.Hypersurface(parse_poly("x1^4 + x2^4 + x3^4 + x1^3*x2", VARS3))
    report = cone.geodesic_tangency_check(cone.adapted_cone(cf, z))
    assert report.verdict


def test_geodesic_tangency_names_the_failing_component():
    # mu = (y1, y2 + x1 y3, y3); a flow that gains y1 d/dy2 moves only mu[1]
    cs = cone.adapted_cone(twisted_coframe(), fermat())
    ic = cs.induced
    comps = list(ic.gamma.components)
    comps[4] = comps[4] + RatFunc.var(6, 3)
    vars(ic)["gamma"] = VectorField(ic.chart, tuple(comps))
    report = cone.geodesic_tangency_check(cs)
    assert not report.verdict
    assert report.details == {"gamma_mu": {1: "y1"}}


def test_geodesic_tangency_is_the_derivative_of_the_cone_equation():
    # gamma(mu) = 0 gives gamma(f(mu)) = 0 by the chain rule; the expanded
    # equation confirms it on a random coframe
    cf = random_polynomial_coframe(Chart.standard(3), random.Random(31), unimodular=False)
    cs = cone.adapted_cone(cf, fermat())
    assert cone.geodesic_tangency_check(cs).verdict
    assert cs.induced.gamma.apply(cone_equation(cs)).is_zero()


# ---------------------------------------------------------------------------
# double bracket
# ---------------------------------------------------------------------------

def assert_double_bracket_proved_and_computed(cf):
    """The proved verdict and the brute-force double bracket agree."""
    cs = cone.adapted_cone(cf, fermat())
    report = cone.double_bracket_check(cs)
    assert report.verdict and report.details == {}
    assert double_bracket_oracle(cs, tangent_dual_frame(cs.induced))


def test_double_bracket_exact_flat():
    assert_double_bracket_proved_and_computed(flat_coframe())


def test_double_bracket_exact_rescaled():
    assert_double_bracket_proved_and_computed(rescaled_coframe())


def test_double_bracket_exact_twisted():
    # the identity holds for every adapted coframe, including ones that
    # later fail the characteristic test
    assert_double_bracket_proved_and_computed(twisted_coframe())


def test_double_bracket_exact_random_coframe():
    rng = random.Random(42)
    assert_double_bracket_proved_and_computed(
        random_polynomial_coframe(Chart.standard(3), rng, unimodular=True))


def test_double_bracket_fields_are_the_projected_full_brackets():
    cf = mk_coframe([["1/(1 - x1)", "0", "0"], ["0", "1", "x1"], ["x2", "x3", "1"]])
    ic = cf.induced
    frames = tangent_dual_frame(ic)
    fields = double_bracket_fields(ic, frames)
    assert any(not c.is_zero() for field in fields for c in field)
    for a in range(3):
        full = frames[0].vector(a).bracket(ic.gamma)
        assert fields[a] == list(full.components[:3])


# ---------------------------------------------------------------------------
# characteristic check
# ---------------------------------------------------------------------------

def test_characteristic_check_flat_passes(fermat_xiz):
    cs = cone.adapted_cone(flat_coframe(), fermat())
    report = cone.characteristic_check(cs, fermat_xiz, seed=2)
    assert report.verdict
    assert report.witness is None and report.witness_residual is None


def test_characteristic_check_rescaled_passes(fermat_xiz):
    cs = cone.adapted_cone(rescaled_coframe(), fermat())
    assert cone.characteristic_check(cs, fermat_xiz, seed=2).verdict


def test_characteristic_check_scalar_rescale_passes(fermat_xiz):
    s = "1 + x2"
    cf = mk_coframe([[s, "0", "0"], ["0", s, "0"], ["0", "0", s]])
    cs = cone.adapted_cone(cf, fermat())
    assert cone.characteristic_check(cs, fermat_xiz, seed=2).verdict


def test_characteristic_check_twisted_fails_with_witness(fermat_xiz):
    cs = cone.adapted_cone(twisted_coframe(), fermat())
    report = cone.characteristic_check(cs, fermat_xiz, seed=2)
    assert not report.verdict
    assert report.witness is not None
    # the twisted tensor sits in a coordinate orthogonal to the whole
    # contraction image, so its distance to it is exactly 1
    assert report.witness_residual == pytest.approx(1.0, abs=1e-12)


def test_twisted_characteristic_check_evaluates_c_at_one_point(fermat_xiz, monkeypatch):
    # the scan stops at the first point where the tensor leaves Xi_Z; the
    # twisted structure function is constant and outside Xi_Z, so that is
    # the first scanned point
    evaluated = []
    real = StructureFunction.evaluate_at

    def counting(self, point):
        evaluated.append(point)
        return real(self, point)

    monkeypatch.setattr(StructureFunction, "evaluate_at", counting)
    report = cone.characteristic_check(cone.adapted_cone(twisted_coframe(), fermat()),
                                       fermat_xiz, seed=2)
    assert not report.verdict and evaluated == [report.witness]


def test_characteristic_check_passes_without_drawing_a_point(fermat_xiz, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("characteristic_check drew a chart point")

    monkeypatch.setattr(cone, "sample_points", refuse)
    for cf in (flat_coframe(), rescaled_coframe()):
        report = cone.characteristic_check(cone.adapted_cone(cf, fermat()), fermat_xiz,
                                           seed=2)
        assert report.verdict and report.witness is None


def _sampled_failures(cs, space, samples, seed):
    """The sampled membership test the exact check replaced, kept as an
    oracle: the chart points where the structure tensor leaves space,
    decided over the field of space."""
    struct = cs.structure()
    points = cone.sample_points(cs.coframe.chart, samples, f"{seed}:chi",
                                avoid=cs.coframe.pole_polynomials())
    return [x for x in points
            if not xi.membership(struct.evaluate_at(x), space).member]


@pytest.fixture(scope="module")
def certify_workload():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("certify_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.Certify


@pytest.mark.parametrize("seed", ["1", "2"])
def test_characteristic_check_agrees_with_the_sampled_oracle(certify_workload, seed):
    # the first 32 cases of the certify benchmark: round trips, grid round
    # trips and twisted coframes
    workload = certify_workload(seed, None)
    workload.setup()
    verdicts = []
    for index in range(32):
        _, kind, cf, _ = workload.make_case(index)
        cs = cone.adapted_cone(cf, workload.z)
        case_seed = f"{seed}:{index}"
        report = cone.characteristic_check(cs, workload.space, seed=case_seed)
        failures = _sampled_failures(cs, workload.space, cone.WITNESS_SAMPLES, case_seed)
        assert report.verdict == (not failures), (index, kind)
        # the witness is the oracle's first failure, and its residual the
        # exact distance to Xi_V by normal equations
        assert report.witness == (failures[0] if failures else None), (index, kind)
        if failures:
            tensor = cs.structure().evaluate_at(failures[0])
            assert report.witness_residual == math.sqrt(float(
                xi.membership(tensor, xi.xi_V(cs.n)).residual)), (index, kind)
        verdicts.append((kind, report.verdict))
    assert {(kind, ok) for kind, ok in verdicts} == {
        ("round_trip", True), ("grid_round_trip", True), ("twisted", False)}
