"""Antiderivative engine: univariate algebra, Hermite reduction, the
log part on denominator base factors, closed-form potentials,
quadrature fallback."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from coneflat._antideriv import (
    AntiderivativeError,
    GridPotential,
    LogCombination,
    QuadratureError,
    UniPoly,
    integrate_axis,
    integrate_closed_form,
    poly_to_unipoly,
    uni_extended_gcd,
    unipoly_to_ratfunc,
)
from coneflat.funcfield import RatFunc, parse_ratfunc

VARS3 = ("x1", "x2", "x3")


def R(text: str) -> RatFunc:
    return parse_ratfunc(text, VARS3)


def U(text: str) -> UniPoly:
    """Parse a polynomial in x1 into a UniPoly along axis 0."""
    r = R(text)
    assert r.den.total_degree() == 0
    return poly_to_unipoly(r.num, 0)


def axis_derivative(rational: RatFunc, logs, v: int) -> RatFunc:
    d = rational.diff(v)
    for m, arg in logs:
        d = d + arg.diff(v) / arg * m
    return d


# ---------------------------------------------------------------------------
# univariate layer
# ---------------------------------------------------------------------------

def test_divmod_roundtrip():
    a = U("x1^4 - 3*x1^2 + x1 + 7")
    b = U("x1^2 + 2*x1 - 1")
    q, r = a.divmod(b)
    assert r.degree < b.degree
    assert q * b + r == a


def test_divmod_with_function_coefficients():
    # coefficients from the other variables ride along untouched
    a = poly_to_unipoly(R("x2*x1^3 + x3*x1 + 1").num, 0)
    b = poly_to_unipoly(R("x2*x1 + 1").num, 0)
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_extended_gcd_bezout_identity():
    a = U("(x1 + 2)*(x1 - 1)")
    b = U("(x1 + 2)*(x1 + 5)")
    g, s, t = uni_extended_gcd(a, b)
    assert g == U("x1 + 2")
    assert s * a + t * b == g


def test_unipoly_ratfunc_conversion():
    r = R("x2*x1^2 + x1/3 + x3")
    u = poly_to_unipoly(r.num, 0)
    assert unipoly_to_ratfunc(u, 0) * (RatFunc.const(3, 1) / RatFunc(r.den)) == r


# ---------------------------------------------------------------------------
# single-axis integration
# ---------------------------------------------------------------------------

def test_polynomial_integrand():
    rational, logs, ok = integrate_axis(R("3*x1^2 + x2"), 0)
    assert ok and logs == []
    assert rational == R("x1^3 + x2*x1")


def test_repeated_pole_reduces_to_rational():
    rational, logs, ok = integrate_axis(R("1/(x1 - 1)^3"), 0)
    assert ok and logs == []
    assert rational == R("-1/(2*(x1 - 1)^2)")


def test_simple_residues():
    rational, logs, ok = integrate_axis(R("1/x1"), 0)
    assert ok and rational.is_zero()
    assert len(logs) == 1
    m, arg = logs[0]
    assert m * arg.diff(0) / arg == R("1/x1")


def test_fractional_residue():
    rational, logs, ok = integrate_axis(R("1/(3*x1)"), 0)
    assert ok
    assert axis_derivative(rational, logs, 0) == R("1/(3*x1)")
    assert any(m.denominator == 3 for m, _ in logs)


def test_mixed_rational_and_log_part():
    target_rat = R("(x1^2 + x2)/(x1 - 2)")
    target_arg = R("x1^2 + x2")
    integrand = target_rat.diff(0) + target_arg.diff(0) / target_arg * 2
    rational, logs, ok = integrate_axis(integrand, 0)
    assert ok
    assert axis_derivative(rational, logs, 0) == integrand


def test_parameter_dependent_pole():
    integrand = R("x2/(x1*x2 + 1)")
    rational, logs, ok = integrate_axis(integrand, 0)
    assert ok
    assert axis_derivative(rational, logs, 0) == integrand


def test_large_and_fractional_residues_on_base_factors():
    # any rational residue is read off the base factor, with no size limit
    for text, residue, arg in [("13/x1", 13, "x1"),
                               ("13/(5*x1)", Fraction(13, 5), "x1"),
                               ("17/(x1 + x2)", 17, "x1 + x2")]:
        rational, logs, ok = integrate_axis(R(text), 0)
        assert ok, text
        assert rational.is_zero()
        assert logs == [(residue, R(arg))]
        assert axis_derivative(rational, logs, 0) == R(text)


def test_irrational_residue_fails_cleanly():
    for text in ("1/(x1^2 - 2)", "1/(x1^2 + 1)"):
        _, _, ok = integrate_axis(R(text), 0)
        assert not ok, text


def test_composite_base_factor_with_distinct_residues_falls_back():
    # x1^2 - x2^2 is one base factor, but its parts x1 - x2 and x1 + x2
    # carry residues 1 and 2, so no single m log(x1^2 - x2^2) fits
    r = R("(3*x1 - x2)/(x1^2 - x2^2)")
    assert [e for _, e in r.den_factors()] == [1]
    _, _, ok = integrate_axis(r, 0)
    assert not ok
    assert integrate_closed_form([r, R("0"), R("0")], (Fraction(1),) * 3) is None


def test_random_axis_roundtrips():
    rng = random.Random(20260825)
    for trial in range(6):
        num_parts = []
        arg = R(f"1 + {rng.randint(1, 3)}*x1 + {rng.randint(0, 2)}*x2")
        m = Fraction(rng.choice([1, 2, 3, -1, -2]))
        rat = R(f"({rng.randint(-3, 3)}*x1^2 + x2*x1)/(x1^2 + 1)")
        integrand = rat.diff(0) + arg.diff(0) / arg * m
        rational, logs, ok = integrate_axis(integrand, 0)
        assert ok, f"trial {trial}"
        assert axis_derivative(rational, logs, 0) == integrand


# ---------------------------------------------------------------------------
# multivariate potentials
# ---------------------------------------------------------------------------

def test_polynomial_potential():
    h = R("x1^2*x2 + x3")
    comps = [h.diff(j) for j in range(3)]
    pot = integrate_closed_form(comps, (Fraction(0),) * 3)
    assert pot is not None
    assert pot.logs == ()
    assert pot.rational_part == h
    for j in range(3):
        assert pot.gradient(j) == comps[j]


def test_potential_with_logs_and_base_normalization():
    arg = R("x1 + x2 + 1")
    h_rat = R("x1*x3")
    comps = [h_rat.diff(j) + arg.diff(j) / arg * 3 for j in range(3)]
    pot = integrate_closed_form(comps, (Fraction(0),) * 3)
    assert pot is not None
    for j in range(3):
        assert pot.gradient(j) == comps[j]
    assert len(pot.logs) == 1
    m, a, a0 = pot.logs[0]
    assert m == 3 and a0 == 1
    pt = (0.2, 0.3, -0.4)
    expected = 3 * math.log(1.5) + 0.2 * -0.4
    assert pot.evaluate(pt) == pytest.approx(expected, rel=1e-12)
    assert pot.evaluate((0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_log_factor_cancellation_across_axes():
    # d log(x1*x2 + 1): the first axis produces the argument
    # x1 + 1/x2, whose denominator must cancel against the
    # second axis before base evaluation at x2 = 0.
    arg = R("x1*x2 + 1")
    comps = [arg.diff(j) / arg for j in range(3)]
    pot = integrate_closed_form(comps, (Fraction(0),) * 3)
    assert pot is not None
    assert len(pot.logs) == 1
    m, a, a0 = pot.logs[0]
    assert m == 1 and a == arg and a0 == 1
    pt = (0.7, 0.4, 0.1)
    assert pot.evaluate(pt) == pytest.approx(math.log(0.7 * 0.4 + 1), rel=1e-12)


def test_not_closed_raises():
    comps = [R("x2"), R("0"), R("0")]
    with pytest.raises(AntiderivativeError):
        integrate_closed_form(comps, (Fraction(0),) * 3)


def test_unreachable_residue_returns_none():
    comps = [R("1/(x1^2 - 2)"), R("0"), R("0")]
    assert integrate_closed_form(comps, (Fraction(0),) * 3) is None


def test_exp_neg_collapses_to_rational():
    comps = [R("-2/(1 - x1)"), R("0"), R("0")]
    pot = integrate_closed_form(comps, (Fraction(0),) * 3)
    assert pot is not None
    f = pot.exp_neg_rational()
    assert f == R("1/(1 - x1)^2")
    assert f.evaluate((Fraction(0), Fraction(0), Fraction(0))) == 1


def test_exp_neg_refuses_nonrational_cases():
    nonzero_rat = LogCombination(3, (Fraction(0),) * 3, R("x1"), ())
    assert nonzero_rat.exp_neg_rational() is None
    frac_mult = LogCombination(3, (Fraction(0),) * 3, R("0"),
                               ((Fraction(1, 2), R("x1 + 1"), Fraction(1)),))
    assert frac_mult.exp_neg_rational() is None


def test_random_multivariate_roundtrips():
    rng = random.Random(20260825)
    for trial in range(4):
        args = [R("1 + x1 + x2"), R(f"1 + {rng.randint(1, 2)}*x3")]
        ms = [Fraction(rng.choice([1, -1, 2])), Fraction(rng.choice([1, 3, -2]))]
        h_rat = R(f"({rng.randint(-2, 2)}*x1*x2 + x3^2)/(1 + x1^2)")
        comps = []
        for j in range(3):
            c = h_rat.diff(j)
            for m, a in zip(ms, args):
                c = c + a.diff(j) / a * m
            comps.append(c)
        pot = integrate_closed_form(comps, (Fraction(0),) * 3)
        assert pot is not None, f"trial {trial}"
        for j in range(3):
            assert pot.gradient(j) == comps[j]
        pt = (0.15, -0.2, 0.3)
        expected = float(h_rat.evaluate(pt)) - float(
            h_rat.evaluate((Fraction(0),) * 3))
        for m, a in zip(ms, args):
            expected += float(m) * math.log(abs(a.evaluate(pt) / a.evaluate(
                (Fraction(0),) * 3)))
        assert pot.evaluate(pt) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# quadrature fallback
# ---------------------------------------------------------------------------

def test_grid_potential_matches_log():
    comps = [R("1/(1 - x1)"), R("0"), R("0")]
    grid = GridPotential(comps, (Fraction(0),) * 3)
    val = grid.evaluate((0.4, 0.1, -0.2))
    assert val == pytest.approx(-math.log(0.6), rel=1e-9)
    assert grid.max_path_residual() < 1e-8


def test_grid_potential_coupled_axes():
    h = R("x1^2*x2 + x3")
    comps = [h.diff(j) for j in range(3)]
    grid = GridPotential(comps, (Fraction(0),) * 3)
    pt = (0.5, -0.3, 0.25)
    assert grid.evaluate(pt) == pytest.approx(float(h.evaluate(pt)), abs=1e-9)
    # cached: second call must agree bit for bit
    assert grid.evaluate(pt) == grid.evaluate(pt)


def test_grid_potential_next_to_a_pole_raises_at_the_evaluation_cap():
    # 1/(1 - x1) integrated up to 1e-7 short of its pole: uncapped, the
    # adaptive Simpson recursion takes about 240,000 evaluations
    comps = [R("1/(1 - x1)"), R("0"), R("0")]
    grid = GridPotential(comps, (Fraction(0),) * 3)
    with pytest.raises(QuadratureError,
                       match="path quadrature along coordinate 0 .* reached 10000 evaluations"):
        grid.evaluate((1 - 1e-7, 0.0, 0.0))
