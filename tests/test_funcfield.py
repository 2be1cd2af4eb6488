import random
from fractions import Fraction

import pytest

from coneflat.funcfield import (
    BadPrimeError,
    FuncFieldError,
    MultiPoly,
    ParseError,
    PoleError,
    RatFunc,
    TermBudgetError,
    parse_poly,
    parse_ratfunc,
    set_term_bound,
    term_bound,
)

VARS3 = ["x1", "x2", "x3"]


def rf(text, variables=VARS3):
    return parse_ratfunc(text, variables)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_fermat_quartic_terms():
    p = parse_poly("x1^4 + x2^4 + x3^4", VARS3)
    assert len(p.terms) == 3
    assert p.terms[(4, 0, 0)] == 1
    assert p.terms[(0, 4, 0)] == 1
    assert p.terms[(0, 0, 4)] == 1
    assert p.total_degree() == 4
    assert p.is_homogeneous(4)


def test_parse_zero_is_empty():
    p = parse_poly("0", VARS3)
    assert p.terms == {}
    assert p.is_zero()


def test_parse_product_expands():
    p = parse_poly("(x1 - x2)*(x1 + x2)", VARS3)
    assert p == parse_poly("x1^2 - x2^2", VARS3)
    assert len(p.terms) == 2


def test_caret_precedence_matches_power_not_xor():
    # x1^2*x2 must parse as (x1^2)*x2, not x1^(2*x2)
    p = parse_poly("x1^2*x2", VARS3)
    assert p.terms == {(2, 1, 0): Fraction(1)}


def test_parse_rational_coefficients():
    p = rf("1/2*x1 - 2/3")
    assert p.evaluate([Fraction(2), Fraction(0), Fraction(0)]) == Fraction(1, 3)


def test_parse_negative_and_nested():
    p = rf("-(x1 - (x2 - x3))")
    assert p == rf("-x1 + x2 - x3")


def test_parse_unknown_variable_reports_position():
    with pytest.raises(ParseError) as info:
        rf("x1 + y*x2")
    assert "y" in str(info.value)
    assert info.value.position == 5


def test_parse_caret_offset_maps_back():
    # error after a caret rewrite should still point into the original text
    with pytest.raises(ParseError) as info:
        rf("x1^2 + z")
    assert info.value.position == 7


def test_parse_rejects_negative_exponent():
    with pytest.raises(ParseError):
        rf("x1^-1")


def test_parse_rejects_variable_exponent():
    with pytest.raises(ParseError):
        rf("x1^x2")


def test_parse_rejects_floats():
    with pytest.raises(ParseError):
        rf("0.5*x1")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        rf("2 x1")


def test_parse_rejects_calls():
    with pytest.raises(ParseError):
        rf("sin(x1)")


def test_parse_poly_rejects_true_quotient():
    with pytest.raises(ParseError):
        parse_poly("1/(1 - x1)", VARS3)


def test_parse_poly_allows_constant_quotient():
    p = parse_poly("x1/3", VARS3)
    assert p.terms == {(1, 0, 0): Fraction(1, 3)}


def test_parse_division_by_zero_literal():
    with pytest.raises(ParseError):
        rf("x1/(x2 - x2)")


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def test_poly_add_cancels_terms():
    p = parse_poly("x1 + x2", VARS3) - parse_poly("x2", VARS3)
    assert p == parse_poly("x1", VARS3)


def test_poly_pow_binomial():
    p = parse_poly("x1 + 1", VARS3) ** 3
    assert p == parse_poly("x1^3 + 3*x1^2 + 3*x1 + 1", VARS3)


def test_poly_divide_exact_cases():
    num = parse_poly("x1^2 - x2^2", VARS3)
    den = parse_poly("x1 - x2", VARS3)
    assert num.divide_exact(den) == parse_poly("x1 + x2", VARS3)
    assert den.divide_exact(num) is None
    assert num.divide_exact(parse_poly("x3", VARS3)) is None


def test_poly_to_string_roundtrip():
    texts = ["x1^4+x2^4+x3^4", "-x1+2", "1/2*x2^2-x3", "0", "x1*x2*x3"]
    for text in texts:
        p = parse_poly(text, VARS3)
        assert parse_poly(p.to_string(VARS3), VARS3) == p


def test_random_poly_string_roundtrip():
    rng = random.Random(20260825)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exp = tuple(rng.randint(0, 3) for _ in range(3))
            terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = MultiPoly(3, terms)
        assert parse_poly(p.to_string(VARS3), VARS3) == p


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_diff_power_rule():
    p = parse_poly("x1^4 + x2^4 + x3^4", VARS3)
    assert p.diff(0) == parse_poly("4*x1^3", VARS3)


def test_diff_quotient_rule_geometric():
    g = rf("1/(1 - x1)")
    assert g.diff(0) == rf("1/(1 - x1)^2")
    assert g.diff(1).is_zero()


def test_diff_commutes_on_random_ratfuncs():
    rng = random.Random(7)
    for _ in range(10):
        num = MultiPoly(3, {tuple(rng.randint(0, 2) for _ in range(3)):
                            Fraction(rng.randint(-5, 5)) for _ in range(4)})
        den = parse_poly("1 + x1^2 + x2^2", VARS3)
        h = RatFunc(num, den)
        i, j = rng.sample(range(3), 2)
        assert h.diff(i).diff(j) == h.diff(j).diff(i)


def test_diff_matches_finite_difference():
    h = rf("(x1^2*x2 - x3)/(1 + x2^2)")
    point = [0.3, -0.7, 1.1]
    eps = 1e-6
    for i in range(3):
        bumped = list(point)
        bumped[i] += eps
        dipped = list(point)
        dipped[i] -= eps
        numeric = (h.evaluate(bumped) - h.evaluate(dipped)) / (2 * eps)
        exact = h.diff(i).evaluate(point)
        assert abs(numeric - exact) < 1e-6


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_exact_fraction():
    h = rf("(x1 + x2)/(1 - x3)")
    value = h.evaluate([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
    assert value == Fraction(10, 9)


def test_evaluate_float():
    h = rf("x1^2 + x2")
    assert h.evaluate([2.0, 1.0, 0.0]) == pytest.approx(5.0)
    assert h.evaluate([0.5, 1.0, 0.0]) == pytest.approx(1.25)


def test_evaluate_rejects_a_complex_point():
    # only ints, Fractions and floats are points; a complex coordinate used
    # to pass through the float branch and give (-1+0j) and (0.5+0.5j)
    with pytest.raises(FuncFieldError, match="ints, Fractions or floats"):
        parse_poly("x1^2 + x2", VARS3).evaluate((1j, 0.0, 0.0))
    with pytest.raises(FuncFieldError, match="ints, Fractions or floats"):
        rf("1/(1 - x1)").evaluate((1j, 0.0, 0.0))
    assert rf("1/(1 - x1)").evaluate((0.5, 0, Fraction(1, 3))) == pytest.approx(2.0)


def test_evaluate_at_pole_raises():
    h = rf("1/(1 - x1)")
    with pytest.raises(PoleError):
        h.evaluate([Fraction(1), Fraction(0), Fraction(0)])


def test_evaluate_mod_prime():
    h = rf("(x1 + 1)/(x2 + 2)")
    # (3+1)/(4+2) = 4/6 = 4 * 6^{-1} mod 7; 6^{-1} = 6, so 24 mod 7 = 3
    assert h.evaluate_mod([3, 4, 0], 7) == 3


def test_reduce_mod_prime_halves():
    p = parse_poly("1/2*x1", VARS3)
    # 1/2 mod 7 is 4 since 2*4 = 8 = 1 mod 7
    assert p.reduce_mod_prime(7) == {(1, 0, 0): 4}


def test_reduce_mod_prime_bad_denominator():
    p = parse_poly("1/3*x1", VARS3)
    with pytest.raises(BadPrimeError):
        p.reduce_mod_prime(3)


def test_reduce_mod_prime_is_ring_morphism():
    rng = random.Random(99)
    prime = 10007
    for _ in range(10):
        a = MultiPoly(3, {tuple(rng.randint(0, 2) for _ in range(3)):
                          Fraction(rng.randint(-20, 20), rng.choice([1, 2, 5]))
                          for _ in range(4)})
        b = MultiPoly(3, {tuple(rng.randint(0, 2) for _ in range(3)):
                          Fraction(rng.randint(-20, 20), rng.choice([1, 3, 4]))
                          for _ in range(4)})
        point = [rng.randrange(prime) for _ in range(3)]
        lhs = (a * b).evaluate_mod(point, prime)
        rhs = a.evaluate_mod(point, prime) * b.evaluate_mod(point, prime) % prime
        assert lhs == rhs
        lhs = (a + b).evaluate_mod(point, prime)
        rhs = (a.evaluate_mod(point, prime) + b.evaluate_mod(point, prime)) % prime
        assert lhs == rhs


# ---------------------------------------------------------------------------
# rational-function field laws
# ---------------------------------------------------------------------------

def _random_ratfunc(rng):
    num = MultiPoly(3, {tuple(rng.randint(0, 2) for _ in range(3)):
                        Fraction(rng.randint(-4, 4)) for _ in range(3)})
    den_terms = {(0, 0, 0): Fraction(rng.randint(1, 3))}
    for _ in range(2):
        exp = tuple(rng.randint(0, 1) for _ in range(3))
        if exp != (0, 0, 0):
            den_terms[exp] = Fraction(rng.randint(-2, 2))
    return RatFunc(num, MultiPoly(3, den_terms))


def test_field_laws_random():
    rng = random.Random(123)
    for _ in range(15):
        a, b, c = (_random_ratfunc(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a / a == RatFunc.const(3, 1)
            assert (b / a) * a == b


def test_equality_by_cross_multiplication():
    a = rf("(x1^2 - x2^2)/(x1 - x2)")
    b = rf("x1 + x2")
    assert a == b


def test_monomial_cancellation():
    h = rf("x1^2*x2/(x1*x3)")
    assert h.num == parse_poly("x1*x2", VARS3)
    assert h.den == parse_poly("x3", VARS3)


def test_denominator_normalization_sign():
    h = rf("1/(-2 + 2*x1)")
    # canonical denominator is integer-primitive with positive lead
    assert h.den == parse_poly("x1 - 1", VARS3)
    assert h.num == parse_poly("1/2", VARS3)
    assert h == rf("-1/2/(1 - x1)")


def test_univariate_gcd_cancellation():
    h = rf("(x1^2 - 1)/(x1^2 + 2*x1 + 1)")
    assert h.num == parse_poly("x1 - 1", VARS3)
    assert h.den == parse_poly("x1 + 1", VARS3)


def test_substitution_chain_rule_spot():
    h = rf("1/(1 - x1)")
    args = [rf("x2 + x3"), rf("0"), rf("0")]
    g = h.subst(args)
    assert g == rf("1/(1 - x2 - x3)")


def test_pow_negative_inverts():
    h = rf("(1 - x1)")
    assert h ** -1 == rf("1/(1 - x1)")


# ---------------------------------------------------------------------------
# term budget
# ---------------------------------------------------------------------------

def test_term_budget_guard():
    old = term_bound()
    set_term_bound(10)
    try:
        p = parse_poly("x1 + x2 + x3 + 1", VARS3)
        with pytest.raises(TermBudgetError):
            _ = p ** 4  # 4 terms -> 35 terms, over the bound of 10
    finally:
        set_term_bound(old)


def test_lift_into_larger_chart():
    p = parse_poly("x1*x2", VARS3)
    q = p.lift(6, [0, 2, 4])
    assert q.nvars == 6
    assert q.terms == {(1, 0, 1, 0, 0, 0): Fraction(1)}


def test_lift_rejects_non_injective_or_out_of_range_map():
    p = MultiPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    for nvars_new, var_map in ((1, [0, 0]), (3, [1, 1]), (2, [0, 2]), (2, [0, -1])):
        with pytest.raises(FuncFieldError):
            p.lift(nvars_new, var_map)
        with pytest.raises(FuncFieldError):
            RatFunc(p).lift(nvars_new, var_map)
    assert p.lift(2, [1, 0]) == p
