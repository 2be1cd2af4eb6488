"""The integer representation of MultiPoly: int coefficients over one
positive common denominator with gcd(den, *coeffs) == 1.

Every ring operation is checked against a small reference that works on
plain {exponent: Fraction} dicts, and every result against the invariant.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from coneflat.funcfield import (
    BadPrimeError,
    MultiPoly,
    RatFunc,
    _fraction_mod,
)

N = 3
PRIMES = (2, 3, 5, 7, 11)

exponents = st.tuples(*[st.integers(0, 3)] * N)
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)
term_dicts = st.dictionaries(exponents, coefficients, max_size=6)
polys = term_dicts.map(lambda t: MultiPoly(N, t))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


# -- the reference: {exponent: Fraction} dicts --------------------------------

def ref(p: MultiPoly) -> dict:
    return {e: Fraction(c, p.den) for e, c in p.coeffs.items()}


def ref_clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_diff(a: dict, index: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[index]:
            out[e[:index] + (e[index] - 1,) + e[index + 1:]] = c * e[index]
    return out


def ref_remainder(a: dict, b: dict) -> dict:
    """Remainder of a on division by b in graded-lex order; with one
    divisor it is zero exactly when b divides a."""
    def grlex(e):
        return (sum(e), e)
    lead = max(b, key=grlex)
    a, rem = dict(a), {}
    while a:
        e = max(a, key=grlex)
        shift = tuple(x - y for x, y in zip(e, lead))
        if min(shift) < 0:
            rem[e] = a.pop(e)
            continue
        a = ref_add(a, ref_mul({shift: -a[e] / b[lead]}, b))
    return rem


def assert_canonical(p: MultiPoly) -> None:
    assert type(p.den) is int and p.den > 0
    for exp, c in p.coeffs.items():
        assert type(c) is int and c != 0
        assert len(exp) == p.nvars
    assert math.gcd(p.den, *p.coeffs.values()) == 1
    if p.is_zero():
        assert p.den == 1


# -- the invariant --------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(polys, polys, nonzero_polys, st.integers(0, N - 1))
def test_every_operation_keeps_the_invariant(a, b, c, index):
    results = [a, b, a + b, a - b, -a, a * b, a.diff(index), a ** 2,
               a + Fraction(1, 3), a * Fraction(-2, 9),
               a.lift(N + 1, [2, 0, 3]), MultiPoly.const(N, Fraction(4, 6)),
               (a * c).divide_exact(c)]
    q = a.divide_exact(c)
    if q is not None:
        results.append(q)
    r = RatFunc(a, c)
    for s in (r, r + RatFunc(b, c), r * RatFunc(c, c * c + 1), r.diff(index)):
        results.extend([s.num, s.den])
    for r in results:
        assert_canonical(r)


small_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * N), st.integers(-3, 3),
                              max_size=3).map(lambda t: MultiPoly(N, t))
ratfunc_steps = st.lists(st.tuples(st.sampled_from("+-*/d"), small_polys,
                                   st.integers(0, N - 1)), max_size=5)


@settings(max_examples=100, deadline=None)
@given(nonzero_polys, ratfunc_steps)
def test_negation_of_a_canonical_value_is_canonical(start, steps):
    """RatFunc.__neg__ skips cancellation: (-num, den) of a value built
    by + - * / and diff must already be the reduced pair."""
    r = RatFunc(start)
    for op, p, index in steps:
        s = RatFunc(p)
        if op == "/" and not s.is_zero():
            r = r / s
        elif op in "+-*":
            r = r + s if op == "+" else r - s if op == "-" else r * s
        elif op == "d":
            r = r.diff(index)
        rebuilt = RatFunc(-r.num, r.den)
        assert (rebuilt.num, rebuilt.den) == (-r.num, r.den)
        neg = -r
        assert (neg.num, neg.den) == (-r.num, r.den)
        assert (neg + r).is_zero()


def test_equal_values_have_equal_representations():
    e = (1, 0, 2)
    half = MultiPoly(N, {e: Fraction(1, 2)})
    two_quarters = MultiPoly(N, {e: Fraction(2, 4)})
    assert half == two_quarters
    assert hash(half) == hash(two_quarters)
    assert (half.coeffs, half.den) == ({e: 1}, 2)
    assert MultiPoly(N, {e: Fraction(3, 6), (0, 0, 0): Fraction(0)}) == half
    assert len({half, two_quarters, half + half - half}) == 1


@settings(max_examples=150, deadline=None)
@given(term_dicts)
def test_terms_is_the_fraction_view(terms):
    p = MultiPoly(N, terms)
    assert dict(p.terms) == ref_clean(terms)
    assert p.terms == ref_clean(terms)
    assert len(p.terms) == len(p.coeffs)


# -- ring operations against the reference --------------------------------------

@settings(max_examples=200, deadline=None)
@given(polys, polys, st.integers(0, N - 1))
def test_add_mul_diff_agree_with_reference(a, b, index):
    assert ref(a + b) == ref_add(ref(a), ref(b))
    assert ref(a - b) == ref_add(ref(a), {e: -c for e, c in ref(b).items()})
    assert ref(a * b) == ref_mul(ref(a), ref(b))
    assert ref(a.diff(index)) == ref_diff(ref(a), index)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero_polys, polys)
def test_divide_exact_against_reference(a, b, c):
    assert (a * b).divide_exact(b) == a
    remainder = ref_remainder(ref(c), ref(b))
    quotient = (a * b + c).divide_exact(b)
    if remainder:
        assert quotient is None
    else:
        assert quotient is not None and quotient * b == a * b + c


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys)
def test_divide_exact_by_non_primitive_divisor(a, b):
    # a divisor with integer content and a denominator: the quotient is
    # scaled back by both
    scaled = b * Fraction(6, 35)
    assert (a * b).divide_exact(scaled) == a * Fraction(35, 6)
    assert (a * scaled).divide_exact(b) == a * Fraction(6, 35)


# -- evaluation and reduction -----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(polys, st.lists(st.floats(-3, 3), min_size=N, max_size=N))
def test_float_evaluate_is_bit_identical_to_fraction_coefficients(p, point):
    total = 0.0
    for exp, coeff in p.terms.items():
        term = float(coeff)
        for v, k in zip(point, exp):
            if k:
                term *= v ** k
        total = total + term
    assert repr(p.evaluate(point)) == repr(total)


@settings(max_examples=150, deadline=None)
@given(polys, st.lists(coefficients, min_size=N, max_size=N))
def test_exact_evaluate_against_reference(p, point):
    expected = sum((c * math.prod(v ** k for v, k in zip(point, e))
                    for e, c in ref(p).items()), Fraction(0))
    value = p.evaluate(point)
    assert type(value) is Fraction and value == expected


@settings(max_examples=200, deadline=None)
@given(polys, st.sampled_from(PRIMES))
def test_reduce_mod_prime_is_per_coefficient(p, prime):
    if p.den % prime == 0:
        with pytest.raises(BadPrimeError):
            p.reduce_mod_prime(prime)
        assert any(c.denominator % prime == 0 for c in p.terms.values())
        return
    expected = {e: r for e, c in p.terms.items() if (r := _fraction_mod(c, prime))}
    assert p.reduce_mod_prime(prime) == expected


@settings(max_examples=100, deadline=None)
@given(polys)
def test_content_and_leading_coefficient(p):
    assume(not p.is_zero())
    content = p.content()
    assert content > 0
    assert all((c / content).denominator == 1 for c in p.terms.values())
    assert math.gcd(*((c / content).numerator for c in p.terms.values())) == 1
    lead = max(p.coeffs, key=lambda e: (sum(e), e))
    assert p.leading_coefficient() == p.terms[lead]
