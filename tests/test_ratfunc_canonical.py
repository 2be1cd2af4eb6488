"""The reduced form of RatFunc: the gcd over Z[x], the coprime factor
base of denominators, and the uniqueness of (num, den) that == and hash
rely on."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from coneflat import cone
from coneflat.coframe import (
    Chart,
    check_dual_relations,
    check_geodesic_identities,
    random_polynomial_coframe,
    structure_function,
    tangent_dual_frame,
)
from coneflat import _modp
from coneflat.funcfield import (
    MultiPoly,
    RatFunc,
    _merge,
    _new_factors,
    _prs_gcd,
    parse_poly,
    parse_ratfunc,
    poly_gcd,
    set_term_bound,
    term_bound,
    DEFAULT_TERM_BOUND,
)
from test_coframe import bracket_identity_oracle, double_bracket_oracle, \
    reconstruction_oracle

N = 3
VARS = ("x1", "x2", "x3")

small_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * N),
                              st.integers(-4, 4), max_size=4).map(lambda t: MultiPoly(N, t))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())
nonconstant_polys = small_polys.filter(lambda p: not p.is_constant())


def lead_sign(p: MultiPoly) -> int:
    return 1 if p.coeffs[max(p.coeffs, key=lambda e: (sum(e), e))] > 0 else -1


def associate(p: MultiPoly, q: MultiPoly) -> bool:
    """p = u q for a nonzero rational u."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    ratio = p.divide_exact(q)
    return ratio is not None and ratio.is_constant()


def is_primitive(p: MultiPoly) -> bool:
    from math import gcd
    return p.den == 1 and gcd(*p.coeffs.values()) == 1 and lead_sign(p) > 0


# -- the hash/eq contract -------------------------------------------------------

def test_equal_values_hash_alike():
    a = parse_ratfunc("(x1*x2-x1*x3)/(x2^2-x3^2)", VARS)
    b = parse_ratfunc("x1/(x2+x3)", VARS)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert (a.num, a.den) == (b.num, b.den)


# -- the gcd ------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(small_polys, small_polys, nonzero_polys)
def test_gcd_scales_with_a_common_factor(a, b, c):
    assume(not (a.is_zero() and b.is_zero()))
    g = poly_gcd(a * c, b * c)
    assert is_primitive(g)
    assert associate(g, c * poly_gcd(a, b))
    # the exact fallback agrees with the heuristic
    if not a.is_zero() and not b.is_zero():
        assert associate(_prs_gcd(a * c, b * c), g)


@settings(max_examples=60, deadline=None)
@given(nonconstant_polys, nonconstant_polys, nonconstant_polys)
def test_gcd_divides_both_and_cofactors_are_coprime(a, b, c):
    g = poly_gcd(a * c, b * c)
    ca, cb = (a * c).divide_exact(g), (b * c).divide_exact(g)
    assert ca is not None and cb is not None
    assert poly_gcd(ca, cb).is_constant()


# -- the coprime factor base ------------------------------------------------------

def multiplicity(p: MultiPoly, f: MultiPoly) -> tuple[int, MultiPoly]:
    m = 0
    while (q := p.divide_exact(f)) is not None:
        p, m = q, m + 1
    return m, p


@settings(max_examples=80, deadline=None)
@given(st.lists(nonconstant_polys, min_size=1, max_size=3),
       st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_refinement_gives_a_coprime_base_of_the_inputs(polys, powers):
    inputs = [p ** k for p, k in zip(polys, powers)]
    merged = ()
    for p in inputs:
        unit, factors = _new_factors(p, merged)
        rebuilt = MultiPoly.const(N, unit)
        for f, e in factors:
            rebuilt = rebuilt * f.poly ** e
        assert rebuilt == p
        merged = tuple((row[0], 1) for row in _merge(merged, factors))
    base = [f.poly for f, _ in merged]
    for i, f in enumerate(base):
        assert is_primitive(f) and not f.is_constant()
        common = f
        for j in range(N):
            common = poly_gcd(common, f.diff(j))
        assert common.is_constant()                             # squarefree
        for g in base[i + 1:]:
            assert poly_gcd(f, g).is_constant()                 # pairwise coprime
    for p in inputs:
        rest = p
        for f in base:
            _, rest = multiplicity(rest, f)
        assert rest.is_constant()                               # a product of the base


# -- uniqueness of (num, den) ----------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(nonzero_polys, nonconstant_polys, nonzero_polys, nonconstant_polys,
       nonzero_polys, st.integers(0, N - 1))
def test_reduced_pair_does_not_depend_on_the_order_of_operations(a, b, c, d, e, index):
    ra, rc, re_ = RatFunc(a, b), RatFunc(c, d), RatFunc(e)
    rb, rd = RatFunc(b), RatFunc(d)
    pairs = [
        ((ra + rc) * re_, ra * re_ + re_ * rc),
        ((ra - rc) / re_, ra / re_ - rc / re_),
        (ra * rc / rc, ra),
        (RatFunc(a * d + c * b, b * d), rc + ra),
        (RatFunc(a * e, b * e), ra),
        ((ra * rc).diff(index), ra.diff(index) * rc + ra * rc.diff(index)),
        ((ra / rb).diff(index), (ra.diff(index) * rb - ra * rb.diff(index)) / (rb * rb)),
        ((ra ** 2) ** -1, (1 / ra) * (1 / ra)),
        (ra.lift(N + 1, [2, 0, 1]) * rd.lift(N + 1, [2, 0, 1]),
         (ra * rd).lift(N + 1, [2, 0, 1])),
    ]
    for x, y in pairs:
        assert (x.num, x.den) == (y.num, y.den)
        assert hash(x) == hash(y)
        assert x.den.is_zero() is False and (x.den.is_constant() or is_primitive(x.den))


@pytest.mark.parametrize("text", [
    "(x1^2 - x2^2)/(x1 + x2)",
    "(x1*x2 + x3)^3/((x1*x2 + x3)^2*(x1 - 1))",
    "1/(x1^2*x2) + 1/(x1*x2^2)",
    "(x1^2 + 2*x1*x2 + x2^2)/(3*x1^2 - 3*x2^2)",
    "(x2 - x3)/(x2 - x3)^4 - 1/((x2 - x3)^2*(x3 - x2))",
])
def test_reduced_form_against_sympy(text):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(VARS)
    r = parse_ratfunc(text, VARS)
    expected = sympy.cancel(sympy.sympify(text.replace("^", "**")))
    num, den = sympy.fraction(sympy.together(expected))
    got = sympy.sympify(r.num.to_string().replace("^", "**")) / \
        sympy.sympify(r.den.to_string().replace("^", "**"))
    assert sympy.simplify(got - num / den) == 0
    # reduced: the same total degrees as sympy's cancelled pair
    assert r.den.total_degree() == sympy.Poly(den, *symbols).total_degree()
    assert r.num.total_degree() == sympy.Poly(num, *symbols).total_degree()


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_gcd_against_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(VARS)

    def to_sympy(p):
        return sympy.Poly(sympy.sympify(p.to_string().replace("^", "**")), *symbols)

    expected = sympy.gcd(to_sympy(a), to_sympy(b))
    got = to_sympy(poly_gcd(a, b))
    assert got.total_degree() == expected.total_degree()
    assert sympy.rem(got, expected).is_zero and sympy.rem(expected, got).is_zero


# -- the n = 4 coframe that overflowed the term bound ---------------------------------

def n4_cone_structure(unimodular: bool) -> cone.ConeStructure:
    """The "n4seed" coframe on the n = 4 Fermat quartic; the double
    bracket does not read the hypersurface, so its smoothness is not
    computed here."""
    cf = random_polynomial_coframe(Chart.standard(4), random.Random("n4seed"),
                                   unimodular=unimodular)
    z = cone.Hypersurface(parse_poly("x1^4 + x2^4 + x3^4 + x4^4", ("x1", "x2", "x3", "x4")))
    return cone.ConeStructure(cf, z)


def test_n4_coframe_identities_under_the_default_term_bound():
    # both "n4seed" coframes: every proof, and the brute-force oracles
    # agree with it: the reconstruction through A, the tangent frames
    # with -B E B, the n brackets and the double brackets on them
    assert term_bound() == DEFAULT_TERM_BOUND
    for unimodular in (True, False):
        cs = n4_cone_structure(unimodular)
        ic = cs.induced
        assert all(check_dual_relations(ic).values())
        assert all(check_geodesic_identities(ic).values())
        assert cone.double_bracket_check(cs).verdict
        assert reconstruction_oracle(cs.coframe, structure_function(cs.coframe))
        assert double_bracket_oracle(cs, tangent_dual_frame(ic))


def test_n4_coframe_identities_under_a_tenth_of_the_default_term_bound():
    # the pairing proof at n x n and the closed-form gamma keep every
    # expression of this coframe under 10,000 terms, and so do the
    # tangent frames and the brute-force brackets on them (the default
    # bound test adds the double brackets)
    cs = n4_cone_structure(unimodular=False)
    saved = term_bound()
    set_term_bound(10_000)
    try:
        ic = cs.induced
        assert all(check_dual_relations(ic).values())
        assert all(check_geodesic_identities(ic).values())
        assert cone.double_bracket_check(cs).verdict
        assert bracket_identity_oracle(ic, tangent_dual_frame(ic))
    finally:
        set_term_bound(saved)


# -- the induced determinant, and a double bracket at a pole --------------------------

def test_induced_coframe_determinant_is_the_square_of_the_base():
    cf = random_polynomial_coframe(Chart.standard(3), random.Random("det"), unimodular=False)
    ic = cf.induced
    assert _modp.determinant(ic.matrix) == ic.lift(cf.det) ** 2


def test_double_bracket_on_a_coframe_with_a_pole_draws_no_point(monkeypatch):
    # A has its pole at x1 = 1; the verdict is proved, so no cone point
    # is drawn and none can meet the pole
    a = parse_ratfunc("1/(1 - x1)", VARS)
    zero = RatFunc.const(N, 0)
    from coneflat.coframe import Coframe
    cf = Coframe(Chart.standard(3), [[a, zero, zero], [zero, a, zero], [zero, zero, a]])
    z = cone.Hypersurface(parse_poly("x1^4 + x2^4 + x3^4", VARS))
    cs = cone.adapted_cone(cf, z)

    def refuse(*args, **kwargs):
        raise AssertionError("the double bracket drew cone points")

    monkeypatch.setattr(cone, "sample_cone", refuse)
    assert cone.double_bracket_check(cs, samples=4, seed=1).verdict
