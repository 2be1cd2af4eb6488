"""The shared exact kernels: the one elimination (``_modp.row_reduce``)
over Q, GF(p) and Q(x), the one mod-p polynomial evaluator, and the one
seeded rejection sampler behind every point sampler.

The sampler values below are pinned: they were recorded from the
separate per-sampler loops that ``coframe.draw_seeded`` replaced, so a
change to seeding, candidate order or rejection shows up here.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coneflat import _modp, cone, xi
from coneflat.coframe import Chart, Coframe, float_points, mat_inverse, \
    mat_mul, sample_points
from coneflat.funcfield import MultiPoly, RatFunc, _fraction_mod, \
    evaluate_reduced, parse_poly, parse_ratfunc

P = 10007
VARS3 = ["x1", "x2", "x3"]

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrices(entries, min_side=1, max_side=4, square=False):
    def build(shape):
        rows, cols = shape
        return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)
    side = st.integers(min_side, max_side)
    shapes = side.map(lambda n: (n, n)) if square else st.tuples(side, side)
    return shapes.flatmap(build)


def kernel_basis(reduced, pivots, ncols, zero, one):
    """Kernel of a reduced row echelon form, one vector per free column."""
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def inverse(rows, p=None):
    """Inverse by reducing [A | I], or None when A is singular."""
    n = len(rows)
    reduced, pivots = _modp.row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)], p)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


# ---------------------------------------------------------------------------
# row_reduce over Q
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(matrices(rationals))
def test_rank_plus_kernel_dimension_over_q(rows):
    ncols = len(rows[0])
    reduced, pivots = _modp.row_reduce(rows)
    basis = kernel_basis(reduced, pivots, ncols, Fraction(0), Fraction(1))
    assert len(pivots) + len(basis) == ncols
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    for row, col in zip(reduced, pivots):
        assert row[col] == 1
        assert all(other[col] == 0 for other in reduced if other is not row)


@settings(max_examples=60, deadline=None)
@given(matrices(rationals, square=True))
def test_inverse_times_matrix_is_identity_over_q(rows):
    n = len(rows)
    inv = inverse(rows)
    if inv is None:
        assert _modp.determinant(rows) == 0
        return
    for i in range(n):
        for j in range(n):
            assert sum(inv[i][t] * rows[t][j] for t in range(n)) == (1 if i == j else 0)


@settings(max_examples=40, deadline=None)
@given(matrices(rationals, square=True))
def test_rank_and_determinant_agree_with_sympy(rows):
    sympy = pytest.importorskip("sympy")
    reference = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                              for row in rows])
    assert len(_modp.row_reduce(rows)[1]) == reference.rank()
    det = _modp.determinant(rows)
    assert det == Fraction(int(reference.det().p), int(reference.det().q))


# ---------------------------------------------------------------------------
# row_reduce over GF(p)
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(matrices(st.integers(-3 * P, 3 * P), max_side=6))
def test_rank_plus_kernel_dimension_over_gf_p(rows):
    ncols = len(rows[0])
    reduced, pivots = _modp.row_reduce(rows, P)
    assert (reduced, pivots) == _modp.rref_mod(rows, P)
    basis = _modp.kernel_mod(rows, ncols, P)
    assert len(pivots) + len(basis) == ncols
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) % P == 0


@settings(max_examples=60, deadline=None)
@given(matrices(st.integers(0, P - 1), max_side=5, square=True))
def test_inverse_times_matrix_is_identity_over_gf_p(rows):
    n = len(rows)
    inv = inverse(rows, P)
    if inv is None:
        assert _modp.rank(rows, P) < n
        return
    for i in range(n):
        for j in range(n):
            assert sum(inv[i][t] * rows[t][j] for t in range(n)) % P == (1 if i == j else 0)


# ---------------------------------------------------------------------------
# row_reduce over Q(x)
# ---------------------------------------------------------------------------

linear_forms = st.tuples(st.integers(-2, 2), st.integers(-1, 1), st.integers(-1, 1)).map(
    lambda c: RatFunc(MultiPoly(2, {(0, 0): Fraction(c[0]), (1, 0): Fraction(c[1]),
                                    (0, 1): Fraction(c[2])})))


@settings(max_examples=25, deadline=None)
@given(matrices(linear_forms, min_side=2, max_side=3, square=True))
def test_inverse_times_matrix_is_identity_over_rational_functions(rows):
    n = len(rows)
    det = _modp.determinant(rows)
    if det.is_zero():
        assert len(_modp.row_reduce(rows)[1]) < n
        return
    product = mat_mul(mat_inverse(rows), rows)
    for i in range(n):
        for j in range(n):
            assert product[i][j] == (1 if i == j else 0)
    point = (Fraction(1, 3), Fraction(-2, 5))
    if det.den.evaluate(point) != 0:
        values = [[entry.evaluate(point) for entry in row] for row in rows]
        assert det.evaluate(point) == _modp.determinant(values)


@settings(max_examples=25, deadline=None)
@given(matrices(linear_forms, min_side=1, max_side=3))
def test_rank_plus_kernel_dimension_over_rational_functions(rows):
    ncols = len(rows[0])
    reduced, pivots = _modp.row_reduce(rows)
    basis = kernel_basis(reduced, pivots, ncols, RatFunc.const(2, 0), RatFunc.const(2, 1))
    assert len(pivots) + len(basis) == ncols
    for vec in basis:
        for row in rows:
            acc = RatFunc.const(2, 0)
            for a, b in zip(row, vec):
                acc = acc + a * b
            assert acc.is_zero()


# ---------------------------------------------------------------------------
# the mod-p evaluator
# ---------------------------------------------------------------------------

exponents = st.tuples(*[st.integers(0, 3)] * 3)
coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(
    lambda c: c.denominator % P != 0)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(exponents, coefficients, max_size=6),
       st.lists(st.integers(-2 * P, 2 * P) | st.just(0), min_size=3, max_size=3))
def test_evaluate_mod_is_evaluate_reduced_mod_p(terms, point):
    poly = MultiPoly(3, terms)
    exact = poly.evaluate([Fraction(v) for v in point])
    assert poly.evaluate_mod(point, P) == _fraction_mod(exact, P)
    assert evaluate_reduced(poly.reduce_mod_prime(P), point, P) == _fraction_mod(exact, P)


# ---------------------------------------------------------------------------
# the seeded sampler: values pinned from the per-sampler loops it replaced
# ---------------------------------------------------------------------------

AVOID = [parse_poly("x1*x2 - x3", VARS3), parse_poly("x2", VARS3)]
FERMAT4 = parse_poly("x1^4 + x2^4 + x3^4", VARS3)


def test_sample_points_pinned():
    F = Fraction
    assert sample_points(Chart.standard(3), 4, seed=11, avoid=AVOID) == [
        (F(3, 10), F(5, 3), F(-1)), (F(-1), F(-9, 8), F(7, 6)),
        (F(-1, 3), F(2), F(-3, 4)), (F(4, 3), F(7), F(-5, 6))]


def test_float_points_pinned():
    expected = [(0.617324591663484, -0.5857654598063606, 0.0594614897085618),
                (-0.35114807195093134, 0.6478420675333019, -0.0861909835332153),
                (0.32335481741458105, -0.08143177181796057, 0.5286220939638067)]
    assert float_points(Chart.standard(3), 3, seed=11, avoid=AVOID) == expected


def test_sample_variety_points_modp_pinned():
    assert xi.sample_variety_points_modp(FERMAT4, 10007, 3, seed=11) == [
        ((8032, 3863, 5107), (7873, 8864, 6774)),
        ((25, 3763, 10006), (2458, 949, 10003)),
        ((1623, 9314, 4894), (3308, 996, 6949))]


def test_sample_variety_points_complex_pinned():
    expected = [
        ([-0.07217099704763717 - 0.6371860223863206j, -0.3384238219910721 + 0.4776453515792885j,
          -0.3504101729310392 + 0.3511727005203302j],
         [0.350118662751412 + 0.9949788927243053j, 0.7714771206626629 + 0.22057083045324455j,
          0.34645685584243074 + 0.3442048754823449j]),
        ([0.20408106840491214 - 0.3227717278031382j, 0.44551203091995983 + 0.47046055331270764j,
          0.659052152134415 + 0.0023426691947096533j],
         [-0.22113872110129051 - 0.026810270763347313j, -0.8295762393300262 + 0.7040155704849641j,
          1.1449931183609976 + 0.01221040161877451j])]
    got = xi.sample_variety_points_complex(FERMAT4, 2, seed=11)
    assert len(got) == len(expected)
    for (u, grad), (u_want, grad_want) in zip(got, expected):
        assert list(u) == pytest.approx(u_want, rel=1e-9, abs=1e-12)
        assert list(grad) == pytest.approx(grad_want, rel=1e-9, abs=1e-12)


def test_sample_cone_pinned():
    s = parse_ratfunc("1/(1 - x1)", VARS3)
    zero = parse_ratfunc("0", VARS3)
    cf = Coframe(Chart.standard(3), [[s if i == j else zero for j in range(3)]
                                     for i in range(3)])
    cs = cone.adapted_cone(cf, cone.Hypersurface(parse_poly("x1^2 + x2^2 - x3^2", VARS3)))
    assert cone.sample_cone(cs, 3, seed=11, field=13) == [
        ((6, 11, 4), (11, 3, 0)), ((5, 0, 12), (9, 12, 2)), ((9, 12, 4), (0, 6, 7))]
