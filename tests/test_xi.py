"""Tests for the Hom(L^2 V, V) tensor layer and the Xi subspaces.

The exact Xi_Z (ideal membership) is cross-checked against three
oracles in this file: the sampled kernel over GF(p), built here from
cone points and tangent vectors, with the same RREF; a sympy Groebner
basis of (f, grad f . v), modulo which every rational basis tensor's
G_sigma reduces to 0; and, for the Fermat quartic, complete enumeration
of the projective points over GF(10007) with its own row reduction,
sharing no code with the package's sampler or linear algebra.  The
exact degeneracy probes are checked against their sampled versions:
the GF(p) ranks of sampled cone points and of tangent wedges u ^ v.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coneflat import _modp, cone, xi
from coneflat.coframe import Chart, Coframe, StructureFunction, \
    random_polynomial_coframe, sample_points, structure_function
from coneflat.funcfield import MultiPoly, RatFunc, parse_poly, parse_ratfunc

VARS3 = ["x1", "x2", "x3"]
P1, P2 = xi.DEFAULT_PRIMES


def fermat_quartic():
    return parse_poly("x1^4 + x2^4 + x3^4", VARS3)


def rfc(text: str, names=VARS3) -> RatFunc:
    return parse_ratfunc(text, names)


def coframe_from_strings(rows, names=VARS3, base=None) -> Coframe:
    chart = Chart(len(names), tuple(names),
                  tuple(base or [Fraction(0)] * len(names)))
    return Coframe(chart, [[rfc(e, names) for e in row] for row in rows])


def heisenberg_coframe() -> Coframe:
    return coframe_from_strings([["1", "0", "0"],
                                 ["0", "1", "0"],
                                 ["0", "x1", "1"]])


def rescaled_coframe() -> Coframe:
    e = "1/(1 - x1)"
    return coframe_from_strings([[e, "0", "0"], ["0", e, "0"], ["0", "0", e]])


# ---------------------------------------------------------------------------
# tensor plumbing
# ---------------------------------------------------------------------------

def test_coordinate_layout_n3():
    assert xi.pair_list(3) == [(0, 1), (0, 2), (1, 2)]
    assert xi.coordinate_triples(3) == [
        (0, 0, 1), (0, 0, 2), (0, 1, 2),
        (1, 0, 1), (1, 0, 2), (1, 1, 2),
        (2, 0, 1), (2, 0, 2), (2, 1, 2)]
    assert xi.coordinate_dim(3) == 9
    assert xi.coordinate_dim(4) == 24
    assert xi.coordinate_dim(6) == 90


def test_hom_tensor_antisymmetric_access():
    t = xi.HomTensor(3, {(2, 0, 1): Fraction(5)})
    assert t.get(2, 0, 1) == 5
    assert t.get(2, 1, 0) == -5
    assert t.get(2, 1, 1) == 0
    assert t.get(0, 0, 1) == 0
    with pytest.raises(xi.XiError):
        xi.HomTensor(3, {(0, 1, 0): Fraction(1)})


def test_from_coordinates_round_trip():
    rng = random.Random(20260825)
    for n in (3, 4):
        vec = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
               for _ in range(xi.coordinate_dim(n))]
        t = xi.HomTensor.from_coordinates(n, vec)
        assert t.coordinates() == vec


def test_prime_field_components_are_normalized():
    t = xi.HomTensor(3, {(0, 0, 1): -3, (1, 0, 2): 7 * P1}, P1)
    assert t.get(0, 0, 1) == P1 - 3
    assert (1, 0, 2) not in t.c
    assert t == xi.HomTensor(3, {(0, 0, 1): P1 - 3}, P1)


def test_apply_matches_componentwise_double_sum():
    rng = random.Random(7)
    n = 4
    comps = {}
    for (k, i, j) in xi.coordinate_triples(n):
        comps[(k, i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    t = xi.HomTensor(n, comps)
    u = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    v = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    got = t.apply(u, v)
    # independent form: sum over all ordered pairs via the signed accessor
    for k in range(n):
        direct = sum(t.get(k, i, j) * u[i] * v[j]
                     for i in range(n) for j in range(n))
        assert got[k] == direct
    flipped = t.apply(v, u)
    assert all(a == -b for a, b in zip(got, flipped))


# ---------------------------------------------------------------------------
# the contraction map
# ---------------------------------------------------------------------------

def test_iota_closed_form_matches_definition():
    rng = random.Random(11)
    for n in (3, 4, 5):
        eta = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        t = xi.iota(eta)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    expected = eta[i] * (1 if k == j else 0) \
                        - eta[j] * (1 if k == i else 0)
                    assert t.get(k, i, j) == expected


def test_iota_wedge_identity_on_model_coframes():
    for cf in (coframe_from_strings([["1", "0", "0"], ["0", "1", "0"],
                                     ["0", "0", "1"]]),
               heisenberg_coframe(), rescaled_coframe()):
        assert xi.check_iota_identity([Fraction(1), Fraction(-2), Fraction(3)], cf)


def test_iota_wedge_identity_random_pairs():
    rng = random.Random(20260825)
    for trial in range(6):
        n = 3 if trial % 2 == 0 else 4
        chart = Chart.standard(n)
        cf = random_polynomial_coframe(chart, rng, unimodular=(trial % 3 != 0))
        eta = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        assert xi.check_iota_identity(eta, cf)


def constant_structure(tensor: xi.HomTensor) -> StructureFunction:
    chart = Chart.standard(tensor.n)
    return StructureFunction(chart, {key: RatFunc.const(tensor.n, val)
                                     for key, val in tensor.c.items()})


def test_contraction_residual_vanishes_on_the_image():
    rng = random.Random(23)
    for n in (3, 4, 5):
        eta = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        sf = constant_structure(xi.iota(eta))
        assert [c.constant_value() for c in sf.trace_covector()] == eta
        assert sf.contraction_residual().is_zero()


def test_contraction_residual_is_the_distance_to_xi_V():
    # the Heisenberg tensor c^3_{12} = 1 is not a contraction; nor are
    # random constant tensors, whose residual norm matches the normal
    # equations of membership
    t = xi.HomTensor(3, {(2, 0, 1): Fraction(1)})
    residual = constant_structure(t).contraction_residual()
    assert residual.components == {(2, 0, 1): RatFunc.const(3, 1)}
    rng = random.Random(24)
    for n in (3, 4):
        t = xi.HomTensor.from_coordinates(
            n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(xi.coordinate_dim(n))])
        point = (Fraction(0),) * n
        sf = constant_structure(t)
        assert sf.residual_norm_sq(sf.evaluate_at(point)) \
            == xi.membership(t, xi.xi_V(n)).residual


def test_residual_norm_from_values_is_the_evaluated_residual():
    cf = random_polynomial_coframe(Chart.standard(3), random.Random(25), unimodular=False)
    sf = structure_function(cf)
    residual = sf.contraction_residual()
    assert not residual.is_zero()
    assert sf.contraction_residual() is residual
    for point in sample_points(cf.chart, 4, 25, avoid=cf.pole_polynomials()):
        assert sf.residual_norm_sq(sf.evaluate_at(point)) \
            == sum(c.evaluate(point) ** 2 for c in residual.components.values())


def test_xi_V_dimensions():
    for n in range(3, 7):
        space = xi.xi_V(n)
        assert space.dim == n
        assert space.field == "rational"
    with pytest.raises(xi.XiError):
        xi.xi_V(2)


# ---------------------------------------------------------------------------
# membership over the three fields
# ---------------------------------------------------------------------------

def test_membership_rational_member_recovers_coefficients():
    eta = [Fraction(2), Fraction(-3), Fraction(5)]
    res = xi.membership(xi.iota(eta), xi.xi_V(3))
    assert res.member
    assert res.residual == 0
    assert res.coefficients == eta


def test_membership_rational_nonmember_exact_residual():
    # every iota basis tensor vanishes in the (2, 0, 1) coordinate, so the
    # distance from the unit tensor there to Xi_V is exactly 1
    t = xi.HomTensor(3, {(2, 0, 1): Fraction(1)})
    res = xi.membership(t, xi.xi_V(3))
    assert not res.member
    assert res.residual == Fraction(1)
    assert res.coefficients is None


def test_membership_mod_p():
    space = xi.TensorSubspace(3, P1, [b.reduce_mod(P1) for b in xi.xi_V(3).basis])
    good = xi.iota([Fraction(1, 2), Fraction(3), Fraction(-1)]).reduce_mod(P1)
    res = xi.membership(good, space)
    assert res.member
    assert res.coefficients is not None
    bad = xi.HomTensor(3, {(2, 0, 1): 1}, P1)
    assert not xi.membership(bad, space).member


def test_membership_float():
    space = xi.TensorSubspace(3, "float", [b.to_float() for b in xi.xi_V(3).basis])
    good = xi.iota([Fraction(1), Fraction(2), Fraction(-7)]).to_float()
    res = xi.membership(good, space, tol=1e-8)
    assert res.member and res.residual < 1e-10
    perturbed = good + xi.HomTensor(3, {(2, 0, 1): 1e-3}, "float")
    res2 = xi.membership(perturbed, space, tol=1e-8)
    assert not res2.member
    assert 1e-4 < res2.residual < 1e-2


def test_membership_field_mismatch_raises():
    with pytest.raises(xi.XiError):
        xi.membership(xi.iota([1, 0, 0]).reduce_mod(P1), xi.xi_V(3))


def test_subspace_rejects_dependent_basis():
    b = xi.iota([Fraction(1), Fraction(0), Fraction(0)])
    with pytest.raises(xi.XiError):
        xi.TensorSubspace(3, "rational", [b, b.scale(2)])


def test_structure_functions_of_models_against_xi_V():
    """Evaluated structure tensors: rescaled lies in Xi_V pointwise with
    covector (1, 0, 0); Heisenberg never does."""
    space = xi.xi_V(3)
    point = (Fraction(1, 3), Fraction(-1, 2), Fraction(2))
    c_resc = structure_function(rescaled_coframe()).evaluate_at(point)
    t_resc = xi.HomTensor(3, dict(c_resc))
    assert xi.membership(t_resc, space).member
    c_heis = structure_function(heisenberg_coframe()).evaluate_at(point)
    t_heis = xi.HomTensor(3, dict(c_heis))
    assert not xi.membership(t_heis, space).member
    # the same verdicts as rational-function identities
    assert structure_function(rescaled_coframe()).contraction_residual().is_zero()
    heis = structure_function(heisenberg_coframe()).contraction_residual()
    assert heis.components == {(2, 0, 1): RatFunc.const(3, 1)}


# ---------------------------------------------------------------------------
# cone sampling
# ---------------------------------------------------------------------------

def test_sample_variety_points_modp_properties():
    f = fermat_quartic()
    pts = xi.sample_variety_points_modp(f, P1, 20, seed="s")
    assert len(pts) == 20
    for u, grad in pts:
        assert f.evaluate_mod(list(u), P1) == 0
        assert any(u)
        for k in range(3):
            assert grad[k] == 4 * pow(u[k], 3, P1) % P1
        assert any(grad)
    again = xi.sample_variety_points_modp(f, P1, 20, seed="s")
    assert pts == again
    other = xi.sample_variety_points_modp(f, P1, 20, seed="t")
    assert pts != other


# sha256 of repr(sample_variety_points_modp(f, p, count, "blk")): any move of
# a sampled point, or of the generator draws of poly_roots, changes them
PINNED_SAMPLE_DIGESTS = {
    ("fermat_quartic", 2147483647, 1): "e1c157f346b5e15c686692895fa8a3b049851ae09cfe7f5e1886f0731a063a22",
    ("fermat_quartic", 2147483647, 3): "dc60953d05b93441da83942bae2db03a121a4e07d7d3ac576fd804a5e3d5771d",
    ("fermat_quartic", 2147483647, 50): "3dbea003cae144d0ef55e7dedc4779728d6aa20aa576652c4b920af188a7e4b5",
    ("fermat_quartic", 2147483629, 1): "757335c430d1274e53b0f5bbabdb5ba66a124ac8c0975e6292692e903999ee19",
    ("fermat_quartic", 2147483629, 3): "ff08c555e04eabb09a02defa830e66f8fb777d661f6ed7fd0c4e3e5ee54ec876",
    ("fermat_quartic", 2147483629, 50): "b1fc04e1ddc29e9116f32b8866100518e2c35a2e40abde0d0ec2d97503221407",
    ("fermat_quartic", 10007, 1): "7fc61618d9400570d18d367fc11259c7ef3fadc0606e2b1dd2f555d72117cf25",
    ("fermat_quartic", 10007, 3): "6464536a04955394344126a8e222f782b093db1602a2c444d64786558c90b5eb",
    ("fermat_quartic", 10007, 50): "ccb3d3a73bb4c9bcde6da3cb3e9c1de470d9bdb3460146059888ebdec8258d01",
    ("fermat_quartic", 2305843009213693951, 1): "be0b87d644e9e60271c605e6997952f1236f85227175a8be578dc4a87120f862",
    ("fermat_quartic", 2305843009213693951, 3): "79955e554c27eda7635d358d474cf8a909bff45b4ab5ea88f015d5f20a3e4875",
    ("fermat_quartic", 2305843009213693951, 50): "3dca3212db9f5c4bb9eb67a8f59668f2a1ec9a13600f165a2da1c12371241bf8",
    ("random_cubic", 2147483647, 1): "3f99859ec0f520bf4c87fca7f135b056321b5624b3da80fa0e08bea8a99575bf",
    ("random_cubic", 2147483647, 3): "018538a1e78160675842f77d6504c9048bfea54c2ca9a81323bf8c875d0c4731",
    ("random_cubic", 2147483647, 50): "70523ffb46a23ed149fd697c2414cd5ce92d222501853ea3b41d4870fc06ef6c",
    ("random_cubic", 2147483629, 1): "f67f3d2eff395e60aa21c31925ecd709102038f50a8a3b90977f0df581595978",
    ("random_cubic", 2147483629, 3): "c98d15c279e7c2bdf5a09171ecbdf14b248d0be38fcbfbb253bf2c30b86328ff",
    ("random_cubic", 2147483629, 50): "ef429eeeda15fc487043d563e66d0a59f9de6fe5cdc26e4853f18b95cb1cb8cc",
    ("random_cubic", 10007, 1): "113bd14951d1d6ecd7e7e5496ae7bd36234092136e46d079e3938148eaa7bd5f",
    ("random_cubic", 10007, 3): "fc11a6e660280fffe5850ce3006489db749d5d37380509ccf7709bab2bd2ab47",
    ("random_cubic", 10007, 50): "f80571e6ef5fa18575920a9863142c1f61737e82dcd8871482d0ba2fac62c197",
    ("random_cubic", 2305843009213693951, 1): "e532ad2e440823c1bd39a6e2e73d1736123d49ee8b2ee9c3288b960332c3062c",
    ("random_cubic", 2305843009213693951, 3): "47938efa2625387411f4bded46ec6b490425aabc77c9b8370abb309dcfa077e7",
    ("random_cubic", 2305843009213693951, 50): "bedb36ef4c1052f5dfe36f1803ed2ff1c799163c6c1d87f0a0c591ec16040aaa",
}


def random_cubic():
    rng = random.Random("block-cubic")
    terms = []
    for a in range(4):
        for b in range(4 - a):
            terms.append(f"{rng.randint(-5, 5)}*x1^{a}*x2^{b}*x3^{3 - a - b}")
    return parse_poly(" + ".join(terms), VARS3)


@pytest.mark.parametrize("variety,p,count", list(PINNED_SAMPLE_DIGESTS),
                         ids=[f"{v}-{p}-{c}" for v, p, c in PINNED_SAMPLE_DIGESTS])
def test_sampled_points_match_pinned_digests(variety, p, count):
    f = fermat_quartic() if variety == "fermat_quartic" else random_cubic()
    points = xi.sample_variety_points_modp(f, p, count, "blk")
    assert len(points) == count
    assert hashlib.sha256(repr(points).encode()).hexdigest() == \
        PINNED_SAMPLE_DIGESTS[variety, p, count]


def test_sampler_stops_at_the_limit_with_the_message(monkeypatch):
    # every point of x1^4 = 0 has a zero gradient, so every candidate fails
    solved = []
    real = _modp.poly_roots

    def counting(coeffs, p_, rng):
        solved.append(coeffs)
        return real(coeffs, p_, rng)

    monkeypatch.setattr(_modp, "poly_roots", counting)
    with pytest.raises(xi.VarietySamplingError) as excinfo:
        xi.sample_variety_points_modp(parse_poly("x1^4", VARS3), P1, 5, seed=0)
    assert str(excinfo.value) == f"found 0 of 5 cone points mod {P1} after 750 tries"
    assert len(solved) == 750


def test_sample_variety_points_complex():
    f = fermat_quartic()
    pts = xi.sample_variety_points_complex(f, 12, seed=0)
    assert len(pts) == 12
    for u, grad in pts:
        assert abs(f.evaluate(list(u))) < 1e-10
        assert abs(abs(u[0]) ** 2 + abs(u[1]) ** 2 + abs(u[2]) ** 2 - 1) < 1e-9
        for k in range(3):
            assert abs(grad[k] - 4 * u[k] ** 3) < 1e-9


def test_sampling_error_when_every_point_is_singular():
    f = parse_poly("x1^4", VARS3)
    with pytest.raises(xi.VarietySamplingError):
        xi.sample_variety_points_modp(f, P1, 5, seed=0)


def test_assemble_constraints_annihilate_contraction_image():
    f = fermat_quartic()
    batch = xi.assemble_xiZ_constraints(f, 15, seed="rows")
    assert len(batch.rows) == 2 * 15  # n - 1 tangent basis vectors per point
    for (u, v), row in zip(batch.provenance, batch.rows):
        assert abs(f.evaluate(list(u))) < 1e-10
        grad = [4 * c ** 3 for c in u]
        assert abs(sum(g * w for g, w in zip(grad, v))) < 1e-9
        assert len(row) == 9
    rng = random.Random(5)
    for _ in range(4):
        eta = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        vec = xi.iota(eta).to_float().coordinates()
        for row in batch.rows:
            assert abs(sum(r * c for r, c in zip(row, vec))) < 1e-8


# ---------------------------------------------------------------------------
# Xi_Z by ideal membership, against a sampled kernel and a Groebner basis
# ---------------------------------------------------------------------------

# the eight fixed benchmark varieties and the random cubic and quartic
# drawn by the benchmark for seeds 1 and 2
BENCH_VARIETIES = [
    ("fermat_n3_d3", "x1^3 + x2^3 + x3^3"),
    ("fermat_n3_d4", "x1^4 + x2^4 + x3^4"),
    ("fermat_n3_d5", "x1^5 + x2^5 + x3^5"),
    ("fermat_n4_d3", "x1^3 + x2^3 + x3^3 + x4^3"),
    ("fermat_n4_d4", "x1^4 + x2^4 + x3^4 + x4^4"),
    ("fermat_n5_d3", "x1^3 + x2^3 + x3^3 + x4^3 + x5^3"),
    ("klein_quartic", "x1^3*x2 + x2^3*x3 + x3^3*x1"),
    ("quadric_n4", "x1^2 + x2^2 + x3^2 + x4^2"),
    ("cubic_seed1", "3*x1^3+3*x1^2*x2+2*x1^2*x3+x1*x2*x3+x1*x3^2-x2^3+2*x2^2*x3"
                    "+x2*x3^2-x3^3"),
    ("quartic_seed1", "-3*x1^4-x1^3*x2+x1^3*x3+x1^2*x2^2-3*x1^2*x2*x3+2*x1^2*x3^2"
                      "+x1*x2^3+2*x1*x2^2*x3+3*x1*x2*x3^2-3*x1*x3^3-2*x2^4-2*x2^3*x3"
                      "-x2^2*x3^2-x2*x3^3+x3^4"),
    ("cubic_seed2", "-2*x1^3-x1^2*x2-2*x1^2*x3+x1*x2^2+x1*x3^2+x2^3+2*x2^2*x3"
                    "-2*x2*x3^2"),
    ("quartic_seed2", "3*x1^4-x1^3*x2-2*x1^3*x3+2*x1^2*x2*x3+x1^2*x3^2+3*x1*x2^2*x3"
                      "-3*x1*x2*x3^2-3*x1*x3^3-3*x2^4+3*x2^3*x3+x2^2*x3^2+x2*x3^3"
                      "-x3^4"),
]


def form(text: str):
    names = [f"x{i + 1}" for i in range(5) if f"x{i + 1}" in text]
    return parse_poly(text, names)


def sampled_constraint_rref(f, p: int, seed):
    """The sampled kernel as an oracle: one row grad f(u) . sigma(u, v)
    per GF(p) cone point u and tangent-basis vector v, over twice as many
    points as there are tensor coordinates, in RREF."""
    n = f.nvars
    rows = []
    for u, grad in xi.sample_variety_points_modp(f, p, 2 * xi.coordinate_dim(n), seed):
        for v in _modp.kernel_of_row_mod(grad, p):
            rows.append([grad[k] * (u[i] * v[j] - u[j] * v[i]) % p
                         for (k, i, j) in xi.coordinate_triples(n)])
    return _modp.rref_mod(rows, p)[0]


def assert_matches_sampled_kernel(f, seed):
    space = xi.xi_Z(f, xi.XiConfig(seed=seed))
    exact = [b.coordinates() for b in space.basis]
    oracle = sampled_constraint_rref(f, P1, seed)
    for row in oracle:
        for vec in exact:
            assert sum(r * c for r, c in zip(row, vec)) % P1 == 0
    # the annihilator of the exact basis, in RREF
    annihilator = _modp.kernel_mod(exact, xi.coordinate_dim(f.nvars), P1)
    assert _modp.rref_mod(annihilator, P1)[0] == oracle
    return space


@pytest.mark.parametrize("name,text", BENCH_VARIETIES, ids=[v[0] for v in BENCH_VARIETIES])
def test_xi_Z_exact_matches_sampled_kernel_on_bench_varieties(name, text):
    f = form(text)
    space = assert_matches_sampled_kernel(f, seed=name)
    assert space.meta["method"] == "ideal_membership"
    assert space.meta["stable"] and space.meta["contains_xi_V"]
    expected = 8 if name == "quadric_n4" else f.nvars
    assert space.dim == expected
    assert space.meta["proves_xi_V"] == (expected == f.nvars)


def smooth_forms(n: int, d: int):
    """Fermat plus random integer terms, kept when the Macaulay matrix has
    full rank mod the first prime, which proves the form smooth."""
    monomials = cone._monomials(n, d)

    def build(coeffs):
        terms = {exp: Fraction(c) for exp, c in zip(monomials, coeffs) if c}
        for i in range(n):
            exp = tuple(d if k == i else 0 for k in range(n))
            terms[exp] = terms.get(exp, 0) + 1
        return MultiPoly(n, terms)

    def smooth(f):
        if f.is_zero():
            return False
        rows, ncols = cone._macaulay_matrix(cone.Hypersurface(f))
        return _modp.rank(rows, P1) == ncols

    coeffs = st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials))
    return coeffs.map(build).filter(smooth)


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (4, 4)])
def test_xi_Z_exact_matches_sampled_kernel_on_random_smooth_forms(n, d):
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(smooth_forms(n, d))
    def check(f):
        assert_matches_sampled_kernel(f, seed=f"h{n}{d}")

    check()


def test_xi_Z_rational_members_reduce_to_zero_modulo_groebner_basis():
    sympy = pytest.importorskip("sympy")
    text = BENCH_VARIETIES[8][1]
    space = xi.xi_Z(form(text), xi.XiConfig(backend="rational"))
    assert space.field == "rational" and space.dim == 3
    u = sympy.symbols("u1:4")
    v = sympy.symbols("v1:4")
    f = sympy.sympify(text.replace("^", "**").replace("x", "u"))
    grad = [sympy.diff(f, x) for x in u]
    basis = sympy.groebner([f, sum(g * w for g, w in zip(grad, v))], *u, *v,
                           order="grevlex")

    def g_sigma(t):
        return sympy.expand(sum(grad[k] * sum(sympy.Rational(t.get(k, i, j)) * u[i] * v[j]
                                              for i in range(3) for j in range(3))
                                for k in range(3)))

    for t in space.basis:
        assert basis.reduce(g_sigma(t))[1] == 0
    # the Heisenberg tensor is no member
    assert basis.reduce(g_sigma(xi.HomTensor(3, {(2, 0, 1): Fraction(1)})))[1] != 0


# ---------------------------------------------------------------------------
# Xi_Z for the Fermat quartic
# ---------------------------------------------------------------------------

def test_xi_Z_fermat_two_primes():
    space = xi.xi_Z(fermat_quartic(), xi.XiConfig(samples=40, seed=1))
    assert space.dim == 3
    assert space.field == P1
    assert space.meta["method"] == "ideal_membership"
    assert space.meta["stable"]
    assert space.meta["contains_xi_V"] and space.meta["proves_xi_V"]
    assert space.meta["dims"] == {str(P1): 3, str(P2): 3}
    assert not any(key.startswith("samples") for key in space.meta)


def test_xi_Z_fermat_float_backend():
    space = xi.xi_Z(fermat_quartic(),
                    xi.XiConfig(backend="float", samples=40, seed=2))
    assert space.dim == 3
    assert space.field == "float"
    assert space.meta["contains_xi_V"]
    assert space.meta["stable"]


def test_xi_Z_fermat_float_backend_stable_is_checked(monkeypatch):
    svd = np.linalg.svd

    def one_rank_short(a, *args, **kwargs):
        # zero the smallest nonzero singular value: one extra kernel vector
        u, svals, vh = svd(a, *args, **kwargs)
        svals = svals.copy()
        svals[np.flatnonzero(svals > 1e-8 * svals[0])[-1]] = 0.0
        return u, svals, vh

    monkeypatch.setattr(np.linalg, "svd", one_rank_short)
    space = xi.xi_Z(fermat_quartic(), xi.XiConfig(backend="float", samples=40, seed=2))
    assert space.dim == 4
    assert not space.meta["stable"]


def test_xi_Z_rational_backend_dimensions():
    fermat = xi.xi_Z(fermat_quartic(), xi.XiConfig(backend="rational"))
    assert fermat.field == "rational" and fermat.dim == 3
    assert fermat.meta["dims"] == {"rational": 3}
    assert fermat.meta["proves_xi_V"] and fermat.meta["contains_xi_V"]
    for b in xi.xi_V(3).basis:
        assert xi.membership(b, fermat).member
    quadric = xi.xi_Z(form("x1^2 + x2^2 + x3^2 + x4^2"), xi.XiConfig(backend="rational"))
    assert quadric.dim == 8
    assert quadric.meta["contains_xi_V"] and not quadric.meta["proves_xi_V"]


@pytest.mark.parametrize("text,names", [("x1*(x2^2 + x3^2)", VARS3),
                                        ("x1^3 + x2^3", ["x1", "x2"])])
def test_xi_Z_requires_smooth_Z_with_n_at_least_3(text, names):
    for backend in ("modp", "rational", "float"):
        with pytest.raises(xi.XiError):
            xi.xi_Z(parse_poly(text, names), xi.XiConfig(backend=backend))


def _oracle_fermat_kernel(p: int = 10007):
    """Brute-force kernel over GF(p): enumerate every projective point of
    x^4 + y^4 + z^4 = 0 via a fourth-power table, build all tangency
    rows, and row-reduce with local code only."""
    fourth = defaultdict(list)
    for s in range(p):
        fourth[pow(s, 4, p)].append(s)
    points = [(0, 1, s) for s in fourth[(p - 1) % p]]
    for t in range(p):
        need = (-1 - pow(t, 4, p)) % p
        points.extend((1, t, s) for s in fourth[need])
    triples = [(k, i, j) for k in range(3) for (i, j) in ((0, 1), (0, 2), (1, 2))]

    rref: list[list[int]] = []

    def insert(row):
        row = [v % p for v in row]
        for existing in rref:
            lead = next(i for i, v in enumerate(existing) if v)
            if row[lead]:
                f = row[lead]
                row = [(a - f * b) % p for a, b in zip(row, existing)]
        if any(row):
            lead = next(i for i, v in enumerate(row) if v)
            inv = pow(row[lead], p - 2, p)
            rref.append([v * inv % p for v in row])

    iota_vecs = []
    for a in range(3):
        comps = {}
        for i in range(3):
            for j in range(i + 1, 3):
                comps[(j, i, j)] = comps.get((j, i, j), 0) + (1 if i == a else 0)
                comps[(i, i, j)] = comps.get((i, i, j), 0) - (1 if j == a else 0)
        iota_vecs.append([comps.get(t, 0) % p for t in triples])

    violations = 0
    for u in points:
        g = [4 * pow(c, 3, p) % p for c in u]
        m = next(i for i, v in enumerate(g) if v)
        inv = pow(g[m], p - 2, p)
        for i in range(3):
            if i == m:
                continue
            v = [0, 0, 0]
            v[i] = 1
            v[m] = (-g[i] * inv) % p
            row = [g[k] * (u[a] * v[b] - u[b] * v[a]) % p for (k, a, b) in triples]
            insert(row)
            for vec in iota_vecs:
                if sum(r * c for r, c in zip(row, vec)) % p:
                    violations += 1
    return len(points), 9 - len(rref), violations


def test_xi_Z_matches_brute_force_enumeration():
    npoints, oracle_dim, oracle_violations = _oracle_fermat_kernel(10007)
    assert npoints > 0
    assert oracle_violations == 0
    space = xi.xi_Z(fermat_quartic(),
                    xi.XiConfig(primes=(10007, P2), samples=40, seed=3))
    assert space.dim == oracle_dim == 3
    assert space.meta["stable"]


# ---------------------------------------------------------------------------
# degeneracy probes
# ---------------------------------------------------------------------------

def test_tangent_lines_nondegenerate_fermat():
    ok, rank = xi.tangent_lines_nondegenerate(fermat_quartic())
    assert ok and rank == 3


def test_tangent_lines_degenerate_cylinder():
    # f ignores x3: four lines through (0 : 0 : 1), singular there, where
    # the ideal (f, grad f . v) need not be radical; the exact probe
    # refuses it as xi_Z does
    f = parse_poly("x1^4 - x2^4", VARS3)
    with pytest.raises(xi.XiError, match="singular"):
        xi.tangent_lines_nondegenerate(f)


def test_span_check_fermat():
    ok, rank = xi.span_check(fermat_quartic())
    assert ok and rank == 3


def test_span_check_degenerate_union():
    # singular where the plane x1 = 0 meets the conic x2^2 + x3^2 = 0, so
    # the exact probe refuses it.  A rank of 2 was once pinned here: over
    # GF(p) with p % 4 == 3 the conic has no nonzero points, so the
    # sampled smooth points lay in x1 = 0.  Over Q-bar the conic is two
    # lines outside that plane, and the cone spans V.
    f = parse_poly("x1*(x2^2 + x3^2)", VARS3)
    with pytest.raises(xi.XiError, match="singular"):
        xi.span_check(f)


def sampled_probe_ranks(f, p: int, seed) -> tuple[int, int]:
    """The sampled probes as an oracle: the rank over GF(p) of 2n sampled
    cone points, and of the wedges u ^ v over 2 C(n, 2) sampled cone
    points u and a tangent basis v at each."""
    n = f.nvars
    pairs = xi.pair_list(n)
    points = xi.sample_variety_points_modp(f, p, 2 * n, f"{seed}:span")
    wedges = []
    for u, grad in xi.sample_variety_points_modp(f, p, 2 * len(pairs), f"{seed}:w"):
        for v in _modp.kernel_of_row_mod(grad, p):
            wedges.append([(u[i] * v[j] - u[j] * v[i]) % p for (i, j) in pairs])
    return _modp.rank([list(u) for u, _ in points], p), _modp.rank(wedges, p)


def assert_full_probe_ranks(f):
    n = f.nvars
    assert xi.span_check(f) == (True, n)
    assert xi.tangent_lines_nondegenerate(f) == (True, n * (n - 1) // 2)


@pytest.mark.parametrize("name,text", BENCH_VARIETIES, ids=[v[0] for v in BENCH_VARIETIES])
def test_probes_exact_match_sampled_on_bench_varieties(name, text):
    f = form(text)
    n = f.nvars
    assert_full_probe_ranks(f)
    assert sampled_probe_ranks(f, P1, name) == (n, n * (n - 1) // 2)


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (4, 4)])
def test_probes_full_rank_on_random_smooth_forms(n, d):
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(smooth_forms(n, d))
    def check(f):
        assert_full_probe_ranks(f)

    check()


def members(f, bidegree, target) -> list[list]:
    """A basis over Q of the target coefficient vectors whose forms are
    members of (f, grad f . v)."""
    matrix, lead = xi.membership_matrix(f, bidegree, target)
    rows, pivots, _ = xi._target_constraints(matrix, lead, None)
    return _modp.kernel_from_rref(rows, pivots, len(target), None)


def test_membership_matrix_finds_quadric_gradient_in_bidegree_1_1():
    # every bilinear form u_i v_j as the target: the members are the
    # multiples of grad f(u) . v = 2 (u_1 v_1 + ... + u_4 v_4)
    f = form("x1^2 + x2^2 + x3^2 + x4^2")
    target = [{(xi._unit(4, i), j): 1} for i in range(4) for j in range(4)]
    assert members(f, (1, 1), target) == [[int(i == j) for i in range(4) for j in range(4)]]


@pytest.mark.parametrize("name,text", BENCH_VARIETIES[:8], ids=[v[0] for v in BENCH_VARIETIES[:8]])
def test_membership_matrix_finds_no_linear_form(name, text):
    # d >= 2: no multiplier of f or grad f . v reaches bidegree (1, 0)
    f = form(text)
    target = [{(xi._unit(f.nvars, i), None): 1} for i in range(f.nvars)]
    assert xi.membership_matrix(f, (1, 0), target)[1] == 0
    assert members(f, (1, 0), target) == []


def test_xi_config_rejects_composite():
    with pytest.raises(xi.XiError):
        xi.XiConfig(primes=(10, P1))
