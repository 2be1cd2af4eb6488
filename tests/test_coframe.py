import dataclasses
import random
from fractions import Fraction

import pytest

from coneflat import _modp, coframe as coframe_module
from coneflat.cone import Hypersurface, adapted_cone, double_bracket_check
from coneflat.funcfield import MultiPoly, RatFunc, parse_poly, parse_ratfunc
from coneflat.coframe import (
    Chart,
    ChartError,
    Coframe,
    SamplingError,
    SingularCoframeError,
    StructureFunction,
    check_d_lemma,
    check_dual_relations,
    check_geodesic_identities,
    dual_frame,
    exterior_derivative,
    geodesic_flow,
    induced_coframe,
    mat_inverse,
    mat_mul,
    random_polynomial_coframe,
    sample_points,
    structure_function,
    tangent_dual_frame,
    verify_induced_structure,
)

VARS = ["x1", "x2", "x3"]
CHART = Chart.standard(3)


def rfc(text):
    return parse_ratfunc(text, VARS)


def matrix_from_strings(rows):
    return [[rfc(entry) for entry in row] for row in rows]


def flat_coframe():
    return Coframe.identity(CHART)


def heisenberg_coframe():
    # third row x1*dx2 + dx3
    return Coframe(CHART, matrix_from_strings([
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "x1", "1"],
    ]))


def rescaled_coframe():
    s = "1/(1 - x1)"
    return Coframe(CHART, matrix_from_strings([
        [s, "0", "0"],
        ["0", s, "0"],
        ["0", "0", s],
    ]))


def twisted_coframe():
    return Coframe(CHART, matrix_from_strings([
        ["1", "0", "0"],
        ["0", "1", "x1"],
        ["0", "0", "1"],
    ]))


# ---------------------------------------------------------------------------
# brute-force oracles for what the package proves from A B = I or from
# A's minors
# ---------------------------------------------------------------------------

def reconstruction_oracle(cf, sf) -> bool:
    """A^T c A = d omega, component by component: c rebuilds d omega^k =
    sum_{a<b} c^k_{ab} omega^a ^ omega^b through A, which cf.pairing
    implies and structure_function does not form."""
    n = cf.n
    w = exterior_derivative(cf)
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                acc = RatFunc.const(n, 0)
                for (kk, a, bb), c in sf.components.items():
                    wedge = cf.a[a][i] * cf.a[bb][j] - cf.a[bb][i] * cf.a[a][j]
                    if kk == k and not wedge.is_zero():
                        acc = acc + c * wedge
                if acc != w.get(k, i, j):
                    return False
    return True


def contraction_oracle(cf):
    """c^k = B^T W^k B for W = d omega and B = cf.dual, the contraction of
    d omega with the dual frame that structure_function replaces by A's
    complementary minors; it reads whatever frame cf.dual holds."""
    n = cf.n
    b = cf.dual.matrix
    comps = {}
    for (k, i, j), wk in exterior_derivative(cf).components.items():
        for a in range(n):
            for bb in range(a + 1, n):
                wedge = b[i][a] * b[j][bb] - b[i][bb] * b[j][a]
                if not wedge.is_zero():
                    key = (k, a, bb)
                    comps[key] = comps[key] + wk * wedge if key in comps else wk * wedge
    return StructureFunction(n, comps, RatFunc.const(n, 0))


def frame_bracket_oracle(cf) -> bool:
    """[D_a, D_b] = - sum_k c^k_{ab} D_k for the dual frame, by the
    n(n - 1)/2 Lie brackets; it is d omega(X, Y) = X omega(Y) -
    Y omega(X) - omega([X, Y]) with omega(D_b) constant."""
    n = cf.n
    frame = cf.dual
    sf = cf.structure
    for a in range(n):
        for b in range(a + 1, n):
            bracket = frame.vector(a).bracket(frame.vector(b))
            for j in range(n):
                expected = -sum((sf.get(k, a, b) * frame.matrix[j][k] for k in range(n)),
                                RatFunc.const(n, 0))
                if bracket.components[j] != expected:
                    return False
    return True


def bracket_identity_oracle(ic, frames) -> bool:
    """[(D_lambda)_a, gamma] = (D_theta)_a by brute force: n Lie brackets
    on the tangent chart, against the proof in ic.bracket_identity;
    frames = tangent_dual_frame(ic)."""
    d_theta, d_lambda = frames
    return all(d_lambda.vector(a).bracket(ic.gamma).components
               == d_theta.vector(a).components for a in range(ic.n))


def double_bracket_fields(ic, frames):
    """For each a, the dx-components of [[(D_lambda)_a, gamma], gamma] once
    [(D_lambda)_a, gamma] = (D_theta)_a holds: the double bracket is
    [X, gamma] with X = (D_theta)_a, and component j of its projection
    d pi is X(gamma^j) - gamma(X^j), which reads the dy-rows -B E B of
    the frames.  Its dy-components are never formed: for the n = 4
    "n4seed" coframe they cost about 400 times as much."""
    gamma = ic.gamma
    return [[x.apply(gamma.components[j]) - gamma.apply(x.components[j]) for j in range(ic.n)]
            for x in map(frames[0].vector, range(ic.n))]


def double_bracket_oracle(cs, frames) -> bool:
    """omega(d pi([[(D_lambda)_a, gamma], gamma]))^k + sum_b c^k_{ab} mu^b
    = 0 as rational functions, for every a and k, by brute force: the
    bracket identity by bracket_identity_oracle, then the double
    brackets' dx-components on the frames; c is contraction_oracle's,
    so a wrong dual frame shows here too."""
    ic = cs.induced
    if not bracket_identity_oracle(ic, frames):
        return False
    n = cs.n
    struct = contraction_oracle(cs.coframe)
    for a, comp in enumerate(double_bracket_fields(ic, frames)):
        for k in range(n):
            acc = sum((ic.matrix[k][j] * comp[j] for j in range(n) if not comp[j].is_zero()),
                      RatFunc.const(2 * n, 0))
            acc = sum((ic.lift(struct.get(k, a, b)) * cs.mu[b] for b in range(n)), acc)
            if not acc.is_zero():
                return False
    return True


def pullback_linear(cf: Coframe, lmat) -> Coframe:
    """Pull the coframe back along the linear chart map x -> L x.

    The new base point is L^{-1} (old base), so the old base stays in
    the image; the structure function of the result at x equals the
    original structure function at L x.
    """
    n = cf.n
    solved, pivots = _modp.row_reduce([[Fraction(v) for v in row] + [b]
                                       for row, b in zip(lmat, cf.chart.base_point)])
    assert pivots == list(range(n)), "constant matrix is singular"
    substituted = [RatFunc(MultiPoly(n, {
        tuple(1 if t == m else 0 for t in range(n)): Fraction(lmat[j][m])
        for m in range(n) if lmat[j][m] != 0})) if any(lmat[j]) else RatFunc.const(n, 0)
        for j in range(n)]
    new_rows = []
    for k in range(n):
        composed = [cf.a[k][j].subst(substituted) for j in range(n)]
        new_rows.append([sum((composed[j] * Fraction(lmat[j][m]) for j in range(n)
                              if lmat[j][m] != 0 and not composed[j].is_zero()),
                             RatFunc.const(n, 0)) for m in range(n)])
    chart = Chart(n, cf.chart.variables, tuple(row[n] for row in solved))
    return Coframe(chart, new_rows)


def test_oracles_agree_with_the_proofs_on_the_models():
    z = Hypersurface(parse_poly("x1^4 + x2^4 + x3^4", VARS))
    for cf in (heisenberg_coframe(), rescaled_coframe(), twisted_coframe(),
               *(random_polynomial_coframe(CHART, random.Random(seed), unimodular=unimodular)
                 for seed in (11, 12) for unimodular in (True, False))):
        cs = adapted_cone(cf, z)
        frames = tangent_dual_frame(cs.induced)
        assert reconstruction_oracle(cf, structure_function(cf))
        assert frame_bracket_oracle(cf)
        assert double_bracket_check(cs).verdict and double_bracket_oracle(cs, frames)


# ---------------------------------------------------------------------------
# chart and coframe validation
# ---------------------------------------------------------------------------

def test_chart_rejects_low_dimension():
    with pytest.raises(ChartError):
        Chart(2, ("x1", "x2"), (Fraction(0), Fraction(0)))


def test_chart_rejects_duplicate_names():
    with pytest.raises(ChartError):
        Chart(3, ("x1", "x1", "x3"), (Fraction(0),) * 3)


def test_coframe_rejects_identically_singular():
    with pytest.raises(SingularCoframeError):
        Coframe(CHART, matrix_from_strings([
            ["1", "0", "0"],
            ["2", "0", "0"],
            ["0", "0", "1"],
        ]))


def test_coframe_rejects_base_point_singularity():
    # determinant x1 vanishes at the origin
    with pytest.raises(SingularCoframeError):
        Coframe(CHART, matrix_from_strings([
            ["x1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "1"],
        ]))


def test_coframe_rejects_pole_at_base():
    with pytest.raises(SingularCoframeError):
        Coframe(CHART, matrix_from_strings([
            ["1/x1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "1"],
        ]))


# ---------------------------------------------------------------------------
# dual frames
# ---------------------------------------------------------------------------

def test_dual_frame_identity():
    frame = dual_frame(flat_coframe())
    for i in range(3):
        for j in range(3):
            assert frame.matrix[i][j] == (1 if i == j else 0)


def test_dual_frame_heisenberg():
    cf = heisenberg_coframe()
    frame = dual_frame(cf)
    assert frame.matrix[2][1] == rfc("-x1")
    product = mat_mul(cf.a, frame.matrix)
    for i in range(3):
        for j in range(3):
            assert product[i][j] == (1 if i == j else 0)


def test_dual_frame_rescaled():
    frame = dual_frame(rescaled_coframe())
    for i in range(3):
        for j in range(3):
            expected = rfc("1 - x1") if i == j else rfc("0")
            assert frame.matrix[i][j] == expected


def test_mat_inverse_singular_raises():
    rows = matrix_from_strings([
        ["x1", "x1", "0"],
        ["1", "1", "0"],
        ["0", "0", "1"],
    ])
    with pytest.raises(SingularCoframeError):
        mat_inverse(rows)


# ---------------------------------------------------------------------------
# exterior derivative and structure function
# ---------------------------------------------------------------------------

def test_exterior_derivative_flat_is_zero():
    assert exterior_derivative(flat_coframe()).is_zero()


def test_exterior_derivative_heisenberg():
    w = exterior_derivative(heisenberg_coframe())
    assert w.get(2, 0, 1) == 1
    assert len(w.components) == 1


def test_exterior_derivative_rescaled():
    w = exterior_derivative(rescaled_coframe())
    expected = rfc("1/(1 - x1)^2")
    for k in (1, 2):
        assert w.get(k, 0, k) == expected
    assert w.get(0, 0, 1).is_zero()
    assert w.get(0, 0, 2).is_zero()
    assert w.get(1, 1, 2).is_zero()


def test_structure_function_flat_is_zero():
    assert structure_function(flat_coframe()).is_zero()


def test_structure_function_heisenberg():
    sf = structure_function(heisenberg_coframe())
    assert sf.get(2, 0, 1) == 1
    assert sf.get(2, 1, 0) == -1
    assert len(sf.components) == 1


def test_structure_function_rescaled():
    sf = structure_function(rescaled_coframe())
    for k in (1, 2):
        assert sf.get(k, 0, k) == 1
        assert sf.get(k, k, 0) == -1
    assert len(sf.components) == 2


def test_structure_function_random_reconstruction():
    # the proved value rebuilds d omega through A
    rng = random.Random(314)
    for _ in range(4):
        cf = random_polynomial_coframe(CHART, rng, unimodular=False)
        assert reconstruction_oracle(cf, structure_function(cf, verify=True))


def assert_equals_the_contraction(cf):
    """structure_function's c is contraction_oracle's, component by
    component, with the same factored denominators (as sets of
    (factor, exponent) pairs: their order follows the merge order)."""
    sf, oracle = structure_function(cf), contraction_oracle(cf)
    assert sf.components == oracle.components
    for key, value in oracle.components.items():
        assert set(sf.components[key].den_factors()) == set(value.den_factors()), key


def test_structure_function_equals_the_contraction_oracle():
    rng = random.Random(2718)
    for cf in (flat_coframe(), heisenberg_coframe(), rescaled_coframe(), twisted_coframe(),
               *(random_polynomial_coframe(CHART, rng, unimodular=trial % 2 == 0)
                 for trial in range(10))):
        assert_equals_the_contraction(cf)
    # a certify round trip: omega = (1/(l l')) M dx for a constant invertible M
    inv = 1 / (rfc("1 + (x1 - x2)/4") * rfc("1 + (x2 + x3)/4"))
    m = [[1, 2, 0], [0, -1, 3], [2, 0, 1]]
    assert_equals_the_contraction(Coframe(CHART, [[inv * v for v in row] for row in m]))


@pytest.mark.parametrize("unimodular", (True, False))
def test_structure_function_equals_the_contraction_oracle_n4(unimodular):
    assert_equals_the_contraction(random_polynomial_coframe(
        Chart.standard(4), random.Random("n4seed"), unimodular=unimodular))


def test_dd_is_zero_on_random_coframes():
    rng = random.Random(271)
    for _ in range(4):
        cf = random_polynomial_coframe(CHART, rng, unimodular=(rng.random() < 0.5))
        assert exterior_derivative(cf).d_components() == {}


# ---------------------------------------------------------------------------
# bracket identities
# ---------------------------------------------------------------------------

def test_frame_bracket_flat():
    assert frame_bracket_oracle(flat_coframe())


def test_frame_bracket_heisenberg_sign():
    cf = heisenberg_coframe()
    frame = dual_frame(cf)
    sf = structure_function(cf)
    bracket = frame.vector(0).bracket(frame.vector(1))
    # [D_1, D_2] = -c^3_{12} D_3 with c^3_{12} = 1
    for j in range(3):
        expected = -sf.get(2, 0, 1) * frame.matrix[j][2]
        assert bracket.components[j] == expected
    assert bracket.components[2] == -1
    assert frame_bracket_oracle(cf)


def test_frame_bracket_random_exact():
    rng = random.Random(555)
    for trial in range(3):
        cf = random_polynomial_coframe(CHART, rng, unimodular=(trial != 1))
        assert frame_bracket_oracle(cf)


def test_d_lemma_random():
    rng = random.Random(22)
    for _ in range(3):
        cf = random_polynomial_coframe(CHART, rng, unimodular=False)
        f = rfc("(x1^2 - x2)/(1 + x3^2)")
        assert check_d_lemma(cf, f)


def test_structure_function_natural_under_linear_pullback():
    rng = random.Random(77)
    cf = random_polynomial_coframe(CHART, rng)
    lmat = [[Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(0), Fraction(1)]]
    pulled = pullback_linear(cf, lmat)
    sf = structure_function(cf)
    sf_pulled = structure_function(pulled)
    for pt in sample_points(CHART, 4, seed=3, avoid=cf.pole_polynomials()):
        image = tuple(sum(lmat[i][j] * pt[j] for j in range(3)) for i in range(3))
        for k in range(3):
            for a in range(3):
                for b in range(a + 1, 3):
                    assert sf_pulled.get(k, a, b).evaluate(pt) == \
                        sf.get(k, a, b).evaluate(image)


# ---------------------------------------------------------------------------
# induced coframe, dual frames, geodesic flow
# ---------------------------------------------------------------------------

def test_induced_coframe_flat():
    ic = induced_coframe(flat_coframe())
    assert ic.chart.variables == ("x1", "x2", "x3", "y1", "y2", "y3")
    for k in range(3):
        assert ic.mu[k] == RatFunc.var(6, 3 + k)
        for s in range(6):
            assert ic.matrix[k][s] == (1 if s == k else 0)
            assert ic.matrix[3 + k][s] == (1 if s == 3 + k else 0)


def test_induced_coframe_rescaled():
    ic = induced_coframe(rescaled_coframe())
    tvars = ["x1", "x2", "x3", "y1", "y2", "y3"]
    for k in range(3):
        assert ic.mu[k] == parse_ratfunc(f"y{k + 1}/(1 - x1)", tvars)
        # lambda^k = dy_k/(1-x1) + y_k dx1/(1-x1)^2
        assert ic.matrix[3 + k][3 + k] == parse_ratfunc("1/(1 - x1)", tvars)
        assert ic.matrix[3 + k][0] == parse_ratfunc(f"y{k + 1}/(1 - x1)^2", tvars)


def test_induced_coframe_heisenberg():
    ic = induced_coframe(heisenberg_coframe())
    tvars = ["x1", "x2", "x3", "y1", "y2", "y3"]
    assert ic.mu[2] == parse_ratfunc("x1*y2 + y3", tvars)
    # lambda^3 = y2 dx1 + x1 dy2 + dy3
    assert ic.matrix[5][0] == parse_ratfunc("y2", tvars)
    assert ic.matrix[5][4] == parse_ratfunc("x1", tvars)
    assert ic.matrix[5][5] == 1


def test_tangent_dual_frame_flat():
    ic = induced_coframe(flat_coframe())
    d_theta, d_lambda = tangent_dual_frame(ic)
    for s in range(6):
        for a in range(3):
            assert d_theta.matrix[s][a] == (1 if s == a else 0)
            assert d_lambda.matrix[s][a] == (1 if s == a + 3 else 0)


def test_tangent_dual_frame_rescaled():
    ic = induced_coframe(rescaled_coframe())
    d_theta, d_lambda = tangent_dual_frame(ic)
    tvars = ["x1", "x2", "x3", "y1", "y2", "y3"]
    for a in range(3):
        assert d_lambda.matrix[3 + a][a] == parse_ratfunc("1 - x1", tvars)
    # D_theta's y-part carries the correction that kills D_theta(mu)
    assert all(d_theta.apply(a, ic.mu[k]).is_zero() for k in range(3) for a in range(3))
    relations = check_dual_relations(ic)
    assert all(relations.values()), relations


def test_dual_relations_random():
    rng = random.Random(4242)
    cf = random_polynomial_coframe(CHART, rng, unimodular=False)
    ic = induced_coframe(cf)
    relations = check_dual_relations(ic)
    assert all(relations.values()), relations


def test_geodesic_flow_flat():
    gamma = geodesic_flow(flat_coframe())
    for j in range(3):
        assert gamma.components[j] == RatFunc.var(6, 3 + j)
        assert gamma.components[3 + j].is_zero()


def test_geodesic_flow_projection_instance():
    gamma = geodesic_flow(rescaled_coframe())
    point = [Fraction(0)] * 3 + [Fraction(1), Fraction(0), Fraction(0)]
    values = gamma.evaluate(point)
    assert values[:3] == [Fraction(1), Fraction(0), Fraction(0)]


def test_geodesic_identities_heisenberg():
    ic = induced_coframe(heisenberg_coframe())
    results = check_geodesic_identities(ic)
    assert results["bracket_dlambda_gamma_is_dtheta"]


def test_geodesic_identities_random():
    rng = random.Random(606)
    cf = random_polynomial_coframe(CHART, rng, unimodular=False)
    ic = induced_coframe(cf)
    results = check_geodesic_identities(ic)
    assert all(results.values()), results


def test_bracket_identity_agrees_with_the_brute_force_brackets_heisenberg():
    ic = induced_coframe(heisenberg_coframe())
    assert ic.bracket_identity and bracket_identity_oracle(ic, tangent_dual_frame(ic))


@pytest.mark.parametrize("unimodular", [True, False])
@pytest.mark.parametrize("seed", [11, 12])
def test_bracket_identity_agrees_with_the_brute_force_brackets_random(seed, unimodular):
    cf = random_polynomial_coframe(CHART, random.Random(seed), unimodular=unimodular)
    ic = induced_coframe(cf)
    assert ic.bracket_identity and bracket_identity_oracle(ic, tangent_dual_frame(ic))


def test_induced_checks_build_no_tangent_frames(monkeypatch):
    def refuse(ic):
        raise AssertionError("a check built the tangent frames")

    monkeypatch.setattr(coframe_module, "tangent_dual_frame", refuse)
    cf = random_polynomial_coframe(CHART, random.Random(77), unimodular=False)
    ic = induced_coframe(cf)
    assert all(check_dual_relations(ic).values())
    assert all(check_geodesic_identities(ic).values())
    assert verify_induced_structure(cf).passed
    cs = adapted_cone(cf, Hypersurface(parse_poly("x1^4 + x2^4 + x3^4", VARS)))
    assert double_bracket_check(cs).verdict


def test_corrupted_lambda_row_fails_the_mu_relations_and_the_double_bracket():
    cs = adapted_cone(rescaled_coframe(), Hypersurface(parse_poly("x1^4 + x2^4 + x3^4", VARS)))
    rows = [list(row) for row in cs.induced.matrix]
    rows[3][0] = rows[3][0] + RatFunc.var(6, 3)      # lambda^1 gains y1 dx1
    bad = dataclasses.replace(cs.induced, matrix=tuple(map(tuple, rows)))
    relations = check_dual_relations(bad)
    assert not relations["dtheta_mu_is_zero"]
    # D_lambda has no dx-part, so the dy-columns alone still give D_lambda(mu) = I
    assert relations["dlambda_mu_is_identity"]
    assert not check_geodesic_identities(bad)["bracket_dlambda_gamma_is_dtheta"]
    assert not bracket_identity_oracle(bad, tangent_dual_frame(bad))
    cs.induced = bad
    assert not double_bracket_check(cs).verdict
    assert not double_bracket_oracle(cs, tangent_dual_frame(bad))


def test_corrupted_dual_frame_fails_the_pairing_proof():
    cf = rescaled_coframe()
    cf.dual = dual_frame(flat_coframe())
    for proof in (lambda: cf.pairing, lambda: cf.induced.pairing,
                  lambda: tangent_dual_frame(cf.induced)):
        with pytest.raises(SingularCoframeError):
            proof()
    # c comes from A's minors, so the wrong frame does not reach it
    sf = structure_function(cf)
    assert sf.components == structure_function(rescaled_coframe()).components
    assert reconstruction_oracle(cf, sf)
    # the contraction oracle sees the wrong frame
    assert not reconstruction_oracle(cf, contraction_oracle(cf))


def test_induced_matrix_off_its_block_form_fails_the_pairing_proof():
    ic = induced_coframe(rescaled_coframe())
    rows = [list(row) for row in ic.matrix]
    rows[3][4] = rows[3][4] + RatFunc.var(6, 0)      # lambda^1 gains x1 dy2
    with pytest.raises(SingularCoframeError):
        tangent_dual_frame(dataclasses.replace(ic, matrix=tuple(map(tuple, rows))))


def test_tangent_frame_bracket_table():
    # the bracket table of the induced frames on the tangent chart: the
    # lambda-lambda and theta-lambda brackets vanish, and the theta-theta
    # ones are - sum_k lift(c^k_ab) (D_theta)_k
    cf = random_polynomial_coframe(CHART, random.Random(95))
    ic = induced_coframe(cf)
    d_theta, d_lambda = tangent_dual_frame(ic)
    for a in range(3):
        for b in range(3):
            assert d_theta.vector(a).bracket(d_lambda.vector(b)).is_zero()
            if a < b:
                assert d_lambda.vector(a).bracket(d_lambda.vector(b)).is_zero()
                expected = [-sum((ic.lift(cf.structure.get(k, a, b)) * d_theta.matrix[s][k]
                                  for k in range(3)), RatFunc.const(6, 0))
                            for s in range(6)]
                assert list(d_theta.vector(a).bracket(d_theta.vector(b)).components) \
                    == expected


def test_verify_induced_structure_flat():
    report = verify_induced_structure(flat_coframe())
    assert report.passed


def assert_induced_structure_is_the_lifted_base(cf):
    """The structure function of the induced pair, built on the tangent
    chart as an oracle, is the lifted base one in its theta-theta block
    and zero elsewhere; verify_induced_structure says so without it.
    Returns that oracle."""
    ic = induced_coframe(cf)
    big = structure_function(Coframe(ic.chart, ic.matrix))
    assert big.components == {key: ic.lift(c) for key, c in cf.structure.components.items()}
    assert verify_induced_structure(cf).passed
    return big


def test_verify_induced_structure_heisenberg():
    big = assert_induced_structure_is_the_lifted_base(heisenberg_coframe())
    assert set(big.components) == {(2, 0, 1)}
    assert big.get(2, 0, 1) == 1


def test_verify_induced_structure_random():
    rng = random.Random(33)
    cf = random_polynomial_coframe(CHART, rng, unimodular=False)
    assert_induced_structure_is_the_lifted_base(cf)


def test_verify_induced_structure_rejects_a_lambda_row_off_d_mu(monkeypatch):
    cf = heisenberg_coframe()
    ic = cf.induced
    rows = [list(row) for row in ic.matrix]
    rows[3][0] = rows[3][0] + RatFunc.var(6, 4)      # lambda^1 gains y2 dx1
    tampered = dataclasses.replace(ic, matrix=tuple(map(tuple, rows)))
    monkeypatch.setattr(Coframe, "induced", property(lambda self: tampered))
    report = verify_induced_structure(cf)
    assert not report.passed
    assert report.details == {"vanishes_off_theta_block": False,
                              "theta_block_is_pullback": True}
    # the oracle: d lambda^1 = dy2 ^ dx1 is now nonzero
    big = structure_function(Coframe(tampered.chart, tampered.matrix))
    assert any(k >= 3 for k, _, _ in big.components)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_points_deterministic_and_pole_free():
    cf = rescaled_coframe()
    avoid = cf.pole_polynomials()
    pts1 = sample_points(CHART, 8, seed="s", avoid=avoid)
    pts2 = sample_points(CHART, 8, seed="s", avoid=avoid)
    assert pts1 == pts2
    for pt in pts1:
        assert pt[0] != 1
        for coord in pt:
            assert abs(coord.numerator) <= 10 and coord.denominator <= 10


def test_sample_points_failure_reported():
    # a polynomial that vanishes on every candidate: zero polynomial
    from coneflat.funcfield import MultiPoly
    with pytest.raises(SamplingError, match="only 0 of 3 sample points found after 240 tries"):
        sample_points(CHART, 3, seed=0, avoid=[MultiPoly.zero(3)])
