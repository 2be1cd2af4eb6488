"""Certification pipeline: closedness verdicts, potentials, conformal
factors, flat coordinates, certificates, and an independent jet-space
oracle for the no-factor direction."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from coneflat import xi
from coneflat._antideriv import GridPotential, LogCombination
from coneflat.coframe import Chart, Coframe, random_polynomial_coframe
from coneflat.cone import Hypersurface, adapted_cone
from coneflat.flatten import (
    CertifyConfig,
    ClosednessVerdict,
    ConformalFactor,
    FlattenError,
    HPotential,
    InternalIdentityError,
    certify,
    conformal_closedness_test,
    conformal_factor,
    flat_coordinates,
    integrate_h,
)
from coneflat.funcfield import MultiPoly, RatFunc, parse_ratfunc

VARS3 = ("x1", "x2", "x3")
CHART = Chart.standard(3)


def R(text: str) -> RatFunc:
    return parse_ratfunc(text, VARS3)


def coframe(rows) -> Coframe:
    return Coframe(CHART, [[R(e) for e in row] for row in rows])


def flat_coframe() -> Coframe:
    return coframe([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def rescaled_coframe() -> Coframe:
    s = "1/(1-x1)"
    return coframe([[s, "0", "0"], ["0", s, "0"], ["0", "0", s]])


def heisenberg_coframe() -> Coframe:
    return coframe([["1", "0", "0"], ["0", "1", "0"], ["0", "-x1", "1"]])


def twisted_coframe() -> Coframe:
    return coframe([["1", "0", "0"], ["0", "1", "x1"], ["0", "0", "1"]])


def atan_coframe(arg: str) -> Coframe:
    """A = d zeta / e^{atan(g)} with zeta = e^{atan(g)} * (1, x2, x3), g
    the given polynomial: f = e^{atan(g)} and h = -atan(g) are not
    rational-log, so h is found by quadrature."""
    g = R(arg)
    datan = [g.diff(j) / (R("1") + g * g) for j in range(3)]
    zeta0 = [R("1"), R("x2"), R("x3")]
    return Coframe(CHART, [[datan[j] * z + z.diff(j) for j in range(3)]
                           for z in zeta0])


@pytest.fixture(scope="module")
def fermat():
    return Hypersurface(parse_ratfunc("x1^4 + x2^4 + x3^4", VARS3).num)


@pytest.fixture(scope="module")
def fermat_xiz(fermat):
    return xi.xi_Z(fermat, xi.XiConfig(samples=40, seed=9))


# ---------------------------------------------------------------------------
# closedness
# ---------------------------------------------------------------------------

def test_flat_coframe_is_closed():
    v = conformal_closedness_test(flat_coframe())
    assert v.status == "closed"
    assert all(c.is_zero() for c in v.xi)
    assert bool(v)


def test_rescaled_coframe_conformally_closed():
    v = conformal_closedness_test(rescaled_coframe())
    assert v.status == "conformally_closed"
    assert [c for c in v.xi] == [R("1"), R("0"), R("0")]
    assert v.one_form[0] == R("1/(1-x1)")
    assert v.one_form[1].is_zero() and v.one_form[2].is_zero()


def test_scalar_rescale_of_constant_unimodular():
    u = [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]
    s = R("1 + x2")
    cf = Coframe(CHART, [[R(e) * s for e in row] for row in u])
    v = conformal_closedness_test(cf)
    assert v.status == "conformally_closed"
    # s_i = d_i(1+x2)/(1+x2)
    assert v.one_form[1] == R("1/(1 + x2)")
    assert v.one_form[0].is_zero() and v.one_form[2].is_zero()


def test_heisenberg_not_conformally_closed():
    v = conformal_closedness_test(heisenberg_coframe())
    assert v.status == "not_conformally_closed"
    assert not bool(v)
    assert v.witness is not None
    assert v.residual == pytest.approx(1.0, abs=1e-12)
    assert "contraction image" in v.details["residual_metric"]


def test_closedness_witness_residual_is_the_membership_residual():
    # twisted and random coframes that are not conformally closed: the
    # witness residual, the norm of c - iota(trace c), is the distance to
    # Xi_V that membership gets from its normal equations
    coframes = [twisted_coframe()] + [
        random_polynomial_coframe(CHART, random.Random(f"closed:{i}"), unimodular=i % 2 == 0)
        for i in range(6)]
    for cf in coframes:
        v = conformal_closedness_test(cf)
        assert v.status == "not_conformally_closed"
        tensor = xi.HomTensor(3, cf.structure.evaluate_at(v.witness))
        assert v.residual == math.sqrt(float(xi.membership(tensor, xi.xi_V(3)).residual))


# ---------------------------------------------------------------------------
# potential and factor
# ---------------------------------------------------------------------------

def test_integrate_h_symbolic_rescaled():
    v = conformal_closedness_test(rescaled_coframe())
    h = integrate_h(rescaled_coframe(), v)
    assert h.mode == "symbolic"
    pt = (0.5, 0.1, -0.2)
    assert h.evaluate(pt) == pytest.approx(-math.log(0.5), rel=1e-12)
    assert h.symbolic.evaluate((0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_integrate_h_grid_mode_two_paths():
    # the residue of -1/(1 + x1^2) is not rational, so h is quadrature
    cf = atan_coframe("x1")
    v = conformal_closedness_test(cf)
    assert v.one_form[0] == R("-1/(1 + x1^2)")
    h = integrate_h(cf, v)
    assert h.mode == "grid" and h.symbolic is None
    for pt in [(0.4, 0.2, -0.3), (-0.6, 0.5, 0.1), (0.8, -0.7, 0.6)]:
        assert h.evaluate(pt) == pytest.approx(-math.atan(pt[0]), abs=1e-9)
    assert h.grid.max_path_residual() < 1e-10


def test_integrate_h_rejects_a_rejected_verdict():
    cf = heisenberg_coframe()
    verdict = conformal_closedness_test(cf)
    assert verdict.status == "not_conformally_closed" and verdict.one_form is None
    with pytest.raises(FlattenError, match="no one-form"):
        integrate_h(cf, verdict)


def test_conformal_factor_exact_rescaled():
    cf = rescaled_coframe()
    v = conformal_closedness_test(cf)
    h = integrate_h(cf, v)
    fac = conformal_factor(cf, h)
    assert fac.kind == "rational"
    assert fac.rational == R("1 - x1")
    assert fac.max_residual == 0.0
    assert fac.evaluate((0.25, 0.0, 0.0)) == pytest.approx(0.75)


def test_conformal_factor_numeric_path():
    # a quadrature h takes the float validation
    cf = atan_coframe("x1")
    v = conformal_closedness_test(cf)
    h = integrate_h(cf, v)
    fac = conformal_factor(cf, h, validation_samples=10, seed=4)
    assert fac.kind == "numeric"
    assert fac.samples == 10
    assert fac.max_residual < 1e-9
    assert fac.evaluate((0.5, 0.1, 0.2)) == pytest.approx(math.exp(math.atan(0.5)),
                                                          rel=1e-9)


def test_conformal_factor_rejects_a_two_path_discrepancy(monkeypatch, fermat, fermat_xiz):
    # every second quadrature path of h is planted 1e-6 off the first
    from coneflat import _antideriv
    real = _antideriv.path_integral

    def skewed(components, start, end, order, tol):
        value = real(components, start, end, order, tol)
        return value if order[0] == 0 else value + 1e-6

    monkeypatch.setattr(_antideriv, "path_integral", skewed)
    cf = atan_coframe("x1")
    h = integrate_h(cf, conformal_closedness_test(cf))
    with pytest.raises(InternalIdentityError, match="two-path discrepancy"):
        conformal_factor(cf, h, validation_samples=10, seed=4, tol=1e-9)
    cert = certify(adapted_cone(cf, fermat), fermat_xiz, CertifyConfig(seed=4))
    assert cert.status == "error" and cert.stage == "conformal_factor"
    assert any("two-path discrepancy" in note for note in cert.notes)


def test_certify_reports_the_evaluated_quadrature_paths(fermat, fermat_xiz):
    # h = -atan(x1 + x2) depends on two axes, so the two paths of its
    # quadrature differ; one evaluation per validation sample
    cert = certify(adapted_cone(atan_coframe("x1 + x2"), fermat), fermat_xiz,
                   CertifyConfig(seed=2))
    assert cert.status == "conformally_flat"
    assert cert.factor.kind == "numeric" and cert.zeta.mode == "grid"
    grid = cert.h.grid
    assert len(grid.path_residuals) == cert.config.validation_samples == 25
    assert cert.residuals["quadrature_paths"] == grid.max_path_residual()
    assert 0 < grid.max_path_residual() < cert.config.validation_tol


# ---------------------------------------------------------------------------
# flat coordinates
# ---------------------------------------------------------------------------

def _unit_factor() -> ConformalFactor:
    zero = R("0")
    h = HPotential("symbolic", (zero, zero, zero),
                   symbolic=LogCombination(3, (Fraction(0),) * 3, zero, ()))
    return ConformalFactor("rational", R("1"), h)


def test_flat_model_zeta_is_translation():
    chart = flat_coordinates(flat_coframe(), _unit_factor())
    assert chart.mode == "symbolic"
    for k in range(3):
        comp = chart.components[k]
        assert comp.logs == ()
        assert comp.rational_part == R(VARS3[k])
    assert chart.jacobian_base == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rescaled_zeta_is_translation():
    cf = rescaled_coframe()
    v = conformal_closedness_test(cf)
    fac = conformal_factor(cf, integrate_h(cf, v))
    chart = flat_coordinates(cf, fac)
    assert chart.mode == "symbolic"
    for k in range(3):
        assert chart.components[k].rational_part == R(VARS3[k])


def test_degenerate_jacobian_rejected_upstream():
    # the coframe constructor already refuses a determinant that
    # vanishes at the base point, so the pipeline never sees one
    from coneflat.coframe import SingularCoframeError

    shifted = Chart(3, VARS3, (Fraction(-1), Fraction(0), Fraction(0)))
    rows = [[R("1"), R("0"), R("0")],
            [R("0"), R("1"), R("0")],
            [R("0"), R("0"), R("1 + x1")]]
    with pytest.raises(SingularCoframeError):
        Coframe(shifted, rows)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_flat(fermat, fermat_xiz):
    cs = adapted_cone(flat_coframe(), fermat)
    cert = certify(cs, fermat_xiz, CertifyConfig(seed=3))
    assert cert.status == "flat"
    assert cert.stage == "flat_coordinates"
    assert bool(cert)
    assert cert.residuals["membership_max"] == 0.0
    assert cert.residuals["closedness"] == 0.0
    assert cert.residuals["d_f_omega"] == 0.0
    payload = cert.to_json()
    assert payload["status"] == "flat"
    assert payload["f"] == "1"
    json.dumps(payload)


def test_certify_rescaled(fermat, fermat_xiz):
    cs = adapted_cone(rescaled_coframe(), fermat)
    cert = certify(cs, fermat_xiz, CertifyConfig(seed=3, validation_samples=100))
    assert cert.status == "conformally_flat"
    assert cert.factor.rational == R("1 - x1")
    assert cert.zeta.mode == "symbolic"
    payload = cert.to_json()
    assert payload["xi"] == ["1", "0", "0"]
    assert payload["zeta"]["mode"] == "symbolic"
    json.dumps(payload)


def test_certify_twisted_rejected(fermat, fermat_xiz):
    cs = adapted_cone(twisted_coframe(), fermat)
    cert = certify(cs, fermat_xiz, CertifyConfig(seed=3))
    assert cert.status == "rejected"
    assert cert.stage == "characteristic_check"
    assert not bool(cert)
    assert cert.witness is not None
    assert cert.witness["residual"] > 10 * cert.config.tol_membership
    assert cert.h is None and cert.factor is None


def test_certify_rejects_by_the_identity_when_no_scanned_point_escapes(fermat, fermat_xiz):
    # the twist x1^2 leaves xi_Z wherever x1 != 0; the one scanned point,
    # (0, 2, 5/6), has x1 = 0, so the rejection names no witness point
    cs = adapted_cone(coframe([["1", "0", "0"], ["0", "1", "x1^2"], ["0", "0", "1"]]),
                      fermat)
    cert = certify(cs, fermat_xiz, CertifyConfig(seed=1, membership_samples=1))
    assert cert.status == "rejected" and cert.stage == "characteristic_check"
    assert cert.characteristic.samples == 1 and not cert.characteristic.failures
    assert cert.witness == {"stage": "characteristic_check", "point": None,
                            "residual": None}


def test_certify_heisenberg_rejected_at_closedness(fermat, fermat_xiz):
    # sigma is constant and already outside Xi_Z, so membership fails
    # first; force the closedness stage by checking it directly too
    cs = adapted_cone(heisenberg_coframe(), fermat)
    cert = certify(cs, fermat_xiz, CertifyConfig(seed=5))
    assert cert.status == "rejected"
    assert cert.witness["residual"] == pytest.approx(1.0, abs=1e-12)


def test_certify_internal_error_reported(fermat, fermat_xiz, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalIdentityError("synthetic failure")

    monkeypatch.setattr("coneflat.flatten.conformal_closedness_test", boom)
    cs = adapted_cone(rescaled_coframe(), fermat)
    cert = certify(cs, fermat_xiz)
    assert cert.status == "error"
    assert cert.stage == "conformal_closedness_test"
    assert any("synthetic failure" in note for note in cert.notes)


def test_certify_roundtrip_recovers_factor(fermat, fermat_xiz):
    rng = random.Random(20260825)
    for trial in range(3):
        f = R("1")
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-1, 1) for _ in range(3)]
            if not any(coeffs):
                coeffs[rng.randrange(3)] = 1
            line = R(f"1 + ({coeffs[0]}*x1 + {coeffs[1]}*x2 + {coeffs[2]}*x3)/4")
            f = f * line ** rng.choice([-2, -1, 1, 2])
        while True:
            m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            rows = [[RatFunc.const(3, m[k][j]) / f for j in range(3)]
                    for k in range(3)]
            try:
                cf = Coframe(CHART, rows)
                break
            except Exception:
                continue
        cs = adapted_cone(cf, fermat)
        cert = certify(cs, fermat_xiz,
                       CertifyConfig(seed=trial, validation_samples=40))
        assert cert.status == "conformally_flat", cert.to_json()
        assert cert.factor.rational == f


def test_certify_large_exponent_symbolically(fermat, fermat_xiz):
    # residue 15 is read off the base factor 1 - x1 like any other
    f = R("(1 - x1)^15")
    rows = [[R("1") / f if k == j else R("0") for j in range(3)]
            for k in range(3)]
    cs = adapted_cone(Coframe(CHART, rows), fermat)
    cert = certify(cs, fermat_xiz,
                   CertifyConfig(seed=8, validation_samples=20))
    assert cert.status == "conformally_flat"
    assert cert.h.mode == "symbolic"
    assert cert.factor.kind == "rational"
    assert cert.factor.rational == f
    assert cert.residuals["d_f_omega"] == 0.0
    # zeta is exactly the identity since f * omega = dx
    assert cert.zeta.mode == "symbolic"
    for k in range(3):
        assert cert.zeta.components[k].logs == ()
        assert cert.zeta.components[k].rational_part == R(VARS3[k])


# ---------------------------------------------------------------------------
# independent oracle: jet obstruction to any conformal factor
# ---------------------------------------------------------------------------

def _jet_rows(cf: Coframe, jet_deg: int):
    """Linear constraints on the Taylor coefficients (at 0) of a factor
    f with d(f*omega) = 0, for a polynomial coframe.

    Unknowns: coefficients c_alpha, |alpha| <= jet_deg.  Equations:
    coefficients of monomials of total degree < jet_deg in
    d_i(f a_kj) - d_j(f a_ki); those are fully determined by the jet
    when the coframe entries have degree <= 1.
    """
    n = cf.n
    alphas = [a for a in itertools.product(range(jet_deg + 1), repeat=n)
              if sum(a) <= jet_deg]
    col = {a: t for t, a in enumerate(alphas)}
    rows: dict[tuple, list[Fraction]] = {}
    for t, alpha in enumerate(alphas):
        mono = MultiPoly(n, {alpha: Fraction(1)})
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    expr = ((RatFunc(mono) * cf.a[k][j]).diff(i)
                            - (RatFunc(mono) * cf.a[k][i]).diff(j))
                    assert expr.den.total_degree() == 0
                    scale = Fraction(1) / expr.den.terms.get(
                        (0,) * n, Fraction(1))
                    for exp, coeff in expr.num.terms.items():
                        if sum(exp) >= jet_deg:
                            continue
                        key = (k, i, j, exp)
                        if key not in rows:
                            rows[key] = [Fraction(0)] * len(alphas)
                        rows[key][t] += coeff * scale
    return [r for r in rows.values() if any(r)], col


def _rank(rows):
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _factor_jet_exists(cf: Coframe, jet_deg: int = 4) -> bool:
    """True when the truncated closedness system admits a jet with
    f(0) = 1; False when f(0) = 0 is forced (no analytic factor)."""
    rows, col = _jet_rows(cf, jet_deg)
    e0 = [Fraction(0)] * len(col)
    e0[col[(0,) * cf.n]] = Fraction(1)
    return _rank(rows + [e0]) > _rank(rows)


def test_jet_oracle_rejects_heisenberg():
    assert not _factor_jet_exists(heisenberg_coframe())


def test_jet_oracle_accepts_known_factors():
    assert _factor_jet_exists(flat_coframe())
    scale = R("1 + x1")
    rows = [[scale if k == j else R("0") for j in range(3)] for k in range(3)]
    assert _factor_jet_exists(Coframe(CHART, rows))


def test_jet_oracle_agrees_with_closedness_verdicts():
    cases = [
        (flat_coframe(), True),
        (heisenberg_coframe(), False),
        (twisted_coframe(), False),
    ]
    for cf, expected in cases:
        verdict = bool(conformal_closedness_test(cf))
        assert verdict == expected
        assert _factor_jet_exists(cf) == expected
