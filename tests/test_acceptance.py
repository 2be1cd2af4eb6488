"""Acceptance battery: every shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
test also enforces its runtime budget, so the battery doubles as a
performance regression gate.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from coneflat import xi
from coneflat.coframe import (
    Chart,
    Coframe,
    check_dual_relations,
    check_geodesic_identities,
    exterior_derivative,
    induced_coframe,
    random_polynomial_coframe,
    structure_function,
    tangent_dual_frame,
    verify_induced_structure,
)
from coneflat.cone import Hypersurface, adapted_cone, double_bracket_check, \
    geodesic_tangency_check
from coneflat.flatten import (
    CertifyConfig,
    certify,
    conformal_closedness_test,
    conformal_factor,
    integrate_h,
)
from coneflat.funcfield import RatFunc, parse_ratfunc

from test_coframe import double_bracket_oracle
from test_xi import _oracle_fermat_kernel

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


@pytest.fixture(scope="module")
def fermat():
    return Hypersurface(parse_ratfunc("x1^4 + x2^4 + x3^4", VARS3).num)


@pytest.fixture(scope="module")
def fermat_xiz(fermat):
    return xi.xi_Z(fermat, xi.XiConfig(samples=40, seed=9))


def conclude(tag: str, ok: bool, elapsed: float, budget: float, detail: str):
    """One line per criterion, printed before the assertions bite."""
    verdict = "pass" if (ok and elapsed < budget) else "FAIL"
    print(f"{tag}: {verdict} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"{tag}: {detail}"
    assert elapsed < budget, f"{tag} exceeded budget: {elapsed:.2f}s"


def test_acceptance_01_xi_v_dimension():
    t0 = time.perf_counter()
    dims = {n: xi.xi_V(n).dim for n in (3, 4, 5, 6)}
    ok = all(dims[n] == n for n in dims)
    conclude("AC01 xi_V dimension", ok, time.perf_counter() - t0, 1.0,
             f"dim xi_V(n) = {dims}")


def test_acceptance_02_iota_defining_identity():
    t0 = time.perf_counter()
    failures = 0
    for trial in range(50):
        rng = random.Random(f"ac2:{trial}")
        eta = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
               for _ in range(3)]
        if not any(eta):
            eta[0] = Fraction(1)
        cf = random_polynomial_coframe(CHART, rng,
                                       unimodular=(trial % 2 == 0))
        if not xi.check_iota_identity(eta, cf):
            failures += 1
    conclude("AC02 iota identity", failures == 0, time.perf_counter() - t0,
             30.0, f"(iota(eta))#(w^w) = (eta#w)^w on 50 pairs, "
             f"{failures} failures")


def test_acceptance_03_identity_suite():
    t0 = time.perf_counter()
    bad = []
    for case in range(25):
        rng = random.Random(f"ac3:{case}")
        cf = random_polynomial_coframe(CHART, rng,
                                       unimodular=(case % 2 == 0))
        if exterior_derivative(cf).d_components() != {}:
            bad.append((case, "dd"))
        cf.pairing  # raises unless A B = I is proved
        structure_function(cf)
        ic = induced_coframe(cf)
        if not all(check_dual_relations(ic).values()):
            bad.append((case, "dual"))
        if not all(check_geodesic_identities(ic).values()):
            bad.append((case, "geodesic"))
        if not verify_induced_structure(cf).passed:
            bad.append((case, "pullback"))
    conclude("AC03 identity suite", not bad, time.perf_counter() - t0,
             300.0, f"25 random degree-2 coframes, failures: {bad}")


def test_acceptance_04_geodesic_tangency(fermat):
    t0 = time.perf_counter()
    results = {}
    for name, cf in (("flat", flat_coframe()),
                     ("rescaled", rescaled_coframe()),
                     ("twisted", twisted_coframe())):
        report = geodesic_tangency_check(adapted_cone(cf, fermat))
        results[name] = report.verdict and report.mode == "exact"
    conclude("AC04 geodesic tangency", all(results.values()),
             time.perf_counter() - t0, 60.0,
             f"gamma(F) = 0 exactly for {sorted(results)}")


def test_acceptance_05_xi_z_fermat(fermat_xiz):
    t0 = time.perf_counter()
    space = fermat_xiz
    primes_large = all(p > 2 ** 30 for p in space.meta["primes"])
    dims = set(space.meta["dims"].values())
    # containment of the contraction image, exact over the prime field
    residuals = []
    for a in range(3):
        eta = [Fraction(1 if i == a else 0) for i in range(3)]
        res = xi.membership(xi.iota(eta), space)
        residuals.append((res.member, res.residual))
    npoints, oracle_dim, oracle_violations = _oracle_fermat_kernel(10007)
    ok = (space.dim == 3 and dims == {3} and primes_large
          and space.meta["stable"]
          and all(m and r == 0 for m, r in residuals)
          and npoints > 0 and oracle_dim == 3 and oracle_violations == 0)
    conclude("AC05 xi_Z Fermat quartic", ok, time.perf_counter() - t0, 60.0,
             f"dim 3 across primes {space.meta['primes']}; "
             f"brute-force oracle over GF(10007): {npoints} points, dim "
             f"{oracle_dim}")


def test_acceptance_06_tangent_line_span(fermat):
    t0 = time.perf_counter()
    ok, rank = xi.tangent_lines_nondegenerate(fermat)
    conclude("AC06 tangent-line span", ok and rank == 3,
             time.perf_counter() - t0, 30.0,
             f"wedge rank {rank} of expected 3")


def test_acceptance_07_closedness_both_directions():
    t0 = time.perf_counter()
    cf = rescaled_coframe()
    verdict = conformal_closedness_test(cf)
    forward = verdict.status == "conformally_closed"
    f = None
    d_f_omega_zero = False
    if forward:
        h = integrate_h(cf, verdict)
        factor = conformal_factor(cf, h, validation_samples=10, seed=0)
        f = factor.rational
        scaled = Coframe(CHART, [[f * e for e in row] for row in cf.a])
        d_f_omega_zero = exterior_derivative(scaled).components == {}
    control = conformal_closedness_test(heisenberg_coframe())
    converse = (control.status == "not_conformally_closed"
                and control.residual is not None and control.residual > 0)
    ok = (forward and f == R("1 - x1") and d_f_omega_zero and converse)
    conclude("AC07 closedness criterion", ok, time.perf_counter() - t0, 60.0,
             f"rescaled: f = {f.to_string() if f else None}, d(f*omega) = 0 "
             f"exact; Heisenberg residual {control.residual}")


def test_acceptance_08_double_bracket(fermat):
    t0 = time.perf_counter()
    exact = adapted_cone(rescaled_coframe(), fermat)
    rng = random.Random("ac8")
    generic = adapted_cone(random_polynomial_coframe(CHART, rng, unimodular=False), fermat)
    ok = all(double_bracket_check(cs).verdict
             and double_bracket_oracle(cs, tangent_dual_frame(cs.induced))
             for cs in (exact, generic))
    conclude("AC08 double bracket", ok, time.perf_counter() - t0, 120.0,
             "proved from A B = I on the rescaled and a random coframe; "
             "the brute-force double brackets agree")


def test_acceptance_09_end_to_end_pipeline(fermat, fermat_xiz):
    t0 = time.perf_counter()
    config = CertifyConfig(seed=825, validation_samples=100)

    flat_cert = certify(adapted_cone(flat_coframe(), fermat), fermat_xiz,
                        config)
    translation = (flat_cert.status == "flat"
                   and all(flat_cert.zeta.components[k].rational_part
                           == R(VARS3[k]) for k in range(3)))

    resc_cert = certify(adapted_cone(rescaled_coframe(), fermat), fermat_xiz,
                        config)
    rescaled_ok = resc_cert.status == "conformally_flat"

    twist_cert = certify(adapted_cone(twisted_coframe(), fermat), fermat_xiz,
                         config)
    twisted_ok = (twist_cert.status == "rejected"
                  and twist_cert.witness is not None
                  and twist_cert.witness["stage"] == "characteristic_check"
                  and twist_cert.witness["residual"]
                  > 10 * config.tol_membership)

    ok = translation and rescaled_ok and twisted_ok
    conclude("AC09 end-to-end pipeline", ok, time.perf_counter() - t0, 300.0,
             f"flat -> translation chart; rescaled -> conformally flat; "
             f"twisted -> witness residual {twist_cert.witness['residual']:.2e}")


def test_acceptance_10_round_trip_recovery(fermat, fermat_xiz):
    t0 = time.perf_counter()
    rng = random.Random(20260825)
    recovered = 0
    for trial in range(10):
        f = R("1")
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-1, 1) for _ in range(3)]
            if not any(coeffs):
                coeffs[rng.randrange(3)] = 1
            line = R(f"1 + ({coeffs[0]}*x1 + {coeffs[1]}*x2 "
                     f"+ {coeffs[2]}*x3)/4")
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
        cert = certify(adapted_cone(cf, fermat), fermat_xiz,
                       CertifyConfig(seed=trial, validation_samples=30))
        if (cert.status in ("flat", "conformally_flat")
                and cert.factor.rational == f):
            recovered += 1
    conclude("AC10 round-trip recovery", recovered == 10,
             time.perf_counter() - t0, 120.0,
             f"{recovered}/10 factors recovered exactly from (1/f) d zeta")
