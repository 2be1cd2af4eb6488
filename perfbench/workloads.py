"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup``, yields one
deterministic input per case index from ``make_case`` (untimed), and
runs one user-level operation per case in ``run_case`` (timed), which
returns an ``Outcome``:

* ``ok``      the operation returned the answer known for the input;
* ``failed``  a resource bound stopped it (``TermBudgetError``,
              ``QuadratureError``, ``ConeSamplingError``) or the float
              and prime-field xi backends disagreed; counted, never
              dropped;
* ``wrong``   any other verdict, an ``error`` status, or an unexpected
              exception.  A wrong outcome fails the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from coneflat import cli, cone, flatten, xi
from coneflat.coframe import (
    Chart,
    Coframe,
    check_d_lemma,
    check_dual_relations,
    check_geodesic_identities,
    exterior_derivative,
    induced_coframe,
    structure_function,
    verify_induced_structure,
)
from coneflat.cone import (
    ConeSamplingError,
    Hypersurface,
    adapted_cone,
    double_bracket_check,
    geodesic_tangency_check,
    smooth_check,
)
from coneflat.funcfield import (
    FuncFieldError,
    MultiPoly,
    RatFunc,
    TermBudgetError,
    parse_poly,
)
from coneflat._antideriv import QuadratureError

CHART3 = Chart.standard(3)
NAMES3 = CHART3.variables


@dataclass
class Outcome:
    status: str                 # "ok" | "failed" | "wrong"
    kind: str                   # case kind from the mix
    reason: str = ""


def _resource_failure(exc: BaseException) -> bool:
    return isinstance(exc, (TermBudgetError, QuadratureError,
                            ConeSamplingError))


def _two_variable_linear(rng: random.Random, constant: int) -> MultiPoly:
    """constant +- x_i +- x_j for two random distinct axes i, j."""
    terms = {(0, 0, 0): Fraction(constant)} if constant else {}
    for i in rng.sample(range(3), 2):
        terms[tuple(1 if t == i else 0 for t in range(3))] = \
            Fraction(rng.choice((-1, 1)))
    return MultiPoly(3, terms)


def lower_diagonal_coframe(rng: random.Random, one_factor: bool) -> Coframe:
    """Degree <= 2 coframe L D at fixed term counts: L unit lower
    triangular with entries c +- x_i +- x_j (c in {+-1, +-2}), D the
    identity (unimodular) or diag(l, 1, 1) with l = 1 +- x_i +- x_j.
    The determinant l puts a genuine denominator into the dual frame and
    everything built on it."""
    one, zero = MultiPoly.one(3), MultiPoly.zero(3)
    rows = [[one if i == j else (
        _two_variable_linear(rng, rng.choice((-2, -1, 1, 2))) if j < i
        else zero) for j in range(3)] for i in range(3)]
    if one_factor:
        factor = _two_variable_linear(rng, 1)
        rows = [[row[0] * factor] + row[1:] for row in rows]
    return Coframe(CHART3, [[RatFunc(e) for e in row] for row in rows])


def fermat_quartic() -> Hypersurface:
    return Hypersurface(parse_poly(cli.FERMAT_QUARTIC, NAMES3))


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    mix = ""                    # one line: the case mix, for the report
    trace_cases = 0             # fixed case count of a traced run
    cycle = 1                   # cases in one turn of the case mix

    def __init__(self, seed: str, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def make_case(self, index: int):
        raise NotImplementedError

    def run_case(self, case) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

class Identities(Workload):
    """The verify-identities case body on seeded random n = 3 coframes
    L D (see lower_diagonal_coframe), two unimodular cases to one
    non-unimodular one, so that the median case is a unimodular one and
    does not fall in the gap between the two classes.

    The command's own random coframes L U cost 0.5-4.5 s when unimodular
    and 6-21 s when not: a run of a few tens of seconds holds too few of
    them to give a steady rate.  L D coframes cost 0.1-0.25 s (D = I)
    and 0.3-0.55 s (D = diag(l, 1, 1)).
    """

    name = "identities"
    mix = ("3-case cycle: 2 unimodular L, 1 non-unimodular L*diag(l,1,1); "
           "L unit lower triangular, entries and l linear in two "
           "variables; n = 3, Fermat quartic")
    trace_cases = 12
    cycle = 3

    def setup(self):
        self.z = fermat_quartic()
        smooth_check(self.z)

    def make_case(self, index):
        rng = random.Random(f"{self.seed}:{index}")
        one_factor = index % 3 == 2
        kind = "one_factor" if one_factor else "unimodular"
        return index, kind, lower_diagonal_coframe(rng, one_factor)

    def run_case(self, case):
        index, kind, cf = case
        try:
            ok = identity_suite(cf, self.z, index, self.seed)
        except Exception as exc:        # classify, never drop
            status = "failed" if _resource_failure(exc) else "wrong"
            return Outcome(status, kind, f"{type(exc).__name__}: {exc}")
        bad = sorted(k for k, v in ok.items() if not v)
        if bad:
            return Outcome("wrong", kind, "identities failed: " + ", ".join(bad))
        return Outcome("ok", kind)


def identity_suite(cf: Coframe, z: Hypersurface, case: int, seed) -> dict:
    """One case body of ``coneflat verify-identities``: every entry of
    the returned dict must be True."""
    ok = {}
    ok["dd_zero"] = exterior_derivative(cf).d_components() == {}
    try:
        structure_function(cf, verify=True)
        ok["structure_reconstruction"] = True
    except TermBudgetError:
        raise                   # a resource failure, not a false identity
    except FuncFieldError:
        ok["structure_reconstruction"] = False
    probe = cf.a[0][(case + 1) % 3]
    ok["d_lemma"] = check_d_lemma(cf, probe * probe)
    ic = induced_coframe(cf)
    ok.update(check_dual_relations(ic))
    ok.update(check_geodesic_identities(ic))
    ok["induced_structure_pullback"] = verify_induced_structure(cf).passed
    cs = adapted_cone(cf, z)
    ok["geodesic_tangency"] = geodesic_tangency_check(cs).verdict
    bracket = double_bracket_check(cs, samples=4, seed=f"{seed}:{case}")
    ok["double_bracket"] = bracket.verdict
    return ok


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _random_line(rng: random.Random) -> RatFunc:
    """1 + (+-x_i +- x_j)/4 for two random distinct axes i, j; equals 1
    at the base point."""
    return RatFunc.const(3, 1) + RatFunc(_two_variable_linear(rng, 0)) \
        * Fraction(1, 4)


def _axis_line(rng: random.Random) -> RatFunc:
    """1 +- x_i/4 for a random axis i."""
    return RatFunc.const(3, 1) + RatFunc.var(3, rng.randrange(3)) \
        * Fraction(rng.choice((-1, 1)), 4)


def _random_invertible(rng: random.Random) -> list[list[int]]:
    while True:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det:
            return m


def round_trip_coframe(f: RatFunc, m: list[list[int]]) -> Coframe:
    """omega = (1/f) M dx: conformally flat with factor f by construction."""
    inv = RatFunc.const(3, 1) / f
    return Coframe(CHART3, [[inv * m[k][j] for j in range(3)]
                            for k in range(3)])


def twisted_coframe(t: RatFunc) -> Coframe:
    """A = I + t E_23; not flat when t depends on x1 or x2."""
    rows = [[RatFunc.const(3, 1 if k == j else 0) for j in range(3)]
            for k in range(3)]
    rows[1][2] = rows[1][2] + t
    return Coframe(CHART3, rows)


# position in the 8-case cycle -> (case kind, shape): the exponents k of
# the factors (1 + l/4)^k of a round trip, or the number of linear
# factors of t in a twisted coframe.  Round trips of higher total degree
# sum |k| (up to 6 with three factors) cost up to seconds (degree 3) or
# minutes (three factors of degree 2) each, too spread out for a run to
# average over.  Fixing the shape of each position, rather than drawing
# it, keeps the share of each shape in a run the same on every seed.
CERTIFY_CYCLE = (("round_trip", (1,)), ("twisted", 1),
                 ("round_trip", (-2,)), ("round_trip", (1, 1)),
                 ("grid_round_trip", None), ("round_trip", (-1,)),
                 ("twisted", 2), ("round_trip", (2,)))


class Certify(Workload):
    """adapted_cone plus flatten.certify, the calls the certify command
    makes, against one Fermat-quartic xi_Z built in set-up."""

    name = "certify"
    mix = ("8-case cycle: 5 round trips (1/f) M with f = l^1, l^-2, "
           "l l', l^-1, l^2, l = 1 + (+-x_i +- x_j)/4; 1 round trip with "
           "f = (1 +- x_i/4)^k, |k| in 13..17 (grid quadrature today); "
           "2 twisted I + t E_23, t one or a product of two +-x_i +- x_j")
    trace_cases = 16
    cycle = len(CERTIFY_CYCLE)

    def setup(self):
        self.z = fermat_quartic()
        smooth_check(self.z)
        self.space = xi.xi_Z(self.z, xi.XiConfig(samples=40,
                                                  seed=f"{self.seed}:xiZ"))
        meta = self.space.meta
        if self.space.dim != 3 or not meta.get("stable"):
            raise RuntimeError(f"set-up xi_Z is not the expected 3-dim "
                               f"stable space: {meta}")

    def make_case(self, index):
        rng = random.Random(f"{self.seed}:{index}")
        kind, shape = CERTIFY_CYCLE[index % len(CERTIFY_CYCLE)]
        if kind == "twisted":
            # two distinct axes: t always depends on x1 or x2
            t = RatFunc.const(3, 1)
            for _ in range(shape):
                t = t * RatFunc(_two_variable_linear(rng, 0))
            return index, kind, twisted_coframe(t), None
        f = RatFunc.const(3, 1)
        if kind == "grid_round_trip":
            f = _axis_line(rng) ** (rng.choice((-1, 1)) * rng.randint(13, 17))
        else:
            for k in shape:
                f = f * _random_line(rng) ** k
        return index, kind, round_trip_coframe(f, _random_invertible(rng)), f

    def run_case(self, case):
        index, kind, cf, f = case
        try:
            cs = adapted_cone(cf, self.z)
            cert = flatten.certify(cs, self.space, flatten.CertifyConfig(
                seed=f"{self.seed}:{index}", tol_membership=1e-8,
                validation_samples=50))
        except Exception as exc:        # classify, never drop
            status = "failed" if _resource_failure(exc) else "wrong"
            return Outcome(status, kind, f"{type(exc).__name__}: {exc}")
        return Outcome(*check_certificate(cert, kind, f))


def check_certificate(cert, kind: str, f: RatFunc | None) -> tuple[str, str, str]:
    """(status, kind, reason) of a certificate against the verdict the
    case was built to have."""
    if cert.status == "error":
        if any("QuadratureError" in note for note in cert.notes):
            return "failed", kind, "; ".join(cert.notes)
        return "wrong", kind, "error status: " + "; ".join(cert.notes)
    if kind == "twisted":
        if cert.status != "rejected" or not cert.witness:
            return "wrong", kind, f"twisted coframe gave {cert.status}"
        return "ok", kind, ""
    want = "flat" if f == RatFunc.const(3, 1) else "conformally_flat"
    if cert.status != want:
        return "wrong", kind, f"round trip gave {cert.status}, want {want}"
    factor = cert.factor
    if factor.rational is not None:
        if not factor.rational == f:
            return "wrong", kind, "recovered factor differs from f"
        return "ok", kind, ""
    if kind != "grid_round_trip":
        return "wrong", kind, "no rational factor for a small-exponent f"
    # the quadrature factor must match f where both are defined
    for point in ((0.05, -0.03, 0.02), (-0.04, 0.06, 0.01)):
        want_value = float(f.evaluate([Fraction(v) for v in point]))
        got = factor.evaluate(point)
        if not math.isclose(got, want_value, rel_tol=1e-6):
            return "wrong", kind, (f"numeric factor {got} differs from "
                                   f"f = {want_value} at {point}")
    return "ok", kind, ""


# ---------------------------------------------------------------------------
# xi
# ---------------------------------------------------------------------------

FIXED_VARIETIES = [
    ("fermat_n3_d3", 3, "x1^3 + x2^3 + x3^3"),
    ("fermat_n3_d4", 3, "x1^4 + x2^4 + x3^4"),
    ("fermat_n3_d5", 3, "x1^5 + x2^5 + x3^5"),
    ("fermat_n4_d3", 4, "x1^3 + x2^3 + x3^3 + x4^3"),
    ("fermat_n4_d4", 4, "x1^4 + x2^4 + x3^4 + x4^4"),
    ("fermat_n5_d3", 5, "x1^3 + x2^3 + x3^3 + x4^3 + x5^3"),
    ("klein_quartic", 3, "x1^3*x2 + x2^3*x3 + x3^3*x1"),
    ("quadric_n4", 4, "x1^2 + x2^2 + x3^2 + x4^2"),
]
QUADRICS = {"quadric_n4"}


def _monomials(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _monomials(n - 1, d - first):
            yield (first,) + rest


def random_smooth_form(rng: random.Random, n: int, d: int) -> Hypersurface:
    """Dense form with coefficients in [-3, 3], redrawn until the
    package's smoothness check certifies it smooth."""
    while True:
        terms = {}
        for exp in _monomials(n, d):
            c = rng.randint(-3, 3)
            if c:
                terms[exp] = Fraction(c)
        f = MultiPoly(n, terms)
        if f.is_zero() or not f.is_homogeneous(d) or f.total_degree() != d:
            continue
        z = Hypersurface(f)
        if smooth_check(z).verdict == "smooth":
            return z


class Xi(Workload):
    """In-process ``coneflat xi`` runs, each variety with both backends."""

    name = "xi"
    cycle = 2 * (len(FIXED_VARIETIES) + 2)
    trace_cases = cycle

    @property
    def mix(self):
        return (f"cycle of {len(self.varieties)} varieties x (modp, float): "
                + ", ".join(name for name, _, _ in self.varieties))

    def setup(self):
        rng = random.Random(f"{self.seed}:varieties")
        self.varieties = []
        for name, n, text in FIXED_VARIETIES:
            names = [f"x{i + 1}" for i in range(n)]
            self.varieties.append((name, n, Hypersurface(parse_poly(text, names))))
        for name, d in (("random_cubic", 3), ("random_quartic", 4)):
            self.varieties.append((name, 3, random_smooth_form(rng, 3, d)))
        self.files = []
        for name, _, z in self.varieties:
            path = os.path.join(self.workdir, f"{name}.variety.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cone.hypersurface_to_json(z), fh)
            self.files.append(path)
        self.modp_dims = {}

    def make_case(self, index):
        slot = (index // 2) % len(self.varieties)
        backend = "modp" if index % 2 == 0 else "float"
        return index, slot, backend

    def run_case(self, case):
        index, slot, kind = case
        name, n, _ = self.varieties[slot]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["xi", "--variety", self.files[slot],
                                 "--seed", f"{self.seed}:{index}",
                                 "--backend", kind])
        except Exception as exc:        # classify, never drop
            status = "failed" if _resource_failure(exc) else "wrong"
            return Outcome(status, kind, f"{name}: {type(exc).__name__}: {exc}")
        if code != cli.EXIT_OK:
            return Outcome("wrong", kind, f"{name}: exit code {code}")
        report = json.loads(buf.getvalue())
        checks = {c["name"]: c for c in report["checks"]}
        if not all(c["passed"] for c in report["checks"]):
            return Outcome("wrong", kind, f"{name}: a check did not pass")
        details = checks["xi_Z"]["details"]
        dim = details["dim"]
        if kind == "modp":
            dims = set(details["dims"].values())
            if len(dims) != 1 or not details["stable"]:
                return Outcome("wrong", kind,
                               f"{name}: unstable modp xi_Z {details['dims']}")
            if name not in QUADRICS and dim != n:
                return Outcome("wrong", kind, f"{name}: dim xi_Z {dim} != {n}")
            self.modp_dims[slot] = dim
            return Outcome("ok", kind)
        want = self.modp_dims.pop(slot)     # the modp case just before
        if dim != want:
            return Outcome("failed", kind,
                           f"{name}: float dim {dim}, modp dim {want}")
        return Outcome("ok", kind)


WORKLOADS = {cls.name: cls for cls in (Identities, Certify, Xi)}
