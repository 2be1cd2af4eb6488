"""Flatness certification for cone structures given by adapted coframes.

Pipeline: membership of the structure function in Xi_Z and conformal
closedness of the coframe, both decided as rational-function identities
over Q; integration of the trace covector to a potential h; the
conformal factor f = e^{-h}; and flat coordinates with d zeta = f omega.
Everything stays in exact arithmetic while the potential is a
rational-log combination; identities that are theorems at that point
are still re-verified exactly, and a violation raises
InternalIdentityError instead of producing a wrong certificate.  A
quadrature-backed potential is checked in floating point against a
stated tolerance (conformal_factor).  No stage samples the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from coneflat import _modp, xi
from coneflat._antideriv import (
    AntiderivativeError,
    GridPotential,
    LogCombination,
    QuadratureError,
    integrate_closed_form,
)
from coneflat.coframe import Coframe, float_points, sample_points
from coneflat.cone import ConeStructure, characteristic_check
from coneflat.funcfield import PoleError, RatFunc


class FlattenError(ValueError):
    """Bad input to a pipeline stage."""


class InternalIdentityError(RuntimeError):
    """An identity that is a theorem at this point of the pipeline
    failed to verify; this signals a bug, not a property of the input."""


# ---------------------------------------------------------------------------
# closedness
# ---------------------------------------------------------------------------

@dataclass
class ClosednessVerdict:
    """Outcome of the conformal-closedness test.

    status is one of "closed", "conformally_closed",
    "not_conformally_closed".  xi holds the recovered covector in frame
    components, one_form its coordinate expression s with
    s_i = sum_a xi_a A[a][i], so that d omega^k = s wedge omega^k.
    """

    status: str
    xi: tuple[RatFunc, ...] | None = None
    one_form: tuple[RatFunc, ...] | None = None
    witness: tuple | None = None
    residual: float | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.status != "not_conformally_closed"


def conformal_closedness_test(cf: Coframe, witness_samples: int = 8,
                              seed=0) -> ClosednessVerdict:
    """Decide whether some rescaling f*omega is closed, exactly.

    The candidate covector xi is read off the verified structure function
    c by the trace formula, and the verdict is the rational-function
    identity c = iota(xi) in the frame basis.  As omega is a coframe,
    that is d omega^k = s wedge omega^k with s = xi sharp omega, and no
    product with A is formed.  iota(xi) is the orthogonal projection of c
    onto the contraction image (StructureFunction.contraction_residual),
    so on failure a sampled witness carries the Euclidean distance from
    the evaluated structure tensor to the contraction image.
    """
    n = cf.n
    zero = RatFunc.const(n, 0)
    struct = cf.structure
    if struct.is_zero():
        return ClosednessVerdict("closed", xi=tuple([zero] * n),
                                 one_form=tuple([zero] * n))
    if struct.contraction_residual().is_zero():
        xi_row = struct.trace_covector()    # built with the residual
        s = [sum((xi_row[a] * cf.a[a][i] for a in range(n)), zero) for i in range(n)]
        # d(xi sharp omega) = 0 is implied; a failure here is a bug
        for i in range(n):
            for j in range(i + 1, n):
                if s[j].diff(i) != s[i].diff(j):
                    raise InternalIdentityError(
                        "d omega = s wedge omega holds but ds != 0")
        if all(c.is_zero() for c in xi_row):
            raise InternalIdentityError(
                "zero trace covector with nonzero d omega")
        return ClosednessVerdict("conformally_closed", xi=xi_row,
                                 one_form=tuple(s))

    points = sample_points(cf.chart, witness_samples, f"{seed}:cw",
                           avoid=cf.pole_polynomials())
    for x in points:
        residual = struct.residual_norm_sq(struct.evaluate_at(x))
        if residual:
            return ClosednessVerdict(
                "not_conformally_closed", witness=x,
                residual=math.sqrt(float(residual)),
                details={"residual_metric":
                         "euclidean distance to the contraction image"})
    raise InternalIdentityError(
        "structure function escapes the contraction image as a rational "
        "function but at no sampled point")


# ---------------------------------------------------------------------------
# the potential h
# ---------------------------------------------------------------------------

@dataclass
class HPotential:
    """Potential with dh = xi sharp omega: a verified rational-log
    combination when integrate_closed_form finds one, quadrature-backed
    otherwise."""

    mode: str                         # "symbolic" | "grid"
    one_form: tuple[RatFunc, ...]
    symbolic: LogCombination | None = None
    grid: GridPotential | None = None

    def evaluate(self, point) -> float:
        if self.symbolic is not None:
            return self.symbolic.evaluate(point)
        return self.grid.evaluate(point)

    def terms(self) -> list[str]:
        return (self.symbolic or self.grid).terms()


def integrate_h(cf: Coframe, verdict: ClosednessVerdict,
                quad_tol: float = 1e-10) -> HPotential:
    """Solve dh = s with h(base) = 0, s = verdict.one_form = xi sharp omega.

    conformal_closedness_test built s and proved ds = 0; a rejected
    verdict has none and raises FlattenError.  h is the symbolic
    antiderivative when one verifies exactly, and path quadrature
    (tolerance quad_tol) when a residue is not a rational constant.
    """
    s = verdict.one_form
    if s is None:
        raise FlattenError(f"a {verdict.status} verdict has no one-form to integrate")
    base = cf.chart.base_point
    combo = integrate_closed_form(s, base)
    if combo is not None:
        return HPotential("symbolic", s, symbolic=combo)
    return HPotential("grid", s, grid=GridPotential(s, base, tol=quad_tol))


# ---------------------------------------------------------------------------
# the conformal factor
# ---------------------------------------------------------------------------

@dataclass
class ConformalFactor:
    """f = e^{-h}, rational when h collapses; f(base) = 1."""

    kind: str                         # "rational" | "numeric"
    rational: RatFunc | None
    h: HPotential
    max_residual: float = 0.0
    samples: int = 0
    details: dict = field(default_factory=dict)

    def evaluate(self, point) -> float:
        if self.rational is not None:
            return float(self.rational.evaluate([float(v) for v in point]))
        return math.exp(-self.h.evaluate(point))


def conformal_factor(cf: Coframe, h: HPotential, validation_samples: int = 20,
                     seed=0, tol: float = 1e-9) -> ConformalFactor:
    """The factor making f*omega closed.

    Rational f: d(f omega) = 0 is verified exactly, residual 0.  Other
    representations: the residual of d(f omega), written through
    df = -f dh, is evaluated in floating point at pole-free samples, and
    so is h's quadrature there, on two paths from the base point.  Both
    the residual and the largest two-path discrepancy of h must stay
    within tol (certify passes CertifyConfig.validation_tol, 1e-9 by
    default); exceeding it means the pipeline itself is broken and
    raises InternalIdentityError.
    """
    n = cf.n
    base = cf.chart.base_point
    f_rat = h.symbolic.exp_neg_rational() if h.symbolic is not None else None
    if f_rat is not None:
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    if (f_rat * cf.a[k][j]).diff(i) != (f_rat * cf.a[k][i]).diff(j):
                        raise InternalIdentityError(
                            "rational factor does not close f*omega")
        if f_rat.evaluate(base) != 1:
            raise InternalIdentityError("factor not normalized at base point")
        return ConformalFactor("rational", f_rat, h,
                               details={"verification": "exact"})

    s = h.one_form
    # bounded box: quadrature paths from the base must not cross poles
    points = float_points(cf.chart, validation_samples, f"{seed}:cf",
                          avoid=cf.pole_polynomials())
    worst = 0.0
    for x in points:
        xf = list(x)
        fval = math.exp(-h.evaluate(xf))
        aval = [[float(cf.a[k][j].evaluate(xf)) for j in range(n)]
                for k in range(n)]
        da = [[[float(cf.a[k][j].diff(i).evaluate(xf)) for j in range(n)]
               for k in range(n)] for i in range(n)]
        sval = [float(s[i].evaluate(xf)) for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    # d_i(f a_kj) - d_j(f a_ki) with df = -f s
                    r = fval * (da[i][k][j] - sval[i] * aval[k][j]
                                - da[j][k][i] + sval[j] * aval[k][i])
                    worst = max(worst, abs(r))
    if worst > tol:
        raise InternalIdentityError(
            f"d(f omega) residual {worst:.3e} above tolerance {tol:.1e}")
    paths = h.grid.max_path_residual() if h.grid is not None else 0.0
    if paths > tol:
        raise InternalIdentityError(
            f"two-path discrepancy of h {paths:.3e} above tolerance {tol:.1e}")
    return ConformalFactor("numeric", None, h, max_residual=worst,
                           samples=len(points),
                           details={"verification":
                                    "float residual via df = -f dh"})


# ---------------------------------------------------------------------------
# flat coordinates
# ---------------------------------------------------------------------------

class _ScaledFormComponent:
    """Evaluates f(x) * a_kj(x) for quadrature when f is non-rational."""

    def __init__(self, factor: ConformalFactor, entry: RatFunc):
        self.factor = factor
        self.entry = entry

    def evaluate(self, point):
        return self.factor.evaluate(point) * float(self.entry.evaluate(
            [float(v) for v in point]))


@dataclass
class FlatChart:
    """zeta with d zeta = f omega and zeta(base) = 0."""

    mode: str                          # "symbolic" | "grid" | "mixed"
    components: tuple
    jacobian_base: list
    details: dict = field(default_factory=dict)

    def evaluate(self, point) -> list[float]:
        return [c.evaluate(point) for c in self.components]

    def component_terms(self) -> list[list[str]]:
        return [c.terms() for c in self.components]


def flat_coordinates(cf: Coframe, factor: ConformalFactor,
                     quad_tol: float = 1e-10) -> FlatChart:
    """Integrate f*omega to the flat chart map.

    Each component is a rational-log antiderivative when one is found,
    else a quadrature grid (tolerance quad_tol) that is evaluated only
    on demand.  The Jacobian at the base point is f(base)*A(base) =
    A(base) and must be invertible.  No cone point is sampled: Z's
    equation is homogeneous, so d zeta = f omega maps each cone C_x onto
    the cone of Z by construction.
    """
    n = cf.n
    base = cf.chart.base_point
    try:
        jac = [[cf.a[k][j].evaluate(base) for j in range(n)] for k in range(n)]
    except PoleError as exc:
        raise FlattenError("coframe has a pole at the base point") from exc
    if len(_modp.row_reduce(jac)[1]) < n:
        raise InternalIdentityError("Jacobian of zeta degenerates at the "
                                    "base point")

    components = []
    modes = []
    if factor.rational is not None:
        for k in range(n):
            row = [factor.rational * cf.a[k][j] for j in range(n)]
            combo = integrate_closed_form(row, base)
            if combo is not None:
                components.append(combo)
                modes.append("symbolic")
            else:
                components.append(GridPotential(row, base, tol=quad_tol))
                modes.append("grid")
    else:
        for k in range(n):
            row = [_ScaledFormComponent(factor, cf.a[k][j]) for j in range(n)]
            components.append(GridPotential(row, base, tol=quad_tol))
            modes.append("grid")
    if all(m == "symbolic" for m in modes):
        mode = "symbolic"
    elif all(m == "grid" for m in modes):
        mode = "grid"
    else:
        mode = "mixed"

    return FlatChart(mode, tuple(components), jac,
                     details={"jacobian": "f(base) * A(base), f(base) = 1"})


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------

@dataclass
class CertifyConfig:
    """Settings of certify.  membership_samples sizes the witness scan of
    a failed characteristic_check, witness_samples that of a failed
    conformal_closedness_test; validation_samples and validation_tol
    size and bound the float checks of a quadrature conformal_factor,
    and quad_tol is the tolerance of its quadratures.  Each sample
    evaluates h's quadrature on two paths, so validation_samples sets
    most of a quadrature certificate's cost.  No stage reads
    tol_membership: the characteristic check is exact.  It stays for
    callers that pass it, and in echo."""

    membership_samples: int = 25
    validation_samples: int = 25
    witness_samples: int = 8
    seed: object = 0
    tol_membership: float = 1e-8
    quad_tol: float = 1e-10
    validation_tol: float = 1e-9

    def echo(self) -> dict:
        return {
            "membership_samples": self.membership_samples,
            "validation_samples": self.validation_samples,
            "witness_samples": self.witness_samples,
            "seed": str(self.seed),
            "tol_membership": self.tol_membership,
            "quad_tol": self.quad_tol,
            "validation_tol": self.validation_tol,
        }


@dataclass
class FlattenCertificate:
    status: str                        # flat | conformally_flat | rejected | error
    stage: str
    config: CertifyConfig
    verdict: ClosednessVerdict | None = None
    characteristic: object = None
    h: HPotential | None = None
    factor: ConformalFactor | None = None
    zeta: FlatChart | None = None
    residuals: dict = field(default_factory=dict)
    witness: dict | None = None
    notes: list = field(default_factory=list)

    def __bool__(self):
        return self.status in ("flat", "conformally_flat")

    def to_json(self) -> dict:
        xi_strings = None
        if self.verdict is not None and self.verdict.xi is not None:
            xi_strings = [c.to_string() for c in self.verdict.xi]
        h_terms = self.h.terms() if self.h is not None else None
        if self.factor is None:
            f_string = None
        elif self.factor.rational is not None:
            f_string = self.factor.rational.to_string()
        else:
            f_string = "numeric: exp(-h)"
        zeta_out = None
        if self.zeta is not None:
            zeta_out = {"mode": self.zeta.mode,
                        "components": self.zeta.component_terms()}
        return {
            "status": self.status,
            "stage": self.stage,
            "xi": xi_strings,
            "h_terms": h_terms,
            "f": f_string,
            "zeta": zeta_out,
            "residuals": dict(self.residuals),
            "witness": self.witness,
            "config_echo": self.config.echo(),
            "notes": list(self.notes),
        }


def certify(cs: ConeStructure, xiZ: xi.TensorSubspace,
            config: CertifyConfig | None = None) -> FlattenCertificate:
    """Run the full pipeline and emit a certificate.

    Rejection (a mathematically meaningful negative) is reported with a
    witness; an InternalIdentityError anywhere is reported as status
    "error" with the failing stage.
    """
    cfg = config or CertifyConfig()
    cert = FlattenCertificate(status="error", stage="characteristic_check",
                              config=cfg)
    try:
        char = characteristic_check(cs, xiZ, samples=cfg.membership_samples,
                                    seed=cfg.seed)
        cert.characteristic = char
        cert.residuals["membership_max"] = (
            max((r for _, r in char.failures), default=0.0)
            if char.failures else 0.0)
        if xiZ.dim == cs.n:
            cert.notes.append("dim xi_Z equals dim xi_V; membership in "
                              "xi_Z certifies membership in xi_V")
        else:
            cert.notes.append(f"dim xi_Z = {xiZ.dim} differs from "
                              f"dim xi_V = {cs.n}; membership in xi_Z is "
                              "necessary only")
        if not char.verdict:
            cert.status = "rejected"
            cert.witness = {"stage": "characteristic_check",
                            "point": (None if char.witness is None
                                      else [str(v) for v in char.witness]),
                            "residual": char.witness_residual}
            return cert

        cert.stage = "conformal_closedness_test"
        verdict = conformal_closedness_test(
            cs.coframe, witness_samples=cfg.witness_samples, seed=cfg.seed)
        cert.verdict = verdict
        cert.residuals["closedness"] = (verdict.residual
                                        if verdict.residual is not None
                                        else 0.0)
        if not verdict:
            cert.status = "rejected"
            cert.witness = {"stage": "conformal_closedness_test",
                            "point": [str(v) for v in verdict.witness],
                            "residual": verdict.residual}
            return cert

        cert.stage = "integrate_h"
        h = integrate_h(cs.coframe, verdict, quad_tol=cfg.quad_tol)
        cert.h = h

        cert.stage = "conformal_factor"
        factor = conformal_factor(cs.coframe, h,
                                  validation_samples=cfg.validation_samples,
                                  seed=cfg.seed, tol=cfg.validation_tol)
        cert.factor = factor
        cert.residuals["d_f_omega"] = factor.max_residual

        cert.stage = "flat_coordinates"
        zeta = flat_coordinates(cs.coframe, factor, quad_tol=cfg.quad_tol)
        cert.zeta = zeta
        # two-path discrepancies of the quadrature potentials evaluated so far
        grids = [g for g in (h.grid, *zeta.components) if isinstance(g, GridPotential)]
        cert.residuals["quadrature_paths"] = max(
            (g.max_path_residual() for g in grids), default=0.0)

        trivially_one = (factor.rational is not None
                         and factor.rational == RatFunc.const(cs.n, 1))
        if verdict.status == "closed" or trivially_one:
            cert.status = "flat"
        else:
            cert.status = "conformally_flat"
        return cert
    except InternalIdentityError as exc:
        cert.status = "error"
        cert.notes.append(f"{cert.stage}: {exc}")
        return cert
    except (AntiderivativeError, QuadratureError) as exc:
        cert.status = "error"
        cert.notes.append(f"{cert.stage}: {type(exc).__name__}: {exc}")
        return cert
