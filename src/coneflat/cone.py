"""Projective hypersurfaces and the cone structures they induce.

An adapted coframe omega on a chart M turns a hypersurface Z in P(V)
into the field of cones C_x = {[y] : f(A(x) y) = 0} inside P T(M).
This module builds that presentation, runs the two dynamical checks
relating the geodesic flow to the structure tensor (flow tangency and
the double-bracket identity), and decides whether the structure
function takes values in Xi_Z, as rational-function identities over Q.

No check draws a point of the cones.  The cone equation f(mu),
mu = A(x) y, is never expanded: flow tangency is proved from the n
functions gamma(mu^k), each linear in y, and the double bracket is the
definition of the structure function once A B = I holds and the lambda
rows are d mu (double_bracket_check).  characteristic_check decides over
Q on the structure function's coordinates (coordinate_triples order);
of the Xi_Z subspace it reads only the dimension n.  A rejection by it
or by flatten.conformal_closedness_test names its witness through the
one scan, witness_scan.  sample_cone, the
exact GF(p) cone sampler, has no caller in the package; it stays only
because the perfbench tracer looks it up, until the benchmark stops
tracing it (ROADMAP item 1).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from coneflat import _modp, xi
from coneflat.coframe import Chart, Coframe, InducedCoframe, draw_seeded, sample_points, \
    tangent_dual_frame  # noqa: F401  (perfbench traces it here)
from coneflat.funcfield import MultiPoly, PoleError, RatFunc, parse_poly


class ConeError(ValueError):
    """Dimension mismatch or structurally invalid cone data."""


class ConeSamplingError(RuntimeError):
    """Could not produce the requested cone samples."""


# ---------------------------------------------------------------------------
# hypersurfaces
# ---------------------------------------------------------------------------

class Hypersurface:
    """Projective hypersurface {f = 0} with homogeneous f of degree >= 2.

    Degree 1 is excluded: a hyperplane has no tangent-cone content and
    the downstream theory assumes non-linearity.  smoothness (see
    smooth_check) and the Xi_Z match and its reductions (xi_constraints)
    are computed on first read and are read-only.
    """

    def __init__(self, f: MultiPoly, degree: int | None = None):
        if f.is_zero():
            raise ConeError("defining polynomial must be nonzero")
        if f.nvars < 3:
            raise ConeError("hypersurfaces live in at least 3 homogeneous "
                            "variables here")
        d = f.total_degree()
        if degree is not None and degree != d:
            raise ConeError(f"declared degree {degree} but polynomial has "
                            f"degree {d}")
        if not f.is_homogeneous(d):
            raise ConeError("defining polynomial must be homogeneous")
        if d < 2:
            raise ConeError("degree must be at least 2")
        self.f = f
        self.n = f.nvars
        self.degree = d
        self._smoothness: SmoothnessReport | None = None
        self._xi_match: tuple | None = None
        self._xi_reductions: dict = {}

    @property
    def smoothness(self) -> SmoothnessReport:
        """The Macaulay-rank smoothness report (see smooth_check)."""
        if self._smoothness is None:
            self._smoothness = _macaulay_smoothness(self)
        return self._smoothness

    def xi_constraints(self, p: int | None = None) -> tuple[list, list, int]:
        """(rows, pivots, rank of the multiplier block) cutting Xi_Z out
        of Hom(L^2 V, V) over GF(p), or Q when p is None: the bidegree-(d, 1)
        match (xi.membership_matrix), built once, reduced once per field
        by xi._target_constraints.  A tensor, in coordinate_triples order,
        lies in Xi_Z exactly when every row annihilates it."""
        if p not in self._xi_reductions:
            if self._xi_match is None:
                self._xi_match = xi.membership_matrix(self.f, (self.degree, 1),
                                                      xi._xi_target(self.f))
            self._xi_reductions[p] = xi._target_constraints(*self._xi_match, p)
        return self._xi_reductions[p]

    def gradient(self) -> list[MultiPoly]:
        return [self.f.diff(i) for i in range(self.n)]

    def __repr__(self):
        return f"Hypersurface(n={self.n}, degree={self.degree})"


def hypersurface_from_json(data: dict) -> Hypersurface:
    try:
        n = int(data["n"])
        text = str(data["f"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConeError(f"malformed variety data: {exc}") from None
    names = [f"x{i + 1}" for i in range(n)]
    f = parse_poly(text, names)
    degree = int(data["degree"]) if "degree" in data else None
    return Hypersurface(f, degree)


def hypersurface_to_json(z: Hypersurface) -> dict:
    names = [f"x{i + 1}" for i in range(z.n)]
    return {"n": z.n, "degree": z.degree, "f": z.f.to_string(names)}


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

_WITNESS_BOUND = 2
_MAX_MACAULAY_ENTRIES = 75_000      # rows * columns; see smooth_check


@dataclass
class SmoothnessReport:
    verdict: str                       # "smooth" | "singular"
    method: str
    witness: tuple | None = None       # exact singular point, when a small one exists
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict == "smooth"


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the monomials of one degree in n variables."""
    return [tuple(combo.count(i) for i in range(n))
            for combo in itertools.combinations_with_replacement(range(n), degree)]


def _macaulay_matrix(z: Hypersurface) -> tuple[list[list[int]], int]:
    """Rows x^m * (integer numerator of d_i f), for every i and every
    monomial m of degree D - (d - 1), in the basis of the monomials of
    degree D = n(d - 2) + 1; returns (rows, number of columns).
    Raises ConeError above _MAX_MACAULAY_ENTRIES entries."""
    top = z.n * (z.degree - 2) + 1
    nrows = z.n * math.comb(top - z.degree + z.n, z.n - 1)
    ncols = math.comb(top + z.n - 1, z.n - 1)
    if nrows * ncols > _MAX_MACAULAY_ENTRIES:
        raise ConeError(f"smoothness check needs a {nrows} x {ncols} Macaulay "
                        f"matrix, above the supported {_MAX_MACAULAY_ENTRIES} entries")
    column = {exp: k for k, exp in enumerate(_monomials(z.n, top))}
    rows = []
    for g in z.gradient():
        for m in _monomials(z.n, top - z.degree + 1):
            row = [0] * ncols
            for exp, c in g.coeffs.items():
                row[column[tuple(map(operator.add, exp, m))]] = c
            rows.append(row)
    return rows, ncols


def _small_singular_point(z: Hypersurface) -> tuple[Fraction, ...] | None:
    """The first common zero of the partials among the primitive integer
    points with all |x_i| <= _WITNESS_BOUND, lowest and sparsest first."""
    grads = z.gradient()
    box = range(-_WITNESS_BOUND, _WITNESS_BOUND + 1)
    points = [u for u in itertools.product(box, repeat=z.n)
              if math.gcd(*u) == 1 and next(v for v in u if v) > 0]
    points.sort(key=lambda u: (max(map(abs, u)), sum(map(bool, u)),
                              [i for i, v in enumerate(u) if v]))
    for u in points:
        if all(g.evaluate(u) == 0 for g in grads):
            return tuple(map(Fraction, u))
    return None


def _macaulay_smoothness(z: Hypersurface) -> SmoothnessReport:
    rows, ncols = _macaulay_matrix(z)
    p = xi.DEFAULT_PRIMES[0]
    rank, fieldtag = _modp.rank(rows, p), p
    if rank < ncols:
        rank, fieldtag = _modp.rank([[Fraction(c) for c in row] for row in rows]), "rational"
    details = {"rank": rank, "columns": ncols, "field": fieldtag}
    if rank == ncols:
        return SmoothnessReport("smooth", "macaulay_rank", None, details)
    return SmoothnessReport("singular", "macaulay_rank", _small_singular_point(z), details)


def smooth_check(z: Hypersurface) -> SmoothnessReport:
    """The exact smoothness verdict of Z = {f = 0}, z.smoothness.

    Macaulay's criterion (Macaulay 1902; Cox, Little & O'Shea, *Using
    Algebraic Geometry*, ch. 3): Z is smooth exactly when the n partials
    of f, forms of degree d - 1, have no common zero over the algebraic
    closure of Q (Euler's relation, characteristic 0), that is, exactly
    when the Macaulay matrix, rows x^m * d_i f and columns the monomials
    of degree D = n(d - 2) + 1, has full column rank.  Its entries are
    integers, so its rank mod p is at most its rank over Q: full rank
    mod the first standard prime proves "smooth"; after a short rank
    mod p the rank is taken over Q (Fraction elimination), which
    decides either way.  details: rank over Q, columns, elimination
    field.

    Supported: Macaulay matrices of at most 75,000 entries (n = 3 up to
    degree 8, n = 4 quartics, n = 5 cubics, quadrics up to n = 273);
    larger ones raise ConeError.  A dense smooth n = 4 quartic takes
    about 0.5 s; a singular one also pays the rank over Q, about 25 s.

    A "singular" report's witness is the first singular point among the
    primitive integer points with all |x_i| <= 2, or None if there is
    none (as when every singular point is irrational).
    """
    return z.smoothness


# ---------------------------------------------------------------------------
# cone structures
# ---------------------------------------------------------------------------

class ConeStructure:
    """A coframe plus a hypersurface; the cone equation f(mu), with
    mu = A(x) y the induced coframe's mu, is never expanded.

    The induced coframe is built on first read of induced, mu or chart,
    and then held here, so it stays shared through the coframe's weak
    reference while the cone structure lives; certify never reads it.
    """

    def __init__(self, coframe: Coframe, z: Hypersurface):
        if coframe.n != z.n:
            raise ConeError(f"coframe dimension {coframe.n} does not match "
                            f"hypersurface dimension {z.n}")
        self.coframe = coframe
        self.z = z

    @cached_property
    def induced(self) -> InducedCoframe:
        return self.coframe.induced

    @property
    def mu(self) -> tuple[RatFunc, ...]:
        return self.induced.mu

    @property
    def n(self) -> int:
        return self.coframe.n

    @property
    def chart(self) -> Chart:
        return self.induced.chart

    def structure(self):
        return self.coframe.structure

    def __repr__(self):
        return f"ConeStructure(n={self.n}, degree={self.z.degree})"


def require_smooth(z: Hypersurface) -> None:
    """Raise ConeError unless Z is smooth (see smooth_check), naming the
    witness of a singular Z, in projective coordinates (x1 : ... : xn),
    when one was found."""
    report = z.smoothness
    if report.witness is not None:
        point = " : ".join(str(c) for c in report.witness)
        raise ConeError(f"hypersurface is singular at ({point})")
    if not report:
        raise ConeError(f"hypersurface is singular, with no singular point whose "
                        f"coordinates are integers of size <= {_WITNESS_BOUND}")


def adapted_cone(cf: Coframe, z: Hypersurface) -> ConeStructure:
    """Build the cone structure presented by an adapted coframe.

    Z must be smooth: a singular hypersurface is rejected by
    require_smooth.
    """
    require_smooth(z)
    return ConeStructure(cf, z)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_cone(cs: ConeStructure, count: int, seed, field=None) -> list[tuple[tuple, tuple]]:
    """Points (x, y) with f(A(x) y) = 0 over the prime field GF(field),
    by default that of the first standard sampling prime.

    The y fiber point is B(x) u for a sampled cone point u of Z, so the
    samples satisfy the cone equation identically.
    """
    p = int(field or xi.DEFAULT_PRIMES[0])
    n = cs.n
    frame = cs.coframe.dual
    upoints = xi.sample_variety_points_modp(cs.z.f, p, count, f"{seed}:u")

    def place(rng, u, grad):
        x = [rng.randrange(p) for _ in range(n)]
        try:
            bvals = [[frame.matrix[j][a].evaluate_mod(x, p) for a in range(n)]
                     for j in range(n)]
            avals = [[cs.coframe.a[k][j].evaluate_mod(x, p) for j in range(n)]
                     for k in range(n)]
        except PoleError:
            return None
        y = [sum(bvals[j][a] * u[a] for a in range(n)) % p for j in range(n)]
        mu = [sum(avals[k][j] * y[j] for j in range(n)) % p for k in range(n)]
        if tuple(mu) != tuple(u):
            raise ConeError("dual frame failed to invert the coframe "
                            "at a sample point")
        grad_y = [sum(grad[k] * avals[k][j] for k in range(n)) % p
                  for j in range(n)]
        if not any(grad_y):
            return None
        return tuple(x), tuple(y)

    out = []
    for idx, (u, grad) in enumerate(upoints):
        out += draw_seeded(lambda rng: place(rng, u, grad), 1, seed, f"x{idx}:", 200,
                           ConeSamplingError, f"no pole-free chart point for sample {idx}")
    return out


# ---------------------------------------------------------------------------
# dynamical checks
# ---------------------------------------------------------------------------

@dataclass
class TangencyReport:
    verdict: bool
    mode: str
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict


@dataclass
class BracketReport:
    verdict: bool
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict


@dataclass
class CharacteristicReport:
    verdict: bool
    witness: tuple | None = None
    witness_residual: float | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict


def geodesic_tangency_check(cs: ConeStructure) -> TangencyReport:
    """gamma(mu^k) must be the identically-zero rational function for
    every k.

    By the chain rule gamma(f(mu)) = sum_k d_k f(mu) gamma(mu^k), so this
    proves gamma tangent to the cone {f(mu) = 0} of every Z, not only of
    cs.z.  Each gamma(mu^k) is linear in y and vanishes for every
    coframe, as mu is constant along the horizontal frame; a nonzero one
    means a broken induced coframe, and details["gamma_mu"] maps each
    failing k to it.
    """
    gamma_mu = map(cs.induced.gamma.apply, cs.mu)
    failing = {k: g.to_string(cs.chart.variables)
               for k, g in enumerate(gamma_mu) if not g.is_zero()}
    return TangencyReport(verdict=not failing, mode="exact",
                          details={"gamma_mu": failing} if failing else {})


def double_bracket_check(cs: ConeStructure, samples: int = 50, seed=0) -> BracketReport:
    """Prove omega(d pi([[v-tilde, gamma], gamma])) = sigma(u, v), where
    u = A(x) y and v is fiber-tangent at u.

    v-tilde is the vertical lift of the constant extension of v through
    the lambda-frame, so the double bracket is the matching constant
    combination of the per-axis fields [[(D_lambda)_a, gamma], gamma].
    For each a and k the identity reads
    omega(d pi [[(D_lambda)_a, gamma], gamma])^k = -sum_b c^k_{ab} mu^b,
    and it is the definition c^k_{ab} = d omega^k(e_a, e_b) of the
    structure function, e = D the dual frame, once A B = I holds and the
    lambda rows are d mu.  With B = A^{-1}, E the dx-block of lambda and
    Y = (y.grad) A:
    1. [(D_lambda)_a, gamma] = (D_theta)_a (ic.bracket_identity), so the
       double bracket is [X, gamma] with X = (D_theta)_a.
    2. Its dx-components are X(gamma^j) - gamma(X^j)
       = -(B E B)_{ja} - ((y.grad) B)_{ja} = -(B (E - Y) B)_{ja},
       as gamma^j = y_j and (y.grad) B = -B Y B.
    3. (E - Y)_{kl} = sum_j y_j (d_l A_{kj} - d_j A_{kl})
       = -(iota_y d omega^k)_l.
    4. With y = B mu, omega(d pi [[(D_lambda)_a, gamma], gamma])^k
       = -((E - Y) B)_{ka} = d omega^k(y, e_a)
       = -sum_b c^k_{ab} mu^b.
    So the verdict is ic.bracket_identity, which rests on the A B = I
    proof (ic.pairing, raising SingularCoframeError when it fails) since
    steps 1 and 2 read B.  c itself is not formed: the identity holds for
    the c of the definition, which coframe.structure_function computes
    from A's minors and det A.  No frame, bracket or cone point is
    formed.  samples and seed are accepted and ignored: the perfbench
    identities workload still passes them, and they go when it stops.
    """
    return BracketReport(verdict=cs.induced.bracket_identity)


# chart points scanned for the witness of a rejection (witness_scan)
WITNESS_SAMPLES = 25


def witness_scan(cf: Coframe, seed, escapes) -> tuple[tuple, float] | None:
    """The witness of a rejection an identity over Q has proved: the
    first of WITNESS_SAMPLES pole-free chart points, seeded seed, where
    escapes(values) holds for the structure function's values, with the
    exact distance from those values to Xi_V (the norm of their
    contraction_residual, as a float); None when no scanned point does."""
    struct = cf.structure
    for x in sample_points(cf.chart, WITNESS_SAMPLES, seed, avoid=cf.pole_polynomials()):
        values = struct.evaluate_at(x)
        if escapes(values):
            return x, math.sqrt(float(values.contraction_residual().norm_sq()))
    return None


def characteristic_check(cs: ConeStructure, xiZ: xi.TensorSubspace,
                         seed=0) -> CharacteristicReport:
    """Decide, by identities over Q, whether the structure tensor takes
    values in Xi_Z: the condition for the geodesic flow to define a
    characteristic connection.

    Each row of the Xi_Z constraints over Q (cs.z.xi_constraints()),
    applied to the structure function's components in
    coordinate_triples order, is a linear combination of rational
    functions.  The tensor lies in Xi_Z at every point exactly when all
    of them are zero; then no point is drawn.  Of xiZ only its
    dimension n is read, so the check decides over Q whatever the field
    of xiZ.

    When a combination is nonzero the check fails, and witness_scan,
    seeded f"{seed}:chi", names the first scanned point where the
    evaluated tensor leaves Xi_Z, with its distance to Xi_V; the
    rejection stands with witness None when no scanned point leaves.
    When dim Xi_Z = dim Xi_V and Xi_V is contained in Xi_Z, that
    distance equals the distance to Xi_Z itself; otherwise it is
    reported under the same label but is only an upper bound
    certificate of nonmembership in Xi_V.
    """
    if xiZ.n != cs.n:
        raise ConeError("Xi_Z subspace has wrong dimension")
    struct = cs.structure()
    rows = cs.z.xi_constraints()[0]
    comps = struct.coordinates()
    exact = all(sum((c * comp for c, comp in zip(row, comps) if c and comp),
                    struct.zero).is_zero() for row in rows)
    report = CharacteristicReport(
        verdict=exact,
        details={"residual_metric": "euclidean distance to the contraction image"})
    if not exact:
        found = witness_scan(cs.coframe, f"{seed}:chi", lambda values:
                             not xi._annihilates(rows, [values.coordinates()], None))
        report.witness, report.witness_residual = found or (None, None)
    return report
