"""Constant tensors in Hom(L^2 V, V), the contraction map, and Xi spaces.

Xi_V is the n-dimensional image of the contraction iota(eta)(u, v) =
eta(u) v - eta(v) u.  Xi_Z is cut out by the linear conditions
"grad f(u) . sigma(u, v) = 0 whenever u lies on the cone of Z and v is
tangent there", that is: G_sigma(u, v) = sum_k d_k f(u) sigma^k(u, v)
vanishes on the incidence variety {f(u) = 0, grad f(u) . v = 0}.

For smooth Z and n >= 3 the ideal (f, grad f . v) is a complete
intersection that is generically reduced and Cohen-Macaulay, hence
radical (Eisenbud, Commutative Algebra, section 18), so vanishing is
membership.  G_sigma has bidegree (d, 1) in (u, v), and the members of
that bidegree are (c . v) f(u) + (b . u) (grad f(u) . v) for constant
vectors c, b.  Xi_Z is therefore the sigma-part of the kernel of one
integer coefficient-match matrix, reduced exactly over each prime field
or over Q; xi_Z raises XiError when the hypotheses fail.  A float
backend keeps a numerical kernel of constraints at sampled complex cone
points, checked against the exact dimension.

The same match (membership_matrix, for any bidegree and family of
target forms) decides the two degeneracy probes exactly over Q: Z spans
V unless a linear form l(u) is a member (bidegree (1, 0), span_check),
and the tangent lines span L^2 V unless an antisymmetric form
omega(u, v) is one (bidegree (1, 1), tangent_lines_nondegenerate).
Neither probe samples a point.

Tensor coordinates are flattened in the fixed order (k, i < j); every
matrix in this module uses that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from coneflat import _modp
from coneflat.funcfield import MultiPoly, RatFunc, _fraction_mod, evaluate_reduced
from coneflat.coframe import Coframe, draw_seeded

DEFAULT_PRIMES = (2147483647, 2147483629)


class XiError(ValueError):
    """Inconsistent fields or malformed tensor data."""


class VarietySamplingError(RuntimeError):
    """Could not find enough smooth cone points."""


def pair_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def coordinate_triples(n: int) -> list[tuple[int, int, int]]:
    """Flattening order of Hom(L^2 V, V): k outer, (i < j) inner."""
    pairs = pair_list(n)
    return [(k, i, j) for k in range(n) for (i, j) in pairs]


def coordinate_dim(n: int) -> int:
    return n * (n * (n - 1) // 2)


class HomTensor:
    """Constant antisymmetric tensor c^k_{ij} over a stated field.

    field is "rational" (Fraction entries), a prime p (ints mod p), or
    "float" (complex entries).
    """

    def __init__(self, n: int, components: dict[tuple[int, int, int], object],
                 fieldtag="rational"):
        self.n = n
        self.field = fieldtag
        clean = {}
        for (k, i, j), val in components.items():
            if i >= j:
                raise XiError("tensor components must be stored with i < j")
            if isinstance(fieldtag, int):
                val %= fieldtag
            if _is_zero_scalar(val, fieldtag):
                continue
            clean[(k, i, j)] = val
        self.c = clean

    @staticmethod
    def from_coordinates(n: int, vec: Sequence, fieldtag="rational") -> HomTensor:
        triples = coordinate_triples(n)
        if len(vec) != len(triples):
            raise XiError("coordinate vector has wrong length")
        return HomTensor(n, dict(zip(triples, vec)), fieldtag)

    def get(self, k: int, i: int, j: int):
        if i == j:
            return self._zero_scalar()
        if i < j:
            return self.c.get((k, i, j), self._zero_scalar())
        val = self.c.get((k, j, i))
        if val is None:
            return self._zero_scalar()
        return (-val) % self.field if isinstance(self.field, int) else -val

    def _zero_scalar(self):
        return 0 if isinstance(self.field, int) else \
            Fraction(0) if self.field == "rational" else 0.0

    def coordinates(self) -> list:
        return [self.c.get(t, self._zero_scalar()) for t in coordinate_triples(self.n)]

    def is_zero(self) -> bool:
        return not self.c

    def apply(self, u: Sequence, v: Sequence) -> list:
        """sigma(u, v) as a vector of field scalars."""
        out = []
        modulus = self.field if isinstance(self.field, int) else None
        for k in range(self.n):
            acc = self._zero_scalar()
            for (kk, i, j), c in self.c.items():
                if kk != k:
                    continue
                wedge = u[i] * v[j] - u[j] * v[i]
                acc = acc + c * wedge
            out.append(acc % modulus if modulus else acc)
        return out

    def reduce_mod(self, p: int) -> HomTensor:
        if self.field != "rational":
            raise XiError("only rational tensors reduce mod a prime")
        return HomTensor(self.n, {key: _fraction_mod(val, p) for key, val in self.c.items()}, p)

    def to_float(self) -> HomTensor:
        if isinstance(self.field, int):
            raise XiError("prime-field tensors have no canonical float image")
        return HomTensor(self.n, {k: complex(v) for k, v in self.c.items()}, "float")

    def __add__(self, other: HomTensor) -> HomTensor:
        self._check_compatible(other)
        out = dict(self.c)
        modulus = self.field if isinstance(self.field, int) else None
        for key, val in other.c.items():
            s = out.get(key, self._zero_scalar()) + val
            if modulus:
                s %= modulus
            if _is_zero_scalar(s, self.field):
                out.pop(key, None)
            else:
                out[key] = s
        return HomTensor(self.n, out, self.field)

    def scale(self, t) -> HomTensor:
        modulus = self.field if isinstance(self.field, int) else None
        out = {}
        for key, val in self.c.items():
            s = val * t
            if modulus:
                s %= modulus
            if not _is_zero_scalar(s, self.field):
                out[key] = s
        return HomTensor(self.n, out, self.field)

    def __eq__(self, other):
        if not isinstance(other, HomTensor):
            return NotImplemented
        return (self.n == other.n and self.field == other.field
                and self.c == other.c)

    def _check_compatible(self, other: HomTensor):
        if self.n != other.n or self.field != other.field:
            raise XiError("tensor field or dimension mismatch")

    def __repr__(self):
        return f"HomTensor(n={self.n}, field={self.field}, nonzero={len(self.c)})"


def _is_zero_scalar(val, fieldtag) -> bool:
    if isinstance(fieldtag, int):
        return val % fieldtag == 0
    return val == 0


class TensorSubspace:
    """Linear subspace of Hom(L^2 V, V) with a verified-independent basis."""

    def __init__(self, n: int, fieldtag, basis: Sequence[HomTensor],
                 meta: dict | None = None, tol: float = 1e-8):
        self.n = n
        self.field = fieldtag
        self.basis = list(basis)
        self.meta = dict(meta or {})
        self.tol = tol
        for b in self.basis:
            if b.n != n or b.field != fieldtag:
                raise XiError("basis tensor has wrong dimension or field")
        rows = [b.coordinates() for b in self.basis]
        if rows:
            if isinstance(fieldtag, int):
                rank = _modp.rank(rows, fieldtag)
            elif fieldtag == "rational":
                rank = len(_modp.row_reduce(
                    [[Fraction(v) for v in row] for row in rows])[1])
            else:
                rank = int(np.linalg.matrix_rank(np.array(rows, dtype=complex),
                                                 tol=tol))
            if rank != len(rows):
                raise XiError("subspace basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"TensorSubspace(n={self.n}, dim={self.dim}, field={self.field})"


# ---------------------------------------------------------------------------
# the contraction map and Xi_V
# ---------------------------------------------------------------------------

def iota(eta: Sequence) -> HomTensor:
    """Contraction iota(eta): c^k_{ij} = eta_i d^k_j - eta_j d^k_i.

    The closed form is validated against the defining wedge identity by
    check_iota_identity (and by the test suite on random inputs).
    """
    n = len(eta)
    eta = [Fraction(v) for v in eta]
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            # k = j picks up eta_i, k = i picks up -eta_j
            if eta[i] != 0:
                comps[(j, i, j)] = eta[i]
            if eta[j] != 0:
                comps[(i, i, j)] = -eta[j]
    return HomTensor(n, comps, "rational")


def xi_V(n: int) -> TensorSubspace:
    """The image of the contraction map; dimension is exactly n."""
    if n < 3:
        raise XiError("Xi_V requires dimension at least 3; "
                      "the closedness criterion fails on surfaces")
    basis = []
    for a in range(n):
        eta = [Fraction(0)] * n
        eta[a] = Fraction(1)
        basis.append(iota(eta))
    return TensorSubspace(n, "rational", basis, meta={"kind": "xi_V"})


@dataclass
class MembershipResult:
    member: bool
    coefficients: list | None
    residual: object
    field: object

    def __bool__(self):
        return self.member


def membership(sigma: HomTensor, space: TensorSubspace,
               tol: float = 1e-8) -> MembershipResult:
    """Decide sigma in span(space) with an exact or numeric residual.

    Rational mode solves the normal equations over the rationals, so the
    residual (squared distance) is exact; prime mode is an exact span
    test with a 0/1 indicator; float mode is least squares with the
    given relative tolerance.
    """
    if sigma.n != space.n:
        raise XiError("tensor dimension mismatch")
    if sigma.field != space.field:
        raise XiError(f"field mismatch: tensor {sigma.field}, space {space.field}")
    coords = sigma.coordinates()
    basis_rows = [b.coordinates() for b in space.basis]

    if isinstance(space.field, int):
        p = space.field
        if not basis_rows:
            member = all(v % p == 0 for v in coords)
            return MembershipResult(member, [] if member else None,
                                    0 if member else 1, p)
        # solve_mod returns None exactly when coords is outside the span
        transposed = [[row[t] for row in basis_rows] for t in range(len(coords))]
        coeffs = _modp.solve_mod(transposed, coords, p)
        member = coeffs is not None
        return MembershipResult(member, coeffs, 0 if member else 1, p)

    if space.field == "rational":
        if not basis_rows:
            norm = sum((v * v for v in coords), Fraction(0))
            return MembershipResult(norm == 0, [] if norm == 0 else None, norm,
                                    "rational")
        m = len(basis_rows)
        gram = [[sum((a * b for a, b in zip(basis_rows[r], basis_rows[s])),
                     Fraction(0)) for s in range(m)] for r in range(m)]
        rhs = [sum((a * b for a, b in zip(basis_rows[r], coords)), Fraction(0))
               for r in range(m)]
        reduced, pivots = _modp.row_reduce([gram[r] + [rhs[r]] for r in range(m)])
        if pivots != list(range(m)):
            raise XiError("singular normal system (dependent basis?)")
        coeffs = [row[m] for row in reduced]
        norm = sum((v * v for v in coords), Fraction(0))
        residual_sq = norm - sum((c * r for c, r in zip(coeffs, rhs)), Fraction(0))
        member = residual_sq == 0
        return MembershipResult(member, coeffs if member else None,
                                residual_sq, "rational")

    a = np.array(basis_rows, dtype=complex).T
    b = np.array(coords, dtype=complex)
    if a.size == 0:
        res = float(np.linalg.norm(b))
        scale = max(res, 1.0)
        return MembershipResult(res < tol * scale, [] if res < tol * scale else None,
                                res, "float")
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    res = float(np.linalg.norm(a @ sol - b))
    scale = max(float(np.linalg.norm(b)), 1.0)
    member = res < tol * scale
    return MembershipResult(member, list(sol) if member else None, res, "float")


def check_iota_identity(eta: Sequence[Fraction], cf: Coframe) -> bool:
    """Defining property of the contraction: iota(eta)-sharp (w ^ w)
    equals (eta-sharp w) ^ w, exactly, in chart components."""
    n = cf.n
    tensor = iota(eta)
    eta = [Fraction(v) for v in eta]
    # s = eta-sharp omega as a scalar 1-form in the dx basis
    s = []
    for j in range(n):
        acc = RatFunc.const(n, 0)
        for a in range(n):
            if eta[a] != 0:
                acc = acc + cf.a[a][j] * eta[a]
        s.append(acc)
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                lhs = RatFunc.const(n, 0)
                for a in range(n):
                    for b in range(a + 1, n):
                        c = tensor.get(k, a, b)
                        if c != 0:
                            wedge = cf.a[a][i] * cf.a[b][j] - cf.a[b][i] * cf.a[a][j]
                            lhs = lhs + wedge * c
                rhs = s[i] * cf.a[k][j] - s[j] * cf.a[k][i]
                if lhs != rhs:
                    return False
    return True


# ---------------------------------------------------------------------------
# sampling the cone of a hypersurface
# ---------------------------------------------------------------------------

def _poly_of(z) -> MultiPoly:
    f = getattr(z, "f", z)
    if not isinstance(f, MultiPoly):
        raise XiError("expected a hypersurface or a defining polynomial")
    return f


def sample_variety_points_modp(z, p: int, count: int, seed) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Points u on the cone {f = 0} over GF(p) with their gradients.

    Fixes all but one coordinate at random, solves the resulting
    univariate polynomial by exact root finding, and rejects the zero
    vector and points where the gradient vanishes.  Deterministic for a
    fixed seed: candidate index idx uses generator seed f"{seed}:u{idx}".
    """
    f = _poly_of(z)
    n = f.nvars
    f_mod = f.reduce_mod_prime(p)
    grads = [f.diff(i).reduce_mod_prime(p) for i in range(n)]

    def draw(rng):
        free = rng.randrange(n)
        vals = [rng.randrange(p) for _ in range(n)]
        coeffs = [0] * (f.degree_in(free) + 1)
        for exp, coeff in f_mod.items():
            term = coeff
            for i, e in enumerate(exp):
                if i != free and e:
                    term = term * pow(vals[i], e, p) % p
            coeffs[exp[free]] = (coeffs[exp[free]] + term) % p
        if any(coeffs):
            roots = _modp.poly_roots(coeffs, p, rng)
            if not roots:
                return None
            root = roots[rng.randrange(len(roots))]
        else:
            root = rng.randrange(p)
        u = list(vals)
        u[free] = root
        if not any(u):
            return None
        grad = tuple(evaluate_reduced(g, u, p) for g in grads)
        if not any(grad):
            return None
        return tuple(u), grad

    return draw_seeded(draw, count, seed, "u", max(count * 150, 64), VarietySamplingError,
                       f"found {{found}} of {{count}} cone points mod {p} after {{limit}} tries")


def sample_variety_points_complex(z, count: int, seed) -> list[tuple[np.ndarray, np.ndarray]]:
    """Complex cone points with gradients, |f(u)| polished below 1e-12.

    The float backend works over the complex numbers: real points of a
    positive form (a Fermat quartic, say) would be only the origin.
    """
    f = _poly_of(z)
    n = f.nvars
    gradients = [f.diff(i) for i in range(n)]

    def draw(rng):
        free = rng.randrange(n)
        vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        deg = f.degree_in(free)
        coeffs = [0j] * (deg + 1)
        for exp, coeff in f.coeffs.items():
            term = complex(coeff / f.den)
            for i, e in enumerate(exp):
                if i != free and e:
                    term *= vals[i] ** e
            coeffs[exp[free]] += term
        if all(abs(c) < 1e-14 for c in coeffs[1:]):
            return None
        roots = np.roots(coeffs[::-1])
        roots = [r for r in roots if np.isfinite(r)]
        if not roots:
            return None
        t = roots[rng.randrange(len(roots))]
        dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
        for _ in range(2):
            fval = sum(c * t ** k for k, c in enumerate(coeffs))
            dval = sum(c * t ** k for k, c in enumerate(dcoeffs))
            if abs(dval) < 1e-14:
                break
            t = t - fval / dval
        u = np.array(vals, dtype=complex)
        u[free] = t
        norm = np.linalg.norm(u)
        if norm < 1e-8:
            return None
        u = u / norm
        if abs(f.evaluate(list(u))) > 1e-10:
            return None
        grad = np.array([g.evaluate(list(u)) for g in gradients], dtype=complex)
        if np.linalg.norm(grad) < 1e-8:
            return None
        return u, grad

    return draw_seeded(draw, count, seed, "c", max(count * 120, 64), VarietySamplingError,
                       "found {found} of {count} complex cone points after {limit} tries")


# ---------------------------------------------------------------------------
# Xi_Z: the bidegree-(d, 1) membership system
# ---------------------------------------------------------------------------

@dataclass
class ConstraintBatch:
    n: int
    rows: list
    provenance: list = field(default_factory=list)


@dataclass
class XiConfig:
    """backend is "modp" (exact over each prime), "rational" (exact over
    Q) or "float" (a numerical kernel of sampled complex constraints).
    samples and seed feed only the float backend: they size and seed its
    sample of complex cone points.  The exact backends and the
    degeneracy probes draw no samples."""

    backend: str = "modp"
    primes: tuple[int, ...] = DEFAULT_PRIMES
    samples: int = 50
    seed: object = 0
    tol: float = 1e-8

    def __post_init__(self):
        for p in self.primes:
            if not _modp.is_probable_prime(p):
                raise XiError(f"{p} is not prime")


def assemble_xiZ_constraints(z, count: int, seed) -> ConstraintBatch:
    """One row per (complex cone point u, tangent-basis vector v): the
    functional sigma -> grad f(u) . sigma(u, v) in flattened tensor
    coordinates, for the float backend."""
    f = _poly_of(z)
    n = f.nvars
    triples = coordinate_triples(n)
    rows = []
    provenance = []
    for u, grad in sample_variety_points_complex(z, count, seed):
        pivot = int(np.argmax(np.abs(grad)))
        for i in range(n):
            if i == pivot:
                continue
            v = np.zeros(n, dtype=complex)
            v[i] = 1.0
            v[pivot] = -grad[i] / grad[pivot]
            wedge = {(a, b): u[a] * v[b] - u[b] * v[a] for (a, b) in pair_list(n)}
            rows.append([grad[k] * wedge[(i2, j2)] for (k, i2, j2) in triples])
            provenance.append((tuple(u), tuple(v)))
    return ConstraintBatch(n=n, rows=rows, provenance=provenance)


def _smooth_form(z) -> MultiPoly:
    """The form f of z, once Z = {f = 0} is proved smooth with n >= 3:
    the hypotheses under which (f, grad f . v) is radical.  Reads the
    cached Hypersurface.smoothness (building a Hypersurface for a bare
    form); raises XiError otherwise."""
    from coneflat.cone import ConeError, Hypersurface   # cone imports this module
    f = _poly_of(z)
    try:
        # Hypersurface also refuses n < 3
        report = (z if isinstance(z, Hypersurface) else Hypersurface(f)).smoothness
    except ConeError as exc:
        raise XiError(f"smoothness of Z is not proved: {exc}") from exc
    if not report:
        raise XiError("Xi_Z and the degeneracy probes are exact for smooth Z "
                      "only; this Z is singular")
    return f


def _shift(exp: tuple, i: int, by: int = 1) -> tuple:
    return exp[:i] + (exp[i] + by,) + exp[i + 1:]


def _unit(n: int, i: int) -> tuple:
    return _shift((0,) * n, i)


def _gradient(f: MultiPoly) -> list[dict]:
    """The partials d_k f of the integer numerator of f, as {exponent: coefficient}."""
    return [{_shift(exp, k, -1): a * exp[k] for exp, a in f.coeffs.items() if exp[k]}
            for k in range(f.nvars)]


def membership_matrix(f: MultiPoly, bidegree: tuple[int, int],
                      target: Sequence[dict]) -> tuple[list[list[int]], int]:
    """The integer coefficient match of a family of forms T(x) = sum_t
    x_t T_t of bidegree (e, delta) in (u, v), delta 0 or 1, against the
    members of that bidegree of the ideal (f, grad f . v):

        T(x) = m(u, v) f(u) + b(u) (grad f(u) . v),

    m of bidegree (e - d, delta), b of bidegree (e - d + 1, 0), and b
    only when delta = 1.  Each target form is {(alpha, j): coefficient}
    on the monomials u^alpha v_j, with j None when delta = 0.  Both sides
    are compared monomial by monomial: one row per monomial that some
    term reaches, and the columns [m | b | x]; returns (rows, number of
    columns of the multiplier block [m | b]).  f enters through its
    integer numerator, which spans the same ideal.
    """
    from coneflat.cone import _monomials   # cone imports this module
    n = f.nvars
    e, delta = bidegree
    d = f.total_degree()
    f_mult = [(beta, j) for j in (range(n) if delta else (None,))
              for beta in (_monomials(n, e - d) if e >= d else ())]
    b_mult = _monomials(n, e - d + 1) if delta and e >= d - 1 else []
    lead = len(f_mult) + len(b_mult)
    width = lead + len(target)
    rows: dict[tuple, list[int]] = {}

    def add(key, col, coeff):
        row = rows.get(key)
        if row is None:
            row = rows[key] = [0] * width
        row[col] += coeff

    def times(exp, beta):
        return tuple(a + b for a, b in zip(exp, beta))

    for col, (beta, j) in enumerate(f_mult):
        for exp, a in f.coeffs.items():
            add((times(exp, beta), j), col, -a)
    grad = _gradient(f)
    for col, beta in enumerate(b_mult, len(f_mult)):
        for k, partial in enumerate(grad):
            for exp, a in partial.items():
                add((times(exp, beta), k), col, -a)
    for col, form in enumerate(target, lead):
        for key, coeff in form.items():
            add(key, col, coeff)
    return list(rows.values()), lead


def _xi_target(f: MultiPoly) -> list[dict]:
    """G_sigma = sum_k d_k f(u) sigma^k(u, v) for sigma each basis tensor
    of coordinate_triples: the bidegree-(d, 1) target of Xi_Z."""
    target = []
    for partial in _gradient(f):
        for (i, j) in pair_list(f.nvars):
            form = {(_shift(g, i), j): c for g, c in partial.items()}
            form.update({(_shift(g, j), i): -c for g, c in partial.items()})
            target.append(form)
    return target


def _target_constraints(matrix: list[list[int]], lead: int, p: int | None):
    """Reduce a membership matrix over GF(p), or over Q when p is None;
    returns (rows, pivots, rank of the multiplier block), rows and pivots
    restricted to the target columns.

    The RREF rows whose pivot lies in the target block are zero on the
    multiplier block, and every other row can be met by a choice of
    multipliers; so T(x) is a member exactly when those rows annihilate
    x, whatever the rank of the multiplier block.  Their number is the
    codimension of the members in the target family.
    """
    if p is None:
        reduced, pivots = _modp.row_reduce([[Fraction(c) for c in row] for row in matrix])
    else:
        reduced, pivots = _modp.rref_mod(matrix, p)
    rows = [row[lead:] for row, col in zip(reduced, pivots) if col >= lead]
    cols = [col - lead for col in pivots if col >= lead]
    return rows, cols, len(pivots) - len(cols)


def _annihilates(rows, vectors, p: int | None) -> bool:
    for vec in vectors:
        for row in rows:
            s = sum(r * v for r, v in zip(row, vec))
            if (s % p if p else s) != 0:
                return False
    return True


def xi_constraints(f: MultiPoly, fields: Sequence[int | None] = (None,)) -> list[tuple]:
    """The constraints cutting Xi_Z out of Hom(L^2 V, V), over each field
    of fields (a prime, or None for Q): for each, (rows, pivots, rank of
    the multiplier block) from _target_constraints of the bidegree-(d, 1)
    match (membership_matrix with _xi_target), whose integer matrix is
    built once.  A tensor, in coordinate_triples order, lies in Xi_Z
    exactly when every row annihilates it."""
    matrix, lead = membership_matrix(f, (f.total_degree(), 1), _xi_target(f))
    return [_target_constraints(matrix, lead, p) for p in fields]


def xi_Z(z, config: XiConfig | None = None) -> TensorSubspace:
    """Xi_Z of a smooth Z = {f = 0} with n >= 3, exactly by ideal membership
    (see the module docstring): the sigma constraints over each field
    are read off the RREF of one integer match (xi_constraints).

    backend "modp": the kernel over each configured prime.  meta: dims
    per prime; stable, the per-prime dimensions agree; contains_xi_V,
    every constraint row annihilates every iota basis tensor;
    proves_xi_V, some prime gives dimension n, contains Xi_V and keeps
    the (c, b) block at its full rank 2n, which proves Xi_Z = Xi_V over
    Q (a rank mod p is at most the rank over Q).  The basis is that of
    the first prime.

    backend "rational": the same matrix reduced over Q; a "rational"
    subspace, stable by construction.

    backend "float": the numerical kernel (SVD) of constraints at
    sampled complex cone points; stable when its dimension equals the
    exact dimension mod the first prime.

    Raises XiError for n < 3 or a Z not proved smooth.
    """
    config = config or XiConfig()
    f = _smooth_form(z)
    n = f.nvars
    iota = xi_V(n).basis
    meta = {"backend": config.backend, "seed": str(config.seed), "dims": {}, "notes": []}

    if config.backend == "float":
        batch = assemble_xiZ_constraints(z, max(config.samples, coordinate_dim(n)),
                                         config.seed)
        a = np.array(batch.rows, dtype=complex)
        _, svals, vh = np.linalg.svd(a)
        cutoff = config.tol * (svals[0] if len(svals) else 1.0)
        rank = int(np.sum(svals > cutoff))
        kernel = vh[rank:].conj()
        basis = [HomTensor.from_coordinates(n, list(vec), "float") for vec in kernel]
        contains = all(
            float(np.linalg.norm(a @ np.array([complex(c) for c in b.coordinates()])))
            < config.tol * max(float(np.linalg.norm(a)), 1.0)
            for b in iota)
        p = config.primes[0]
        exact = coordinate_dim(n) - len(xi_constraints(f, [p])[0][0])
        meta["dims"]["float"] = len(basis)
        meta["contains_xi_V"] = contains
        meta["stable"] = len(basis) == exact
        if not meta["stable"]:
            meta["notes"].append(f"float kernel dimension {len(basis)} differs from "
                                 f"the exact dimension {exact} mod {p}")
        meta["singular_values"] = [float(s) for s in svals]
        return TensorSubspace(n, "float", basis, meta=meta, tol=config.tol)

    if config.backend == "modp":
        fields = list(config.primes)
    elif config.backend == "rational":
        fields = [None]
    else:
        raise XiError(f"unknown backend {config.backend!r}")
    meta["method"] = "ideal_membership"
    bases = {}
    contains_all = True
    proves = False
    for p, (rows, pivots, cb_rank) in zip(fields, xi_constraints(f, fields)):
        bases[p] = _modp.kernel_from_rref(rows, pivots, coordinate_dim(n), p)
        iota_vecs = [(b.reduce_mod(p) if p else b).coordinates() for b in iota]
        contains = _annihilates(rows, iota_vecs, p)
        if not contains:
            meta["notes"].append(f"an iota basis tensor violates a constraint mod {p}")
        contains_all = contains_all and contains
        proves = proves or (len(bases[p]) == n and contains and cb_rank == 2 * n)
        meta["dims"][str(p) if p else "rational"] = len(bases[p])
    dims = set(meta["dims"].values())
    if len(dims) != 1:
        meta["notes"].append(f"prime backends disagree on dimension: {meta['dims']}")
    meta["stable"] = len(dims) == 1
    meta["contains_xi_V"] = contains_all
    meta["proves_xi_V"] = proves
    if config.backend == "rational":
        basis = [HomTensor.from_coordinates(n, [Fraction(v) for v in vec], "rational")
                 for vec in bases[None]]
        return TensorSubspace(n, "rational", basis, meta=meta, tol=config.tol)
    meta["primes"] = list(config.primes)
    p0 = config.primes[0]
    basis = [HomTensor.from_coordinates(n, vec, p0) for vec in bases[p0]]
    return TensorSubspace(n, p0, basis, meta=meta, tol=config.tol)


def _member_codimension(f: MultiPoly, bidegree: tuple[int, int], target) -> int:
    """Codimension of the ideal members in a target family, over Q."""
    return len(_target_constraints(*membership_matrix(f, bidegree, target), None)[0])


def tangent_lines_nondegenerate(z) -> tuple[bool, int]:
    """Rank of the span of the wedges u ^ v over the tangent pairs of a
    smooth Z (n >= 3); nondegenerate at C(n, 2).

    C(n, 2) minus the dimension of the antisymmetric forms omega(u, v) =
    sum_{i<j} omega_ij (u_i v_j - u_j v_i) in the ideal (f, grad f . v),
    bidegree (1, 1), decided over Q.  For d >= 3 nothing of the ideal has
    that bidegree, for d = 2 only the multiples of the symmetric
    grad f(u) . v, so d >= 2 gives full rank.  Raises XiError unless Z is
    proved smooth.
    """
    f = _smooth_form(z)
    target = [{(_unit(f.nvars, i), j): 1, (_unit(f.nvars, j), i): -1}
              for (i, j) in pair_list(f.nvars)]
    rank = _member_codimension(f, (1, 1), target)
    return rank == len(target), rank


def span_check(z) -> tuple[bool, int]:
    """Rank of the linear span of the cone of a smooth Z (n >= 3); Z
    spans V at rank n.

    n minus the dimension of the linear forms l(u) in the ideal
    (f, grad f . v), bidegree (1, 0), decided over Q.  For d >= 2 nothing
    of the ideal has that bidegree (f has u-degree d, grad f . v is linear
    in v), so d >= 2 gives full rank.  Raises XiError unless Z is proved
    smooth.
    """
    f = _smooth_form(z)
    n = f.nvars
    rank = _member_codimension(f, (1, 0), [{(_unit(n, i), None): 1} for i in range(n)])
    return rank == n, rank
