"""The contraction map and the Xi subspaces of Hom(L^2 V, V).

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
or over Q; a cone.Hypersurface builds that match once and keeps one
reduction per field, which xi_Z and cone.characteristic_check both
read.  xi_Z raises XiError when the hypotheses fail.

The same match (membership_matrix, for any bidegree and family of
target forms) decides the two degeneracy probes exactly over Q: Z spans
V unless a linear form l(u) is a member (bidegree (1, 0), span_check),
and the tangent lines span L^2 V unless an antisymmetric form
omega(u, v) is one (bidegree (1, 1), tangent_lines_nondegenerate).
Neither probe samples a point.

A tensor is a coframe.AntisymmetricComponents with rational values
(iota builds them), flattened in the fixed order coordinate_triples,
(k, i < j), which every matrix in this module uses.  Tensors carry no
field: a TensorSubspace holds its basis as coordinate rows over its own
field, a prime p or "rational", and membership reduces a rational
tensor mod p itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from coneflat import _modp
from coneflat.funcfield import MultiPoly, RatFunc, _fraction_mod, evaluate_reduced
from coneflat.coframe import AntisymmetricComponents, Coframe, coordinate_dim, \
    coordinate_triples, draw_seeded, pair_list  # noqa: F401  (coordinate_triples re-exported)

DEFAULT_PRIMES = (2147483647, 2147483629)


class XiError(ValueError):
    """Malformed subspace data, or Xi_Z outside its hypotheses."""


class VarietySamplingError(RuntimeError):
    """Could not find enough smooth cone points."""


def _reduce(row: Sequence, p: int | None) -> list:
    """A rational coordinate row over GF(p), or unchanged when p is None."""
    return [_fraction_mod(v, p) for v in row] if p else list(row)


class TensorSubspace:
    """Linear subspace of Hom(L^2 V, V) over its field, a prime p or
    "rational": its basis is a list of verified-independent coordinate
    rows over that field, in coordinate_triples order."""

    def __init__(self, n: int, fieldtag, basis: Sequence[Sequence],
                 meta: dict | None = None):
        self.n = n
        self.field = fieldtag
        self.basis = [list(row) for row in basis]
        self.meta = dict(meta or {})
        if any(len(row) != coordinate_dim(n) for row in self.basis):
            raise XiError("basis row has wrong length")
        if isinstance(fieldtag, int):
            rank = _modp.rank(self.basis, fieldtag)
        else:
            rank = _modp.rank([[Fraction(v) for v in row] for row in self.basis])
        if rank != len(self.basis):
            raise XiError("subspace basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"TensorSubspace(n={self.n}, dim={self.dim}, field={self.field})"


# ---------------------------------------------------------------------------
# the contraction map and Xi_V
# ---------------------------------------------------------------------------

def iota(eta: Sequence) -> AntisymmetricComponents:
    """Contraction iota(eta): c^k_{ij} = eta_i d^k_j - eta_j d^k_i.

    The closed form is validated against the defining wedge identity by
    check_iota_identity (and by the test suite on random inputs).
    """
    eta = [Fraction(v) for v in eta]
    comps = {}
    for i, j in pair_list(len(eta)):
        # k = j picks up eta_i, k = i picks up -eta_j
        comps[(j, i, j)] = eta[i]
        comps[(i, i, j)] = -eta[j]
    return AntisymmetricComponents(len(eta), comps)


def xi_V(n: int) -> TensorSubspace:
    """The image of the contraction map; dimension is exactly n."""
    if n < 3:
        raise XiError("Xi_V requires dimension at least 3; "
                      "the closedness criterion fails on surfaces")
    basis = [iota([int(a == b) for b in range(n)]).coordinates() for a in range(n)]
    return TensorSubspace(n, "rational", basis, meta={"kind": "xi_V"})


@dataclass
class MembershipResult:
    member: bool
    coefficients: list | None
    residual: object

    def __bool__(self):
        return self.member


def membership(sigma: AntisymmetricComponents, space: TensorSubspace) -> MembershipResult:
    """Decide whether a constant tensor sigma, with rational values, lies
    in span(space), exactly over the space's field.

    Over Q the normal equations are solved, so the residual (squared
    distance) is exact; over GF(p) sigma is reduced mod p and the test is
    an exact span test with a 0/1 indicator.
    """
    if sigma.n != space.n:
        raise XiError("tensor dimension mismatch")
    basis_rows = space.basis

    if isinstance(space.field, int):
        p = space.field
        coords = _reduce(sigma.coordinates(), p)
        if not basis_rows:
            member = not any(coords)
            return MembershipResult(member, [] if member else None, 0 if member else 1)
        # solve_mod returns None exactly when coords is outside the span
        transposed = [[row[t] for row in basis_rows] for t in range(len(coords))]
        coeffs = _modp.solve_mod(transposed, coords, p)
        member = coeffs is not None
        return MembershipResult(member, coeffs, 0 if member else 1)

    coords = sigma.coordinates()
    norm = sigma.norm_sq()
    if not basis_rows:
        return MembershipResult(norm == 0, [] if norm == 0 else None, norm)
    m = len(basis_rows)
    gram = [[sum((a * b for a, b in zip(basis_rows[r], basis_rows[s])),
                 Fraction(0)) for s in range(m)] for r in range(m)]
    rhs = [sum((a * b for a, b in zip(basis_rows[r], coords)), Fraction(0))
           for r in range(m)]
    reduced, pivots = _modp.row_reduce([gram[r] + [rhs[r]] for r in range(m)])
    if pivots != list(range(m)):
        raise XiError("singular normal system (dependent basis?)")
    coeffs = [row[m] for row in reduced]
    residual_sq = norm - sum((c * r for c, r in zip(coeffs, rhs)), Fraction(0))
    member = residual_sq == 0
    return MembershipResult(member, coeffs if member else None, residual_sq)


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


# ---------------------------------------------------------------------------
# Xi_Z: the bidegree-(d, 1) membership system
# ---------------------------------------------------------------------------

@dataclass
class XiConfig:
    """backend is "modp" (exact over each prime) or "rational" (exact
    over Q); neither draws a sample.  samples and seed are ignored (seed
    is only echoed in meta): the perfbench certify workload still passes
    them, and they go when it stops."""

    backend: str = "modp"
    primes: tuple[int, ...] = DEFAULT_PRIMES
    samples: int = 50
    seed: object = 0

    def __post_init__(self):
        if self.backend not in ("modp", "rational"):
            raise XiError(f"unknown backend {self.backend!r}")
        for p in self.primes:
            if not _modp.is_probable_prime(p):
                raise XiError(f"{p} is not prime")


def _smooth_hypersurface(z):
    """z as a cone.Hypersurface (built here for a bare form), once
    Z = {f = 0} is proved smooth with n >= 3: the hypotheses under which
    (f, grad f . v) is radical.  Reads the cached
    Hypersurface.smoothness; raises XiError otherwise."""
    from coneflat.cone import ConeError, Hypersurface   # cone imports this module
    f = _poly_of(z)
    try:
        # Hypersurface also refuses n < 3
        z = z if isinstance(z, Hypersurface) else Hypersurface(f)
        report = z.smoothness
    except ConeError as exc:
        raise XiError(f"smoothness of Z is not proved: {exc}") from exc
    if not report:
        raise XiError("Xi_Z and the degeneracy probes are exact for smooth Z "
                      "only; this Z is singular")
    return z


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


def xi_Z(z, config: XiConfig | None = None) -> TensorSubspace:
    """Xi_Z of a smooth Z = {f = 0} with n >= 3, exactly by ideal membership
    (see the module docstring): the sigma constraints over each field
    are read off the RREF of one integer match, which the Hypersurface
    builds once and reduces once per field (Hypersurface.xi_constraints).

    backend "modp": the kernel over each configured prime.  meta: dims
    per prime; stable, the per-prime dimensions agree; contains_xi_V,
    every constraint row annihilates every iota basis tensor;
    proves_xi_V, some prime gives dimension n, contains Xi_V and keeps
    the (c, b) block at its full rank 2n, which proves Xi_Z = Xi_V over
    Q (a rank mod p is at most the rank over Q).  The basis is that of
    the first prime.

    backend "rational": the same matrix reduced over Q; a "rational"
    subspace, stable by construction.

    Raises XiError for n < 3 or a Z not proved smooth.
    """
    config = config or XiConfig()
    z = _smooth_hypersurface(z)
    n = z.n
    iota_rows = xi_V(n).basis
    meta = {"backend": config.backend, "seed": str(config.seed), "dims": {}, "notes": []}

    fields = list(config.primes) if config.backend == "modp" else [None]
    meta["method"] = "ideal_membership"
    bases = {}
    contains_all = True
    proves = False
    for p in fields:
        rows, pivots, cb_rank = z.xi_constraints(p)
        bases[p] = _modp.kernel_from_rref(rows, pivots, coordinate_dim(n), p)
        contains = _annihilates(rows, [_reduce(row, p) for row in iota_rows], p)
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
        return TensorSubspace(n, "rational", bases[None], meta=meta)
    meta["primes"] = list(config.primes)
    p0 = config.primes[0]
    return TensorSubspace(n, p0, bases[p0], meta=meta)


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
    f = _smooth_hypersurface(z).f
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
    f = _smooth_hypersurface(z).f
    n = f.nvars
    rank = _member_codimension(f, (1, 0), [{(_unit(n, i), None): 1} for i in range(n)])
    return rank == n, rank
