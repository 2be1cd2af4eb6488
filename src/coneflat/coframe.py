"""Coframe calculus on a chart and on its tangent bundle.

A coframe is an invertible n-by-n matrix A of rational functions over a
chart, read as the vector-valued 1-form with components
omega^k = sum_j A[k][j] dx_j.  This module computes dual frames,
exterior derivatives, structure functions, the induced coframe
(theta, lambda) on the tangent chart, the geodesic flow, and exact
verification of the bracket identities tying them together.

Each derived object is computed once, on first use, and every check
reads it: Coframe.structure (from A's complementary minors and det A,
with no dual frame), Coframe.dual (one mat_inverse), Coframe.pairing
(A B = I, one mat_mul) and Coframe.induced, whose InducedCoframe holds
the pairing proof of (theta, lambda), the geodesic flow gamma and the
verdict of [(D_lambda)_a, gamma] = (D_theta)_a.  Every fact is proved
once, from small operands.  The structure function is exact by
construction: Jacobi's complementary-minor theorem turns its
contraction of d omega with B = A^{-1} into one with the (n - 2)-minors
of A over det A, whose reconstruction through A follows from the same
identity (structure_function).  The one A B = I underlies only what
reads B: the d-lemma; the pairing of (theta, lambda) with its dual
frames, which follows from it and the block form of the induced
matrix; the mu relations and the bracket identity, which follow once
the lambda rows are seen to be d mu, entry by entry; and gamma, in its
closed form (y, -B E y).  The induced structure function is never
built: theta = pi* omega and lambda = d mu make it the lifted base one
in the theta-theta block and zero elsewhere.  No check builds the
tangent frames or takes a Lie bracket.  A coframe holds its induced
coframe weakly: InducedCoframe.base points back at it, and a strong
cycle would keep a discarded coframe's expressions alive until the
cyclic garbage collector runs.  So the induced coframe is shared while
some caller, such as a ConeStructure, holds it.

Every antisymmetric (k, i < j) tensor of the package, d omega and c
here as well as the constant tensors of coneflat.xi, is one container,
AntisymmetricComponents, with RatFunc or Fraction values.  It holds the
coordinate order (coordinate_triples), the trace covector and the
contraction residual c - iota(xi).  StructureFunction.evaluate_at
returns the container with Fraction values, so a witness's distance to
Xi_V comes from the same residual code as the symbolic verdict.

Sign convention: with c defined by d omega^k = sum_{a<b} c^k_{ab}
omega^a wedge omega^b, the dual-frame fields satisfy
[D_a, D_b] = - sum_k c^k_{ab} D_k.  The minus sign is forced by the
concrete formulas; the brute-force bracket oracles of the test suite
confirm it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from coneflat import _modp
from coneflat.funcfield import FuncFieldError, MultiPoly, PoleError, RatFunc, \
    parse_ratfunc


class ChartError(ValueError):
    """Malformed chart data."""


class SingularCoframeError(ValueError):
    """The coefficient matrix is not invertible where it must be."""


class SamplingError(RuntimeError):
    """Could not draw enough pole-free sample points."""


# ---------------------------------------------------------------------------
# charts and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Rational-coordinate chart: dimension, variable names, base point.

    The dimension floor of 3 matches the range where the conformal
    closedness criterion is valid; nothing in this package targets
    surfaces.
    """

    n: int
    variables: tuple[str, ...]
    base_point: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ChartError(f"chart dimension must be at least 3, got {self.n}")
        if len(self.variables) != self.n:
            raise ChartError("variable list length does not match dimension")
        if len(set(self.variables)) != self.n:
            raise ChartError("variable names must be distinct")
        for name in self.variables:
            if not name.isidentifier():
                raise ChartError(f"variable name {name!r} is not an identifier")
        if len(self.base_point) != self.n:
            raise ChartError("base point length does not match dimension")
        object.__setattr__(self, "base_point",
                           tuple(Fraction(v) for v in self.base_point))

    @staticmethod
    def standard(n: int) -> Chart:
        return Chart(n, tuple(f"x{i + 1}" for i in range(n)), (Fraction(0),) * n)


def draw_seeded(draw, count: int, seed, tag: str, limit: int, error: type[Exception],
                message: str) -> list:
    """Seeded rejection sampling shared by every sampler in the package.

    Candidate index i gets its own generator, seeded with
    f"{seed}:{tag}{i}", so accepted draws do not depend on how many
    earlier candidates were rejected.  draw(rng) returns a sample or
    None to reject the candidate.  Stops after count samples or limit
    candidates; a shortfall raises error with message formatted with
    found, count and limit.
    """
    found = []
    index = 0
    while len(found) < count and index < limit:
        sample = draw(random.Random(f"{seed}:{tag}{index}"))
        index += 1
        if sample is not None:
            found.append(sample)
    if len(found) < count:
        raise error(message.format(found=len(found), count=count, limit=limit))
    return found


# candidates a chart sampler draws per requested point before it gives up
TRIES_PER_POINT = 80


def sample_points(chart: Chart, count: int, seed,
                  avoid: Sequence[MultiPoly] = ()) -> list[tuple[Fraction, ...]]:
    """Deterministic small-rational sample points avoiding given pole loci;
    candidate index i is drawn from seed f"{seed}:{i}"."""

    def draw(rng):
        candidate = tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 10))
                          for _ in range(chart.n))
        if any(p.evaluate(candidate) == 0 for p in avoid):
            return None
        return candidate

    return draw_seeded(draw, count, seed, "", max(count * TRIES_PER_POINT, 32),
                       SamplingError,
                       "only {found} of {count} sample points found after {limit} tries")


def float_points(chart: Chart, count: int, seed,
                 avoid: Sequence[MultiPoly] = ()) -> list[tuple[float, ...]]:
    """Float sample points in a box around the base point, poles rejected."""
    base = [float(v) for v in chart.base_point]

    def draw(rng):
        candidate = tuple(b + rng.uniform(-0.8, 0.8) for b in base)
        if any(abs(p.evaluate(candidate)) < 1e-6 for p in avoid):
            return None
        return candidate

    return draw_seeded(draw, count, seed, "f", max(count * TRIES_PER_POINT, 32),
                       SamplingError,
                       "only {found} of {count} float samples found after {limit} tries")


# ---------------------------------------------------------------------------
# matrices of rational functions
# ---------------------------------------------------------------------------

Matrix = tuple[tuple[RatFunc, ...], ...]


def _as_matrix(rows: Sequence[Sequence[RatFunc]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_mul(a: Sequence[Sequence[RatFunc]], b: Sequence[Sequence[RatFunc]]) -> Matrix:
    inner = len(b)
    out = []
    for row in a:
        new_row = []
        for j in range(len(b[0])):
            acc = None
            for t in range(inner):
                if row[t].is_zero() or b[t][j].is_zero():
                    continue
                term = row[t] * b[t][j]
                acc = term if acc is None else acc + term
            if acc is None:
                acc = RatFunc.const(row[0].nvars, 0)
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def mat_identity(n: int, nvars: int) -> Matrix:
    return tuple(tuple(RatFunc.const(nvars, 1 if i == j else 0)
                       for j in range(n)) for i in range(n))


def mat_inverse(a: Sequence[Sequence[RatFunc]]) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the function field."""
    n = len(a)
    reduced, pivots = _modp.row_reduce(
        [list(row) + list(unit) for row, unit in zip(a, mat_identity(n, a[0][0].nvars))])
    if pivots != list(range(n)):
        raise SingularCoframeError("matrix of rational functions is singular")
    return tuple(tuple(row[n:]) for row in reduced)


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

class Coframe:
    """Invertible matrix of rational functions over a chart.

    Row k holds the dx-coefficients of the k-th component 1-form.
    """

    def __init__(self, chart: Chart, a: Sequence[Sequence[RatFunc]]):
        if len(a) != chart.n or any(len(row) != chart.n for row in a):
            raise SingularCoframeError("coefficient matrix must be n by n")
        for row in a:
            for entry in row:
                if entry.nvars != chart.n:
                    raise SingularCoframeError(
                        "matrix entry variable count does not match the chart")
        self.chart = chart
        self.a = _as_matrix(a)
        self._det_pivots = _modp.determinant_pivots(self.a)
        self._det = functools.reduce(operator.mul, self._det_pivots)
        if self._det.is_zero():
            raise SingularCoframeError("coframe determinant vanishes identically")
        try:
            det_at_base = self._det.evaluate(chart.base_point)
        except PoleError:
            raise SingularCoframeError("coframe has a pole at the base point") from None
        if det_at_base == 0:
            raise SingularCoframeError("coframe determinant vanishes at the base point")
        self._structure: StructureFunction | None = None
        self._induced: weakref.ref | None = None

    @property
    def n(self) -> int:
        return self.chart.n

    @cached_property
    def dual(self) -> FrameField:
        """The dual frame B = A^{-1}, from one mat_inverse."""
        return FrameField(self.chart, mat_inverse(self.a))

    @cached_property
    def pairing(self) -> bool:
        """A B = I_n for B = self.dual, multiplied once: True, or
        SingularCoframeError on every read.  It is the pairing
        omega^k(D_b) = delta^k_b, and the one proof that everything
        reading B rests on: the d-lemma and the induced pairing, gamma
        and bracket identity; the structure function reads no B."""
        if mat_mul(self.a, self.dual.matrix) != mat_identity(self.n, self.n):
            raise SingularCoframeError("dual frame fails A B = I")
        return True

    @property
    def structure(self) -> StructureFunction:
        """The structure function, built once (see structure_function)."""
        if self._structure is None:
            return structure_function(self)
        return self._structure

    @property
    def induced(self) -> InducedCoframe:
        """The induced pair on the tangent chart, built once while some
        caller holds it (held weakly; see the module docstring)."""
        ic = self._induced() if self._induced is not None else None
        if ic is None:
            ic = _build_induced_coframe(self)
            self._induced = weakref.ref(ic)
        return ic

    @property
    def det(self) -> RatFunc:
        return self._det

    @cached_property
    def inverse_det(self) -> RatFunc:
        """1 / det, the product of the reciprocal elimination pivots of
        det: its denominator keeps their factors apart, as the pivots of
        mat_inverse do for the dual frame (the det of an L U coframe is
        the product of U's linear diagonal entries)."""
        return functools.reduce(operator.mul, (1 / pivot for pivot in self._det_pivots))

    def pole_polynomials(self) -> list[MultiPoly]:
        """Polynomials whose zero loci must be avoided when evaluating
        the coframe, its dual, and everything derived from them."""
        seen: list[MultiPoly] = []

        def push(p: MultiPoly):
            if p.is_constant():
                return
            if all(p != q for q in seen):
                seen.append(p)

        for row in self.a:
            for entry in row:
                push(entry.den)
        push(self._det.num)
        push(self._det.den)
        return seen

    def scale(self, s: RatFunc) -> Coframe:
        """Coframe with every row multiplied by the scalar function s."""
        return Coframe(self.chart, [[s * entry for entry in row] for row in self.a])

    @staticmethod
    def identity(chart: Chart) -> Coframe:
        return Coframe(chart, mat_identity(chart.n, chart.n))

    def __repr__(self):
        return f"Coframe(n={self.n})"


@dataclass(frozen=True)
class FrameField:
    """Tuple of vector fields: column a holds the coefficients of the
    a-th field against the coordinate derivations."""

    chart: Chart
    matrix: Matrix   # matrix[j][a]: d/dx_j coefficient of vector a

    def vector(self, a: int) -> VectorField:
        return VectorField(self.chart, tuple(row[a] for row in self.matrix))

    def apply(self, a: int, f: RatFunc) -> RatFunc:
        """Directional derivative of f along the a-th frame vector."""
        acc = RatFunc.const(self.chart.n, 0)
        for j, row in enumerate(self.matrix):
            if not row[a].is_zero():
                acc = acc + row[a] * f.diff(j)
        return acc


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple[RatFunc, ...]

    def apply(self, f: RatFunc) -> RatFunc:
        acc = RatFunc.const(self.chart.n, 0)
        for j, comp in enumerate(self.components):
            if not comp.is_zero():
                acc = acc + comp * f.diff(j)
        return acc

    def bracket(self, other: VectorField) -> VectorField:
        """Lie bracket [self, other], exactly."""
        n = self.chart.n
        comps = []
        for j in range(n):
            acc = RatFunc.const(n, 0)
            for i in range(n):
                if not self.components[i].is_zero():
                    acc = acc + self.components[i] * other.components[j].diff(i)
                if not other.components[i].is_zero():
                    acc = acc - other.components[i] * self.components[j].diff(i)
            comps.append(acc)
        return VectorField(self.chart, tuple(comps))

    def evaluate(self, point):
        return [comp.evaluate(point) for comp in self.components]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


def pair_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def coordinate_triples(n: int) -> list[tuple[int, int, int]]:
    """Flattening order of Hom(L^2 V, V): k outer, (i < j) inner."""
    pairs = pair_list(n)
    return [(k, i, j) for k in range(n) for (i, j) in pairs]


def coordinate_dim(n: int) -> int:
    return n * (n * (n - 1) // 2)


class AntisymmetricComponents:
    """The one container of antisymmetric tensors t^k_{ij} in
    Hom(L^2 V, V), dim V = n, stored for i < j only, zeros dropped.

    The values are all RatFunc (a tensor field on a chart, zero
    RatFunc.const(n, 0)) or all Fraction (a constant tensor, or a field's
    value at a point, zero Fraction(0)); zero is that kind's zero.  A
    tensor carries no field: GF(p) enters only through an
    xi.TensorSubspace, against which xi.membership reduces the rational
    coordinates.
    """

    def __init__(self, n: int, components: dict[tuple[int, int, int], object],
                 zero=Fraction(0)):
        self.n = n
        self.zero = zero
        self.components = {key: val for key, val in components.items() if val}
        for (k, i, j) in self.components:
            if not i < j:
                raise FuncFieldError(
                    f"{type(self).__name__} components must be stored with i < j")

    @classmethod
    def from_coordinates(cls, n: int, vec: Sequence, zero=Fraction(0)):
        """The tensor with coordinates vec, in coordinate_triples order."""
        triples = coordinate_triples(n)
        if len(vec) != len(triples):
            raise FuncFieldError("coordinate vector has wrong length")
        return cls(n, dict(zip(triples, vec)), zero)

    def coordinates(self) -> list:
        """The components in coordinate_triples order, zeros included."""
        return [self.components.get(t, self.zero) for t in coordinate_triples(self.n)]

    def get(self, k: int, i: int, j: int):
        if i <= j:
            return self.components.get((k, i, j), self.zero)
        return -self.components.get((k, j, i), self.zero)

    def is_zero(self) -> bool:
        return not self.components

    def norm_sq(self):
        """The sum of the squared components: for a constant tensor, its
        squared Euclidean norm in coordinate_triples coordinates."""
        return sum((v * v for v in self.components.values()), self.zero)

    @cached_property
    def _xi_and_residual(self) -> tuple[tuple, AntisymmetricComponents]:
        # c^k_{kj} is stored at (k, k, j) when k < j and at -(k, j, k) when k > j
        n, zero, comps = self.n, self.zero, self.components
        scale = Fraction(1, 1 - n)
        xi = tuple((sum((comps.get((k, k, j), zero) for k in range(j)), zero)
                    - sum((comps.get((k, j, k), zero) for k in range(j + 1, n)), zero)) * scale
                   for j in range(n))
        residual = dict(comps)
        # iota(xi)^k_{ij} = xi_i delta^k_j - xi_j delta^k_i
        for i, j in pair_list(n):
            residual[(j, i, j)] = residual.get((j, i, j), zero) - xi[i]
            residual[(i, i, j)] = residual.get((i, i, j), zero) + xi[j]
        return xi, AntisymmetricComponents(n, residual, zero)

    def trace_covector(self) -> tuple:
        """The covector xi with xi_j = (1/(1-n)) sum_k c^k_{kj}, built once.

        When c lies in the image of the contraction map this inverts it;
        contraction_residual says whether c = iota(xi).
        """
        return self._xi_and_residual[0]

    def contraction_residual(self) -> AntisymmetricComponents:
        """c - iota(xi), xi = trace_covector(), built once.  The iota(e_a)
        are orthogonal of squared norm n - 1 with <c, iota(e_a)> =
        (n - 1) xi_a, so iota(xi) projects c onto Xi_V: the result is zero
        exactly when c lies in Xi_V, and for a constant c its norm_sq is
        the squared distance from c to Xi_V."""
        return self._xi_and_residual[1]


class VValuedForm2(AntisymmetricComponents):
    """Vector-valued 2-form: component k is sum_{i<j} w[k,i,j] dx_i ^ dx_j."""

    def d_components(self) -> dict[tuple[int, int, int, int], RatFunc]:
        """Components of the exterior derivative, a vector-valued 3-form."""
        n = self.n
        out = {}
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    for l in range(j + 1, n):
                        val = (self.get(k, j, l).diff(i)
                               - self.get(k, i, l).diff(j)
                               + self.get(k, i, j).diff(l))
                        if not val.is_zero():
                            out[(k, i, j, l)] = val
        return out


class StructureFunction(AntisymmetricComponents):
    """The tensor c with d omega^k = sum_{a<b} c^k_{ab} omega^a ^ omega^b."""

    def evaluate_at(self, point) -> AntisymmetricComponents:
        """c(x), the constant tensor of the values at a pole-free point."""
        return AntisymmetricComponents(
            self.n, {key: val.evaluate(point) for key, val in self.components.items()})


# ---------------------------------------------------------------------------
# the basic operations
# ---------------------------------------------------------------------------

def dual_frame(cf: Coframe) -> FrameField:
    """Frame field B = A^{-1}: vector a is sum_j B[j][a] d/dx_j, with
    B A = A B = I exactly (cf.dual, computed once)."""
    return cf.dual


def exterior_derivative(cf: Coframe) -> VValuedForm2:
    """d omega, componentwise: w^k_{ij} = d_i A[k][j] - d_j A[k][i]."""
    n = cf.n
    comps = {}
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                val = cf.a[k][j].diff(i) - cf.a[k][i].diff(j)
                if not val.is_zero():
                    comps[(k, i, j)] = val
    return VValuedForm2(n, comps, RatFunc.const(n, 0))


def _complementary_minors(a: Matrix) -> dict[tuple[tuple[int, int], tuple[int, int]], RatFunc]:
    """det A[{a,b}^c, {i,j}^c], the (n - 2)-minor of A without rows a, b
    and columns i, j, keyed ((a, b), (i, j)) for a < b and i < j.

    Built size by size in one table: each s-minor is the Laplace
    expansion along its first row over the (s - 1)-minors of the rows
    below it, so only the tails of the complements of pairs are kept as
    row sets.  At n = 3 the minors are A's entries.
    """
    n = len(a)
    zero = RatFunc.const(a[0][0].nvars, 0)
    complement = {pair: tuple(r for r in range(n) if r not in pair) for pair in pair_list(n)}
    table = {((r,), (c,)): a[r][c] for r in range(n) for c in range(n)}
    for s in range(2, n - 1):
        grown = {}
        for rows in {rs[n - 2 - s:] for rs in complement.values()}:
            first, rest = rows[0], rows[1:]
            for cols in itertools.combinations(range(n), s):
                acc = zero
                for t, col in enumerate(cols):
                    entry, minor = a[first][col], table[rest, cols[:t] + cols[t + 1:]]
                    if entry.is_zero() or minor.is_zero():
                        continue
                    acc = acc - entry * minor if t % 2 else acc + entry * minor
                grown[rows, cols] = acc
        table = grown
    return {(p, q): table[rows, cols]
            for p, rows in complement.items() for q, cols in complement.items()}


def structure_function(cf: Coframe, verify: bool = True) -> StructureFunction:
    """The unique c with d omega^k = sum_{a<b} c^k_{ab} omega^a ^ omega^b,
    from A's complementary minors and det A, with no dual frame.

    With W = d omega and B = A^{-1}, c^k = B^T W^k B on antisymmetric
    matrices: c^k_{ab} = sum_{i<j} W^k_{ij} (B_ia B_jb - B_ib B_ja).  The
    wedge is the 2-minor det B[{i,j}, {a,b}], and Jacobi's
    complementary-minor theorem (Horn & Johnson, Matrix Analysis, 2nd
    ed., 0.8.4) gives det B[I, J] = (-1)^(sum I + sum J)
    det A[J^c, I^c] / det A for B = A^{-1}.  So
    c^k_{ab} = (1 / det A) sum_{i<j} (-1)^(i+j+a+b) W^k_{ij}
    det A[{a,b}^c, {i,j}^c],
    exact for any A with det A nonzero, which Coframe checks.  The
    reconstruction A^T c^k A = (B A)^T W^k (B A) = W^k follows from the
    same identity, as c^k is B^T W^k B.  The (n - 2)-minors come from one
    table (_complementary_minors) and 1 / det A is cf.inverse_det;
    cf.dual and cf.pairing are never read.  The result is stored on cf
    and returned by later calls and by cf.structure.  verify is accepted
    and ignored: the perfbench identities workload still passes it.
    """
    if cf._structure is not None:
        return cf._structure
    n = cf.n
    minors = _complementary_minors(cf.a)
    sums: dict[tuple[int, int, int], RatFunc] = {}
    for (k, i, j), wk in exterior_derivative(cf).components.items():
        for a, b in pair_list(n):
            minor = minors[(a, b), (i, j)]
            if minor.is_zero():
                continue
            term = -(wk * minor) if (i + j + a + b) % 2 else wk * minor
            key = (k, a, b)
            sums[key] = sums[key] + term if key in sums else term
    inverse_det = cf.inverse_det
    cf._structure = StructureFunction(
        n, {key: val * inverse_det for key, val in sums.items()}, RatFunc.const(n, 0))
    return cf._structure


@dataclass
class CheckReport:
    """Outcome of an identity check, proved or refuted exactly."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def check_d_lemma(cf: Coframe, f: RatFunc) -> bool:
    """df = (D f)-sharp omega: d_j f = sum_a (D_a f) A[a][j], exactly."""
    frame = cf.dual
    n = cf.n
    directional = [frame.apply(a, f) for a in range(n)]
    for j in range(n):
        acc = RatFunc.const(n, 0)
        for a in range(n):
            if not directional[a].is_zero():
                acc = acc + directional[a] * cf.a[a][j]
        if acc != f.diff(j):
            return False
    return True


# ---------------------------------------------------------------------------
# induced coframe on the tangent chart
# ---------------------------------------------------------------------------

def _tangent_variable_names(chart: Chart) -> tuple[str, ...]:
    names = []
    for i in range(chart.n):
        candidate = f"y{i + 1}"
        while candidate in chart.variables or candidate in names:
            candidate = "_" + candidate
        names.append(candidate)
    return tuple(names)


@dataclass(frozen=True)
class InducedCoframe:
    """The pair (theta, lambda) on the tangent chart, as one 2n-matrix.

    Row k (k < n) is theta^k; row n+k is lambda^k = d mu^k where
    mu = A(x) y.  Columns run over (dx_1..dx_n, dy_1..dy_n), so the
    matrix is M = [[A, 0], [E, A]] with E[k][l] = sum_j (d_l A[k][j]) y_j.
    The pairing proof, the geodesic flow and the verdict of the bracket
    identity [(D_lambda)_a, gamma] = (D_theta)_a are computed on first
    use and shared; none of them builds the dual frames, whose -B E B
    rows are the costly part (tangent_dual_frame).
    """

    base: Coframe
    chart: Chart
    matrix: Matrix
    mu: tuple[RatFunc, ...]

    @property
    def n(self) -> int:
        return self.base.n

    def lift(self, h: RatFunc) -> RatFunc:
        """Pull a function on the base chart up to the tangent chart."""
        return h.lift(2 * self.n, list(range(self.n)))

    @cached_property
    def block_form(self) -> bool:
        """Whether M = [[A, 0], [E, A]], A lifted, entry by entry: then
        theta = pi* omega."""
        n = self.n
        zero = RatFunc.const(2 * n, 0)
        a2 = [tuple(map(self.lift, row)) for row in self.base.a]
        return all(self.matrix[k] == a2[k] + (zero,) * n and self.matrix[n + k][n:] == a2[k]
                   for k in range(n))

    @cached_property
    def rows_are_dmu(self) -> tuple[bool, ...]:
        """Per column s, whether each lambda row k has d_s mu^k there."""
        n = self.n
        return tuple(all(self.matrix[n + k][s] == self.mu[k].diff(s) for k in range(n))
                     for s in range(2 * n))

    @cached_property
    def lifted_dual(self) -> Matrix:
        """The base dual frame B, lifted to the tangent chart."""
        return tuple(tuple(map(self.lift, row)) for row in self.base.dual.matrix)

    @cached_property
    def pairing(self) -> bool:
        """The pairing identity M N = I_2n, N = [[B, 0], [-B E B, B]].

        M N = [[A B, 0], [E B - A B E B, A B]], which is I_2n whenever
        A B = I_n, for any E.  So it is proved by block_form and the base
        coframe's A B = I_n proof (base.pairing), with no product formed
        here; True, or SingularCoframeError.
        """
        if not self.block_form:
            raise SingularCoframeError("induced dual frame failed the pairing identity")
        return self.base.pairing

    @cached_property
    def gamma(self) -> VectorField:
        """The geodesic flow gamma = sum_a mu^a (D_theta)_a, in closed form.

        D_theta is the first n columns of [[B, 0], [-B E B, B]] and
        mu = A y, so gamma = (B A y, -B E B A y) = (y, -B (E y)): B A = I
        follows from the A B = I of the pairing proof, as the matrices
        are square.
        """
        n = self.n
        self.pairing        # proves A B = I, or raises
        y = [[RatFunc.var(2 * n, n + j)] for j in range(n)]
        bey = mat_mul(self.lifted_dual, mat_mul([row[:n] for row in self.matrix[n:]], y))
        return VectorField(self.chart, tuple(v for (v,) in y) + tuple(-v for (v,) in bey))

    @cached_property
    def bracket_identity(self) -> bool:
        """Whether [(D_lambda)_a, gamma] = (D_theta)_a for every a: the
        pairing proof and rows_are_dmu, with no bracket computed.

        With (D_theta)_a = (B_{.a}, -(B E B)_{.a}), (D_lambda)_a =
        (0, B_{.a}) and gamma = (y, -B E y), B lifted from the base:
        - the x-parts of both sides are B_{ja};
        - the y-part of [(D_lambda)_a, gamma] is
          -[B ((y.grad) A) B]_{ma} - (B E B)_{ma} - [(y.grad) B]_{ma},
          as d_{y_p} E_{kl} = d_l A_{kp}, both d^2 mu^k once the lambda
          rows are d mu (rows_are_dmu) with dy-part A (block_form);
        - the y-part of (D_theta)_a is -(B E B)_{ma}.
        So the identity is B ((y.grad) A) B + (y.grad) B = 0, that is
        B (y.grad)(A B) = 0, true as A B = I_n.  A lambda row off d mu
        leaves it unproved: the verdict is False.
        """
        return self.pairing and all(self.rows_are_dmu)


def _build_induced_coframe(cf: Coframe) -> InducedCoframe:
    n = cf.n
    ynames = _tangent_variable_names(cf.chart)
    chart = Chart(2 * n, cf.chart.variables + ynames,
                  cf.chart.base_point + (Fraction(0),) * n)
    lift_map = list(range(n))
    a2 = [[cf.a[k][j].lift(2 * n, lift_map) for j in range(n)] for k in range(n)]
    yvars = [RatFunc.var(2 * n, n + j) for j in range(n)]
    zero = RatFunc.const(2 * n, 0)
    mu = tuple(sum((a2[k][j] * yvars[j] for j in range(n) if not a2[k][j].is_zero()), zero)
               for k in range(n))
    rows = [tuple(a2[k]) + (zero,) * n for k in range(n)]
    for k in range(n):
        # lambda^k = sum_l E[k][l] dx_l + sum_j A[k][j] dy_j,
        # E[k][l] = sum_j (d_l A[k][j]) y_j
        e_row = []
        for l in range(n):
            acc = zero
            for j in range(n):
                d = cf.a[k][j].diff(l)
                if not d.is_zero():
                    acc = acc + d.lift(2 * n, lift_map) * yvars[j]
            e_row.append(acc)
        rows.append(tuple(e_row) + tuple(a2[k]))
    return InducedCoframe(base=cf, chart=chart, matrix=tuple(rows), mu=mu)


def induced_coframe(cf: Coframe) -> InducedCoframe:
    """The induced pair of cf: cf.induced, one object while it is held."""
    return cf.induced


# the four n-by-n blocks of M . [D_theta | D_lambda] = I_2n
_PAIRINGS = ("theta_of_dtheta_is_identity", "theta_of_dlambda_is_zero",
             "lambda_of_dtheta_is_zero", "lambda_of_dlambda_is_identity")


def tangent_dual_frame(ic: InducedCoframe) -> tuple[FrameField, FrameField]:
    """Dual frames (D_theta, D_lambda) of the induced coframe, proved.

    They are the columns of N = [[B, 0], [-B E B, B]], with B the base
    dual frame; ic.pairing proves M N = I_2n (or raises).  No check
    builds them: every identity they enter is proved from A B = I (see
    InducedCoframe and cone.double_bracket_check), and at n = 5 -B E B
    alone takes minutes.
    """
    ic.pairing          # proves M N = I_2n, or raises
    n = ic.n
    zero = RatFunc.const(2 * n, 0)
    b2 = ic.lifted_dual
    e = [row[:n] for row in ic.matrix[n:]]
    minus_beb = tuple(tuple(-entry for entry in row) for row in mat_mul(b2, mat_mul(e, b2)))
    return (FrameField(ic.chart, b2 + minus_beb),
            FrameField(ic.chart, ((zero,) * n,) * n + b2))


def check_dual_relations(ic: InducedCoframe) -> dict[str, bool]:
    """The pairing relations of the induced pair, each checked exactly.

    The four pairings are the blocks of M . [D_theta | D_lambda] = I_2n,
    which ic.pairing proves from A B = I_n.  The mu relations are rows
    n..2n-1 of it once the lambda rows are d mu^k, entry by entry
    (ic.rows_are_dmu): D(mu^k) = (d mu^k) N is row n + k of M N, and as
    D_lambda has no dx-part, D_lambda(mu) = I needs only the dy-columns.
    """
    results = dict.fromkeys(_PAIRINGS, ic.pairing)
    results["dtheta_mu_is_zero"] = all(ic.rows_are_dmu)
    results["dlambda_mu_is_identity"] = all(ic.rows_are_dmu[ic.n:])
    return results


def geodesic_flow(cf_or_ic) -> VectorField:
    """The vector field gamma = sum_a mu^a (D_theta)_a on the tangent chart.

    Its dx-components are exactly the fiber coordinates y, which is the
    statement that gamma projects to the tautological vector.
    """
    ic = cf_or_ic if isinstance(cf_or_ic, InducedCoframe) else cf_or_ic.induced
    return ic.gamma


def check_geodesic_identities(ic: InducedCoframe) -> dict[str, bool]:
    """[(D_lambda)_a, gamma] = (D_theta)_a for every a, proved with no
    bracket and no tangent frame (ic.bracket_identity)."""
    return {"bracket_dlambda_gamma_is_dtheta": ic.bracket_identity}


def verify_induced_structure(cf: Coframe) -> CheckReport:
    """Structure function of the induced pair: vanishes outside the
    theta-theta block and that block is the pullback of the base one.

    Proved without building it: ic.pairing proves (theta, lambda) a
    coframe with theta = pi* omega (ic.block_form), so d theta^k is the
    lift of sum_{a<b} c^k_{ab} omega^a ^ omega^b, c the base structure
    function, and lambda = d mu (ic.rows_are_dmu) gives d lambda = 0.
    Structure functions are unique, so the theta-theta block is lift(c)
    and every other component is zero; c itself is not read.
    """
    ic = cf.induced
    ic.pairing          # proves (theta, lambda) a coframe, or raises
    block_ok = ic.block_form and all(ic.rows_are_dmu)
    return CheckReport(name="induced_structure", passed=block_ok,
                       details={"vanishes_off_theta_block": block_ok,
                                "theta_block_is_pullback": ic.block_form})


# ---------------------------------------------------------------------------
# random coframes for property tests
# ---------------------------------------------------------------------------

def _random_linear(nvars: int, rng: random.Random, constant=None) -> MultiPoly:
    terms: dict[tuple[int, ...], Fraction] = {}
    c0 = Fraction(rng.randint(-2, 2)) if constant is None else Fraction(constant)
    if c0:
        terms[(0,) * nvars] = c0
    for i in range(nvars):
        c = rng.randint(-1, 1)
        if c:
            exp = tuple(1 if t == i else 0 for t in range(nvars))
            terms[exp] = Fraction(c)
    return MultiPoly(nvars, terms)


def random_polynomial_coframe(chart: Chart, rng: random.Random,
                              unimodular: bool = True) -> Coframe:
    """Random coframe with polynomial entries of degree at most 2.

    Built as L U with unit-triangular linear factors; in the unimodular
    case the determinant is 1, otherwise the U diagonal carries linear
    factors that are nonzero at the base point, so the dual frame has
    honest denominators.
    """
    n = chart.n
    zero = MultiPoly.zero(n)
    lmat = [[zero for _ in range(n)] for _ in range(n)]
    umat = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        lmat[i][i] = MultiPoly.one(n)
        for j in range(i):
            lmat[i][j] = _random_linear(n, rng)
        for j in range(i + 1, n):
            umat[i][j] = _random_linear(n, rng)
        if unimodular:
            umat[i][i] = MultiPoly.one(n)
        else:
            while True:
                candidate = _random_linear(n, rng, constant=1)
                if candidate.evaluate(chart.base_point) != 0:
                    umat[i][i] = candidate
                    break
    rows = []
    for k in range(n):
        row = []
        for j in range(n):
            acc = MultiPoly.zero(n)
            for m in range(n):
                if not lmat[k][m].is_zero() and not umat[m][j].is_zero():
                    acc = acc + lmat[k][m] * umat[m][j]
            row.append(RatFunc(acc))
        rows.append(row)
    return Coframe(chart, rows)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def coframe_to_json(cf: Coframe) -> dict:
    """Plain-dict form: {"n", "variables", "A" (strings), "base_point"}."""
    names = cf.chart.variables
    return {"n": cf.n,
            "variables": list(names),
            "A": [[entry.to_string(names) for entry in row] for row in cf.a],
            "base_point": [str(v) for v in cf.chart.base_point]}


def coframe_from_json(data: dict) -> Coframe:
    try:
        n = int(data["n"])
        variables = [str(v) for v in data["variables"]]
        base = tuple(Fraction(str(v)) for v in data["base_point"])
        rows_text = data["A"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ChartError(f"malformed coframe data: {exc}") from None
    chart = Chart(n, tuple(variables), base)
    if len(rows_text) != n or any(len(row) != n for row in rows_text):
        raise ChartError("coefficient matrix must be n by n")
    rows = [[parse_ratfunc(str(entry), variables) for entry in row]
            for row in rows_text]
    return Coframe(chart, rows)
