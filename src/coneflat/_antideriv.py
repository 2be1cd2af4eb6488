"""Symbolic antiderivatives of multivariate rational functions.

The integrand is treated one variable at a time: a rational function in
x_v whose coefficients are rational functions of the remaining
variables.  The denominator's base factors that involve x_v, with their
exponents, are its squarefree decomposition in x_v, so Hermite reduction
(Bezout identities over the coefficient field) peels off the rational
part without factoring anything further.  Each base factor q then
leaves a proper remainder a1/q, which is m log q for a constant m in Q
exactly when a1 = m q' (Bronstein, Symbolic Integration I, ch. 2).  Any
other remainder, and any assembled result whose derivative does not
match the integrand exactly, is reported as failure instead of a wrong
answer, and callers fall back to quadrature.

Closed 1-forms get a potential by axis-by-axis integration; exactness
of the intermediate remainders is a theorem (mixed partials), so any
violation raises instead of degrading silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from coneflat.funcfield import MultiPoly, PoleError, RatFunc


class AntiderivativeError(RuntimeError):
    """Internal inconsistency while integrating (not a fallback signal)."""


# ---------------------------------------------------------------------------
# univariate polynomials over the rational-function field
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial; coefficient k multiplies t^k.

    Coefficients are RatFunc values in the full variable set that do
    not involve the integration variable itself.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Sequence[RatFunc]):
        self.nvars = nvars
        trimmed = list(coeffs)
        while trimmed and trimmed[-1].is_zero():
            trimmed.pop()
        self.coeffs = trimmed

    @staticmethod
    def zero(nvars: int) -> UniPoly:
        return UniPoly(nvars, [])

    @staticmethod
    def const(c: RatFunc) -> UniPoly:
        return UniPoly(c.nvars, [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lead(self) -> RatFunc:
        return self.coeffs[-1]

    def __add__(self, other: UniPoly) -> UniPoly:
        big = max(len(self.coeffs), len(other.coeffs))
        out = []
        zero = RatFunc.const(self.nvars, 0)
        for k in range(big):
            a = self.coeffs[k] if k < len(self.coeffs) else zero
            b = other.coeffs[k] if k < len(other.coeffs) else zero
            out.append(a + b)
        return UniPoly(self.nvars, out)

    def __neg__(self) -> UniPoly:
        return UniPoly(self.nvars, [-c for c in self.coeffs])

    def __sub__(self, other: UniPoly) -> UniPoly:
        return self + (-other)

    def __mul__(self, other: UniPoly) -> UniPoly:
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.nvars)
        zero = RatFunc.const(self.nvars, 0)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.nvars, out)

    def scale(self, c) -> UniPoly:
        return UniPoly(self.nvars, [coeff * c for coeff in self.coeffs])

    def divmod(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        zero = RatFunc.const(self.nvars, 0)
        quot = [zero] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        dlead = other.lead()
        while len(rem) >= len(other.coeffs):
            while rem and rem[-1].is_zero():
                rem.pop()
            if len(rem) < len(other.coeffs):
                break
            factor = rem[-1] / dlead
            shift = len(rem) - len(other.coeffs)
            quot[shift] = quot[shift] + factor
            for j, c in enumerate(other.coeffs):
                rem[shift + j] = rem[shift + j] - factor * c
            rem.pop()
        return UniPoly(self.nvars, quot), UniPoly(self.nvars, rem)

    def mod(self, other: UniPoly) -> UniPoly:
        return self.divmod(other)[1]

    def monic(self) -> UniPoly:
        if self.is_zero() or self.lead() == RatFunc.const(self.nvars, 1):
            return self
        inv = RatFunc.const(self.nvars, 1) / self.lead()
        return self.scale(inv)

    def diff_t(self) -> UniPoly:
        return UniPoly(self.nvars,
                       [c * Fraction(k) for k, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))


def uni_extended_gcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(g, s, t) with s a + t b = g, g monic."""
    nvars = a.nvars
    one = UniPoly.const(RatFunc.const(nvars, 1))
    zero = UniPoly.zero(nvars)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = RatFunc.const(nvars, 1) / r0.lead()
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def poly_to_unipoly(p: MultiPoly, v: int) -> UniPoly:
    buckets: dict[int, dict] = {}
    for exp, coeff in p.terms.items():
        k = exp[v]
        reduced = tuple(0 if i == v else e for i, e in enumerate(exp))
        buckets.setdefault(k, {})[reduced] = coeff
    top = max(buckets, default=-1)
    zero = RatFunc.const(p.nvars, 0)
    coeffs = [zero] * (top + 1)
    for k, terms in buckets.items():
        coeffs[k] = RatFunc(MultiPoly(p.nvars, terms))
    return UniPoly(p.nvars, coeffs)


def unipoly_to_ratfunc(u: UniPoly, v: int) -> RatFunc:
    acc = RatFunc.const(u.nvars, 0)
    t = RatFunc.var(u.nvars, v)
    power = RatFunc.const(u.nvars, 1)
    for k, c in enumerate(u.coeffs):
        if not c.is_zero():
            acc = acc + c * power
        if k + 1 < len(u.coeffs):
            power = power * t
    return acc


def unipair_to_ratfunc(num: UniPoly, den: UniPoly, v: int) -> RatFunc:
    return unipoly_to_ratfunc(num, v) / unipoly_to_ratfunc(den, v)


# ---------------------------------------------------------------------------
# Hermite reduction and the log part
# ---------------------------------------------------------------------------

def _partial_fractions(num: UniPoly, den_factors: list[tuple[UniPoly, int]]) \
        -> list[tuple[UniPoly, UniPoly, int]]:
    """Split num / prod q_i^e_i into proper pieces (a_i, q_i, e_i)."""
    pieces = []
    remaining_num = num
    remaining_factors = list(den_factors)
    while remaining_factors:
        q, mult = remaining_factors.pop(0)
        modulus = q
        for _ in range(mult - 1):
            modulus = modulus * q
        if not remaining_factors:
            pieces.append((remaining_num.mod(modulus), q, mult))
            break
        rest = UniPoly.const(RatFunc.const(num.nvars, 1))
        for q2, m2 in remaining_factors:
            block = q2
            for _ in range(m2 - 1):
                block = block * q2
            rest = rest * block
        g, s, t = uni_extended_gcd(modulus, rest)
        if not (g.is_constant() and not g.is_zero()):
            raise AntiderivativeError("squarefree factors are not coprime")
        here_num = remaining_num * t
        quot, here = here_num.divmod(modulus)
        pieces.append((here, q, mult))
        remaining_num = remaining_num * s + quot * rest
    return pieces


def _hermite_piece(a: UniPoly, q: UniPoly, mult: int):
    """Reduce a / q^mult (q squarefree) to rational terms plus a proper
    multiplicity-one remainder; returns (rational_pairs, poly_extra, a1)."""
    nvars = a.nvars
    rational_pairs = []
    poly_extra = UniPoly.zero(nvars)
    dq = q.diff_t()
    g, u, v = uni_extended_gcd(q, dq)
    if not (g.is_constant() and not g.is_zero()):
        raise AntiderivativeError("denominator base factor not squarefree")
    while mult >= 2:
        qm1 = q
        for _ in range(mult - 2):
            qm1 = qm1 * q
        av = a * v
        scale = Fraction(1, mult - 1)
        rational_pairs.append(((-av).scale(RatFunc.const(nvars, scale)), qm1))
        a = a * u + av.diff_t().scale(RatFunc.const(nvars, scale))
        extra, a = a.divmod(qm1)
        poly_extra = poly_extra + extra
        mult -= 1
    return rational_pairs, poly_extra, a


def integrate_axis(r: RatFunc, v: int) -> tuple[RatFunc, list[tuple[Fraction, RatFunc]], bool]:
    """Antiderivative of r with respect to variable v.

    Returns (rational part, [(multiplicity, log argument)], ok); the
    result's v-derivative is verified to equal r exactly, so ok=True
    output is correct by construction.

    The base factors of r's denominator that involve x_v are squarefree
    and pairwise coprime over Q, so also over the field of the other
    variables (Gauss's lemma), and serve as the squarefree decomposition
    in x_v.  Each one carries a single log term m log q with m in Q, or
    the result is ok=False.  So a composite base factor whose parts
    carry different residues falls back, such as x1^2 - x2^2 in
    (3*x1 - x2)/(x1^2 - x2^2) = 1/(x1 - x2) + 2/(x1 + x2), as does an
    irrational residue, such as 1/(x1^2 - 2).
    """
    nvars = r.nvars
    num = poly_to_unipoly(r.num, v)
    den = poly_to_unipoly(r.den, v)
    lead_inv = RatFunc.const(nvars, 1) / den.lead()
    num = num.scale(lead_inv)
    den = den.monic()
    poly_part, rem = num.divmod(den)
    rational_accum = RatFunc.const(nvars, 0)
    logs: list[tuple[Fraction, RatFunc]] = []

    if not rem.is_zero() and not den.is_constant():
        bases = [(p, e) for p, e in r.den_factors() if p.degree_in(v) > 0]
        factors = [(poly_to_unipoly(p, v).monic(), e) for p, e in bases]
        pieces = _partial_fractions(rem, factors)
        for (a, q, mult), (p, _) in zip(pieces, bases):
            rpairs, extra_poly, a1 = _hermite_piece(a, q, mult)
            poly_part = poly_part + extra_poly
            for pnum, pden in rpairs:
                rational_accum = rational_accum + unipair_to_ratfunc(pnum, pden, v)
            if a1.is_zero():
                continue
            # a1/q = m q'/q with m constant, read off the leading terms
            dq = q.diff_t()
            m = a1.lead() / dq.lead()
            if not m.is_constant() or a1 != dq.scale(m):
                return rational_accum, logs, False
            logs.append((m.constant_value(), RatFunc(p)))

    # termwise antiderivative of the polynomial part
    t = RatFunc.var(nvars, v)
    for k, c in enumerate(poly_part.coeffs):
        if not c.is_zero():
            rational_accum = rational_accum + c * t ** (k + 1) * Fraction(1, k + 1)

    # verification: differentiate the assembled result back
    check = rational_accum.diff(v)
    for m, arg in logs:
        check = check + arg.diff(v) / arg * m
    if check != r:
        return rational_accum, logs, False
    return rational_accum, logs, True


# ---------------------------------------------------------------------------
# potentials of closed forms
# ---------------------------------------------------------------------------

def _canonical_poly(p: MultiPoly) -> MultiPoly:
    lead = p.terms[max(p.terms)]
    if lead == 1:
        return p
    return p * (Fraction(1) / Fraction(lead))


@dataclass(frozen=True)
class LogCombination:
    """h = rational_part + sum m_i log(arg_i / arg_i(base)).

    rational_part vanishes at the base point, so h(base) = 0.  The log
    of the ratio is evaluated through abs(), which has the same
    gradient wherever the arguments stay nonzero.
    """

    nvars: int
    base_point: tuple[Fraction, ...]
    rational_part: RatFunc
    logs: tuple[tuple[Fraction, RatFunc, Fraction], ...]  # (m, arg, arg(base))

    def gradient(self, j: int) -> RatFunc:
        acc = self.rational_part.diff(j)
        for m, arg, _ in self.logs:
            acc = acc + arg.diff(j) / arg * m
        return acc

    def evaluate(self, point) -> float:
        total = float(self.rational_part.evaluate(point))
        for m, arg, arg_base in self.logs:
            val = arg.evaluate(point)
            total += float(m) * math.log(abs(val / arg_base))
        return total

    def terms(self) -> list[str]:
        """Certificate terms: "rational r", then "m*log((arg)/(arg(base)))"."""
        out = []
        if not self.rational_part.is_zero():
            out.append("rational " + self.rational_part.to_string())
        for m, arg, arg_base in self.logs:
            out.append(f"{m}*log(({arg.to_string()})/({arg_base}))")
        return out or ["0"]

    def has_integer_multiplicities(self) -> bool:
        return all(m.denominator == 1 for m, _, _ in self.logs)

    def exp_neg_rational(self) -> RatFunc | None:
        """e^{-h} as an exact rational function, when h is a pure
        integer-multiplicity log combination."""
        if not self.rational_part.is_zero():
            return None
        if not self.has_integer_multiplicities():
            return None
        out = RatFunc.const(self.nvars, 1)
        for m, arg, arg_base in self.logs:
            power = -int(m)
            out = out * (arg / RatFunc.const(self.nvars, arg_base)) ** power
        return out


def integrate_closed_form(components: Sequence[RatFunc],
                          base_point: Sequence[Fraction]) -> LogCombination | None:
    """Potential h with dh = the given exactly-closed 1-form, or None
    when some axis has no rational-log antiderivative (integrate_axis).

    Axis-by-axis: integrate component j in x_j, subtract the full
    gradient, continue.  After step j the j-th remainder vanishes and
    the later ones no longer involve x_j; both facts follow from
    closedness, so violations raise AntiderivativeError.
    """
    n = len(components)
    if components and components[0].nvars != n:
        raise AntiderivativeError("component count must match variable count")
    base = tuple(Fraction(v) for v in base_point)
    remaining = list(components)
    rational_total = RatFunc.const(n, 0)
    logs_total: list[tuple[Fraction, RatFunc]] = []
    for j in range(n):
        if remaining[j].is_zero():
            continue
        rational, logs, ok = integrate_axis(remaining[j], j)
        if not ok:
            return None
        rational_total = rational_total + rational
        for m, arg in logs:
            logs_total.append((m, arg))
        for i in range(n):
            grad_i = rational.diff(i)
            for m, arg in logs:
                grad_i = grad_i + arg.diff(i) / arg * m
            remaining[i] = remaining[i] - grad_i
        if not remaining[j].is_zero():
            raise AntiderivativeError(
                f"axis {j} remainder did not vanish after integration")
    for i in range(n):
        if not remaining[i].is_zero():
            raise AntiderivativeError(
                "closed-form remainder persists; input form was not closed")
    # Split every log argument into polynomial numerator and denominator
    # factors, rescaled to a canonical leading coefficient.  Rescaling
    # is neutral (each term is log of a ratio against its base value)
    # and lets factors produced on different axes cancel exactly.
    split_logs: list[tuple[Fraction, RatFunc]] = []
    for m, arg in logs_total:
        if arg.num.total_degree() > 0:
            split_logs.append((m, RatFunc(_canonical_poly(arg.num))))
        if arg.den.total_degree() > 0:
            split_logs.append((-m, RatFunc(_canonical_poly(arg.den))))
    merged_logs: list[tuple[Fraction, RatFunc]] = []
    for m, arg in split_logs:
        for idx, (m2, arg2) in enumerate(merged_logs):
            if arg2 == arg:
                merged_logs[idx] = (m2 + m, arg2)
                break
        else:
            merged_logs.append((m, arg))
    final_logs = []
    for m, arg in merged_logs:
        if m == 0:
            continue
        try:
            arg_base = arg.evaluate(base)
        except PoleError:
            return None
        if arg_base == 0:
            return None
        final_logs.append((m, arg, arg_base))
    try:
        shift = rational_total.evaluate(base)
    except PoleError:
        return None
    rational_total = rational_total - RatFunc.const(n, shift)
    return LogCombination(n, base, rational_total, tuple(final_logs))


# ---------------------------------------------------------------------------
# adaptive quadrature fallback
# ---------------------------------------------------------------------------

class QuadratureError(RuntimeError):
    """No pole-free integration path was found."""


# evaluations of the integrand per adaptive Simpson call; the certify
# benchmark's grid round trips use at most 81 and the test suite 513
_MAX_SIMPSON_EVALS = 10_000


def _adaptive_simpson(g: Callable[[float], float], a: float, b: float,
                      tol: float, stage: str) -> float:
    """Adaptive Simpson quadrature of g over [a, b], to recursion depth
    40 and at most _MAX_SIMPSON_EVALS evaluations of g; reaching that
    cap (an integrand near a pole, say) raises QuadratureError naming
    stage."""
    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    evals = 3

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        nonlocal evals
        evals += 2
        if evals > _MAX_SIMPSON_EVALS:
            raise QuadratureError(f"{stage}: adaptive Simpson reached "
                                  f"{_MAX_SIMPSON_EVALS} evaluations")
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
                + recurse(m, b, fm, frm, fb, right, tol / 2.0, depth - 1))

    return recurse(a, b, fa, fm, fb, whole, tol, 40)


def path_integral(components: Sequence[RatFunc], start: Sequence[float],
                  end: Sequence[float], order: Sequence[int],
                  tol: float) -> float:
    """Integrate the 1-form along the axis polyline visiting coordinates
    in the given order."""
    n = len(components)
    current = [float(v) for v in start]
    total = 0.0
    for j in order:
        a, b = current[j], float(end[j])
        if a == b:
            continue
        point = list(current)

        def g(t, j=j, point=point):
            point[j] = t
            return float(components[j].evaluate(point))

        total += _adaptive_simpson(
            g, a, b, tol, f"path quadrature along coordinate {j} from {a:g} to {b:g}")
        current[j] = b
    return total


class GridPotential:
    """Quadrature-backed potential: h(x) integrates the form from the
    base point along axis polylines, cross-checked on a second path.

    Values are cached; the two-path discrepancy at each evaluated point
    is recorded in path_residuals.
    """

    def __init__(self, components: Sequence[RatFunc],
                 base_point: Sequence[Fraction], tol: float = 1e-10):
        self.nvars = len(components)
        self.components = list(components)
        self.base_point = tuple(float(v) for v in base_point)
        self.tol = tol
        self.path_residuals: list[float] = []
        self._cache: dict[tuple[float, ...], float] = {}

    def evaluate(self, point) -> float:
        key = tuple(float(v) for v in point)
        if key in self._cache:
            return self._cache[key]
        orders = [list(range(self.nvars)), list(range(self.nvars))[::-1],
                  list(range(1, self.nvars)) + [0]]
        values = []
        for order in orders:
            try:
                values.append(path_integral(self.components, self.base_point,
                                            key, order, self.tol))
            except (PoleError, ZeroDivisionError, OverflowError):
                continue
            if len(values) == 2:
                break
        if len(values) < 2:
            raise QuadratureError("fewer than two pole-free paths to "
                                  f"{key}")
        self.path_residuals.append(abs(values[0] - values[1]))
        self._cache[key] = values[0]
        return values[0]

    def max_path_residual(self) -> float:
        return max(self.path_residuals, default=0.0)

    def terms(self) -> list[str]:
        """Certificate terms, as LogCombination.terms."""
        return [f"quadrature grid, tol {self.tol}"]
