"""Exact multivariate polynomial and rational-function arithmetic over Q.

A polynomial is stored sparsely as a dict mapping exponent tuples to
nonzero int coefficients, over one positive common denominator that
shares no factor with all of them; the zero polynomial has an empty map
and denominator 1.  This representation is unique, and the arithmetic
runs on ints.  A rational function is kept in its one reduced form: a
numerator over a product of powers of pairwise coprime, squarefree base
factors, cancelled by trial division (each whole multiplicity in one
exact division, after a prime-field probe that can only reject) and by
exact gcds over Z[x] (GCDHEU, with a primitive remainder sequence as the
fallback).  So equality and hashing compare representations.  All
arithmetic is exact, so identity checks done with this module are
proofs on the chart, not numerical evidence.

Values are immutable after construction and every operation is a pure
function, so objects may be shared freely between threads.
"""

from __future__ import annotations

import ast
import functools
import heapq
import math
import operator
import os
from collections.abc import Mapping
from fractions import Fraction
from typing import Sequence

# The scalar field: arbitrary-precision rationals from the stdlib.
Rational = Fraction

Exponent = tuple[int, ...]

DEFAULT_TERM_BOUND = 100_000


_term_bound = DEFAULT_TERM_BOUND


class FuncFieldError(ValueError):
    """Base class for errors raised by this module."""


class ParseError(FuncFieldError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PoleError(FuncFieldError):
    """Evaluation hit a zero denominator."""


class BadPrimeError(FuncFieldError):
    """The prime divides a coefficient denominator (or is not prime)."""


class TermBudgetError(FuncFieldError):
    """A polynomial exceeded the configured term bound."""


def term_bound() -> int:
    return _term_bound


def set_term_bound(bound: int) -> None:
    """Set the global polynomial size guard (also via env CCC_MAX_TERMS)."""
    global _term_bound
    if bound < 1:
        raise ValueError("term bound must be positive")
    _term_bound = bound


def _load_term_bound_env() -> None:
    """Set the term bound from CCC_MAX_TERMS when it is set.

    Raises ValueError, leaving the bound as it was, when the value is not
    a positive integer.
    """
    raw = os.environ.get("CCC_MAX_TERMS")
    if raw is not None:
        set_term_bound(int(raw))


try:
    _load_term_bound_env()
except ValueError:
    # A malformed value must not break `import coneflat`: the default
    # stays, and the CLI reports the value as a config error.
    pass


def _check_budget(nterms: int) -> None:
    if nterms > _term_bound:
        raise TermBudgetError(
            f"polynomial with {nterms} terms exceeds the term bound {_term_bound}; "
            "raise it via CCC_MAX_TERMS or set_term_bound()"
        )


def _grlex_key(exp: Exponent) -> tuple:
    return (sum(exp), exp)


def _heap_key(exp: Exponent) -> tuple:
    # min-heap entry that pops the graded-lex maximum first
    return (-sum(exp), tuple(-e for e in exp))


class _FractionTerms(Mapping):
    """Read-only view of a MultiPoly's coefficients as Fractions; each
    Fraction is built when it is read."""

    __slots__ = ("_coeffs", "_den")

    def __init__(self, coeffs: dict[Exponent, int], den: int):
        self._coeffs = coeffs
        self._den = den

    def __getitem__(self, exp: Exponent) -> Fraction:
        return Fraction(self._coeffs[exp], self._den)

    def __iter__(self):
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self):
        return repr(dict(self.items()))


class MultiPoly:
    """Sparse multivariate polynomial over Q, stored as integer
    coefficients over one common denominator.

    The polynomial is sum(coeffs[e] * x^e for e in coeffs) / den.  Every
    stored coefficient is a nonzero int, den is a positive int and
    gcd(den, *coeffs.values()) == 1, so each polynomial has exactly one
    representation: equality and hashing compare it directly, and the
    arithmetic runs on ints.

    Attributes:
        nvars: number of variables (exponent tuples have this length).
        coeffs: dict mapping exponent tuple -> nonzero int coefficient.
        den: the common denominator, a positive int.
        terms: read-only view mapping exponent tuple -> Fraction
            coefficient, coeffs[e] / den.
    """

    __slots__ = ("nvars", "coeffs", "den")

    def __init__(self, nvars: int, terms: dict[Exponent, Fraction] | None = None):
        clean: dict[Exponent, Fraction] = {}
        den = 1
        if terms:
            for exp, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(exp) != nvars:
                    raise FuncFieldError(
                        f"exponent tuple {exp} has length {len(exp)}, expected {nvars}"
                    )
                c = clean[exp] = Fraction(coeff)
                den = math.lcm(den, c.denominator)
        _check_budget(len(clean))
        self.nvars = nvars
        # den is the lcm of the reduced denominators, so it shares no
        # factor with all of the scaled numerators
        self.coeffs = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, nvars: int, coeffs: dict[Exponent, int], den: int = 1) -> MultiPoly:
        """Trusted constructor: coeffs must map correct-length exponents
        to nonzero ints and den must be positive.  Divides out the common
        factor of den and the coefficients."""
        _check_budget(len(coeffs))
        if den != 1:
            g = math.gcd(den, *coeffs.values())
            if g != 1:
                den //= g
                coeffs = {e: c // g for e, c in coeffs.items()}
        self = object.__new__(cls)
        self.nvars = nvars
        self.coeffs = coeffs
        self.den = den
        return self

    @staticmethod
    @functools.cache
    def zero(nvars: int) -> MultiPoly:
        """The shared 0 in nvars variables (polynomials are never mutated)."""
        return MultiPoly._make(nvars, {})

    @staticmethod
    def const(nvars: int, value) -> MultiPoly:
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        if value == 0:
            return MultiPoly.zero(nvars)
        if value == 1:
            return MultiPoly.one(nvars)
        return MultiPoly._make(nvars, {(0,) * nvars: value.numerator}, value.denominator)

    @staticmethod
    @functools.cache
    def one(nvars: int) -> MultiPoly:
        """The shared 1 in nvars variables (polynomials are never mutated)."""
        return MultiPoly._make(nvars, {(0,) * nvars: 1})

    @staticmethod
    def var(nvars: int, index: int) -> MultiPoly:
        if not 0 <= index < nvars:
            raise FuncFieldError(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return MultiPoly._make(nvars, {tuple(exp): 1})

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        return _FractionTerms(self.coeffs, self.den)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        coeffs = self.coeffs
        return not coeffs or (len(coeffs) == 1 and (0,) * self.nvars in coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise FuncFieldError("polynomial is not constant")
        return Fraction(self.coeffs.get((0,) * self.nvars, 0), self.den)

    def total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(exp) for exp in self.coeffs)

    def degree_in(self, index: int) -> int:
        if not self.coeffs:
            return 0
        return max(exp[index] for exp in self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> MultiPoly:
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise FuncFieldError("variable-count mismatch")
            return other
        return MultiPoly.const(self.nvars, other)

    def _times(self, num: int, den: int) -> MultiPoly:
        """self * num/den for nonzero ints num and den."""
        if den < 0:
            num, den = -num, -den
        return MultiPoly._make(self.nvars, {e: c * num for e, c in self.coeffs.items()},
                               self.den * den)

    def __add__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if self.den == other.den:
            out = dict(self.coeffs)
            scale = 1
        else:
            # bring both over lcm(den, other.den)
            g = math.gcd(self.den, other.den)
            out = {e: c * (other.den // g) for e, c in self.coeffs.items()}
            scale = self.den // g
        for exp, coeff in other.coeffs.items():
            s = out.get(exp, 0) + coeff * scale
            if s:
                out[exp] = s
            else:
                del out[exp]
        return MultiPoly._make(self.nvars, out, other.den * scale)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._make(self.nvars, {e: -c for e, c in self.coeffs.items()}, self.den)

    def __sub__(self, other) -> MultiPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> MultiPoly:
        return self._coerce(other) - self

    def __mul__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return MultiPoly.zero(self.nvars)
        out: dict[Exponent, int] = {}
        get = out.get
        add = operator.add
        b_items = list(other.coeffs.items())
        for e1, c1 in self.coeffs.items():
            for e2, c2 in b_items:
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        return MultiPoly._make(self.nvars, {e: c for e, c in out.items() if c},
                               self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> MultiPoly:
        if not isinstance(power, int) or power < 0:
            raise FuncFieldError("polynomial powers must be nonnegative integers")
        result = MultiPoly.one(self.nvars)
        base = self
        while power:
            if power & 1:
                result = result * base
            base_needed = power >> 1
            if base_needed:
                base = base * base
            power = base_needed
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return (self.nvars == other.nvars and self.den == other.den
                    and self.coeffs == other.coeffs)
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.coeffs.items())))

    # -- calculus and evaluation ---------------------------------------

    def diff(self, index: int) -> MultiPoly:
        """Exact partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise FuncFieldError(f"variable index {index} out of range for {self.nvars} variables")
        out: dict[Exponent, int] = {}
        for exp, coeff in self.coeffs.items():
            k = exp[index]
            if k == 0:
                continue
            new = list(exp)
            new[index] = k - 1
            out[tuple(new)] = coeff * k
        return MultiPoly._make(self.nvars, out, self.den)

    def evaluate(self, point: Sequence):
        """Evaluate at a point of Fractions (exact) or floats/complex.

        The result type follows the input type: Fraction points give an
        exact Fraction, float or complex points give a float/complex.
        """
        if len(point) != self.nvars:
            raise FuncFieldError("point has wrong dimension")
        den = self.den
        if all(isinstance(v, (int, Fraction)) for v in point):
            # point = nums / scale; a term of degree d is an int over
            # scale^d, so sum per degree and bring the sums over scale^top
            scale = math.lcm(*(v.denominator for v in point))
            nums = [v.numerator * (scale // v.denominator) for v in point]
            by_degree: dict[int, int] = {}
            for exp, coeff in self.coeffs.items():
                term = coeff
                for v, k in zip(nums, exp):
                    if k:
                        term *= v ** k
                d = sum(exp)
                by_degree[d] = by_degree.get(d, 0) + term
            top = max(by_degree, default=0)
            total = sum(t * scale ** (top - d) for d, t in by_degree.items())
            return Fraction(total, den * scale ** top)
        # int true division is correctly rounded, as float(Fraction) is
        scalar = complex if any(isinstance(v, complex) for v in point) else float
        total = 0.0
        for exp, coeff in self.coeffs.items():
            term = scalar(coeff / den)
            for v, k in zip(point, exp):
                if k:
                    term *= v ** k
            total = total + term
        return total

    def evaluate_mod(self, point: Sequence[int], prime: int) -> int:
        """Evaluate over GF(prime) at an integer point."""
        return evaluate_reduced(self.reduce_mod_prime(prime), point, prime)

    def reduce_mod_prime(self, prime: int) -> dict[Exponent, int]:
        """Coefficient-wise reduction mod prime; a ring morphism on Q-polys
        whose coefficient denominators avoid the prime."""
        inv = _inverse_mod(self.den, prime)
        return {exp: r for exp, c in self.coeffs.items() if (r := c * inv % prime)}

    # -- structure ------------------------------------------------------

    def lift(self, nvars_new: int, var_map: Sequence[int]) -> MultiPoly:
        """Re-embed into a chart with more variables; var_map[i] is the new
        index of old variable i, and no two old variables share one."""
        if len(var_map) != self.nvars:
            raise FuncFieldError("var_map length mismatch")
        if len(set(var_map)) != len(var_map) or not all(0 <= k < nvars_new for k in var_map):
            raise FuncFieldError(f"var_map {list(var_map)} is not an injective map "
                                 f"into range({nvars_new})")
        out: dict[Exponent, int] = {}
        for exp, coeff in self.coeffs.items():
            new = [0] * nvars_new
            for old_i, k in enumerate(exp):
                new[var_map[old_i]] += k
            out[tuple(new)] = coeff
        return MultiPoly._make(nvars_new, out, self.den)

    def subst(self, args: Sequence["RatFunc"]) -> "RatFunc":
        """Substitute a rational function for every variable."""
        if len(args) != self.nvars:
            raise FuncFieldError("substitution needs one argument per variable")
        if not args:
            raise FuncFieldError("cannot substitute into a 0-variable polynomial")
        nv = args[0].num.nvars
        total = RatFunc.const(nv, 0)
        for exp, coeff in self.coeffs.items():
            term = RatFunc.const(nv, Fraction(coeff, self.den))
            for arg, k in zip(args, exp):
                if k:
                    term = term * arg ** k
            total = total + term
        return total

    def divide_exact(self, divisor: MultiPoly) -> MultiPoly | None:
        """Return self/divisor when the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return MultiPoly.zero(self.nvars)
        d_coeffs = divisor.coeffs
        if divisor.is_constant():
            return self._times(divisor.den, d_coeffs[(0,) * self.nvars])
        # leading and trailing monomials are multiplicative in graded-lex
        # order, so both must divide their counterparts; this rejects most
        # inexact divisions without running the division loop
        lead_n = max(self.coeffs, key=_grlex_key)
        lead_d = max(d_coeffs, key=_grlex_key)
        if any(a < b for a, b in zip(lead_n, lead_d)):
            return None
        trail_n = min(self.coeffs, key=_grlex_key)
        trail_d = min(d_coeffs, key=_grlex_key)
        if any(a < b for a, b in zip(trail_n, trail_d)):
            return None
        if len(d_coeffs) == 1:
            lead_coeff = d_coeffs[lead_d]
            scale = divisor.den if lead_coeff > 0 else -divisor.den
            out = {}
            for exp, c in self.coeffs.items():
                q = tuple(a - b for a, b in zip(exp, lead_d))
                if any(k < 0 for k in q):
                    return None
                out[q] = c * scale
            return MultiPoly._make(self.nvars, out, self.den * abs(lead_coeff))

        # Divide the integer numerator by the divisor's primitive part.  By
        # Gauss's lemma an exact quotient by a primitive polynomial has
        # integer coefficients, so a step whose coefficient the lead does
        # not divide proves the division inexact.
        content = math.gcd(*d_coeffs.values())
        lead_coeff = d_coeffs[lead_d] // content
        d_items = [(e, c // content) for e, c in d_coeffs.items() if e != lead_d]
        remainder = dict(self.coeffs)
        heap = [_heap_key(e) + (e,) for e in remainder]
        heapq.heapify(heap)
        quotient: dict[Exponent, int] = {}
        while remainder:
            while heap:
                exp = heap[0][2]
                if exp in remainder:
                    break
                heapq.heappop(heap)
            else:
                break
            coeff = remainder.pop(exp)
            qexp = tuple(a - b for a, b in zip(exp, lead_d))
            if any(k < 0 for k in qexp):
                return None
            qc, r = divmod(coeff, lead_coeff)
            if r:
                return None
            quotient[qexp] = qc
            for dexp, dc in d_items:
                texp = tuple(map(operator.add, qexp, dexp))
                old = remainder.get(texp)
                if old is None:
                    val = -qc * dc
                    if val:
                        remainder[texp] = val
                        heapq.heappush(heap, _heap_key(texp) + (texp,))
                else:
                    val = old - qc * dc
                    if val:
                        remainder[texp] = val
                    else:
                        del remainder[texp]
            _check_budget(len(remainder))
        # self / divisor = quotient * divisor.den / (self.den * content)
        if divisor.den != 1:
            quotient = {e: q * divisor.den for e, q in quotient.items()}
        return MultiPoly._make(self.nvars, quotient, self.den * content)

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficients), 0 for the zero poly."""
        if not self.coeffs:
            return Fraction(0)
        return Fraction(math.gcd(*self.coeffs.values()), self.den)

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return Fraction(self.coeffs[max(self.coeffs, key=_grlex_key)], self.den)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.coeffs:
            return True
        degrees = {sum(exp) for exp in self.coeffs}
        if len(degrees) != 1:
            return False
        return degree is None or degrees == {degree}

    # -- printing -------------------------------------------------------

    def to_string(self, variables: Sequence[str] | None = None) -> str:
        if variables is None:
            variables = [f"x{i + 1}" for i in range(self.nvars)]
        if not self.coeffs:
            return "0"
        terms = self.terms
        pieces = []
        for exp in sorted(terms, key=_grlex_key, reverse=True):
            coeff = terms[exp]
            factors = []
            for name, k in zip(variables, exp):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(coeff)
            if not factors:
                body = _fraction_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_fraction_str(mag)] + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += sign + body
        return text

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"


def _fraction_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _inverse_mod(den: int, prime: int) -> int:
    den %= prime
    if den == 0:
        raise BadPrimeError(f"prime {prime} divides a coefficient denominator")
    return pow(den, -1, prime)


def _fraction_mod(value: Fraction, prime: int) -> int:
    return value.numerator * _inverse_mod(value.denominator, prime) % prime


def evaluate_reduced(table: dict[Exponent, int], point: Sequence[int], prime: int) -> int:
    """Value over GF(prime), at an integer point, of a polynomial given
    as its reduction table (see MultiPoly.reduce_mod_prime)."""
    total = 0
    for exp, coeff in table.items():
        term = coeff
        for v, k in zip(point, exp):
            if k:
                if v == 0:
                    term = 0
                    break
                term = term * pow(v, k, prime) % prime
        total = (total + term) % prime
    return total


# ---------------------------------------------------------------------------
# gcd over Z[x]
# ---------------------------------------------------------------------------

def _primitive(p: MultiPoly) -> tuple[Fraction, MultiPoly]:
    """(unit, q) with p = unit * q, q integer-primitive with a positive
    graded-lex lead; p must be nonzero."""
    coeffs = p.coeffs
    content = math.gcd(*coeffs.values())
    if coeffs[max(coeffs, key=_grlex_key)] < 0:
        content = -content
    if content == 1:
        return Fraction(1, p.den), (p if p.den == 1 else MultiPoly._make(p.nvars, coeffs))
    return Fraction(content, p.den), MultiPoly._make(
        p.nvars, {e: c // content for e, c in coeffs.items()})


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The gcd of a and b in Q[x], integer-primitive with a positive
    graded-lex lead (the zero polynomial when both are zero).

    GCDHEU (Char, Geddes & Gonnet 1989) proposes the gcd and exact
    division checks it; when six evaluation points fail, a primitive
    polynomial remainder sequence decides.  Both are exact, so the
    result never depends on which of them answered.
    """
    if a.is_zero() or b.is_zero():
        return b if a.is_zero() and b.is_zero() else _primitive(b if a.is_zero() else a)[1]
    if a.is_constant() or b.is_constant():
        return MultiPoly.one(a.nvars)
    a, b = _primitive(a)[1], _primitive(b)[1]
    if a == b:
        return a
    g = _heu_gcd(a, b)
    return _primitive(g if g is not None else _prs_gcd(a, b))[1]


def _variables(p: MultiPoly) -> frozenset[int]:
    return frozenset(i for exp in p.coeffs for i, k in enumerate(exp) if k)


def _present_variable(*polys: MultiPoly) -> int | None:
    """The first variable that occurs in one of polys."""
    for i in range(polys[0].nvars):
        if any(exp[i] for p in polys for exp in p.coeffs):
            return i
    return None


def _heu_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """gcd(f, g) in Z[x] for nonzero integer polynomials, up to sign, or
    None when six evaluation points all fail.

    Evaluating the first variable present at an integer xi gives the
    gcd of the images by recursion (an integer gcd at the bottom); its
    balanced xi-adic expansion is the candidate.  With xi > 1 + 2 *
    min(|f|, |g|) (max norms) the primitive part of the candidate is the
    gcd exactly when it divides both f and g (Char, Geddes & Gonnet
    1989), and exact division checks that.
    """
    cont = math.gcd(*f.coeffs.values(), *g.coeffs.values())
    var = _present_variable(f, g)
    if var is None:
        return MultiPoly.const(f.nvars, cont)
    f, g = f._times(1, cont), g._times(1, cont)     # integer: cont divides every coefficient
    xi = 2 * min(max(map(abs, f.coeffs.values())), max(map(abs, g.coeffs.values()))) + 29
    for _ in range(6):
        ff, gg = _eval_at(f, var, xi), _eval_at(g, var, xi)
        if not ff.is_zero() and not gg.is_zero():
            h = _heu_gcd(ff, gg)
            if h is not None:
                h = _primitive(_xi_adic(h, var, xi))[1]
                if f.divide_exact(h) is not None and g.divide_exact(h) is not None:
                    return h._times(cont, 1)
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _eval_at(f: MultiPoly, var: int, xi: int) -> MultiPoly:
    """f with variable var set to the integer xi."""
    out: dict[Exponent, int] = {}
    for exp, c in f.coeffs.items():
        k = exp[var]
        if k:
            exp = exp[:var] + (0,) + exp[var + 1:]
            c *= xi ** k
        out[exp] = out.get(exp, 0) + c
    return MultiPoly._make(f.nvars, {e: c for e, c in out.items() if c})


def _xi_adic(h: MultiPoly, var: int, xi: int) -> MultiPoly:
    """The polynomial in var whose value at xi is h, read off the
    balanced base-xi digits of each coefficient of h (free of var)."""
    out: dict[Exponent, int] = {}
    half = xi // 2
    for exp, c in h.coeffs.items():
        k = 0
        while c:
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[exp[:var] + (k,) + exp[var + 1:]] = digit
            c = (c - digit) // xi
            k += 1
    return MultiPoly._make(h.nvars, out)


def _coefficients_in(f: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """f as a polynomial in var: degree -> coefficient (free of var)."""
    parts: dict[int, dict[Exponent, int]] = {}
    for exp, c in f.coeffs.items():
        parts.setdefault(exp[var], {})[exp[:var] + (0,) + exp[var + 1:]] = c
    return {k: MultiPoly._make(f.nvars, t, f.den) for k, t in parts.items()}


def _prs_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd(f, g) in Q[x] by a primitive polynomial remainder sequence in
    one variable, contents by recursion on fewer variables."""
    var = _present_variable(f, g)
    if var is None:
        return MultiPoly.one(f.nvars)

    def content(p: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(p.nvars)
        for c in _coefficients_in(p, var).values():
            out = poly_gcd(out, c)
            if out.is_constant():
                break
        return out

    cf, cg = content(f), content(g)
    common = poly_gcd(cf, cg)
    f, g = f.divide_exact(cf), g.divide_exact(cg)
    if f.degree_in(var) < g.degree_in(var):
        f, g = g, f
    while g.degree_in(var) > 0:
        r = _pseudo_remainder(f, g, var)
        if r.is_zero():
            return common * g
        f, g = g, r.divide_exact(content(r))
    # g is a nonzero constant: the primitive parts are coprime
    return common


def _pseudo_remainder(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    """A remainder of lead(g)^k * f on division by g in var."""
    dg = g.degree_in(var)
    lg = _coefficients_in(g, var)[dg]
    shift = [0] * f.nvars
    while not f.is_zero() and f.degree_in(var) >= dg:
        df = f.degree_in(var)
        shift[var] = df - dg
        lf = _coefficients_in(f, var)[df]
        monomial = MultiPoly._make(f.nvars, {tuple(shift): 1})
        f = f * lg - lf * monomial * g
    return f


# ---------------------------------------------------------------------------
# the factor base of denominators
# ---------------------------------------------------------------------------

# the prime of the cancellation probe (see _vanishing_order)
_PROBE_PRIME = 2 ** 31 - 1


class _Factor:
    """A base factor of a denominator: a non-constant, squarefree,
    integer-primitive polynomial with a positive graded-lex lead.

    linear is a variable in which the polynomial has degree 1 with a
    coefficient coprime to the rest, which proves it irreducible, or
    None.  probe is a zero of the polynomial over GF(_PROBE_PRIME), or
    None (see _vanishing_order).

    A factor is shared by every value derived from the one that
    introduced it, and memoises its powers and lifts for them; the memos
    live as long as the factor, so no state outlives the values that use
    it and repeated computations repeat the same work.
    """

    __slots__ = ("poly", "variables", "linear", "probe", "_powers", "_lifts")

    def __init__(self, poly: MultiPoly):
        self.poly = poly
        self.variables = _variables(poly)
        self.linear = _linear_variable(poly)
        self.probe = None if self.linear is None else _probe_point(poly, self.linear)
        self._powers = {1: poly}
        self._lifts = {}

    def power(self, k: int) -> MultiPoly:
        out = self._powers.get(k)
        if out is None:
            out = self._powers[k] = self.poly ** k
        return out

    def lift(self, nvars_new: int, var_map: Sequence[int]) -> tuple[_Factor, bool]:
        """The factor re-embedded by MultiPoly.lift, made positive-lead
        again, and whether that flipped its sign."""
        key = (nvars_new, tuple(var_map))
        out = self._lifts.get(key)
        if out is None:
            unit, q = _primitive(self.poly.lift(nvars_new, var_map))
            out = self._lifts[key] = (_Factor(q), unit < 0)
        return out

    def __repr__(self):
        return f"_Factor({self.poly.to_string()})"


# a denominator: (base factor, positive exponent) pairs over a coprime base
Factors = tuple[tuple[_Factor, int], ...]


def _expand(factors: Factors) -> MultiPoly:
    """The product of the factor powers (nonempty)."""
    out = None
    for f, e in factors:
        term = f.power(e)
        out = term if out is None else out * term
    return out


def _linear_variable(poly: MultiPoly) -> int | None:
    """A variable in which poly has degree 1 and whose coefficient is
    coprime to the rest of poly, or None.  For an integer-primitive poly
    that proves it irreducible: in a factorisation one factor is free of
    that variable and so divides both parts."""
    degrees = [max(k) for k in zip(*poly.coeffs)]
    candidates = [i for i, d in enumerate(degrees) if d == 1]
    split = {i: _coefficients_in(poly, i) for i in candidates}
    for i in candidates:
        if split[i][1].is_constant():
            return i
    for i in candidates:
        rest = split[i].get(0, MultiPoly.zero(poly.nvars))
        if poly_gcd(split[i][1], rest).is_constant():
            return i
    return None


def _probe_point(poly: MultiPoly, var: int) -> list[int] | None:
    """A zero of poly over GF(_PROBE_PRIME): fixed values for the other
    variables, solved for var, in which poly has degree 1.  None when
    the coefficient of var vanishes at each of the values tried."""
    p = _PROBE_PRIME
    parts = _coefficients_in(poly, var)
    coeff, rest = parts[1], parts.get(0, MultiPoly.zero(poly.nvars))
    for attempt in range(4):
        point = [pow(1_000_003 * (i + 1) + 7_919 * attempt, 3, p) for i in range(poly.nvars)]
        a = evaluate_reduced(coeff.coeffs, point, p)
        if a:
            point[var] = -evaluate_reduced(rest.coeffs, point, p) * pow(a, -1, p) % p
            return point
    return None


def _vanishing_order(num: MultiPoly, f: _Factor, cap: int) -> int:
    """An upper bound, at most cap, on the multiplicity of f in num.

    f = a * x_v + r with a free of x_v; its probe point P has f(P) = 0
    and a(P) != 0 mod p.  On the line P + t e_v, f is a(P) t, so f^m | N
    in Z[x] (N the integer numerator of num; Gauss's lemma, f primitive)
    makes N vanish to order m at t = 0 mod p.  The order found is
    therefore at least the multiplicity; it exceeds it only at points
    special to num.  Order 0 proves that f does not divide num.
    """
    if cap <= 0:
        return 0
    var, point = f.linear, f.probe
    p = _PROBE_PRIME
    # tables[i][k] = point[i]^k mod p, with ones in the column of x_v, so
    # one product per term gives its coefficient of s^(exp[v]) on the line
    tables = []
    for i, top in enumerate(map(max, zip(*num.coeffs))):
        value = 1 if i == var else point[i]
        row = [1] * (top + 1)
        for k in range(1, top + 1):
            row[k] = row[k - 1] * value % p
        tables.append(row)
    line = [0] * len(tables[var])
    getitem = operator.getitem
    for exp, c in num.coeffs.items():
        line[exp[var]] += c * math.prod(map(getitem, tables, exp))
    coeffs = [c % p for c in line]
    v0 = point[var]
    order = 0
    while order < cap:
        # divide by (s - v0): Horner's values are the quotient, then q(v0)
        acc, quotient = 0, []
        for c in reversed(coeffs):
            acc = (acc * v0 + c) % p
            quotient.append(acc)
        if quotient.pop():
            break
        coeffs = quotient[::-1]
        order += 1
    return order


def _divide_out(num: MultiPoly, f: _Factor, cap: int) -> tuple[int, MultiPoly]:
    """(m, num / f^m) for the largest m <= cap with f^m | num; f must be
    irreducible (f.linear set).  The whole multiplicity is divided in
    one exact division."""
    if f.probe is not None:
        m = _vanishing_order(num, f, cap)
        while m:
            q = num.divide_exact(f.power(m))
            if q is not None:
                return m, q
            m -= 1      # the probe point was special to num
        return 0, num
    m = 0
    while m < cap:
        q = num.divide_exact(f.poly)
        if q is None:
            break
        num, m = q, m + 1
    return m, num


def _common_factor(f: _Factor, g: _Factor) -> MultiPoly | None:
    """gcd(f, g) when it is not constant, else None."""
    if f is g or f.poly == g.poly:
        return f.poly
    if f.linear is not None and g.linear is not None or not f.variables & g.variables:
        return None     # distinct primitive irreducibles, or no variable in common
    h = poly_gcd(f.poly, g.poly)
    return None if h.is_constant() else h


def _cancel(num: MultiPoly, factors: Factors) -> tuple[MultiPoly, Factors]:
    """Divide num and the product of factors by their gcd.  Returns the
    same factors object when nothing cancels."""
    if num.is_constant():
        return num, factors
    out = []
    changed = False
    for f, e in factors:
        if f.linear is not None:
            m, num = _divide_out(num, f, e)
            if m:
                changed = True
            if e > m:
                out.append((f, e - m))
            continue
        # a factor not proved irreducible: split it by gcds with num
        pending = [(f, e)]
        while pending:
            g, k = pending.pop()
            h = poly_gcd(num, g.poly)
            if h.is_constant():
                out.append((g, k))
                continue
            changed = True
            num = num.divide_exact(h)
            rest = g.poly.divide_exact(h)
            if not rest.is_constant():
                # rest is coprime to num: gcd(num, g) was all of h, and g is squarefree
                out.append((_Factor(rest), k))
            if k > 1:
                pending.append((_Factor(h), k - 1))
    return num, (tuple(out) if changed else factors)


def _merge(fa: Factors, fb: Factors) -> list[list]:
    """Refine the bases of fa and fb into one coprime base (Bach,
    Driscoll & Shallit 1993): rows [factor, exponent in fa, exponent
    in fb].  Each side must be pairwise coprime and squarefree; then one
    gcd h of f and g splits them into the coprime pieces h, f/h, g/h."""
    rows = [[f, e, 0] for f, e in fa]
    for g, eb in fb:
        for row in rows[:len(rows)]:
            if row[2] or row[1] == 0:
                continue    # a piece of an earlier fb base: coprime to g
            f = row[0]
            h = _common_factor(f, g)
            if h is None:
                continue
            row[2] = eb
            if h != f.poly:
                row[0] = _Factor(h)
                rows.append([_Factor(f.poly.divide_exact(h)), row[1], 0])
            if h == g.poly:
                g = None
                break
            g = _Factor(g.poly.divide_exact(h))
        if g is not None:
            rows.append([g, 0, eb])
    return rows


def _new_factors(c: MultiPoly, present: Factors) -> tuple[Fraction, Factors]:
    """(unit, factors) with c = unit * prod f^e over a squarefree coprime
    base, for a nonzero polynomial c entering a denominator.

    The irreducible factors already present are divided out first, each
    whole multiplicity at once; the rest is split by _squarefree.
    """
    unit, c = _primitive(c)
    out = []
    variables = _variables(c)
    for f, _ in present:
        if c.is_constant():
            break
        if f.linear is not None and f.variables <= variables:
            m, c = _divide_out(c, f, c.total_degree() // f.poly.total_degree())
            if m:
                out.append((f, m))
    if not c.is_constant():
        out.extend(_squarefree(c))
    return unit, tuple(out)


def _squarefree(c: MultiPoly) -> Factors:
    """The squarefree decomposition of an integer-primitive, positive-lead,
    non-constant c: pairwise coprime (factor, multiplicity) pairs.

    In characteristic 0 the gcd of c and all its partials is
    prod p^(e-1) over the irreducible factors p^e of c (each p depends on
    some variable and does not divide its own derivative there).  Then
    Yun's peeling: w = prod p, and gcd(w, prod p^(e-k)) is the product of
    the p with e > k, so w over it holds the p of multiplicity exactly k.
    A w proved irreducible takes its whole remaining multiplicity at once.
    """
    f = _Factor(c)
    if f.linear is not None:
        return ((f, 1),)
    g = c
    for i in range(c.nvars):
        d = c.diff(i)
        if not d.is_zero():
            g = poly_gcd(g, d)
            if g.is_constant():
                return ((f, 1),)
    w = c.divide_exact(g)
    out = []
    k = 1
    while not w.is_constant():
        wf = _Factor(w)
        if wf.linear is not None:
            m, _ = _divide_out(g, wf, g.total_degree() // w.total_degree())
            out.append((wf, k + m))
            break
        y = poly_gcd(w, g)
        piece = w.divide_exact(y)
        if not piece.is_constant():
            out.append((_Factor(piece), k))
        w, g = y, g.divide_exact(y)
        k += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Rational function num/den in its one reduced form.

    The denominator is held as a product of powers of base factors:
    non-constant, squarefree, integer-primitive polynomials with positive
    graded-lex leads, pairwise coprime, none sharing a factor with num.
    So den, their expanded product, is integer-primitive with a positive
    lead and num/den is the unique reduced pair: == and hash compare
    (num, den) directly.  Polynomials have no factors and take fast paths
    that skip cancellation; products and sums cancel by trial division
    by each irreducible factor, and by exact gcds for the others.
    """

    __slots__ = ("num", "_factors", "_den", "_diff_cache")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is not None and num.nvars != den.nvars:
            raise FuncFieldError("variable-count mismatch")
        factors: Factors = ()
        if den is not None:
            if den.is_zero():
                raise ZeroDivisionError("rational function with zero denominator")
            unit, factors = _new_factors(den, ())
            num, factors = _cancel(num._times(unit.denominator, unit.numerator), factors)
        self.num = num
        self._factors = factors if not num.is_zero() else ()
        self._den = self._diff_cache = None

    @staticmethod
    def _make(num: MultiPoly, factors: Factors) -> RatFunc:
        """Trusted constructor: num/prod(factors) must be reduced."""
        out = object.__new__(RatFunc)
        out.num = num
        out._factors = factors if not num.is_zero() else ()
        out._den = out._diff_cache = None
        return out

    @staticmethod
    def const(nvars: int, value) -> RatFunc:
        return RatFunc._make(MultiPoly.const(nvars, value), ())

    @staticmethod
    def var(nvars: int, index: int) -> RatFunc:
        return RatFunc._make(MultiPoly.var(nvars, index), ())

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def den(self) -> MultiPoly:
        """The expanded denominator, built on first read."""
        den = self._den
        if den is None:
            den = self._den = (_expand(self._factors) if self._factors
                               else MultiPoly.one(self.num.nvars))
        return den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_constant(self) -> bool:
        return not self._factors and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if self._factors:
            raise FuncFieldError("rational function is not constant")
        return self.num.constant_value()

    def is_polynomial(self) -> bool:
        return not self._factors

    def den_factors(self) -> tuple[tuple[MultiPoly, int], ...]:
        """The denominator as (base factor, exponent) pairs: pairwise
        coprime, squarefree, integer-primitive polynomials with positive
        leads, whose powers multiply to den (empty for a polynomial)."""
        return tuple((f.poly, e) for f, e in self._factors)

    def as_poly(self) -> MultiPoly:
        if self._factors:
            raise FuncFieldError("rational function has a nontrivial denominator")
        return self.num

    def _coerce(self, other) -> RatFunc:
        if isinstance(other, RatFunc):
            if other.nvars != self.nvars:
                raise FuncFieldError("variable-count mismatch")
            return other
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise FuncFieldError("variable-count mismatch")
            return RatFunc._make(other, ())
        return RatFunc.const(self.nvars, other)

    def __add__(self, other) -> RatFunc:
        other = self._coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, fa, b, fb = self.num, self._factors, other.num, other._factors
        if fa == fb:
            num = a + b
            if not fa or num.is_zero():
                return RatFunc._make(num, ())
            return RatFunc._make(*_cancel(num, fa))
        # a factor whose exponents differ cannot cancel: it divides one
        # term of the sum over the lcm and is coprime to the other
        if not fa:
            return RatFunc._make(a * _expand(fb) + b, fb)
        if not fb:
            return RatFunc._make(a + b * _expand(fa), fa)
        rows = _merge(fa, fb)
        raise_a = tuple((f, eb - ea) for f, ea, eb in rows if eb > ea)
        raise_b = tuple((f, ea - eb) for f, ea, eb in rows if ea > eb)
        num = (a * _expand(raise_a) if raise_a else a) + (b * _expand(raise_b) if raise_b else b)
        if num.is_zero():
            return RatFunc._make(num, ())
        num, equal = _cancel(num, tuple((f, ea) for f, ea, eb in rows if ea == eb))
        return RatFunc._make(num, equal + tuple((f, max(ea, eb)) for f, ea, eb in rows
                                                if ea != eb))

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc._make(-self.num, self._factors)

    def __sub__(self, other) -> RatFunc:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> RatFunc:
        return self._coerce(other) - self

    def __mul__(self, other) -> RatFunc:
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return RatFunc.const(self.nvars, 0)
        return _times(self.num, self._factors, other.num, other._factors)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        if self.is_zero():
            return self
        # (a / A) / (c / D) = (a * D) / (A * c): D against A by exponents
        # (a coprime base), then c's new factors against a
        fa = self._factors
        raised = MultiPoly.one(self.nvars)
        if other._factors:
            rows = _merge(fa, other._factors)
            fa = tuple((f, ea - ed) for f, ea, ed in rows if ea > ed)
            up = tuple((f, ed - ea) for f, ea, ed in rows if ed > ea)
            if up:
                raised = _expand(up)
        unit, fc = _new_factors(other.num, fa)
        return _times(self.num, fa, raised._times(unit.denominator, unit.numerator), fc)

    def __rtruediv__(self, other) -> RatFunc:
        return self._coerce(other) / self

    def __pow__(self, power: int) -> RatFunc:
        if not isinstance(power, int):
            raise FuncFieldError("rational-function powers must be integers")
        if power < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return (RatFunc.const(self.nvars, 1) / self) ** (-power)
        # coprime num and factors stay coprime under powers
        return RatFunc._make(self.num ** power,
                             tuple((f, e * power) for f, e in self._factors) if power else ())

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            if other.nvars != self.nvars:
                raise FuncFieldError("variable-count mismatch")
            return self.num == other.num and (self._factors == other._factors
                                              or self.den == other.den)
        if isinstance(other, (MultiPoly, int, Fraction)):
            return not self._factors and self.num == other
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def diff(self, index: int) -> RatFunc:
        """Exact partial derivative; memoized per instance.

        With den = prod f_i^e_i and S the factors that depend on x_v,
        d(a/den)/dx_v = N / (den * prod_S f_i) where
        N = a' prod_S f_j - a sum_S e_i f_i' prod_{S - i} f_j.
        An irreducible f_i in S does not divide N: mod f_i, N is
        -a e_i f_i' prod_{S - i} f_j, and f_i divides none of a (reduced
        form), e_i (characteristic 0), f_i' (lower degree in x_v, nonzero)
        or the other f_j (coprime).  So only the factors outside S and
        those not proved irreducible are tested.
        """
        if self._diff_cache is not None and index in self._diff_cache:
            return self._diff_cache[index]
        a, factors = self.num, self._factors
        dn = a.diff(index)
        if not factors:
            out = RatFunc._make(dn, ())
        else:
            moving = [(f, e) for f, e in factors if index in f.variables]
            if not moving:
                out = RatFunc._make(*_cancel(dn, factors))
            else:
                prod_s = _expand(tuple((f, 1) for f, _ in moving))
                num = dn * prod_s
                for i, (f, e) in enumerate(moving):
                    others = tuple((g, 1) for j, (g, _) in enumerate(moving) if j != i)
                    term = f.poly.diff(index)._times(e, 1)
                    if others:
                        term = term * _expand(others)
                    num = num - a * term
                test = tuple((f, e + 1 if index in f.variables else e) for f, e in factors
                             if index not in f.variables or f.linear is None)
                kept = tuple((f, e + 1) for f, e in moving if f.linear is not None)
                num, test = _cancel(num, test)
                out = RatFunc._make(num, kept + test)
        if self._diff_cache is None:
            self._diff_cache = {}
        self._diff_cache[index] = out
        return out

    def evaluate(self, point: Sequence):
        den = self.den.evaluate(point)
        if den == 0:
            raise PoleError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / den

    def evaluate_mod(self, point: Sequence[int], prime: int) -> int:
        den = self.den.evaluate_mod(point, prime)
        if den == 0:
            raise PoleError("denominator vanishes at the evaluation point (mod p)")
        return self.num.evaluate_mod(point, prime) * pow(den, -1, prime) % prime

    def subst(self, args: Sequence["RatFunc"]) -> RatFunc:
        num = self.num.subst(args)
        den = self.den.subst(args)
        return num / den

    def lift(self, nvars_new: int, var_map: Sequence[int]) -> RatFunc:
        # a renaming of variables keeps the factors squarefree, primitive
        # and coprime, but may flip the sign of a lead
        num = self.num.lift(nvars_new, var_map)
        factors = []
        for f, e in self._factors:
            lifted, flipped = f.lift(nvars_new, var_map)
            if flipped and e % 2:
                num = -num
            factors.append((lifted, e))
        return RatFunc._make(num, tuple(factors))

    def to_string(self, variables: Sequence[str] | None = None) -> str:
        if not self._factors:
            return self.num.to_string(variables)
        num = self.num.to_string(variables)
        den = self.den.to_string(variables)
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        if len(self.den.coeffs) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({self.to_string()})"


def _times(a: MultiPoly, fa: Factors, b: MultiPoly, fb: Factors) -> RatFunc:
    """(a / prod fa) * (b / prod fb) for reduced operands: each numerator
    is cancelled against the other side's factors, then exponents add."""
    if fb:
        a, fb = _cancel(a, fb)
    if fa:
        b, fa = _cancel(b, fa)
    if not fa or not fb:
        return RatFunc._make(a * b, fa or fb)
    return RatFunc._make(a * b, tuple((f, ea + eb) for f, ea, eb in _merge(fa, fb)))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_ratfunc(text: str, variables: Sequence[str]) -> RatFunc:
    """Parse an expression over the declared variables into a RatFunc.

    Grammar: variable names, integer and rational literals, `+ - * / ^`,
    parentheses.  `^` takes nonnegative integer exponents and
    multiplication must be written explicitly.
    """
    names = {name: i for i, name in enumerate(variables)}
    if len(names) != len(variables):
        raise ParseError("duplicate variable name")
    nvars = len(variables)
    source, offsets = _rewrite_carets(text)
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        pos = _original_offset(offsets, (exc.offset or 1) - 1)
        raise ParseError(f"syntax error: {exc.msg}", pos) from None

    def fail(node: ast.AST, message: str):
        pos = _original_offset(offsets, getattr(node, "col_offset", 0))
        raise ParseError(message, pos)

    def exponent_of(node: ast.AST) -> int:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        fail(node, "exponent must be a nonnegative integer literal")

    def walk(node: ast.AST) -> RatFunc:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return RatFunc.const(nvars, node.value)
            fail(node, f"unsupported literal {node.value!r} (integers and rationals only)")
        if isinstance(node, ast.Name):
            if node.id not in names:
                fail(node, f"unknown variable {node.id!r}")
            return RatFunc.var(nvars, names[node.id])
        if isinstance(node, ast.UnaryOp):
            value = walk(node.operand)
            if isinstance(node.op, ast.USub):
                return -value
            if isinstance(node.op, ast.UAdd):
                return value
            fail(node, "unsupported unary operator")
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                base = walk(node.left)
                k = exponent_of(node.right)
                if k < 0:
                    fail(node.right, "exponent must be a nonnegative integer literal")
                return base ** k
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                if right.is_zero():
                    fail(node.right, "division by zero")
                return left / right
            fail(node, "unsupported operator")
        fail(node, "unsupported syntax")

    return walk(tree)


def parse_poly(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse a polynomial; `/` is only allowed with constant denominators."""
    rf = parse_ratfunc(text, variables)
    if not rf.is_polynomial():
        raise ParseError("expression is not a polynomial (nonconstant denominator)")
    return rf.as_poly()


def _rewrite_carets(text: str) -> tuple[str, list[int]]:
    """Rewrite `^` as `**`, keeping a map from new offsets to old ones."""
    out = []
    offsets = []
    for i, ch in enumerate(text):
        if ch == "^":
            out.append("**")
            offsets.extend([i, i])
        else:
            out.append(ch)
            offsets.append(i)
    return "".join(out), offsets


def _original_offset(offsets: list[int], new_offset: int) -> int:
    if not offsets:
        return 0
    return offsets[min(max(new_offset, 0), len(offsets) - 1)]
