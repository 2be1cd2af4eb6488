"""Exact multivariate polynomial and rational-function arithmetic over Q.

A polynomial is stored sparsely as a dict mapping exponent tuples to
nonzero int coefficients, over one positive common denominator that
shares no factor with all of them; the zero polynomial has an empty map
and denominator 1.  This representation is unique, and the arithmetic
runs on ints.  A rational function is a reduced pair of polynomials.
All arithmetic is exact, so identity checks done with this module are
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

    def single_variable(self) -> int | None:
        """Index of the only variable that occurs, or None (constants give None)."""
        seen = None
        for exp in self.coeffs:
            for i, k in enumerate(exp):
                if k:
                    if seen is None:
                        seen = i
                    elif seen != i:
                        return None
        return seen

    def univariate_coeffs(self, index: int) -> list[Fraction]:
        """Dense coefficient list in one variable (requires all others absent)."""
        coeffs = [0] * (self.degree_in(index) + 1)
        for exp, c in self.coeffs.items():
            if any(k and i != index for i, k in enumerate(exp)):
                raise FuncFieldError("polynomial is not univariate in that variable")
            coeffs[exp[index]] += c
        return [Fraction(c, self.den) for c in coeffs]

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


def _univariate_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of dense univariate rational-coefficient polynomials."""

    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = strip(list(a)), strip(list(b))
    while b:
        # a mod b
        r = list(a)
        db, lb = len(b) - 1, b[-1]
        while len(r) - 1 >= db and strip(r):
            dr, lr = len(r) - 1, r[-1]
            q = lr / lb
            for i, c in enumerate(b):
                r[dr - db + i] -= q * c
            strip(r)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


class RatFunc:
    """Rational function num/den with lightweight canonicalization.

    The denominator is kept integer-primitive with positive leading
    coefficient (graded-lex order).  Common monomial factors, exact
    polynomial divisibility and same-variable univariate gcds are
    cancelled; full multivariate gcd is deliberately not attempted, so
    equality testing falls back on cross-multiplication.
    """

    __slots__ = ("num", "den", "_diff_cache")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.one(num.nvars)
        if num.nvars != den.nvars:
            raise FuncFieldError("variable-count mismatch")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _canonical_pair(num, den)
        self._diff_cache = None

    @staticmethod
    def const(nvars: int, value) -> RatFunc:
        return RatFunc(MultiPoly.const(nvars, value))

    @staticmethod
    def var(nvars: int, index: int) -> RatFunc:
        return RatFunc(MultiPoly.var(nvars, index))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MultiPoly:
        if not self.is_polynomial():
            raise FuncFieldError("rational function has a nontrivial denominator")
        c = self.den.constant_value()
        return self.num._times(c.denominator, c.numerator)

    def _coerce(self, other) -> RatFunc:
        if isinstance(other, RatFunc):
            if other.nvars != self.nvars:
                raise FuncFieldError("variable-count mismatch")
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        return RatFunc.const(self.nvars, other)

    def __add__(self, other) -> RatFunc:
        other = self._coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        q = other.den.divide_exact(self.den)
        if q is not None:
            return RatFunc(self.num * q + other.num, other.den)
        q = self.den.divide_exact(other.den)
        if q is not None:
            return RatFunc(self.num + other.num * q, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        # (-num, den) of a canonical pair is canonical: skip _canonical_pair
        out = object.__new__(RatFunc)
        out.num, out.den, out._diff_cache = -self.num, self.den, None
        return out

    def __sub__(self, other) -> RatFunc:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> RatFunc:
        return self._coerce(other) - self

    def __mul__(self, other) -> RatFunc:
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return RatFunc.const(self.nvars, 0)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # cross-cancel before multiplying to keep degrees down
        q = n1.divide_exact(d2)
        if q is not None:
            n1, d2 = q, MultiPoly.one(self.nvars)
        else:
            q = d2.divide_exact(n1)
            if q is not None and not q.is_constant():
                n1, d2 = MultiPoly.one(self.nvars), q
        q = n2.divide_exact(d1)
        if q is not None:
            n2, d1 = q, MultiPoly.one(self.nvars)
        else:
            q = d1.divide_exact(n2)
            if q is not None and not q.is_constant():
                n2, d1 = MultiPoly.one(self.nvars), q
        return RatFunc(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFunc(other.den, other.num)

    def __rtruediv__(self, other) -> RatFunc:
        return self._coerce(other) / self

    def __pow__(self, power: int) -> RatFunc:
        if not isinstance(power, int):
            raise FuncFieldError("rational-function powers must be integers")
        if power < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-power)
        return RatFunc(self.num ** power, self.den ** power)

    def __eq__(self, other) -> bool:
        if isinstance(other, (RatFunc, MultiPoly, int, Fraction)):
            other = self._coerce(other)
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def diff(self, index: int) -> RatFunc:
        """Exact partial derivative (quotient rule); memoized per instance."""
        if self._diff_cache is not None and index in self._diff_cache:
            return self._diff_cache[index]
        dn = self.num.diff(index)
        if self.den.is_constant():
            out = RatFunc(dn, self.den)
        else:
            dd = self.den.diff(index)
            out = RatFunc(dn * self.den - self.num * dd, self.den * self.den)
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
        return RatFunc(self.num.lift(nvars_new, var_map), self.den.lift(nvars_new, var_map))

    def to_string(self, variables: Sequence[str] | None = None) -> str:
        if self.den == MultiPoly.one(self.nvars):
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


def _canonical_pair(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    nvars = num.nvars
    if num.is_zero():
        return MultiPoly.zero(nvars), MultiPoly.one(nvars)

    # cancel the common monomial factor; a constant term in either
    # rules one out
    unit = (0,) * nvars
    if unit not in num.coeffs and unit not in den.coeffs:
        mins_n = map(min, zip(*num.coeffs))
        mins_d = map(min, zip(*den.coeffs))
        shift = tuple(min(a, b) for a, b in zip(mins_n, mins_d))
    else:
        shift = unit
    if any(shift):
        num = MultiPoly._make(nvars, {tuple(map(operator.sub, exp, shift)): c
                                      for exp, c in num.coeffs.items()}, num.den)
        den = MultiPoly._make(nvars, {tuple(map(operator.sub, exp, shift)): c
                                      for exp, c in den.coeffs.items()}, den.den)

    if not den.is_constant():
        q = num.divide_exact(den)
        if q is not None:
            num, den = q, MultiPoly.one(nvars)
        else:
            q = den.divide_exact(num)
            if q is not None and not num.is_constant():
                num, den = MultiPoly.one(nvars), q

    # same-variable univariate gcd, the one cheap factor cancellation we do
    if not den.is_constant():
        vn, vd = num.single_variable(), den.single_variable()
        if vn is not None and vn == vd:
            g = _univariate_gcd(num.univariate_coeffs(vn), den.univariate_coeffs(vn))
            if len(g) > 1:
                gp = MultiPoly(nvars, {
                    tuple(k if i == vn else 0 for i in range(nvars)): c
                    for k, c in enumerate(g) if c != 0})
                num = num.divide_exact(gp) or num
                den = den.divide_exact(gp) or den

    # normalize: den integer-primitive with positive leading coefficient,
    # that is den / (its content, signed like its lead)
    coeffs = den.coeffs
    content = math.gcd(*coeffs.values())
    if coeffs[max(coeffs, key=_grlex_key)] < 0:
        content = -content
    if content != 1 or den.den != 1:
        num = num._times(den.den, content)
        den = MultiPoly._make(nvars, {e: c // content for e, c in coeffs.items()})
    return num, den


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
