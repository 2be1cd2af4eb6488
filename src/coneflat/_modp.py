"""Exact linear algebra, and prime-field univariate root finding.

``row_reduce`` is the one Gauss-Jordan elimination of the package: it
reduces over GF(p) when given a prime, and otherwise with the entries'
own field operations, which covers ``Fraction`` and ``RatFunc``
matrices.  Every GF(p) elimination enters through ``rref_mod``.
Prime-field values are plain Python ints reduced mod p, so there is no
overflow concern for word-sized primes.  Matrices are lists of rows;
univariate polynomials are coefficient lists indexed by power (little
endian) with no trailing zeros.  Mod-p evaluation of multivariate
polynomials lives in ``funcfield.evaluate_reduced``.

Internal module: the public API re-exports what callers need.
"""

from __future__ import annotations

import random
from typing import Sequence

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# matrices: one elimination over GF(p), Q and Q(x)
# ---------------------------------------------------------------------------

def _eliminate(mat: list[list], p: int | None, below_only: bool) -> tuple[list[int], list, int]:
    """Gauss-Jordan elimination of mat in place.

    The pivot of a column is its first constant nonzero entry at or
    below the current row, else its first nonzero entry (for scalars
    both are the first nonzero entry); constant pivots keep rational-
    function eliminations cheap.  The pivot row is normalised and then
    cleared from every other row.  With below_only set (enough for a
    determinant) it is left as it is and cleared from the rows below
    only.  Returns the pivot columns, the pivot values and the number of
    row swaps; the pivot rows are mat[:len(pivots)].
    """
    pivots: list[int] = []
    leads: list = []
    swaps = 0
    if not mat:
        return pivots, leads, swaps
    r = 0
    for col in range(len(mat[0])):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                is_constant = getattr(mat[i][col], "is_constant", None)
                if is_constant is None or is_constant():
                    pivot = i
                    break
                if pivot is None:
                    pivot = i
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            swaps += 1
        lead = mat[r][col]
        if p is not None:
            inv = pow(lead, -1, p)
            mat[r] = row = [c * inv % p for c in mat[r]]
        elif below_only:
            row = mat[r]        # rows below subtract (entry / lead) * row
        else:
            # zero entries are skipped here and below: a rational-function
            # product with zero still builds a new zero
            mat[r] = row = [c / lead if c else c for c in mat[r]]
        for i in range(r + 1 if below_only else 0, len(mat)):
            factor = mat[i][col]
            if i == r or not factor:
                continue
            if p is not None:
                mat[i] = [(a - factor * b) % p for a, b in zip(mat[i], row)]
                continue
            if below_only:
                factor = factor / lead
            mat[i] = [a - factor * b if b else a for a, b in zip(mat[i], row)]
        pivots.append(col)
        leads.append(lead)
        r += 1
        if r == len(mat):
            break
    return pivots, leads, swaps


def row_reduce(rows: Sequence[Sequence], p: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over GF(p), or over the entries' own
    field when p is None; returns (nonzero rows, pivot column list)."""
    if p is None:
        mat = [list(row) for row in rows]
    else:
        mat = [[c % p for c in row] for row in rows]
    pivots, _, _ = _eliminate(mat, p, below_only=False)
    return mat[:len(pivots)], pivots


def determinant(rows: Sequence[Sequence]):
    """Determinant of a square matrix over its entries' field, by one
    forward elimination pass: plus or minus the product of the pivots,
    or the field's zero when a column has no pivot."""
    mat = [list(row) for row in rows]
    pivots, leads, swaps = _eliminate(mat, None, below_only=True)
    if len(pivots) < len(mat):
        return mat[0][0] * 0
    det = leads[0]
    for lead in leads[1:]:
        det = det * lead
    return -det if swaps % 2 else det


def rref_mod(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p); returns (nonzero rows, pivot
    column list)."""
    return row_reduce(rows, p)


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(rref_mod(rows, p)[1])


def kernel_mod(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis (list of length-ncols vectors) of {v : A v = 0 mod p}."""
    reduced, pivots = rref_mod(rows, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, col in zip(reduced, pivots):
            vec[col] = (-row[free]) % p
        basis.append(vec)
    return basis


def solve_mod(rows: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> list[int] | None:
    """One solution of A x = b mod p, or None if inconsistent."""
    augmented = [list(r) + [b % p] for r, b in zip(rows, rhs)]
    reduced, pivots = rref_mod(augmented, p)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [0] * ncols
    for row, col in zip(reduced, pivots):
        x[col] = row[-1]
    return x


# ---------------------------------------------------------------------------
# univariate polynomials over GF(p), little-endian coefficient lists
# ---------------------------------------------------------------------------

def poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return poly_trim(out)


def poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return poly_trim(out)


def poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(quot) - 1, -1, -1):
        if len(rem) >= len(b) + k and rem[len(b) + k - 1]:
            q = rem[len(b) + k - 1] * inv_lead % p
            quot[k] = q
            for i, c in enumerate(b):
                rem[k + i] = (rem[k + i] - q * c) % p
        poly_trim(rem)
    return poly_trim(quot), rem


def poly_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return poly_divmod(a, b, p)[1]


def poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def poly_powmod(base: Sequence[int], exp: int, modulus: Sequence[int], p: int) -> list[int]:
    """base^exp mod (modulus, p) by binary powering."""
    result = [1]
    base = poly_mod(base, modulus, p)
    while exp:
        if exp & 1:
            result = poly_mod(poly_mul(result, base, p), modulus, p)
        exp >>= 1
        if exp:
            base = poly_mod(poly_mul(base, base, p), modulus, p)
    return result


def poly_eval(a: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def poly_diff(a: Sequence[int], p: int) -> list[int]:
    return poly_trim([(k * c) % p for k, c in enumerate(a)][1:])


def poly_roots(coeffs: Sequence[int], p: int, rng: random.Random | None = None) -> list[int]:
    """All roots in GF(p) of a univariate polynomial (no multiplicities).

    Splits off the product of distinct linear factors with gcd(x^p - x, f),
    then isolates the roots by equal-degree splitting.  Degree 0 input
    (including the zero polynomial) yields no roots; callers that sample
    the zero polynomial must treat that case themselves.
    """
    if rng is None:
        rng = random.Random(0x5EED)
    f = poly_trim([c % p for c in coeffs])
    if len(f) <= 1:
        return []
    roots: list[int] = []
    # factor out x
    shift = 0
    while f and f[0] == 0:
        f = f[1:]
        shift += 1
    if shift:
        roots.append(0)
    if len(f) <= 1:
        return sorted(roots)
    # product of the distinct linear factors: gcd(x^p - x, f)
    xp = poly_powmod([0, 1], p, f, p)
    linear_part = poly_gcd(poly_sub(xp, [0, 1], p), f, p)
    if len(linear_part) <= 1:
        return sorted(roots)

    def split(g: list[int]):
        deg = len(g) - 1
        if deg == 0:
            return
        if deg == 1:
            roots.append((-g[0]) * pow(g[1], -1, p) % p)
            return
        if p == 2:
            for candidate in (0, 1):
                if poly_eval(g, candidate, p) == 0:
                    roots.append(candidate)
            return
        while True:
            a = rng.randrange(p)
            probe = poly_powmod([a, 1], (p - 1) // 2, g, p)
            probe = poly_sub(probe, [1], p)
            h = poly_gcd(probe, g, p)
            if 0 < len(h) - 1 < deg:
                split(h)
                split(poly_divmod(g, h, p)[0])
                return
            # also try gcd with the polynomial itself shifted by +1
            h = poly_gcd(poly_sub(probe, [p - 2], p), g, p)
            if 0 < len(h) - 1 < deg:
                split(h)
                split(poly_divmod(g, h, p)[0])
                return

    split(linear_part)
    return sorted(roots)
