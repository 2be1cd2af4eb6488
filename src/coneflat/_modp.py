"""Exact linear algebra, and prime-field univariate root finding.

``row_reduce`` is the one Gauss-Jordan elimination of the package: it
reduces over GF(p) when given a prime, and otherwise with the entries'
own field operations, which covers ``Fraction`` and ``RatFunc``
matrices; ``rank`` and ``determinant`` run only its forward pass.  GF(p)
echelon forms enter through ``rref_mod``; the kernel of a single row (a
tangent space of a cone point) is written down by ``kernel_of_row_mod``.
Each pivot step touches only the columns from the pivot column on: left
of it the pivot row is already zero.  Prime-field values are plain
Python ints reduced mod p, so there is no overflow concern for
word-sized primes.  Matrices are lists of rows; univariate polynomials
are coefficient lists indexed by power (little endian) with no trailing
zeros.  Mod-p evaluation of multivariate polynomials lives in
``funcfield.evaluate_reduced``.

``poly_roots`` finds the roots in GF(p) by Cantor-Zassenhaus (Cantor and
Zassenhaus 1981; von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 14) on the monic input.  Powers of x and of x + a modulo a monic
polynomial are taken by left-to-right binary powering with one fused
square-and-reduce step: products accumulate as unreduced ints and each
coefficient is reduced mod p once, and a multiply by x + a is a shift
plus one reduction step.  Quadratic factors are split with the same
arithmetic on two scalars.  Its contract with seeded samplers: it
advances the caller's generator by exactly the Cantor-Zassenhaus draws,
one ``rng.randrange(p)`` per splitting attempt, in a fixed order.

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
    """Gauss-Jordan elimination of mat, whose rows it owns, in place.

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
        # left of col every row at or below r is already zero, and the
        # rows above stay as they are there, so only columns >= col change
        row = mat[r]
        lead = row[col]
        if p is not None:
            inv = pow(lead, -1, p)
            row[col:] = [c * inv % p for c in row[col:]]
        elif not below_only:
            # zero entries are skipped here and below: a rational-function
            # product with zero still builds a new zero
            row[col:] = [c / lead if c else c for c in row[col:]]
        tail = row[col:]    # with below_only, rows below subtract (entry / lead) * tail
        for i in range(r + 1 if below_only else 0, len(mat)):
            target = mat[i]
            factor = target[col]
            if i == r or not factor:
                continue
            if p is not None:
                target[col:] = [(a - factor * b) % p for a, b in zip(target[col:], tail)]
                continue
            if below_only:
                factor = factor / lead
            target[col:] = [a - factor * b if b else a for a, b in zip(target[col:], tail)]
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


def rank(rows: Sequence[Sequence], p: int | None = None) -> int:
    """Rank over GF(p), or over the entries' own field when p is None,
    by the forward elimination pass only."""
    mat = [[c % p for c in row] if p else list(row) for row in rows]
    return len(_eliminate(mat, p, below_only=True)[0])


def kernel_mod(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis (list of length-ncols vectors) of {v : A v = 0 mod p}."""
    return kernel_from_rref(*rref_mod(rows, p), ncols, p)


def kernel_of_row_mod(row: Sequence[int], p: int) -> list[list[int]]:
    """``kernel_mod([row], len(row), p)`` written down without
    elimination: with pivot c the first column where row[c] != 0 mod p,
    free column f has basis vector e_f with entry -row[f] / row[c] at c.
    A zero row has the unit vectors as its kernel."""
    ncols = len(row)
    pivot = next((c for c, v in enumerate(row) if v % p), None)
    if pivot is None:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    scale = -pow(row[pivot], -1, p)
    basis = []
    for free in range(ncols):
        if free != pivot:
            vec = [0] * ncols
            vec[free] = 1
            vec[pivot] = row[free] * scale % p
            basis.append(vec)
    return basis


def kernel_from_rref(reduced: Sequence[Sequence], pivots: Sequence[int], ncols: int,
                     p: int | None) -> list[list]:
    """``kernel_mod`` of a matrix given by its ``row_reduce`` output over
    GF(p), or over the entries' own field when p is None."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free] % p if p else -row[free]
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


def poly_eval(a: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _powmod_linear(a: int, exp: int, f: Sequence[int], p: int) -> list[int]:
    """(x + a)^exp mod (f, p) for a monic f of degree d >= 2 and exp >= 1,
    as d coefficients (leading zeros kept).

    Left-to-right binary powering.  Each bit squares g with unreduced
    int products and divides the square by f from the top, so each
    coefficient is reduced mod p once; a one bit then multiplies by
    x + a, a shift plus one reduction step.
    """
    d = len(f) - 1
    low = f[:-1]
    tops = range(2 * d - 2, d - 1, -1)
    g = [a % p, 1] + [0] * (d - 2)
    for bit in bin(exp)[3:]:
        sq = [0] * (2 * d - 1)
        for i, c in enumerate(g):
            if c:
                sq[2 * i] += c * c
                c2 = 2 * c
                for j in range(i + 1, d):
                    sq[i + j] += c2 * g[j]
        for k in tops:
            q = sq[k] % p
            if q:
                base = k - d
                for i, fc in enumerate(low):
                    sq[base + i] -= q * fc
        if bit == "1":
            # x g + a g with x^d = -(f[0] + ... + f[d-1] x^(d-1)) mod f
            top = sq[d - 1] % p
            g = [(s + a * c - top * fc) % p for s, c, fc in zip([0] + sq[:d - 1], sq, low)]
        else:
            g = [c % p for c in sq[:d]]
    return g


def _split(g: list[int], p: int, rng: random.Random, roots: list[int]) -> None:
    """Append to roots the roots of g, a monic product of distinct linear
    factors, by equal-degree splitting: for a drawn a, g splits by
    gcd(probe - 1, g) or else gcd(probe + 1, g), where
    probe = (x + a)^((p-1)/2) mod g.  One ``rng.randrange(p)`` per
    splitting attempt."""
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
    if deg == 2:
        # scalar form of the loop below: probe = u x + v, and
        # gcd(probe -+ 1, g) is x - t for the root t of probe -+ 1
        # exactly when g(t) == 0
        c0, c1 = g[0], g[1]
        while True:
            a = rng.randrange(p)
            u, v = 1, a
            for bit in bin((p - 1) // 2)[3:]:
                uu = u * u % p
                u, v = (2 * u * v - c1 * uu) % p, (v * v - c0 * uu) % p
                if bit == "1":
                    u, v = (a * u + v - c1 * u) % p, (a * v - c0 * u) % p
            if u:
                inv_u = pow(u, -1, p)
                for shift in (-1, 1):
                    t = -(v + shift) * inv_u % p
                    if (t * t + c1 * t + c0) % p == 0:
                        roots.extend((t, (-c1 - t) % p))
                        return
    while True:
        probe = _powmod_linear(rng.randrange(p), (p - 1) // 2, g, p)
        for shift in (-1, 1):
            h = poly_gcd([(probe[0] + shift) % p] + probe[1:], g, p)
            if 0 < len(h) - 1 < deg:
                _split(h, p, rng, roots)
                _split(poly_divmod(g, h, p)[0], p, rng, roots)
                return


def poly_roots(coeffs: Sequence[int], p: int, rng: random.Random | None = None) -> list[int]:
    """All roots in GF(p) of a univariate polynomial (no multiplicities).

    Makes f monic, splits off the product of its distinct linear factors
    with gcd(x^p - x, f), then isolates the roots by equal-degree
    splitting (``_split``).  The only use of rng is one
    ``rng.randrange(p)`` per splitting attempt.  Degree 0 input
    (including the zero polynomial) yields no roots; callers that sample
    the zero polynomial must treat that case themselves.
    """
    if rng is None:
        rng = random.Random(0x5EED)
    f = poly_trim([c % p for c in coeffs])
    roots: list[int] = []
    if len(f) > 1 and f[0] == 0:
        roots.append(0)
        while f[0] == 0:
            f = f[1:]
    if len(f) == 2:
        roots.append(-f[0] * pow(f[1], -1, p) % p)
    elif len(f) > 2:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
        # gcd(x^p - x, f), the product of the distinct linear factors of f
        xp = _powmod_linear(0, p, f, p)
        _split(poly_gcd([xp[0], (xp[1] - 1) % p] + xp[2:], f, p), p, rng, roots)
    return sorted(roots)
