import random

from coneflat._modp import (
    is_probable_prime,
    kernel_mod,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_roots,
    rank_mod,
    rref_mod,
    solve_mod,
)


def test_is_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 10007}
    for n in range(2, 100):
        by_division = all(n % d for d in range(2, n))
        assert is_probable_prime(n) == by_division
    for p in primes:
        assert is_probable_prime(p)
    for n in (1, 0, -7, 10005, 2_147_483_647 * 3):
        assert not is_probable_prime(n)


def test_default_big_primes_really_are_prime():
    # cross-check Miller-Rabin against trial division up to the square root
    for p in (2_147_483_647, 2_147_483_629):
        assert is_probable_prime(p)
        d = 3
        while d * d <= p:
            assert p % d != 0
            d += 2
        assert p % 2 != 0


def test_rref_identity_like():
    p = 10007
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    reduced, pivots = rref_mod(rows, p)
    assert pivots == [0, 1, 2]
    assert reduced == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rank_and_kernel_dimensions_random():
    p = 10007
    rng = random.Random(42)
    for _ in range(20):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        r = rank_mod(rows, p)
        basis = kernel_mod(rows, ncols, p)
        assert r + len(basis) == ncols
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) % p == 0


def test_in_row_span():
    p = 97
    rows = [[1, 0, 2], [0, 1, 3]]
    columns = [list(col) for col in zip(*rows)]   # vec = y0*r0 + y1*r1
    assert solve_mod(columns, [2, 5, 19], p) == [2, 5]
    assert solve_mod(columns, [0, 0, 1], p) is None


def test_solve_mod_consistent_and_not():
    p = 101
    rows = [[2, 1], [1, 1]]
    x = solve_mod(rows, [5, 3], p)
    assert x is not None
    assert [(2 * x[0] + x[1]) % p, (x[0] + x[1]) % p] == [5, 3]
    rows = [[1, 1], [2, 2]]
    assert solve_mod(rows, [1, 3], p) is None


def test_poly_divmod_reconstructs():
    p = 10007
    rng = random.Random(5)
    for _ in range(20):
        a = [rng.randrange(p) for _ in range(rng.randint(1, 8))]
        b = [rng.randrange(p) for _ in range(rng.randint(1, 5))]
        if not any(b):
            b[-1] = 1
        q, r = poly_divmod(a, b, p)
        recon = poly_mul(q, b, p)
        total = [0] * max(len(recon), len(r), len(a))
        for i, c in enumerate(recon):
            total[i] = c
        for i, c in enumerate(r):
            total[i] = (total[i] + c) % p
        while total and total[-1] == 0:
            total.pop()
        trimmed_a = list(a)
        while trimmed_a and trimmed_a[-1] == 0:
            trimmed_a.pop()
        assert total == trimmed_a
        assert len(r) < max(len([c for c in b]), 1) or not r


def test_poly_gcd_of_known_product():
    p = 101
    # (x - 3)(x - 5) and (x - 3)(x - 7) share exactly (x - 3)
    a = poly_mul([p - 3, 1], [p - 5, 1], p)
    b = poly_mul([p - 3, 1], [p - 7, 1], p)
    assert poly_gcd(a, b, p) == [p - 3, 1]


def test_poly_roots_exact_set():
    p = 10007
    rng = random.Random(11)
    for _ in range(10):
        wanted = sorted(rng.sample(range(p), rng.randint(0, 5)))
        f = [1]
        for r in wanted:
            f = poly_mul(f, [(p - r) % p, 1], p)
        # multiply in an irreducible quadratic to exercise the linear-part gcd
        f = poly_mul(f, [1, 0, 1] if p % 4 == 3 else [rng.randrange(1, p), 1, 1], p)
        found = poly_roots(f, p, rng)
        real = [r for r in found if poly_eval(f, r, p) == 0]
        assert real == found
        for r in wanted:
            assert r in found


def test_poly_roots_big_prime():
    p = 2_147_483_647
    rng = random.Random(13)
    roots = [123456789, 987654321, 5]
    f = [1]
    for r in roots:
        f = poly_mul(f, [(p - r) % p, 1], p)
    assert poly_roots(f, p, rng) == sorted(roots)


def test_poly_roots_with_zero_root_and_multiplicity():
    p = 97
    # x^2 (x - 4)^3
    f = poly_mul([0, 0, 1], poly_mul(poly_mul([p - 4, 1], [p - 4, 1], p), [p - 4, 1], p), p)
    assert poly_roots(f, p) == [0, 4]
