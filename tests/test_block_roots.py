"""The block root finder and the block cone-point sampler against their
one-at-a-time references."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from coneflat import _modp, xi
from coneflat.coframe import draw_seeded
from coneflat.funcfield import evaluate_reduced, parse_poly
from coneflat.xi import DEFAULT_PRIMES

VARS3 = ("x1", "x2", "x3")
# 3037000493 is the largest prime p with p * p < 2**63, the int64 bound of
# the block powering; the primes above it run it on object arrays
PRIMES = (2, 3, 5, 7, 13, 47) + DEFAULT_PRIMES + (3037000493, 3037000507, 2**32 - 5, 2**61 - 1)


@st.composite
def block_polys(draw, p):
    """A polynomial with coefficients mod p: random, zero, with a
    repeated root, or with 0 as a root."""
    kind = draw(st.sampled_from(["random", "zero", "repeated", "zero_root"]))
    if kind == "zero":
        return [0] * draw(st.integers(0, 6))
    coeffs = draw(st.lists(st.integers(0, p - 1), max_size=7))
    if kind == "repeated":
        r = draw(st.integers(0, p - 1))
        square = _modp.poly_mul([-r % p, 1], [-r % p, 1], p)
        coeffs = _modp.poly_mul(coeffs[:5] or [1], square, p)
    elif kind == "zero_root":
        coeffs = [0] * draw(st.integers(1, 3)) + coeffs[:4]
    return coeffs


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_block_roots_equal_poly_roots_one_at_a_time(p, data):
    polys = data.draw(st.lists(block_polys(p), min_size=1, max_size=12))
    seeds = data.draw(st.lists(st.integers(0, 2**32), min_size=len(polys),
                               max_size=len(polys)))
    want, states = [], []
    for coeffs, seed in zip(polys, seeds):
        rng = random.Random(seed)
        want.append(_modp.poly_roots(coeffs, p, rng))
        states.append(rng.getstate())
    rngs = [random.Random(seed) for seed in seeds]
    assert list(_modp.poly_roots_block(polys, p, rngs)) == want
    assert [rng.getstate() for rng in rngs] == states


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_block_powering_equals_scalar_powering(p, data):
    rows = data.draw(st.integers(1, 6))
    moduli = [data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=6)) + [1]
              for _ in range(rows)]
    shifts = data.draw(st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows))
    exp = data.draw(st.sampled_from([1, 2, 3, p, max((p - 1) // 2, 1)]) | st.integers(1, 10**6))
    assert _modp._powmod_linear_block(shifts, exp, moduli, p) == [
        _modp._powmod_linear(a, exp, f, p) for a, f in zip(shifts, moduli)]


@pytest.mark.parametrize("p", [3037000493, 3037000507])
def test_block_powering_with_the_largest_coefficients_at_the_int64_bound(p):
    # (p - 1)^2 fits in int64 just below the bound and overflows just above it
    moduli = [[p - 1] * d + [1] for d in (2, 3, 5)]
    shifts = [p - 1] * 3
    for exp in (p, (p - 1) // 2):
        assert _modp._powmod_linear_block(shifts, exp, moduli, p) == [
            _modp._powmod_linear(a, exp, f, p) for a, f in zip(shifts, moduli)]


def one_candidate_sampler(f, p, count, seed):
    """The cone-point sampler drawing and solving one candidate at a time."""
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

    return draw_seeded(draw, count, seed, "u", max(count * 150, 64), xi.VarietySamplingError,
                       f"found {{found}} of {{count}} cone points mod {p} after {{limit}} tries")


def _random_cubic():
    rng = random.Random("block-cubic")
    terms = []
    for a in range(4):
        for b in range(4 - a):
            terms.append(f"{rng.randint(-5, 5)}*x1^{a}*x2^{b}*x3^{3 - a - b}")
    return parse_poly(" + ".join(terms), VARS3)


@pytest.mark.parametrize("count", [1, 3, 50])
@pytest.mark.parametrize("p", DEFAULT_PRIMES + (10007, 2**61 - 1))
@pytest.mark.parametrize("variety", ["fermat_quartic", "random_cubic"])
def test_block_sampler_equals_one_candidate_loop(variety, p, count):
    f = (parse_poly("x1^4 + x2^4 + x3^4", VARS3) if variety == "fermat_quartic"
         else _random_cubic())
    assert xi.sample_variety_points_modp(f, p, count, "blk") == \
        one_candidate_sampler(f, p, count, "blk")


def test_block_sampler_stops_at_the_limit_with_the_message(monkeypatch):
    # every point of x1^4 = 0 has a zero gradient, so every candidate fails
    p = DEFAULT_PRIMES[0]
    solved = []
    real = _modp.poly_roots_block

    def counting(polys, p_, rngs):
        solved.append(len(polys))
        return real(polys, p_, rngs)

    monkeypatch.setattr(_modp, "poly_roots_block", counting)
    with pytest.raises(xi.VarietySamplingError) as excinfo:
        xi.sample_variety_points_modp(parse_poly("x1^4", VARS3), p, 5, seed=0)
    assert str(excinfo.value) == f"found 0 of 5 cone points mod {p} after 750 tries"
    assert sum(solved) == 750


@pytest.mark.parametrize("count", [1, 2, 7, 40])
def test_block_draw_is_lazy_and_equals_the_one_candidate_draw(count):
    def accept(rng):
        x = rng.random()
        return x if x < 0.3 else None

    consumed = []

    def draw_block(rngs):
        for rng in rngs:
            consumed.append(rng)
            yield accept(rng)

    args = (count, "lazy", "t", 10 * count + 64, RuntimeError, "{found} {count} {limit}")
    got = draw_seeded(draw_block, *args, block=True)
    assert got == draw_seeded(accept, *args)
    # the last outcome computed is the count-th sample
    assert accept(random.Random(f"lazy:t{len(consumed) - 1}")) == got[-1]
