"""Witt vector rings: axioms, ghost coordinates, and carry polynomials."""

import math
import random

import pytest

from wildram.errors import LengthMismatch
from wildram.field import FqPoly, _KronRing, _power, make_field
from wildram.witt import (
    WittRing,
    psi_carry,
    witt2_add,
    witt2_neg,
    witt2_sub,
    witt_ring,
)

from _split_reference import witt_trace

CONFIGS = [(2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 2, 2), (5, 1, 3), (5, 2, 2),
           (5, 4, 2), (3, 4, 3)]


def _rand_vec(ring, ctx, rng):
    return ring.vec([ctx.elem([rng.randrange(ctx.p) for _ in range(ctx.e)])
                     for _ in range(ring.n)])


def test_ring_axioms():
    rng = random.Random(31)
    for p, e, n in CONFIGS:
        ctx = make_field(p, e)
        ring = witt_ring(ctx, n)
        zero, one = ring.zero, ring.one
        for _ in range(1000):
            a = _rand_vec(ring, ctx, rng)
            b = _rand_vec(ring, ctx, rng)
            c = _rand_vec(ring, ctx, rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a + zero == a
            assert a + (zero - a) == zero
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * one == a
            assert a * (b + c) == a * b + a * c
            # coordinates round-trip, and equal vectors hash alike
            back = ring.vec(a.coords)
            assert back == a and hash(back) == hash(a)
            assert hash(a + b) == hash(b + a)


def _lift_mul(a, b, modulus, r):
    """Schoolbook product in (Z/r)[X] / (modulus), modulus monic."""
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    for d in range(2 * e - 2, e - 1, -1):
        top = prod[d]
        for j, c in enumerate(modulus):
            prod[d - e + j] -= top * c
    return tuple(c % r for c in prod[:e])


def _ghost(v, k):
    """w_k = sum_{i <= k} p^i lift(x_i)^(p^(k-i)) in (Z/p^(k+1))[X] / (M~),
    which does not depend on the lifts chosen."""
    ctx = v.ring.ctx
    p, r = ctx.p, ctx.p ** (k + 1)
    acc = [0] * ctx.e
    for i, x in enumerate(v.coords[:k + 1]):
        term = (1,) + (0,) * (ctx.e - 1)
        for _ in range(p ** (k - i)):
            term = _lift_mul(term, x.coeffs, ctx.modulus, r)
        acc = [a + p ** i * t for a, t in zip(acc, term)]
    return tuple(a % r for a in acc)


def test_ghost_homomorphism():
    # each ghost component is a ring homomorphism to (Z/p^(k+1))[X]/(M~);
    # over F_p^e with e >= 2 this pins the Frobenius twist of the digits
    rng = random.Random(32)
    for p, e, n in [(2, 1, 3), (3, 1, 3), (5, 1, 3), (2, 2, 3), (3, 2, 2),
                    (5, 4, 2), (3, 4, 3)]:
        ctx = make_field(p, e)
        ring = witt_ring(ctx, n)
        for _ in range(100):
            a = _rand_vec(ring, ctx, rng)
            b = _rand_vec(ring, ctx, rng)
            for k in range(n):
                ga, gb = _ghost(a, k), _ghost(b, k)
                r = p ** (k + 1)
                assert _ghost(a + b, k) == tuple(
                    (x + y) % r for x, y in zip(ga, gb))
                assert _ghost(a * b, k) == _lift_mul(ga, gb, ctx.modulus, r)


def test_teichmueller_is_multiplicative():
    ctx = make_field(3, 2)
    ring = witt_ring(ctx, 3)
    for a in ctx.elements():
        for b in list(ctx.elements())[:4]:
            assert ring.vec([a, 0, 0]) * ring.vec([b, 0, 0]) \
                == ring.vec([a * b, 0, 0])


def test_frobenius_and_wp():
    rng = random.Random(33)
    for p, e, n in CONFIGS:
        ctx = make_field(p, e)
        ring = witt_ring(ctx, n)
        for _ in range(100):
            a = _rand_vec(ring, ctx, rng)
            b = _rand_vec(ring, ctx, rng)
            assert a.frobenius() == ring.vec([x.frobenius() for x in a.coords])
            # wp = F - 1 is additive
            assert (a + b).frobenius() - (a + b) \
                == (a.frobenius() - a) + (b.frobenius() - b)
            t = witt_trace(a)
            # trace lands in the F-fixed subring
            assert t.frobenius() == t


def _count_products(monkeypatch, cls):
    """Patch cls._mul to count its calls; returns the growing list."""
    calls, mul = [], cls._mul

    def counted(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    monkeypatch.setattr(cls, "_mul", counted)
    return calls


@pytest.mark.parametrize("p, e, n", [(7, 4, 150), (2, 12, 100)])
def test_ring_is_built_in_linear_products(monkeypatch, p, e, n):
    # the Teichmueller point of X, a p^(n-1)-th power, and the e factors
    # of M_T: about (n + e) log2 p + e^2 products, not n^2 e log2 p.
    # The Frobenius of F_q that precedes the power reads the field's log
    # tables, built once per field on its first product, before counting
    ctx = make_field(p, e)
    ctx.gen.frobenius()
    calls = _count_products(monkeypatch, _KronRing)
    WittRing(ctx, n)
    assert len(calls) <= 2 * ((n + e) * math.log2(p) + e * e)


def test_lifts_take_pth_powers(monkeypatch):
    # coordinate i lifts as a p^(n-1-i)-th power after a Frobenius, not a
    # q^(n-1-i)-th one: n (n - 1) / 2 squarings at p = 2, e times fewer
    ctx = make_field(2, 12)
    ring = witt_ring(ctx, 100)
    a = _rand_vec(ring, ctx, random.Random(36))
    calls = _count_products(monkeypatch, WittRing)
    coords = a.coords
    assert len(calls) <= 5000
    del calls[:]
    assert ring.vec(coords) == a
    assert len(calls) <= 5000


@pytest.mark.parametrize("p, e, n", [(7, 4, 40), (2, 12, 30), (65537, 2, 8)])
def test_ring_generator_is_teichmueller(p, e, n):
    # over M_T the generator X is its own Teichmueller point, so sigma is
    # X -> X^p, the field's Frobenius, at every length
    ctx = make_field(p, e)
    ring = witt_ring(ctx, n)
    gen = 1 << ring._red_rows[0]
    assert _power(gen, ctx.q, ring._mul) == gen
    assert ring._frob_rows(1)[1] == _power(gen, p, ring._mul)
    rng = random.Random(35)
    for _ in range(2):
        a = _rand_vec(ring, ctx, rng)
        assert a.frobenius() == ring.vec([x.frobenius() for x in a.coords])


def test_psi_carry_p2_is_product():
    ctx = make_field(2, 2)
    for a in ctx.elements():
        for b in ctx.elements():
            pa = FqPoly(ctx, ((0, a),) if not a.is_zero() else ())
            pb = FqPoly(ctx, ((0, b),) if not b.is_zero() else ())
            assert psi_carry(pa, pb) == pa * pb


def test_psi_carry_p3_coefficient():
    # the degree-(2,1) carry coefficient is binom(3,2)/3 = 1 mod 3
    assert math.comb(3, 2) // 3 % 3 == 1
    ctx = make_field(3, 1)
    x = FqPoly.x(ctx)
    one = FqPoly(ctx, ((0, ctx.one),))
    out = psi_carry(x, one)
    # psi(a,b) = -sum c(i) a^i b^(3-i) and c(1) = c(2) = 1 here
    assert out.coeff(2) == ctx.elem([2])
    assert out.coeff(1) == ctx.elem([2])


def test_witt2_matches_ring_on_constants():
    rng = random.Random(34)
    ctx = make_field(3, 2)
    ring = witt_ring(ctx, 2)

    def as_pair(v):
        return tuple(FqPoly(ctx, ((0, x),) if not x.is_zero() else ())
                     for x in v.coords)

    def as_vec(pair):
        return ring.vec([pt.coeff(0) for pt in pair])

    for _ in range(60):
        a = _rand_vec(ring, ctx, rng)
        b = _rand_vec(ring, ctx, rng)
        assert as_vec(witt2_add(as_pair(a), as_pair(b))) == a + b
        assert as_vec(witt2_neg(as_pair(a))) == ring.zero - a
        assert as_vec(witt2_sub(as_pair(a), as_pair(b))) == a - b


def test_witt2_on_polynomials():
    ctx = make_field(2, 1)
    x = FqPoly.x(ctx)
    zero = FqPoly.zero(ctx)
    s = witt2_add((x, zero), (x, zero))
    # [X,0] + [X,0] = [0, psi(X,X)] = [0, X^2] in characteristic 2
    assert s[0].is_zero()
    assert s[1] == x * x
    assert witt2_sub((x, zero), (x, zero)) == (zero, zero)


def test_length_mismatch():
    ctx = make_field(2, 1)
    ring2 = witt_ring(ctx, 2)
    ring3 = witt_ring(ctx, 3)
    with pytest.raises(LengthMismatch):
        ring2.one + ring3.one


def test_json_round_trip():
    ctx = make_field(5, 1)
    ring = witt_ring(ctx, 2)
    v = ring.vec([ctx.elem([3]), ctx.elem([4])])
    assert ring.from_json(v.to_json()) == v
