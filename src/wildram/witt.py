"""Witt vectors of finite length over F_q, with exact ghost arithmetic.

A length-n Witt vector (x_0, ..., x_{n-1}) is combined through its ghost
components

    w_k = sum_{i <= k} p^i * x_i^(p^(k-i)),

computed in the lift ring (Z/p^n)[X] / (M~), where M~ lifts the field
modulus coefficient by coefficient.  Ghost components add and multiply
componentwise; pulling back is the triangular division

    s_k = (w_k - sum_{i<k} p^i * s_i^(p^(k-i))) / p^k,

and the division is exact because the ghost map is a ring homomorphism
over the characteristic-zero lift.  Working mod p^n throughout is enough
precision: a lift changed by p changes its p^b-th power by p^(b+1).

The module also carries the closed forms used on polynomials: the carry
polynomial psi(a, b) = (a^p + b^p - (a+b)^p)/p reduced mod p, and exact
length-2 Witt sums of polynomial pairs built from it.
"""

from __future__ import annotations

from .errors import BadParameters, ContextMismatch, LengthMismatch
from .field import FqPoly, _kron_mulmod, _kron_pow, _reduction_rows


class WittRing:
    """Arithmetic context for W_n(F_q); caches the lift ring tables."""

    __slots__ = ("ctx", "n", "pn", "_red_rows")

    def __init__(self, ctx, n):
        if n < 1:
            raise BadParameters("Witt length must be at least 1")
        self.ctx = ctx
        self.n = n
        self.pn = ctx.p ** n
        self._red_rows = _reduction_rows(ctx.modulus, self.pn)

    def _ghost(self, coords):
        p = self.ctx.p
        pn = self.pn
        lifts = [tuple(c.coeffs) for c in coords]
        ghosts = []
        for k in range(self.n):
            acc = [0] * self.ctx.e
            for i in range(k + 1):
                term = _kron_pow(lifts[i], p ** (k - i), self._red_rows, pn)
                scale = p ** i
                for j in range(self.ctx.e):
                    acc[j] += scale * term[j]
            ghosts.append(tuple(v % pn for v in acc))
        return ghosts

    def _unghost(self, ghosts):
        p = self.ctx.p
        pn = self.pn
        e = self.ctx.e
        lifts = []
        coords = []
        for k in range(self.n):
            acc = list(ghosts[k])
            for i, s in enumerate(lifts):
                term = _kron_pow(s, p ** (k - i), self._red_rows, pn)
                scale = p ** i
                for j in range(e):
                    acc[j] = (acc[j] - scale * term[j]) % pn
            pk = p ** k
            assert all(v % pk == 0 for v in acc), "ghost image not divisible"
            lift = tuple((v // pk) % pn for v in acc)
            lifts.append(lift)
            coords.append(self.ctx.elem([v % p for v in lift]))
        return WittVec(self, tuple(coords))

    # -- public construction -------------------------------------------------

    def vec(self, coords):
        cs = [self.ctx.elem(c) for c in coords]
        if len(cs) != self.n:
            raise LengthMismatch(
                "expected %d coordinates, got %d" % (self.n, len(cs)))
        return WittVec(self, tuple(cs))

    @property
    def zero(self):
        return WittVec(self, (self.ctx.zero,) * self.n)

    @property
    def one(self):
        return WittVec(self,
                       (self.ctx.one,) + (self.ctx.zero,) * (self.n - 1))

    def teichmueller(self, x):
        return WittVec(self, (self.ctx.elem(x),)
                       + (self.ctx.zero,) * (self.n - 1))

    def from_json(self, obj):
        return self.vec([self.ctx.elem(c) for c in obj])

    def __eq__(self, other):
        return (isinstance(other, WittRing)
                and self.ctx is other.ctx and self.n == other.n)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.e, self.n))

    def __repr__(self):
        return "WittRing(W_%d over F_%d^%d)" % (self.n, self.ctx.p, self.ctx.e)


_RING_CACHE = {}


def witt_ring(ctx, n):
    key = (ctx.p, ctx.e, n)
    ring = _RING_CACHE.get(key)
    if ring is None:
        ring = WittRing(ctx, n)
        _RING_CACHE[key] = ring
    return ring


class WittVec:
    """Element of W_n(F_q): immutable coordinate tuple plus its ring."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = coords

    def _check(self, other):
        if not isinstance(other, WittVec):
            raise ContextMismatch("expected a Witt vector")
        if other.ring.ctx is not self.ring.ctx:
            raise ContextMismatch("Witt vectors over different fields")
        if other.ring.n != self.ring.n:
            raise LengthMismatch("Witt vectors of different lengths")

    def __add__(self, other):
        self._check(other)
        ga = self.ring._ghost(self.coords)
        gb = self.ring._ghost(other.coords)
        pn = self.ring.pn
        summed = [tuple((x + y) % pn for x, y in zip(a, b))
                  for a, b in zip(ga, gb)]
        return self.ring._unghost(summed)

    def __sub__(self, other):
        self._check(other)
        ga = self.ring._ghost(self.coords)
        gb = self.ring._ghost(other.coords)
        pn = self.ring.pn
        diff = [tuple((x - y) % pn for x, y in zip(a, b))
                for a, b in zip(ga, gb)]
        return self.ring._unghost(diff)

    def __neg__(self):
        gh = self.ring._ghost(self.coords)
        pn = self.ring.pn
        return self.ring._unghost([tuple((-x) % pn for x in g) for g in gh])

    def __mul__(self, other):
        self._check(other)
        ga = self.ring._ghost(self.coords)
        gb = self.ring._ghost(other.coords)
        rows, pn = self.ring._red_rows, self.ring.pn
        prod = [_kron_mulmod(a, b, rows, pn) for a, b in zip(ga, gb)]
        return self.ring._unghost(prod)

    def frobenius(self):
        p = self.ring.ctx.p
        return WittVec(self.ring, tuple(c ** p for c in self.coords))

    def is_zero(self):
        return all(not c for c in self.coords)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (isinstance(other, WittVec)
                and self.ring == other.ring and self.coords == other.coords)

    def __hash__(self):
        return hash((self.ring.ctx.p, self.ring.ctx.e, self.ring.n,
                     tuple(c.coeffs for c in self.coords)))

    def to_json(self):
        return [c.to_json() for c in self.coords]

    def __repr__(self):
        return "WittVec(%s)" % ", ".join(repr(list(c.coeffs))
                                         for c in self.coords)


def witt_wp(u):
    """The Witt Artin-Schreier operator F(u) - u."""
    return u.frobenius() - u


def witt_trace(u):
    """Sum of F^i(u) for 0 <= i < e, landing in W_n(F_p) coordinates."""
    acc = u
    cur = u
    for _ in range(u.ring.ctx.e - 1):
        cur = cur.frobenius()
        acc = acc + cur
    return acc


# ---------------------------------------------------------------------------
# carry polynomial and exact length-2 sums of polynomial pairs

def psi_carry(a, b):
    """psi(a, b) = (a^p + b^p - (a+b)^p) / p as a polynomial identity mod p.

    Inputs are FqPoly over one context; the closed form is
    sum_{i=1}^{p-1} ((-1)^i / i) a^i b^(p-i).
    """
    if a.ctx is not b.ctx:
        raise ContextMismatch("carry polynomial needs one context")
    ctx = a.ctx
    p = ctx.p
    acc = FqPoly.zero(ctx)
    if a.is_zero() or b.is_zero():
        return acc
    a_pows = [None, a]
    b_pows = [None, b]
    for i in range(2, p):
        a_pows.append(a_pows[-1] * a)
        b_pows.append(b_pows[-1] * b)
    for i in range(1, p):
        unit = pow(i, -1, p)
        if i % 2:
            unit = (-unit) % p
        acc = acc + a_pows[i] * b_pows[p - i] * ctx.elem(unit)
    return acc


def witt2_add(u, v):
    """Exact sum of two length-2 Witt vectors of polynomials:
    [A, B] + [C, D] = [A + C, B + D + psi(A, C)]."""
    (a, b), (c, d) = u, v
    return (a + c, b + d + psi_carry(a, c))


def witt2_neg(u):
    a, b = u
    return (-a, -b - psi_carry(a, -a))


def witt2_sub(u, v):
    return witt2_add(u, witt2_neg(v))
