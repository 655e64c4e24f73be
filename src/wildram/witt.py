"""Witt vectors of finite length over F_q, stored as Galois-ring elements.

W_n(F_q) is the Galois ring GR(p^n, e) = (Z/p^n)[X] / (M~), where M~
lifts the field modulus coefficient by coefficient (Serre, Local Fields,
II 4-6; Wan, Lectures on Finite Fields and Galois Rings): the vector
(a_0, ..., a_{n-1}) is the ring element x = sum_i p^i [a_i^(p^-i)], with
the Teichmueller lift [b] = lift(b)^(q^(n-1)) mod p^n, the root of
T^q = T over b.  So a WittVec holds one packed int, its e coefficients
mod p^n in Kronecker slots as for field elements: sums are SWAR, a
product is one Kronecker product mod (M~, p^n), and the Witt Frobenius
is the ring automorphism sigma with sigma([b]) = [b^p], a Z/p^n-linear
map fixed by the images sigma(X^i).

The coordinates are read back by peeling Teichmueller digits: b = x mod p
is a_i^(p^-i), and x - [b] is exactly divisible by p because [b] reduces
to b.  After i peels x is only known mod p^(n-i), and so is [b] when it
is computed with the exponent q^(n-1-i): a lift changed by p^j changes
its p-th power by p^(j+1).

The ring's Frobenius and trace also decide whether every place of a Witt
cover splits, through its ghost component (field._ghost_trace_is_zero).
The module carries the closed forms used on polynomials: the carry
polynomial psi(a, b) = (a^p + b^p - (a+b)^p)/p reduced mod p, and exact
length-2 Witt sums of polynomial pairs built from it.
"""

from __future__ import annotations

from .errors import BadParameters, ContextMismatch, LengthMismatch
from .field import FqPoly, _KronRing, _pack, _power, _power_rows, _unpack


class WittRing(_KronRing):
    """Arithmetic context for W_n(F_q) = GR(p^n, e), the ring mod
    (M~, p^n); caches the packed Frobenius images sigma(X^i)."""

    __slots__ = ("ctx", "n", "pn", "_frob")

    def __init__(self, ctx, n):
        if n < 1:
            raise BadParameters("Witt length must be at least 1")
        self.ctx = ctx
        self.n = n
        self.pn = ctx.p ** n
        self._init_ring(ctx.modulus, self.pn)
        x = _pack(ctx.gen.coeffs, self._red_rows[0])
        sigma_x = self.vec([c.frobenius() for c in WittVec(self, x).coords]).x
        self._frob = {0: _power_rows(x, ctx.e, self._mul)}
        self._frob[1 % ctx.e] = _power_rows(sigma_x, ctx.e, self._mul)

    def _frob_rows(self, k):
        """The rows of sigma^k, 0 <= k < e: powers of sigma(sigma^(k-1)(X))."""
        rows = self._frob.get(k)
        if rows is None:
            x = self._apply(self._frob_rows(k - 1)[1], self._frob[1])
            rows = self._frob[k] = _power_rows(x, self.ctx.e, self._mul)
        return rows

    def _teich(self, b, i=0):
        """[b] mod p^(n-i), packed, as lift(b)^(q^(n-1-i)) mod p^n."""
        return _power(_pack(b.coeffs, self._red_rows[0]),
                      self.ctx.q ** (self.n - 1 - i), self._mul)

    # -- public construction -------------------------------------------------

    def vec(self, coords):
        cs = [self.ctx.elem(c) for c in coords]
        if len(cs) != self.n:
            raise LengthMismatch(
                "expected %d coordinates, got %d" % (self.n, len(cs)))
        x = 0
        for i, a in enumerate(cs):
            # slots stay below (p^i + 1)(p^n - 1), inside the reducer's bound
            t = self._teich(a.frobenius(-i), i)
            x = self._reduce(x + self.ctx.p ** i * t)
        return WittVec(self, x)

    @property
    def zero(self):
        return WittVec(self, 0)

    @property
    def one(self):
        return WittVec(self, 1)

    def teichmueller(self, x):
        return WittVec(self, self._teich(self.ctx.elem(x)))

    def from_json(self, obj):
        return self.vec(obj)

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
    """Element of W_n(F_q): the Galois-ring element x, packed in the
    ring's slots, each below p^n, plus its ring."""

    __slots__ = ("ring", "x")

    def __init__(self, ring, x):
        self.ring = ring
        self.x = x

    @property
    def coords(self):
        """The Witt coordinates (a_0, ..., a_{n-1}), peeled digit by digit."""
        ring = self.ring
        ctx, p, pn = ring.ctx, ring.ctx.p, ring.pn
        unpack = lambda z: _unpack(z, ctx.e, ring._red_rows[0])
        x = unpack(self.x)
        out = []
        for i in range(ring.n):
            b = ctx.elem(x)
            out.append(b.frobenius(i))
            diff = [u - v for u, v in zip(x, unpack(ring._teich(b, i)))]
            assert all(d % p == 0 for d in diff), "Teichmueller digit not exact"
            x = [(d // p) % pn for d in diff]
        return tuple(out)

    def _check(self, other):
        if not isinstance(other, WittVec):
            raise ContextMismatch("expected a Witt vector")
        if other.ring.ctx is not self.ring.ctx:
            raise ContextMismatch("Witt vectors over different fields")
        if other.ring.n != self.ring.n:
            raise LengthMismatch("Witt vectors of different lengths")

    def __add__(self, other):
        self._check(other)
        ring = self.ring
        return WittVec(ring, ring._fix(self.x + other.x))

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        ring = self.ring
        return WittVec(ring, ring._fix(ring._pr - self.x))

    def __mul__(self, other):
        self._check(other)
        return WittVec(self.ring, self.ring._mul(self.x, other.x))

    def frobenius(self):
        ring = self.ring
        return WittVec(ring, ring._apply(self.x, ring._frob[1 % ring.ctx.e]))

    def is_zero(self):
        return not self.x

    def __bool__(self):
        return self.x != 0

    def __eq__(self, other):
        return (isinstance(other, WittVec)
                and self.ring == other.ring and self.x == other.x)

    def __hash__(self):
        return hash((self.ring.ctx.p, self.ring.ctx.e, self.ring.n, self.x))

    def to_json(self):
        return [c.to_json() for c in self.coords]

    def __repr__(self):
        return "WittVec(%s)" % ", ".join(repr(list(c.coeffs))
                                         for c in self.coords)


def witt_wp(u):
    """The Witt Artin-Schreier operator F(u) - u."""
    return u.frobenius() - u


def witt_trace(u):
    """Sum of F^i(u) for 0 <= i < e: the trace of GR(p^n, e) down to
    Z/p^n, so the result has W_n(F_p) coordinates."""
    acc = cur = u
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
