"""Witt vectors of finite length over F_q, stored as Galois-ring elements.

W_n(F_q) is the Galois ring GR(p^n, e) = (Z/p^n)[X] / (M_T(X)) over the
Teichmueller modulus M_T(Y) = prod_{j<e} (Y - T^(p^j)), the Hensel lift of
the field modulus m that divides X^q - X (Wan, Lectures on Finite Fields
and Galois Rings, ch. 14; Serre, Local Fields, II 4-6).  T is the
Teichmueller point of X over the coefficientwise lift M~ of m, so M_T = m
mod p, its coefficients are sigma-fixed and lie in Z/p^n, and X is itself
a Teichmueller element: X^q = X, and the Witt Frobenius sigma, the ring
automorphism with sigma([b]) = [b^p], maps X^i to X^(i p).  That is the
field's Frobenius, and _KronRing keeps it for both rings.

The vector (a_0, ..., a_{n-1}) is the ring element x = sum_i p^i
[a_i^(p^-i)], with the Teichmueller lift [b], the root of T^q = T over b,
taken as lift(b^(p^-k))^(p^k) mod p^(k+1): a lift changed by p^j changes
its p-th power by p^(j+1) (Serre, Local Fields, II 4).  So a WittVec
holds one packed int, its e coefficients mod p^n in Kronecker slots as
for field elements: sums are SWAR, a product is one Kronecker product
mod (M_T, p^n), and sigma is one Z/p^n-linear map on the slots.

The coordinates are read back by peeling Teichmueller digits: b = x mod p
is a_i^(p^-i), and x - [b] is exactly divisible by p because [b] reduces
to b.  After i peels x is only known mod p^(n-i), and so is [b] with
k = n - 1 - i.

The ghost component decides whether a place of a Witt cover splits, or
every place at once (field._ghost_trace_is_zero), with no lift at all.
The module carries the closed forms used on polynomials: the carry
polynomial psi(a, b) = (a^p + b^p - (a+b)^p)/p reduced mod p, and exact
length-2 Witt sums of polynomial pairs built from it.
"""

from __future__ import annotations

import functools

from .errors import BadParameters, ContextMismatch, LengthMismatch
from .field import FqPoly, _KronRing, _pack, _power, _unpack


class WittRing(_KronRing):
    """Arithmetic context for W_n(F_q) = GR(p^n, e), the ring mod
    (M_T, p^n).  Built over M~ first, for the Teichmueller point T of X
    and the e products of (Y - T^(p^j)); about (n + e) log2 p + e^2
    products in all."""

    __slots__ = ("ctx", "n", "pn")

    def __init__(self, ctx, n):
        if n < 1:
            raise BadParameters("Witt length must be at least 1")
        self.ctx, self.n, self.pn = ctx, n, ctx.p ** n
        self._init_ring(ctx.p, ctx.modulus, self.pn)
        mul, bits, t = self._mul, self._red_rows[0], self._teich(ctx.gen)
        m = [1]  # M_T, constant first, times Y - T^(p^j) for each j < e
        for _ in range(ctx.e):
            m = [self._fix(a + self._pr - mul(t, b))
                 for a, b in zip([0] + m, m + [0])]
            t = _power(t, ctx.p, mul)
        assert all(c >> bits == 0 for c in m), "M_T not over Z/p^n"
        self._init_ring(ctx.p, m, self.pn)

    def _teich(self, b, i=0):
        """[b] mod p^(n-i), packed: lift(b^(p^-k))^(p^k), k = n - 1 - i."""
        k = self.n - 1 - i
        return _power(_pack(b.frobenius(-k).coeffs, self._red_rows[0]),
                      self.p ** k, self._mul)

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

    def from_json(self, obj):
        return self.vec(obj)

    def __repr__(self):
        return "WittRing(W_%d over F_%d^%d)" % (self.n, self.ctx.p, self.ctx.e)


_ring = functools.cache(WittRing)


def witt_ring(ctx, n):
    """The one W_n(F_q) over ctx, so rings compare by identity."""
    return _ring(ctx, n)


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
        return WittVec(ring, ring._apply(self.x, ring._frob_rows(1 % ring.e)))

    def is_zero(self):
        return not self.x

    def __bool__(self):
        return self.x != 0

    def __eq__(self, other):
        return (isinstance(other, WittVec)
                and self.ring is other.ring and self.x == other.x)

    def __hash__(self):
        return hash((self.ring.ctx.p, self.ring.ctx.e, self.ring.n, self.x))

    def to_json(self):
        return [c.to_json() for c in self.coords]

    def __repr__(self):
        return "WittVec(%s)" % ", ".join(repr(list(c.coeffs))
                                         for c in self.coords)


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
