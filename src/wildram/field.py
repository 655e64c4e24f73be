"""Exact arithmetic in F_{p^e} behind a canonical, reproducible modulus.

Everything else in the workbench stores its scalars as FqElem values tied
to a FieldCtx, so this module fixes the conventions once:

* the modulus for F_{p^e} is the lexicographically least monic irreducible
  polynomial of degree e over F_p, comparing coefficient tuples
  (c_0, ..., c_{e-1}) from the constant term upward, with the single
  exception e = 1 where the modulus is X itself;
* an element is one int holding c_i in its b-bit slot i (the Kronecker
  slots below), every slot below p; FqElem.coeffs reads the tuple back;
* "least" element always means least coefficient tuple under the same
  lexicographic order, never least packed int.

Those three rules make every serialized object stable across runs and
machines, which the reproduction commands rely on.

Sums are SWAR: all slots at once, then p comes off each slot that reached
it (_fix).  Products take one of two integer paths.  Fields with
e >= 2 and q <= TABLE_LIMIT (2^12, so no table outgrows about 1 MB) keep
log/antilog tables keyed by the packed int, built on first use, and
multiply, power, invert and apply Frobenius by index arithmetic mod
q - 1.  Every other product is one Kronecker substitution and a Barrett
fold (_kron_fold; also the Witt lift ring's product mod r = p^n): 2^b >
e(r - 1)^2 + (e - 1)^3 (r - 1)^4 bounds every slot, so none carries, and
_slot_reducer then takes every slot mod r.

Linear algebra over F_p runs on packed rows, entry i in slot i as an
element packs c_i, so no result has a word size: _echelon is the one row
reduction, and every matrix of the powers of one element is _power_rows
on the Kronecker product.  That covers Frobenius (applied to a packed
element as one row sum, _apply): _KronRing._frob_rows, the powers of
X^(p^k), serves F_q and the Witt ring alike, whose X is a Teichmueller
element (witt.py), and so is the Witt Frobenius; the modulus scan runs
Rabin's test on those rows.

Polynomials are the sparse FqPoly, whose division and modular powers
run the root finding behind subfield embeddings, equal-degree splitting
inside the subfield that holds the roots; additive polynomials are
additive.AdditiveOp.  Every FqPoly result is built from packed terms
(exponent, int) by _packed_poly, which alone makes FqElem objects:
sums gather per exponent (_sum_terms), products too with a factor 1
passed through (_mul_terms; _square_terms takes each pair of terms of a
square once), division reduces such a dict, and Frobenius (p-th powers
and roots, the p^j-th powers of g behind g^k) applies to the int.
embed_poly keeps its last result (_memo_last, as additive keeps its shift
plans), so evaluating one f at many points of one field embeds f once.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import sys

from .errors import (
    BadParameters,
    ContextMismatch,
    DegreeOutOfRange,
    NonPrime,
    NotASubfieldDegree,
    ResourceLimit,
)

PUBLIC_DEGREE_CAP = 16
TABLE_LIMIT = 2 ** 12
_INTERNAL_DEGREE_CAP = 128
# An input fence, not an arithmetic limit: _field refuses
# e (p - 1)^2 >= 2^63 before Miller-Rabin, which keeps library callers
# well inside _is_prime's proven range (p < 2^32 here).
_INPUT_BOUND = 2 ** 63
_new = object.__new__  # the trusted constructors skip __init__


def _is_prime(n):
    """Miller-Rabin with the prime bases up to 37: exact for
    n < 3.18 * 10^23, which covers every p the workbench accepts."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in bases:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# linear algebra mod p (packed rows)
#
# A matrix is a list of rows and acts on row vectors, so the matrix of a
# map on F_p[X]/(f) has the image of X^i as its row i.  A row is one int
# with entry i in its slot i, as an element packs c_i.


def _echelon(rows, n, ctx, m=0):
    """Row reduction mod p of rows of n + m entries packed as ctx packs,
    pivots in the first n and m tags above that ride along.  Each row is
    reduced by the rows kept before it and kept, scaled to pivot 1, if
    anything is left.  Returns the kept (pivot, row) pairs, with the
    pivots of the reduced echelon form and, at the largest, its last row,
    and the tags of the rows that reduced to zero.  The work runs at
    width 2 bitlen(p (p - 1)), twice what a slot holds between
    reductions, so that _slot_reducer takes every slot at once."""
    p, bits, top = ctx.p, ctx._red_rows[0], ctx.p * (ctx.p - 1)
    w = 2 * top.bit_length()
    k, slot, low = n + m, ~(-1 << w), ~(-1 << n * w)
    reduce, kept, zeros = _slot_reducer(p, k, w, top), [], []
    for row in rows:
        row = _pack(_unpack(row, k, bits), w)
        for c, r in kept:
            a = row >> c * w & slot
            if a:
                row = reduce(row + (p - a) * r)
        lead = row & low
        if lead:
            c = ((lead & -lead).bit_length() - 1) // w
            kept.append((c, reduce(row * pow(row >> c * w & slot, -1, p))))
        else:
            zeros.append(_pack(_unpack(row >> n * w, m, w), bits))
    return [(c, _pack(_unpack(r, k, w), bits)) for c, r in kept], zeros


def _is_irreducible(f, p):
    """Rabin's test (SIAM J. Comput. 9, 1980): f of degree e is
    irreducible iff X^(p^e) = X mod f and gcd(X^(p^(e/l)) - X, f) = 1 for
    every prime l | e.  The powers X^(p^k) are e packed Frobenius steps,
    and the first test turns most candidates away.  Past it, F_p[X]/(f) is
    a product of fields F_(p^d), d | e, so the gcds are 1 iff the product
    h of the X^(p^(e/l)) - X is a unit there: iff h^(p^e - 1) = 1."""
    e = len(f) - 1
    if e == 1:
        return True
    ring = FieldCtx(p, e, f)  # F_p[X]/(f), a field when f is irreducible
    powers = [ring.gen.v]  # X^(p^k) for k = 0, ..., e
    for _ in range(e):
        powers.append(ring._apply(powers[-1], ring._frob_rows(1)))
    if powers[e] != powers[0]:
        return False
    h = functools.reduce(ring._mul, [
        ring._fix(powers[e // ell] + ring._pr - powers[0])
        for ell in range(2, e + 1) if e % ell == 0 and _is_prime(ell)])
    return _power(h, ring.q - 1, ring._mul) == 1


def _least_irreducible(p, e):
    if e == 1:
        return (0, 1)
    # candidates: the base-p digits, c_0 first, of successive integers
    # from p^(e-1) (c_0 = 0 would make X a factor); a root x < 16, by
    # Horner from the top, turns most away cheaper than e Frobenius steps
    points = range(1, min(p, 16))
    for n in range(p ** (e - 1), p ** e):
        cand = [1]
        for _ in range(e):
            n, c = divmod(n, p)
            cand.append(c)
        if not any(functools.reduce(lambda a, c: a * x + c, cand) % p == 0
                   for x in points) and _is_irreducible(cand[::-1], p):
            return tuple(reversed(cand))
    raise AssertionError("irreducible polynomial exists for every degree")


_SLOT_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # one cast per width


def _fold_bound(e, r):
    """The largest slot of _kron_fold: convolution, then quotient by f."""
    return e * (r - 1) ** 2 + (e - 1) ** 3 * (r - 1) ** 4


def _reduction_rows(f, r):
    """(b, e b, (e - 2) b, mask of e slots, mu, -(f - X^e)) for _kron_fold,
    mu = X^(2e-2) div f; both rows mod r (p, or p^n for Witt vectors) and
    packed.  2^b > _fold_bound, so no slot carries; a byte width b, taken
    when it at most doubles b, lets _unpack read all slots in one cast."""
    e = len(f) - 1
    bits = _fold_bound(e, r).bit_length()
    bits = next((w for w in _SLOT_FORMATS if bits <= w <= 2 * bits), bits)
    # mu's digits, top first, are those of 1 / (X^e f(1/X)) as a power
    # series: each is one dot product with the digits before it
    top, mu = f[e - 1::-1], []
    for j in range(e - 1):
        mu.append(((j == 0) - sum(map(operator.mul, top, reversed(mu)))) % r)
    return (bits, e * bits, max(e - 2, 0) * bits, (1 << e * bits) - 1,
            _pack(mu[::-1], bits), _pack([-c % r for c in f[:e]], bits))


def _pack(v, bits):
    x = 0
    for c in reversed(v):
        x = (x << bits) | c
    return x


def _unpack(z, e, bits):
    """The e b-bit slots of z, c_0 first; one cast at byte widths."""
    fmt = _SLOT_FORMATS.get(bits)
    if fmt:
        return memoryview(z.to_bytes(e * bits >> 3, sys.byteorder)).cast(fmt)
    return [(z >> s) & ~(-1 << bits) for s in range(0, e * bits, bits)]


def _kron_fold(z, rows):
    """z, a product of two packed length-e vectors, folded below X^e mod f
    by Barrett's quotient, rows = _reduction_rows(f, r): for z = hi X^e +
    lo and monic f, Q = hi mu div X^(e-2) is z div f and z mod f = lo - (Q
    (f - X^e) below X^e).  No slot carries, so over Z it agrees mod r."""
    _, top, shift, low, mu, f_neg = rows
    return (z & low) + ((((z >> top) * mu) >> shift) * f_neg & low)


@functools.lru_cache(maxsize=256)  # alike for every modulus-scan candidate
def _slot_reducer(r, e, bits, top):
    """z -> z with each of its e b-bit slots, at most top, taken mod r (p,
    or p^n for Witt vectors).  A power of 2 is one AND.  Else, 2^h = 1 mod
    r, folds v -> (v >> k) + (v mod 2^k), k in h, 2h, ... leaving the least
    bound, shrink the slots till one division fits: v div r = (v m) >> s,
    m = ceil(2^s / r), exact while v (m r - 2^s) < 2^s.  An r whose order
    h is long against b (19, 25, 27, 125, ...) goes slot by slot."""
    ones = _pack((1,) * e, bits)
    if r & (r - 1) == 0 or e == 1:
        return ((r - 1) * ones).__and__ if r & (r - 1) == 0 else r.__rmod__
    h, v, folds = 1, 2, []  # h: the order of 2 mod r, or bits if longer
    while v != 1 and h < bits:
        h, v = h + 1, 2 * v % r
    while True:
        # c = m r - 2^s = -2^s mod r is 1 to r - 1: 2^s > top r will do
        s, c = top.bit_length(), -(1 << top.bit_length()) % r
        while top * c >= 1 << s:
            s, c = s + 1, 2 * c % r
        m = ((1 << s) + c) // r
        if top * m < 1 << bits:
            break
        k = min(range(h, bits, h), default=0,
                key=lambda k: (top >> k) + (1 << k))
        if not k or (top >> k) + (1 << k) - 1 >= top:
            return lambda z: _pack([v % r for v in _unpack(z, e, bits)], bits)
        top = (top >> k) + (1 << k) - 1
        folds.append((((1 << k) - 1) * ones, k))
    quot = ((1 << (bits - s)) - 1) * ones

    def reduce(z):
        for low, k in folds:
            lo = z & low
            z = lo + ((z ^ lo) >> k)
        return z - ((z * m >> s) & quot) * r
    return reduce


def _power(x, k, mul):
    """x^k for k >= 0, left-to-right square-and-multiply on mul, so that
    every multiply takes x itself (cheap for a sparse x): packed elements,
    or polynomials under a product mod m.  k = 0 gives the int 1."""
    result = x if k else 1
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def _power_rows(x, n, mul):
    """[1, x, ..., x^(n-1)] for a packed x under mul: for x = X^(p^k), the
    rows of g(X) -> g(x), applied as sum(v_i * row_i) for slots v_i < r."""
    return tuple(itertools.accumulate(itertools.repeat(x, n - 1), mul,
                                      initial=1))


class _KronRing:
    """Z/r[X]/(f) on ints packed in the Kronecker slots, for f monic of
    degree e with X a root of T^q = T, q = p^e: the slot reductions, the
    SWAR fix-up, the product and the Frobenius that FieldCtx (r = p) and
    witt.WittRing (r = p^n) share.  sigma(X) = X^p there, so sigma^k maps
    X^i to X^(i p^k) and is fixed by those images (_frob_rows)."""

    __slots__ = ("p", "e", "_frob", "_red_rows", "_reduce", "_reduce_fold",
                 "_fix", "_pr")

    def _init_ring(self, p, f, r):
        self.p, self.e, self._frob = p, len(f) - 1, {}
        self._red_rows = _reduction_rows(f, r)
        bits, e = self._red_rows[0], self.e
        ones = _pack((1,) * e, bits)
        # _reduce covers a row sum, e (r - 1)^2, _reduce_fold a product
        self._reduce = _slot_reducer(r, e, bits, e * (r - 1) ** 2)
        self._reduce_fold = _slot_reducer(r, e, bits, _fold_bound(e, r))
        # sums stay below 2r - 1 < 2^t + r: bit t of slot + 2^t - r flags r
        t = (r - 1).bit_length()
        k, hi = ((1 << t) - r) * ones, ones << t
        self._fix = lambda z: z - (((z + k) & hi) >> t) * r
        self._pr = r * ones

    def _frob_rows(self, k):
        """The rows of sigma^k, 0 <= k < e, cached and packed in the
        product's b-bit slots: the powers of X^(p^k) (X is 0 when f = X)."""
        rows = self._frob.get(k)
        if rows is None:
            x = (self.e >= 2) << self._red_rows[0]
            xk = _power(x, self.p ** k, self._mul)
            rows = self._frob[k] = _power_rows(xk, self.e, self._mul)
        return rows

    def _mul(self, x, y):
        """Product of two packed elements, by Kronecker substitution."""
        return self._reduce_fold(_kron_fold(x * y, self._red_rows))

    def _apply(self, v, rows):
        """sum v_i rows_i over the slots of packed v: the ring map with
        rows[i] the image of X^i (a Frobenius, from _power_rows).  e
        (r - 1)^2 < 2^b, so no slot carries."""
        c = _unpack(v, len(rows), self._red_rows[0])
        return self._reduce(sum(map(operator.mul, c, rows)))

    def _log_tables(self):  # none: products go through _mul
        return None


# ---------------------------------------------------------------------------
# contexts

_CTX_CACHE = {}


class FieldCtx(_KronRing):
    """Arithmetic context for F_{p^e} = F_p[X] / (modulus).

    Build instances through make_field or extension_field; both cache by
    (p, e), so element operations may compare contexts by identity.
    """

    __slots__ = ("q", "modulus", "zero", "one", "gen", "_tables")

    def __init__(self, p, e, modulus):
        self.q, self.modulus, self._tables = p ** e, tuple(modulus), None
        self._init_ring(p, self.modulus, p)
        self.zero, self.one = _elem(self, 0), _elem(self, 1)
        self.gen = _elem(self, (e >= 2) << self._red_rows[0])  # X; 0 at e = 1

    def elem(self, value):
        """Coerce an int or a coefficient sequence into this field."""
        if isinstance(value, FqElem):
            if value.ctx is not self:
                raise ContextMismatch("element from a different context")
            return value
        if isinstance(value, int):
            return _elem(self, value % self.p)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.e:
            raise BadParameters(
                "coefficient sequence longer than the extension degree")
        return FqElem(self, coeffs)

    def elements(self):
        """All q elements, least coefficient tuple first."""
        for coeffs in itertools.product(range(self.p), repeat=self.e):
            yield FqElem(self, coeffs)

    def _linear_rows(self, pairs):
        """Rows, as in _frob_rows, of x -> sum c x^(p^j) over the pairs
        (packed c != 0, j), each reduced so that one _apply evaluates it."""
        mul, rows = _mul_fn(self), [0] * self.e
        for c, j in pairs:
            for i, r in enumerate(self._frob_rows(j % self.e)):
                rows[i] = self._fix(rows[i] + mul(c, r))
        return rows

    def _log_tables(self):
        """(log dict keyed by the packed int, antilog list of length
        2(q - 1)) of the least primitive element, found from the prime
        factors of q - 1; None for fields that keep no tables."""
        if self.e == 1 or self.q > TABLE_LIMIT:
            return None
        if self._tables is None:
            n = self.q - 1
            ells = [ell for ell in range(2, n + 1)
                    if n % ell == 0 and _is_prime(ell)]
            g = next(g for g in self.elements() if g and all(
                _power(g.v, n // ell, self._mul) != 1 for ell in ells))
            exp = [self.one]
            for _ in range(n - 1):
                exp.append(_elem(self, self._mul(exp[-1].v, g.v)))
            self._tables = ({x.v: i for i, x in enumerate(exp)}, exp + exp)
        return self._tables

    def to_json(self):
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.e, self.modulus)
                == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return "FieldCtx(p=%d, e=%d)" % (self.p, self.e)


def _field(p, e):
    if not isinstance(p, int) or p < 2:
        raise NonPrime("p must be a prime integer, got %r" % (p,))
    if not isinstance(e, int) or e < 1:
        raise DegreeOutOfRange("extension degree must be a positive integer")
    if e > _INTERNAL_DEGREE_CAP:
        raise ResourceLimit(
            "extension degree %d exceeds the internal cap %d"
            % (e, _INTERNAL_DEGREE_CAP))
    if e * (p - 1) ** 2 >= _INPUT_BOUND:
        raise ResourceLimit(
            "F_%d^%d: e (p - 1)^2 >= 2^63 is past the input fence that keeps "
            "p inside the proven range of the primality test" % (p, e))
    if not _is_prime(p):
        raise NonPrime("p must be a prime integer, got %r" % (p,))
    key = (p, e)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, e, _least_irreducible(p, e))
        _CTX_CACHE[key] = ctx
    return ctx


def make_field(p, e=1):
    """Canonical context for F_{p^e}, 1 <= e <= PUBLIC_DEGREE_CAP."""
    if isinstance(e, int) and e > PUBLIC_DEGREE_CAP:
        raise DegreeOutOfRange(
            "degree %d is above the supported cap %d" % (e, PUBLIC_DEGREE_CAP))
    return _field(p, e)


def extension_field(p, e):
    """Like make_field but without the public degree cap.

    Splitting-field searches occasionally need degrees well past what the
    public constructor allows; they go through here and accept the cost.
    """
    return _field(p, e)


def field_from_json(obj):
    if not isinstance(obj, dict):
        raise TypeError("field must be an object, not %s" % type(obj).__name__)
    mod = obj.get("modulus")
    p, e, *_ = _check_integral([obj["p"], obj["e"]] + list(mod or []))
    ctx = make_field(p, e)
    if mod is not None and tuple(int(c) for c in mod) != ctx.modulus:
        raise BadParameters(
            "modulus %r is not the canonical choice for p=%d, e=%d"
            % (mod, ctx.p, ctx.e))
    return ctx


# ---------------------------------------------------------------------------
# elements

class FqElem:
    """Immutable element of a FieldCtx: v packs the reduced coefficient
    tuple given to the constructor in the ctx's slots, c_0 lowest."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx, coeffs):
        self.ctx, self.v = ctx, _pack(coeffs, ctx._red_rows[0])

    @property
    def coeffs(self):
        return tuple(_unpack(self.v, self.ctx.e, self.ctx._red_rows[0]))

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.ctx is not self.ctx:
                raise ContextMismatch("mixed field contexts in arithmetic")
            return other
        if isinstance(other, int):
            return self.ctx.elem(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        return _elem(ctx, ctx._fix(self.v + other.v))

    __radd__ = __add__

    def __neg__(self):
        ctx = self.ctx
        return _elem(ctx, ctx._fix(ctx._pr - self.v))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        return _elem(ctx, ctx._fix(self.v + ctx._pr - other.v))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        tables = ctx._log_tables()
        if tables is None:
            return _elem(ctx, ctx._mul(self.v, other.v))
        i, j = tables[0].get(self.v), tables[0].get(other.v)
        if i is None or j is None:
            return ctx.zero
        return tables[1][i + j]

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        ctx = self.ctx
        tables = ctx._log_tables()
        i = tables and tables[0].get(self.v)
        if i is not None:
            return tables[1][i * k % (ctx.q - 1)]
        if k < 0:
            return self.inverse() ** (-k)
        return _elem(ctx, _power(self.v, k, ctx._mul))

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.ctx.q - 2)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def frobenius(self, k=1):
        """x -> x^(p^k)."""
        ctx = self.ctx
        k %= ctx.e
        if k == 0:
            return self
        tables = ctx._log_tables()
        i = tables and tables[0].get(self.v)
        if i is not None:
            return tables[1][i * pow(ctx.p, k, ctx.q - 1) % (ctx.q - 1)]
        return _elem(ctx, ctx._apply(self.v, ctx._frob_rows(k)))

    def is_zero(self):
        return not self.v

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ctx.elem(other)
        return (isinstance(other, FqElem)
                and self.ctx is other.ctx
                and self.v == other.v)

    def __hash__(self):
        return hash((self.v, self.ctx.p, self.ctx.e))

    def to_json(self):
        return list(self.coeffs)

    def __repr__(self):
        return "FqElem(%r in F_%d^%d)" % (list(self.coeffs),
                                          self.ctx.p, self.ctx.e)


def _elem(ctx, v):
    """The trusted FqElem constructor: v is already packed and reduced."""
    x = _new(FqElem)
    x.ctx, x.v = ctx, v
    return x


def frobenius_trace(x, d=1):
    """Trace of x from F_{p^e} down to the subfield F_{p^d}, d | e."""
    if d < 1 or x.ctx.e % d:
        raise NotASubfieldDegree("trace target degree %d does not divide %d"
                                 % (d, x.ctx.e))
    return _elem(x.ctx, _trace(x.ctx, x.v, d))


def _trace(ring, c, d):
    """Tr of the packed c down to degree d | e: sum of sigma^(d i)(c)."""
    rows, acc = ring._frob_rows(d % ring.e), c
    for _ in range(ring.e // d - 1):
        c = ring._apply(c, rows)
        acc = ring._fix(acc + c)
    return acc


def _check_integral(values):
    """The values read from JSON as ints; ValueError unless each is an
    integer, which int() and ctx.elem would otherwise truncate (1.5
    passing as 1), and not a boolean (true passing as 1)."""
    for v in values:
        if isinstance(v, bool) or int(v) != v:
            raise ValueError("%r is not an integer" % (v,))
    return [int(v) for v in values]


def elem_from_json(ctx, obj):
    """ctx.elem of a JSON coefficient list or integer, refusing
    non-integral entries."""
    _check_integral(obj if isinstance(obj, list) else [obj])
    return ctx.elem(obj)


# ---------------------------------------------------------------------------
# whether every place of a Witt cover splits: the ghost component
#
# Over F_q (n = 1) or GR(p^n, e) = W_n(F_q) (witt.py) let sigma be the
# Frobenius, Tr the trace down to Z/p^n and T = [x] run over the q
# Teichmueller points.  The place x of V(y) = (f_0, ..., f_{n-1}) splits
# when the Witt trace of (f_0(x), ...), the ring trace of
# sum_i p^i [f_i(x)^(p^-i)], vanishes.  Tr is sigma-invariant and
# lift(f_i)(T)^(p^m) = [f_i(x)]^(p^m) mod p^(m+1), so that trace is Tr(P(T))
# for the ghost component P = sum_i p^i lift(f_i)^(p^(n-1-i)).  T^q = T, so
# an exponent k >= 1 acts as ((k - 1) mod (q - 1)) + 1.  On 1..q - 1 the
# p-cyclotomic cosets of u -> ((u p - 1) mod (q - 1)) + 1 each have a least
# member v, the leader, of size f_v dividing e.  If u p^s = v then
# T^v = sigma^s(T^u) and Tr(c T^u) = Tr(sigma^s(c) T^v), so the trace of P
# gathers into C_v = sum of those sigma^s(c_u):
#
#     Tr(P(T)) = 0 at every T  <=>  Tr(c_0) = 0 and
#                                   Tr_{e/f_v}(C_v) = 0 for every v:
#
# sigma^f_v fixes T^v, so Tr(C T^v) = Tr_{f_v}(T^v Tr_{e/f_v}(C)), and the
# T^(v p^s), s < f_v, over all leaders are distinct powers below q, so
# independent functions: the Teichmueller Vandermonde is a unit, as
# [x] - [y] reduces to x - y (Lidl and Niederreiter, Finite Fields, ch. 2).


def cyclotomic_coset(u, p, n):
    """The coset of u in 1..n under u -> ((u p - 1) mod n) + 1, in walk
    order u, u p, u p^2, ...: the p-cyclotomic coset of u mod n, with n
    standing for 0 (p prime to n)."""
    coset = [u]
    w = (u * p - 1) % n + 1
    while w != u:
        coset.append(w)
        w = (w * p - 1) % n + 1
    return coset


def _ghost_trace_is_zero(ctx, ring, coords):
    """Whether every place of V(y) = (f_0, ..., f_{n-1}), coords over ctx,
    splits, by the ghost component over ring (ctx at n = 1, else
    witt.witt_ring(ctx, n)).  The p-th powers are _power on term lists,
    folded after every product so none outgrows q terms."""
    p, n, bits = ctx.p, ctx.q - 1, ring._red_rows[0]

    def fold(pairs):
        acc = _sum_terms(ring, [((k - 1) % n + 1 if k else 0, c)
                                for k, c in pairs])
        return [t for t in acc.items() if t[1]]

    def mul(a, b):
        return fold((_square_terms(ring, a) if a is b
                     else _mul_terms(ring, a, b, {})).items())

    sums = {}  # leader v -> [f_v, C_v]; the constant is v = 0, f = 1
    for i, f in enumerate(coords):
        g = fold((k, _pack(c.coeffs, bits)) for k, c in f.terms)
        for _ in range(len(coords) - 1 - i if g else 0):
            g = _power(g, p, mul)
        for k, c in g:
            size, c = 1, ring._reduce(c * p ** i)
            if k:
                walk = cyclotomic_coset(k, p, n)
                s = walk.index(min(walk))
                k, size = walk[s], len(walk)
                c = ring._apply(c, ring._frob_rows(s))
            part = sums.setdefault(k, [size, 0])
            part[1] = ring._fix(part[1] + c)
    return not any(_trace(ring, c, size) for size, c in sums.values())


# ---------------------------------------------------------------------------
# sparse polynomials over one context

class FqPoly:
    """Immutable sparse polynomial: sorted tuple of (exponent, FqElem)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=()):
        self.ctx, self.terms = ctx, _packed_poly(ctx, _sum_terms(
            ctx, [(k, ctx.elem(c).v) for k, c in terms])).terms

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def x(cls, ctx):
        return cls(ctx, ((1, ctx.one),))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    def coeff(self, exp):
        return dict(self.terms).get(exp, self.ctx.zero)

    def _check(self, other):
        if other.ctx is not self.ctx:
            raise ContextMismatch("polynomials over different contexts")

    def __add__(self, other, neg=False):
        """self + other, or self - other: -c is p - c in every slot."""
        if not isinstance(other, FqPoly):
            return NotImplemented
        self._check(other)
        pr = self.ctx._pr
        return _packed_poly(self.ctx, _sum_terms(self.ctx, _packed(self) + [
            (k, pr - c.v if neg else c.v) for k, c in other.terms]))

    def __sub__(self, other):
        return self.__add__(other, True)

    def __neg__(self):
        return self.zero(self.ctx) - self

    def __mul__(self, other):
        ctx = self.ctx
        if other is self:  # a square takes each pair of terms once
            return _packed_poly(ctx, _square_terms(ctx, _packed(self),
                                                   ctx.p == 2))
        if isinstance(other, (FqElem, int)):
            c = ctx.elem(other).v
            other = [(0, c)] if c else []
        elif isinstance(other, FqPoly):
            self._check(other)
            other = _packed(other)
        else:
            return NotImplemented
        return _packed_poly(ctx, _mul_terms(ctx, _packed(self), other, {}))

    __rmul__ = __mul__

    def pth_power(self, k=1):
        """Freshman power: coefficients to the p^k, exponents times p^k."""
        ctx, step = self.ctx, self.ctx.p ** k
        rows = ctx._frob_rows(k % ctx.e)
        return _packed_poly(ctx, {exp * step: ctx._apply(v, rows)
                                  for exp, v in _packed(self)})

    def __pow__(self, k, modulo=None):
        """self**k, or pow(self, k, modulo) reduced after every product."""
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        ctx = self.ctx
        if modulo is None:
            return _packed_poly(ctx, dict(_pow_terms(ctx, k, [_packed(self)])))
        divide, one = _divider(self, modulo), [(0, 1)]

        def mulmod(a, b):
            acc = (_square_terms(ctx, a, ctx.p == 2) if a is b
                   else _mul_terms(ctx, a, b, {}))
            divide(acc)
            return [t for t in acc.items() if t[1]]
        # square-and-multiply: base-p digits would cost d(p - 1)/2
        # products at the splitting exponent (p^d - 1)/2 of _one_root
        x = mulmod(one, _packed(self) if k else one)
        return _packed_poly(ctx, dict(_power(x, k, mulmod) if k else x))

    def __divmod__(self, other):
        """(quotient, remainder) with deg remainder < deg other."""
        rem = dict(_packed(self))
        quot = _divider(self, other)(rem)
        return _packed_poly(self.ctx, quot), _packed_poly(self.ctx, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def evaluate(self, x):
        """Value at a field element; coefficients embed upward if x lives
        in an extension of this polynomial's field."""
        if isinstance(x, FqElem) and x.ctx is not self.ctx:
            if x.ctx.p != self.ctx.p or x.ctx.e % self.ctx.e:
                raise ContextMismatch(
                    "cannot evaluate over an unrelated context")
            return embed_poly(self, x.ctx).evaluate(x)
        x = self.ctx.elem(x)
        return sum((c * x ** exp for exp, c in self.terms), self.ctx.zero)

    def compose(self, g):
        """Substitution self(g(X))."""
        if not isinstance(g, FqPoly):
            raise ContextMismatch("compose expects a polynomial")
        self._check(g)
        ctx, powers, acc = self.ctx, [_packed(g)], {}
        for exp, c in self.terms:
            _mul_terms(ctx, [(0, c.v)], _pow_terms(ctx, exp, powers), acc)
        return _packed_poly(ctx, acc)

    def to_json(self):
        return [[exp, c.to_json()] for exp, c in self.terms]

    @classmethod
    def from_json(cls, ctx, obj):
        terms = []
        for exp, c in obj:
            if isinstance(exp, bool) or int(exp) != exp or exp < 0:
                raise ValueError(
                    "exponent %r is not a nonnegative integer" % (exp,))
            terms.append((int(exp), elem_from_json(ctx, c)))
        return cls(ctx, terms)

    def __eq__(self, other):
        return (isinstance(other, FqPoly)
                and self.ctx is other.ctx
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.e, tuple(_packed(self))))

    def __repr__(self):
        bits = ["%r*X^%d" % (list(c.coeffs), k) for k, c in self.terms[::-1]]
        return "FqPoly(%s)" % (" + ".join(bits) or "0")


def _packed_poly(ctx, acc):
    """The FqPoly of a dict {exponent: packed element}, zeros dropped: the
    one constructor of results, and the one maker of their FqElems."""
    f = _new(FqPoly)
    f.ctx, f.terms = ctx, tuple([(k, _elem(ctx, v))
                                 for k, v in sorted(acc.items()) if v])
    return f


def _packed(f):
    return [(k, c.v) for k, c in f.terms]


def _sum_terms(ring, pairs):
    """{exponent: packed sum} of the packed (exponent, int) pairs, whose
    slots, at most r (r - c for -c), keep every sum in reach of _fix."""
    acc, fix = {}, ring._fix
    for k, v in pairs:
        acc[k] = fix(acc.get(k, 0) + v)
    return acc


def _divider(f, g):
    """rem -> quotient, long division of a packed {exponent: int} rem by
    g, which leaves rem in place below deg g (zeros may stay).  The lead's
    inverse, a (q - 2)-th power in Kronecker fields, is taken once, here,
    and not for a monic g."""
    if not isinstance(g, FqPoly):
        raise TypeError("polynomial division by %s" % type(g).__name__)
    f._check(g)
    if not g.terms:
        raise ZeroDivisionError("polynomial division by zero")
    ctx, mul, (*low, (db, lead)) = f.ctx, _mul_fn(f.ctx), _packed(g)
    inv = 1 if lead == 1 else g.terms[-1][1].inverse().v

    def divide(rem):
        quot = {}
        for shift in range(max(rem, default=0) - db, -1, -1):
            c = rem.pop(shift + db, 0)
            if c:
                c = quot[shift] = c if inv == 1 else mul(c, inv)
                _mul_terms(ctx, [(shift, ctx._fix(ctx._pr - c))], low, rem)
        return quot
    return divide


def _mul_fn(ctx):
    """The product of nonzero packed elements, by log tables if any."""
    tables = ctx._log_tables()
    return ctx._mul if tables is None else (
        lambda x, y, log=tables[0], exp=tables[1]: exp[log[x] + log[y]].v)


def _mul_terms(ctx, xs, ys, acc):
    """Add the products of the nonzero packed terms xs and ys into acc,
    {exponent: packed sum}, and return it.  A factor 1 passes the other
    through."""
    mul, fix, get = _mul_fn(ctx), ctx._fix, acc.get
    for i, x in xs:
        for j, y in ys:
            z = y if x == 1 else x if y == 1 else mul(x, y)
            prev = get(i + j)
            acc[i + j] = z if prev is None else fix(prev + z)
    return acc


def _square_terms(ring, xs, char2=False):
    """{exponent: packed sum} of the square of the nonzero packed terms
    xs, as _mul_terms(ring, xs, xs, {}) gives, in n(n+1)/2 products for n
    terms: each x_i x_j, i < j, once and doubled.  char2 (a field of
    characteristic 2, where they vanish) drops those: n products."""
    acc = {}
    for a, t in enumerate(() if char2 else xs):
        _mul_terms(ring, [t], xs[a + 1:], acc)
    acc = {k: ring._fix(v + v) for k, v in acc.items()}
    for t in xs:
        _mul_terms(ring, [t], [t], acc)
    return acc


def _pow_terms(ctx, k, powers):
    """Packed terms of g^k from the base-p digits of k; powers[j] holds
    those of g^(p^j), shared between calls and extended by Frobenius."""
    result, j, rows = [(0, 1)], 0, ctx._frob_rows(1 % ctx.e)
    while k:
        k, d = divmod(k, ctx.p)
        if j == len(powers):
            powers.append([(i * ctx.p, v if v == 1 else ctx._apply(v, rows))
                           for i, v in powers[-1]])
        for _ in range(d):
            acc = _mul_terms(ctx, result, powers[j], {})
            result = [t for t in acc.items() if t[1]]
        j += 1
    return result


def reduce_pth_powers(f):
    """Strip p-th power monomials from f.

    Returns (reduced, constant, witness) with

        f = reduced + constant + witness^p - witness,

    where reduced has no constant term and no term whose exponent is a
    positive multiple of p.  The rewrite rule is a*X^(ip) -> a^(1/p)*X^i,
    applied until it stabilizes; the witness collects the replacement
    terms so callers can audit the identity.  The rule is linear, so each
    term runs it on its own.
    """
    ctx, constant = f.ctx, f.coeff(0)
    rows, reduced, witness = ctx._frob_rows(ctx.e - 1), {}, {}
    for exp, v in _packed(f)[bool(constant):]:
        while exp % ctx.p == 0:
            exp, v = exp // ctx.p, ctx._apply(v, rows)
            witness[exp] = ctx._fix(witness.get(exp, 0) + v)
        reduced[exp] = ctx._fix(reduced.get(exp, 0) + v)
    return _packed_poly(ctx, reduced), constant, _packed_poly(ctx, witness)


# ---------------------------------------------------------------------------
# subfield embeddings

_EMBED_ROOTS = {}
_EMBED_ROWS = {}


def _one_root(g, d, rng):
    """A root of monic g, whose distinct roots lie in the degree-d subfield
    K: equal-degree splitting in K (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 14) by gcd(g, (Y + delta)^((p^d - 1)/2) - 1), or
    with Tr_{K/F_2}(delta Y) at p = 2, for delta = Tr_{big/K}(random z),
    keeping the smaller part of each split down to a linear factor."""
    ctx = g.ctx
    while g.degree() > 1:
        delta = frobenius_trace(
            ctx.elem([rng.randrange(ctx.p) for _ in range(ctx.e)]), d)
        if ctx.p == 2:
            term = h = FqPoly(ctx, ((1, delta),)) % g
            for _ in range(d - 1):
                term = term.pth_power() % g
                h = h + term
        else:
            shifted = FqPoly(ctx, ((1, ctx.one), (0, delta)))
            h = pow(shifted, (ctx.p ** d - 1) // 2, g) - FqPoly(ctx, ((0, 1),))
        a, b = g, h
        while b:
            a, b = b, a % b
        if 0 < a.degree() < g.degree():
            a = a * a.terms[-1][1].inverse()
            g = a if 2 * a.degree() <= g.degree() else divmod(g, a)[0]
    return -g.coeff(0)


def subfield_root(small, big):
    """Least root in big of the modulus of small, the anchor of the
    canonical embedding F_{p^d} -> F_{p^e}: the least conjugate a^(p^i),
    i < d, of the root a that _one_root finds."""
    if small.p != big.p or big.e % small.e:
        raise NotASubfieldDegree(
            "no embedding of degree %d into degree %d" % (small.e, big.e))
    key = (small.p, small.e, big.e)
    root = _EMBED_ROOTS.get(key)
    if root is None:
        if small.e == 1:
            root = big.zero  # modulus X, root 0; constants embed directly
        else:
            # the seed only affects how fast the split lands, never the
            # answer: we always return the least root
            roots = [_one_root(FqPoly(big, enumerate(small.modulus)),
                               small.e, random.Random(11))]
            for _ in range(small.e - 1):
                roots.append(roots[-1].frobenius())
            root = min(roots, key=lambda r: r.coeffs)
        _EMBED_ROOTS[key] = root
    return root


def _embed(v, small, big):
    """The packed image in big of the packed v of small: sum c_i rho^i
    over the cached packed rows rho^i, reduced once."""
    key = (small.p, small.e, big.e)
    if key not in _EMBED_ROWS:
        rho = subfield_root(small, big).v
        _EMBED_ROWS[key] = _power_rows(rho, small.e, big._mul)
    c = _unpack(v, small.e, small._red_rows[0])
    return big._reduce(sum(map(operator.mul, c, _EMBED_ROWS[key])))


def embed_elem(x, big):
    """Image of x under the canonical embedding into big."""
    return x if x.ctx is big else _elem(big, _embed(x.v, x.ctx, big))


def _memo_last(build):
    """build(x, big), kept for the last x and big (held, so their ids
    stay theirs): calls on one x and one field build once."""
    last = [None, None, None]

    @functools.wraps(build)
    def memo(x, big):
        if last[0] is not x or last[1] is not big:
            last[:] = x, big, build(x, big)
        return last[2]
    memo.last = last
    return memo


@_memo_last
def embed_poly(f, big):
    """Coefficient-wise canonical embedding of a polynomial."""
    return f if f.ctx is big else _packed_poly(
        big, {exp: _embed(v, f.ctx, big) for exp, v in _packed(f)})
