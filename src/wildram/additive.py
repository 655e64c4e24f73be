"""Additive (Frobenius-linear) operators over a finite field.

An AdditiveOp with coefficients (a_0, ..., a_d) is the operator

    x  ->  a_0 x + a_1 x^p + ... + a_d x^(p^d),

written sum a_j F^j in the twisted polynomial ring F_q{F}.  Composition
twists scalars past Frobenius, kernels are F_p-subspaces computable by
plain linear algebra over F_p, and separable operators (a_0 != 0) of
F-degree d have kernels of dimension exactly d over a splitting field.

The adjoint of an operator (`adjoint`) is its transpose under the trace
form; its kernel names the rank-one characters of the cover A(y) = f(x).
The palindromic adjoint is built from it: for a polynomial of the shape
f = X*S(X) + c*X with S additive, the geometric translations of the
cover y^p - y = f(x) are the kernel of F^s S + adjoint(S), a
self-reciprocal operator.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    BadParameters,
    ContextMismatch,
    InseparableOperator,
    NotASubfieldDegree,
    NotInXSXForm,
)
from .field import (FqPoly, _echelon, _elem, _memo_last, _mul_fn,
                    _packed_poly, elem_from_json, embed_elem,
                    extension_field, frobenius_trace)


# ---------------------------------------------------------------------------
# operators

class AdditiveOp:
    """Twisted polynomial sum a_j F^j acting as x -> sum a_j x^(p^j)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        cs = [ctx.elem(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @property
    def f_degree(self):
        return len(self.coeffs) - 1

    @property
    def separable(self):
        return bool(self.coeffs) and bool(self.coeffs[0])

    def is_zero(self):
        return not self.coeffs

    def coeff(self, j):
        return self.coeffs[j] if j < len(self.coeffs) else self.ctx.zero

    def as_poly(self):
        return FqPoly(self.ctx,
                      tuple((self.ctx.p ** j, c)
                            for j, c in enumerate(self.coeffs) if c))

    def evaluate(self, x):
        if x.ctx is not self.ctx:
            return self.embed(x.ctx).evaluate(x)
        acc = self.ctx.zero
        for j, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * x.frobenius(j)
        return acc

    __call__ = evaluate

    @_memo_last  # a run of evaluations over one field embeds once
    def embed(self, big):
        return AdditiveOp(big, [embed_elem(c, big) for c in self.coeffs])

    def compose(self, other):
        """Twisted product: (self . other)(x) = self(other(x))."""
        if other.ctx is not self.ctx:
            raise ContextMismatch("operators over different contexts")
        out = [self.ctx.zero] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b.frobenius(i)
        return AdditiveOp(self.ctx, out)

    def __add__(self, other):
        if not isinstance(other, AdditiveOp):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise ContextMismatch("operators over different contexts")
        n = max(len(self.coeffs), len(other.coeffs))
        return AdditiveOp(self.ctx,
                          [self.coeff(j) + other.coeff(j) for j in range(n)])

    def __sub__(self, other):
        if not isinstance(other, AdditiveOp):
            return NotImplemented
        return self + other * -1

    def __mul__(self, scalar):
        c = self.ctx.elem(scalar)
        return AdditiveOp(self.ctx, [a * c for a in self.coeffs])

    __rmul__ = __mul__

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, ctx, obj):
        return cls(ctx, [elem_from_json(ctx, c) for c in obj])

    def __eq__(self, other):
        return (isinstance(other, AdditiveOp)
                and self.ctx is other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.e, tuple(c.v for c in self.coeffs)))

    def __repr__(self):
        if not self.coeffs:
            return "AdditiveOp(0)"
        bits = ["%r F^%d" % (list(c.coeffs), j)
                for j, c in enumerate(self.coeffs) if c]
        return "AdditiveOp(%s)" % " + ".join(bits)


def frobenius_operator(ctx, k=1):
    return AdditiveOp(ctx, [0] * k + [1])


def wp_operator(ctx):
    """The Artin-Schreier operator F - 1, x -> x^p - x."""
    return AdditiveOp(ctx, [-1, 1])


def adjoint(A):
    """The adjoint F^d . A* = sum_i a_(d-i)^(p^i) F^i of A = sum a_j F^j.

    A*(x) = sum_j (a_j x)^(p^-j); F^d, a bijection of every finite field,
    clears its roots and keeps its kernel.

    * Characters.  c F^j = (F - 1) c^(1/p) F^(j-1) + c^(1/p) F^(j-1), so
      an operator P is P*(1) modulo (F - 1) F_q{F}: l . A = (F - 1) . u
      for some u exactly when A*(l) = 0, and then z = u(y) maps the cover
      A(y) = f(x) onto z^p - z = l f(x).
    * Trace duality.  Tr is Frobenius invariant, so Tr(A(x) y) =
      Tr(x A*(y)) on F_q and dim(ker A* n F_q) = dim(ker A n F_q): a
      separable A of F-degree d splits over F_q exactly when that is d.
    * No repeats.  For l != 0 there, u != 0 has F-degree d - 1, so it
      cannot vanish on the p^d roots V of A, and u|V: V -> F_p is not 0.
      l -> u|V is F_p-linear and injective between d-dimensional spaces:
      the classes of l up to F_p^* are the rank-one characters, each once.
    """
    d = A.f_degree
    return AdditiveOp(A.ctx,
                      [A.coeffs[d - i].frobenius(i) for i in range(d + 1)])


# ---------------------------------------------------------------------------
# kernels over extensions

class KernelBasis:
    """F_p-basis of the kernel of an additive operator inside one field."""

    __slots__ = ("field", "basis")

    def __init__(self, field, basis):
        self.field = field
        self.basis = tuple(basis)

    @property
    def dim(self):
        return len(self.basis)

    def elements(self):
        """All p^dim kernel elements (keep dim small): sum d_i b_i for the
        digit vectors d in itertools.product order, built by additions
        from the multiples 0, b, 2b, ... of each basis vector."""
        zero = self.field.zero
        sums = [zero]
        for b in self.basis:
            multiples = [zero]
            for _ in range(self.field.p - 1):
                multiples.append(multiples[-1] + b)
            sums = [a + m for a in sums for m in multiples]
        yield from sums

    def __repr__(self):
        return "KernelBasis(dim=%d over %r)" % (self.dim, self.field)


def _operator_rows(A, E):
    """The packed images A(X^i), i < E.e: the rows of A on E over F_p."""
    if E.p != A.ctx.p or E.e % A.ctx.e:
        raise NotASubfieldDegree(
            "operator field F_%d^%d does not embed in degree %d"
            % (A.ctx.p, A.ctx.e, E.e))
    return E._linear_rows([(c.v, j) for j, c in enumerate(A.embed(E).coeffs)
                           if c])


def operator_matrix(A, E):
    """Matrix of A on E over F_p, acting on coordinate row vectors: row i
    holds the coordinates of A(X^i)."""
    return [list(_elem(E, row).coeffs) for row in _operator_rows(A, E)]


def linearize_kernel(A, N):
    """Kernel of A inside F_{p^N} as a KernelBasis.

    The rows A(X^i) are reduced in order, each tagged with X^i, and one
    that reduces to zero leaves X^i less its combination of the rows
    before it; nothing here assumes A splits, the basis just spans
    whatever part of the kernel that field contains.
    """
    if A.is_zero():
        raise InseparableOperator("zero operator has no kernel basis")
    E = extension_field(A.ctx.p, N)
    bits = E._red_rows[0]
    rows = [row | 1 << (N + i) * bits
            for i, row in enumerate(_operator_rows(A, E))]
    return KernelBasis(E, [_elem(E, v) for v in _echelon(rows, N, E, N)[1]])


# ---------------------------------------------------------------------------
# splitting fields of separable operators

def splitting_degree(A, cap=48):
    """Least N with the full kernel of A inside F_{p^N}, or None past cap.

    A separable A has p^d distinct roots, and they all lie in F_{p^N}
    exactly when X^(p^N) = X modulo the monic m = A(X)/a_d.  Additive
    polynomials divide like the twisted ring, F^N = Q m + R, so R is the
    remainder X^(p^N) mod m, of F-degree < d.  Each step is F R, whose
    F^d coefficient c folds back as c (F^d - m); the walk ends when R
    comes back to X.
    """
    if not A.separable:
        raise InseparableOperator("splitting degree needs a separable operator")
    d = A.f_degree
    if d == 0:
        return 1  # kernel is {0}
    inv = A.coeffs[d].inverse()
    low = [c * inv for c in A.coeffs[:d]]  # m = F^d + sum low_j F^j
    frob = frobenius_operator(A.ctx)
    x = R = AdditiveOp(A.ctx, [1])
    for N in range(1, cap + 1):
        R = frob.compose(R)
        c = R.coeff(d)
        R = AdditiveOp(A.ctx, [R.coeff(j) - c * low[j] for j in range(d)])
        if R == x:
            return N
    return None


# ---------------------------------------------------------------------------
# palindromic adjoint and translation tests

def xsx_parts(f):
    """Split f = X*S(X) + c*X into (S as AdditiveOp, c).

    Raises NotInXSXForm unless the support of f lies in
    {1} union {1 + p^j : j >= 0} and S has F-degree at least 1.
    """
    ctx = f.ctx
    p = ctx.p
    c = ctx.zero
    s_coeffs = {}
    for exp, coeff in f.terms:
        if exp == 1:
            c = coeff
            continue
        j = next((j for j in range(exp.bit_length()) if p ** j == exp - 1),
                 None)
        if j is None:
            raise NotInXSXForm("exponent %d is not 1 + p^j" % exp)
        s_coeffs[j] = coeff
    if not s_coeffs or max(s_coeffs) < 1:
        raise NotInXSXForm("S must have F-degree at least 1")
    s_op = AdditiveOp(ctx, [s_coeffs.get(j, 0)
                            for j in range(max(s_coeffs) + 1)])
    return s_op, c


def palindromic_adjoint(f):
    """Adjoint operator whose kernel is the geometric translation group
    of the cover y^p - y = f(x), for f = X*S(X) + c*X.

    The linear-in-X part of f(X + y) - f(X) after stripping p-th power
    monomials is T(y) = S(y) + S*(y), with S* as in `adjoint`; the c*X
    term of f only moves the constant, so it never enters.  With a_s the
    top coefficient of S, the adjoint is T^(p^s) = F^s S + adjoint(S)
    scaled by 1/a_s, separable of F-degree 2s with constant coefficient 1.
    """
    s_op, _ = xsx_parts(f)
    s = s_op.f_degree
    T = frobenius_operator(f.ctx, s).compose(s_op) + adjoint(s_op)
    return T * s_op.coeffs[s].inverse()


@_memo_last
def _shift_plan(f, big):
    """What f(X + y) - f(X), p-th powers stripped, needs of y in big, all
    packed: (product, Frobenius indices j, product steps, how many the
    polynomial part needs, the constant's (0, rows, products), the
    polynomial part's [(m', rows, products), ...]).  By Lucas, (X + y)^k is
    the sum over m <=_p k of prod C(k_i, m_i) y^(k - m) X^m; m = k cancels
    against -f(X), and m = p^r m' goes to X^m' with the coefficient's
    p^r-th root, so y^(k - m) becomes prod (y^(p^(i - r)))^(k_i - m_i),
    i - r mod big.e: the int D with that power in its w-bit field j.  Terms
    c y^(p^j) fold into the part's F_p-linear rows; any other D is a product
    (c, slot), D less one in its top field j times y^(p^j)."""
    p, E, fix, groups, seen = big.p, big.e, big._fix, {}, 0
    digits = next(n for n in itertools.count() if p ** n > f.degree())
    w = ((p - 1) * -(-digits // E)).bit_length()  # no field overflows
    ones = {1 << j * w: j for j in range(E)}  # the D of y^(p^j)
    for k, c in f.terms:
        c, level = embed_elem(c, big), [(0, 1, 0)]  # m, B, D
        roots = [c.frobenius(-r).v for r in range(digits)]
        for i in range(digits):
            k, d = divmod(k, p)
            level = [(m + b * p ** i, B * math.comb(d, b) % p,
                      D + (d - b << i % E * w))
                     for m, B, D in level for b in range(d + 1)]
        for m, B, D in level[:-1]:  # the last is m = k
            r = next(i for i in itertools.count() if m % p ** (i + 1) or not m)
            m, t = m // p ** r, r % E * w
            D = (D >> t) | (D & ((1 << t) - 1)) << (E * w - t)
            seen |= 0 if D in ones else D  # what the products read
            groups[m, D] = fix(groups.get((m, D), 0)
                               + big._reduce(roots[r] * B))
    frobs = [j for j in range(E) if seen >> j * w & (1 << w) - 1]
    slot = {1 << j * w: i for i, j in enumerate(frobs)}
    steps, parts, n = [], {}, 0

    def slot_of(D):
        chain = []
        while D not in slot:
            chain.append(D)
            D -= 1 << (D.bit_length() - 1) // w * w
        for D in reversed(chain):
            top = 1 << (D.bit_length() - 1) // w * w
            steps.append((slot[D - top], slot[top]))
            slot[D] = len(frobs) + len(steps) - 1
        return slot[D]

    for (m, D), v in sorted((t for t in groups.items() if t[1]),
                            key=lambda t: not t[0][0]):
        lin, prods = parts.setdefault(m, ([], []))
        if D in ones:
            lin.append((v, ones[D]))
        else:
            prods.append((v, slot_of(D)))
            n = len(steps) if m else n
    parts.setdefault(0, ([], []))  # the constant m' = 0 comes last
    *parts, const = [(m, lin and big._linear_rows(lin), prods)
                     for m, (lin, prods) in parts.items()]
    return _mul_fn(big), frobs, steps, n, const, parts


def _defect_terms(f, y, constant):
    """(m', packed coefficient) of f(X + y) - f(X), p-th powers stripped,
    zeros left out; the constant m' = 0 comes last, when asked for.  A part
    is one _apply of its rows plus its products, vals made only for those."""
    mul, frobs, steps, n, const, parts = _shift_plan(f, y.ctx)
    if not y:
        return
    big, vals = y.ctx, None
    for m, rows, prods in parts + [const] if constant else parts:
        v = big._apply(y.v, rows) if rows else 0
        if prods and vals is None:
            vals = [y.frobenius(j).v for j in frobs]
            for a, b in steps if constant else steps[:n]:
                vals.append(mul(vals[a], vals[b]))
        for c, i in prods:
            v = big._fix(v + mul(c, vals[i]))
        if v:
            yield m, v


def translation_defect(f, y):
    """Reduced form of f(X + y) - f(X): (polynomial part, constant)."""
    acc = dict(_defect_terms(f, y, True))
    const = acc.pop(0, 0)
    return _packed_poly(y.ctx, acc), _elem(y.ctx, const)


def translation_test(f, y, mode="geometric"):
    """Whether x -> x + y fixes the cover y^p - y = f(x).

    Geometric mode ignores the constant term of the defect (any constant
    can be absorbed over the algebraic closure); arithmetic mode also
    requires the constant to be a p-th power residue under F - 1, i.e.
    to have zero trace down to F_p.
    """
    if mode not in ("geometric", "arithmetic"):
        raise BadParameters("mode must be geometric or arithmetic")
    const = 0
    for m, const in _defect_terms(f, y, mode == "arithmetic"):
        if m:
            return False
    return mode == "geometric" or not frobenius_trace(_elem(y.ctx, const))
