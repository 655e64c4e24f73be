"""Covers of the affine line defined by additive equations.

A CoverSpec holds one equation over F_q = F_{p^e}:

* kind "witt": V(y) = (f_0(x), ..., f_{n-1}(x)) with V the Witt
  Artin-Schreier operator F - 1 on length-n Witt vectors, a cyclic
  p^n-cover (degree drops only when leading coordinates degenerate);
* kind "additive": A(y) = f(x) with A a separable additive operator that
  splits over F_q, an elementary abelian cover of degree p^(deg_F A).

Everything ramifies only above x = infinity.  Conductors come from the
reduced right hand sides: stripping a*X^(ip) -> a^(1/p)*X^i leaves
degrees prime to p, and for Witt vectors the coordinate rewrites are
carried exactly (length 2 uses the closed carry polynomial; longer
vectors must arrive with their leading coordinates already reduced).
Genera come from the conductor-discriminant ladder of the character
decomposition.  The rank-one characters of an additive cover are the
scalars l with l . A = (F - 1) . u for some operator u, each giving the
piece y^p - y = l f through z = u(y).  They are the roots in F_q of the
adjoint of A (`additive.adjoint`, which holds the proof), a space of
dimension deg_F A exactly when A splits over F_q, so one kernel basis
l_1, ..., l_d yields them all, and both facts a family needs are read
from it:

* the ladder: reduction modulo p-th powers is F_p-linear in l, so one
  echelon form of the reduced l_i f, highest exponent first, gives the
  rank of the characters of conductor at most c for every c at once;
* the splitting: by trace duality the image of A on any field E is cut
  out by Tr(l v) = 0 for the roots l in E, so a place x = y splits
  exactly when f(y) passes those d linear forms, and every rational
  place splits exactly when each y^p - y = l_i f does.

Whether every rational place of a Witt cover splits is read off its ghost
component over GR(p^n, e) without visiting a place, and on the constants
f_i(y) so is whether x = y splits (`field._ghost_trace_is_zero`).
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    BadParameters,
    ContextMismatch,
    DecompositionFailure,
    InseparableOperator,
    ResourceLimit,
    ZeroCover,
)
from .field import (FqPoly, _check_integral, _echelon, _elem,
                    _ghost_trace_is_zero, embed_poly, field_from_json,
                    reduce_pth_powers)
from .additive import AdditiveOp, adjoint, linearize_kernel, wp_operator
from .ramify import ladder_filtration, tower_genus
from .witt import witt_ring, witt2_sub

# Work that can outgrow its input is priced first in coefficient products
# (`field._mul_terms`), refused past _BUDGET by _charge.  2^21 took 0.6 s
# in the normalization at p = 5, 3.9 s in place tests of F_65537 (2 vCPUs),
# and more on long Witt vectors, whose ring slots are wider.
_BUDGET = 2 ** 21


def _charge(price, what):
    """ResourceLimit past _BUDGET products, the price printed as 2^k."""
    if price > _BUDGET:
        raise ResourceLimit("%s needs about 2^%d products, over the budget of "
                            "2^%d" % (what, (price - 1).bit_length(),
                                      _BUDGET.bit_length() - 1))


class CoverSpec:
    """One equation V(y) = rhs(x) over a fixed field context."""

    __slots__ = ("ctx", "kind", "op", "rhs", "label")

    def __init__(self, ctx, operator, rhs, label=""):
        kind, op = operator
        rhs = tuple(rhs)
        if any(f.ctx is not ctx for f in rhs):
            raise ContextMismatch("right hand side over a different context")
        if kind == "witt":
            n = int(op)
            if n < 1:
                raise BadParameters("Witt length must be at least 1")
            if len(rhs) != n:
                raise BadParameters(
                    "expected %d coordinates, got %d" % (n, len(rhs)))
        elif kind == "additive":
            if not isinstance(op, AdditiveOp) or op.ctx is not ctx:
                raise ContextMismatch("operator over a different context")
            if not op.separable:
                raise InseparableOperator(
                    "additive covers need a separable operator")
            if len(rhs) != 1:
                raise BadParameters("additive covers take a single rhs")
        else:
            raise BadParameters("operator kind must be 'witt' or 'additive'")
        self.ctx = ctx
        self.kind = kind
        self.op = op
        self.rhs = rhs
        self.label = label

    def to_json(self):
        if self.kind == "witt":
            op = {"witt": self.op}
        else:
            op = {"additive": self.op.to_json()}
        return {"field": self.ctx.to_json(), "operator": op,
                "rhs": [f.to_json() for f in self.rhs], "label": self.label}

    @classmethod
    def from_json(cls, obj):
        ctx = field_from_json(obj["field"])
        op_obj = obj["operator"]
        if "witt" in op_obj:
            operator = ("witt", _check_integral([op_obj["witt"]])[0])
        else:
            operator = ("additive", AdditiveOp.from_json(ctx, op_obj["additive"]))
        rhs = [FqPoly.from_json(ctx, f) for f in obj["rhs"]]
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise ValueError("label %r is not a string" % (label,))
        return cls(ctx, operator, rhs, label)

    def __repr__(self):
        return "CoverSpec(%s, %s, label=%r)" % (self.kind, self.op, self.label)


# ---------------------------------------------------------------------------
# Witt coordinate normalization

def normalized_witt_rhs(cover):
    """Coordinates rewritten so every one is free of p-th power exponents.

    Replacing f_0 by its reduction changes later coordinates through Witt
    carries; for n = 2 the correction is exact via the carry polynomial.
    Longer vectors are accepted only when coordinates 0..n-2 already
    carry no positive exponent divisible by p.
    """
    if cover.kind != "witt":
        raise BadParameters("normalization applies to Witt covers")
    n = cover.op
    ctx = cover.ctx
    if n == 2:
        f0, f1 = cover.rhs
        red0, c0, wit = reduce_pth_powers(f0)
        if not wit.is_zero():
            zero, wp = FqPoly.zero(ctx), wit.pth_power()
            # the carries psi(W, -W) and psi(W^p, -W) of the witness, then
            # psi(A, -A) and psi(f_0, -A) for A = W^p - W
            k, a, p = len(wit.terms), len((wp - wit).terms), ctx.p
            _charge(2 * _carry_price(k, k, p) + _carry_price(a, a, p)
                    + _carry_price(len(f0.terms), a, p),
                    "normalizing the first of two Witt coordinates")
            wp_pair = witt2_sub((wp, zero), (wit, zero))
            f0, f1 = witt2_sub((f0, f1), wp_pair)
            assert f0 == red0 + FqPoly(ctx, ((0, c0),))
        red1, c1, _ = reduce_pth_powers(f1)
        return [f0, red1 + FqPoly(ctx, ((0, c1),))]
    out = []
    for i, f in enumerate(cover.rhs[:-1]):
        if any(exp >= ctx.p and exp % ctx.p == 0 for exp, _ in f.terms):
            raise BadParameters(
                "coordinate %d carries a p-th power exponent; reduce the "
                "leading coordinates before asking for invariants" % i)
        out.append(f)
    red, const, _ = reduce_pth_powers(cover.rhs[-1])
    out.append(red + FqPoly(ctx, ((0, const),)))
    return out


def _carry_price(s, t, p):
    """Products of `witt.psi_carry` on polynomials of s and t terms: a^i of
    at most comb(s + i - 1, i) terms, so the powers a^2, ..., a^(p-1) cost
    at most s comb(s + p - 2, p - 2), those of b likewise, and the products
    a^i b^(p-i) and their units at most 2 comb(s + t + p - 1, p)."""
    return (s * math.comb(s + p - 2, p - 2) + t * math.comb(t + p - 2, p - 2)
            + 2 * math.comb(s + t + p - 1, p))


def _poly_free_part(f):
    """Terms of f with exponent >= 1 (the part that can ramify)."""
    return FqPoly(f.ctx, tuple((e, c) for e, c in f.terms if e >= 1))


# ---------------------------------------------------------------------------
# character decompositions and conductor ladders

_KERNEL_CACHE = {}


def _character_basis(cover, E=None):
    """A basis of the roots of `adjoint(A)` in E; E None: l_1, ..., l_d in
    F_q, DecompositionFailure unless d = deg_F A (A splits over F_q).  The
    kernel is made once per (A, [E : F_p])."""
    ctx = cover.ctx
    key = (cover.op, (ctx if E is None else E).e)
    kern = _KERNEL_CACHE.get(key)
    if kern is None:
        kern = linearize_kernel(adjoint(cover.op), key[1])
        _KERNEL_CACHE[key] = kern
    if E is None and kern.dim != cover.op.f_degree:
        raise DecompositionFailure(
            "operator does not split over F_%d^%d" % (ctx.p, ctx.e))
    return kern.basis


def additive_characters(cover):
    """Rank-one pieces of an additive cover.

    Returns (dual_vector, subcover) per projective class of the roots
    l_1, ..., l_d of `adjoint(A)` in F_q: dual_vector is a tuple over F_p
    in that adjoint-kernel basis with first nonzero entry 1, and subcover
    is the degree-p cover y^p - y = l f for l = sum dual_vector_i l_i,
    labelled by its dual_vector.
    """
    if cover.kind != "additive":
        raise BadParameters("character decomposition is for additive covers")
    ctx = cover.ctx
    basis = _character_basis(cover)
    f = cover.rhs[0]
    out = []
    for lam in itertools.product(range(ctx.p), repeat=len(basis)):
        if next((v for v in lam if v), 0) != 1:
            continue
        ell = sum((b * v for v, b in zip(lam, basis) if v), ctx.zero)
        sub = CoverSpec(ctx, ("additive", wp_operator(ctx)), [f * ell],
                        label="%s chi%r" % (cover.label, list(lam)))
        out.append((lam, sub))
    return out


def character_levels(cover):
    """The conductor ladder [(conductor, marginal degree), ...].

    Witt covers are cyclic: level j is the length-j truncation, with
    conductor 1 + max_{i<j} p^(j-1-i) M_i over the reduced coordinate
    degrees M_i.  Additive covers: reduction modulo p-th powers is
    F_p-linear in l, so the reduced l_i f, written as F_p rows with the
    columns of exponent k before those of k - 1, span the reductions of
    every character.  In their echelon form each pivot at exponent k is
    one degree-p level of conductor k + 1: the pivots at exponents >= k
    count the codimension of the characters of conductor at most k.  The
    d - rank unramified dimensions join the lowest ramified level.
    """
    ctx = cover.ctx
    p = ctx.p
    if cover.kind == "witt":
        coords = normalized_witt_rhs(cover)
        frees = [_poly_free_part(f) for f in coords]
        while frees and frees[0].is_zero():
            # a leading constant coordinate absorbs into lower Witt length
            frees.pop(0)
        if not frees:
            raise ZeroCover("all coordinates reduce to constants")
        # the max is kept running: a zero coordinate (degree -1) never wins
        levels, top = [], -1
        for g in frees:
            top = max(p * top, g.degree())
            levels.append((1 + top, p))
        return levels
    basis = _character_basis(cover)
    # reduced forms carry no constant term, so every exponent is >= 1
    reds = [reduce_pth_powers(cover.rhs[0] * ell)[0] for ell in basis]
    exps = sorted({k for red in reds for k, _ in red.terms}, reverse=True)
    if not exps:
        raise ZeroCover("every character of the cover is unramified")
    col = {k: i * ctx.e * ctx._red_rows[0] for i, k in enumerate(exps)}
    rows = [sum(c.v << col[k] for k, c in red.terms) for red in reds]
    kept, _ = _echelon(rows, len(exps) * ctx.e, ctx)
    pivots = sorted(c for c, _ in kept)
    levels = [(exps[c // ctx.e] + 1, p) for c in reversed(pivots)]
    return levels[:1] * (len(basis) - len(pivots)) + levels


def conductor(cover):
    """Largest character conductor of the cover."""
    return max(character_levels(cover))[0]


def cover_degree(cover):
    """Geometric degree: p^levels for Witt, p^rank for additive."""
    return cover.ctx.p ** len(character_levels(cover))


def cover_genus(cover, with_audit=False):
    return tower_genus(character_levels(cover), with_audit=with_audit)


def upper_filtration(cover):
    return ladder_filtration(character_levels(cover))


def _split_test(cover, E):
    """Predicate y -> whether the place x = y, for y in E, splits completely.

    Witt covers: the ghost criterion (`field._ghost_trace_is_zero`) on the
    constants f_i(y), whose ghost sum is sigma^(n-1) of the Witt vector
    (f_i(y)) and has its trace: no Teichmueller lift, and a zero f_i(y)
    costs nothing.
    Additive covers: trace duality (`additive.adjoint`) gives
    A(E) = {v : Tr(l v) = 0 for every root l of adjoint(A) in E}, split
    or not: for a basis l_0, ..., l_(d-1) of those roots, d <= e, it is
    the kernel of one F_p-linear map v -> sum_k Tr(l_k v) X^k, so a place
    costs one evaluation of f and one `_apply`.  The right hand side is
    embedded into E once, here, not once per place.
    """
    rhs = [embed_poly(f, E) for f in cover.rhs]
    if cover.kind == "witt":
        ring = witt_ring(E, cover.op)
        return lambda y: _ghost_trace_is_zero(
            E, ring, [FqPoly(E, ((0, f.evaluate(y)),)) for f in rhs])
    bits = E._red_rows[0]
    rows = E._linear_rows([
        ((ell.frobenius(j) * _elem(E, 1 << k * bits)).v, j)
        for k, ell in enumerate(_character_basis(cover, E))
        for j in range(E.e)])
    f = rhs[0]
    return lambda y: not E._apply(f.evaluate(y).v, rows)


def base_change(cover, S, label=None):
    """Pull the cover back along x -> S(x) for a separable additive S."""
    if not isinstance(S, AdditiveOp) or S.ctx is not cover.ctx:
        raise ContextMismatch("base change operator over a different context")
    if not S.separable:
        raise InseparableOperator("base change needs a separable operator")
    s_poly = S.as_poly()
    rhs = [f.compose(s_poly) for f in cover.rhs]
    return CoverSpec(cover.ctx, (cover.kind, cover.op), rhs,
                     label if label is not None else cover.label + " | pullback")


# ---------------------------------------------------------------------------
# families and towers

class FamilyItem:
    """A cover together with how much new degree it adds to its tower.

    marginal None means the cover enters with its full character ladder;
    an integer means the tower already contains everything below its top
    conductor, so it contributes one level (conductor, marginal).
    """

    __slots__ = ("cover", "label", "marginal")

    def __init__(self, cover, label, marginal=None):
        self.cover = cover
        self.label = label
        self.marginal = marginal

    def levels(self):
        if self.marginal is None:
            return character_levels(self.cover)
        return [(conductor(self.cover), self.marginal)]

    def __repr__(self):
        return "FamilyItem(%r, marginal=%r)" % (self.label, self.marginal)


def tower_compose(items):
    """Genus, degree and filtration of a compositum of covers.

    Accepts CoverSpec values (full ladder) and FamilyItem values (which
    may carry an explicit marginal degree when they overlap the rest of
    the tower below their top conductor).
    """
    levels = []
    for it in items:
        if isinstance(it, CoverSpec):
            levels.extend(character_levels(it))
        elif isinstance(it, FamilyItem):
            levels.extend(it.levels())
        else:
            raise BadParameters("tower items must be covers or family items")
    g, audit = tower_genus(levels, with_audit=True)
    return {"genus": g, "degree": audit["degree"],
            "levels": audit["levels"],
            "filtration": ladder_filtration(levels)}


def _ghost_products(rhs, p, q):
    """Bound on the products of the ghost powers: coordinate i, of k terms
    and degree d, takes n - 1 - i p-th powers.  Each is at most 2 log2 p
    products of powers of g, none with more terms than g^p: at most
    comb(k + p - 1, p) for a k-term g, p d + 1, and q once folded.  Once
    (d, k) stop changing, each power left costs the same."""
    total, n = 0, len(rhs)
    for i, f in enumerate(rhs):
        k, d = len(f.terms), f.degree()
        left = n - 1 - i if k else 0
        while left:
            last, left = (k, d), left - 1
            d = min(d * p, q)
            k = min(math.comb(k + p - 1, p), q, d + 1) if k < q else q
            price = 2 * p.bit_length() * k * k
            total += price
            if (k, d) == last:
                total += left * price
                break
    return total


def _place_price(cover):
    """Products to test a place of a Witt cover (`_split_test`): 2 bitlen p
    per p-th power of a nonzero f_i(y), and 2 per right hand side term."""
    bits, n = 2 * cover.ctx.p.bit_length(), cover.op
    return sum(bits * (n - 1 - i) * bool(f) + 2 * len(f.terms)
               for i, f in enumerate(cover.rhs))


def _splits_at_every_place(cover):
    """Whether every rational place splits, decided exactly by the ghost
    component (`field._ghost_trace_is_zero`), on the length-1 truncation
    first, which is cheap.  Additive covers: a place splits when
    Tr(l f(y)) = 0 for each root l of adjoint(A) in F_q (`_split_test`),
    linear in l, so n = 1 on l_i f for a basis of the roots decides it.
    Where the ghost powers would cost more than testing every place of
    F_q, the places are tested instead; ResourceLimit when the cheaper of
    the two is over the budget."""
    ctx = cover.ctx
    if cover.kind == "additive":
        f = cover.rhs[0]
        return all(_ghost_trace_is_zero(ctx, ctx, [f * ell])
                   for ell in _character_basis(cover, ctx))
    n, first = cover.op, _ghost_trace_is_zero(ctx, ctx, cover.rhs[:1])
    if n == 1 or not first:
        return first
    sweep = _place_price(cover) * ctx.q
    ghost = _ghost_products(cover.rhs, ctx.p, ctx.q)
    _charge(min(ghost, sweep), "splitting over F_%d^%d at Witt length %d"
            % (ctx.p, ctx.e, n))
    if ghost > sweep:
        return all(map(_split_test(cover, ctx), ctx.elements()))
    return _ghost_trace_is_zero(ctx, witt_ring(ctx, n), cover.rhs)


def _places(ctx):
    """The places `splits_everywhere` counts where not all places split:
    all of F_q up to q = 2048, else 64 deterministic points, each
    coordinate from the high bits of its own step of a 63-bit LCG."""
    if ctx.q <= 2048:
        return list(ctx.elements())
    state = 0x5eed
    sample = []
    for _ in range(64):
        coords = []
        for _ in range(ctx.e):
            state = (state * 6364136223846793005
                     + 1442695040888963407) % 2 ** 63
            coords.append((state >> 31) % ctx.p)
        sample.append(ctx.elem(coords))
    return sample


def splits_everywhere(cover):
    """Whether every rational place of the line splits in the cover.

    Returns (all_split, split_count, checked).  all_split is exact for
    every cover (`_splits_at_every_place`), and when it holds the result
    is (True, q, q).  Otherwise the count runs over `_places`, the whole
    field up to q = 2048, else 64 of them (Witt places: `_place_price`).
    """
    ctx = cover.ctx
    if _splits_at_every_place(cover):
        return True, ctx.q, ctx.q
    places = _places(ctx)
    if cover.kind == "witt":
        _charge(len(places) * _place_price(cover), "counting the split places"
                " over F_%d^%d at Witt length %d" % (ctx.p, ctx.e, cover.op))
    hits = sum(map(_split_test(cover, ctx), places))
    return False, hits, len(places)


def _gamma_kernel(ctx, s):
    """ker(F^s + 1) inside F_{p^e}."""
    return linearize_kernel(AdditiveOp(ctx, [1] + [0] * (s - 1) + [1]), ctx.e)


def _least_gamma(ctx, s):
    """The least nonzero element of ker(F^s + 1) inside F_{p^e}: the last
    row of its reduced echelon form, the kept row of the largest pivot;
    any other leads earlier or higher."""
    kept, _ = _echelon([b.v for b in _gamma_kernel(ctx, s).basis], ctx.e, ctx)
    return _elem(ctx, max(kept)[1])


FAMILY_KINDS = ("jump2-even", "jump2-odd", "table-full", "exponent-pn")


def _family_degree_floor(p, e, kind, witt_len):
    """A k with tower degree >= p^k for family_build(F_{p^e}, kind), known
    before any item is built: each item multiplies the degree by at least
    p (a level per unit of rank, or its marginal p), the exponent-pn
    vector of length witt_len by p^witt_len.  A kind whose parity does not
    fit e gets 1, which leaves the refusal to family_build."""
    odd = e % 2
    return {"jump2-even": not odd and p + 1, "jump2-odd": odd and 2 * p - 1,
            "table-full": not odd and (p - 1) * (p + 2) // 2,
            "exponent-pn": not odd and witt_len}.get(kind) or 1


def family_build(ctx, kind, witt_len=2):
    """Built-in families of covers over F_{p^e}, returned as a dict with
    items, the second-jump conductor m2, and runtime splitting checks."""
    p, e = ctx.p, ctx.e
    if kind not in FAMILY_KINDS:
        raise BadParameters("unknown family kind %r" % kind)
    if e % 2 != (kind == "jump2-odd"):
        raise BadParameters("kind %s needs %s" % (kind, "even degree e = 2s"
                            if e % 2 else "odd degree e = 2s - 1"))
    s = (e + 1) // 2
    r, t, q = p ** s, p ** (s - 1), p ** e
    frob_op = ("additive", AdditiveOp(ctx, [-1] + [0] * (e - 1) + [1]))
    zero = FqPoly.zero(ctx)
    items = []
    notes = {"m2": 1 + p * (1 + r)}

    def add(operator, coords, label, marginal=None):
        items.append(FamilyItem(CoverSpec(ctx, operator, coords, label),
                                label, marginal))

    def row(a, b, label):
        # X^(a + bq) - X^(a + b) = X^a (X^(bq) - X^b) under F^e - 1
        add(frob_op, [FqPoly(ctx, [(a + b * q, 1), (a + b, -1)])], label)

    if kind == "jump2-even":
        a = _least_gamma(ctx, s)
        add(("witt", 1), [FqPoly(ctx, [(1 + r, a)])], "w0")
        for i in range(1, p):
            row(i * t, 1, "q-row %d" % i)
        add(("witt", 2), [FqPoly(ctx, [(1 + r, a)]), zero], "pair", p)
        notes["gamma_dim"] = s
    elif kind == "jump2-odd":
        for i in range(1, p):
            row(i * t, 1, "f-row %d" % i)
        for j in range(1, p):
            row(j * t, p, "g-row %d" % j)
        add(("witt", 2), witt2_sub((FqPoly(ctx, [(1 + r, 1)]), zero),
                                   (FqPoly(ctx, [(1 + t, 1)]), zero)),
            "pair", p)
    elif kind == "table-full":
        r_op = ("additive", AdditiveOp(ctx, [1] + [0] * (s - 1) + [1]))
        for u in range(1, p):
            add(r_op, [FqPoly(ctx, [(u * (1 + r), 1)])], "r-row %d" % u)
        for u in range(2, p + 1):
            for v in range(1, u):
                row(u * r, v, "q-row %d,%d" % (u, v))
        # independent second-level pairs, one per basis vector of Gamma
        for k, a_k in enumerate(_gamma_kernel(ctx, s).basis):
            add(("witt", 2), [FqPoly(ctx, [(1 + r, a_k)]), zero],
                "pair %d" % k, p)
        notes["pair_count"] = s
    else:
        n = witt_len
        # W_n(F_q) and the ghost powers of f_0, (n e + 2) n e log2 p slot
        # products; log2 p <= (p^16).bit_length() / 16, so n is never a float
        _charge((n * e + 2) * n * e * (p ** 16).bit_length() >> 4,
                "building W_n over F_%d^%d and its ghost powers" % (p, e))
        a = _least_gamma(ctx, s)
        add(("witt", n), [FqPoly(ctx, [(1 + r, a)])] + [zero] * (n - 1),
            "exponent-p%d" % n)
        notes = {"conductor": 1 + p ** (n - 1) * (1 + r)}

    # how the family sits over the rational places: split everywhere is
    # what embeds it in the small-conductor ray class tower, and it can
    # genuinely fail (p = 2), so it is decided rather than assumed
    split_all = all(map(_splits_at_every_place, [it.cover for it in items]))
    notes["splits_at_rational_places"] = split_all
    return {"kind": kind, "items": items, "notes": notes}
