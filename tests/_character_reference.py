"""The per-class character construction used before the adjoint kernel.

Kept as an independent reference for `cover.additive_characters` and the
additive branch of `cover.character_levels`: for every projective class
of the dual of ker A (in A's own kernel basis) it builds the subspace
polynomial u of the class's hyperplane out of d - 1 twisted
compositions, reads the twisted factor l with l . A = (F - 1) . u, and
ranks the ramified classes, in conductor order, with one sympy echelon
form (`_split_reference.rref_gf`) per class.  It costs (p^d - 1)/(p - 1)
subspace polynomials; use small d.
"""

from _split_reference import rref_gf

from wildram.additive import (
    AdditiveOp,
    linearize_kernel,
    splitting_degree,
    wp_operator,
)
from wildram.cover import CoverSpec, _poly_free_part
from wildram.errors import BadParameters, DecompositionFailure, ZeroCover
from wildram.field import reduce_pth_powers


def split_kernel(cover):
    """Kernel of the additive operator inside its own field, validated full."""
    A = cover.op
    ctx = cover.ctx
    deg = splitting_degree(A, cap=ctx.e)
    if deg is None or ctx.e % deg:
        raise DecompositionFailure(
            "operator does not split over F_%d^%d" % (ctx.p, ctx.e))
    kern = linearize_kernel(A, ctx.e)
    if kern.dim != A.f_degree:
        raise DecompositionFailure("kernel dimension mismatch")
    return kern


def additive_characters(cover):
    """Rank-one pieces of an additive cover.

    Yields (dual_vector, subcover) per projective class of the dual of
    the kernel: dual_vector is a tuple over F_p in the kernel basis, and
    subcover is the degree-p cover y^p - y = l(f) with l . A = (F-1) . u
    for the subspace polynomial u of the class's hyperplane.
    """
    if cover.kind != "additive":
        raise BadParameters("character decomposition is for additive covers")
    ctx = cover.ctx
    p = ctx.p
    A = cover.op
    kern = split_kernel(cover)
    d = kern.dim
    f = cover.rhs[0]
    out = []
    for lam in _projective_duals(p, d):
        pivot = next(i for i, v in enumerate(lam) if v)
        hyper = []
        for j, v in enumerate(lam):
            if j == pivot:
                continue
            hyper.append(kern.basis[j] - kern.basis[pivot] * v)
        u = AdditiveOp(ctx, [1])
        for w in hyper:
            beta = u(w)
            assert beta, "hyperplane basis must stay outside ker u"
            u = AdditiveOp(ctx, [-(beta ** (p - 1)), 1]).compose(u)
        delta = u(kern.basis[pivot])
        assert delta, "pivot element must map onto F_p"
        u = u * delta.inverse()
        # u has F-degree d - 1, so (F - 1) . u has F-degree d = deg_F A
        # and the twisted factor l is a scalar
        target = wp_operator(ctx).compose(u)
        ell = target.coeff(0) / A.coeffs[0]
        if A * ell != target:
            raise DecompositionFailure(
                "no twisted factor for dual class %r" % (lam,))
        sub = CoverSpec(ctx, ("additive", wp_operator(ctx)), [f * ell],
                        label="%s chi%r" % (cover.label, list(lam)))
        out.append((lam, sub))
    return out


def _projective_duals(p, d):
    """Dual vectors of F_p^d up to scaling: first nonzero entry is 1."""
    def rec(prefix, started):
        if len(prefix) == d:
            if started:
                yield tuple(prefix)
            return
        if not started:
            yield from rec(prefix + [0], False)
            yield from rec(prefix + [1], True)
        else:
            for v in range(p):
                yield from rec(prefix + [v], True)
    return rec([], False)


def character_levels(cover):
    """The conductor ladder of an additive cover, one rref per class."""
    p = cover.ctx.p
    chars = []
    for lam, sub in additive_characters(cover):
        red, _, _ = reduce_pth_powers(sub.rhs[0])
        free = _poly_free_part(red)
        if free.is_zero():
            continue
        chars.append((1 + free.degree(), lam))
    if not chars:
        raise ZeroCover("every character of the cover is unramified")
    chars.sort(key=lambda t: t[0])
    levels = []
    rows = []
    rank = 0
    for cond, lam in chars:
        rows.append(lam)
        _, pivots = rref_gf(rows, p)
        if len(pivots) > rank:
            rank = len(pivots)
            levels.append((cond, p))
        else:
            rows.pop()
    return levels
