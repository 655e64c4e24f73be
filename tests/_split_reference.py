"""Splitting of rational places by solving A(w) = f(y) outright.

Kept as an independent reference for `cover._split_test` and
`cover.splits_everywhere`, which read splitting off the trace map of the
adjoint kernel instead: here an additive place splits when one linear
system over F_p, the matrix of A on the residue field, has a solution,
and a full sweep compares f(y) against the whole image set A(F_q).  A
Witt place splits when the Witt trace of the vector (f_i(y)), built
coordinate by coordinate with `WittRing.vec`, vanishes, where the library
applies the ghost criterion.  Costs one echelon form per place, by sympy
(`rref_gf`), which shares no code with the engine; keep the fields small.
"""

import numpy as np
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from wildram.additive import operator_matrix
from wildram.field import embed_elem, extension_field
from wildram.witt import witt_ring


def rref_gf(M, p):
    """(reduced echelon form of the rows M over GF(p) as int lists mod p,
    pivot column list), by sympy's DomainMatrix."""
    K = GF(p)
    rows = [[K(int(c)) for c in row] for row in M]
    R, pivots = DomainMatrix(rows, (len(rows), len(rows[0])), K).rref()
    return [[int(c) % p for c in row] for row in R.to_list()], list(pivots)


def solve_mod(M, b, p):
    """One solution of M x = b mod p, or None if inconsistent."""
    M = np.asarray(M, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    aug = np.concatenate([M, b.reshape(-1, 1)], axis=1) % p
    R, pivots = rref_gf(aug, p)
    n = M.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = R[i][n]
    return x


def witt_trace(u):
    """Sum of F^i(u) for 0 <= i < e: the trace of GR(p^n, e) down to
    Z/p^n, so the result has W_n(F_p) coordinates."""
    acc = cur = u
    for _ in range(u.ring.ctx.e - 1):
        cur = cur.frobenius()
        acc = acc + cur
    return acc


def image_membership(A, c, N=None):
    """A preimage w in F_{p^N} with A(w) = c, or None if c is not hit."""
    if N is None:
        N = c.ctx.e
    E = extension_field(A.ctx.p, N)
    target = embed_elem(c, E) if c.ctx is not E else c
    mat = operator_matrix(A, E)
    sol = solve_mod(np.transpose(mat), target.coeffs, E.p)
    if sol is None:
        return None
    return E.elem([int(v) for v in sol])


def splits_at(cover, y):
    """Whether x = y splits: a zero Witt trace, or A(w) = f(y) solvable
    over the residue field of y."""
    ctx = y.ctx
    if cover.kind == "witt":
        ring = witt_ring(ctx, cover.op)
        vec = ring.vec([f.evaluate(y) for f in cover.rhs])
        return witt_trace(vec).is_zero()
    val = cover.rhs[0].evaluate(y)
    return image_membership(cover.op, val, ctx.e) is not None


def sample_points(ctx):
    """The places `splits_everywhere` checks: all of F_q up to q = 2048,
    else 64 points, one 63-bit LCG step per coordinate, high bits."""
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
    """(all_split, split_count, checked) over `sample_points`; a full
    additive sweep tests membership in the image set A(F_q)."""
    ctx = cover.ctx
    sample = sample_points(ctx)
    if cover.kind == "additive" and len(sample) == ctx.q:
        image = {cover.op(z).coeffs for z in sample}
        hits = sum(cover.rhs[0].evaluate(y).coeffs in image for y in sample)
    else:
        hits = sum(splits_at(cover, y) for y in sample)
    return hits == len(sample), hits, len(sample)
