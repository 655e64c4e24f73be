"""The grading walk that computed ray class counts before the closed form.

Kept as an independent reference for `rayclass.pivot_profiles`: a
discrete logarithm pass (`digit_tensor`) strips every generator 1 - y Z
of H level by level, recording base-p digits against the twisted basis
b_j^(p^k) at level w = v p^k, and one echelon walk per k (`_walk`)
counts the pivots of U^(p^k) H per level.  `walk_profile` assembles the
two.  The walk enumerates F_q and is slow; use small fields only.
"""

import functools
import math

import numpy as np

from wildram.errors import ResourceLimit


def _vp(w, p):
    k = 0
    while w % p == 0:
        w //= p
        k += 1
    return w, k


# an int64 digit tensor bigger than this is refused before it is built
TENSOR_BYTE_LIMIT = 2 ** 30
_TENSOR_CACHE = {}


def digit_tensor(ctx, m):
    """Digits S[y, w, j] of the generators 1 - y Z, level by level.

    Row order is the nonzero field elements in coefficient order.  Entry
    (y, w, j) is the exponent digit of (1 + b_j^(p^k) Z^w) at level
    w = v p^k.  Levels below m never depend on the modulus, so the cache
    keeps the widest run per field.
    """
    key = (ctx.p, ctx.e)
    cached = _TENSOR_CACHE.get(key)
    if cached is not None and cached.shape[1] >= m:
        return cached[:, :m, :]
    p, e = ctx.p, ctx.e
    q = p ** e
    size = (q - 1) * m * e * 8
    if size > TENSOR_BYTE_LIMIT:
        raise ResourceLimit("digit tensor for F_%d^%d at modulus %d needs "
                            "%d bytes, over the limit of %d"
                            % (p, e, m, size, TENSOR_BYTE_LIMIT))
    ys = [y for y in ctx.elements() if y]
    R = np.zeros((q - 1, m, e), dtype=np.int64)
    R[:, 0, 0] = 1
    if m > 1:
        R[:, 1, :] = [(-y).coeffs for y in ys]
    S = np.zeros_like(R)

    @functools.cache
    def series(k, j, d):
        # (1 + beta Z^w)^(-d) = sum_t c_t beta^t Z^(wt), beta = b_j^(p^k):
        # the multipliers of c_t beta^t do not depend on the level w, and
        # the least level of valuation k, w = p^k, has the longest span
        beta = (ctx.gen ** j).frobenius(k)
        bpow, out = ctx.one, []
        for t in range(1, (m - 1) // p ** k + 1):
            bpow = bpow * beta
            c = (-1) ** t * math.comb(d + t - 1, t) % p
            if c:
                # matrix of x -> alpha x, row i the image of X^i
                alpha, rows = bpow * c, []
                for _ in range(e):
                    rows.append(alpha.coeffs)
                    alpha = alpha * ctx.gen
                out.append((t, np.array(rows, dtype=np.int64)))
        return out

    for w in range(1, m):
        v, k = _vp(w, p)
        # coordinates against b_j^(p^k): undo the Frobenius power
        unfrob = [ctx.elem([0] * i + [1]).frobenius(-k).coeffs
                  for i in range(e)]
        digits = (R[:, w, :] % p) @ np.array(unfrob, dtype=np.int64) % p
        S[:, w, :] = digits
        span = (m - 1) // w
        for j in range(e):
            for d in range(1, p):
                rows = np.nonzero(digits[:, j] == d)[0]
                if not len(rows):
                    continue
                src = R[rows]
                acc = src.copy()
                for t, mat in series(k, j, d):
                    if t > span:
                        break
                    acc[:, w * t:, :] = (
                        acc[:, w * t:, :] + src[:, :m - w * t, :] @ mat) % p
                R[rows] = acc
        assert not R[:, w, :].any(), "level %d not stripped" % w
    assert not R[:, 1:, :].any(), "generators must reduce to 1"
    _TENSOR_CACHE[key] = S
    return S


def _chains(p, e, m):
    """[(v, l_v, column offset)] for the cyclic chains of U mod Z^m."""
    out = []
    off = 0
    for v in range(1, m):
        if v % p == 0:
            continue
        ell = 0
        w = v
        while w < m:
            ell += 1
            w *= p
        out.append((v, ell, off))
        off += e
    return out


def _assemble(ctx, m, tensor):
    """Generator rows of H in chain coordinates, with per-column moduli."""
    p, e = ctx.p, ctx.e
    chains = _chains(p, e, m)
    width = e * len(chains)
    X = np.zeros((tensor.shape[0], width), dtype=np.int64)
    mods = np.zeros(width, dtype=np.int64)
    for v, ell, off in chains:
        mods[off:off + e] = p ** ell
        w, pk = v, 1
        for _ in range(ell):
            X[:, off:off + e] += tensor[:, w, :] * pk
            w *= p
            pk *= p
    return X, mods, chains


def _walk(ctx, M, k, X, mods, chains):
    """Pivots per level of the echelon walk for U^(p^k) H mod Z^M."""
    p, e = ctx.p, ctx.e
    by_v = {v: (ell, off) for v, ell, off in chains}
    cap = X.shape[0] + e * (M - 1) + 8
    buf = np.zeros((cap, X.shape[1]), dtype=np.int64)
    buf[:X.shape[0]] = X % mods
    used = X.shape[0]
    active = np.zeros(cap, dtype=bool)
    active[:used] = True
    pivots = [0] * M
    for w in range(1, M):
        v, kk = _vp(w, p)
        ell, off = by_v[v]
        pk = p ** kk
        idx = np.nonzero(active[:used])[0]
        if not len(idx):
            continue
        digits = (buf[idx, off:off + e] // pk) % p
        if kk >= k:
            # seeded level: U^(p^k) covers it, clear exactly by coordinates
            buf[idx, off:off + e] -= digits * pk
            continue
        pending = []
        live = np.ones(len(idx), dtype=bool)
        for j in range(e):
            nz = np.nonzero(live & (digits[:, j] != 0))[0]
            if not len(nz):
                continue
            r = nz[0]
            inv = pow(int(digits[r, j]), -1, p)
            rest = nz[1:]
            if len(rest):
                mu = (digits[rest, j] * inv) % p
                rows = idx[rest]
                buf[rows] = (buf[rows] - mu[:, None] * buf[idx[r]]) % mods
                digits[rest] = (digits[rest] - mu[:, None] * digits[r]) % p
            pivots[w] += 1
            active[idx[r]] = False
            live[r] = False
            re = (p * buf[idx[r]]) % mods
            if re.any():
                pending.append(re)
        for row in pending:
            if used == cap:
                buf = np.concatenate([buf, np.zeros_like(buf)])
                active = np.concatenate([active, np.zeros(cap, dtype=bool)])
                cap *= 2
            buf[used] = row
            active[used] = True
            used += 1
    return pivots


def walk_profile(ctx, M, k):
    """Pivots per level of the walk for U^(p^k) H mod Z^M."""
    X, mods, chains = _assemble(ctx, M, digit_tensor(ctx, M))
    return _walk(ctx, M, k, X, mods, chains)
