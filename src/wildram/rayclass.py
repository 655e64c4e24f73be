"""Ray class groups of the rational function field, split at every
rational place, with conductor m at the place at infinity.

In the uniformizer Z = 1/x the group is U/H where U = 1 + Z F_q[Z]/Z^m
is the truncated one-unit group and H is generated by the q - 1 images
1 - y*Z of the functions x - y.  U is the direct sum over chains
v < m, p not dividing v, of (Z/p^l_v)^e with l_v = #{k : v p^k < m},
on the generators 1 + b_j Z^v for a basis b_j of F_q.

The engine has two halves.  A discrete logarithm pass strips every
generator of H level by level, recording base-p digits against the
twisted basis b_j^(p^k) at level w = v p^k.  Grading walks then measure
T_k = log_p |U^(p^k) H| up the levels: levels divisible by p^k are full
(seeded by U^(p^k), whose generators are exact basis multiples), and on
the remaining levels the active rows compete for at most e pivots each;
a retired pivot re-enters multiplied by p.  The invariant factor counts
fall out of first differences of T_k.

Reducing modulo Z^m is a quotient of both halves at any M >= m: digits
below level m do not depend on the modulus, the pivot choice at level w
reads only level-w digits, and rows that vanish below m never pivot
there.  So one pass, and one walk per k recording its pivots per level,
at the largest modulus serve every smaller conductor:

    T_k(m) = e * floor((m - 1) / p^k) + sum_{w < m} pivots_k(w)

A brute oracle enumerates H and all of U for small cases and reads the
invariants off order statistics; it shares no code with the engine.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import BadParameters, ResourceLimit, TooLarge
from .field import FqElem


# ---------------------------------------------------------------------------
# discrete logarithm pass

def _vp(w, p):
    k = 0
    while w % p == 0:
        w //= p
        k += 1
    return w, k


# an int64 digit tensor bigger than this is refused before it is built
TENSOR_BYTE_LIMIT = 2 ** 30
_TENSOR_CACHE = {}
_PROFILE_CACHE = {}


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
                out.append((t, ctx.mult_matrix(bpow * c)))
        return out

    for w in range(1, m):
        v, k = _vp(w, p)
        # coordinates against b_j^(p^k): undo the Frobenius power
        digits = (R[:, w, :] % p) @ np.array(ctx.frob_matrix(-k)) % p
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


def _kmax(p, m):
    """Least k with p^k >= m: U^(p^k) is trivial mod Z^m."""
    k = 0
    while p ** k < m:
        k += 1
    return k


def pivot_profiles(ctx, M, ks):
    """{k: pivots per level} of the grading walks for U^(p^k) H mod Z^M.

    Entry w < M of a profile counts the pivots the walk takes at level w;
    seeded levels (p^k dividing w) hold 0.  Every prefix is the profile
    at the smaller modulus, so the cache keeps the widest per k and only
    the missing ones walk, all on one digit tensor.
    """
    todo = [k for k in ks
            if len(_PROFILE_CACHE.get((ctx.p, ctx.e, k), ())) < M]
    if todo:
        X, mods, chains = _assemble(ctx, M, digit_tensor(ctx, M))
        for k in todo:
            _PROFILE_CACHE[ctx.p, ctx.e, k] = _walk(ctx, M, k, X, mods, chains)
    return {k: _PROFILE_CACHE[ctx.p, ctx.e, k][:M] for k in ks}


def _gradings(ctx, M, ks):
    """{k: T_k} with T_k[m] = log_p |U^(p^k) H| inside U mod Z^m, m <= M.

    Levels divisible by p^k are seeded full, e apiece; the others count
    the walk's pivots below m.
    """
    p, e = ctx.p, ctx.e
    return {k: [e * ((m - 1) // p ** k) + s
                for m, s in enumerate(itertools.accumulate(prof, initial=0))]
            for k, prof in pivot_profiles(ctx, M, ks).items()}


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


def ray_class_invariants(ctx, m, resource_cap=None, order_only=False):
    """Invariant factors and counts for the split ray class group mod Z^m.

    Returns a dict with order_exp (log_p of the group order), invariants
    (invariant factor orders, descending), exponent, and n_places, the
    rational place count 1 + q * order of the associated covering curve.
    order_only skips everything except the top grading run, leaving
    invariants and exponent as None.
    """
    return ray_class_table(ctx, [m], resource_cap=resource_cap,
                           order_only=order_only)[0]


def ray_class_table(ctx, ms, resource_cap=None, order_only=False):
    """Rows of ray_class_invariants for each modulus in ms.

    One grading walk per k at the largest modulus serves every row;
    order_only needs only the walk for the top k.  Every modulus is
    checked against resource_cap before any walk starts.
    """
    ms = list(ms)
    p, e = ctx.p, ctx.e
    for m in ms:
        if m < 1:
            raise BadParameters("modulus exponent must be at least 1")
        if resource_cap is not None and m * e > resource_cap:
            raise ResourceLimit("modulus %d exceeds the configured cap" % m)
    top = max(ms, default=1)
    kmax = _kmax(p, top)
    ks = [kmax] if order_only else range(1, kmax + 1)
    T = _gradings(ctx, top, ks) if top > 1 else {}
    q = p ** e
    rows = []
    for m in ms:
        if order_only and m > 1:
            # U^(p^kmax) is trivial mod Z^m, so T[kmax][m] = log_p |H|
            order_exp = e * (m - 1) - T[kmax][m]
            rows.append({"m": m, "order_exp": order_exp, "invariants": None,
                         "exponent": None, "n_places": 1 + q * p ** order_exp})
            continue
        km = _kmax(p, m)
        ts = [e * (m - 1)] + [T[k][m] for k in range(1, km + 1)]
        order_exp = ts[0] - ts[-1]
        ranks = [ts[k] - ts[k + 1] for k in range(km)]  # factors of order > p^k
        invs = []
        for j in range(km, 0, -1):
            count = ranks[j - 1] - (ranks[j] if j < km else 0)
            invs.extend([p ** j] * count)
        assert sum(ranks) == order_exp
        rows.append({"m": m, "order_exp": order_exp, "invariants": tuple(invs),
                     "exponent": invs[0] if invs else 1,
                     "n_places": 1 + q * p ** order_exp})
    return rows


def find_second_jump(ctx, cap=None):
    """Least modulus where the group acquires a factor of order p^2.

    That is the least m with T_1(m) - T_2(m) > 0, read off one k = 1 and
    one k = 2 walk.  The first walk runs just past the square-exponent
    law p^(ceil(e/2)+1) + p + 1; only if no jump shows up to there does
    the bracket double, up to cap (default: twice the law).
    """
    p, e = ctx.p, ctx.e
    if cap is None:
        cap = 2 * (p ** ((e + 1) // 2 + 1) + p + 1)
    hi = min(cap, p ** ((e + 1) // 2 + 1) + p + 2)
    while True:
        if hi >= 2:
            T = _gradings(ctx, hi, (1, 2))
            for m in range(2, hi + 1):
                if T[1][m] - T[2][m] > 0:
                    return m
        if hi == cap:
            raise ResourceLimit("no order-p^2 factor up to modulus %d" % cap)
        hi = min(cap, 2 * hi)


def format_table_csv(rows):
    """CSV text for a list of invariant rows; LF newlines, no trailing pad."""
    lines = ["m,order_exp,exponent,invariants,N_m"]
    for r in rows:
        # order-only rows carry None for the factor data
        inv = "" if r["invariants"] is None else \
            ";".join(str(v) for v in r["invariants"])
        exp = "" if r["exponent"] is None else str(r["exponent"])
        lines.append("%d,%d,%s,%s,%d" % (r["m"], r["order_exp"], exp,
                                         inv, r["n_places"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# brute oracle, no shared code with the engine past the field itself

def brute_ray_class(ctx, m, cap=2 ** 20):
    """Ray class invariants by full enumeration of U and closure of H."""
    p, e = ctx.p, ctx.e
    q = p ** e
    size_u = q ** (m - 1)
    if size_u > cap:
        raise TooLarge("unit group of order %d exceeds the brute cap" % size_u)
    if m == 1:
        return {"m": 1, "order_exp": 0, "invariants": (), "exponent": 1,
                "n_places": 1 + q}

    elems = list(ctx.elements())
    mul_cache = {}

    def fmul(a, b):
        r = mul_cache.get((a, b))
        if r is None:
            r = (FqElem(ctx, a) * FqElem(ctx, b)).coeffs
            mul_cache[(a, b)] = r
        return r

    zero = ctx.zero.coeffs
    one = ctx.one.coeffs

    def umul(u, w):
        out = [zero] * m
        for i, a in enumerate(u):
            if a == zero:
                continue
            for j in range(m - i):
                b = w[j]
                if b != zero:
                    prod = fmul(a, b)
                    cur = out[i + j]
                    out[i + j] = tuple((x + y) % p for x, y in zip(cur, prod))
        return tuple(out)

    gens = []
    for y in elems:
        if y:
            gens.append(tuple([one, (-y).coeffs] + [zero] * (m - 2)))
    ident = tuple([one] + [zero] * (m - 1))
    group = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                x = umul(h, g)
                if x not in group:
                    group.add(x)
                    new.append(x)
        frontier = new
    h_size = len(group)

    def upow_p(u, k):
        step = p ** k
        out = [zero] * m
        for i, a in enumerate(u):
            if a != zero and i * step < m:
                out[i * step] = FqElem(ctx, a).frobenius(k).coeffs
        return tuple(out)

    kmax = 0
    while p ** kmax < m:
        kmax += 1
    counts = [0] * (kmax + 1)
    for tail in itertools.product(elems, repeat=m - 1):
        u = tuple([one] + [t.coeffs for t in tail])
        for k in range(kmax + 1):
            if (u if k == 0 else upow_p(u, k)) in group:
                counts[k] += 1
    # counts[k]/|H| = #elements of the quotient killed by p^k
    s = [round(math.log(c // h_size, p)) for c in counts]
    assert all(p ** sk * h_size == c for sk, c in zip(s, counts))
    ranks = [s[k + 1] - s[k] for k in range(kmax)]  # factors of order > p^k
    invs = []
    for j in range(kmax, 0, -1):
        count = ranks[j - 1] - (ranks[j] if j < kmax else 0)
        invs.extend([p ** j] * count)
    order_exp = round(math.log(size_u // h_size, p))
    assert p ** order_exp * h_size == size_u
    return {"m": m, "order_exp": order_exp, "invariants": tuple(invs),
            "exponent": invs[0] if invs else 1,
            "n_places": 1 + q * p ** order_exp}
