"""Ray class groups of the rational function field, split at every
rational place, with conductor m at the place at infinity.

In the uniformizer Z = 1/x the group is U/H where U = 1 + Z F_q[Z]/Z^m
is the truncated one-unit group and H is generated by the q - 1 images
1 - y*Z of the functions x - y.  A chain is an integer v < m with p not
dividing v, of length l_v = #{i : v p^i < m}; its coset is
{v p^s mod (q - 1)}, of size f_v dividing e, and its leader is the least
chain in the coset, which has the longest chain.  The counts
T_k = log_p |U^(p^k) H| have a closed form, from which the invariant
factor counts fall out as first differences:

    T_k(m) = sum over chains v of e * max(l_v - k, 0)
           + sum over leaders v of f_v * min(k, l_v)

These are the explicit computations of Lauter (ANTS-II, 1996) and Auer
(Acta Arith., 2000).  With the Artin-Hasse exponential E and the
Teichmueller lift [y] (Serre, Local Fields), the proof has three steps.

1. (a_v) -> prod_v E(a_v Z^v) identifies the direct sum over chains of
   W_{l_v}(F_q) with U.  It respects the level filtration, and p^k U
   corresponds to U^(p^k).
2. 1 - t = prod_v E(t^v)^(-1/v), so 1 - yZ has coordinates
   (-[y]^v / v)_v.  Rescaling chain v by the unit -v is an automorphism
   of U that fixes U^(p^k), so H may be taken as the Z_p-span of the
   vectors ([y]^v)_v, y in F_q^*.
3. q - 1 is a unit in W(F_q), so the discrete Fourier transform over
   F_q^* is invertible there; with Frobenius descent it splits H into
   one summand per coset C, a copy of W(F_(p^f))/p^L (f the coset size,
   L its leader's length) embedded in the chains of C through Frobenius
   twists.  Frobenius preserves valuation, so the summand meets p^k U
   in p^min(k, L) times itself: it adds f * min(k, L) to T_k.

Leader status does not depend on m, so the first sum counts levels
divisible by p^k and the second the levels w = v p^i, i < k, of leaders:

    T_k(m) = e * floor((m - 1) / p^k) + sum_{w < m} pivots_k(w)

and every prefix of a profile pivots_k serves every smaller conductor.

A brute oracle closes H in a bitmap over U for small cases, never
enumerating U itself: one generator at a time, coset by coset, so each
element of H is made once, by one product.  It reads the invariants off
the counts
#{u : u^(p^k) in H} = |H n im phi_k| * q^((m-1) - floor((m-1)/p^k)),
phi_k being u -> u^(p^k), whose kernel has that size and whose image is
the units supported on exponents divisible by p^k.  The brute cap
bounds the bitmap's bytes.  It shares no code with the engine.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BadParameters, ResourceLimit, TooLarge
from .field import cyclotomic_coset


# profiles and tables stop at this modulus; the largest any workload or
# test asks for is a few thousand
MODULUS_LIMIT = 2 ** 16


def _kmax(p, m):
    """Least k with p^k >= m: U^(p^k) is trivial mod Z^m."""
    k = 0
    while p ** k < m:
        k += 1
    return k


def pivot_profiles(ctx, M, ks):
    """{k: pivots per level} of U^(p^k) H mod Z^M, levels 0 <= w < M.

    Level w = v p^i holds f_v when the chain v is its coset's leader and
    i < k, and 0 otherwise; every prefix is the profile at the smaller
    modulus.
    """
    p, n = ctx.p, ctx.p ** ctx.e - 1
    profiles = {k: [0] * M for k in ks}
    seen = set()
    for v in range(1, M):
        u = (v - 1) % n + 1
        if v % p == 0 or u in seen:
            continue
        coset = cyclotomic_coset(u, p, n)
        seen.update(coset)
        w, i = v, 0
        while w < M:
            for k in ks:
                if i < k:
                    profiles[k][w] = len(coset)
            w, i = w * p, i + 1
    return profiles


def _gradings(ctx, M, ks):
    """{k: T_k} with T_k[m] = log_p |U^(p^k) H| inside U mod Z^m, m <= M.

    Levels divisible by p^k are full, e apiece; the others count the
    profile's pivots below m.
    """
    p, e = ctx.p, ctx.e
    return {k: [e * ((m - 1) // p ** k) + s
                for m, s in enumerate(itertools.accumulate(prof, initial=0))]
            for k, prof in pivot_profiles(ctx, M, ks).items()}


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

    One profile per k at the largest modulus serves every row;
    order_only needs only the profile for the top k.  The largest modulus
    is checked against MODULUS_LIMIT, and every modulus against
    resource_cap, before any work starts.
    """
    ms = ms if isinstance(ms, range) else list(ms)
    # a range's extremes are its ends, so a huge one is refused unlisted
    ends = (ms[0], ms[-1]) if isinstance(ms, range) and ms else ms
    if min(ends, default=1) < 1:
        raise BadParameters("modulus exponent must be at least 1")
    top = max(ends, default=1)
    if top > MODULUS_LIMIT:
        raise ResourceLimit("modulus %d is over the limit of %d"
                            % (top, MODULUS_LIMIT))
    p, e = ctx.p, ctx.e
    for m in ms:
        if resource_cap is not None and m * e > resource_cap:
            raise ResourceLimit("modulus %d exceeds the configured cap" % m)
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

    That is the least m with T_1(m) - T_2(m) > 0, scanned on the k = 1
    and k = 2 profiles up to cap (default: twice the square-exponent law
    p^(ceil(e/2)+1) + p + 1) or MODULUS_LIMIT, whichever is smaller.
    """
    p, e = ctx.p, ctx.e
    if cap is None:
        cap = 2 * (p ** ((e + 1) // 2 + 1) + p + 1)
    stop = min(cap, MODULUS_LIMIT)
    T = _gradings(ctx, stop, (1, 2))
    for m in range(2, stop + 1):
        if T[1][m] - T[2][m] > 0:
            return m
    raise ResourceLimit("no order-p^2 factor up to modulus %d%s" % (
        stop, "" if stop == cap else ", the modulus limit"))


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

def _times_unit(rows, y, mul, sub, one):
    """The units in rows, as digit rows, times 1 - yZ: digit i becomes
    a_i - y a_(i-1), with a_0 = 1."""
    prev = np.hstack([np.full((len(rows), 1), one), rows[:, :-1]])
    return sub[rows, mul[y][prev]]


def brute_ray_class(ctx, m, cap=2 ** 20):
    """Ray class invariants by closing H inside U, never enumerating U.

    H is closed under the generators 1 - yZ in a bitmap with one byte per
    unit of U, using q x q product and difference tables.  U is abelian,
    so with H' the group closed so far and g = 1 - yZ, the cosets H' g^i
    are disjoint until the least r with g^r in H'; each new coset is the
    last one times g, and its first row, g^i, is tested before the rest
    is built.  That is |H| + q - 2 unit products in all.  cap bounds the
    bitmap's bytes and, for m >= 2, the tables' q^2 entries; a larger U
    or field raises TooLarge before either is built.  With phi_k the map
    u -> u^(p^k), whose image is the units supported on exponents
    divisible by p^k and whose kernel has order q^((m-1) - floor((m-1)/p^k)),
    #{u : u^(p^k) in H} is |H n im phi_k| * |ker phi_k|.
    """
    if m < 1:
        raise BadParameters("modulus exponent must be at least 1")
    p, e = ctx.p, ctx.e
    q = p ** e
    size_u = q ** (m - 1)
    if size_u > cap:
        raise TooLarge("unit group of order %d exceeds the brute cap" % size_u)
    if m == 1:
        return {"m": 1, "order_exp": 0, "invariants": (), "exponent": 1,
                "n_places": 1 + q}
    if q * q > cap:
        raise TooLarge("tables of %d entries exceed the brute cap" % q ** 2)

    # a unit 1 + a_1 Z + ... is a row of indices of a_i in elems, and its
    # code in the bitmap is the row read base q
    elems = list(ctx.elements())
    assert not elems[0]
    index = {x: i for i, x in enumerate(elems)}
    mul = np.array([[index[x * y] for y in elems] for x in elems])
    sub = np.array([[index[x - y] for y in elems] for x in elems])
    one = index[ctx.one]
    weights = q ** np.arange(m - 1, dtype=np.int64)
    seen = np.zeros(size_u, dtype=bool)
    seen[0] = True
    # H' closed so far, identity first
    group = np.zeros((1, m - 1), dtype=np.int64)
    for y in range(1, q):
        cosets = [group]
        while True:
            lead = _times_unit(cosets[-1][:1], y, mul, sub, one)
            if seen[lead @ weights][0]:
                break
            coset = np.vstack([lead, _times_unit(cosets[-1][1:], y, mul, sub,
                                                 one)])
            seen[coset @ weights] = True
            cosets.append(coset)
        group = np.concatenate(cosets)
    h_size = len(group)

    kmax = 0
    while p ** kmax < m:
        kmax += 1
    counts = [h_size]
    for k in range(1, kmax + 1):
        step = p ** k
        image = np.zeros(1, dtype=np.int64)
        for i in range(step, m, step):
            image = (image[:, None] + np.arange(q) * weights[i - 1]).ravel()
        counts.append(int(np.count_nonzero(seen[image]))
                      * q ** ((m - 1) - (m - 1) // step))
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
