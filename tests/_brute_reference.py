"""The brute oracle that enumerated all of U before it closed only H.

Kept as an independent reference for `rayclass.brute_ray_class`: it
closes H under the generators 1 - y Z as tuples of field coefficients,
then walks every unit u of U = 1 + Z F_q[Z]/Z^m and tests whether
u^(p^k) lies in H for each k.  The counts of those tests give the
invariant factors.  It costs q^(m-1) * (kmax + 1) membership tests; use
small cases only.
"""

import itertools
import math

from wildram.errors import TooLarge
from wildram.field import FqElem


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
