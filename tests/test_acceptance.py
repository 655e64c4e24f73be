"""Acceptance gate: one test per headline claim, at the stated tolerance.

Each test prints a single PASS line on success; run with -v for the
per-criterion pass/fail summary.  Criterion 8 is the heaviest.
"""

import math
import random
import time
from fractions import Fraction

from wildram import cli
from wildram.additive import (
    linearize_kernel,
    palindromic_adjoint,
    splitting_degree,
    translation_test,
)
from wildram.cover import (
    CoverSpec,
    base_change,
    cover_genus,
    family_build,
    tower_compose,
)
from wildram.field import FqPoly, make_field, reduce_pth_powers
from wildram.ramify import (
    hasse_arf_check,
    herbrand_convert,
    hurwitz_genus,
    ladder_filtration,
    tower_genus,
)
from wildram.rayclass import (
    brute_ray_class,
    find_second_jump,
    ray_class_invariants,
)
from wildram.witt import psi_carry, witt_ring
from wildram import _expected
from wildram.additive import AdditiveOp

_CACHE = {}


def _family(p, e, kind, witt_len=2):
    key = (p, e, kind, witt_len)
    if key not in _CACHE:
        ctx = make_field(p, e)
        fam = family_build(ctx, kind, witt_len=witt_len)
        _CACHE[key] = (fam, tower_compose(fam["items"]))
    return _CACHE[key]


def test_criterion_01_table_reproduction(tmp_path):
    out = tmp_path / "table.txt"
    start = time.monotonic()
    code = cli.main(["reproduce-table", "--p", "5", "--e", "4",
                     "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed <= 120.0, "single-threaded budget exceeded: %.1fs" % elapsed
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("PASS")
    rows = {}
    for line in lines[1:]:
        if "," not in line:
            break
        cells = line.split(",")
        rows[int(cells[0])] = int(cells[1])
    for first_m, last_m, order_exp in _expected.TABLE_ROWS:
        rep = first_m if first_m > 0 else last_m
        assert rows[rep] == order_exp, (rep, rows[rep], order_exp)
    nontrivial = sorted(v for v in rows.values() if v)
    assert nontrivial == [2, 6, 8, 12, 16, 18, 22, 26, 30, 32, 36, 40,
                          44, 48, 50]
    print("PASS criterion 1: table orders exact, %.1fs of 120s" % elapsed)


def test_criterion_02_full_tower_ratio():
    _, tower = _family(5, 4, "table-full")
    q = 5 ** 4
    ratio = Fraction(q * tower["degree"], tower["genus"])
    assert tower["degree"] == 5 ** 50
    assert abs(ratio - Fraction(96929, 10000)) <= Fraction(5, 10000)
    print("PASS criterion 2: |G|/g = %.6f within 5e-4 of 9.6929"
          % float(ratio))


def test_criterion_03_subfamily():
    fam, tower = _family(5, 4, "jump2-even")
    p, e = 5, 4
    s, q = e // 2, p ** e
    assert tower["degree"] == p ** 18  # [L:K] with 18 = 2 + (p-1)e
    # invariant factors read off the construction: the Witt pair gives
    # one Z/p^2 swallowing its own leading coordinate (the w0 item),
    # every other character class is an independent Z/p
    invs = []
    for item in fam["items"]:
        if item.cover.kind == "witt" and item.cover.op == 2:
            invs.append(p ** 2)
        elif item.cover.kind == "witt":
            continue  # leading coordinate of the pair
        else:
            invs.extend([p] * len(item.levels()))
    invs.sort(reverse=True)
    assert tuple(invs) == (p ** 2,) + (p,) * ((p - 1) * e)
    assert math.prod(invs) == tower["degree"]
    closed = (p ** (2 + 2 * s * (p - 1)) * (p ** (s + 1) + p - 1)
              - p ** s * (p * p - p + 1)
              - p ** (2 * s + 1) * sum(q ** i for i in range(p - 1))) // 2
    assert closed == tower["genus"]
    ratio = Fraction(q * tower["degree"], tower["genus"])
    assert abs(ratio - Fraction(97049, 10000)) <= Fraction(5, 10000)
    print("PASS criterion 3: [L:K]=5^18, invariants (25,5^16), closed "
          "genus %d, ratio %.6f" % (closed, float(ratio)))


def _brute_second_jump(ctx):
    m = 2
    while True:
        row = brute_ray_class(ctx, m)
        if row["exponent"] > ctx.p:
            return m
        m += 1


def _law(p, e):
    return p ** (math.ceil(e / 2) + 1) + p + 1


def test_criterion_04_second_jump_law():
    # every p in {2, 3, 5, 7} and e <= 8 with a law value of at most 3000,
    # and a few wider fields
    pairs = [(p, e) for p in (2, 3, 5, 7) for e in range(1, 9)
             if _law(p, e) <= 3000]
    pairs += [(2, 9), (2, 10), (2, 11), (2, 12), (3, 9), (3, 10), (11, 2),
              (13, 3)]
    assert len(pairs) == 36
    for p, e in pairs:
        ctx = make_field(p, e)
        want = _law(p, e)
        assert find_second_jump(ctx) == want, (p, e)
        if (p, e) in [(2, 1), (2, 2), (3, 1)]:
            assert _brute_second_jump(ctx) == want
    print("PASS criterion 4: m2 = p^(ceil(e/2)+1)+p+1 at %d (p, e) pairs,"
          " brute-matched at (2,1),(2,2),(3,1)" % len(pairs))


def test_criterion_05_trivial_range():
    for p, e in [(2, 2), (3, 1), (5, 4)]:
        ctx = make_field(p, e)
        r = p ** math.ceil(e / 2)
        for m in range(2, r + 2):
            row = ray_class_invariants(ctx, m, order_only=True)
            assert row["order_exp"] == 0, (p, e, m)
    print("PASS criterion 5: trivial groups through m = r+1 at "
          "(2,2), (3,1), (5,4)")


def test_criterion_06_oracle_equivalence():
    # the declared universe: every m >= 2 with q^(m-1) <= 2^22 over the
    # six smallest field contexts used across the suite
    pairs = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
    instances = 0
    for p, e in pairs:
        ctx = make_field(p, e)
        q = p ** e
        m = 2
        while q ** (m - 1) <= 2 ** 22:
            engine = ray_class_invariants(ctx, m)
            brute = brute_ray_class(ctx, m, cap=2 ** 22)
            assert engine["invariants"] == brute["invariants"], (p, e, m)
            assert engine["order_exp"] == brute["order_exp"], (p, e, m)
            instances += 1
            m += 1
    assert instances == 68
    print("PASS criterion 6: engine == brute oracle on %d instances"
          % instances)


def test_criterion_07_two_route_genus():
    towers = [_family(5, 4, "table-full")[1],
              _family(5, 4, "jump2-even")[1],
              _family(3, 2, "jump2-even")[1],
              _family(2, 1, "jump2-odd")[1],
              _family(3, 1, "jump2-odd")[1],
              _family(2, 3, "jump2-odd")[1],
              _family(3, 2, "exponent-pn", witt_len=3)[1]]
    checked = 0
    for tower in towers:
        filt = tower["filtration"]
        assert hasse_arf_check(filt)
        assert hurwitz_genus(herbrand_convert(filt)) == tower["genus"]
        checked += 1
    # every table row: the sub-tower K_S^m for each jump conductor
    ladder = [(m, 5 ** k) for m, k in _expected.LADDER]
    for stop in range(1, len(ladder) + 1):
        prefix = ladder[:stop]
        filt = ladder_filtration(prefix)
        assert hasse_arf_check(filt)
        assert hurwitz_genus(herbrand_convert(filt)) == tower_genus(prefix)
        checked += 1
    print("PASS criterion 7: hurwitz(herbrand) == tower_genus on %d "
          "towers, hasse-arf everywhere" % checked)


def test_criterion_08_palindromic_law():
    rng = random.Random(88)
    grid = [(p, s) for p in (2, 3, 5) for s in (1, 2)]
    done = 0
    while done < 100:
        p, s = grid[done % len(grid)]
        e = rng.choice([1, 2])
        ctx = make_field(p, e)
        coeffs = [ctx.elem([rng.randrange(p) for _ in range(e)])
                  for _ in range(s + 1)]
        if coeffs[-1].is_zero():
            continue
        terms = {}
        for j, aj in enumerate(coeffs):
            if not aj.is_zero():
                terms[1 + p ** j] = aj
        c = ctx.elem([rng.randrange(p) for _ in range(e)])
        if not c.is_zero():
            terms[1] = terms.get(1, ctx.zero) + c
            if terms[1].is_zero():
                del terms[1]
        f = FqPoly(ctx, tuple(sorted(terms.items())))
        adj = palindromic_adjoint(f)
        assert adj.f_degree == 2 * s
        d = splitting_degree(adj, cap=400)
        assert d is not None
        N = math.lcm(d, e)
        ker = linearize_kernel(adj, N)
        assert ker.dim == 2 * s
        big = ker.field
        for y in ker.elements():
            assert translation_test(f, y)
        for _ in range(6):
            y = big.elem([rng.randrange(p) for _ in range(big.e)])
            assert translation_test(f, y) == adj.evaluate(y).is_zero()
        done += 1
    print("PASS criterion 8: dim Z(Ad_f) = 2s and kernel/translation "
          "equivalence on 100 instances")


def test_criterion_09_base_change():
    ctx = make_field(2, 1)
    cubic = CoverSpec(ctx, ("witt", 1), [FqPoly(ctx, ((3, ctx.one),))])
    assert cover_genus(cubic) == 1
    S = AdditiveOp(ctx, [ctx.one, ctx.one])  # Z^2 - Z in characteristic 2
    pulled = base_change(cubic, S)
    assert cover_genus(pulled) == 2
    # the displayed rhs -Z^2+2Z^3-Z^5 collapses mod 2 to Z^5+Z^2, whose
    # fully reduced representative strips Z^2 down to Z
    displayed = FqPoly(ctx, ((2, ctx.one), (5, ctx.one)))
    assert reduce_pth_powers(displayed)[0] \
        == reduce_pth_powers(pulled.rhs[0])[0]
    assert reduce_pth_powers(pulled.rhs[0])[0].terms \
        == ((1, ctx.one), (5, ctx.one))

    rng = random.Random(89)
    done = 0
    while done < 20:
        p, e = rng.choice([(2, 1), (2, 2), (3, 1), (5, 1)])
        fctx = make_field(p, e)
        deg = rng.choice([d for d in range(2, 9) if d % p])
        lead = fctx.elem([rng.randrange(p) for _ in range(e)])
        if lead.is_zero():
            continue
        cov = CoverSpec(fctx, ("witt", 1),
                        [FqPoly(fctx, ((deg, lead),))])
        scoeffs = [fctx.elem([rng.randrange(p) for _ in range(e)])
                   for _ in range(rng.randrange(2, 4))]
        S = AdditiveOp(fctx, scoeffs)
        if not S.separable or S.f_degree == 0:
            continue
        assert cover_genus(base_change(cov, S)) \
            == p ** S.f_degree * cover_genus(cov)
        done += 1
    print("PASS criterion 9: remark instance genus 1 -> 2 and the degree "
          "law on 20 random pullbacks")


def test_criterion_10_witt_ring():
    rng = random.Random(90)
    configs = [(2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 2, 2), (5, 1, 3),
               (5, 2, 2)]
    for p, e, n in configs:
        ctx = make_field(p, e)
        ring = witt_ring(ctx, n)
        zero, one = ring.zero, ring.one
        for _ in range(1000):
            draws = [[ctx.elem([rng.randrange(p) for _ in range(e)])
                      for _ in range(n)] for _ in range(3)]
            a, b, c = (ring.vec(d) for d in draws)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + zero == a and a * one == a
            assert a + (zero - a) == zero

    # ghost coordinates give a ring homomorphism to Z/p^(i+1)
    for p in (2, 3, 5):
        ctx = make_field(p, 1)
        ring = witt_ring(ctx, 3)

        def ghost(v, i):
            coords = [x.coeffs[0] for x in v.coords]
            return sum(p ** j * pow(coords[j], p ** (i - j), p ** (i + 1))
                       for j in range(i + 1)) % p ** (i + 1)

        for _ in range(100):
            a = ring.vec([ctx.elem([rng.randrange(p)]) for _ in range(3)])
            b = ring.vec([ctx.elem([rng.randrange(p)]) for _ in range(3)])
            for i in range(3):
                mod = p ** (i + 1)
                assert ghost(a + b, i) == (ghost(a, i) + ghost(b, i)) % mod
                assert ghost(a * b, i) == (ghost(a, i) * ghost(b, i)) % mod

    # carry polynomial facts: product form at p=2, unit coefficient at p=3
    ctx4 = make_field(2, 2)
    for a in ctx4.elements():
        for b in ctx4.elements():
            pa = FqPoly(ctx4, ((0, a),) if not a.is_zero() else ())
            pb = FqPoly(ctx4, ((0, b),) if not b.is_zero() else ())
            assert psi_carry(pa, pb) == pa * pb
    assert math.comb(3, 2) // 3 % 3 == 1
    ctx3 = make_field(3, 1)
    out = psi_carry(FqPoly.x(ctx3), FqPoly(ctx3, ((0, ctx3.one),)))
    assert out.coeff(2) == ctx3.elem([2])  # -c(2) with c(2) = 1
    print("PASS criterion 10: ring axioms (1000 triples x 6 configs), "
          "ghost homomorphism, carry facts")


def test_criterion_11_sieve():
    from wildram.bigaction import (
        ActionProfile,
        profile_from_levels,
        ratio_check,
        sieve,
    )
    from wildram.ramify import Filtration

    def verdicts(profile):
        return {rid: v for rid, v, _ in sieve(profile)}

    # cyclic second group of order p^2: the unconditional rule fires; built
    # below the quadratic regime so the gated rules stay out of the way
    cyclic = ActionProfile(3, Filtration("lower", [(1, 27), (7, 9)]),
                           v=1, g2_invariants=[9])
    v = verdicts(cyclic)
    assert v["cyclic-second-group"] == "reject"
    assert sum(x == "reject" for x in v.values()) == 1

    # |G_2| = p^4 > p^3 inside the quadratic regime, elementary abelian
    order = ActionProfile(2, Filtration("lower", [(1, 128), (3, 16)]),
                          v=3, g2_invariants=[2, 2, 2, 2])
    v = verdicts(order)
    assert v["second-group-order-bound"] == "reject"
    assert sum(x == "reject" for x in v.values()) == 1

    # shape [p^2, p] inside the regime: the shape rule and the exponent rule
    # state the same obstruction, so exactly those two fire
    mixed = ActionProfile(2, Filtration("lower", [(1, 32), (3, 8)]),
                          v=2, g2_invariants=[4, 2])
    v = verdicts(mixed)
    assert v["mixed-shape"] == "reject"
    assert v["second-group-exponent"] == "reject"
    assert sum(x == "reject" for x in v.values()) == 2

    # the extraspecial profile: exact quadratic ratio, big
    herm = profile_from_levels(3, [(5, 3)], v=2, g2_invariants=[3], s=1)
    rep = ratio_check(herm)
    assert rep.ratio2 == Fraction(4 * 3, (3 - 1) ** 2)
    assert rep.is_big
    assert set(v for _, v, _ in rep.sieve_verdicts) == {"pass"}

    # the exponent-p^2 subfamily profile passes every rule
    _, tower = _family(5, 4, "jump2-even")
    levels = [(m, d) for m, d, _ in tower["levels"]]
    prof = profile_from_levels(5, levels, v=4,
                               g2_invariants=(25,) + (5,) * 16, s=2)
    rep = ratio_check(prof)
    assert rep.is_big
    assert all(v != "reject" for _, v, _ in rep.sieve_verdicts)
    print("PASS criterion 11: three rejects fire exactly, extraspecial "
          "ratio2 = 4p/(p-1)^2, subfamily clean")
