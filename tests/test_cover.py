"""Cover invariants, base change, and the built-in families."""

import functools
import hashlib
import math
import random
import time

import _character_reference as reference
import _split_reference
import pytest
from hypothesis import given, settings, strategies as st

from wildram import _expected, cli, cover, field
from wildram.additive import (AdditiveOp, KernelBasis, adjoint,
                              linearize_kernel)
from wildram.cover import (
    CoverSpec,
    FamilyItem,
    additive_characters,
    base_change,
    character_levels,
    conductor,
    cover_degree,
    cover_genus,
    family_build,
    normalized_witt_rhs,
    splits_everywhere,
    tower_compose,
    upper_filtration,
)
from wildram.errors import (BadParameters, DecompositionFailure,
                            ResourceLimit, ZeroCover)
from wildram.field import (
    FqPoly,
    extension_field,
    frobenius_trace,
    make_field,
    reduce_pth_powers,
)
from wildram.rayclass import ray_class_invariants
from wildram.witt import WittRing, witt2_sub


def _mono(ctx, pairs):
    terms = []
    for exp, c in pairs:
        el = ctx.elem(c) if isinstance(c, (list, tuple)) else ctx.elem([c])
        if not el.is_zero():
            terms.append((exp, el))
    return FqPoly(ctx, tuple(sorted(terms)))


def _wp_cover(ctx, rhs, label=""):
    return CoverSpec(ctx, ("witt", 1), [rhs], label=label)


def test_reduce_mod_wp_identity():
    rng = random.Random(51)
    for p, e in [(2, 2), (3, 1), (5, 1)]:
        ctx = make_field(p, e)
        for _ in range(30):
            terms = []
            for exp in rng.sample(range(1, 30), 4):
                c = ctx.elem([rng.randrange(p) for _ in range(e)])
                if not c.is_zero():
                    terms.append((exp, c))
            f = FqPoly(ctx, tuple(terms))
            red, const, wit = reduce_pth_powers(f)
            assert all(exp % p for exp, _ in red.terms)
            back = red + FqPoly(ctx, ((0, const),)) \
                + wit.pth_power() - wit
            assert back == f


def test_hermitian_cover():
    # y^5 + y = x^6 over F_25 has genus q(q-1)/2 = 10 and the relative
    # trace as its split map, so every rational place splits
    ctx = make_field(5, 2)
    op = AdditiveOp(ctx, [ctx.one, ctx.one])
    cov = CoverSpec(ctx, ("additive", op), [_mono(ctx, [(6, 1)])])
    assert cover_degree(cov) == 5
    assert conductor(cov) == 7
    assert character_levels(cov) == [(7, 5)]
    assert cover_genus(cov) == 10
    assert len(list(additive_characters(cov))) == 1
    assert upper_filtration(cov).segments == ((6, 5),)
    all_split, hits, total = splits_everywhere(cov)
    assert all_split and hits == total == 25


def test_full_trace_cover():
    # y^25 - y = x^26 over F_25: six rank-one characters spanning a
    # rank-2 group, every one with conductor 27
    ctx = make_field(5, 2)
    op = AdditiveOp(ctx, [-ctx.one, ctx.zero, ctx.one])
    cov = CoverSpec(ctx, ("additive", op), [_mono(ctx, [(26, 1)])])
    assert cover_degree(cov) == 25
    assert character_levels(cov) == [(27, 5), (27, 5)]
    assert cover_genus(cov) == 300
    assert len(list(additive_characters(cov))) == 6
    assert upper_filtration(cov).segments == ((26, 25),)
    # x^26 = x^2 on units never lands in the zero image of F^2 - 1
    all_split, hits, total = splits_everywhere(cov)
    assert (all_split, hits, total) == (False, 1, 25)


def test_cubic_base_change():
    # y^2 - y = x^3 over F_2 pulled back along x = z^2 - z
    ctx = make_field(2, 1)
    cov = _wp_cover(ctx, _mono(ctx, [(3, 1)]), label="cubic")
    assert conductor(cov) == 4
    assert cover_genus(cov) == 1
    S = AdditiveOp(ctx, [ctx.one, ctx.one])
    pulled = base_change(cov, S)
    assert {exp for exp, _ in pulled.rhs[0].terms} == {3, 4, 5, 6}
    red = reduce_pth_powers(pulled.rhs[0])[0]
    assert red.terms == ((1, ctx.one), (5, ctx.one))
    assert conductor(pulled) == 6
    assert cover_genus(pulled) == 2
    assert pulled.label.endswith("pullback")


def test_base_change_degree_law():
    rng = random.Random(52)
    count = 0
    while count < 20:
        p, e = rng.choice([(2, 1), (2, 2), (3, 1)])
        ctx = make_field(p, e)
        deg = rng.choice([d for d in range(2, 8) if d % p])
        lead = ctx.elem([rng.randrange(p) for _ in range(e)])
        if lead.is_zero():
            continue
        cov = _wp_cover(ctx, FqPoly(ctx, ((deg, lead),)))
        sdeg = rng.randrange(1, 3)
        coeffs = [ctx.elem([rng.randrange(p) for _ in range(e)])
                  for _ in range(sdeg + 1)]
        if coeffs[-1].is_zero():
            continue
        S = AdditiveOp(ctx, coeffs)
        if not S.separable:
            continue
        try:
            g0 = cover_genus(cov)
            g1 = cover_genus(base_change(cov, S))
        except ZeroCover:
            continue
        assert g1 == p ** S.f_degree * g0
        count += 1


def test_normalized_witt_rhs_is_exact_for_pairs():
    rng = random.Random(53)
    ctx = make_field(3, 1)
    zero = FqPoly.zero(ctx)
    for _ in range(25):
        f0 = _mono(ctx, [(rng.randrange(1, 12), rng.randrange(3)),
                         (9, rng.randrange(3))])
        f1 = _mono(ctx, [(rng.randrange(1, 12), rng.randrange(3))])
        cov = CoverSpec(ctx, ("witt", 2), [f0, f1])
        n0, n1 = normalized_witt_rhs(cov)
        assert all(exp % 3 or exp == 0 for exp, _ in n0.terms)
        assert all(exp % 3 or exp == 0 for exp, _ in n1.terms)
        # the rewrite differs from the input by Witt wp images only:
        # one length-2 wp pair for the leading witness, then a plain
        # second-coordinate wp which adds without carries
        _, _, wit0 = reduce_pth_powers(f0)
        wp_pair = witt2_sub((wit0.pth_power(), zero), (wit0, zero))
        corrected = witt2_sub((f0, f1), wp_pair)
        _, _, wit1 = reduce_pth_powers(corrected[1])
        assert n0 == corrected[0]
        assert n1 == corrected[1] - wit1.pth_power() + wit1


def test_witt_pair_conductor():
    # conductor of a length-2 vector doubles through the carry exponent
    ctx = make_field(2, 1)
    cov = CoverSpec(ctx, ("witt", 2),
                    [_mono(ctx, [(3, 1)]), FqPoly.zero(ctx)])
    assert character_levels(cov) == [(4, 2), (7, 2)]
    assert conductor(cov) == 7


def test_witt_ladder_matches_the_closed_form():
    # level j is 1 + max_{i<j} p^(j-1-i) M_i over the degrees M_i of the
    # nonzero coordinates, once the leading zero ones are dropped;
    # coordinates with exponents prime to p are already reduced, and a
    # constant term does not ramify
    rng = random.Random(63)
    seen_zero = 0
    for _ in range(80):
        p, n = rng.choice([2, 3, 5]), rng.randint(1, 6)
        ctx = make_field(p, rng.randint(1, 2))
        exps = [k for k in range(1, 30) if k % p]
        rhs = [_mono(ctx, [(k, [rng.randrange(1, p)] * ctx.e)
                           for k in [0] + rng.sample(exps, rng.randint(1, 3))])
               if rng.randrange(3) else FqPoly.zero(ctx) for _ in range(n)]
        degs = [max((k for k, _ in f.terms if k), default=None) for f in rhs]
        seen_zero += None in degs
        while degs and degs[0] is None:
            degs.pop(0)
        cov = CoverSpec(ctx, ("witt", n), rhs)
        if not degs:
            with pytest.raises(ZeroCover):
                character_levels(cov)
            continue
        want = [(1 + max(p ** (j - 1 - i) * m
                         for i, m in enumerate(degs[:j]) if m is not None), p)
                for j in range(1, len(degs) + 1)]
        assert character_levels(cov) == want
    assert seen_zero > 20


def test_long_witt_ladder_is_linear():
    # the length-10000 Witt cover of (x, 0, ..., 0) over F_3: level j has
    # conductor 1 + 3^(j-1), and a ladder that recomputes every power of
    # p at every level takes seconds
    ctx = make_field(3, 1)
    x = _mono(ctx, [(1, 1)])
    cov = CoverSpec(ctx, ("witt", 10000), [x] + [FqPoly.zero(ctx)] * 9999)
    start = time.perf_counter()
    levels = character_levels(cov)
    assert time.perf_counter() - start < 1
    assert levels[-1] == (1 + 3 ** 9999, 3) and len(levels) == 10000


def test_family_jump2_even_small():
    ctx = make_field(3, 2)
    fam = family_build(ctx, "jump2-even")
    assert fam["notes"]["m2"] == 13
    assert fam["notes"]["splits_at_rational_places"]
    tower = tower_compose(fam["items"])
    assert tower["degree"] == 729
    assert tower["genus"] == 3864
    assert tower["levels"] == [(5, 3, 3), (11, 9, 27), (12, 9, 243),
                               (13, 3, 729)]


def test_family_jump2_odd_small():
    expected = {
        (2, 1): (7, 15, 8, [(4, 2, 2), (6, 2, 4), (7, 2, 8)]),
        (3, 1): (13, 1257, 243,
                 [(5, 3, 3), (6, 3, 9), (11, 3, 27), (12, 3, 81),
                  (13, 3, 243)]),
        (2, 3): (11, 526, 128, [(6, 8, 8), (10, 8, 64), (11, 2, 128)]),
    }
    for (p, e), (m2, genus, degree, levels) in expected.items():
        ctx = make_field(p, e)
        fam = family_build(ctx, "jump2-odd")
        assert fam["notes"]["m2"] == m2
        assert fam["notes"]["splits_at_rational_places"]
        tower = tower_compose(fam["items"])
        assert tower["degree"] == degree
        assert tower["genus"] == genus
        assert tower["levels"] == levels


def test_family_towers_sit_inside_ray_class_groups():
    # cumulative tower degree at each conductor is bounded by the ray
    # class group order there, with equality at the first conductor
    for p, e, kind in [(2, 1, "jump2-odd"), (3, 1, "jump2-odd"),
                       (3, 2, "jump2-even")]:
        ctx = make_field(p, e)
        tower = tower_compose(family_build(ctx, kind)["items"])
        first = True
        for cond, _, cum in tower["levels"]:
            inv = ray_class_invariants(ctx, cond, order_only=True)
            assert cum <= p ** inv["order_exp"]
            if first:
                assert cum == p ** inv["order_exp"]
                first = False


def test_family_exponent_pn():
    ctx = make_field(3, 2)
    fam = family_build(ctx, "exponent-pn", witt_len=3)
    tower = tower_compose(fam["items"])
    assert tower["levels"] == [(5, 3, 3), (13, 3, 9), (37, 3, 27)]
    assert fam["notes"]["splits_at_rational_places"]


def test_family_table_full_shape():
    ctx = make_field(5, 4)
    fam = family_build(ctx, "table-full")
    assert len(fam["items"]) == 16
    assert fam["notes"]["m2"] == 131
    pair_conductors = [max(m for m, _ in it.levels())
                       for it in fam["items"] if it.marginal]
    assert pair_conductors == [131, 131]


def test_least_gamma_is_the_least_kernel_element(monkeypatch):
    # brute force over the field: x^(p^s) = -x, least coefficient tuple
    for p, e in [(2, 4), (2, 6), (3, 2), (3, 4), (5, 2), (5, 4), (7, 2)]:
        ctx, s = make_field(p, e), e // 2
        want = min((x for x in ctx.elements()
                    if x and x.frobenius(s) == -x), key=lambda x: x.coeffs)
        assert cover._least_gamma(ctx, s) == want

    # at (65537, 2) the kernel has 65537 elements: none is listed
    def no_listing(self):
        raise AssertionError("kernel elements enumerated")

    monkeypatch.setattr(KernelBasis, "elements", no_listing)
    assert cover._least_gamma(make_field(65537, 2), 1).coeffs == (1, 2)


def test_splits_at_and_everywhere():
    ctx = make_field(2, 1)
    cov = _wp_cover(ctx, _mono(ctx, [(3, 1)]))
    # x = 0 gives y^2 - y = 0, split; x = 1 gives y^2 - y = 1, inert
    splits = cover._split_test(cov, ctx)
    assert splits(ctx.zero)
    assert not splits(ctx.one)
    all_split, hits, total = splits_everywhere(cov)
    assert (all_split, hits, total) == (False, 1, 2)


def test_splitting_matches_reference():
    # trace rows of the adjoint kernel against solving A(w) = f(y), and
    # the ghost criterion at a point against the Witt trace of `vec`,
    # place by place, for split and non-split operators, Witt lengths 1-6
    # with some zero coordinates, at points of F_q and of F_(p^2e), and
    # over sampled fields
    rng = random.Random(56)
    fields = [(2, 3), (2, 4), (3, 2), (5, 2), (7, 1), (7, 2), (3, 8),
              (2, 12)]
    kinds = {"split": 0, "other": 0, "witt": 0}
    for trial in range(64):
        p, e = fields[trial % len(fields)]
        ctx = make_field(p, e)

        def rand(field=ctx):
            return field.elem([rng.randrange(p) for _ in range(field.e)])

        f = FqPoly(ctx, tuple((k, rand()) for k in
                              sorted(rng.sample(range(4 * p), 3))))
        if trial % 3 == 2:
            n = rng.randint(1, 6)
            rhs = [f] + [FqPoly(ctx, ((rng.randrange(3 * p), rand()),))
                         if rng.randrange(3) else FqPoly.zero(ctx)
                         for _ in range(n - 1)]
            cov = CoverSpec(ctx, ("witt", n), rhs)
            kinds["witt"] += 1
        else:
            d = rng.randint(1, min(3, e))
            if trial % 3:
                A = AdditiveOp(ctx, [rand() or ctx.one for _ in range(d + 1)])
            else:
                A = None
                while A is None:
                    A = _subspace_op(ctx, [rand() for _ in range(d)])
            cov = CoverSpec(ctx, ("additive", A), [f])
            split = linearize_kernel(A, e).dim == d
            kinds["split" if split else "other"] += 1
        big = extension_field(p, 2 * e)
        for E in (ctx, big):
            splits = cover._split_test(cov, E)
            for y in [rand(E) for _ in range(4)]:
                assert splits(y) == _split_reference.splits_at(cov, y)
        want = _split_reference.splits_everywhere(cov)
        if ctx.q > 2048 and cover._splits_at_every_place(cov):
            # proved from the coefficients; the sample can only agree
            assert splits_everywhere(cov) == (True, ctx.q, ctx.q)
            assert want == (True, 64, 64), cov.to_json()
        else:
            assert splits_everywhere(cov) == want, cov.to_json()
    assert min(kinds.values()) >= 10


def test_witt_place_takes_no_teichmueller_lift(monkeypatch):
    # (X^4 + X, 0, ..., 0) at length 60 over F_3^6: a place costs the 59
    # cubings of f_0(y) and no Teichmueller lift; zero coordinates cost
    # nothing
    ctx = make_field(3, 6)
    n = 60
    cov = CoverSpec(ctx, ("witt", n), [_mono(ctx, [(4, 1), (1, 1)])]
                    + [FqPoly.zero(ctx)] * (n - 1))
    test = cover._split_test(cov, ctx)
    calls, mul = [], WittRing._mul

    def counted(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    def refuse(*args):
        raise AssertionError("Teichmueller lift taken")

    monkeypatch.setattr(WittRing, "_mul", counted)
    monkeypatch.setattr(WittRing, "vec", refuse)
    monkeypatch.setattr(WittRing, "_teich", refuse)
    counts = []
    for y in random.Random(58).sample(list(ctx.elements()), 24):
        del calls[:]
        test(y)
        counts.append(len(calls))
    assert 0 < max(counts) <= 240


def test_split_test_embeds_the_rhs_once(monkeypatch):
    # places of F_(3^4) for covers over F_9: each predicate embeds its
    # right hand sides once, however many places it then tests; the two
    # sides of the Witt pair would evict each other from embed_poly's
    # one-entry memo if each place embedded them
    rng = random.Random(57)
    ctx, big = make_field(3, 2), extension_field(3, 4)
    calls = []
    embed = field._embed  # one coefficient's image, packed
    monkeypatch.setattr(field, "_embed",
                        lambda v, k, E: calls.append(v) or embed(v, k, E))
    pair = [_random_poly(rng, ctx, 3, 20), _random_poly(rng, ctx, 2, 20)]
    covers = [CoverSpec(ctx, ("witt", 2), pair),
              CoverSpec(ctx, ("additive", AdditiveOp(ctx, [-1, 0, 1])),
                        [_random_poly(rng, ctx, 3, 20)])]
    places = [big.elem([rng.randrange(3) for _ in range(4)])
              for _ in range(24)]
    for cov in covers:
        want = [_split_reference.splits_at(cov, y) for y in places]
        # a first predicate caches the additive operator's roots in big,
        # whose coefficients embed through _embed too
        cover._split_test(cov, big)
        counts = []
        for n in (2, 24):
            del calls[:]
            test = cover._split_test(cov, big)
            assert [test(y) for y in places[:n]] == want[:n]
            counts.append(len(calls))
        # the Witt pair misses the memo on both sides each time
        assert counts[0] == counts[1] and (counts[0] or cov.kind != "witt")


def _random_poly(rng, ctx, n, top):
    """n terms with exponents below top and random coefficients."""
    return FqPoly(ctx, tuple(
        (k, [rng.randrange(ctx.p) for _ in range(ctx.e)])
        for k in rng.sample(range(top), n)))


def _wp2(h, k):
    """wp((H, K)) = (H, K)^F - (H, K) for polynomial Witt pairs."""
    return witt2_sub((h.pth_power(), k.pth_power()), (h, k))


def test_split_criterion_matches_sweep():
    # the trace criterion against _split_test at every place, with
    # exponents up to 3q so that folding onto F_q is exercised.  Additive
    # covers take split and non-split operators and right hand sides
    # that are zero, constant, images A(H) + A(z) (which split), images
    # plus one term, and random.  Length-1 Witt covers are H^p - H + c
    # or random.  Random length-2 pairs rarely split, so about two thirds
    # of them have f_0 = H^p - H + c with Tr(c) = 0, the witness's path:
    # with f_1 random, or as wp((H, K)) + (0, d)
    rng = random.Random(58)
    fields = [(2, 1), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (3, 3),
              (5, 1), (5, 2), (7, 1), (7, 2), (2, 8)]
    tally = {kind: [0, 0] for kind in ("additive", "witt1", "witt2")}
    for trial in range(432):
        p, e = fields[trial % len(fields)]
        ctx = make_field(p, e)
        q, zero = ctx.q, FqPoly.zero(ctx)

        def rand():
            return ctx.elem([rng.randrange(p) for _ in range(e)])

        def const(c):
            return FqPoly(ctx, ((0, c),))

        kind = ("additive", "witt1", "witt2")[trial // len(fields) % 3]
        shape = rng.randrange(3)
        h = _random_poly(rng, ctx, 2, 3 * q)
        if kind == "additive":
            d = rng.randint(1, min(2, e))
            A = _subspace_op(ctx, [rand() for _ in range(d)]) \
                if rng.randrange(2) else None
            if A is None:  # dependent basis, or a random operator
                A = AdditiveOp(ctx, [rand() or ctx.one for _ in range(d + 1)])
            image = sum((h.pth_power(j) * a for j, a in enumerate(A.coeffs)),
                        const(A(rand())))
            f = [zero, const(rand()), image,
                 image + _random_poly(rng, ctx, 1, 3 * q),
                 _random_poly(rng, ctx, 3, 3 * q)][rng.randrange(5)]
            cov = CoverSpec(ctx, ("additive", A), [f])
        elif kind == "witt1":
            f = [h.pth_power() - h + const(rand()),
                 _random_poly(rng, ctx, 3, 3 * q)][shape % 2]
            cov = CoverSpec(ctx, ("witt", 1), [f])
        else:
            z = rand()
            h += const(z.frobenius() - z)
            if shape == 0:
                rhs = [_random_poly(rng, ctx, 3, 3 * q),
                       _random_poly(rng, ctx, 2, 3 * q)]
            elif shape == 1:
                rhs = [h.pth_power() - h, _random_poly(rng, ctx, 2, 3 * q)]
            else:
                f0, f1 = _wp2(h, _random_poly(rng, ctx, 1, 3 * q))
                rhs = [f0, f1 + const(rand() if rng.randrange(2)
                                      else ctx.zero)]
            cov = CoverSpec(ctx, ("witt", 2), rhs)
        got = cover._splits_at_every_place(cov)
        want = all(map(cover._split_test(cov, ctx), ctx.elements()))
        assert got == want, cov.to_json()
        tally[kind][want] += 1
    for kind, (other, split) in tally.items():
        assert split >= 20 and other >= 20, (kind, split, other)


@functools.lru_cache(maxsize=None)
def _teichmueller_difference(p, n):
    """Integer rows d_0, ..., d_{n-1} with coordinate j of the Witt
    vector [a] - [b] equal to sum_i d_j[i] a^i b^(p^j - i): the solution
    of the ghost equations sum_{j<=k} p^j z_j^(p^(k-j)) = a^(p^k) - b^(p^k)
    on forms homogeneous in a and b, index i the power of a."""
    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    def power(f, k):
        out = [1]
        while k:
            if k & 1:
                out = mul(out, f)
            k >>= 1
            if k:
                f = mul(f, f)
        return out

    rows = []
    for k in range(n):
        ghost = [-1] + [0] * (p ** k - 1) + [1]
        for j, z in enumerate(rows):
            ghost = [g - p ** j * c
                     for g, c in zip(ghost, power(z, p ** (k - j)))]
        assert all(c % p ** k == 0 for c in ghost)
        rows.append([c // p ** k for c in ghost])
    return rows


def _wp_teichmueller(ctx, n, k, c):
    """The coordinates of [H^p] - [H] = wp([H]) for H = c x^k, length n:
    the first is H^p - H, and the Witt trace of wp kills every place."""
    p, out = ctx.p, []
    for j, row in enumerate(_teichmueller_difference(p, n)):
        m = [(p - 1) * i + p ** j for i in range(len(row))]
        out.append(FqPoly(ctx, [(k * m[i], c ** m[i] * d)
                                for i, d in enumerate(row) if d % p]))
    return out


def test_ghost_criterion_matches_sweep_at_lengths_3_and_4():
    # the Galois-ring criterion against _split_test at every place, for
    # Witt lengths 3 and 4 over q <= 125.  Half the covers are
    # wp([H]) = [H^p] - [H] for a one-term H of exponent below 3q: the
    # first coordinate is H^p - H, so the deeper levels decide.  They
    # split as they are, with K^p - K added to the last coordinate (V^(n-1)
    # of an Artin-Schreier image adds without carries), or with a pair of
    # terms that vanishes on F_q added anywhere; one random term more in
    # a coordinate past the first mostly makes them fail.  The other half
    # are random, with exponents below 3q
    rng = random.Random(62)
    fields = [(2, 1), (2, 2), (2, 3), (2, 5), (2, 6), (3, 1), (3, 2),
              (3, 4), (5, 1), (5, 2), (5, 3), (7, 2)]
    tally = {n: [0, 0] for n in (3, 4)}
    for trial in range(480):
        p, e = fields[trial % len(fields)]
        ctx = make_field(p, e)
        q, n = ctx.q, 3 + trial % 2

        def rand():
            return ctx.elem([rng.randrange(p) for _ in range(e)])

        if trial // len(fields) % 2:
            k, c = rng.randrange(3 * q), rand() or ctx.one
            rhs = _wp_teichmueller(ctx, n, k, c)
            h = FqPoly(ctx, ((k, c),))
            assert rhs[0] == h.pth_power() - h
            shape = rng.randrange(4)
            if shape == 1:
                h = _random_poly(rng, ctx, 1, 3 * q)
                rhs[-1] += h.pth_power() - h
            elif shape == 2:
                u, d = rng.randrange(1, 3 * q), rand()
                rhs[rng.randrange(n)] += FqPoly(ctx, ((u + q - 1, d),
                                                      (u, -d)))
            elif shape == 3:
                rhs[rng.randrange(1, n)] += _random_poly(rng, ctx, 1, 3 * q)
        else:
            rhs = [_random_poly(rng, ctx, rng.randint(1, 3), 3 * q)
                   for _ in range(n)]
        cov = CoverSpec(ctx, ("witt", n), rhs)
        got = cover._splits_at_every_place(cov)
        want = all(map(cover._split_test(cov, ctx), ctx.elements()))
        assert got == want, cov.to_json()
        tally[n][want] += 1
    for n, (other, split) in tally.items():
        assert split >= 20 and other >= 20, (n, split, other)


def _counting_split_test(monkeypatch):
    """Patch cover._split_test to count the places it is asked about."""
    visited = []
    real = cover._split_test

    def counting(cov, E):
        test = real(cov, E)
        return lambda y: visited.append(y) or test(y)

    monkeypatch.setattr(cover, "_split_test", counting)
    return visited


def test_dense_pair_is_decided_by_the_sweep(monkeypatch):
    # an eight-term witness at p = 13 would take millions of carry
    # products against 169 place tests: the places decide, exactly
    ctx = make_field(13, 2)
    h = _random_poly(random.Random(59), ctx, 8, ctx.q)
    cov = CoverSpec(ctx, ("witt", 2),
                    [h.pth_power() - h, _mono(ctx, [(2, 1)])])
    hits = sum(map(cover._split_test(cov, ctx), ctx.elements()))
    visited = _counting_split_test(monkeypatch)
    assert cover._splits_at_every_place(cov) == (hits == ctx.q)
    assert visited
    assert splits_everywhere(cov) == (hits == ctx.q, hits, ctx.q)


def test_sweep_above_sampled_fields_is_exact(monkeypatch):
    # over F_3125 the places splits_everywhere counts are a sample of 64,
    # but ghost powers priced past the sweep must still be decided on all q
    # places: a pair wp((H, K)) splits everywhere, and adding (0, d) with
    # Tr(d) != 0 leaves no place split
    ctx = make_field(5, 5)
    rng = random.Random(60)
    f0, f1 = _wp2(_random_poly(rng, ctx, 2, 3 * ctx.q),
                  _random_poly(rng, ctx, 1, 3 * ctx.q))
    d = next(c for c in (ctx.gen ** i for i in range(ctx.e))
             if frobenius_trace(c))
    monkeypatch.setattr(cover, "_ghost_products", lambda *args: 10 ** 9)
    visited = _counting_split_test(monkeypatch)
    split = CoverSpec(ctx, ("witt", 2), [f0, f1])
    assert splits_everywhere(split) == (True, ctx.q, ctx.q)
    assert len(visited) == ctx.q
    inert = CoverSpec(ctx, ("witt", 2), [f0, f1 + FqPoly(ctx, ((0, d),))])
    assert splits_everywhere(inert) == (False, 0, 64)


def test_splitting_past_the_place_limit_is_refused():
    # a 40-term witness at (7, 8): its carries and the sweep of 5764801
    # places both cost more than the limit, so neither is started
    ctx = make_field(7, 8)
    h = _random_poly(random.Random(61), ctx, 40, ctx.q)
    cov = CoverSpec(ctx, ("witt", 2), [h.pth_power() - h, FqPoly.zero(ctx)])
    with pytest.raises(ResourceLimit):
        splits_everywhere(cov)


def test_witt_place_count_is_priced_before_it_starts(monkeypatch):
    # length 60 over F_729 failing at length 1: the dense cover's 729
    # places take 1770 p-th powers each, 5.2 million products, past the
    # budget, and no place is tested; the sparse one's take 59 and run
    ctx = make_field(3, 6)
    f0, g = _mono(ctx, [(4, 1), (1, 1)]), _mono(ctx, [(2, 1), (1, 1)])
    sparse = CoverSpec(ctx, ("witt", 60), [f0] + [FqPoly.zero(ctx)] * 59)
    dense = CoverSpec(ctx, ("witt", 60), [f0 + _mono(ctx, [(2, 1)])]
                      + [g] * 59)
    assert splits_everywhere(sparse) == (False, 28, 729)

    def refuse(*args):
        raise AssertionError("places tested before the count was priced")

    monkeypatch.setattr(cover, "_split_test", refuse)
    with pytest.raises(ResourceLimit):
        splits_everywhere(dense)


def test_witt_ring_past_the_work_budget_is_refused(monkeypatch):
    # W_250 over F_7^4 is priced at (n e + 2) n e log2 p slot products,
    # over the budget: it is refused before anything is built
    ctx = make_field(7, 4)
    assert (250 * 4 + 2) * 250 * 4 * math.log2(7) > cover._BUDGET

    def refuse(*args):
        raise AssertionError("built before the work estimate")

    monkeypatch.setattr(cover, "witt_ring", refuse)
    monkeypatch.setattr(cover, "_least_gamma", refuse)
    with pytest.raises(ResourceLimit):
        family_build(ctx, "exponent-pn", witt_len=250)
    # a length of 400 digits is priced without ever becoming a float
    with pytest.raises(ResourceLimit, match="over the budget"):
        family_build(ctx, "exponent-pn", witt_len=10 ** 400)


def test_witt_place_is_priced_at_log2_p_products(monkeypatch):
    # at p = 65537 a p-th power of a place costs 2 bitlen p = 34 products.
    # One two-term coordinate a p-th power from the top has ghost powers
    # priced at 34 k^2 products, k = min(p + 1, q), about 2^37, and the
    # sweep of F_65537 (n = 400) or F_65537^2 (n = 200) at 38 q, 2^22 or
    # 2^38: both are past the budget, and neither route is started
    def refuse(*args):
        raise AssertionError("ghost powers or places computed")

    monkeypatch.setattr(cover, "witt_ring", refuse)
    monkeypatch.setattr(cover, "_split_test", refuse)
    real = cover._ghost_trace_is_zero
    monkeypatch.setattr(cover, "_ghost_trace_is_zero", lambda ctx, ring, c:
                        real(ctx, ring, c) if ring is ctx else refuse())
    for e, n in ((1, 400), (2, 200)):
        ctx = make_field(65537, e)
        rhs = [FqPoly.zero(ctx)] * n
        rhs[n - 2] = _mono(ctx, [(2, 1), (1, 1)])
        cov = CoverSpec(ctx, ("witt", n), rhs)
        assert cover._place_price(cov) == 34 + 2 * 2
        with pytest.raises(ResourceLimit, match="2\\^(22|38) products"):
            cover._splits_at_every_place(cov)


_COVER_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1),
                 (5, 2), (7, 1), (7, 2)]


@st.composite
def _witt_cover(draw):
    """A Witt cover over F_(p^e), p <= 7, e <= 3, of length n <= 5, with
    at most 3 terms a coordinate and exponents below p^3."""
    p, e = draw(st.sampled_from(_COVER_FIELDS))
    ctx, n = make_field(p, e), draw(st.integers(1, 5))
    coeff = st.lists(st.integers(0, p - 1), min_size=e, max_size=e)
    term = st.tuples(st.integers(0, p ** 3 - 1), coeff)
    rhs = [FqPoly(ctx, draw(st.lists(term, max_size=3,
                                     unique_by=lambda t: t[0])))
           for _ in range(n)]
    return CoverSpec(ctx, ("witt", n), rhs), ctx.elem(
        draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_witt_cover())
def test_prices_bound_the_products(case):
    # the non-unit coefficient products of the ghost powers on the ring, of
    # one place and of the length-2 normalization stay within their prices
    cov, y = case
    ctx, n = cov.ctx, cov.op
    mul_terms, charge, counted, charged = field._mul_terms, cover._charge, \
        [0], []

    def counting(ring, xs, ys, acc):
        xs = list(xs)
        counted[0] += (sum(x != 1 for _, x in xs)
                       * sum(v != 1 for _, v in ys))
        return mul_terms(ring, xs, ys, acc)

    def products(fn, *args):
        counted[0], field._mul_terms = 0, counting
        try:
            fn(*args)
        finally:
            field._mul_terms = mul_terms
        return counted[0]

    ghost = cover._ghost_products(cov.rhs, ctx.p, ctx.q)
    if ghost <= cover._BUDGET:
        ring = cover.witt_ring(ctx, n)
        assert products(field._ghost_trace_is_zero, ctx, ring,
                        cov.rhs) <= ghost
    assert products(cover._split_test(cov, ctx), y) <= \
        cover._place_price(cov)
    if n == 2:
        cover._charge = lambda price, what: charged.append(price)
        try:
            assert products(normalized_witt_rhs, cov) <= sum(charged)
        finally:
            cover._charge = charge


def _ghost_products_by_power(rhs, p, q):
    """The ghost price with one step for every p-th power: the reference
    for `cover._ghost_products`, which stops at the fixed point."""
    total, n = 0, len(rhs)
    for i, f in enumerate(rhs):
        k, d = len(f.terms), f.degree()
        for _ in range(n - 1 - i if k else 0):
            d = min(d * p, q)
            k = min(math.comb(k + p - 1, p), q, d + 1) if k < q else q
            total += 2 * p.bit_length() * k * k
    return total


@st.composite
def _ghost_rhs(draw):
    """Coordinates over F_(p^e), p <= 13, e <= 3, of a Witt length n <= 24,
    each of at most 4 terms with exponents below p^(e + 2)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    ctx = make_field(p, draw(st.integers(1, 3)))
    term = st.tuples(st.integers(0, p ** (ctx.e + 2) - 1),
                     st.integers(1, p - 1))
    return ctx, [_mono(ctx, draw(st.lists(term, max_size=4,
                                          unique_by=lambda t: t[0])))
                 for _ in range(draw(st.integers(1, 24)))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_ghost_rhs())
def test_ghost_price_stops_at_its_fixed_point(case):
    # the same price, to the product, as one step per p-th power
    ctx, rhs = case
    assert cover._ghost_products(rhs, ctx.p, ctx.q) == \
        _ghost_products_by_power(rhs, ctx.p, ctx.q)


def test_long_ghost_price_is_linear():
    # (0, x, ..., x) over F_9 at length 10^5: from the second power on,
    # each x^(3^j) is priced at one term, 2 bitlen 3 = 4 products, and a
    # price that steps through all n - 1 - i powers of coordinate i
    # takes O(n^2) steps
    ctx, n = make_field(3, 2), 10 ** 5
    rhs = [FqPoly.zero(ctx)] + [_mono(ctx, [(1, 1)])] * (n - 1)
    start = time.perf_counter()
    price = cover._ghost_products(rhs, ctx.p, ctx.q)
    assert time.perf_counter() - start < 1
    assert price == 4 * (n - 1) * (n - 2) // 2


_NO_PLACE_FAMILIES = [
    (5, 4, "table-full", 2), (5, 4, "jump2-even", 2),
    (5, 4, "exponent-pn", 2), (3, 3, "jump2-odd", 2),
    (7, 8, "table-full", 2), (3, 8, "jump2-even", 2),
    (2, 12, "jump2-even", 2), (3, 8, "exponent-pn", 3),
    (7, 4, "exponent-pn", 3), (2, 12, "exponent-pn", 4),
    (7, 4, "exponent-pn", 150)]


@pytest.mark.parametrize("p, e, kind, n", _NO_PLACE_FAMILIES, ids=[
    "%d-%d-%s" % args[:3] + ("-%d" % args[3] if args[3] > 2 else "")
    for args in _NO_PLACE_FAMILIES])
def test_family_splitting_visits_no_place(monkeypatch, p, e, kind, n):
    # the verdict comes from the trace criterion alone, at every Witt
    # length, including those above q = 2048 that once swept 64 sampled
    # places; over F_4096 neither family splits
    def refuse(*args):
        raise AssertionError("places swept")

    monkeypatch.setattr(cover, "_split_test", refuse)
    fam = family_build(make_field(p, e), kind, witt_len=n)
    assert fam["notes"]["splits_at_rational_places"] == ((p, e) != (2, 12))


def _table_full_ladder(p, s):
    """Expected merged ladder of the table-full tower at (p, 2s): the
    q-rows (u r + v + 1, q) for 2 <= u <= p, 1 <= v < u, and the r-rows
    and pairs (u (r + 1) + 1, p^s) for 1 <= u <= p, with r = p^s."""
    r = p ** s
    rows = [(u * r + v + 1, r * r) for u in range(2, p + 1)
            for v in range(1, u)]
    rows += [(u * (r + 1) + 1, r) for u in range(1, p + 1)]
    return sorted(rows)


def test_table_full_ladder_without_class_enumeration(monkeypatch):
    # at (7, 8) every q-row has 960800 projective classes: the ladder
    # must come from one echelon form, never from the classes
    assert _table_full_ladder(5, 2) == \
        [(m, 5 ** k) for m, k in _expected.LADDER]

    def refuse(*args):
        raise AssertionError("character classes enumerated")

    monkeypatch.setattr(cover, "additive_characters", refuse)
    fam = family_build(make_field(7, 8), "table-full")
    tower = tower_compose(fam["items"])
    assert fam["notes"]["m2"] == 16815
    assert fam["notes"]["splits_at_rational_places"]
    assert [(m, d) for m, d, _ in tower["levels"]] == _table_full_ladder(7, 4)


def test_zero_cover_raises():
    ctx = make_field(2, 1)
    # y^2 - y = x^2 + x is wp of x, so nothing ramifies
    cov = _wp_cover(ctx, _mono(ctx, [(2, 1), (1, 1)]))
    with pytest.raises(ZeroCover):
        character_levels(cov)


@pytest.mark.parametrize("kind, e, message", [
    ("jump2-even", 3, "kind jump2-even needs even degree e = 2s"),
    ("jump2-even", 1, "kind jump2-even needs even degree e = 2s"),
    ("table-full", 3, "kind table-full needs even degree e = 2s"),
    ("exponent-pn", 1, "kind exponent-pn needs even degree e = 2s"),
    ("jump2-odd", 2, "kind jump2-odd needs odd degree e = 2s - 1"),
    ("no-such-kind", 1, "unknown family kind 'no-such-kind'"),
    ("no-such-kind", 2, "unknown family kind 'no-such-kind'")])
def test_family_kind_validation(monkeypatch, kind, e, message):
    # each refusal comes with its own message, before anything is built
    def refuse(*args):
        raise AssertionError("built before the parity check")

    monkeypatch.setattr(cover, "_least_gamma", refuse)
    monkeypatch.setattr(cover, "_gamma_kernel", refuse)
    with pytest.raises(BadParameters) as err:
        family_build(make_field(3, e), kind)
    assert str(err.value) == message


def test_cover_json_round_trip():
    ctx = make_field(3, 2)
    op = AdditiveOp(ctx, [-1, 0, 1])
    cov = CoverSpec(ctx, ("additive", op), [_mono(ctx, [(4, 1)])],
                    label="anchor")
    back = CoverSpec.from_json(cov.to_json())
    assert back.kind == "additive" and back.op == op
    assert back.rhs == cov.rhs and back.label == "anchor"
    pair = CoverSpec(ctx, ("witt", 2),
                     [_mono(ctx, [(4, 1)]), FqPoly.zero(ctx)])
    again = CoverSpec.from_json(pair.to_json())
    assert again.kind == "witt" and again.op == 2
    assert again.rhs == pair.rhs


def _subspace_op(ctx, basis):
    """The subspace polynomial of span(basis), or None if dependent."""
    p = ctx.p
    u = AdditiveOp(ctx, [1])
    for w in basis:
        beta = u(w)
        if not beta:
            return None
        u = AdditiveOp(ctx, [-(beta ** (p - 1)), 1]).compose(u)
    return u


def _rhs_classes(chars):
    """Right hand sides of the subcovers, each up to F_p^* scaling."""
    out = set()
    for _, sub in chars:
        g = sub.rhs[0]
        p = g.ctx.p
        out.add(frozenset(repr((g * k).to_json()) for k in range(1, p)))
    return out


def test_characters_match_reference():
    # the adjoint-kernel characters against the per-class subspace
    # polynomials on random split covers.  Two thirds of them have a
    # character l0 built in whose conductor drops: a term a X^k paired
    # with b X^(pk), b = -l0^(p-1) a^p, reduces to zero under l0.  With
    # only pairs l0 is unramified; a lower plain term gives two conductors
    rng = random.Random(54)
    ladders = partial = deepest = 0
    shapes = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
              (5, 2), (5, 3), (7, 2), (7, 3)]
    for trial in range(99):
        p, e = shapes[trial % len(shapes)]
        ctx = make_field(p, e)
        d = rng.randint(1 if trial % 3 == 2 else 2, min(5, e))

        def rand():
            return ctx.elem([rng.randrange(p) for _ in range(e)])

        A = None
        while A is None:  # redraw dependent bases
            A = _subspace_op(ctx, [rand() for _ in range(d)])
        scale = rand()
        if not scale:
            continue
        A = A * scale
        deepest = max(deepest, d)
        ks = sorted(rng.sample([k for k in range(1, 4 * p) if k % p], 2))
        if trial % 3 == 2:
            terms = {k: rand() for k in ks}
            terms[0] = rand()
        else:
            l0 = linearize_kernel(adjoint(A), e).basis[0]
            paired = ks if trial % 3 == 0 else ks[1:]
            terms = {k: rand() for k in ks if k not in paired}
            for k in paired:
                a = rand()
                terms[k] = a
                terms[p * k] = -(l0 ** (p - 1)) * a ** p
        f = FqPoly(ctx, tuple((k, c) for k, c in terms.items() if c))
        cov = CoverSpec(ctx, ("additive", A), [f])
        want = reference.additive_characters(cov)
        got = additive_characters(cov)
        assert _rhs_classes(got) == _rhs_classes(want), (p, e, A, f)
        try:
            levels = reference.character_levels(cov)
        except ZeroCover:
            with pytest.raises(ZeroCover):
                character_levels(cov)
            continue
        assert character_levels(cov) == levels, (p, e, A, f)
        ladders += len(set(levels)) > 1
        unramified = [lam for lam, sub in got
                      if not reduce_pth_powers(sub.rhs[0])[0]]
        partial += bool(unramified) and len(unramified) < len(got)
    assert partial >= 12 and ladders >= 8 and deepest == 5

    # operators that do not split: both constructions refuse them
    refused = 0
    for trial in range(40):
        p, e = shapes[trial % len(shapes)]
        ctx = make_field(p, e)
        coeffs = [ctx.elem([rng.randrange(p) for _ in range(e)])
                  for _ in range(rng.randint(2, 4))]
        A = AdditiveOp(ctx, coeffs)
        if not A.separable:
            continue
        cov = CoverSpec(ctx, ("additive", A), [_mono(ctx, [(p + 1, 1)])])
        try:
            want = reference.additive_characters(cov)
        except DecompositionFailure:
            with pytest.raises(DecompositionFailure,
                               match="^operator does not split over F_"):
                additive_characters(cov)
            refused += 1
            continue
        assert _rhs_classes(additive_characters(cov)) == _rhs_classes(want)
    assert refused >= 10


def _counting_kernels(monkeypatch):
    """Empty the kernel cache and record each operator whose kernel
    cover asks linearize_kernel for."""
    made = []
    real = cover.linearize_kernel
    cover._adjoint_kernel.cache_clear()
    monkeypatch.setattr(cover, "linearize_kernel",
                        lambda A, N: made.append(A) or real(A, N))
    return made


def test_reproduce_table_makes_one_kernel_per_operator(monkeypatch, capsys):
    # the family rows share their operators: 38 kernels were made where 2
    # do, F^2 + 1 (its own adjoint, the Gamma of the pairs too) and the
    # adjoint 1 - F^4 of F^4 - 1; the bytes are perfbench's golden table54.out
    made = _counting_kernels(monkeypatch)
    assert cli.main(["reproduce-table", "--p", "5", "--e", "4"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
        "3933ffba2306f92f50a6b8897f939369291dc38b88d22a4e42834569c5845ed1"
    ctx = make_field(5, 4)
    assert made == [AdditiveOp(ctx, [1, 0, 1]),
                    AdditiveOp(ctx, [1, 0, 0, 0, 4])]


def test_cached_kernel_still_refuses_a_non_split_operator(monkeypatch):
    # F^2 + F + 1 over F_2 has no root but 0 there: its kernel is made
    # once and refused on every call
    ctx = make_field(2, 1)
    A = AdditiveOp(ctx, [1, 1, 1])
    cov = CoverSpec(ctx, ("additive", A), [_mono(ctx, [(3, 1)])])
    made = _counting_kernels(monkeypatch)
    for _ in range(2):
        with pytest.raises(DecompositionFailure,
                           match="^operator does not split over F_2"):
            additive_characters(cov)
    assert made == [adjoint(A)]
