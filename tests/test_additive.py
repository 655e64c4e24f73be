"""Additive operators, linearized kernels, and the palindromic adjoint."""

import itertools
import math
import random

import pytest
from _split_reference import image_membership, solve_mod
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from wildram import additive
from wildram.additive import (
    AdditiveOp,
    KernelBasis,
    adjoint,
    frobenius_operator,
    linearize_kernel,
    operator_matrix,
    palindromic_adjoint,
    splitting_degree,
    translation_defect,
    translation_test,
    wp_operator,
    xsx_parts,
)
from wildram.errors import InseparableOperator, NotInXSXForm
from wildram.field import (
    FqElem,
    FqPoly,
    _echelon,
    _pack,
    _unpack,
    embed_elem,
    extension_field,
    frobenius_trace,
    make_field,
    reduce_pth_powers,
)


def _rand_elem(ctx, rng):
    return ctx.elem([rng.randrange(ctx.p) for _ in range(ctx.e)])


def _rand_op(ctx, rng, deg):
    coeffs = [_rand_elem(ctx, rng) for _ in range(deg + 1)]
    while coeffs[-1].is_zero():
        coeffs[-1] = _rand_elem(ctx, rng)
    return AdditiveOp(ctx, coeffs)


def _all_ints(rows):
    return all(type(c) is int for row in rows for c in row)


def _left_kernel(M, p):
    """A basis of {v : v M = 0} over GF(p), from sympy's nullspace of the
    transpose, each vector scaled to last nonzero entry 1 and sorted by
    that entry's index."""
    K = GF(p)
    rows, cols = len(M), len(M[0])
    T = DomainMatrix([[K(M[i][j]) for i in range(rows)] for j in range(cols)],
                     (cols, rows), K)
    out = []
    for v in T.nullspace().to_list():
        v = [int(c) % p for c in v]
        last = max(i for i, c in enumerate(v) if c)
        inv = pow(v[last], -1, p)
        out.append((last, [c * inv % p for c in v]))
    return [v for _, v in sorted(out)]


def test_rref_solves_small_systems():
    # _echelon on the shapes the engine runs, up to 36 columns and not
    # square, each row tagged with its own unit: the pivots and the kept
    # row of the largest pivot against sympy's echelon form over GF(p),
    # the tags of the rows that reduce to zero against its left kernel
    rng = random.Random(21)
    for p in (2, 3, 5, 7):
        K, ctx = GF(p), make_field(p)
        bits = ctx._red_rows[0]  # rows packed as F_p packs its elements
        for _ in range(15):
            rows, cols = rng.randrange(1, 37), rng.randrange(1, 37)
            M = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            if rng.random() < 0.5:
                # low rank: every row a combination of a few
                base = M[:rng.randrange(1, 4)]
                M = [[sum(rng.randrange(p) * b[c] for b in base) % p
                      for c in range(cols)] for _ in range(rows)]
            kept, zeros = _echelon(
                [_pack(row, bits) | 1 << (cols + i) * bits
                 for i, row in enumerate(M)], cols, ctx, rows)
            want, want_pivots = DomainMatrix(
                [[K(c) for c in row] for row in M], (rows, cols), K).rref()
            want = [[int(c) % p for c in row] for row in want.to_list()]
            assert sorted(c for c, _ in kept) == list(want_pivots)
            if kept:
                last = max(kept)[1] & ~(-1 << cols * bits)
                assert list(_unpack(last, cols, bits)) == want[len(kept) - 1]
            assert [list(_unpack(z, rows, bits)) for z in zeros] \
                == _left_kernel(M, p)
            b = [rng.randrange(p) for _ in range(rows)]
            sol = solve_mod(M, b, p)
            if sol is not None:
                for row, want_b in zip(M, b):
                    got = sum(r * x for r, x in zip(row, sol)) % p
                    assert got == want_b


def test_linearize_kernel_basis_matches_sympy():
    # the exact basis, not only its span: for each row A(X^i) of
    # operator_matrix that depends on the rows before it, X^i less that
    # combination, as sympy's nullspace of the transpose gives it; half
    # the operators end in F^k - 1, whose kernel holds F_(p^gcd(k, N))
    rng = random.Random(27)
    for _ in range(300):
        p, e = rng.choice((2, 3, 5, 7)), rng.choice((1, 2))
        ctx = make_field(p, e)
        N = e * rng.randrange(1, 7)
        A = _rand_op(ctx, rng, rng.randrange(4))
        if rng.random() < 0.5:
            A = A.compose(frobenius_operator(ctx, rng.randrange(1, N + 1))
                          - AdditiveOp(ctx, [1]))
        E = extension_field(p, N)
        got = [list(b.coeffs) for b in linearize_kernel(A, N).basis]
        assert got == _left_kernel(operator_matrix(A, E), p)


def test_toolkit_results_are_python_ints():
    # a numpy scalar leaking out would break json.dumps in the CLI
    ctx = make_field(3, 2)
    A = AdditiveOp(ctx, [[1, 2], [0, 1], [2, 2]])
    for N in (2, 4, 6):
        E = extension_field(3, N)
        assert _all_ints(operator_matrix(A, E))
        assert _all_ints(operator_matrix(frobenius_operator(E, N - 1), E))
        assert _all_ints(b.coeffs for b in linearize_kernel(A, N).basis)


def test_operator_additivity_and_compose():
    rng = random.Random(22)
    for p, e in [(2, 2), (3, 2), (5, 1)]:
        ctx = make_field(p, e)
        for _ in range(25):
            A = _rand_op(ctx, rng, rng.randrange(1, 4))
            B = _rand_op(ctx, rng, rng.randrange(1, 4))
            x, y = _rand_elem(ctx, rng), _rand_elem(ctx, rng)
            assert A.evaluate(x + y) == A.evaluate(x) + A.evaluate(y)
            AB = A.compose(B)
            assert AB.evaluate(x) == A.evaluate(B.evaluate(x))
            assert AB.f_degree == A.f_degree + B.f_degree
            assert (A + B).evaluate(x) == A.evaluate(x) + B.evaluate(x)


def test_wp_operator_kernel_is_prime_field():
    ctx = make_field(3, 2)
    ker = linearize_kernel(wp_operator(ctx), 2)
    assert ker.dim == 1
    vals = {x.coeffs for x in ker.elements()}
    assert vals == {(0, 0), (1, 0), (2, 0)}


def _evaluate_by_powers(A, x):
    """A(x) from the powers x^(p^j), not from the Frobenius rows."""
    acc = x.ctx.zero
    for j, c in enumerate(A.embed(x.ctx).coeffs):
        acc = acc + c * x ** (x.ctx.p ** j)
    return acc


def test_operator_matrix_matches_evaluation():
    # F_9 -> F_81 keeps log tables; F_5 and F_7 -> F_343 have e = 1;
    # F_27 -> F_3^9 and F_2 -> F_2^13 are past TABLE_LIMIT; F-degrees at
    # and past E make the Frobenius indices wrap mod E
    rng = random.Random(23)
    for p, e, N, degrees, draws in [(3, 2, 4, (2,), 15), (3, 2, 4, (4, 7), 4),
                                    (5, 1, 1, (0, 1, 3), 4),
                                    (7, 1, 3, (2, 3, 5), 4),
                                    (3, 3, 9, (2, 9, 11), 3),
                                    (2, 1, 13, (3, 13, 15), 3)]:
        ctx = make_field(p, e)
        big = extension_field(p, N)
        basis = [big.elem([1 if i == j else 0 for j in range(N)])
                 for i in range(N)]
        for deg in degrees:
            for _ in range(draws):
                A = _rand_op(ctx, rng, deg)
                M = operator_matrix(A, big)
                assert _all_ints(M) and len(M) == N
                for i, bi in enumerate(basis):
                    want = _evaluate_by_powers(A, bi)
                    assert A.evaluate(bi) == want
                    got = big.zero
                    for j, bj in enumerate(basis):
                        got = got + big.elem([int(M[i][j]) if k == 0 else 0
                                              for k in range(N)]) * bj
                    assert got == want


def test_kernel_elements_in_digit_order():
    # sum d_i b_i over itertools.product's digit vectors, the first basis
    # vector's digit slowest, in a log-table field and a Kronecker field
    rng = random.Random(31)
    for p, e, dim in ((3, 4, 3), (2, 13, 5), (5, 6, 2)):
        ctx = extension_field(p, e)
        basis = [_rand_elem(ctx, rng) for _ in range(dim)]
        want = []
        for digits in itertools.product(range(p), repeat=dim):
            acc = ctx.zero
            for d, b in zip(digits, basis):
                acc = acc + b * d
            want.append(acc)
        assert list(KernelBasis(ctx, basis).elements()) == want


def test_evaluate_embeds_the_operator_once(monkeypatch):
    # y in an extension field: a run of evaluations of one operator
    # embeds its coefficients once, however long the run
    rng = random.Random(32)
    ctx, big = make_field(3, 2), extension_field(3, 12)
    coeffs = [_rand_elem(ctx, rng) for _ in range(4)]
    ys = [_rand_elem(big, rng) for _ in range(24)]
    want = [AdditiveOp(ctx, coeffs).embed(big).evaluate(y) for y in ys]
    calls = []
    embed = additive.embed_elem
    monkeypatch.setattr(additive, "embed_elem",
                        lambda x, E: calls.append(x) or embed(x, E))
    counts = []
    for n in (2, 24):
        del calls[:]
        A = AdditiveOp(ctx, coeffs)
        assert [A.evaluate(y) for y in ys[:n]] == want[:n]
        counts.append(len(calls))
    assert counts[0] == counts[1] == len(coeffs)


def test_kernel_of_frobenius_minus_one():
    # F^e - 1 on an extension cuts out exactly the base field copy
    ctx = make_field(2, 2)
    op = frobenius_operator(ctx, 2) - frobenius_operator(ctx, 0)
    ker = linearize_kernel(op, 2)
    assert ker.dim == 2
    assert {x.coeffs for x in ker.elements()} \
        == {x.coeffs for x in ctx.elements()}


def test_image_membership_and_splitting():
    ctx = make_field(2, 1)
    wp = wp_operator(ctx)
    w = image_membership(wp, ctx.zero)
    assert w is not None and wp.evaluate(w).is_zero()
    # x^2+x=1 has no rational solution but one over F_4
    assert image_membership(wp, ctx.one) is None
    w = image_membership(wp, ctx.one, N=2)
    assert w is not None
    assert wp.evaluate(w) == embed_elem(ctx.one, w.ctx)
    assert splitting_degree(wp) == 1
    assert 2 % splitting_degree(wp, cap=2) == 0
    rng = random.Random(24)
    for _ in range(10):
        A = _rand_op(make_field(3, 1), rng, 2)
        if not A.separable:
            continue
        d = splitting_degree(A, cap=24)
        assert d % splitting_degree(A, cap=d) == 0
        assert linearize_kernel(A, d).dim == A.f_degree
        # d is the least such degree
        for N in range(1, d):
            assert linearize_kernel(A, N).dim < A.f_degree
    # splitting degree 52, above a former fixed cap of 48
    A = AdditiveOp(make_field(5, 2), [[1, 0], [1, 4], [2, 4], [4, 1], [1, 0]])
    assert splitting_degree(A, cap=60) == 52
    assert 52 % splitting_degree(A, cap=52) == 0
    assert 104 % splitting_degree(A, cap=104) == 0
    assert splitting_degree(A, cap=26) is None
    assert linearize_kernel(A, 52).dim == 4
    # the kernel lies in F_{5^N} only when 52 | N, so the even proper
    # divisors of 52 cover minimality
    assert all(linearize_kernel(A, N).dim < 4 for N in (2, 4, 26))


def test_xsx_parts_shapes():
    ctx = make_field(3, 1)
    # f = X S(X) + c X with S = F (s = 1): support {1, 4}
    f = FqPoly(ctx, ((4, ctx.one), (1, ctx.elem([2]))))
    S, c = xsx_parts(f)
    assert S.f_degree == 1
    assert c == ctx.elem([2])
    with pytest.raises(NotInXSXForm):
        xsx_parts(FqPoly(ctx, ((2, ctx.one),)))
    with pytest.raises(NotInXSXForm):
        # support {1} alone means S = 0
        xsx_parts(FqPoly(ctx, ((1, ctx.one),)))


def test_operator_adjoint_is_trace_transpose():
    # Tr(A(x) y) = Tr(x A*(y)) with A* = F^(-d) . adjoint(A), so the two
    # kernels in F_q have one dimension, and A splits exactly when it is d
    rng = random.Random(24)
    for p, e in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        ctx = make_field(p, e)
        for _ in range(10):
            d = rng.randint(0, 3)
            A = _rand_op(ctx, rng, d)
            adj = adjoint(A)
            low = next(j for j, c in enumerate(A.coeffs) if c)
            assert adj.f_degree == d - low and adj.coeff(0) == A.coeffs[d]
            for _ in range(4):
                x, y = _rand_elem(ctx, rng), _rand_elem(ctx, rng)
                star = adj(y).frobenius(-d)
                assert frobenius_trace(A(x) * y) == frobenius_trace(x * star)
            if not A.separable:
                continue
            dim = linearize_kernel(adj, e).dim
            assert dim == linearize_kernel(A, e).dim
            deg = splitting_degree(A, cap=e)
            assert (dim == d) == (deg is not None and e % deg == 0)


def test_adjoint_degree_and_normalization():
    rng = random.Random(25)
    for p, e, s in [(2, 1, 1), (2, 2, 2), (3, 1, 1), (3, 2, 2), (5, 1, 1)]:
        ctx = make_field(p, e)
        for _ in range(12):
            coeffs = [_rand_elem(ctx, rng) for _ in range(s + 1)]
            while coeffs[-1].is_zero():
                coeffs[-1] = _rand_elem(ctx, rng)
            f_terms = [(1 + p ** j, cj) for j, cj in enumerate(coeffs)
                       if not cj.is_zero() and j > 0]
            c = _rand_elem(ctx, rng)
            f_terms.append((1, c))
            f = FqPoly(ctx, tuple(t for t in f_terms if not t[1].is_zero()))
            if f.coeff(1 + p ** s).is_zero():
                continue
            adj = palindromic_adjoint(f)
            assert adj.f_degree == 2 * s
            assert adj.coeff(0) == ctx.one
            assert adj.separable


def test_adjoint_kernel_is_translation_space():
    rng = random.Random(26)
    for p, e, s in [(2, 2, 1), (3, 1, 1), (3, 2, 1), (5, 1, 1), (2, 3, 2)]:
        ctx = make_field(p, e)
        for _ in range(8):
            a = [_rand_elem(ctx, rng) for _ in range(s + 1)]
            while a[-1].is_zero():
                a[-1] = _rand_elem(ctx, rng)
            terms = [(1 + p ** j, aj) for j, aj in enumerate(a)
                     if not aj.is_zero()]
            c = _rand_elem(ctx, rng)
            if not c.is_zero():
                lead = dict(terms).get(1)
                merged = c if lead is None else c + lead
                terms = [(exp, el) for exp, el in terms if exp != 1]
                if not merged.is_zero():
                    terms.append((1, merged))
            f = FqPoly(ctx, tuple(sorted(terms)))
            if f.coeff(1 + p ** s).is_zero():
                continue
            adj = palindromic_adjoint(f)
            d = splitting_degree(adj, cap=48)
            assert d is not None
            N = math.lcm(d, e)
            E = extension_field(p, N)
            ker = linearize_kernel(adj, N)
            assert ker.dim == 2 * s
            for y in ker.elements():
                assert translation_test(f, y)
            # elements outside the kernel fail the test
            misses = 0
            for _ in range(20):
                y = E.elem([rng.randrange(p) for _ in range(E.e)])
                in_ker = adj.evaluate(y).is_zero()
                assert translation_test(f, y) == in_ker
                misses += not in_ker
            if p ** N > p ** (2 * s):
                assert misses > 0


def test_translation_defect_is_wp_exact():
    ctx = make_field(3, 1)
    f = FqPoly(ctx, ((4, ctx.one), (1, ctx.one)))
    y = ctx.elem([1])
    red, const = translation_defect(f, y)
    moved = f.compose(FqPoly(ctx, ((1, ctx.one), (0, y))))
    # defect is f(X + y) - f(X) up to wp terms
    diff = moved - f
    from wildram.field import reduce_pth_powers
    dr, dc, _ = reduce_pth_powers(diff)
    assert dr == red and dc == const


def _compose_defect(f, y):
    """The substitution route: f(X + y) - f(X) by compose, reduced."""
    big = y.ctx
    g = FqPoly(big, [(k, embed_elem(c, big)) for k, c in f.terms])
    moved = g.compose(FqPoly(big, ((1, big.one), (0, y))))
    return reduce_pth_powers(moved - g)[:2]


def _elems(ctx):
    return st.lists(st.integers(0, ctx.p - 1), min_size=ctx.e,
                    max_size=ctx.e).map(ctx.elem)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_shift_plan_matches_compose(data):
    # any f, not only X S(X) + cX: constants, multiples of p, the dense
    # digits of p^3 - 1, repeated exponents that may cancel; y in f's own
    # field or in an extension of degree 2 or 3 over it
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    ctx = make_field(p, data.draw(st.integers(1, 3)))
    big = extension_field(p, ctx.e * data.draw(st.sampled_from([1, 2, 3])))
    exps = st.one_of(st.just(0), st.just(p ** 3 - 1),
                     st.integers(0, 3 * p ** 2 - 1).map(lambda k: k * p),
                     st.integers(0, 3 * p ** 3 - 1))
    f = FqPoly(ctx, data.draw(st.lists(st.tuples(exps, _elems(ctx)),
                                       min_size=1, max_size=5)))
    y = data.draw(_elems(data.draw(st.sampled_from([ctx, big]))))
    red, const = _compose_defect(f, y)
    assert translation_defect(f, y) == (red, const)
    assert translation_test(f, y) == red.is_zero()
    assert translation_test(f, y, "arithmetic") == (
        red.is_zero() and not frobenius_trace(const))


@pytest.mark.parametrize("p", [2, 3, 7])
def test_linear_rows_at_their_bound(p, monkeypatch):
    # f = X S(X) + cX over F_(p^2), S of F-degree 5 >= E = 4, y in F_(p^4):
    # the X^1 part of the defect has a term y^(p^j) at every j < E, so its
    # rows each sum products for every Frobenius index, and S's indices
    # wrap mod E; at p = 7 rows left unreduced would overrun _apply's
    # bound.  Once the plan is built, geometric tests read those rows
    # alone: no Frobenius image of y and no product
    rng = random.Random(70 + p)
    ctx, E = make_field(p, 2), 4
    big = extension_field(p, E)
    coeffs = [_rand_elem(ctx, rng) for _ in range(6)]
    coeffs = [a if a else ctx.one for a in coeffs]
    f = FqPoly(ctx, [(1 + p ** j, a) for j, a in enumerate(coeffs)]
               + [(1, _rand_elem(ctx, rng))])
    *_, parts = additive._shift_plan(f, big)
    assert [(m, bool(rows), prods) for m, rows, prods in parts] == \
        [(1, True, [])]
    for y in big.elements():
        red, const = _compose_defect(f, y)
        assert translation_defect(f, y) == (red, const)
        assert translation_test(f, y) == red.is_zero()
        assert translation_test(f, y, "arithmetic") == (
            red.is_zero() and not frobenius_trace(const))
    calls = []
    frobenius = FqElem.frobenius

    def counted(x, k=1):
        calls.append(k)
        return frobenius(x, k)

    monkeypatch.setattr(FqElem, "frobenius", counted)
    fixed = [y for y in big.elements() if translation_test(f, y)]
    assert calls == [] and fixed
    kernel = linearize_kernel(palindromic_adjoint(f), E)
    assert {y.coeffs for y in fixed} == {y.coeffs for y in kernel.elements()}


def test_shift_plan_takes_only_the_frobenius_images_products_read():
    # f = g X^2 + g X^4 + g X^10 + X over F_9, y in F_(3^12): the degree-1
    # terms y^(p^j) of X^4 and X^10 shift to j = 11 and 10, but they fold
    # into linear rows; the products y^2, y^4 and y^10 read j = 0, 1, 2
    ctx, big = make_field(3, 2), extension_field(3, 12)
    g = ctx.gen
    f = FqPoly(ctx, [(2, g), (4, g), (10, g), (1, ctx.one)])
    assert additive._shift_plan(f, big)[1] == [0, 1, 2]
    rng = random.Random(42)
    for _ in range(20):
        y = _rand_elem(big, rng)
        red, const = _compose_defect(f, y)
        assert translation_defect(f, y) == (red, const)
        assert translation_test(f, y, "arithmetic") == (
            red.is_zero() and not frobenius_trace(const))


def test_shift_plan_memo_follows_its_arguments():
    # interleaved calls: f1 over E1, f2 over E2, f1 over E1 again, and one
    # f over two fields.  The memo holds one plan, the last call's, with
    # f itself, and a run of calls on one f and one field builds it once
    rng = random.Random(41)
    ctx = make_field(3, 2)
    E1, E2 = extension_field(3, 4), extension_field(3, 6)

    def draw():
        return FqPoly(ctx, [(rng.randrange(1, 60), _rand_elem(ctx, rng))
                            for _ in range(4)] + [(10, ctx.one)])
    f1, f2 = draw(), draw()
    last = additive._shift_plan.last
    for f, E in [(f1, E1), (f2, E2), (f1, E1), (f2, E1), (f2, E2)]:
        plans = set()
        for _ in range(4):
            y = _rand_elem(E, rng)
            red, const = _compose_defect(f, y)
            assert translation_defect(f, y) == (red, const)
            assert translation_test(f, y, "arithmetic") == (
                red.is_zero() and not frobenius_trace(const))
            assert len(last) == 3 and last[0] is f and last[1] is E
            plans.add(id(last[2]))
        assert len(plans) == 1
    # a fresh copy of f builds a fresh plan with the same result
    y = _rand_elem(E2, rng)
    want = translation_defect(f2, y)
    assert translation_defect(FqPoly(ctx, f2.terms), y) == want
    assert last[0] is not f2 and last[0] == f2


def test_inseparable_rejected():
    ctx = make_field(2, 1)
    with pytest.raises(InseparableOperator):
        splitting_degree(AdditiveOp(ctx, [ctx.zero, ctx.one]), cap=8)


def test_operator_json_round_trip():
    ctx = make_field(5, 2)
    A = AdditiveOp(ctx, [ctx.elem([1, 2]), ctx.zero, ctx.elem([0, 3])])
    assert AdditiveOp.from_json(ctx, A.to_json()) == A


def test_equal_operators_built_apart_hash_equal():
    # the same operator from coefficient lists, from elements with a
    # trailing zero and as a composite: equal, one hash, one dict key
    ctx = make_field(5, 2)
    A = AdditiveOp(ctx, [[1, 2], [0, 0], [0, 3]])
    B = AdditiveOp(ctx, [ctx.elem([1, 2]), ctx.zero, ctx.gen * 3, ctx.zero])
    C = AdditiveOp(ctx, [1]).compose(A)
    assert A == B == C and A is not B
    assert hash(A) == hash(B) == hash(C)
    assert {A: 1}[B] == 1 and len({A, B, C}) == 1
    assert hash(A) != hash(AdditiveOp(ctx, [[1, 2], [0, 0], [0, 4]]))
