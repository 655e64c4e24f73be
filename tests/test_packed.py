"""Packed-int field elements against plain coefficient-tuple arithmetic.

An FqElem holds one int of b-bit slots.  These tests compare every
element operation with a tuple reference written here, on shapes that
reach each slot-reduction path (one AND at p = 2, folds and one division
at p = 3, 5, 7, 11 and 65537, slot by slot for products at p = 19), each
product path (e = 1, log tables, Kronecker substitution) and the tightest
SWAR slot, b = 2 at (2, 2).
Every FqPoly operation runs on packed terms; sums, products, powers,
substitutions, division and embeddings are checked against polynomials
of coefficient tuples, {exponent: tuple}, handled term by term with the
same reference.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wildram import field
from wildram.field import (
    FqPoly,
    _kron_fold,
    _pack,
    _reduction_rows,
    _slot_reducer,
    _unpack,
    embed_elem,
    embed_poly,
    extension_field,
    make_field,
    subfield_root,
)

# (p, e): e = 1; log-table fields; Kronecker fields
SHAPES = [(2, 1), (7, 1),
          (2, 2), (3, 5), (5, 3), (7, 2), (11, 3),
          (2, 13), (3, 8), (5, 6), (7, 5), (11, 4), (19, 3), (65537, 3)]


def _ref_mul(a, b, f, p):
    """Schoolbook product of coefficient tuples mod (f, p), f monic."""
    e = len(f) - 1
    conv = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for t in range(2 * e - 2, e - 1, -1):
        for i in range(e):
            conv[t - e + i] -= conv[t] * f[i]
    return tuple(v % p for v in conv[:e])


def _ref_pow(a, k, f, p):
    result = (1,) + (0,) * (len(a) - 1)
    for bit in bin(k)[2:]:
        result = _ref_mul(result, result, f, p)
        if bit == "1":
            result = _ref_mul(result, a, f, p)
    return result


def _coeffs(p, e):
    vec = st.lists(st.integers(0, p - 1), min_size=e, max_size=e).map(tuple)
    # all p - 1 fills every slot of a sum and a product to the top
    return st.one_of(st.just((p - 1,) * e), st.just((0,) * e), vec)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_packed_arithmetic_matches_tuples(data):
    p, e = data.draw(st.sampled_from(SHAPES))
    ctx, f = make_field(p, e), make_field(p, e).modulus
    a, b = data.draw(_coeffs(p, e)), data.draw(_coeffs(p, e))
    x, y = ctx.elem(a), ctx.elem(b)
    assert x.coeffs == a and ctx.elem(x.coeffs) == x
    assert (x + y).coeffs == tuple((u + v) % p for u, v in zip(a, b))
    assert (x - y).coeffs == tuple((u - v) % p for u, v in zip(a, b))
    assert (-x).coeffs == tuple(-u % p for u in a)
    assert (x * y).coeffs == _ref_mul(a, b, f, p)
    k = data.draw(st.integers(0, 3 * ctx.q))
    assert (x ** k).coeffs == _ref_pow(a, k, f, p)
    j = data.draw(st.integers(0, 2 * e))
    assert x.frobenius(j).coeffs == _ref_pow(a, p ** j, f, p)
    assert _ref_pow(x.frobenius(-1).coeffs, p, f, p) == a
    if any(a):
        one = (1,) + (0,) * (e - 1)
        assert _ref_mul(x.inverse().coeffs, a, f, p) == one
    # equality and hashing see the value, however it was reached
    z = (x + y) - y
    assert (x == y) == (a == b) and z == x and hash(z) == hash(x)
    assert bool(x) == any(a)


# r = 9, 4, 25 and 27 are Witt moduli p^n; 31, 73 and 127 fold as 3, 5, 7
MODULI = [2, 3, 4, 5, 7, 9, 11, 25, 27, 31, 73, 127, 65537]


def _fold_top(e, r):
    """The width rule's bound: the convolution's e (r - 1)^2 plus e - 1
    products of a quotient slot, up to (e - 1)^2 (r - 1)^3, and r - 1."""
    return e * (r - 1) ** 2 + (e - 1) ** 3 * (r - 1) ** 4


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_slot_reducer_matches_slotwise_mod(data):
    r = data.draw(st.sampled_from(MODULI))
    e = data.draw(st.integers(1, 40))
    wide = _fold_top(e, r)
    bits = _reduction_rows((1,) * e + (1,), r)[0]
    # the bit length of the bound, or a byte width above it for one cast
    assert wide < 2 ** bits
    assert bits in (wide.bit_length(), 8, 16, 32, 64)
    # a product folds from the wide bound, a Frobenius row sum from its own
    top = data.draw(st.sampled_from([wide, e * (r - 1) ** 2]))
    slots = data.draw(st.lists(st.one_of(st.just(top), st.integers(0, top)),
                               min_size=e, max_size=e))
    z = sum(v << (i * bits) for i, v in enumerate(slots))
    want = sum((v % r) << (i * bits) for i, v in enumerate(slots))
    assert _slot_reducer(r, e, bits, top)(z) == want


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_kron_fold_at_its_worst_case(data):
    # any monic f: the Barrett quotient is exact over Z, and every slot
    # stays at or below the bound the width is sized for
    r = data.draw(st.sampled_from([2, 3, 4, 5, 7, 9, 11, 25, 27, 65537]))
    e = data.draw(st.integers(1, 40))
    f = tuple(data.draw(st.lists(st.integers(0, r - 1), min_size=e,
                                 max_size=e))) + (1,)
    full = st.just((r - 1,) * e)
    x, y = (data.draw(st.one_of(full, st.lists(
        st.integers(0, r - 1), min_size=e, max_size=e).map(tuple)))
        for _ in range(2))
    rows = _reduction_rows(f, r)
    bits = rows[0]
    z = _kron_fold(_pack(x, bits) * _pack(y, bits), rows)
    assert max(_unpack(z, e, bits)) <= _fold_top(e, r) and z < 1 << e * bits
    conv = [0] * (2 * e - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            conv[i + j] += a * b
    for t in range(2 * e - 2, e - 1, -1):
        for i in range(e):
            conv[t - e + i] -= conv[t] * f[i]
    want = tuple(v % r for v in conv[:e])
    assert tuple(v % r for v in _unpack(z, e, bits)) == want
    reduce = _slot_reducer(r, e, bits, _fold_top(e, r))
    assert reduce(z) == _pack(want, bits)


# (p, d, e): into a log-table field and into Kronecker fields
EMBED_SHAPES = [(2, 2, 4), (3, 2, 8), (5, 1, 6), (2, 4, 16), (7, 1, 2),
                (2, 3, 15)]


def test_embed_elem_matches_horner():
    rng = random.Random(21)
    for p, d, e in EMBED_SHAPES:
        small, big = make_field(p, d), extension_field(p, e)
        rho, f = subfield_root(small, big).coeffs, big.modulus
        for _ in range(20):
            c = tuple(rng.randrange(p) for _ in range(d))
            want = (0,) * e
            for ci in reversed(c):
                want = _ref_mul(want, rho, f, p)
                want = (want[0] + ci) % p, *want[1:]
            assert embed_elem(small.elem(c), big).coeffs == want


def test_subfield_root_is_least_tuple_not_least_int():
    # the packed int compares from c_{e-1} down, so in both fields its
    # least root is another root than the least coefficient tuple
    cases = [(3, 2, 4, (0, 1, 2, 0), (0, 2, 1, 0)),
             (2, 4, 8, (0, 0, 0, 1, 0, 1, 0, 1), (1, 1, 0, 1, 1, 0, 1, 0))]
    for p, d, e, by_tuple, by_int in cases:
        small, big = make_field(p, d), make_field(p, e)
        g = FqPoly(big, enumerate(small.modulus))
        roots = [x for x in big.elements() if not g.evaluate(x)]
        assert min(roots, key=lambda x: x.coeffs).coeffs == by_tuple
        assert min(roots, key=lambda x: x.v).coeffs == by_int
        assert subfield_root(small, big).coeffs == by_tuple


def _ref_poly_mul(A, B, f, p):
    out = {}
    for i, a in A.items():
        for j, b in B.items():
            c, prev = _ref_mul(a, b, f, p), out.get(i + j, (0,) * len(a))
            out[i + j] = tuple((u + v) % p for u, v in zip(prev, c))
    return {k: c for k, c in out.items() if any(c)}


def _ref_poly_pow(A, k, f, p):
    result = {0: (1,) + (0,) * (len(f) - 2)}
    for _ in range(k):
        result = _ref_poly_mul(result, A, f, p)
    return result


def _ref_compose(A, G, f, p):
    out = {}
    for k, c in A.items():
        term = _ref_poly_mul({0: c}, _ref_poly_pow(G, k, f, p), f, p)
        for i, a in term.items():
            prev = out.get(i, (0,) * len(a))
            out[i] = tuple((u + v) % p for u, v in zip(prev, a))
    return {k: c for k, c in out.items() if any(c)}


def _ref_add(A, B, p, sign=1):
    out = dict(A)
    for k, b in B.items():
        prev = out.get(k, (0,) * len(b))
        out[k] = tuple((u + sign * v) % p for u, v in zip(prev, b))
    return {k: c for k, c in out.items() if any(c)}


def _ref_divmod(A, B, f, p):
    """Long division by B != 0, one multiple of B per quotient term."""
    db, e = max(B), len(f) - 1
    inv, quot, rem = _ref_pow(B[db], p ** e - 2, f, p), {}, dict(A)
    for shift in range(max(A, default=-1) - db, -1, -1):
        c = _ref_mul(rem.get(shift + db, (0,) * e), inv, f, p)
        if any(c):
            quot[shift] = c
            rem = _ref_add(rem, _ref_poly_mul({shift: c}, B, f, p), p, -1)
    return quot, rem


def _as_dict(poly):
    return {k: c.coeffs for k, c in poly.terms}


def _exponents(p, top):
    """Exponents up to top with two or three base-p digits where p allows,
    digits above 1 among them."""
    return st.builds(lambda d: min(top, sum(c * p ** j for j, c in
                                            enumerate(d))),
                     st.lists(st.integers(0, min(p - 1, 3)),
                              min_size=1, max_size=3))


def _ref_poly(p, e, exps, size):
    return st.one_of(
        st.just({}), st.just({0: (1,) + (0,) * (e - 1)}),
        st.dictionaries(exps, _coeffs(p, e), max_size=size).map(
            lambda d: {k: c for k, c in d.items() if any(c)}))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_packed_poly_products_match_tuples(data):
    p, e = data.draw(st.sampled_from(SHAPES))
    ctx, f = make_field(p, e), make_field(p, e).modulus

    def poly(d):
        return FqPoly(ctx, [(k, ctx.elem(c)) for k, c in d.items()])

    # g of degree <= 3, often with a constant term, keeps g^k small
    A = data.draw(_ref_poly(p, e, _exponents(p, 40), 4))
    B = data.draw(_ref_poly(p, e, st.integers(0, 6), 3))
    G = data.draw(_ref_poly(p, e, st.integers(0, 3), 3))
    k = data.draw(_exponents(p, 30))
    assert _as_dict(poly(A) * poly(B)) == _ref_poly_mul(A, B, f, p)
    assert _as_dict(poly(G) ** k) == _ref_poly_pow(G, k, f, p)
    assert _as_dict(poly(A).compose(poly(G))) == _ref_compose(A, G, f, p)
    j = data.draw(st.integers(0, 2 * e))
    assert _as_dict(poly(B).pth_power(j)) == {
        k * p ** j: _ref_pow(c, p ** j, f, p) for k, c in B.items()}
    assert _as_dict(poly(A) + poly(B)) == _ref_add(A, B, p)
    assert _as_dict(poly(A) - poly(B)) == _ref_add(A, B, p, -1)
    assert _as_dict(-poly(A)) == _ref_add({}, A, p, -1)
    # repeated exponents add up, and the cancelled ones drop out
    pairs = [(i % 5, c) for i, c in A.items()] + list(B.items())
    pairs += [(i, tuple(-u % p for u in c)) for i, c in B.items()]
    want = {}
    for i, c in pairs:
        want = _ref_add(want, {i: c}, p)
    assert _as_dict(FqPoly(ctx, [(i, ctx.elem(c)) for i, c in pairs])) \
        == want
    if B:
        quot, rem = divmod(poly(A), poly(B))
        assert (_as_dict(quot), _as_dict(rem)) == _ref_divmod(A, B, f, p)
        assert poly(A) % poly(B) == rem
        want = _ref_divmod({0: (1,) + (0,) * (e - 1)}, B, f, p)[1]
        for _ in range(k):
            want = _ref_divmod(_ref_poly_mul(want, G, f, p), B, f, p)[1]
        assert _as_dict(pow(poly(G), k, poly(B))) == want
    else:
        with pytest.raises(ZeroDivisionError):
            divmod(poly(A), poly(B))
    if e <= 6:  # embed into F_(p^2e)
        big = extension_field(p, 2 * e)
        rho = subfield_root(ctx, big).coeffs
        want = {}
        for i, c in A.items():
            want[i] = (0,) * 2 * e
            for ci in reversed(c):
                want[i] = _ref_mul(want[i], rho, big.modulus, p)
                want[i] = (want[i][0] + ci) % p, *want[i][1:]
        assert _as_dict(embed_poly(poly(A), big)) == want


def test_packed_poly_edge_cases():
    for p, e in SHAPES:
        ctx = make_field(p, e)
        a = ctx.elem([1] * e)
        x, one, zero = FqPoly.x(ctx), FqPoly(ctx, [(0, 1)]), FqPoly.zero(ctx)
        # the X terms cancel, and f(a) = 0 makes the substitution vanish
        assert (x + a * one) * (x - a * one) == x * x - (a * a) * one
        assert ((x + a * one) * (x - a * one)).coeff(1) == ctx.zero
        f = x ** (2 * p + 1) - (a ** (2 * p + 1)) * one
        assert f.compose(a * one) == zero
        # factors equal to one, and the zero polynomial
        assert f * one == one * f == f * 1 == f.compose(x) == f ** 1 == f
        assert f ** 0 == one == zero ** 0 == one.compose(f)
        assert f * zero == zero * f == f * 0 == p * f == zero
        assert zero.compose(f) == zero
        assert zero ** 3 == zero.pth_power() == zero
        assert f.compose(zero) == f.coeff(0) * one


@pytest.mark.parametrize("p, e", [(3, 8), (19, 3), (5, 3), (2, 1)])
def test_division_makes_one_element_per_result_term(monkeypatch, p, e):
    # divmod and pow(., k, m) reduce packed terms; the only elements they
    # make besides those of their results are the inverse of a non-monic
    # divisor's leading coefficient, at most one per call
    ctx, rng = make_field(p, e), random.Random(p + e)
    ctx._log_tables()  # built once per field, q - 1 elements

    def poly(n, top):
        return FqPoly(ctx, [(rng.randrange(top), ctx.elem(
            [rng.randrange(p) for _ in range(e)])) for _ in range(n)])
    made, elem = [], field._elem
    monkeypatch.setattr(field, "_elem", lambda c, v: made.append(v)
                        or elem(c, v))
    for lead in (ctx.one, ctx.gen + ctx.one):  # X + 1, or 1 at e = 1
        a, m = poly(30, 90), poly(6, 12) + FqPoly(ctx, [(12, lead)])
        del made[:]
        quot, rem = divmod(a, m)
        assert len(made) <= len(quot.terms) + len(rem.terms) + 1
        assert a == quot * m + rem and rem.degree() < 12
        del made[:]
        power = pow(a, 41, m)
        assert len(made) <= len(power.terms) + 1


def test_embed_poly_memo_follows_its_arguments():
    rng = random.Random(23)
    small = make_field(3, 2)
    big1, big2 = extension_field(3, 4), extension_field(3, 6)

    def draw():
        return FqPoly(small, [(rng.randrange(30), small.elem(
            [rng.randrange(3), rng.randrange(3)])) for _ in range(4)])

    def want(f, big):
        return FqPoly(big, [(k, embed_elem(c, big)) for k, c in f.terms])
    f1, f2 = draw(), draw()
    for f, big in [(f1, big1), (f2, big1), (f1, big2), (f1, big2),
                   (f2, big2), (f2, big1), (f1, big1)]:
        image = embed_poly(f, big)
        assert image.ctx is big and image == want(f, big)
    # the memo holds f itself, so the id it is keyed on cannot pass to
    # another polynomial while the memo answers for it
    f = draw()
    refs = sys.getrefcount(f)
    assert embed_poly(f, big2) == want(f, big2)
    assert sys.getrefcount(f) == refs + 1
