"""Field tower arithmetic against a sympy oracle and frozen anchors."""

import itertools
import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.domains import GF

from wildram import field
from wildram.additive import (
    AdditiveOp,
    frobenius_operator,
    linearize_kernel,
    operator_matrix,
)
from wildram.errors import (
    DegreeOutOfRange,
    NonPrime,
    NotASubfieldDegree,
    ResourceLimit,
)
from wildram.field import (
    FqPoly,
    _KronRing,
    _is_irreducible,
    _is_prime,
    _kron_fold,
    _pack,
    _reduction_rows,
    _unpack,
    embed_elem,
    embed_poly,
    extension_field,
    field_from_json,
    frobenius_trace,
    make_field,
    reduce_pth_powers,
    subfield_root,
)

CONFIGS = [(2, 1), (2, 3), (3, 2), (5, 4), (7, 2)]
# across the table limit: (2, 12) is the largest table field; (2, 13),
# (3, 8) and (5, 6) multiply by Kronecker substitution, and (65537, 3)
# needs slots wider than 32 bits
ARITH_CONFIGS = CONFIGS + [(2, 12), (2, 13), (3, 8), (5, 6), (65537, 3)]


def _sympy_dom(ctx):
    z = sympy.Symbol("z")
    mod = sympy.Poly(list(reversed(ctx.modulus)), z, domain=GF(ctx.p))
    return z, mod


def _to_poly(x, z, p):
    return sympy.Poly(list(reversed(x.coeffs)), z, domain=GF(p))


def _sympy_least_irreducible(p, e):
    # the same candidate order as the modulus scan: (c_0, ..., c_{e-1})
    # lexicographically, c_0 >= 1
    z = sympy.Symbol("z")
    for head in range(1, p):
        for tail in itertools.product(range(p), repeat=e - 1):
            coeffs = (head,) + tail + (1,)
            if sympy.Poly(list(reversed(coeffs)), z,
                          domain=GF(p)).is_irreducible:
                return coeffs


def test_moduli_irreducible_and_canonical():
    for p, e in CONFIGS:
        ctx = make_field(p, e)
        z, mod = _sympy_dom(ctx)
        assert sympy.Poly(mod, z).is_irreducible
        assert len(ctx.modulus) == e + 1 and ctx.modulus[e] == 1
    assert make_field(5, 4).modulus == (1, 0, 1, 1, 1)
    # least irreducible in the scan's order, found by sympy
    shapes = [(p, e) for p in (2, 3, 5, 7) for e in range(2, 9)]
    for p, e in shapes + [(2, 36), (3, 24), (5, 26)]:
        assert extension_field(p, e).modulus == _sympy_least_irreducible(p, e)


@settings(max_examples=150, derandomize=True, deadline=None)
# X^(p^e) = X mod f rules out these prime powers
@example((2, [1, 0, 1, 0]))  # (X^2 + X + 1)^2
@example((3, [1, 0, 2, 0]))  # (X^2 + 1)^2
@example((5, [0, 0, 0]))     # X^3
# distinct irreducibles of degrees dividing e pass it: only the gcd with
# X^(p^(e/l)) - X turns these away
@example((2, [1, 1, 1, 1, 1, 1]))  # (X^3 + X + 1)(X^3 + X^2 + 1)
@example((3, [2, 1, 0, 1]))        # (X^2 + 1)(X^2 + X + 2)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(
        st.integers(0, p - 1), min_size=1, max_size=9))))
def test_scan_agrees_with_sympy(case):
    p, low = case
    coeffs = tuple(low) + (1,)
    z = sympy.Symbol("z")
    want = sympy.Poly(list(reversed(coeffs)), z, domain=GF(p)).is_irreducible
    assert _is_irreducible(coeffs, p) == want


def _mobius(k):
    powers = sympy.factorint(k).values()
    return 0 if any(a > 1 for a in powers) else (-1) ** len(powers)


@pytest.mark.parametrize("p,top", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_scan_counts_match_gauss(p, top):
    # the monic irreducibles of degree n over F_p number
    # (1/n) sum_{k | n} mu(k) p^(n/k)
    for n in range(1, top + 1):
        got = sum(_is_irreducible(low + (1,), p)
                  for low in itertools.product(range(p), repeat=n))
        assert n * got == sum(_mobius(k) * p ** (n // k)
                              for k in range(1, n + 1) if n % k == 0)


def _sympy_pow(pa, k, mod):
    acc = sympy.Poly(1, pa.gen, domain=pa.domain)
    while k:
        if k & 1:
            acc = (acc * pa) % mod
        pa = (pa * pa) % mod
        k >>= 1
    return acc


def test_arithmetic_matches_sympy():
    rng = random.Random(11)
    for p, e in ARITH_CONFIGS:
        ctx = make_field(p, e)
        z, mod = _sympy_dom(ctx)
        assert ctx.zero ** 0 == ctx.one
        # all coefficients p - 1 fill the convolution's slots to the top
        top = ctx.elem([p - 1] * e)
        pairs = [(top, top)] + [
            tuple(ctx.elem([rng.randrange(p) for _ in range(e)])
                  for _ in range(2)) for _ in range(60)]
        for a, b in pairs:
            pa, pb = _to_poly(a, z, p), _to_poly(b, z, p)
            assert _to_poly(a * b, z, p) == (pa * pb) % mod
            assert _to_poly(a + b, z, p) == (pa + pb) % mod
            assert _to_poly(a - b, z, p) == (pa - pb) % mod
            k = rng.randrange(1, 2 * ctx.q)
            assert _to_poly(a ** k, z, p) == _sympy_pow(pa, k, mod)
            for j in range(e + 1):
                assert a.frobenius(j) == a ** (p ** j)
            if not a.is_zero():
                assert (a.inverse() * a) == ctx.one
                assert _to_poly(a ** -k, z, p) \
                    == _sympy_pow(pa.invert(mod), k, mod)


def _kron_mulmod(a, b, rows, r):
    """Product of two length-e coefficient vectors mod (f, r), one bigint
    product and _kron_fold: the kernel's tuple form."""
    bits = rows[0]
    z = _kron_fold(_pack(a, bits) * _pack(b, bits), rows)
    return tuple(c % r for c in _unpack(z, len(a), bits))


def test_kron_kernel_slot_bound():
    # every monic cubic mod 3, every pair: X^3 + X^2 with a = b = 2 + 2X
    # + 2X^2 fills a slot past 2^4, so a width of e(r - 1)^2 would carry
    r, e = 3, 3
    vecs = list(itertools.product(range(r), repeat=e))
    for low in vecs:
        f = low + (1,)
        rows = _reduction_rows(f, r)
        for a in vecs:
            for b in vecs:
                conv = [0] * (2 * e - 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        conv[i + j] += x * y
                for t in range(2 * e - 2, e - 1, -1):
                    for i in range(e):
                        conv[t - e + i] -= conv[t] * f[i]
                assert _kron_mulmod(a, b, rows, r) \
                    == tuple(v % r for v in conv[:e])


def test_frobenius_is_pth_power():
    rng = random.Random(12)
    for p, e in CONFIGS:
        ctx = make_field(p, e)
        for _ in range(40):
            x = ctx.elem([rng.randrange(p) for _ in range(e)])
            assert x.frobenius() == x ** p
            assert x.frobenius(e) == x
            assert x.frobenius().frobenius(-1) == x
        for k in range(e + 1):
            prod = (np.array(operator_matrix(frobenius_operator(ctx, k), ctx))
                    @ np.array(operator_matrix(
                        frobenius_operator(ctx, -k % e), ctx)))
            assert (prod % p == np.eye(e, dtype=np.int64)).all()
    ctx = make_field(3, 2)
    M = operator_matrix(frobenius_operator(ctx), ctx)
    for i in range(ctx.e):
        basis = ctx.elem([1 if j == i else 0 for j in range(ctx.e)])
        assert tuple(int(v) % 3 for v in M[i]) == (basis ** 3).coeffs


def test_elements_enumeration():
    ctx = make_field(3, 2)
    elems = list(ctx.elements())
    assert len(elems) == 9
    assert elems[0] == ctx.zero
    assert len(set(elems)) == 9
    assert elems == sorted(elems, key=lambda x: x.coeffs)


def test_trace_properties():
    rng = random.Random(13)
    for p, e in CONFIGS:
        ctx = make_field(p, e)
        for _ in range(30):
            x = ctx.elem([rng.randrange(p) for _ in range(e)])
            y = ctx.elem([rng.randrange(p) for _ in range(e)])
            t = frobenius_trace(x)
            # the trace is frobenius stable, hence prime-field valued
            assert t.frobenius() == t
            assert all(c == 0 for c in t.coeffs[1:])
            assert frobenius_trace(x + y) == t + frobenius_trace(y)
            assert frobenius_trace(x.frobenius()) == t
        # surjectivity onto F_p
        images = {frobenius_trace(v).coeffs[0] for v in ctx.elements()}
        assert images == set(range(p))


def _random_poly(ctx, rng, max_deg):
    terms = []
    for exp in rng.sample(range(max_deg + 1), rng.randrange(1, 6)):
        c = ctx.elem([rng.randrange(ctx.p) for _ in range(ctx.e)])
        if not c.is_zero():
            terms.append((exp, c))
    return FqPoly(ctx, tuple(terms))


def test_reduce_pth_powers_identity():
    rng = random.Random(14)
    for p, e in [(2, 3), (3, 2), (5, 1)]:
        ctx = make_field(p, e)
        for _ in range(50):
            f = _random_poly(ctx, rng, 40)
            red, const, wit = reduce_pth_powers(f)
            assert all(exp % p or exp == 0 for exp, _ in red.terms)
            assert all(exp > 0 for exp, _ in red.terms)
            back = red + FqPoly(ctx, ((0, const),)) \
                + wit.pth_power() - wit
            assert back == f


def test_reduce_strips_towers_completely():
    # Z^4 over F_2 collapses two steps down to Z
    ctx = make_field(2, 1)
    f = FqPoly(ctx, ((4, ctx.one),))
    red, const, _ = reduce_pth_powers(f)
    assert red.terms == ((1, ctx.one),)
    assert const == ctx.zero


def test_poly_algebra():
    rng = random.Random(15)
    ctx = make_field(3, 2)
    for _ in range(40):
        f = _random_poly(ctx, rng, 15)
        g = _random_poly(ctx, rng, 6)
        x = ctx.elem([rng.randrange(3), rng.randrange(3)])
        assert f.compose(g).evaluate(x) == f.evaluate(g.evaluate(x))
        assert f.pth_power().evaluate(x) == f.evaluate(x) ** 3
        if not f.is_zero() and not g.is_zero():
            assert (f * g).degree() == f.degree() + g.degree()
    assert FqPoly.zero(ctx).degree() == -1
    assert FqPoly.x(ctx).degree() == 1


def test_subfield_embedding():
    small = make_field(3, 2)
    big = extension_field(3, 4)
    rng = random.Random(16)
    for _ in range(25):
        a = small.elem([rng.randrange(3), rng.randrange(3)])
        b = small.elem([rng.randrange(3), rng.randrange(3)])
        ea, eb = embed_elem(a, big), embed_elem(b, big)
        assert embed_elem(a * b, big) == ea * eb
        assert embed_elem(a + b, big) == ea + eb
        # image is fixed by the subfield frobenius power
        assert ea.frobenius(2) == ea
    root = subfield_root(small, big)
    assert root.frobenius(2) == root
    f = _random_poly(small, rng, 8)
    x = small.elem([1, 2])
    assert embed_poly(f, big).evaluate(embed_elem(x, big)) \
        == embed_elem(f.evaluate(x), big)
    with pytest.raises(NotASubfieldDegree):
        subfield_root(make_field(3, 3), big)


def test_subfield_root_is_least_root():
    # every field with at most 4096 elements by brute force; the larger
    # ones enumerate the fixed field as the kernel of F^d - 1
    small_cases = [(p, d, e) for p in (2, 3, 5, 7) for e in range(3, 13)
                   for d in range(2, e) if e % d == 0 and p ** e <= 4096]
    large_cases = [(2, 2, 36), (3, 2, 24), (5, 2, 26), (2, 8, 16),
                   (2, 9, 18), (2, 6, 36), (3, 4, 12), (3, 6, 12), (5, 3, 9),
                   (7, 3, 6)]
    for p, d, e in small_cases + large_cases:
        small, big = make_field(p, d), extension_field(p, e)
        if big.q <= 4096:
            fixed = [x for x in big.elements() if x.frobenius(d) == x]
        else:
            op = AdditiveOp(make_field(p, 1), [-1] + [0] * (d - 1) + [1])
            fixed = list(linearize_kernel(op, e).elements())
        assert len(fixed) == p ** d
        g = FqPoly(big, enumerate(small.modulus))
        roots = [x for x in fixed if not g.evaluate(x)]
        assert subfield_root(small, big) == min(roots, key=lambda x: x.coeffs)


def _count_products(monkeypatch):
    calls, mul = [], _KronRing._mul

    def counted(self, x, y):
        calls.append(1)
        return mul(self, x, y)
    monkeypatch.setattr(_KronRing, "_mul", counted)
    return calls


def test_subfield_root_splits_inside_the_subfield(monkeypatch):
    # exponent (3^18 - 1)/2, not (3^36 - 1)/2: 91 749 products when the
    # split ran in the big field, 15 460 with every square made as a
    # product of two polynomials, about 11 000 now (cold Frobenius rows in)
    small, big = extension_field(3, 18), extension_field(3, 36)
    monkeypatch.setattr(field, "_EMBED_ROOTS", {})
    monkeypatch.setattr(big, "_frob", {})
    calls = _count_products(monkeypatch)
    root = subfield_root(small, big)
    assert len(calls) <= 30000
    assert root.frobenius(18) == root
    assert not FqPoly(big, enumerate(small.modulus)).evaluate(root)


def test_subfield_root_refuses_non_subfields_at_once(monkeypatch):
    pairs = [(make_field(3, 3), extension_field(3, 4)),
             (make_field(2, 2), extension_field(3, 4))]
    calls = _count_products(monkeypatch)
    for small, big in pairs:
        with pytest.raises(NotASubfieldDegree):
            subfield_root(small, big)
    assert not calls


@pytest.mark.parametrize("p, e", [(2, 13), (3, 8), (5, 6), (7, 5),
                                  (2, 4), (3, 2), (5, 1), (7, 1)])
def test_squares_take_each_pair_of_terms_once(monkeypatch, p, e):
    # a * a, and so pow(a, k, m), makes n(n + 1)/2 products for n terms
    # (n at p = 2); b, an equal copy of a, takes the route of every
    # ordered pair, which the squares must match
    ctx, rng = make_field(p, e), random.Random(p * e)
    calls = _count_products(monkeypatch)

    def poly(n, top=40):
        return FqPoly(ctx, [(rng.randrange(top), ctx.elem(
            [rng.randrange(p) for _ in range(e)])) for _ in range(n)])

    m = poly(12, 20) + FqPoly(ctx, [(20, ctx.one)])
    for n in (1, 2, 5, 12, 30):
        a = poly(n) + FqPoly(ctx, [(41, ctx.one)])  # a factor 1 passes
        b, n = FqPoly(ctx, a.terms), len(a.terms)
        assert b is not a and b == a
        calls.clear()
        square = a * a
        if ctx._log_tables() is None:
            assert len(calls) <= (n if p == 2 else n * (n + 1) // 2)
        assert square == a * b
        for k in (2, 3, 7, 10):
            want = FqPoly(ctx, [(0, ctx.one)])
            for _ in range(k):
                want = want * b % m
            assert pow(a, k, m) == want


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (5, 1), (7, 1),
                                  (2, 5), (3, 3), (5, 2), (7, 4)])
def test_reduction_rows_match_long_division(p, n):
    # mu = X^(2e-2) div f for monic f mod r = p^n (Witt moduli at n > 1),
    # against the long division that subtracts one multiple of f per digit
    rng, r = random.Random(10 * p + n), p ** n
    for e in [1, 2, 3, 4, 5, 8, 13, 17, 36]:
        for _ in range(4):
            f = [rng.randrange(r) for _ in range(e)] + [1]
            rem, mu = [0] * (2 * e - 2) + [1], []
            for k in range(2 * e - 2, e - 1, -1):
                mu.append(rem[k] % r)
                for i in range(e):
                    rem[k - e + i] -= mu[-1] * f[i]
            bits = _reduction_rows(f, r)[0]
            assert _reduction_rows(tuple(f), r) == (
                bits, e * bits, max(e - 2, 0) * bits, (1 << e * bits) - 1,
                _pack(mu[::-1], bits), _pack([-c % r for c in f[:e]], bits))


# e = 1, table fields and Kronecker fields
DIV_CONFIGS = [(2, 1), (5, 1), (3, 2), (2, 4), (2, 13), (3, 8)]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.data())
def test_poly_division(data):
    p, e = data.draw(st.sampled_from(DIV_CONFIGS))
    ctx = make_field(p, e)

    def poly(max_deg):
        coeff = st.lists(st.integers(0, p - 1), min_size=e, max_size=e)
        terms = data.draw(st.lists(st.tuples(st.integers(0, max_deg), coeff),
                                   max_size=6))
        return FqPoly(ctx, [(k, ctx.elem(c)) for k, c in terms])

    a, b = poly(14), poly(6)
    if not b:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    quot, rem = divmod(a, b)
    assert quot * b + rem == a and rem.degree() < b.degree()
    assert a % b == rem
    k = data.draw(st.integers(0, 3 * p))
    want = FqPoly(ctx, ((0, 1),))
    for _ in range(k):
        want = want * a
    assert a ** k == want
    assert pow(a, k, b) == want % b


def test_json_round_trip():
    ctx = make_field(5, 4)
    assert field_from_json(ctx.to_json()) == ctx
    f = FqPoly(ctx, ((26, ctx.one), (3, ctx.elem([1, 2, 3, 4]))))
    assert FqPoly.from_json(ctx, f.to_json()) == f


def test_bad_parameters():
    with pytest.raises(NonPrime):
        make_field(6, 1)
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 0)
    # the input fence e * (p - 1)^2 < 2^63 keeps p where the primality
    # test is proven; it fails at e = 2 once p > 2^31 + 1, and the
    # refusal comes before any scan
    p = 2 ** 31 + 11
    assert sympy.isprime(p)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="proven range"):
        extension_field(p, 2)
    assert time.perf_counter() - start < 1
    # just under the bound the scan runs, in bounded memory
    assert extension_field(2 ** 31 - 1, 2).modulus == (1, 0, 1)


def test_is_prime_matches_sympy():
    assert [n for n in range(100001) if _is_prime(n)] \
        == list(sympy.primerange(100001))
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                  825265, 321197185, 5394826801, 232250619601]
    # strong pseudoprimes to base 2, the last to every prime base < 37
    strong = [2047, 3277, 4033, 4681, 8321, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051]
    for n in carmichael + strong + [10000000000000061, 2 ** 61 - 1]:
        assert _is_prime(n) == sympy.isprime(n)
