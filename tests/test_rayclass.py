"""Ray class group engine against the brute-force oracle and closed forms."""

import time

import pytest
from _brute_reference import brute_ray_class as reference_brute
from _walk_reference import digit_tensor, walk_profile

from wildram import rayclass
from wildram.errors import BadParameters, ResourceLimit, TooLarge
from wildram.field import FieldCtx, make_field
from wildram.rayclass import (
    brute_ray_class,
    find_second_jump,
    format_table_csv,
    ray_class_invariants,
    ray_class_table,
)


def test_engine_matches_brute_small():
    for p, e, ms in [(2, 1, range(2, 10)), (2, 2, range(2, 7)),
                     (3, 1, range(2, 8)), (5, 1, range(2, 6))]:
        ctx = make_field(p, e)
        for m in ms:
            got = ray_class_invariants(ctx, m)
            want = brute_ray_class(ctx, m)
            assert got["invariants"] == want["invariants"], (p, e, m)
            assert got["order_exp"] == want["order_exp"]


def test_brute_matches_reference():
    # the H-closure oracle against the enumerate-U reference, full result
    # dicts, on criterion 6's fields wherever q^(m-1) <= 2^12
    instances = 0
    for p, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        ctx = make_field(p, e)
        m = 2
        while (p ** e) ** (m - 1) <= 2 ** 12:
            assert brute_ray_class(ctx, m) == reference_brute(ctx, m), \
                (p, e, m)
            instances += 1
            m += 1
    assert instances == 37


def test_brute_closure_makes_each_unit_of_h_once(monkeypatch):
    # the coset closure multiplies at most |H| + 2q rows by 1 - yZ, on the
    # universe of test_brute_matches_reference; a search that multiplies
    # all of H by every generator makes about |H| (q - 1)
    times_unit, rows = rayclass._times_unit, [0]

    def counting(block, *args):
        rows[0] += len(block)
        return times_unit(block, *args)

    monkeypatch.setattr(rayclass, "_times_unit", counting)
    instances = 0
    for p, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        ctx, q = make_field(p, e), p ** e
        m = 2
        while q ** (m - 1) <= 2 ** 12:
            rows[0] = 0
            result = brute_ray_class(ctx, m)
            h_size = q ** (m - 1) // p ** result["order_exp"]
            assert 0 < rows[0] <= h_size + 2 * q, (p, e, m)
            instances += 1
            m += 1
    assert instances == 37


def test_modulus_below_one_refused(monkeypatch):
    # the oracle refuses what the engine refuses, before touching F_q
    def no_work(*args):
        raise AssertionError("enumerated the field before the check")
    monkeypatch.setattr(FieldCtx, "elements", no_work)
    ctx = make_field(3, 2)
    for m in (0, -1):
        for solve in (brute_ray_class, ray_class_invariants):
            with pytest.raises(BadParameters,
                               match="^modulus exponent must be at least 1$"):
                solve(ctx, m)


def test_brute_tables_bounded_by_cap(monkeypatch):
    # F_1031 at m = 2 has a bitmap of 1031 bytes under the cap, but its
    # product and difference tables would hold 1031^2 > 2^20 entries
    def no_work(*args):
        raise AssertionError("enumerated the field before the check")
    monkeypatch.setattr(FieldCtx, "elements", no_work)
    ctx = make_field(1031, 1)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="tables of 1062961 entries"):
        brute_ray_class(ctx, 2)
    assert time.perf_counter() - start < 1
    assert brute_ray_class(ctx, 1)["n_places"] == 1032


def test_second_jump_closed_form():
    # m2 = p^(ceil(e/2)+1) + p + 1
    for p, e, want in [(2, 1, 7), (2, 2, 7), (3, 1, 13), (3, 2, 13),
                       (2, 3, 11), (2, 4, 11), (2, 5, 19), (2, 6, 19),
                       (3, 3, 31), (5, 2, 31)]:
        ctx = make_field(p, e)
        assert find_second_jump(ctx) == want


def test_second_jump_cap_edges():
    # a cap exactly at the law still finds it; one below gives up
    for p, e, law in [(2, 2, 7), (3, 1, 13), (2, 5, 19)]:
        ctx = make_field(p, e)
        assert find_second_jump(ctx, cap=law) == law
        with pytest.raises(ResourceLimit, match="up to modulus %d" % (law - 1)):
            find_second_jump(ctx, cap=law - 1)
    # the law at F_65537 is far past the modulus limit: give up there
    with pytest.raises(ResourceLimit,
                       match="up to modulus 65536, the modulus limit$"):
        find_second_jump(make_field(65537, 1))


def test_table_equals_walks_at_each_modulus():
    # the closed-form profiles against the reference echelon walk
    for p, e, top in [(2, 1, 40), (2, 2, 30), (3, 1, 40), (3, 2, 30),
                      (5, 1, 40), (2, 3, 25), (5, 2, 40), (2, 4, 40),
                      (7, 1, 60), (7, 2, 60), (11, 1, 150), (13, 2, 40),
                      (3, 3, 40), (2, 5, 40), (5, 3, 60), (3, 4, 60),
                      (2, 6, 70), (3, 5, 50)]:
        ctx = make_field(p, e)
        ks = range(1, rayclass._kmax(p, top) + 1)
        assert rayclass.pivot_profiles(ctx, top, ks) == \
            {k: walk_profile(ctx, top, k) for k in ks}, (p, e, top)
    # one profile per k at the widest modulus against a call at each m
    for p, e, top in [(2, 1, 40), (2, 2, 30), (3, 1, 40), (3, 2, 30),
                      (5, 1, 40), (2, 3, 25)]:
        ctx = make_field(p, e)
        for order_only in (False, True):
            table = ray_class_table(ctx, range(2, top + 1),
                                    order_only=order_only)
            single = [ray_class_invariants(ctx, m, order_only=order_only)
                      for m in range(2, top + 1)]
            assert table == single, (p, e, order_only)


def test_trivial_range():
    # groups stay trivial through m = p^ceil(e/2) + 1
    for p, e, cap in [(2, 2, 3), (3, 1, 4)]:
        ctx = make_field(p, e)
        for m in range(2, cap + 1):
            assert ray_class_invariants(ctx, m)["order_exp"] == 0
        assert ray_class_invariants(ctx, cap + 1)["order_exp"] > 0


def test_f4_profile():
    ctx = make_field(2, 2)
    want = {3: (), 4: (2,), 5: (2,), 6: (2, 2, 2), 7: (4, 2, 2),
            9: (4, 2, 2, 2, 2)}
    for m, inv in want.items():
        row = ray_class_invariants(ctx, m)
        assert row["invariants"] == inv
        assert row["order_exp"] == sum(x.bit_length() - 1 for x in inv)


def test_order_only_mode():
    ctx = make_field(3, 1)
    for m in range(2, 9):
        fast = ray_class_invariants(ctx, m, order_only=True)
        full = ray_class_invariants(ctx, m)
        assert fast["order_exp"] == full["order_exp"]
        assert fast["invariants"] is None and fast["exponent"] is None
        assert full["n_places"] == 1 + 3 * 3 ** full["order_exp"]


def test_invariants_are_descending_p_powers():
    ctx = make_field(2, 3)
    for m in (4, 7, 9):
        inv = ray_class_invariants(ctx, m)["invariants"]
        assert list(inv) == sorted(inv, reverse=True)
        for x in inv:
            assert x & (x - 1) == 0  # power of 2


def test_monotone_in_m():
    ctx = make_field(5, 1)
    orders = [ray_class_invariants(ctx, m, order_only=True)["order_exp"]
              for m in range(2, 10)]
    assert orders == sorted(orders)


def test_csv_format():
    ctx = make_field(2, 1)
    rows = ray_class_table(ctx, [4, 7])
    text = format_table_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "m,order_exp,exponent,invariants,N_m"
    assert lines[1] == "4,1,2,2,5"
    assert lines[2] == "7,3,4,4;2,17"
    assert text.endswith("\n")
    # order-only rows leave the structure columns empty
    bare = format_table_csv([ray_class_invariants(ctx, 7, order_only=True)])
    assert bare.splitlines()[1] == "7,3,,,17"


def test_resource_cap():
    ctx = make_field(5, 4)
    with pytest.raises(ResourceLimit):
        ray_class_invariants(ctx, 131, resource_cap=100)
    with pytest.raises(TooLarge):
        brute_ray_class(ctx, 131)
    # the largest modulus under the limit still runs, at the worst shape
    top = rayclass.MODULUS_LIMIT
    rows = ray_class_table(make_field(2, 1), [top], order_only=True)
    assert rows[0]["m"] == top


def test_resource_cap_checked_before_any_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("profiled before the cap check")
    monkeypatch.setattr(rayclass, "pivot_profiles", no_walk)
    ctx = make_field(3, 2)
    for order_only in (False, True):
        with pytest.raises(ResourceLimit, match="modulus 30 exceeds"):
            ray_class_table(ctx, [5, 30, 9, 40], resource_cap=50,
                            order_only=order_only)
        with pytest.raises(ResourceLimit,
                           match="modulus 65537 is over the limit of 65536"):
            ray_class_table(ctx, [5, 2 ** 16 + 1, 9], order_only=order_only)
        with pytest.raises(ResourceLimit, match="modulus 99999999 is over"):
            ray_class_table(ctx, range(2, 10 ** 8), order_only=order_only)


def test_digit_tensor_at_modulus_one():
    # U mod Z is trivial, so every generator has no digits at all
    for p, e in [(2, 1), (3, 2)]:
        S = digit_tensor(make_field(p, e), 1)
        assert S.shape == (p ** e - 1, 1, e)
        assert not S.any()
