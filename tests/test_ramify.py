"""Break numbering conversions, genus formulas, and tower bookkeeping."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wildram.errors import (
    BadParameters,
    InconsistentLadder,
    InvalidProfile,
    NonIntegralLowerBreaks,
    OddSum,
)
from wildram.ramify import (
    Filtration,
    hasse_arf_check,
    herbrand_convert,
    hurwitz_genus,
    ladder_filtration,
    quotient_genus,
    tower_genus,
)


def test_herbrand_round_trip_known():
    low = Filtration("lower", [(1, 27), (4, 3)])
    up = herbrand_convert(low)
    assert up.numbering == "upper"
    assert up.breaks() == [Fraction(1), Fraction(4, 3)]
    assert not hasse_arf_check(up)
    back = herbrand_convert(up)
    assert back.segments == low.segments


def test_herbrand_round_trip_random():
    rng = random.Random(41)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        k = rng.randrange(1, 4)
        orders = sorted({p ** rng.randrange(1, 5) for _ in range(k)},
                        reverse=True)
        lasts, cur = [], 0
        for _ in orders:
            cur += rng.randrange(1, 8)
            lasts.append(cur)
        filt = Filtration("lower", list(zip(lasts, orders)))
        back = herbrand_convert(herbrand_convert(filt))
        assert back.segments == filt.segments
        assert back.numbering == "lower"


@st.composite
def _lower_filtration(draw):
    """A lower filtration of a p-group, p <= 7: up to four jumps with
    strictly falling orders p^a, a <= 6, and breaks below 10^6."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    exps = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4,
                         unique=True))
    gaps = draw(st.lists(st.integers(1, 10 ** 5), min_size=len(exps),
                         max_size=len(exps)))
    lasts = [sum(gaps[:i + 1]) for i in range(len(gaps))]
    orders = [p ** a for a in sorted(exps, reverse=True)]
    return Filtration("lower", list(zip(lasts, orders)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_lower_filtration())
def test_herbrand_round_trip_property(filt):
    up = herbrand_convert(filt)
    assert up.numbering == "upper"
    back = herbrand_convert(up)
    assert back.numbering == "lower"
    assert back.segments == filt.segments


def test_hurwitz_genus_known_values():
    # two-level p=3 tower: G_i = 27 for i <= 4 then 3 up to 28
    filt = Filtration("lower", [(4, 27), (28, 3)])
    assert hurwitz_genus(filt) == 63
    # a p-cyclic cover with a single break
    assert hurwitz_genus(Filtration("lower", [(26, 25)])) == 300
    assert hurwitz_genus(Filtration("lower", [(1, 27), (4, 3)])) == 3
    with pytest.raises(OddSum):
        hurwitz_genus(Filtration("lower", [(2, 2)]))


def test_group_order_and_order_at():
    filt = Filtration("lower", [(4, 27), (28, 3)])
    assert filt.group_order == 27
    assert filt.order_at(1) == 27
    assert filt.order_at(4) == 27
    assert filt.order_at(5) == 3
    assert filt.order_at(28) == 3
    assert filt.order_at(29) == 1
    assert filt.last_break() == 28


def test_quotient_genus_drops_top_level():
    big = Filtration("lower", [(4, 9), (28, 3)])
    sub = Filtration("lower", [(28, 3)])
    assert quotient_genus(big, sub) == 3
    # matches the one-level cover the quotient is
    assert hurwitz_genus(Filtration("lower", [(4, 3)])) == 3
    assert quotient_genus(big, big) == 0
    with pytest.raises(InvalidProfile):
        quotient_genus(big, Filtration("lower", [(28, 5)]))


def test_tower_genus_merges_equal_conductors():
    # two independent degree-5 characters with the same conductor merge
    g, audit = tower_genus([(27, 5), (27, 5)], with_audit=True)
    assert g == 300
    assert audit["degree"] == 25
    assert audit["levels"] == [(27, 25, 25)]
    merged = tower_genus([(27, 25)])
    assert tower_genus([(27, 5), (27, 5)]) == merged
    # levels may arrive out of order; they are sorted by conductor
    assert tower_genus([(13, 3), (5, 3)]) == tower_genus([(5, 3), (13, 3)])
    with pytest.raises(InconsistentLadder):
        tower_genus([(27, 5), (1, 5)])


def test_tower_genus_frozen_anchors():
    assert tower_genus([(4, 2), (6, 2), (7, 2)]) == 15
    assert tower_genus([(5, 3), (6, 3), (11, 3), (12, 3), (13, 3)]) == 1257
    assert tower_genus([(5, 3), (11, 9), (12, 9), (13, 3)]) == 3864
    assert tower_genus([(6, 8), (10, 8), (11, 2)]) == 526


def test_ladder_filtration_is_upper_with_integral_breaks():
    filt = ladder_filtration([(5, 3), (13, 3)])
    assert filt.numbering == "upper"
    assert filt.breaks() == [Fraction(4), Fraction(12)]
    assert hasse_arf_check(filt)
    low = herbrand_convert(filt)
    assert low.segments == ((4, 9), (28, 3))
    assert hurwitz_genus(low) == tower_genus([(5, 3), (13, 3)])


def test_filtration_validation():
    with pytest.raises(InvalidProfile):
        Filtration("lower", [(3, 3), (5, 9)])  # orders must decrease
    with pytest.raises(InvalidProfile):
        Filtration("lower", [(5, 9), (3, 3)])  # lasts must increase
    with pytest.raises(BadParameters):
        Filtration("sideways", [(1, 2)])
    with pytest.raises(InvalidProfile):
        Filtration("lower", [(Fraction(3, 2), 2)])
    # an upper filtration whose preimage misses the integer lattice
    with pytest.raises(NonIntegralLowerBreaks):
        herbrand_convert(Filtration("upper", [(Fraction(3, 2), 2)]))
    # order-1 segments are dropped silently
    filt = Filtration("lower", [(4, 2), (9, 1)])
    assert filt.segments == ((4, 2),)


def test_json_round_trip():
    filt = Filtration("upper", [(Fraction(10, 9), 3)])
    obj = filt.to_json()
    assert obj["numbering"] == "upper"
    assert obj["segments"] == [[10, 9, 3]]
    rebuilt = Filtration(obj["numbering"],
                         [(Fraction(n, d), o) for n, d, o in obj["segments"]])
    assert rebuilt.segments == filt.segments
