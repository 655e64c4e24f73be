"""Profile validation, exact ratio arithmetic, and the rejection sieve."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wildram.bigaction import (
    ActionProfile,
    _rule_first_jump,
    jump_quotient_bound,
    profile_from_levels,
    quad_threshold,
    ratio_check,
    sieve,
)
from wildram.errors import (
    BadParameters,
    InvalidProfile,
    MissingDeclaration,
)
from wildram.ramify import Filtration


def _verdicts(report_or_list):
    items = getattr(report_or_list, "sieve_verdicts", report_or_list)
    return {rid: verdict for rid, verdict, _ in items}


def test_hermitian_profile_is_extremal():
    # translations by F_9 over the y^3 + y = x^4 cover: |G| = 27, g = 3
    prof = profile_from_levels(3, [(5, 3)], v=2, g2_invariants=[3], s=1)
    assert prof.group_order == 27 and prof.g2_order == 3
    rep = ratio_check(prof)
    assert rep.g == 3
    assert rep.ratio1 == Fraction(9)
    assert rep.is_big and rep.is_local_big
    # the quadratic invariant sits exactly at 4p/(p-1)^2
    assert rep.ratio2 == Fraction(4 * 3, (3 - 1) ** 2)
    assert set(_verdicts(rep).values()) == {"pass"}


def test_reject_cyclic_second_group():
    filt = Filtration("lower", [(1, 27), (4, 9)])
    prof = ActionProfile(3, filt, v=1, g2_invariants=[9])
    v = _verdicts(sieve(prof))
    assert v["cyclic-second-group"] == "reject"


def test_reject_order_bound():
    # |G_2| = 16 > p^3 inside the quadratic regime
    filt = Filtration("lower", [(1, 128), (3, 16)])
    prof = ActionProfile(2, filt, v=3)
    rep = ratio_check(prof)
    assert rep.g == 15
    assert rep.ratio2 >= quad_threshold(2)
    v = _verdicts(rep)
    assert v["second-group-order-bound"] == "reject"
    # undeclared structure stays not-applicable rather than passing
    assert v["cyclic-second-group"] == "not-applicable"
    assert v["translation-space-bound"] == "not-applicable"


def test_reject_translation_space():
    filt = Filtration("lower", [(1, 16), (3, 2)])
    prof = ActionProfile(2, filt, v=3, s=1)
    v = _verdicts(sieve(prof))
    assert v["translation-space-bound"] == "reject"
    assert v["second-group-order-bound"] == "pass"
    assert v["first-jump-order-bound"] == "pass"


def test_reject_exponent_and_mixed_shape():
    # (4, 2) is both exponent > p and the excluded mixed shape
    filt = Filtration("lower", [(1, 32), (3, 8)])
    prof = ActionProfile(2, filt, v=2, g2_invariants=[4, 2])
    rep = ratio_check(prof)
    assert rep.ratio2 >= quad_threshold(2)
    v = _verdicts(rep)
    assert v["second-group-exponent"] == "reject"
    assert v["mixed-shape"] == "reject"
    assert v["second-group-order-bound"] == "pass"  # 8 is not > 8


def test_subfamily_profile_passes():
    # the exponent-p^2 subfamily: deep in the small-ratio2 regime, the
    # gated rules stand down and nothing rejects
    from wildram.cover import family_build, tower_compose
    from wildram.field import make_field

    ctx = make_field(5, 4)
    tower = tower_compose(family_build(ctx, "jump2-even")["items"])
    levels = [(m, d) for m, d, _ in tower["levels"]]
    inv = (25,) + (5,) * 16
    prof = profile_from_levels(5, levels, v=4, g2_invariants=inv, s=2)
    assert prof.g2_order == 5 ** 18
    rep = ratio_check(prof)
    assert rep.g == tower["genus"]
    assert rep.is_big
    assert rep.ratio2 < quad_threshold(5)
    v = _verdicts(rep)
    assert "reject" not in v.values()
    assert v["cyclic-second-group"] == "pass"
    assert v["translation-space-bound"] == "pass"
    assert v["second-group-exponent"] == "not-applicable"


def test_first_jump_quotient_witness():
    prof = profile_from_levels(3, [(5, 3)], v=2, s=1)
    verdicts = sieve(prof)
    row = next(r for r in verdicts if r[0] == "first-jump-order-bound")
    assert row[1] == "pass"
    assert row[2]["quotient"] == 3
    assert row[2]["bound"] == [144, 1]


def test_first_jump_degenerate_quotient():
    # the filtration is still full at i0 + 1: Q = 1, rule stands down
    filt = Filtration("lower", [(1, 8), (7, 2)])
    prof = ActionProfile(2, filt, v=2, s=2)  # order_at(6) = order_at(2)
    v = dict((rid, (verdict, wit)) for rid, verdict, wit in sieve(prof))
    verdict, wit = v["first-jump-order-bound"]
    assert verdict == "not-applicable" and wit == {"quotient": 1}


def test_declared_exponents_are_not_raised_to_powers():
    # v and s come from JSON: p^v and p^s are built only where they can
    # decide something, so 10^12 answers at once with today's message or
    # verdicts, and every s agrees with order_at at i0 + 1 = 2 + p^s
    filt = {"numbering": "lower", "segments": [[1, 1, 27], [4, 1, 3]]}
    start = time.perf_counter()
    with pytest.raises(InvalidProfile, match=r"^group order 27 is not "
                       r"p\^1000000000000 times \|G_2\| = 3$"):
        ActionProfile.from_json({"p": 3, "filtration": filt, "v": 10 ** 12})
    huge = ActionProfile.from_json({"p": 3, "filtration": filt, "v": 2,
                                    "s": 10 ** 12, "g2_invariants": [3]})
    rows = {rid: (verdict, wit) for rid, verdict, wit in sieve(huge)}
    assert time.perf_counter() - start < 1
    assert rows["first-jump-order-bound"] == (
        "pass", {"g2_order": 3, "quotient": 3, "bound": [144, 1]})
    assert rows["translation-space-bound"] == (
        "pass", {"v": 2, "bound": 2 * 10 ** 12})
    for p, segs, v in [(3, [(1, 27), (4, 3)], 2), (2, [(1, 8), (7, 2)], 2),
                       (2, [(1, 16), (15, 4), (41, 2)], 2)]:
        f = Filtration("lower", segs)
        for s in range(1, 12):
            prof = ActionProfile(p, f, v=v, s=s)
            quotient = f.order_at(2) // f.order_at(2 + p ** s)
            assert _rule_first_jump(prof)[1]["quotient"] == quotient


def test_profile_prime_is_fenced():
    # as --p: no primality test on a p past 2^64, a usage error instead
    filt = {"numbering": "lower", "segments": [[1, 1, 27], [4, 1, 3]]}
    for p in (2 ** 64, 2 ** 89 - 1, 10 ** 1000 + 453):
        with pytest.raises(ValueError, match="below 2\\^64"):
            ActionProfile.from_json({"p": p, "filtration": filt, "v": 2})


def test_strict_mode_raises():
    prof = profile_from_levels(3, [(5, 3)], v=2)
    with pytest.raises(MissingDeclaration):
        sieve(prof, strict=True)


def test_zero_genus_profile():
    filt = Filtration("lower", [(1, 9)])
    prof = ActionProfile(3, filt, v=2)
    rep = ratio_check(prof)
    assert rep.zero_genus
    assert rep.ratio1 is None and rep.ratio2 is None
    assert not rep.is_big


def test_profile_validation():
    with pytest.raises(InvalidProfile):
        ActionProfile(3, Filtration("lower", [(2, 9)]), v=0)
    with pytest.raises(InvalidProfile):
        ActionProfile(3, Filtration("lower", [(1, 27), (4, 9)]), v=2)
    with pytest.raises(InvalidProfile):
        ActionProfile(3, Filtration("lower", [(1, 27), (4, 9)]), v=1,
                      g2_invariants=[3])
    with pytest.raises(BadParameters):
        ActionProfile(3, Filtration("lower", [(1, 27), (4, 9)]), v=1,
                      g2_invariants=[6, 3])
    with pytest.raises(BadParameters):
        ActionProfile(3, Filtration("lower", [(1, 27), (4, 9)]), v=1, s=0)


def test_jump_quotient_bound_shape():
    # decreasing in m, with the quartic value p^4/(p^2+1)^2 at threshold M
    for p in (2, 3, 5):
        vals = [jump_quotient_bound(p, m) for m in (1, 2, 3, 4, 5)]
        assert vals == sorted(vals, reverse=True)
    # at the default threshold the quartic value collapses to
    # p^4/(p^2+1)^2 through the (p^2-1)^2 cancellation
    assert jump_quotient_bound(3, 4) == Fraction(3 ** 4, (3 ** 2 + 1) ** 2)


def test_json_round_trip():
    prof = profile_from_levels(3, [(5, 3)], v=2, g2_invariants=[3], s=1)
    back = ActionProfile.from_json(prof.to_json())
    assert back.p == 3 and back.v == 2 and back.s == 1
    assert back.g2_invariants == (3,)
    assert back.filtration.segments == prof.filtration.segments
    rep = ratio_check(prof)
    obj = rep.to_json()
    assert obj["ratio1"] == [9, 1]
    assert obj["is_big"] is True
    assert {row["rule"] for row in obj["sieve"]} \
        == {rid for rid, _, _ in rep.sieve_verdicts}


@st.composite
def _profile(draw):
    """A candidate action over p <= 7: G_1 of order p^v |G_2| with its
    break at 1, up to three further jumps of strictly falling orders,
    and optionally G_2's invariants, in any order, and s.  At p = 2 the
    last break is odd, so the ramification sum is even."""
    p, v = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 3))
    exps = sorted(draw(st.lists(st.integers(1, 5), max_size=3, unique=True)),
                  reverse=True)
    gaps = draw(st.lists(st.integers(1, 200), min_size=len(exps),
                         max_size=len(exps)))
    lasts = [1 + sum(gaps[:i + 1]) for i in range(len(gaps))]
    if p == 2 and lasts and lasts[-1] % 2 == 0:
        lasts[-1] += 1
    top = exps[0] if exps else 0
    filt = Filtration("lower", [(1, p ** (v + top))]
                      + [(last, p ** a) for last, a in zip(lasts, exps)])
    g2 = None
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, top - 1))) if top > 1
                      else ())
        bounds = [0] + cuts + [top]
        g2 = draw(st.permutations([p ** (b - a) for a, b
                                   in zip(bounds, bounds[1:]) if b > a]))
    s = draw(st.none() | st.integers(1, 12))
    return ActionProfile(p, filt, v=v, g2_invariants=g2, s=s)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_profile())
def test_profile_json_round_trip(prof):
    # a profile read back from its JSON text reports the same bytes
    back = ActionProfile.from_json(json.loads(json.dumps(prof.to_json())))
    assert back.to_json() == prof.to_json()
    assert ratio_check(back).to_json() == ratio_check(prof).to_json()
