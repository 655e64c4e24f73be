"""Ramification filtrations at one totally ramified place, and the genus
formulas driven by them.

A Filtration is a piecewise-constant record of the higher ramification
groups at the infinite place of a cover of the projective line: segments
(last_index, order) say that the group at index i has the given order for
prev_last < i <= last_index, with the convention G_0 = G_1 (the first
segment must reach at least index 1, as it does for any p-cover of the
affine line totally ramified at infinity).  Lower-numbering indices are
integers; upper-numbering breaks may be rationals, so segment boundaries
are stored as Fractions.

All genus computations here assume exactly one ramified place over a
genus-zero base, which is the standing situation for the covers this
package builds: everything is unramified outside infinity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BadParameters,
    InconsistentLadder,
    InvalidProfile,
    NonIntegralLowerBreaks,
    OddSum,
)
from .field import _check_integral


class Filtration:
    """Higher ramification groups as (last_index, order) segments."""

    __slots__ = ("numbering", "segments")

    def __init__(self, numbering, segments):
        if numbering not in ("lower", "upper"):
            raise BadParameters("numbering must be 'lower' or 'upper'")
        segs = []
        for last, order in segments:
            last = Fraction(last)
            order = int(order)
            if order == 1:
                continue
            segs.append((last, order))
        if not segs:
            raise InvalidProfile("filtration needs at least one segment")
        prev_last = Fraction(0)
        prev_order = None
        for last, order in segs:
            if last <= prev_last:
                raise InvalidProfile("segment ends must increase")
            if order < 2 or (prev_order is not None and order >= prev_order):
                raise InvalidProfile("segment orders must strictly decrease")
            if numbering == "lower" and last.denominator != 1:
                raise InvalidProfile("lower-numbering breaks must be integers")
            prev_last, prev_order = last, order
        if segs[0][0] < 1:
            raise InvalidProfile(
                "first segment must cover index 1 (G_0 = G_1)")
        self.numbering = numbering
        self.segments = tuple(segs)

    @property
    def group_order(self):
        return self.segments[0][1]

    def order_at(self, i):
        """Order of the group at index i (i >= 0)."""
        i = Fraction(i)
        if i < 0:
            raise BadParameters("filtration index must be nonnegative")
        for last, order in self.segments:
            if i <= last:
                return order
        return 1

    def breaks(self):
        return [last for last, _ in self.segments]

    def last_break(self):
        return self.segments[-1][0]

    def to_json(self):
        return {"numbering": self.numbering,
                "segments": [[last.numerator, last.denominator, order]
                             for last, order in self.segments]}

    @classmethod
    def from_json(cls, obj):
        """ValueError unless each segment is a list [num, den, order] of
        integers with den != 0 (27.9 and true must not pass as 27 and 1)."""
        segs = []
        for seg in obj["segments"]:
            if not isinstance(seg, list) or len(seg) != 3:
                raise ValueError("segment %r is not 3 values" % (seg,))
            num, den, order = _check_integral(seg)
            if not den:
                raise ValueError("segment %r has denominator 0" % (seg,))
            segs.append((Fraction(num, den), order))
        return cls(obj["numbering"], segs)

    def __eq__(self, other):
        return (isinstance(other, Filtration)
                and self.numbering == other.numbering
                and self.segments == other.segments)

    def __repr__(self):
        return "Filtration(%s, %s)" % (
            self.numbering,
            ", ".join("(%s, %d)" % (last, order)
                      for last, order in self.segments))


def herbrand_convert(filt):
    """Switch a filtration between lower and upper numbering.

    The Herbrand functions are piecewise linear: phi has slope
    |G_i| / |G_0| on a lower segment, psi has slope |G_0| / |G^u| on an
    upper segment, so converting is one pass over the segments.
    """
    d0 = filt.group_order
    out = []
    if filt.numbering == "lower":
        u = Fraction(0)
        prev = Fraction(0)
        for last, order in filt.segments:
            u += (last - prev) * Fraction(order, d0)
            out.append((u, order))
            prev = last
        return Filtration("upper", out)
    b = Fraction(0)
    prev = Fraction(0)
    for last, order in filt.segments:
        b += (last - prev) * Fraction(d0, order)
        if b.denominator != 1:
            raise NonIntegralLowerBreaks(
                "upper break %s maps to non-integral lower index %s"
                % (last, b))
        out.append((b, order))
        prev = last
    return Filtration("lower", out)


def hasse_arf_check(filt):
    """True when all upper-numbering breaks are integers."""
    upper = filt if filt.numbering == "upper" else herbrand_convert(filt)
    return all(last.denominator == 1 for last in upper.breaks())


def hurwitz_genus(filt):
    """Genus of the cover with this filtration at its one ramified place.

    With G_0 = G_1 and a genus-zero quotient, Riemann-Hurwitz collapses to
    2g = sum_{i >= 2} (|G_i| - 1), summed segment by segment.
    """
    lower = filt if filt.numbering == "lower" else herbrand_convert(filt)
    total = 0
    prev = 0
    for last, order in lower.segments:
        lo = max(prev + 1, 2)
        hi = int(last)
        if hi >= lo:
            total += (hi - lo + 1) * (order - 1)
        prev = hi
    if total % 2:
        raise OddSum("ramification sum %d is odd" % total)
    return total // 2


def quotient_genus(filt, sub):
    """Genus of the quotient by a subgroup H with known induced orders.

    Both arguments are lower-numbering filtrations: filt gives |G_i|, sub
    gives |H intersect G_i| (lower numbering restricts to subgroups).  The
    collapsed Riemann-Hurwitz formula is

        2 |H| g = sum_{i >= 2} (|G_i| - |H_i|).
    """
    if filt.numbering != "lower" or sub.numbering != "lower":
        raise BadParameters("quotient_genus expects lower numbering")
    h = sub.group_order
    top = max(int(filt.last_break()), int(sub.last_break()))
    total = 0
    # piecewise-constant walk over merged breakpoints
    cuts = sorted({int(b) for b in filt.breaks()}
                  | {int(b) for b in sub.breaks()} | {top})
    prev = 1
    for cut in cuts:
        if cut < 2:
            prev = max(prev, cut)
            continue
        lo = max(prev + 1, 2)
        if cut >= lo:
            g_ord = filt.order_at(cut)
            h_ord = sub.order_at(cut)
            if h_ord > g_ord:
                raise InvalidProfile(
                    "subgroup order exceeds group order at index %d" % cut)
            total += (cut - lo + 1) * (g_ord - h_ord)
        prev = cut
    if total % (2 * h):
        raise OddSum(
            "ramification defect %d is not divisible by 2|H| = %d"
            % (total, 2 * h))
    return total // (2 * h)


# ---------------------------------------------------------------------------
# conductor ladders

def _merge_levels(levels):
    merged = {}
    for cond, deg in levels:
        cond = int(cond)
        deg = int(deg)
        if cond < 2:
            raise InconsistentLadder(
                "conductor %d is below 2; a nontrivial p-cover of the "
                "affine line ramifies at infinity with conductor >= 2" % cond)
        if deg < 2:
            raise InconsistentLadder("marginal degree %d is not > 1" % deg)
        merged[cond] = merged.get(cond, 1) * deg
    return sorted(merged.items())


def tower_genus(levels, with_audit=False):
    """Genus of a compositum from its conductor ladder.

    levels is an iterable of (conductor, marginal_degree) pairs; levels
    sharing a conductor merge multiplicatively.  By conductor-discriminant,
    the different degree is sum over characters of their conductors, so

        2g - 2 = -2 D + sum_t (D_t - D_{t-1}) m_t

    with D_t the cumulative degree through conductor m_t.
    """
    merged = _merge_levels(levels)
    if not merged:
        raise InconsistentLadder("a tower needs at least one level")
    total_deg = 1
    disc = 0
    audit_rows = []
    for cond, deg in merged:
        before = total_deg
        total_deg *= deg
        disc += (total_deg - before) * cond
        audit_rows.append((cond, deg, total_deg))
    quantity = -2 * total_deg + disc
    if quantity % 2:
        raise OddSum("2g - 2 = %d is odd" % quantity)
    g = quantity // 2 + 1
    if with_audit:
        return g, {"degree": total_deg, "disc": disc, "levels": audit_rows}
    return g


def ladder_filtration(levels):
    """Upper-numbering filtration of the compositum's one ramified place:
    G^u has order D / D_{t-1} for m_{t-1} - 1 < u <= m_t - 1."""
    merged = _merge_levels(levels)
    if not merged:
        raise InconsistentLadder("a ladder needs at least one level")
    total = 1
    for _, deg in merged:
        total *= deg
    segs = []
    before = 1
    for cond, deg in merged:
        segs.append((Fraction(cond - 1), total // before))
        before *= deg
    return Filtration("upper", segs)
