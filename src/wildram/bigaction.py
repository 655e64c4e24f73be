"""Big-action checks on declared ramification profiles.

An ActionProfile packages what is known about a p-group acting on a
curve, totally ramified at one point: the lower-numbering filtration at
that point, the translation dimension v (so |G| = p^v |G_2|), and the
optional declared structure of G_2 (abelian invariants) and of the
first jump (s, with the jump at 1 + p^s).  Nothing group-theoretic is
computed here; the sieve consumes declarations and rejects profiles
that cannot belong to a big action.

The report carries exact rationals: ratio1 = |G|/g against the
threshold 2p/(p-1), and ratio2 = |G|/g^2 against the quadratic constant
4/(p^2-1)^2 that gates the finer rules.  The local and global criteria
share the same arithmetic, with g the wild contribution
(1/2) sum_{i>=2} (|G_i| - 1).

Rules are data.  Each has an id, the declarations it needs, a
hypothesis, and a rejection predicate; unmet hypotheses or missing
declarations yield not-applicable (or raise, under strict=True).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParameters, InvalidProfile, MissingDeclaration
from .field import _check_integral, _is_prime
from .ramify import (
    Filtration,
    herbrand_convert,
    hurwitz_genus,
    ladder_filtration,
)


class ActionProfile:
    """Declared data of one candidate action.

    filtration is in lower numbering with G_0 = G_1 (first break at 1,
    the only shape a candidate big action can have; a trivial G_2 is
    allowed and simply reports genus zero).  g2_invariants, when given,
    lists the abelian invariant factor orders of G_2 in any order and
    must multiply to the filtration's |G_2|.
    """

    __slots__ = ("p", "filtration", "v", "g2_invariants", "s")

    def __init__(self, p, filtration, v, g2_invariants=None, s=None):
        if filtration.numbering != "lower":
            filtration = herbrand_convert(filtration)
        if filtration.segments[0][0] != 1:
            raise InvalidProfile(
                "candidate actions need their first break at 1")
        g2 = filtration.order_at(2)
        order = filtration.group_order
        if v < 0:
            raise BadParameters("translation dimension cannot be negative")
        # p^v > order past its bit length: refused without building p^v
        if v > order.bit_length() or order != p ** v * g2:
            raise InvalidProfile(
                "group order %d is not p^%d times |G_2| = %d" % (order, v, g2))
        if g2_invariants is not None:
            g2_invariants = tuple(sorted((int(x) for x in g2_invariants),
                                         reverse=True))
            prod = 1
            for x in g2_invariants:
                y = x
                while y > 1 and y % p == 0:
                    y //= p
                if y != 1:
                    raise BadParameters(
                        "invariant %d is not a power of %d" % (x, p))
                prod *= x
            if prod != g2:
                raise InvalidProfile(
                    "declared invariants multiply to %d, filtration says %d"
                    % (prod, g2))
        if s is not None and s < 1:
            raise BadParameters("first-jump exponent s must be positive")
        self.p = p
        self.filtration = filtration
        self.v = v
        self.g2_invariants = g2_invariants
        self.s = s

    @property
    def group_order(self):
        return self.filtration.group_order

    @property
    def g2_order(self):
        return self.filtration.order_at(2)

    def to_json(self):
        obj = {"p": self.p, "filtration": self.filtration.to_json(),
               "v": self.v}
        if self.g2_invariants is not None:
            obj["g2_invariants"] = list(self.g2_invariants)
        if self.s is not None:
            obj["s"] = self.s
        return obj

    @classmethod
    def from_json(cls, obj):
        filt = Filtration.from_json(obj["filtration"])
        p, v = _check_integral([obj["p"], obj["v"]])
        s, g2 = obj.get("s"), obj.get("g2_invariants")
        if s is not None:
            s = _check_integral([s])[0]
        if g2 is not None:
            if not isinstance(g2, list):
                raise ValueError("g2_invariants %r is not a list" % (g2,))
            g2 = _check_integral(g2)
        if p >= 2 ** 64:
            raise ValueError("p must be below 2^64")
        if not _is_prime(p):
            raise ValueError("p = %d is not a prime" % p)
        return cls(p, filt, v, g2_invariants=g2, s=s)


def profile_from_levels(p, levels, v, g2_invariants=None, s=None):
    """Profile of a tower given its conductor ladder plus translations.

    The ladder gives the filtration of the covering part; the
    translation group sits on top as p^v extra order with a break at 1.
    """
    upper = ladder_filtration(levels)
    cover_lower = herbrand_convert(upper)
    total = p ** v * cover_lower.group_order
    segs = [(1, total)] + list(cover_lower.segments)
    return ActionProfile(p, Filtration("lower", segs), v,
                         g2_invariants=g2_invariants, s=s)


def quad_threshold(p):
    """The constant 4/(p^2-1)^2 gating the quadratic-regime rules."""
    return Fraction(4, (p * p - 1) ** 2)


def jump_quotient_bound(p, m, M=None):
    """(4/M) p^m / (p^m - 1)^2: the order bound per first-jump quotient
    dimension, decreasing in m and below 1 from m = 4 on."""
    if M is None:
        M = quad_threshold(p)
    pm = p ** m
    return Fraction(4, M) * Fraction(pm, (pm - 1) ** 2)


# each rule: (id, needed declarations, quadratic-regime gate, check).
# check(profile) returns (reject?, witness); reject None means the rule
# degenerates on this profile (e.g. trivial jump quotient).

def _needs(profile, names):
    missing = [n for n in names
               if getattr(profile, {"g2": "g2_invariants", "s": "s"}[n]) is None]
    return missing


def _rule_cyclic(profile):
    inv = profile.g2_invariants
    bad = len(inv) == 1 and inv[0] >= profile.p ** 2
    return bad, {"invariants": list(inv)}


def _rule_order_bound(profile):
    bound = profile.p ** 3
    return profile.g2_order > bound, {"g2_order": profile.g2_order,
                                      "bound": bound}


def _rule_exponent(profile):
    inv = profile.g2_invariants
    exp = max(inv) if inv else 1
    return exp > profile.p, {"exponent": exp, "bound": profile.p}


def _rule_mixed(profile):
    p = profile.p
    bad = profile.g2_invariants == (p * p, p)
    return bad, {"invariants": list(profile.g2_invariants)}


def _rule_first_jump(profile):
    p, filt, s = profile.p, profile.filtration, profile.s
    # G_(i0 + 1), i0 = 1 + p^s, is trivial once 2^s passes the last break
    past = s > int(filt.last_break()).bit_length()  # lower breaks: ints
    quotient = profile.g2_order // (1 if past else filt.order_at(2 + p ** s))
    if quotient == 1:
        return None, {"quotient": 1}
    bound = Fraction(4, quad_threshold(p)) * \
        Fraction(quotient ** 2, (quotient - 1) ** 2)
    return profile.g2_order > bound, {"g2_order": profile.g2_order,
                                      "quotient": quotient,
                                      "bound": [bound.numerator,
                                                bound.denominator]}


def _rule_translations(profile):
    return profile.v > 2 * profile.s, {"v": profile.v, "bound": 2 * profile.s}


_RULES = (
    ("cyclic-second-group", ("g2",), False, _rule_cyclic),
    ("second-group-order-bound", (), True, _rule_order_bound),
    ("second-group-exponent", ("g2",), True, _rule_exponent),
    ("mixed-shape", ("g2",), True, _rule_mixed),
    ("first-jump-order-bound", ("s",), True, _rule_first_jump),
    ("translation-space-bound", ("s",), False, _rule_translations),
)


class Report:
    """Exact big-action arithmetic plus sieve verdicts for one profile."""

    __slots__ = ("profile", "g", "ratio1", "ratio2", "is_big", "is_local_big",
                 "zero_genus", "sieve_verdicts")

    def __init__(self, profile, g, ratio1, ratio2, is_big, verdicts):
        self.profile = profile
        self.g = g
        self.ratio1 = ratio1
        self.ratio2 = ratio2
        self.is_big = is_big
        self.is_local_big = is_big  # same arithmetic at a single point
        self.zero_genus = g == 0
        self.sieve_verdicts = verdicts

    def to_json(self):
        def frac(x):
            return None if x is None else [x.numerator, x.denominator]
        return {"g": self.g, "group_order": self.profile.group_order,
                "ratio1": frac(self.ratio1), "ratio2": frac(self.ratio2),
                "is_big": self.is_big, "is_local_big": self.is_local_big,
                "zero_genus": self.zero_genus,
                "sieve": [{"rule": rid, "verdict": verdict, "witness": wit}
                          for rid, verdict, wit in self.sieve_verdicts]}


def sieve(profile, strict=False):
    """Run every rule; verdicts are (id, pass|reject|not-applicable, witness).

    Rules gated on the quadratic regime apply only when
    ratio2 >= 4/(p^2-1)^2; rules that need undeclared structure return
    not-applicable, or raise MissingDeclaration under strict=True.
    """
    g = hurwitz_genus(profile.filtration)
    order = profile.group_order
    ratio2 = Fraction(order, g * g) if g else None
    threshold = quad_threshold(profile.p)
    out = []
    for rid, needs, quad_gate, fn in _RULES:
        missing = _needs(profile, needs)
        if missing:
            if strict:
                raise MissingDeclaration(
                    "rule %s needs %s" % (rid, ", ".join(missing)))
            out.append((rid, "not-applicable",
                        {"missing": list(missing)}))
            continue
        if quad_gate:
            if ratio2 is None or ratio2 < threshold:
                out.append((rid, "not-applicable",
                            {"ratio2_below": [threshold.numerator,
                                              threshold.denominator]}))
                continue
        bad, witness = fn(profile)
        if bad is None:
            out.append((rid, "not-applicable", witness))
        else:
            out.append((rid, "reject" if bad else "pass", witness))
    return out


def ratio_check(profile, strict=False):
    """Genus, exact ratios, big-action flags, and sieve verdicts."""
    g = hurwitz_genus(profile.filtration)
    order, p = profile.group_order, profile.p
    ratio1 = Fraction(order, g) if g else None
    ratio2 = Fraction(order, g * g) if g else None
    is_big = bool(g) and ratio1 > Fraction(2 * p, p - 1)
    return Report(profile, g, ratio1, ratio2, is_big,
                  sieve(profile, strict=strict))
