"""Command line surface.

Every invocation is parsed and validated into a Plan before anything is
computed, so a bad flag can never leave a half-written artifact.  The
executors return their artifact, text or a value emitted as JSON, and
execute_plan alone writes it; one holding an integer too long to print
is refused before --out is opened.  Exit codes: 0 success, 1
computational failure (the library error is printed on stderr), 2 usage.
Identical invocations produce byte-identical output: JSON is emitted
with sorted keys, CSV with LF endings, and all parameter choices
(moduli, sample points) are deterministic.

The environment variable WR_RESOURCE_CAP, when set, bounds the ray
class computations by m*e; requests beyond it fail with a clear message
instead of grinding.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import _expected
from .additive import AdditiveOp, linearize_kernel, palindromic_adjoint
from .bigaction import ActionProfile, ratio_check
from .cover import (FAMILY_KINDS, CoverSpec, _family_degree_floor,
                    base_change, character_levels, family_build,
                    splits_everywhere, tower_compose)
from .errors import ResourceLimit, UsageError, WildramError
from .field import FqPoly, _is_prime, field_from_json, make_field
from .ramify import ladder_filtration, tower_genus
from .rayclass import (MODULUS_LIMIT, find_second_jump, format_table_csv,
                       ray_class_table)

# rows with invariants hold up to e (m - 1) entries each: a sweep to
# m = 48 at (2, 8) needs 9024, one to m = 1448 at (2, 1) just fits
TABLE_ENTRY_LIMIT = 2 ** 20


# the interpreter's limit on the digits of a printed int (0: no limit)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# a fully validated invocation: command, parameters, output target
Plan = collections.namedtuple("Plan", "command params out fmt")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FIELD = (("--p", dict(type=int, required=True,
                       help="field characteristic (prime)")),
          ("--e", dict(type=int, required=True,
                       help="extension degree over the prime field")))


def _out(*formats):
    """--out, and --format when there is a choice (the first the default)."""
    out = ("--out", dict(help="write the artifact here (default stdout)"))
    if len(formats) < 2:
        return (out,)
    return out, ("--format", dict(choices=formats, default=formats[0],
                                  help="output format"))


def _declare(parser, command):
    """parser with command's arguments added, in their declared order."""
    for flag, kwargs in COMMANDS[command][1]:
        parser.add_argument(flag, **kwargs)
    return parser


@functools.cache
def _parser(command):
    """command's own parser, as `add_parser` would make it, with only its
    declared arguments; None: the top level with every command declared,
    for any argv whose first token names no command."""
    if command is not None:
        return _declare(_Parser(prog="wr " + command), command)
    top = _Parser(prog="wr", description=__doc__.splitlines()[0])
    subs = top.add_subparsers(dest="command", required=True)
    for name, (help_, _, _) in COMMANDS.items():
        _declare(subs.add_parser(name, help=help_), name)
    return top


def _read_declared(command, args):
    """The params argparse would give command's args, read from its
    declaration when each token is a declared flag in full with a value
    not starting with "-" (of its type, in its choices), a store_true
    flag or the positional, once each, and none required is missing;
    else None (help, abbreviations, --flag=value, bad values)."""
    declared = dict(COMMANDS[command][1])
    positional = next((f for f in declared if f[:1] != "-"), None)
    given, tokens = {}, iter(args)
    for tok in tokens:
        flag, value = (tok, None) if tok[:1] == "-" else (positional, tok)
        kwargs = declared.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        if value is None:
            value = next(tokens, "-")  # none left: argparse's error
            if value[:1] == "-":
                return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    params = {}
    for flag, kwargs in declared.items():
        if flag not in given and (kwargs.get("required")
                                  or flag == positional):
            return None
        store_true = kwargs.get("action") == "store_true"
        params[flag.lstrip("-").replace("-", "_")] = given.get(
            flag, kwargs.get("default", False if store_true else None))
    return params


def parse_plan(argv):
    """Validate argv into a Plan; raises UsageError, never computes."""
    # a leading command name is read from that command's declaration,
    # which builds no parser (argparse's first imports locale, most of a
    # small call's time), or else by its own parser; any other argv by
    # the top level, so argparse words every help, usage and error
    command = argv[0] if argv and argv[0] in COMMANDS else None
    params = _read_declared(command, argv[1:]) if command else None
    if params is None:
        params = vars(_parser(command).parse_args(argv[1:] if command
                                                  else argv))
    command = params.pop("command", command)
    out = params.pop("out", None)
    fmt = params.pop("format", "json")

    if "p" in params:
        if params["p"] >= 2 ** 64:
            raise UsageError("--p must be below 2^64, got %d" % params["p"])
        if not _is_prime(params["p"]):
            raise UsageError("--p must be prime, got %d" % params["p"])
        if params["e"] < 1:
            raise UsageError("--e must be positive, got %d" % params["e"])
    if command == "rayclass-orders":
        if params["ms"] is not None:
            try:
                ms = sorted({int(tok) for tok in params["ms"].split(",")})
            except ValueError:
                raise UsageError("--ms must be a comma-separated integer list")
            if any(m < 1 for m in ms):
                raise UsageError("--ms entries must be positive")
            params["ms"] = ms
        elif params["m_max"] is not None:
            if params["m_max"] < 2:
                raise UsageError("--m-max must be at least 2")
            params["ms"] = range(2, params["m_max"] + 1)
        else:
            raise UsageError("one of --m-max or --ms is required")
    if command == "reproduce-table":
        if (params["p"], params["e"]) != (_expected.P, _expected.E):
            raise UsageError(
                "embedded expected values exist for --p %d --e %d only"
                % (_expected.P, _expected.E))
    if command == "family-build" and params.get("witt_len", 2) < 1:
        raise UsageError("--witt-len must be at least 1")
    if command == "rayclass-m2" and params.get("cap") is not None \
            and params["cap"] < 2:
        raise UsageError("--cap must be at least 2")
    return Plan(command, params, out, fmt)


def _load(path, build):
    """build(parsed JSON of the file at path); malformed content (1e400
    overflows int()) is a usage error, an unreadable file an OSError."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise UsageError("malformed input %s: %s: %s"
                             % (path, type(err).__name__, err))


def _resource_cap():
    raw = os.environ.get("WR_RESOURCE_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError("WR_RESOURCE_CAP must be an integer, got %r" % raw)
    if cap < 1:
        raise UsageError("WR_RESOURCE_CAP must be positive")
    return cap


def _sig6(x):
    return "%.6g" % float(x)


def _splits_text(cover):
    all_split, hits, checked = splits_everywhere(cover)
    if checked == cover.ctx.q:
        return "all q places" if all_split else \
            "%d of %d places" % (hits, checked)
    return "%d of %d sampled places" % (hits, checked)


def _cover_payload(cover):
    levels = character_levels(cover)
    # the splitting is priced first: a refusal then costs no genus or
    # breaks, both quadratic in the Witt length
    splits = _splits_text(cover)
    return {
        "label": cover.label,
        "conductor": max(levels)[0],
        "degree": cover.ctx.p ** len(levels),
        "genus": tower_genus(levels),
        "levels": list(map(list, levels)),
        "upper_breaks": [[int(b.numerator), int(b.denominator), o]
                         for b, o in ladder_filtration(levels).segments],
        "splits": splits,
    }


def _exec_field(plan):
    ctx = make_field(plan.params["p"], plan.params["e"])
    if plan.fmt == "text":
        def term(i, c):
            if i == 0:
                return str(c)
            pow_ = "X" if i == 1 else "X^%d" % i
            return pow_ if c == 1 else "%d%s" % (c, pow_)
        mod = " + ".join(term(i, c)
                         for i, c in sorted(enumerate(ctx.modulus),
                                            reverse=True) if c)
        return "F_%d^%d with modulus %s\n" % (ctx.p, ctx.e, mod), 0
    return ctx.to_json(), 0


def _exec_cover_analyze(plan):
    return _cover_payload(_load(plan.params["cover"], CoverSpec.from_json)), 0


def _exec_adjoint(plan):
    def build(obj):
        return FqPoly.from_json(field_from_json(obj["field"]), obj["poly"])

    f = _load(plan.params["poly"], build)
    adj = palindromic_adjoint(f)
    kern = linearize_kernel(adj, f.ctx.e)
    # separable with unit constant coefficient, so the geometric kernel
    # has full F-degree; only part of it is rational over the base
    return {"adjoint": adj.to_json(), "kernel_dim": adj.f_degree,
            "kernel_dim_rational": kern.dim}, 0


def _check_table_size(ctx, ms, order_only):
    """Refuse, before any work, a table that could not be held or printed:
    row m has at most e (m - 1) invariant entries, and its N_m <= 2 p^(e m)
    at most 1 + e m log10(p) + log10(2) digits, which must stay within the
    interpreter's limit on printing ints (0 or absent: no limit)."""
    if ms[-1] > MODULUS_LIMIT:
        return  # ray_class_table refuses these with the modulus limit
    p, e, top = ctx.p, ctx.e, ms[-1]
    entries = e * (sum(ms) - len(ms))
    if not order_only and entries > TABLE_ENTRY_LIMIT:
        raise ResourceLimit("the invariants need up to %d entries, over the "
                            "limit of %d" % (entries, TABLE_ENTRY_LIMIT))
    digits = 1 + int(e * top * math.log10(p) + math.log10(2))
    limit = _digit_limit()
    if limit and digits > limit:
        raise ResourceLimit("N_%d may have %d digits, over the limit of %d "
                            "on printed integers" % (top, digits, limit))


def _exec_rayclass_orders(plan):
    ctx = make_field(plan.params["p"], plan.params["e"])
    _check_table_size(ctx, plan.params["ms"], plan.params["order_only"])
    rows = ray_class_table(ctx, plan.params["ms"], resource_cap=_resource_cap(),
                           order_only=plan.params["order_only"])
    return format_table_csv(rows) if plan.fmt == "csv" else rows, 0


def _exec_rayclass_m2(plan):
    ctx = make_field(plan.params["p"], plan.params["e"])
    cap = plan.params.get("cap")
    res = _resource_cap()
    if cap is None and res is not None:
        cap = max(2, res // ctx.e)
    m2 = find_second_jump(ctx, cap=cap)
    return ({"p": ctx.p, "e": ctx.e, "m2": m2} if plan.fmt == "json"
            else "%d\n" % m2), 0


def _exec_family_build(plan):
    ctx = make_field(plan.params["p"], plan.params["e"])
    kind, witt_len = plan.params["kind"], plan.params["witt_len"]
    limit = _digit_limit()
    # p^k has over limit digits once k log10 p >= limit; k is never a float
    k = _family_degree_floor(ctx.p, ctx.e, kind, witt_len)
    if limit and k >= limit / math.log10(ctx.p):
        raise ResourceLimit("the tower degree has over %d digits, the limit "
                            "on printed integers" % limit)
    fam = family_build(ctx, kind, witt_len=witt_len)
    tower = tower_compose(fam["items"])
    return {
        "kind": fam["kind"],
        "notes": fam["notes"],
        "tower": {
            "genus": tower["genus"],
            "degree": tower["degree"],
            "levels": list(map(list, tower["levels"])),
        },
        "items": [{"label": it.label, "marginal": it.marginal,
                   "cover": it.cover.to_json()} for it in fam["items"]],
    }, 0


def _exec_basechange(plan):
    cover = _load(plan.params["cover"], CoverSpec.from_json)
    try:
        coeffs = json.loads(plan.params["sub"])
    except json.JSONDecodeError:
        raise UsageError("--sub must be a JSON array of coefficients")
    if not isinstance(coeffs, list) or not coeffs:
        raise UsageError("--sub must be a nonempty JSON array")
    try:
        S = AdditiveOp.from_json(cover.ctx, coeffs)
    except (TypeError, ValueError, OverflowError) as err:
        raise UsageError("--sub: %s: %s" % (type(err).__name__, err))
    # X^k pulls back to the product, over the base-p digits k_j of k, of
    # (S^(p^j))^(k_j), at most C(k_j + t - 1, t - 1) terms for S of t >= 1
    t, terms = sum(1 for c in S.coeffs if c) or 1, 0
    for k, _ in (term for f in cover.rhs for term in f.terms):
        n = 1
        while k:
            k, d = divmod(k, cover.ctx.p)
            n *= math.comb(d + t - 1, t - 1)
        terms += n
    if terms > TABLE_ENTRY_LIMIT:
        raise ResourceLimit("the pullback may have up to 2^%d terms, over "
                            "the limit of %d" % ((terms - 1).bit_length(),
                                                 TABLE_ENTRY_LIMIT))
    pulled = base_change(cover, S, label=plan.params["label"])
    return {
        "sub_degree": cover.ctx.p ** S.f_degree,
        "before": _cover_payload(cover),
        "after": _cover_payload(pulled),
        "cover": pulled.to_json(),
    }, 0


def _exec_bigaction_check(plan):
    profile = _load(plan.params["profile"], ActionProfile.from_json)
    return ratio_check(profile, strict=plan.params["strict"]).to_json(), 0


def _exec_reproduce_table(plan):
    ctx = make_field(plan.params["p"], plan.params["e"])
    cap = _resource_cap()
    lines = []
    checks = []

    m2 = find_second_jump(ctx, cap=None if cap is None else max(2, cap // ctx.e))
    checks.append(("m2", m2 == _expected.M2))

    ms = [row[0] if row[0] > 0 else row[1] for row in _expected.TABLE_ROWS]
    rows = ray_class_table(ctx, ms, resource_cap=cap)
    lines.append(format_table_csv(rows).rstrip("\n"))

    got = [(row["m"], row["order_exp"]) for row in rows]
    want = [(rm, exp) for rm, (_, _, exp) in zip(ms, _expected.TABLE_ROWS)]
    checks.append(("table", got == want))
    at_m2 = next(row for row in rows if row["m"] == _expected.M2)
    checks.append(("invariants",
                   tuple(at_m2["invariants"]) == _expected.INVARIANTS_AT_M2))

    full = tower_compose(family_build(ctx, "table-full")["items"])
    sub = tower_compose(family_build(ctx, "jump2-even")["items"])
    ladder = tuple((m, d) for m, d, _ in full["levels"])
    want_ladder = tuple((m, ctx.p ** k) for m, k in _expected.LADDER)
    checks.append(("ladder", ladder == want_ladder))
    checks.append(("genus_full", full["genus"] == _expected.GENUS_FULL))
    checks.append(("genus_subfamily",
                   sub["genus"] == _expected.GENUS_SUBFAMILY))
    # the tower carries p^e translations on top of the covering part
    q = ctx.p ** ctx.e
    r1 = Fraction(q * full["degree"], full["genus"])
    r2 = Fraction(q * sub["degree"], sub["genus"])
    checks.append(("ratio_full", _sig6(r1) == _expected.RATIO_FULL))
    checks.append(("ratio_subfamily", _sig6(r2) == _expected.RATIO_SUBFAMILY))

    lines.append("m2 = %d" % m2)
    lines.append("ratio_full_tower = %d/%d ~ %s"
                 % (r1.numerator, r1.denominator, _sig6(r1)))
    lines.append("ratio_subfamily = %d/%d ~ %s"
                 % (r2.numerator, r2.denominator, _sig6(r2)))
    ok = all(flag for _, flag in checks)
    detail = " ".join("%s=%s" % (name, "ok" if flag else "MISMATCH")
                      for name, flag in checks)
    lines.append(("PASS " if ok else "FAIL ") + detail)
    return "\n".join(lines) + "\n", 0 if ok else 1


# name -> (help, arguments, execute), in the order `wr --help` lists
# them: arguments are (flag, add_argument keywords) in the order the
# command's help lists them (_declare); execute(plan) -> (artifact, code)
COMMANDS = {
    "field": ("print a field context", (*_FIELD, *_out("json", "text")),
              _exec_field),
    "cover-analyze": ("conductor, genus and splitting of one cover",
                      (("cover", dict(help="cover description (JSON file)")),
                       *_out()), _exec_cover_analyze),
    "adjoint": ("palindromic adjoint and its kernel dimension",
                (("poly", dict(help="field + polynomial (JSON file)")),
                 *_out()), _exec_adjoint),
    "rayclass-orders": (
        "ray class group table over a conductor range",
        (*_FIELD,
         ("--m-max", dict(type=int, help="sweep conductors 2..m-max")),
         ("--ms", dict(help="comma-separated explicit conductor list")),
         ("--order-only", dict(action="store_true",
                               help="skip invariant factors, orders only")),
         *_out("csv", "json")), _exec_rayclass_orders),
    "rayclass-m2": (
        "least conductor with a nonelementary group",
        (*_FIELD,
         ("--cap", dict(type=int, help="give up beyond this conductor")),
         *_out("text", "json")), _exec_rayclass_m2),
    "family-build": (
        "construct a built-in cover family",
        (*_FIELD, ("--kind", dict(required=True, choices=FAMILY_KINDS)),
         ("--witt-len", dict(type=int, default=2,
                             help="vector length for kind exponent-pn")),
         *_out()), _exec_family_build),
    "basechange": (
        "pull a cover back along an additive map",
        (("cover", dict(help="cover description (JSON file)")),
         ("--sub", dict(required=True,
                        help="additive map coefficients as a JSON array")),
         ("--label", dict(default=None)), *_out()), _exec_basechange),
    "bigaction-check": (
        "ratio arithmetic and sieve for one profile",
        (("profile", dict(help="action profile (JSON file)")),
         ("--strict", dict(action="store_true",
                           help="fail on rules missing their declarations")),
         *_out()), _exec_bigaction_check),
    "reproduce-table": ("rebuild the packaged (5,4) table and ratios",
                        (*_FIELD, *_out()), _exec_reproduce_table),
}


def execute_plan(plan):
    """Run a validated plan and write its artifact, a str as it is and
    anything else as JSON, to stdout or --out; returns the exit code."""
    artifact, code = COMMANDS[plan.command][2](plan)
    try:
        text = artifact if isinstance(artifact, str) else \
            json.dumps(artifact, sort_keys=True, indent=2) + "\n"
    except ValueError:  # an int past the interpreter's printing limit
        raise ResourceLimit("the output has an integer over %d digits, the "
                            "limit on printed integers" % _digit_limit())
    with (contextlib.nullcontext(sys.stdout) if plan.out is None
          else open(plan.out, "w", newline="")) as fh:
        fh.write(text)
    return code


def main(argv=None):
    try:
        return execute_plan(parse_plan(sys.argv[1:] if argv is None
                                       else argv))
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 2
    except (WildramError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
