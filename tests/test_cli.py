"""Command-line plans, exit codes, and artifact formats."""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from wildram import cli, cover, field, rayclass
from wildram.additive import AdditiveOp
from wildram.bigaction import ActionProfile
from wildram.cover import CoverSpec
from wildram.errors import UsageError, WildramError
from wildram.ramify import Filtration


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _write_cover(tmp_path, name="cover.json"):
    obj = {"field": {"p": 2, "e": 1, "modulus": [0, 1]},
           "operator": {"witt": 1},
           "rhs": [[[3, [1]]]],
           "label": "cubic"}
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_parse_plan_validation():
    with pytest.raises(UsageError):
        cli.parse_plan(["field", "--p", "6", "--e", "1"])
    with pytest.raises(UsageError):
        cli.parse_plan(["field", "--p", "3", "--e", "0"])
    with pytest.raises(UsageError):
        cli.parse_plan(["rayclass-orders", "--p", "2", "--e", "1"])
    with pytest.raises(UsageError):
        cli.parse_plan(["rayclass-orders", "--p", "2", "--e", "1",
                        "--ms", "3,x"])
    with pytest.raises(UsageError):
        cli.parse_plan(["rayclass-orders", "--p", "2", "--e", "1",
                        "--m-max", "5", "--jobs", "0"])
    with pytest.raises(UsageError):
        cli.parse_plan(["reproduce-table", "--p", "3", "--e", "2"])
    with pytest.raises(UsageError, match="2\\^64"):
        cli.parse_plan(["field", "--p", str(2 ** 64 + 13), "--e", "1"])
    with pytest.raises(UsageError):
        cli.parse_plan(["no-such-command"])
    # a given but falsy value is checked, not taken for a missing one
    with pytest.raises(UsageError, match="--m-max must be at least 2"):
        cli.parse_plan(["rayclass-orders", "--p", "2", "--e", "1",
                        "--m-max", "0"])
    with pytest.raises(UsageError, match="comma-separated integer list"):
        cli.parse_plan(["rayclass-orders", "--p", "2", "--e", "1",
                        "--ms", ""])
    plan = cli.parse_plan(["rayclass-orders", "--p", "2", "--e", "1",
                           "--ms", "7,3,3"])
    assert plan.params["ms"] == [3, 7]


def test_exit_codes(tmp_path, capsys):
    code, _ = _run(["field", "--p", "7", "--e", "1"], capsys)
    assert code == 0
    code, _ = _run(["field", "--p", "9", "--e", "1"], capsys)
    assert code == 2
    # a computational failure: missing input file
    code, _ = _run(["cover-analyze", str(tmp_path / "absent.json")],
                   capsys)
    assert code == 1
    # a prime past the input fence fails at once; a composite is usage
    start = time.perf_counter()
    code, _ = _run(["field", "--p", "10000000000000061", "--e", "1"], capsys)
    assert code == 1 and time.perf_counter() - start < 1
    code, _ = _run(["field", "--p", "10000000000000063", "--e", "1"], capsys)
    assert code == 2


_PROFILE = {"p": 3,
            "filtration": {"numbering": "lower",
                           "segments": [[1, 1, 27], [4, 1, 3]]},
            "v": "a"}


@pytest.mark.parametrize("command, text", [
    ("cover-analyze", "{}"),
    ("cover-analyze", "not json"),
    ("cover-analyze", json.dumps({"field": {"p": 2, "e": 1},
                                  "rhs": [[[3, [1]]]]})),
    ("bigaction-check", json.dumps(_PROFILE)),
    # p must be a prime integer and v an integer: 3.5, "3", 4 and 2.5
    # must not reach the ratio check
    ("bigaction-check", json.dumps(dict(_PROFILE, p=3.5, v=2))),
    ("bigaction-check", json.dumps(dict(_PROFILE, p="3", v=2))),
    ("bigaction-check", json.dumps(dict(_PROFILE, p=4, v=2))),
    ("bigaction-check", json.dumps({"v": 2.5, "p": 3,
                                    "filtration": _PROFILE["filtration"]})),
    # exponents are nonnegative integers: -1 would divide by zero when
    # evaluated, and 1.5 must not pass as 1
    ("cover-analyze", json.dumps({"rhs": [[[-1, [1]], [4, [1]]]],
                                  "field": {"p": 3, "e": 2},
                                  "operator": {"witt": 1}})),
    ("cover-analyze", json.dumps({"rhs": [[[1.5, [1]], [4, [1]]]],
                                  "field": {"p": 3, "e": 2},
                                  "operator": {"witt": 1}})),
    # coefficients, Witt lengths and field entries too: 1.5, 1.7 and 2.5
    # must not pass as 1 and 2
    ("cover-analyze", json.dumps({"rhs": [[[4, [1.5]]]],
                                  "field": {"p": 3, "e": 2},
                                  "operator": {"witt": 1}})),
    ("cover-analyze", json.dumps({"rhs": [[[4, [1]]]],
                                  "field": {"p": 3, "e": 2},
                                  "operator": {"witt": 1.7}})),
    ("cover-analyze", json.dumps({"rhs": [[[4, [1]]]],
                                  "field": {"p": 3, "e": 2},
                                  "operator": {"additive": [[1], [1.5]]}})),
    ("cover-analyze", json.dumps({"rhs": [[[3, [1]]]],
                                  "field": {"p": 2.5, "e": 1},
                                  "operator": {"witt": 1}})),
    # JSON booleans are not integers: true must not pass as a length-1
    # Witt operator, a coefficient 1 or an exponent 1
    ("cover-analyze", json.dumps({"rhs": [[[4, [1]]]],
                                  "field": {"p": 3, "e": 2},
                                  "operator": {"witt": True}})),
    ("cover-analyze", json.dumps({"rhs": [[[4, [True, False]]]],
                                  "field": {"p": 3, "e": 2},
                                  "operator": {"witt": 1}})),
    ("cover-analyze", json.dumps({"rhs": [[[True, [1]], [4, [1]]]],
                                  "field": {"p": 3, "e": 2},
                                  "operator": {"witt": 1}})),
    ("bigaction-check", json.dumps(dict(_PROFILE, p=3, v=True))),
    # declared invariants too: 3.5, "3" and true must not pass as 3, 3, 1
    ("bigaction-check", json.dumps(dict(_PROFILE, v=2, g2_invariants=[3.5]))),
    ("bigaction-check", json.dumps(dict(_PROFILE, v=2, g2_invariants="3"))),
    ("bigaction-check", json.dumps(dict(_PROFILE, v=2,
                                        g2_invariants=[True]))),
])
def test_malformed_input_is_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed input")
    assert len(err.splitlines()) == 1


_INFINITE = {
    "cover-analyze": '{"field": {"p": 3, "e": 2}, "operator": {"witt": 1},'
                     ' "rhs": [[[%s, 1]]]}',
    "basechange": '{"field": {"p": 3, "e": 2}, "operator": {"witt": %s},'
                  ' "rhs": [[[4, 1]]]}',
    "adjoint": '{"field": {"p": 3, "e": 2}, "poly": [[4, [%s]]]}',
    "bigaction-check": '{"p": 3, "v": %s, "filtration": {"numbering":'
                       ' "lower", "segments": [[1, 1, 27], [4, 1, 3]]}}',
}


@pytest.mark.parametrize("number", ["1e400", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", sorted(_INFINITE))
def test_infinite_number_is_usage_error(tmp_path, capsys, command, number):
    # json reads 1e400 and Infinity as float('inf'), which int() refuses
    # with an OverflowError: one line and exit 2, not a traceback
    path = tmp_path / "input.json"
    path.write_text(_INFINITE[command] % number)
    sub = ["--sub", "[1, 1]"] if command == "basechange" else []
    assert cli.main([command, str(path)] + sub) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed input")
    assert "OverflowError" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["cover-analyze", "basechange",
                                     "adjoint"])
@pytest.mark.parametrize("value", [3, "3", None, [], 1.5, True])
def test_field_that_is_not_an_object_is_usage_error(tmp_path, capsys,
                                                    command, value):
    # the loader turns only KeyError, TypeError and ValueError into exit 2,
    # so a field that is not an object must fail as one of those
    obj = {"field": value, "operator": {"witt": 1}, "rhs": [[[3, [1]]]],
           "poly": [[4, [1]]]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    sub = ["--sub", "[1,1]"] if command == "basechange" else []
    assert cli.main([command, str(path)] + sub) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed input")
    assert "field must be an object" in err
    assert len(err.splitlines()) == 1


def test_field_output(capsys):
    code, out = _run(["field", "--p", "5", "--e", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 5 and payload["e"] == 4
    assert payload["modulus"] == [1, 0, 1, 1, 1]


def test_cover_analyze(tmp_path, capsys):
    path = _write_cover(tmp_path)
    code, out = _run(["cover-analyze", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "cubic"
    assert payload["conductor"] == 4
    assert payload["degree"] == 2
    assert payload["genus"] == 1
    assert payload["levels"] == [[4, 2]]
    assert payload["upper_breaks"] == [[3, 1, 2]]
    assert payload["splits"] == "1 of 2 places"


def test_cover_analyze_degree_zero_operator(tmp_path, capsys):
    # A = 1 has F-degree 0: the cover is the line itself, no character
    obj = {"field": {"p": 3, "e": 1}, "operator": {"additive": [[1]]},
           "rhs": [[[4, [1]]]]}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["cover-analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: every character of the cover is unramified\n"


def test_adjoint(tmp_path, capsys):
    obj = {"field": {"p": 3, "e": 2, "modulus": [1, 0, 1]},
           "poly": [[4, [1, 0]], [1, [2, 0]]]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(obj))
    code, out = _run(["adjoint", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["kernel_dim"] == 2
    assert payload["kernel_dim_rational"] == 0
    assert payload["adjoint"] == [[1, 0], [0, 0], [1, 0]]


def test_basechange(tmp_path, capsys):
    path = _write_cover(tmp_path)
    code, out = _run(["basechange", path, "--sub", "[1,1]"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["sub_degree"] == 2
    assert payload["before"]["conductor"] == 4
    assert payload["before"]["genus"] == 1
    assert payload["after"]["conductor"] == 6
    assert payload["after"]["genus"] == 2
    assert payload["after"]["splits"] == "all q places"
    exps = {term[0] for term in payload["cover"]["rhs"][0]}
    assert exps == {3, 4, 5, 6}


@pytest.mark.parametrize("sub", ['["x"]', '[null]', '[1.5]', '[[1.5]]',
                                 '[1e400]', '[true]'])
def test_basechange_bad_sub_is_usage_error(tmp_path, capsys, sub):
    path = _write_cover(tmp_path)
    assert cli.main(["basechange", path, "--sub", sub]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --sub")
    assert len(err.splitlines()) == 1


def test_basechange_refuses_an_oversize_pullback(tmp_path, capsys,
                                                 monkeypatch):
    # x -> x + x^2 pulls X^K back to (X + X^2)^K, 2^(ones in K) terms
    path = tmp_path / "cover.json"

    def argv(k, sub="[1,1]", p=2):
        path.write_text(json.dumps({"field": {"p": p, "e": 1},
                                    "operator": {"witt": 1},
                                    "rhs": [[[k, 1]]]}))
        return ["basechange", str(path), "--sub", sub]
    # the 4096 of K = 2^12 - 1, as many as the bound counts, are built
    code, out = _run(argv(2 ** 12 - 1), capsys)
    assert code == 0 and len(json.loads(out)["cover"]["rhs"][0]) == 4096

    # the 2^30 of K = 2^30 - 1 are refused before any substitution
    def compose(f, g):
        raise AssertionError("the pullback was built")
    monkeypatch.setattr(field.FqPoly, "compose", compose)
    assert cli.main(argv(2 ** 30 - 1)) == 1
    assert capsys.readouterr().err == (
        "error: the pullback may have up to 2^30 terms, over the limit of "
        "%d\n" % cli.TABLE_ENTRY_LIMIT)
    # x -> x + x^5 + 4 x^25 pulls X^(5^6000 - 1) back to at most 15^6000
    # terms, a count past the limit on printed integers: still one line
    assert cli.main(argv(5 ** 6000 - 1, "[[1], [1], [4]]", p=5)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "2^23442 terms" in err, err
    # S = 0, no term to count, is left to base_change, which refuses it
    assert cli.main(argv(2 ** 30 - 1, "[0]")) == 1
    assert "separable" in capsys.readouterr().err


@pytest.mark.parametrize("label", [5, [1], None])
def test_label_that_is_not_a_string_is_usage_error(tmp_path, capsys, label):
    # basechange appends " | pullback" to the label, which ended in a
    # TypeError traceback, and cover-analyze printed the label and exited 0
    obj = json.loads(open(_write_cover(tmp_path)).read())
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(dict(obj, label=label)))
    for argv in (["cover-analyze", str(path)],
                 ["basechange", str(path), "--sub", "[1]"]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: malformed input")
        assert "label" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
    # a missing label is the empty one
    obj.pop("label")
    path.write_text(json.dumps(obj))
    assert cli.main(["basechange", str(path), "--sub", "[1]"]) == 0
    assert json.loads(capsys.readouterr().out)["cover"]["label"] \
        == " | pullback"


def test_rayclass_orders_csv(tmp_path, capsys):
    out_path = tmp_path / "orders.csv"
    code, _ = _run(["rayclass-orders", "--p", "2", "--e", "1",
                    "--ms", "4,7", "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines() == ["m,order_exp,exponent,invariants,N_m",
                                 "4,1,2,2,5",
                                 "7,3,4,4;2,17"]


def test_rayclass_orders_modulus_one(capsys):
    # conductor 1 alone needs no digit tensor and no walk
    for extra in ([], ["--order-only"]):
        code, out = _run(["rayclass-orders", "--p", "2", "--e", "1",
                          "--ms", "1"] + extra, capsys)
        assert code == 0
        assert out.splitlines()[1] == "1,0,1,,3"


def test_rayclass_orders_huge_field(monkeypatch, capsys):
    # the counts never enumerate the field: F_{65537^2} at conductor 2
    # answers at once, without walking the field's elements
    def no_walk(ctx):
        raise AssertionError("elements walked")

    monkeypatch.setattr(field.FieldCtx, "elements", no_walk)
    start = time.perf_counter()
    code, out = _run(["rayclass-orders", "--p", "65537", "--e", "2",
                      "--m-max", "2"], capsys)
    assert code == 0 and time.perf_counter() - start < 1
    assert out.splitlines()[1] == "2,0,1,,4295098370"


def test_modulus_limit_refusals(monkeypatch, capsys):
    # --m-max stays a range, so the refusal comes before any list is built
    argv = ["rayclass-orders", "--p", "2", "--e", "1",
            "--m-max", "100000000", "--order-only"]
    assert isinstance(cli.parse_plan(argv).params["ms"], range)
    for argv in (argv, ["rayclass-m2", "--p", "65537", "--e", "1"]):
        start = time.perf_counter()
        code = cli.main(argv)
        assert code == 1 and time.perf_counter() - start < 1, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "65536" in err, err

    # under the modulus limit, a table too large to print or hold is
    # refused before any profile is built
    def no_walk(*args):
        raise AssertionError("profiled before the size check")

    monkeypatch.setattr(rayclass, "pivot_profiles", no_walk)
    for extra, want in ((["--ms", "20000", "--order-only"], "6021 digits"),
                        (["--m-max", "65536"], "2147450880 entries")):
        start = time.perf_counter()
        code = cli.main(["rayclass-orders", "--p", "2", "--e", "1"] + extra)
        assert code == 1 and time.perf_counter() - start < 1, extra
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and want in err, err


def test_family_build_refuses_unprintable_towers(capsys, monkeypatch):
    # F_1031^2: the 1032 items are built and the degree, about 6000
    # digits, is refused before printing; at p = 65537 the 65538 items,
    # and a Witt vector of length 10000 at p = 3, are refused by the
    # floor p^k before any item is built, as is a length of 310 digits,
    # which is never converted to a float
    code = cli.main(["family-build", "--p", "1031", "--e", "2",
                     "--kind", "jump2-even"])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1 and "4300" in err, err

    def no_build(*args, **kwargs):
        raise AssertionError("items built before the size check")

    monkeypatch.setattr(cli, "family_build", no_build)
    for p, e, kind, n in ((65537, 2, "jump2-even", 2),
                          (65537, 1, "jump2-odd", 2),
                          (1031, 2, "table-full", 2),
                          (3, 2, "exponent-pn", 10000),
                          (3, 2, "exponent-pn", 10 ** 309)):
        code = cli.main(["family-build", "--p", str(p), "--e", str(e),
                         "--kind", kind, "--witt-len", str(n)])
        err = capsys.readouterr().err
        assert code == 1 and len(err.splitlines()) == 1, err


# 4300 digits, as many as an int may have and still print by default:
# the conductors and ratios built from it have more
_BIG = 10 ** 4299 + 1


@pytest.mark.parametrize("command, obj", [
    (["cover-analyze"], {"field": {"p": 3, "e": 1}, "operator": {"witt": 2},
                         "rhs": [[[_BIG, 1]], []]}),
    (["basechange", "--sub", "[1]"],
     {"field": {"p": 3, "e": 1}, "operator": {"witt": 2},
      "rhs": [[[_BIG, 1]], []]}),
    (["bigaction-check"],
     {"p": 2, "v": 1, "filtration": {"numbering": "lower",
                                     "segments": [[1, 1, 8], [_BIG, 1, 4]]}}),
])
def test_unprintable_outputs_are_refused(tmp_path, capsys, command, obj):
    # every command's output passes one emitter, which refuses an integer
    # the interpreter will not print before --out is opened
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj))
    argv = command[:1] + [str(path)] + command[1:] + ["--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "4300" in err, err
    assert not out.exists()


def test_family_build_refuses_long_witt_sweeps(capsys, monkeypatch):
    # Witt length 800 at F_9 would spend seconds building W_800 for the
    # ghost criterion: the estimate refuses it before the family is built;
    # length 50 still runs
    code, out = _run(["family-build", "--p", "3", "--e", "2", "--kind",
                      "exponent-pn", "--witt-len", "50"], capsys)
    assert code == 0
    assert json.loads(out)["notes"]["conductor"] == 1 + 3 ** 49 * 4

    def no_build(*args, **kwargs):
        raise AssertionError("family built before the work estimate")

    monkeypatch.setattr(cover, "_least_gamma", no_build)
    code = cli.main(["family-build", "--p", "3", "--e", "2", "--kind",
                     "exponent-pn", "--witt-len", "800"])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1 and "products" in err


@pytest.mark.parametrize("kind", ["jump2-even", "jump2-odd", "table-full",
                                  "exponent-pn"])
def test_family_degree_floor_bounds_the_degree(kind):
    # the floor is a floor: what prints today still prints
    for p in (2, 3, 5, 7, 11):
        for e in (1, 2, 3, 4):
            for witt_len in (1, 2, 3) if kind == "exponent-pn" else (2,):
                try:
                    fam = cli.family_build(field.make_field(p, e), kind,
                                           witt_len=witt_len)
                except cli.WildramError:
                    continue
                k = cli._family_degree_floor(p, e, kind, witt_len)
                degree = cli.tower_compose(fam["items"])["degree"]
                assert p ** k <= degree, (p, e, witt_len)


def test_rayclass_m2(capsys):
    code, out = _run(["rayclass-m2", "--p", "2", "--e", "2"], capsys)
    assert code == 0 and out == "7\n"
    code, out = _run(["rayclass-m2", "--p", "3", "--e", "1",
                      "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"p": 3, "e": 1, "m2": 13}
    code, out = _run(["rayclass-m2", "--p", "3", "--e", "9"], capsys)
    assert code == 0 and out == "733\n"


def test_resource_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WR_RESOURCE_CAP", "10")
    code, _ = _run(["rayclass-orders", "--p", "5", "--e", "4",
                    "--ms", "131"], capsys)
    assert code == 1
    monkeypatch.setenv("WR_RESOURCE_CAP", "banana")
    code, _ = _run(["rayclass-orders", "--p", "2", "--e", "1",
                    "--ms", "4"], capsys)
    assert code == 2


def test_family_build_output(capsys):
    code, out = _run(["family-build", "--p", "3", "--e", "2",
                      "--kind", "jump2-even"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "jump2-even"
    assert payload["notes"]["m2"] == 13
    assert payload["tower"]["genus"] == 3864
    assert payload["tower"]["degree"] == 729
    assert payload["tower"]["levels"] == [[5, 3, 3], [11, 9, 27],
                                          [12, 9, 243], [13, 3, 729]]
    assert len(payload["items"]) == len(
        {item["label"] for item in payload["items"]})


# sha256 of the stdout bytes, frozen before the characters of additive
# covers came from the adjoint kernel: towers and genera must not move
_FROZEN_FAMILIES = {
    ("jump2-even", 3, 2, 2):
        "d8f3a3510a4a51d3d3397f7b1fbe0a6dfec114f6ad52bd0bcec8950fbb2c344d",
    ("table-full", 5, 4, 2):
        "4a230d96ed5c57f8acafda6662301a8ceb38572174c7a5efcf16246af64acd6a",
    ("jump2-odd", 3, 3, 2):
        "579328593c3eaabefa4f76094e80fbac45e2a1c7b44ac7595ef7aba7e688121a",
    ("exponent-pn", 3, 2, 3):
        "31a1b157184ee8168c8809f1f52b01acdda29050e397f63e9973ea955f13c48e",
    # frozen before every item went through one constructor
    ("jump2-even", 2, 4, 2):
        "4519e8ee5f14d2b1b6b5a4f78364b080c0ada1bd8d7558c9b1ee696e8a9fd68c",
    ("jump2-even", 7, 2, 2):
        "beeeeb26db535152d197b4492e1578ba29623a383c006e60636112ee99cb11c3",
    ("jump2-odd", 2, 5, 2):
        "224b33772f4444d6ab39e4fcca4eb4d86636b910a0fdf847c29b40089b02bbca",
    ("jump2-odd", 5, 3, 2):
        "94a4f05f66a28e678db370e77d47d0ca267772a2eb075f5d50997922e2f9f9ad",
    ("table-full", 2, 6, 2):
        "8caf0bb05ae2cdd2b376a5118d98dc085c699ceee083b289b757252dab3e83f0",
    ("table-full", 3, 4, 2):
        "f6c8491d2e91ebf57093615fb6a11e4d3ca5a8c1bb412a532bd915ef1acc5bf0",
    ("exponent-pn", 2, 4, 5):
        "02f49480fc49fd5b25947924de60343b4481ec2223c69d169d86f86a57da2181",
    ("exponent-pn", 3, 2, 20):
        "e3ca436b33b7f129a32f3862947a5063237beef94aa291f1d346b2a57d3b2835",
}


@pytest.mark.parametrize("kind, p, e, witt_len", sorted(_FROZEN_FAMILIES))
def test_family_build_bytes_frozen(capsys, kind, p, e, witt_len):
    code, out = _run(["family-build", "--p", str(p), "--e", str(e),
                      "--kind", kind, "--witt-len", str(witt_len)], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _FROZEN_FAMILIES[kind, p, e, witt_len]


def test_adjoint_bytes_frozen(tmp_path, capsys):
    # f = X*S(X) - X over F_625 with S of F-degree 2 and every a_j nonzero
    obj = {"field": {"p": 5, "e": 4, "modulus": [1, 0, 1, 1, 1]},
           "poly": [[2, [1, 2, 0, 0]], [6, [0, 1, 0, 3]],
                    [26, [1, 0, 0, 0]], [1, [4, 0, 0, 0]]]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(obj))
    code, out = _run(["adjoint", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["kernel_dim_rational"] == 1
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0ef66390dd4fdca65c91ed4918f09cc8a9442f894b82fe54488fd7500b71dbe4"


# y^5 + y = x^6 and y^25 - y = x^26 over F_25, with sha256 of the stdout
# of `cover-analyze` and of `basechange --sub [[0,1],[1,0]]` (x -> Xx + x^5)
# as frozen before splitting was read off the adjoint kernel's traces
_FROZEN_COVERS = {
    "hermitian": ([[1, 0], [1, 0]], 6, (
        "ffb1c34af9a1e0c6baffb9948d174d9b1ec646cfa5b2a7ea36f2a2d9fc72fda1",
        "80b8e048ba9126b13ef42dc945f96119205289d38afa75c97c204c28a61dc380")),
    "full trace": ([[4, 0], [0, 0], [1, 0]], 26, (
        "8438649c4a099c85eb621af79fdde0254573bd3ad49f56db5df5b03d72a5b626",
        "9e4046d0fbc69fcf35983c04d68be7a4d250aa2f820dcc2a37cdfd8ee3ab4b52")),
}


@pytest.mark.parametrize("label", sorted(_FROZEN_COVERS))
def test_cover_bytes_frozen(tmp_path, capsys, label):
    op, exp, (analyze, basechange) = _FROZEN_COVERS[label]
    obj = {"field": {"p": 5, "e": 2}, "operator": {"additive": op},
           "rhs": [[[exp, [1, 0]]]], "label": label}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(obj))
    code, out = _run(["cover-analyze", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == analyze
    code, out = _run(["basechange", str(path), "--sub", "[[0,1],[1,0]]"],
                     capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == basechange


@pytest.mark.parametrize("operator", [{"witt": 1},
                                      {"additive": [[1], [1]]}])
def test_sampled_splitting_sees_inert_places(tmp_path, capsys, operator):
    # y^2 + y = c x over F_4096 with c = X + X^4: the place x is inert
    # when Tr(c x) = 1, at half of the places.  A sampler whose coordinates past the ninth were always
    # 0 drew only points of trace 0 and reported 64 of 64
    obj = {"field": {"p": 2, "e": 12}, "operator": operator,
           "rhs": [[[1, [0, 1, 0, 0, 1]]]]}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(obj))
    code, out = _run(["cover-analyze", str(path)], capsys)
    assert code == 0
    hits, rest = json.loads(out)["splits"].split(" of ")
    assert rest == "64 sampled places"
    assert 16 <= int(hits) <= 48


def test_splitting_over_large_field_is_exact(tmp_path, capsys):
    # y^2 + y = c x^65 over F_4096 with c = X^64 + X: x^65 lies in F_64,
    # and Tr_{4096/64}(c) = 0, so every place splits.  The trace criterion
    # proves it from the coefficients, where 64 sampled places could only
    # suggest it
    ctx = field.make_field(2, 12)
    c = ctx.gen ** 64 + ctx.gen
    obj = {"field": {"p": 2, "e": 12}, "operator": {"witt": 1},
           "rhs": [[[65, c.to_json()]]]}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(obj))
    code, out = _run(["cover-analyze", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["splits"] == "all q places"


def test_cover_payload_reads_the_ladder_once(monkeypatch):
    # conductor, degree, genus and filtration all come from one ladder
    calls = []
    real = cover.character_levels

    def counting(cov):
        calls.append(cov)
        return real(cov)

    monkeypatch.setattr(cover, "character_levels", counting)
    monkeypatch.setattr(cli, "character_levels", counting)
    for operator, rhs in [({"additive": [[4, 0], [0, 0], [1, 0]]},
                           [[[26, [1, 0]]]]),
                          ({"witt": 2}, [[[4, [1, 0]]], [[2, [0, 1]]]])]:
        cov = cover.CoverSpec.from_json({"field": {"p": 5, "e": 2},
                                         "operator": operator, "rhs": rhs})
        calls.clear()
        payload = cli._cover_payload(cov)
        assert len(calls) == 1
        assert payload["conductor"] == cover.conductor(cov)
        assert payload["degree"] == cover.cover_degree(cov)
        assert payload["genus"] == cover.cover_genus(cov)


def test_long_witt_place_count_is_priced(tmp_path, capsys, monkeypatch):
    # length 60 over F_3^6 with every coordinate nonzero: the count of
    # its places is priced over the budget and refused in one line,
    # before the genus and breaks of the ladder are built
    calls = []
    for name in ("tower_genus", "ladder_filtration"):
        def counting(levels, real=getattr(cli, name), name=name):
            calls.append(name)
            return real(levels)
        monkeypatch.setattr(cli, name, counting)
    rhs = [[[4, [1]], [2, [1]], [1, [1]]]] + [[[2, [1]], [1, [1]]]] * 59
    path = tmp_path / "dense_witt.json"
    path.write_text(json.dumps({"field": {"p": 3, "e": 6},
                                "operator": {"witt": 60}, "rhs": rhs}))
    code = cli.main(["cover-analyze", str(path)])
    cap = capsys.readouterr()
    assert code == 1 and cap.out == "" and len(cap.err.splitlines()) == 1
    assert "products" in cap.err
    assert calls == []


def test_long_witt_splitting_over_large_field_is_exact(tmp_path, capsys):
    # the length-3 exponent-pn cover over F_6561 splits at every place:
    # the ghost criterion over GR(27, 8) proves it from the coefficients,
    # where 64 sampled places could only suggest it
    fam = cli.family_build(field.make_field(3, 8), "exponent-pn",
                           witt_len=3)
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(fam["items"][0].cover.to_json()))
    code, out = _run(["cover-analyze", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["splits"] == "all q places"


def test_bigaction_check(tmp_path, capsys):
    obj = {"p": 3,
           "filtration": {"numbering": "lower",
                          "segments": [[1, 1, 27], [4, 1, 3]]},
           "v": 2, "g2_invariants": [3], "s": 1}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(obj))
    code, out = _run(["bigaction-check", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_big"] is True
    assert payload["ratio1"] == [9, 1]
    assert payload["ratio2"] == [3, 1]
    verdicts = {row["rule"]: row["verdict"] for row in payload["sieve"]}
    assert set(verdicts.values()) == {"pass"}
    # strict mode propagates missing declarations as a computational error
    obj.pop("g2_invariants")
    path.write_text(json.dumps(obj))
    code, _ = _run(["bigaction-check", str(path), "--strict"], capsys)
    assert code == 1


def test_bigaction_check_reads_integral_floats_as_ints(tmp_path, capsys):
    # 3.0 is the integer 3, as in every other JSON loader; it used to
    # reach Fraction(2 p, p - 1) as a float and end in a traceback
    outs = []
    for p, v, s in [(3, 2, 1), (3.0, 2.0, 1.0)]:
        obj = dict(_PROFILE, p=p, v=v, s=s, g2_invariants=[3])
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(obj))
        code, out = _run(["bigaction-check", str(path)], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("segments", [
    [[1, 1, 27.9], [4.5, True, 3]],
    [[1, 1, 27], [4.5, 1, 3]],
    [[1, 1, 27], [4, True, 3]],
    [[1, 1, 27], "413"],
    [[1, 1, 27], [4, 1, 3, 0]],
    [[1, 0, 27], [4, 1, 3]],
])
def test_bad_filtration_segments_are_usage_errors(tmp_path, capsys,
                                                  segments):
    # bare int() read 27.9, 4.5 and true as 27, 4 and 1, and the string
    # "413" as the segment (4, 1, 3), so each printed the bytes of the
    # good profile and exited 0; a zero denominator ended in a traceback
    good = dict(_PROFILE, v=2)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(good))
    assert cli.main(["bigaction-check", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(dict(good, filtration={
        "numbering": "lower", "segments": segments})))
    assert cli.main(["bigaction-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed input")
    assert len(err.splitlines()) == 1


def test_repeat_invocation_is_deterministic(tmp_path, capsys):
    path = _write_cover(tmp_path)
    argv = ["cover-analyze", path]
    _, first = _run(argv, capsys)
    _, second = _run(argv, capsys)
    assert first == second


# sha256 of "<exit code>\n<stdout>\0<stderr>" at 80 columns, frozen
# before each command's arguments were added only when it runs: help,
# usage and argparse's errors for every command, misplaced flags included
_FROZEN_USAGE = {
    ():
        "1669b6179d403c65ee4b90fab6505a078f5f68539dbe0d2ecced0be9a36480e5",
    ("--help",):
        "5d99b29422ff01b5fd3383d2afc9dc4858df3c25d103af34ac01b9a8df180f64",
    ("-h",):
        "5d99b29422ff01b5fd3383d2afc9dc4858df3c25d103af34ac01b9a8df180f64",
    ("no-such-command",):
        "34add3f76e099c4d527d4c48a794706d3c77f2742cbab2af8ce6597b32391db1",
    ("field", "--help"):
        "0cdb5a3ec8b9134f5e15f08a82f243474102ef58d0cbf7497de5574433ce8bf6",
    ("cover-analyze", "--help"):
        "9260e9fdf5e893acd7d9fd61bc3683c94a6e34402c65095007cee6f7287d8fda",
    ("adjoint", "--help"):
        "8a76b46eb5efc73132b94855c26ed583d463329c71692003bb4d34562b594054",
    ("rayclass-orders", "--help"):
        "f7f88aa91b18a8f40bb8fdff6f85702a101ff15604215d1cc67c012a35233182",
    ("rayclass-m2", "--help"):
        "22aeb8829aee7a9e8a7d179b5800547881c75cde0034ad8d125f76e36fda2892",
    ("family-build", "--help"):
        "d104da9b050a5aa3a3279333f2528b188f566f54aeedecbcfd3b2f5cbe9397c3",
    ("basechange", "--help"):
        "379d1af84fcc10ac1e91e054dd41e198ccc6e463d7be631fa17d8e0d7096d80b",
    ("bigaction-check", "--help"):
        "745e37e8e113e98d9606c4360883bc8831d36825c49051001bc16dec3822c82c",
    ("reproduce-table", "--help"):
        "bf2ac0e25f3281b2a05f2d59d8c85e2ecb1d34e40b017524da3fe113737af00d",
    ("field", "--p", "3"):
        "ff5242f0e382b24704a5f2ae1aa1aae2cebb76ca8bc77e520fd1092869d3c2a1",
    ("field", "--p", "x", "--e", "1"):
        "152282b022bd6411fc9dcb8da8fc165b8fc26c4e40a730912a3a792aa9ec3e75",
    ("cover-analyze",):
        "6b5d16728df291348bbdd642df2ea7237e1a408d35480367660b3fc297dfbbe7",
    ("adjoint", "poly.json", "--bogus"):
        "de2f0afae03d4c98d2a1ad8cb950b1d0c2ce2af7bb3298efecf49f9eb8b86bbd",
    ("rayclass-orders", "--p", "2", "--e", "1", "--m-max", "x"):
        "73a1e95cfa32cdf722e5c488d714f87caad3f2b2d2fbbe8db926dcd189c9a8f0",
    ("rayclass-m2", "--p", "2", "--e", "1", "--format", "csv"):
        "e822236068cf5eaf3f5b186daac75c119853b7f5a11940367c533953d1f6ab08",
    ("family-build", "--p", "3", "--e", "2", "--kind", "nope"):
        "47f7094f4babc2fd9baab9663c0fecb0f7b6c11ac93c7d64f3fde75fc02e1c2b",
    ("basechange", "cover.json"):
        "ea1b4f739b3e0214f43a35851d3cebd072641a4021e7cb978c66e692732eb487",
    ("bigaction-check", "--strict"):
        "dfe6d2509d0b06f362759adf0d9f768549924e8b5a722ae34efd26c470e38e59",
    ("reproduce-table", "--p", "5", "--e", "4", "--format", "json"):
        "3d1982267af2c7f00b9aa000b30d22cf53d7a378a39a74fe3081354bd7f7aeea",
    ("--p", "3", "field", "--e", "1"):
        "59e627e2cdf0ed99bc7632e38292b5451af8eed4e320798d8bce7086baf0b892",
    ("field", "--p", "3", "--e", "1", "extra"):
        "61c884441a551a54bed0e8cfa08814f2e3f04efa60ad74d0e1bc4ff7187a770f",
}


def _run_exiting(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # --help exits from inside argparse
        code = exc.code
    cap = capsys.readouterr()
    return "%s\n%s\0%s" % (code, cap.out, cap.err)


def _fresh_parsers():
    cli._parser.cache_clear()


@pytest.mark.parametrize("warm", [False, True])
def test_help_usage_and_errors_frozen(capsys, monkeypatch, warm):
    # cold: new parsers for every call, only the invoked command's or
    # the top level; warm: every command's own parser built first
    monkeypatch.setenv("COLUMNS", "80")
    _fresh_parsers()
    for name in cli.COMMANDS if warm else ():
        cli._parser(name)
    for argv, digest in _FROZEN_USAGE.items():
        if not warm:
            _fresh_parsers()
        blob = _run_exiting(argv, capsys).encode()
        assert hashlib.sha256(blob).hexdigest() == digest, argv


def test_each_command_adds_its_arguments_once(capsys, monkeypatch):
    added, made = [], []
    add, init = argparse.ArgumentParser.add_argument, \
        argparse.ArgumentParser.__init__

    def counted_add(self, *args, **kwargs):
        added.append(self)
        return add(self, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def arguments(name):  # its -h and its declared arguments
        return 1 + len(cli.COMMANDS[name][1])

    _fresh_parsers()
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted_add)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    # a valid argv is read from its command's declaration: no parser
    for argv in (["field", "--p", "5", "--e", "1"],
                 ["rayclass-orders", "--p", "2", "--e", "1", "--ms", "3"]):
        assert _run(argv, capsys)[0] == 0
    assert not made and not added
    # help, a usage error and an abbreviation: that command's own parser,
    # with its arguments once, made on the first call only
    fallbacks = (["field", "-h"], ["rayclass-m2", "--p", "x", "--e", "1"],
                 ["rayclass-orders", "--p", "2", "--e", "1", "--m-m", "3"])
    for argv in fallbacks:
        _run_exiting(argv, capsys)
        assert len(made) == 1 and made[0].prog == "wr " + argv[0]
        assert added == made * arguments(argv[0])
        assert made[0] is cli._parser(argv[0])
        added.clear()
        made.clear()
        _run_exiting(argv, capsys)
        assert not made and not added
    # every other argv: the top level, with a subparser per command that
    # has that command's arguments, built once for all of them
    added.clear()
    made.clear()
    for argv in (["--help"], ["no-such-command"], [],
                 ["--p", "3", "field", "--e", "1"]):
        _run_exiting(argv, capsys)
    top = cli._parser(None)
    assert made[0] is top
    assert [sub.prog for sub in made[1:]] == ["wr " + n for n in cli.COMMANDS]
    want = {sub: arguments(name) for sub, name in zip(made[1:], cli.COMMANDS)}
    assert collections.Counter(added) == {top: 1, **want}


# (command, params, out, fmt) of parse_plan, as at the parser that
# built every command's arguments on every call
_PLANS = [
    (["rayclass-orders", "--p", "2", "--e", "1", "--ms", "7,3,3"],
     ("rayclass-orders", {"p": 2, "e": 1, "m_max": None, "ms": [3, 7],
                          "order_only": False}, None, "csv")),
    (["rayclass-orders", "--p", "3", "--e", "4", "--m-max", "5",
      "--order-only", "--format", "json"],
     ("rayclass-orders", {"p": 3, "e": 4, "m_max": 5, "ms": range(2, 6),
                          "order_only": True}, None, "json")),
    (["field", "--p", "5", "--e", "4", "--format", "text", "--out", "x"],
     ("field", {"p": 5, "e": 4}, "x", "text")),
    (["family-build", "--p", "3", "--e", "2", "--kind", "exponent-pn"],
     ("family-build", {"p": 3, "e": 2, "kind": "exponent-pn",
                       "witt_len": 2}, None, "json")),
    (["basechange", "c.json", "--sub", "[1]"],
     ("basechange", {"cover": "c.json", "sub": "[1]", "label": None},
      None, "json")),
    (["bigaction-check", "prof.json", "--strict"],
     ("bigaction-check", {"profile": "prof.json", "strict": True},
      None, "json")),
    (["rayclass-m2", "--p", "3", "--e", "4"],
     ("rayclass-m2", {"p": 3, "e": 4, "cap": None}, None, "text")),
    (["reproduce-table", "--p", "5", "--e", "4"],
     ("reproduce-table", {"p": 5, "e": 4}, None, "json")),
    (["cover-analyze", "c.json"],
     ("cover-analyze", {"cover": "c.json"}, None, "json")),
    (["adjoint", "f.json", "--out", "o.json"],
     ("adjoint", {"poly": "f.json"}, "o.json", "json")),
]


@pytest.mark.parametrize("warm", [False, True])
def test_plans_do_not_depend_on_parsed_commands(warm):
    _fresh_parsers()
    for name in cli.COMMANDS if warm else ():
        cli._parser(name)
    for argv, want in _PLANS:
        if not warm:
            _fresh_parsers()
        plan = cli.parse_plan(argv)
        assert (plan.command, plan.params, plan.out, plan.fmt) == want
        # each is read from its declaration, not by argparse
        assert cli._read_declared(argv[0], argv[1:]) is not None, argv


# values for any argument: small numbers, most of which pass the field
# checks, and zero, negatives, 2^64 and beyond, non-numeric, empty and
# comma lists
_TOKENS = st.one_of(
    st.sampled_from(["2", "3", "5", "4", "7"]),
    st.sampled_from(["0", "-1", "-7", str(2 ** 64), str(2 ** 64 + 13), "x",
                     "", ",", "3,x", "7,3,3", "1e3", "[1]"]),
    st.integers(-5, 10 ** 20).map(str),
    st.lists(st.integers(-3, 50), max_size=4).map(
        lambda ms: ",".join(map(str, ms))))


@st.composite
def _argv(draw):
    """A command name and pieces built from its declared arguments, the
    required ones present, each other one present or not, in any order."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    pieces = []
    for flag, kwargs in cli.COMMANDS[name][1]:
        if kwargs.get("action") == "store_true":
            value = []
        elif "choices" in kwargs:
            value = [draw(st.sampled_from([*kwargs["choices"], "nope"]))]
        else:
            value = [draw(_TOKENS)]
        if not flag.startswith("-"):
            pieces.append(value)
        elif kwargs.get("required") or draw(st.booleans()):
            pieces.append([flag, *value])
    order = draw(st.permutations(pieces))
    return name, [name, *(tok for piece in order for tok in piece)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_argv())
def test_declared_arguments_parse_or_refuse(case):
    # every argv built from a command's declared arguments is a plan for
    # that command or a usage error, never another exception
    name, argv = case
    try:
        plan = cli.parse_plan(argv)
    except UsageError:
        return
    assert isinstance(plan, cli.Plan) and plan.command == name


# tokens argparse alone reads: empty, dashes, help, negative numbers
_RARE = st.sampled_from(["", "-", "--", "-h", "--help", "-3", "nope"])


@st.composite
def _rare_argv(draw):
    """A command name and tokens from its declared arguments, each given
    0-2 times, mostly as a flag and a value that fits it, sometimes as
    --flag=value, abbreviated, without its value, with another value,
    or beside an unknown token; in any order."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    pieces = []
    for flag, kwargs in cli.COMMANDS[name][1]:
        fits = st.sampled_from(kwargs["choices"]) if "choices" in kwargs \
            else st.integers(1, 9).map(str)
        for _ in range(draw(st.sampled_from([0] + [1] * 8 + [2]))):
            value = draw(st.one_of(fits, fits, fits, _TOKENS, _RARE))
            shape = draw(st.sampled_from(["plain"] * 15
                                         + ["join", "abbrev", "bare"]))
            bare = shape == "bare" or kwargs.get("action") == "store_true"
            if not flag.startswith("-"):
                pieces.append([value])
            elif shape == "join":
                pieces.append([flag + "=" + value])
            else:
                spelled = flag if shape != "abbrev" else \
                    flag[:draw(st.integers(3, len(flag)))]
                pieces.append([spelled] + [value] * (not bare))
    if draw(st.integers(0, 7)) == 0:
        pieces.append([draw(st.sampled_from(["--bogus", "zz", "-x"]))])
    order = draw(st.permutations(pieces))
    return name, [tok for piece in order for tok in piece]


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(_rare_argv())
def test_declared_reading_agrees_with_argparse(case):
    # whatever the direct reading accepts, argparse reads the same
    name, args = case
    params = cli._read_declared(name, args)
    if params is not None:
        assert params == vars(cli._parser(name).parse_args(args))


@pytest.mark.parametrize("argv, code, imports_locale",
                         [(["field", "--p", "5", "--e", "1"], 0, False),
                          (["field", "--p", "x", "--e", "1"], 2, True)])
def test_valid_call_does_not_import_locale(argv, code, imports_locale):
    # in a fresh process: argparse's first parser imports locale, and a
    # valid argv builds none
    script = ("import sys\n"
              "from wildram.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, 'locale' in sys.modules, file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "%d %s" % (code, imports_locale)


# an exponent or break: small, or of 4300 digits, so that what is built
# from it passes the default limit on printed integers
_EXPONENT = st.one_of(st.integers(0, 99),
                      st.integers(0, 99).map(lambda k: 10 ** 4299 + k))


@st.composite
def _json_input(draw):
    """argv for a command that reads a JSON file, and the file's content:
    p <= 5, e <= 3, Witt length <= 3 and at most 3 terms or segments."""
    command = draw(st.sampled_from(["cover-analyze", "basechange",
                                    "adjoint", "bigaction-check"]))
    p = draw(st.sampled_from([2, 3, 5]))
    if command == "bigaction-check":
        segment = st.tuples(_EXPONENT, st.integers(1, 3),
                            st.integers(1, 27)).map(list)
        return [command], {
            "p": p, "v": draw(st.integers(0, 3)),
            "filtration": {"numbering": draw(st.sampled_from(["lower",
                                                              "upper"])),
                           "segments": draw(st.lists(segment, min_size=1,
                                                     max_size=3))}}
    e = draw(st.integers(1, 3))
    elem = st.lists(st.integers(0, p - 1), min_size=e, max_size=e)
    poly = st.lists(st.tuples(_EXPONENT, elem).map(list), max_size=3)
    field = {"p": p, "e": e}
    if command == "adjoint":
        return [command], {"field": field, "poly": draw(poly)}
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        operator = {"witt": n}
    else:
        n, operator = 1, {"additive": draw(st.lists(elem, min_size=1,
                                                    max_size=3))}
    argv = [command]
    if command == "basechange":
        sub = draw(st.lists(elem, min_size=1, max_size=3))
        argv += ["--sub", json.dumps(sub)]
    return argv, {"field": field, "operator": operator,
                  "rhs": [draw(poly) for _ in range(n)]}


@settings(max_examples=100, derandomize=True,
          deadline=timedelta(seconds=5))
@given(_json_input())
def test_json_inputs_end_in_an_exit_code(tmp_path_factory, case):
    # whatever the file holds, cli.main returns 0, 1 or 2 and a failure
    # is one stderr line
    argv, obj = case
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv[:1] + [str(path)] + argv[1:])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) == (code != 0), err.getvalue()


# any JSON value, as deep as the loaders read, in objects keyed by their
# field names; ints up to 400 digits, every float, true, null, strings
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.sampled_from(["lower", "upper"]), st.integers(-2, 9), st.integers(),
    st.sampled_from([2 ** 64 + 13, -(10 ** 400), 10 ** 400]))
_JSON_ANY = st.recursive(_JSON_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from([
        "p", "e", "modulus", "field", "operator", "witt", "additive", "rhs",
        "label", "numbering", "segments", "filtration", "v", "s",
        "g2_invariants"]), inner, max_size=5)), max_leaves=16)


def _or_any(shape):
    """Mostly the loader's shape, about 1 in 16 any JSON value in its
    place (k == 1: hypothesis draws the bound 0 far more often)."""
    return st.integers(0, 15).flatmap(
        lambda k: _JSON_ANY if k == 1 else shape)


def _object(optional=None, **required):
    """A JSON object with the required keys and any of the optional."""
    return st.fixed_dictionaries(
        {k: _or_any(v) for k, v in required.items()},
        optional={k: _or_any(v) for k, v in (optional or {}).items()})


def _segments(pairs):
    """Distinct ends up from 1, distinct orders down: a filtration's
    segments, with G_0 = G_1 as a profile needs."""
    ends, orders = sorted(a for a, _ in pairs), sorted(b for _, b in pairs)
    return [[a + 1 - ends[0], 1, b] for a, b in zip(ends, orders[::-1])]


_SMALL = st.integers(0, 4)
_ELEM = _or_any(st.one_of(_SMALL, st.lists(_SMALL, max_size=1)))
_POLY = st.lists(st.tuples(st.integers(0, 30), _ELEM).map(list), max_size=2)
_FIELD = _object({"modulus": st.sampled_from([[0, 1], [1, 1], []])},
                 p=st.sampled_from([2, 3, 5]), e=st.integers(1, 3))
_FILTRATION = _object(
    numbering=st.sampled_from(["lower", "upper"]),
    segments=st.lists(st.tuples(st.integers(1, 4),
                                st.sampled_from([2, 4, 8, 16])),
                      min_size=1, max_size=3,
                      unique_by=(lambda t: t[0], lambda t: t[1])
                      ).map(_segments))
_LOADERS = {
    field.field_from_json: _FIELD,
    lambda obj: field.FqPoly.from_json(field.make_field(3, 2), obj): _POLY,
    lambda obj: AdditiveOp.from_json(field.make_field(3, 2), obj):
        st.lists(_ELEM, max_size=3),
    CoverSpec.from_json: _object(
        {"label": st.text(max_size=3)}, field=_FIELD,
        operator=st.one_of(_object(witt=st.integers(1, 2)),
                           _object(additive=st.lists(_ELEM, min_size=1,
                                                     max_size=3))),
        rhs=st.lists(_POLY, min_size=1, max_size=2)),
    Filtration.from_json: _FILTRATION,
    ActionProfile.from_json: _object(
        {"s": st.integers(1, 3), "g2_invariants": st.lists(_SMALL)},
        p=st.sampled_from([2, 3]), v=st.integers(0, 3),
        filtration=_FILTRATION),
}


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.one_of(_JSON_ANY, *_LOADERS.values()))
def test_loaders_return_or_refuse_for_exit_2(obj):
    # every loader takes every object: it returns, or raises what
    # cli._load turns into exit 2 or a WildramError; what loads comes
    # back the same from its to_json
    for load in _LOADERS:
        try:
            got = load(obj)
        except (KeyError, TypeError, ValueError, OverflowError,
                WildramError):
            continue
        assert load(got.to_json()).to_json() == got.to_json()
