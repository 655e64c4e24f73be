"""Tests of the benchmark's own checkers, tracer and definitions.

    python3 -m pytest perfbench -q

Each checker must accept the golden output and reject a corrupted copy
of it: one digit flipped, or one invariant dropped.
"""

import json
import os

import pytest

import checks
import run
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def golden(name):
    with open(os.path.join(checks.GOLDEN_DIR, name + ".out")) as fh:
        return fh.read()


def replace_line(text, m, new_line):
    """Swap the CSV row for conductor m."""
    lines = text.splitlines(keepends=True)
    idx = next(i for i, line in enumerate(lines) if line.startswith("%d," % m))
    lines[idx] = new_line + "\n"
    return "".join(lines)


def row_line(text, m):
    return next(line for line in text.splitlines() if line.startswith("%d," % m))


def flip_cell(text, m, col):
    """Flip the last digit of one cell of the row for conductor m."""
    cells = row_line(text, m).split(",")
    digit = cells[col][-1]
    cells[col] = cells[col][:-1] + ("1" if digit != "1" else "2")
    return replace_line(text, m, ",".join(cells))


def drop_invariant(text, m):
    cells = row_line(text, m).split(",")
    cells[3] = ";".join(cells[3].split(";")[1:])
    return replace_line(text, m, ",".join(cells))


S28 = golden("sweep_2_8")
S34 = golden("sweep_3_4")
T54 = golden("table54")


def rows(text):
    return checks.parse_rows(text)


def test_golden_outputs_pass_every_checker():
    digests = checks.load_golden_digests()
    for name in digests:
        with open(os.path.join(checks.GOLDEN_DIR, name + ".out"), "rb") as fh:
            assert checks.check_golden(name, fh.read(), digests) == []
    assert checks.check_reproduce_table(T54) == []
    assert checks.check_table_laws(S28, 2, 8) == []
    assert checks.check_table_laws(S34, 3, 4, full=False) == []
    assert checks.check_m2_text(golden("m2_3_4"), 3, 4) == []
    specs = sorted(workloads.oracle(0), key=lambda s: (s["p"], s["e"], s["m"]))
    for line, spec in zip(golden("oracle").splitlines(), specs):
        assert checks.check_oracle_line(line, spec) == []


def test_second_jump_law_values():
    assert checks.second_jump_law(2, 8) == 35
    assert checks.second_jump_law(3, 4) == 31
    assert checks.second_jump_law(5, 4) == 131


def test_golden_rejects_one_flipped_digit():
    digests = checks.load_golden_digests()
    bad = flip_cell(S28, 40, 4).encode()
    assert checks.check_golden("sweep_2_8", bad, digests)
    assert checks.check_golden("no_such_output", b"", digests)


def test_trivial_range_rejects_flipped_order():
    assert checks.check_trivial_range(rows(flip_cell(S28, 17, 1)), 2, 8)
    assert checks.check_trivial_range(rows(flip_cell(S34, 10, 1)), 3, 4)
    assert checks.check_trivial_range(rows(flip_cell(T54, 26, 1)), 5, 4)
    # a table that never reaches the trivial range proves nothing
    assert checks.check_trivial_range(rows(S28)[20:], 2, 8)


def test_monotone_rejects_dropping_order():
    # 24 -> 21 at m = 37, below m = 36's 24; 8 -> 1 at m = 53, below 6
    assert checks.check_monotone(rows(flip_cell(S28, 37, 1)))
    assert checks.check_monotone(rows(flip_cell(T54, 53, 1)))
    assert checks.check_monotone(rows(S28)[::-1])


def test_places_rejects_flipped_count():
    assert checks.check_places(rows(flip_cell(S28, 40, 4)), 2, 8)
    assert checks.check_places(rows(flip_cell(S34, 120, 4)), 3, 4)
    # a flipped order breaks N_m = 1 + q p^order_exp as well
    assert checks.check_places(rows(flip_cell(S34, 120, 1)), 3, 4)


def test_invariants_reject_a_dropped_factor():
    assert checks.check_invariants(rows(drop_invariant(S28, 40)), 2)
    assert checks.check_invariants(rows(drop_invariant(T54, 131)), 5)
    assert checks.check_table_laws(drop_invariant(S28, 48), 2, 8)


def test_second_jump_rejects_moved_jump():
    # m2 row loses its order-4 factors: exponent 2 at m2
    bad = replace_line(S28, 35, "35,16,2,%s,%d" % (";".join(["2"] * 16), 1 + 256 * 2 ** 16))
    assert checks.check_second_jump(rows(bad), 2, 8)
    # an order-p^2 factor before m2
    cells = row_line(S28, 30).split(",")
    cells[2] = "4"
    cells[3] = "4" + cells[3][1:]
    assert checks.check_second_jump(rows(replace_line(S28, 30, ",".join(cells))), 2, 8)
    assert checks.check_second_jump(rows(S28)[:30], 2, 8)


def test_m2_text_rejects_flipped_digit():
    assert checks.check_m2_text("32\n", 3, 4)
    assert checks.check_m2_text("31", 3, 4)


def test_reproduce_table_rejects_corruption():
    assert checks.check_reproduce_table(T54.replace("PASS ", "FAIL "))
    assert checks.check_reproduce_table(T54.replace("ratio_full=ok", "ratio_full=MISMATCH"))
    assert checks.check_reproduce_table(T54.replace("m2 = 131", "m2 = 132"))
    assert checks.check_reproduce_table(flip_cell(T54, 77, 1))
    assert checks.check_reproduce_table(drop_invariant(T54, 104))


PAL_SPEC = {"p": 3, "e": 2, "s": 1, "d": 2}
PAL_LINE = "7 3 2 1 | adj_fdeg=2 d=2 kerdim=2 kernel_fixed=9/9 random_agree=6/6"


def test_palindromic_line_checks():
    assert checks.check_palindromic_line(PAL_LINE, PAL_SPEC) == []
    for bad in (PAL_LINE.replace("adj_fdeg=2", "adj_fdeg=3"),
                PAL_LINE.replace("kerdim=2", "kerdim=1"),
                PAL_LINE.replace("9/9", "8/9"),
                PAL_LINE.replace("9/9", "3/3"),
                PAL_LINE.replace("6/6", "5/6"),
                PAL_LINE.replace("d=2 kerdim=2 kernel_fixed=9/9 random_agree=6/6", "d=None"),
                PAL_LINE.replace("d=2", "d=4"),
                PAL_LINE.replace("7 3 2 1", "7 3 1 1"),
                "7 3 2 1 | error ValueError: boom"):
        assert checks.check_palindromic_line(bad, PAL_SPEC), bad


def test_oracle_line_checks():
    spec = {"p": 2, "e": 2, "m": 7}
    line = "2 2 7 | engine=4:4;2;2 brute=4:4;2;2"
    assert checks.check_oracle_line(line, spec) == []
    assert checks.check_oracle_line(line.replace("engine=4:4;2;2", "engine=4:4;2"), spec)
    assert checks.check_oracle_line(line.replace("engine=4", "engine=5"), spec)
    assert checks.check_oracle_line(line.replace("2 2 7", "2 2 6"), spec)
    assert checks.check_oracle_line("garbage", spec)


def test_workload_inputs():
    a, b = workloads.palindromic(88), workloads.palindromic(7)
    assert len(a) == 100 and a == workloads.palindromic(88) and a != b
    assert all(inst["terms"][-1][0] == 1 + inst["p"] ** inst["s"] for inst in a)
    shapes = lambda insts: sorted((i["p"], i["s"], i["e"], i["d"]) for i in insts)
    assert shapes(a) == shapes(b)
    assert len(workloads.oracle(0)) == 46
    assert sorted(map(str, workloads.oracle(1))) == sorted(map(str, workloads.oracle(2)))
    assert [i["name"] for i in workloads.sweep(0)] == ["sweep_2_8", "sweep_3_4", "m2_3_4"]


def test_tracer_self_time_and_nesting():
    now = [0]
    tr = tracer.Tracer(clock=lambda: now[0])

    def tick(n):
        now[0] += n

    leaf = tr.hot_method("t.leaf", lambda: tick(5))

    def inner_fn():
        tick(3)
        leaf()
        tick(2)
    inner = tr.span("t.inner", inner_fn)

    def hot_parent_fn():
        tick(1)
        inner()
        tick(1)
    hot_parent = tr.hot_method("t.hot_parent", hot_parent_fn)

    def outer_fn():
        tick(1)
        inner()
        leaf()
        hot_parent()
        tick(4)
    outer = tr.span("t.outer", outer_fn)
    outer()
    got = tracer.derive(tr.report())
    assert got["t.leaf"] == {"calls": 3, "self_ns": 15}
    assert got["t.inner"] == {"calls": 2, "self_ns": 10}
    assert got["t.hot_parent"] == {"calls": 1, "self_ns": 2}
    assert got["t.outer"] == {"calls": 1, "self_ns": 5}
    assert sum(v["self_ns"] for v in got.values()) == now[0]
    parents = {sid: parent for sid, parent, *_ in tr.report()["spans"]}
    outer_id = next(s[0] for s in tr.report()["spans"] if s[2] == "t.outer")
    assert parents[outer_id] == 0
    assert sorted(parents.values()) == [0, outer_id, outer_id]


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_spec()


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank([7.0], 90) == 7.0
    with pytest.raises(IndexError):
        run.nearest_rank([], 50)


def test_traced_worker_prints_the_same_bytes():
    instances = [workloads.cli("field", "field", "--p", "3", "--e", "4"),
                 {"kind": "oracle", "p": 2, "e": 1, "m": 4}]
    plain = run.spawn("run", instances)
    traced = run.spawn("run", instances, trace=True)
    assert plain["exit"] == traced["exit"] == 0
    assert plain["stdout"] == traced["stdout"] and plain["stdout"]
    derived = tracer.derive(traced["report"]["trace"])
    assert derived["cli.main"]["calls"] == 1
    assert derived["field.make_field"]["calls"] >= 1
    assert derived["rayclass.brute_ray_class"]["units"] == 2 ** 3
    assert plain["setup_s"] > 0 and plain["peak_rss_mb"] > 0
