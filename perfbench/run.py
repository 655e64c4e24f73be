"""wildram benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its `src/` directory, so nothing needs installing.  Each workload run is
a fresh single-threaded process (perfbench/worker.py), so the library's
module caches start cold every time, as they do for each `wr` call.

--trace 0 repeats the workload until S seconds have passed (at least
once), spawns a few set-up-only processes, and reports the end-to-end
metrics as medians.  --trace 1 runs the workload once untraced and once
with every layer wrapped by perfbench/tracer.py, checks that both print
the same bytes, and reports the per-layer metrics and the tracing
overhead.  Human-readable details go to stderr; the last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "wildram")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SPAWNS = 6       # set-up-only processes per run, besides the workload's
RUN_BUDGET_S = 170.0   # kill any worker still running this long after start

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "instance_p50_ms": "ms", "instance_p90_ms": "ms"}

# traced callables and the figures reported for each
TRACED = {
    "rayclass.ray_class_invariants": ("calls", "self_s"),
    "rayclass.find_second_jump": ("calls", "self_s"),
    "rayclass.digit_tensor": ("calls", "self_s", "bytes"),
    "rayclass.brute_ray_class": ("calls", "self_s", "units"),
    "field.FqElem.mul": ("calls", "self_s", "us_per_call"),
    "field.FqElem.frobenius": ("calls", "self_s", "us_per_call"),
    "field.FqPoly.mul": ("calls", "self_s", "us_per_call"),
    "field.FqPoly.compose": ("calls", "self_s", "us_per_call"),
    "field.extension_field": ("calls", "self_s"),
    "field.embed_elem": ("calls", "self_s"),
    "additive.translation_test": ("calls", "self_s"),
    "additive.linearize_kernel": ("calls", "self_s"),
    "additive.splitting_degree": ("calls", "self_s"),
    "additive.image_membership": ("calls", "self_s"),
    "cover.splits_everywhere": ("calls", "self_s"),
    "cover.character_levels": ("calls", "self_s"),
    "cover.family_build": ("calls", "self_s"),
    "witt.WittVec.add": ("calls", "self_s"),
    "witt.witt_trace": ("calls", "self_s"),
    "ramify.tower_genus": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
FIGURE_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us",
                "bytes": "B", "units": "count"}
SRC_MODULES = ("field", "additive", "witt", "ramify", "cover", "rayclass",
               "cli", "bigaction")


def per_layer_spec():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for name, figures in TRACED.items():
        for fig in figures:
            # the oracle's universe may widen, never shrink
            better = "higher" if fig == "units" else "lower"
            out.append(("%s.%s" % (name, fig), FIGURE_UNITS[fig], better))
    out += [("%s.self_s" % layer, "s", "lower") for layer in tracer.LAYERS]
    out.append(("cli.output_bytes", "B", "lower"))
    out += [("%s.src_loc" % mod, "lines", "lower") for mod in SRC_MODULES]
    out.append(("wildram.src_loc", "lines", "lower"))
    out += [("trace.overhead", "x", "lower"), ("trace.base_wall_s", "s", "lower")]
    return out


# ---------------------------------------------------------------------------
# spawning

def _drain(fh, sink):
    sink.append(fh.read())
    fh.close()


def spawn(mode, instances=(), trace=False, deadline=None):
    """Run the worker once; wall time and peak RSS are taken from outside."""
    rfd, wfd = os.pipe()
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, WORKER, str(wfd), mode, "1" if trace else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        pass_fds=(wfd,), env=env, cwd=ROOT)
    os.close(wfd)
    killer = None
    if deadline is not None:
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
    report, err = [], []
    readers = [threading.Thread(target=_drain, args=(os.fdopen(rfd, "rb"), report)),
               threading.Thread(target=_drain, args=(proc.stderr, err))]
    for t in readers:
        t.start()
    try:
        proc.stdin.write(json.dumps(list(instances)).encode())
        proc.stdin.close()
    except BrokenPipeError:
        pass
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic_ns()
    if killer is not None:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    try:
        rep = json.loads(report[0]) if report[0] else None
    except ValueError:
        rep = None
    return {"exit": proc.returncode, "wall_s": (end - start) / 1e9,
            "setup_s": (rep["ready_ns"] - start) / 1e9 if rep else None,
            "peak_rss_mb": usage.ru_maxrss / 1024, "stdout": out,
            "stderr": err[0].decode(errors="replace"), "report": rep}


# ---------------------------------------------------------------------------
# checking

def check_run(run, instances, digests):
    """[(check name, [failure messages])] for one workload process."""
    rep = run["report"]
    if run["exit"] != 0 or rep is None or "instances" not in rep:
        return [("process", ["worker exit %s, stderr: %s"
                             % (run["exit"], run["stderr"].strip()[-400:])])]
    results = [("process", [])]
    where = rep["wildram"]
    results.append(("source", [] if where.startswith(PACKAGE + os.sep)
                    else ["imported wildram from %s" % where]))
    got = rep["instances"]
    if len(got) != len(instances):
        return results + [("instances", ["%d results for %d instances"
                                         % (len(got), len(instances))])]
    data, pos = run["stdout"], 0
    for inst, res in zip(instances, got):
        chunk = data[pos:pos + res["bytes"]]
        pos += res["bytes"]
        text = chunk.decode(errors="replace")
        kind = inst["kind"]
        if kind == "cli":
            name = inst["name"]
            errs = [] if res["exit"] == 0 else ["%s exit %s" % (name, res["exit"])]
            results.append((name + ".exit", errs))
            results.append((name + ".golden", checks.check_golden(name, chunk, digests)))
            results.append((name + ".laws", CLI_LAWS[name](text)))
        elif kind == "palindromic":
            results.append(("palindromic.%d" % inst["index"],
                            checks.check_palindromic_line(text.rstrip("\n"), inst)))
        else:
            results.append(("oracle.%d.%d.%d" % (inst["p"], inst["e"], inst["m"]),
                            checks.check_oracle_line(text.rstrip("\n"), inst)))
    if pos != len(data):
        results.append(("stdout", ["%d stray bytes after the last instance"
                                   % (len(data) - pos)]))
    if instances and instances[0]["kind"] == "oracle":
        results.append(("oracle.golden", checks.check_golden(
            "oracle", checks.canonical_records(data), digests)))
    return results


CLI_LAWS = {
    "table54": checks.check_reproduce_table,
    "sweep_2_8": lambda text: checks.check_table_laws(text, 2, 8),
    "sweep_3_4": lambda text: checks.check_table_laws(text, 3, 4, full=False),
    "m2_3_4": lambda text: checks.check_m2_text(text, 3, 4),
}


# ---------------------------------------------------------------------------
# metrics

def nearest_rank(values, pct):
    """The pct-th percentile by nearest rank: pct% of values are at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(runs, setup_runs):
    lat = [inst["latency_ns"] / 1e6 for r in runs if r["report"]
           for inst in r["report"].get("instances", ())]
    setups = [r["setup_s"] for r in runs + setup_runs if r["setup_s"] is not None]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "instance_p50_ms": statistics.median(lat) if lat else 0.0,
        "instance_p90_ms": nearest_rank(lat, 90) if lat else 0.0,
    }, len(lat)


def src_loc(module):
    with open(os.path.join(PACKAGE, module + ".py"), "rb") as fh:
        return fh.read().count(b"\n")


def per_layer(traced, untraced, instances):
    derived = tracer.derive(traced["report"]["trace"]) if traced["report"] else {}
    values = {}
    for name, figures in TRACED.items():
        entry = derived.get(name, {})
        calls, self_ns = entry.get("calls", 0), entry.get("self_ns", 0)
        for fig in figures:
            if fig == "self_s":
                val = self_ns / 1e9
            elif fig == "us_per_call":
                val = self_ns / calls / 1e3 if calls else 0.0
            else:
                val = entry.get(fig, 0)
            values["%s.%s" % (name, fig)] = val
    for layer in tracer.LAYERS:
        values["%s.self_s" % layer] = sum(
            e["self_ns"] for n, e in derived.items()
            if n.startswith(layer + ".")) / 1e9
    results = traced["report"]["instances"] if traced["report"] else []
    values["cli.output_bytes"] = sum(
        res["bytes"] for inst, res in zip(instances, results) if inst["kind"] == "cli")
    for mod in SRC_MODULES:
        values["%s.src_loc" % mod] = src_loc(mod)
    values["wildram.src_loc"] = sum(
        src_loc(f[:-3]) for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py"))
    values["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
    values["trace.base_wall_s"] = untraced["wall_s"]
    return values


def machine(report):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": report.get("numpy") if report else None}


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print("perfbench: no wildram sources at %s; run from a source checkout"
              % PACKAGE, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    instances = workloads.WORKLOADS[args.workload](args.seed)
    digests = checks.load_golden_digests()
    results = []

    def checked(run):
        results.extend(check_run(run, instances, digests))
        return run

    if args.trace:
        untraced = checked(spawn("run", instances, deadline=deadline))
        traced = checked(spawn("run", instances, trace=True, deadline=deadline))
        results.append(("trace.stdout_identical",
                        [] if traced["stdout"] == untraced["stdout"]
                        else ["traced stdout differs from the untraced run"]))
        values = per_layer(traced, untraced, instances)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        report = traced["report"]
        print("trace overhead %.3fx = traced wall %.3f s / untraced wall %.3f s"
              % (values["trace.overhead"], traced["wall_s"], untraced["wall_s"]),
              file=sys.stderr)
    else:
        # half the set-up samples before the workload and half after, so
        # that they do not all meet the same stretch of machine load
        setup_runs = [spawn("setup", deadline=deadline) for _ in range(SETUP_SPAWNS // 2)]
        runs = []
        began = time.monotonic()
        while not runs or (time.monotonic() - began < args.seconds
                           and time.monotonic() + runs[-1]["wall_s"] < deadline):
            runs.append(checked(spawn("run", instances, deadline=deadline)))
        setup_runs += [spawn("setup", deadline=deadline) for _ in range(SETUP_SPAWNS // 2)]
        values, n_lat = end_to_end(runs, setup_runs)
        units = END_TO_END
        report = runs[0]["report"]
        print("%d workload run(s), %d instance latencies, %d set-up samples"
              % (len(runs), n_lat, len(runs) + len(setup_runs)), file=sys.stderr)

    failed = [(name, errs) for name, errs in results if errs]
    for name, errs in failed:
        for msg in errs[:5]:
            print("FAIL %s: %s" % (name, msg), file=sys.stderr)
    print("machine %s" % json.dumps(machine(report)), file=sys.stderr)
    print("checks %d attempted, %d failed, error_rate %.4f"
          % (len(results), len(failed), len(failed) / len(results)), file=sys.stderr)
    for name, val in values.items():
        print("  %-40s %s %s" % (name, val, units[name]), file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": val, "unit": units[name]}
                    for name, val in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
