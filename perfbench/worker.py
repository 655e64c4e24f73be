"""One workload run in a fresh process.

    python3 perfbench/worker.py REPORT_FD setup|run TRACE < instances.json

The parent stamps the monotonic clock just before spawning; this process
stamps it once `wildram` and `wildram.cli` are imported, just before the
first public call, and the difference is the set-up time.  In `run` mode
it then executes the instances read from stdin, in order, writing each
instance's output to stdout, and at exit writes one JSON report (ready
stamp, per-instance latency and output size, tracer data) to REPORT_FD.
"""

import contextlib
import io
import json
import math
import os
import random
import sys
import time

import wildram
import wildram.cli
from wildram import additive, field, rayclass

READY_NS = time.monotonic_ns()


def _run_cli(inst, out):
    with contextlib.redirect_stdout(out):
        return wildram.cli.main(inst["argv"])


def _run_palindromic(inst, out):
    p, e, s = inst["p"], inst["e"], inst["s"]
    ctx = field.make_field(p, e)
    f = field.FqPoly(ctx, [(exp, ctx.elem(c)) for exp, c in inst["terms"]])
    adj = additive.palindromic_adjoint(f)
    d = additive.splitting_degree(adj, cap=400)
    fields = "adj_fdeg=%d d=%s" % (adj.f_degree, d)
    if d is not None:
        ker = additive.linearize_kernel(adj, math.lcm(d, e))
        big = ker.field
        kernel = list(ker.elements())
        fixed = sum(bool(additive.translation_test(f, y)) for y in kernel)
        rng = random.Random(inst["y_seed"])
        agree = 0
        for _ in range(6):
            y = big.elem([rng.randrange(p) for _ in range(big.e)])
            agree += additive.translation_test(f, y) == adj.evaluate(y).is_zero()
        fields += " kerdim=%d kernel_fixed=%d/%d random_agree=%d/6" % (
            ker.dim, fixed, len(kernel), agree)
    out.write("%d %d %d %d | %s\n" % (inst["index"], p, e, s, fields))
    return 0


def _run_oracle(inst, out):
    ctx = field.make_field(inst["p"], inst["e"])
    m = inst["m"]

    def fmt(row):
        return "%d:%s" % (row["order_exp"], ";".join(map(str, row["invariants"])))

    engine = rayclass.ray_class_invariants(ctx, m)
    brute = rayclass.brute_ray_class(ctx, m)
    out.write("%d %d %d | engine=%s brute=%s\n"
              % (inst["p"], inst["e"], m, fmt(engine), fmt(brute)))
    return 0


RUNNERS = {"cli": _run_cli, "palindromic": _run_palindromic,
           "oracle": _run_oracle}


def main(argv):
    report_fd, mode, trace = int(argv[0]), argv[1], argv[2] == "1"
    report = {"ready_ns": READY_NS, "wildram": os.path.abspath(wildram.__file__),
              "numpy": sys.modules["numpy"].__version__}
    if mode == "run":
        instances = json.load(sys.stdin)
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        results = []
        for inst in instances:
            text = io.StringIO()
            start = time.perf_counter_ns()
            try:
                code = RUNNERS[inst["kind"]](inst, text)
            except Exception as err:  # one bad instance must not hide the rest
                code = None
                text.write("error %s: %s\n" % (type(err).__name__, err))
            elapsed = time.perf_counter_ns() - start
            data = text.getvalue().encode()
            sys.stdout.buffer.write(data)
            results.append({"latency_ns": elapsed, "bytes": len(data), "exit": code})
        sys.stdout.flush()
        report["instances"] = results
        if tracer is not None:
            report["trace"] = tracer.report()
    with os.fdopen(report_fd, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
