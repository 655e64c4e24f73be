"""Regenerate the benchmark's data from the current sources.

    python3 perfbench/make_data.py

Writes two things, both meant to be produced once, at the commit whose
behaviour they freeze:

* golden/: the stdout of each CLI invocation of the fixed-input
  workloads (table54, sweep) and the oracle's records in canonical
  order, as `<name>.out`, with their digests in SHA256SUMS;
* data/palindromic_pool.json: criterion-8 polynomials grouped by
  (p, s, e, splitting degree), from which `workloads.palindromic` picks.

Regenerate only when a change means to alter outputs, and say so in
CHANGES.md.
"""

import hashlib
import json
import os
import random
import sys

import checks
import run
import workloads

POOL_SEED = 0
POOL_PER_SHAPE = 8
POOL_DRAWS = 2000


def build_pool():
    sys.path.insert(0, run.SRC)
    from wildram import additive, field

    rng = random.Random(POOL_SEED)
    pool = {}
    for (p, s, e), degrees in workloads.PALINDROMIC_SHAPES.items():
        ctx = field.make_field(p, e)
        wanted = {workloads.shape_key(p, s, e, d): [] for d in set(degrees)}
        for _ in range(POOL_DRAWS):
            if all(len(v) >= POOL_PER_SHAPE for v in wanted.values()):
                break
            terms = workloads.draw_xsx(rng, p, s, e)
            f = field.FqPoly(ctx, [(exp, ctx.elem(c)) for exp, c in terms])
            d = additive.splitting_degree(additive.palindromic_adjoint(f), cap=400)
            got = wanted.get(workloads.shape_key(p, s, e, d))
            if got is not None and len(got) < POOL_PER_SHAPE and terms not in got:
                got.append(terms)
        short = [k for k, v in wanted.items() if not v]
        if short:
            sys.exit("no pool candidates for shapes %s" % short)
        pool.update(wanted)
    os.makedirs(os.path.dirname(workloads.POOL_FILE), exist_ok=True)
    with open(workloads.POOL_FILE, "w") as fh:
        json.dump(pool, fh, sort_keys=True)
        fh.write("\n")


def build_golden():
    os.makedirs(checks.GOLDEN_DIR, exist_ok=True)
    blobs = {}
    for name in ("table54", "sweep", "oracle"):
        instances = workloads.WORKLOADS[name](0)
        res = run.spawn("run", instances)
        if res["exit"] != 0 or res["report"] is None:
            sys.exit("%s failed: %s" % (name, res["stderr"]))
        pos = 0
        for inst, got in zip(instances, res["report"]["instances"]):
            if inst["kind"] == "cli":
                blobs[inst["name"]] = res["stdout"][pos:pos + got["bytes"]]
            pos += got["bytes"]
        if name == "oracle":
            blobs["oracle"] = checks.canonical_records(res["stdout"])
    lines = []
    for name, data in sorted(blobs.items()):
        with open(os.path.join(checks.GOLDEN_DIR, name + ".out"), "wb") as fh:
            fh.write(data)
        lines.append("%s  %s.out\n" % (hashlib.sha256(data).hexdigest(), name))
    with open(os.path.join(checks.GOLDEN_DIR, "SHA256SUMS"), "w") as fh:
        fh.writelines(lines)


if __name__ == "__main__":
    build_pool()
    build_golden()
