"""Workload inputs.

A workload is a list of instances, each a small JSON-able dict.
`palindromic` draws its polynomials from the seed; `oracle` has a fixed
instance set in seeded order; `table54` and `sweep` ignore the seed.  The
fixed-input outputs are checked against golden bytes produced at the seed
commit.  Nothing here imports wildram: the worker process receives only
these generated inputs.
"""

from __future__ import annotations

import json
import os
import random

# (p, e) pairs of the engine/oracle comparison, as in acceptance criterion 6
ORACLE_FIELDS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
ORACLE_UNITS_CAP = 2 ** 15


def cli(name, *argv):
    return {"kind": "cli", "name": name, "argv": list(argv)}


def table54(seed):
    return [cli("table54", "reproduce-table", "--p", "5", "--e", "4")]


def sweep(seed):
    return [
        cli("sweep_2_8", "rayclass-orders", "--p", "2", "--e", "8", "--m-max", "48"),
        cli("sweep_3_4", "rayclass-orders", "--p", "3", "--e", "4", "--m-max", "200",
            "--order-only"),
        # order-only rows carry no exponent, so m2 at (3, 4) is read here
        cli("m2_3_4", "rayclass-m2", "--p", "3", "--e", "4"),
    ]


# splitting degrees per (p, s, e) class, one slot each.  The classes are
# criterion 8's grid, and the degrees follow the distribution of
# full-support draws (below), except for the costly p = 5, s = 2 classes:
# one such instance costs 0.3-1.5 s at e = 1 and 0.8-10 s at e = 2,
# against about 0.02 s for most others, so e = 1 gets three slots and
# e = 2 none.  Fixing the shapes fixes the cost of a run; the seed only
# picks polynomials of each shape.
PALINDROMIC_SHAPES = {
    (2, 1, 1): [2] * 10,
    (2, 1, 2): [2] * 3 + [6] * 7,
    (2, 2, 1): [6] * 10,
    (2, 2, 2): [6] * 3 + [10] * 7,
    (3, 1, 1): [3] * 6 + [6] * 4,
    (3, 1, 2): [6] * 3 + [8] * 3 + [12] * 4,
    (5, 1, 1): [3] * 3 + [5] * 2 + [6] * 2 + [10] * 3,
    (5, 1, 2): [6] * 2 + [8] * 3 + [10] * 2 + [12] + [20] * 2,
    (3, 2, 1): [5] * 3 + [10] * 3 + [12] * 4,
    (3, 2, 2): [10, 12, 16, 18, 20, 24, 36],
    (5, 2, 1): [13, 20, 26],
}
POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                         "palindromic_pool.json")


def draw_xsx(rng, p, s, e):
    """Terms of f = X*S(X) + cX, S of F-degree s, with every coefficient
    of S and c nonzero.

    Criterion 8 also draws zero coefficients; the cost of an instance
    grows with its number of terms, so fixing the support keeps
    polynomials of one shape equally costly.
    """
    def nonzero():
        while True:
            v = [rng.randrange(p) for _ in range(e)]
            if any(v):
                return v
    terms = {1 + p ** j: nonzero() for j in range(s + 1)}
    terms[1] = nonzero()  # 1 + p^j is never 1, so no collision
    return [[k, v] for k, v in sorted(terms.items())]


def shape_key(p, s, e, d):
    return "%d,%d,%d,%d" % (p, s, e, d)


def palindromic(seed):
    """One polynomial per slot of PALINDROMIC_SHAPES, in seeded order.

    The pool (data/palindromic_pool.json) holds `draw_xsx` polynomials
    grouped by (p, s, e, splitting degree d).  The seed picks each slot's
    polynomial from its shape's candidates, seeds the six random field
    elements of the kernel/translation comparison, and shuffles the run
    order so that instances of one class do not all meet the same stretch
    of machine load.
    """
    with open(POOL_FILE) as fh:
        pool = json.load(fh)
    rng = random.Random(seed)
    out = []
    for (p, s, e), degrees in PALINDROMIC_SHAPES.items():
        for d in degrees:
            out.append({"kind": "palindromic", "p": p, "e": e, "s": s, "d": d,
                        "terms": rng.choice(pool[shape_key(p, s, e, d)]),
                        "y_seed": rng.randrange(2 ** 32)})
    rng.shuffle(out)
    for i, inst in enumerate(out):
        inst["index"] = i
    return out


def oracle(seed):
    """Every (p, e, m) of ORACLE_FIELDS with q^(m-1) <= ORACLE_UNITS_CAP.

    The set is fixed; the seed only shuffles the run order, for the same
    reason as in `palindromic`.
    """
    out = []
    for p, e in ORACLE_FIELDS:
        q = p ** e
        m = 2
        while q ** (m - 1) <= ORACLE_UNITS_CAP:
            out.append({"kind": "oracle", "p": p, "e": e, "m": m})
            m += 1
    random.Random(seed).shuffle(out)
    return out


WORKLOADS = {"table54": table54, "sweep": sweep, "palindromic": palindromic,
             "oracle": oracle}
