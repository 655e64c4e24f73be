"""Output checkers for the benchmark workloads.

Every checker takes program output (text) and returns a list of failure
messages; an empty list means the check passed.  None of them imports
wildram: they re-derive what the output must satisfy from closed-form
laws, frozen golden bytes, or the brute oracle's independent answer.
"""

from __future__ import annotations

import hashlib
import math
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def load_golden_digests():
    """{name: hex digest} from golden/SHA256SUMS, lines `<hex>  <name>.out`."""
    out = {}
    with open(os.path.join(GOLDEN_DIR, "SHA256SUMS")) as fh:
        for line in fh:
            if line.strip():
                digest, fname = line.split()
                out[fname[:-len(".out")]] = digest
    return out


def check_golden(name, data, digests):
    """The bytes must hash to the digest stored for `name`."""
    want = digests.get(name)
    if want is None:
        return ["%s: no golden digest stored" % name]
    got = hashlib.sha256(data).hexdigest()
    if got != want:
        return ["%s: sha256 %s differs from golden %s" % (name, got[:12], want[:12])]
    return []


def canonical_records(data):
    """Record lines sorted by their leading integers, for order-free digests."""
    lines = data.decode(errors="replace").splitlines(keepends=True)

    def key(line):
        try:
            return [int(tok) for tok in line.partition(" | ")[0].split()]
        except ValueError:
            return []
    return "".join(sorted(lines, key=key)).encode()


# ---------------------------------------------------------------------------
# rayclass-orders CSV

def parse_rows(text):
    """Rows of a rayclass CSV table; stops at the first non-row line.

    Order-only rows carry None for exponent and invariants.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "m,order_exp,exponent,invariants,N_m":
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 5:
            break
        m, order_exp, exponent, invs, n_places = cells
        rows.append({
            "m": int(m),
            "order_exp": int(order_exp),
            "exponent": int(exponent) if exponent else None,
            "invariants": tuple(int(v) for v in invs.split(";")) if invs
            else (None if not exponent else ()),
            "n_places": int(n_places),
        })
    return rows


def second_jump_law(p, e):
    """m2 = p^(ceil(e/2)+1) + p + 1."""
    return p ** (math.ceil(e / 2) + 1) + p + 1


def check_second_jump(rows, p, e):
    """Exponent is at most p below m2 and exceeds p at m2 (full rows)."""
    m2 = second_jump_law(p, e)
    errs = ["m=%d: exponent %d > p below m2=%d" % (r["m"], r["exponent"], m2)
            for r in rows if r["m"] < m2 and r["exponent"] > p]
    at = [r for r in rows if r["m"] == m2]
    if not at:
        errs.append("no row at m2=%d" % m2)
    elif at[0]["exponent"] <= p:
        errs.append("m2=%d: exponent %d not above p" % (m2, at[0]["exponent"]))
    return errs


def check_m2_text(text, p, e):
    """Output of `wr rayclass-m2` (text format) is the law's value."""
    want = "%d\n" % second_jump_law(p, e)
    return [] if text == want else ["rayclass-m2 printed %r, law says %r" % (text, want)]


def check_trivial_range(rows, p, e):
    """order_exp = 0 for every m <= p^ceil(e/2) + 1, with that range covered."""
    top = p ** math.ceil(e / 2) + 1
    inside = [r for r in rows if r["m"] <= top]
    if not inside:
        return ["no row in the trivial range m <= %d" % top]
    return ["m=%d: order_exp %d inside the trivial range" % (r["m"], r["order_exp"])
            for r in inside if r["order_exp"] != 0]


def check_monotone(rows):
    """m strictly increasing and order_exp nondecreasing."""
    errs = []
    for a, b in zip(rows, rows[1:]):
        if b["m"] <= a["m"]:
            errs.append("m=%d follows m=%d" % (b["m"], a["m"]))
        if b["order_exp"] < a["order_exp"]:
            errs.append("order_exp drops from %d at m=%d to %d at m=%d"
                        % (a["order_exp"], a["m"], b["order_exp"], b["m"]))
    return errs


def check_places(rows, p, e):
    """N_m = 1 + q * p^order_exp."""
    q = p ** e
    return ["m=%d: N_m %d != 1 + q*p^%d" % (r["m"], r["n_places"], r["order_exp"])
            for r in rows if r["n_places"] != 1 + q * p ** r["order_exp"]]


def check_invariants(rows, p):
    """Full rows: descending p-powers > 1 multiplying to p^order_exp, and
    exponent equal to the largest factor."""
    errs = []
    for r in rows:
        invs = r["invariants"]
        if invs is None:
            continue
        bad = [v for v in invs if v < p or p ** round(math.log(v, p)) != v]
        if bad or list(invs) != sorted(invs, reverse=True):
            errs.append("m=%d: invariants %r not descending powers of p" % (r["m"], invs))
        elif math.prod(invs) != p ** r["order_exp"]:
            errs.append("m=%d: invariants multiply to %d, not p^%d"
                        % (r["m"], math.prod(invs), r["order_exp"]))
        elif r["exponent"] != (invs[0] if invs else 1):
            errs.append("m=%d: exponent %d is not the largest factor" % (r["m"], r["exponent"]))
    return errs


def check_table_laws(text, p, e, full=True):
    """Every closed-form law a rayclass table must satisfy."""
    try:
        rows = parse_rows(text)
    except ValueError as err:
        return [str(err)]
    errs = (check_trivial_range(rows, p, e) + check_monotone(rows)
            + check_places(rows, p, e))
    if full:
        errs += check_invariants(rows, p) + check_second_jump(rows, p, e)
    return errs


def check_reproduce_table(text, p=5, e=4):
    """`wr reproduce-table`: PASS verdict, the law's m2, and the table laws."""
    lines = text.splitlines()
    errs = []
    if not lines or not lines[-1].startswith("PASS ") or "MISMATCH" in lines[-1]:
        errs.append("verdict line is not a clean PASS")
    if "m2 = %d" % second_jump_law(p, e) not in lines:
        errs.append("m2 line does not state the law's value %d" % second_jump_law(p, e))
    return errs + check_table_laws(text, p, e)


# ---------------------------------------------------------------------------
# palindromic and oracle records (lines printed by the worker)

def _fields(line):
    head, _, rest = line.partition(" | ")
    return head.split(), dict(kv.split("=", 1) for kv in rest.split())


def check_palindromic_line(line, spec):
    """Criterion 8's assertions, and the pool's splitting degree, on one
    instance record.

    The record reads `i p e s | adj_fdeg=.. d=.. kerdim=.. kernel_fixed=a/b
    random_agree=a/b`.
    """
    try:
        head, kv = _fields(line)
        idx, p, e, s = (int(v) for v in head)
        fixed, n_kernel = (int(v) for v in kv["kernel_fixed"].split("/"))
        agree, n_random = (int(v) for v in kv["random_agree"].split("/"))
        kerdim = int(kv["kerdim"])
        adj_fdeg = int(kv["adj_fdeg"])
        d = kv["d"]
    except (ValueError, KeyError):
        return ["unparseable palindromic record %r" % line]
    errs = []
    if (p, e, s) != (spec["p"], spec["e"], spec["s"]):
        errs.append("instance %d: record is for (p,e,s)=%r" % (idx, (p, e, s)))
    if adj_fdeg != 2 * s:
        errs.append("instance %d: adjoint F-degree %d != 2s" % (idx, adj_fdeg))
    if d != str(spec["d"]):
        errs.append("instance %d: splitting degree %s, pool says %d" % (idx, d, spec["d"]))
    if kerdim != 2 * s:
        errs.append("instance %d: kernel dimension %d != 2s" % (idx, kerdim))
    if n_kernel != p ** kerdim or fixed != n_kernel:
        errs.append("instance %d: %d of %d kernel elements are translations"
                    % (idx, fixed, n_kernel))
    if n_random != 6 or agree != n_random:
        errs.append("instance %d: kernel/translation disagree on %d of %d draws"
                    % (idx, n_random - agree, n_random))
    return errs


def check_oracle_line(line, spec):
    """Engine and brute oracle agree on one (p, e, m).

    The record reads `p e m | engine=<order>:<invariants> brute=<...>`.
    """
    try:
        head, kv = _fields(line)
        p, e, m = (int(v) for v in head)
        engine, brute = kv["engine"], kv["brute"]
    except (ValueError, KeyError):
        return ["unparseable oracle record %r" % line]
    if (p, e, m) != (spec["p"], spec["e"], spec["m"]):
        return ["oracle record for %r, expected %r" % ((p, e, m), (spec["p"], spec["e"], spec["m"]))]
    if engine != brute:
        return ["(%d,%d,m=%d): engine %s != brute %s" % (p, e, m, engine, brute)]
    return []
