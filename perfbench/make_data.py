"""Derive the benchmark's stored data by brute force, without the package.

Writes ``data/census_golden.json`` (law counts of every table of orders 1-3,
raw and up to isomorphism, plus the first 100 lawful tables of the order-4
stream) and ``data/models/*.json`` (the target tables of the
``models`` workload).  The files are committed; rerun only to regenerate:

    python3 perfbench/make_data.py
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from reference import first_assoc_failure, first_hom_failure, first_invol_failure
from reference import first_mult_failure, lawful

DATA = Path(__file__).resolve().parent / "data"
STREAM_LIMITS = {4: 100}
STREAM_LABELS = ("a", "b", "c", "d")


def census_counts(order, up_to_iso):
    """Law quadruple -> count over every table of one order.

    Quadruples are keyed as four 0/1 digits in the order (hom, assoc, mult,
    invol).  Up to isomorphism, a candidate counts only when no relabeling
    gives a lexicographically smaller flattened table.
    """
    n = order
    rows = list(itertools.product(range(n), repeat=n))
    perms = list(itertools.permutations(range(n)))
    counts = {"".join(q): 0 for q in itertools.product("01", repeat=4)}
    total = 0
    for mul in itertools.product(rows, repeat=n):
        assoc = first_assoc_failure(mul) is None
        for alpha in rows:
            total += 1
            if up_to_iso and not least_in_orbit(mul, alpha, perms):
                continue
            key = "%d%d%d%d" % (
                first_hom_failure(mul, alpha) is None,
                assoc,
                first_mult_failure(mul, alpha) is None,
                first_invol_failure(alpha) is None,
            )
            counts[key] += 1
    return total, counts


def least_in_orbit(mul, alpha, perms):
    n = len(alpha)
    own = (tuple(mul[i][j] for i in range(n) for j in range(n)), tuple(alpha))
    for perm in perms:
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        other = (
            tuple(perm[mul[inv[p]][inv[q]]] for p in range(n) for q in range(n)),
            tuple(perm[alpha[inv[p]]] for p in range(n)),
        )
        if other < own:
            return False
    return True


def table_json(labels, mul, alpha):
    return {
        "labels": list(labels),
        "mul": [[labels[v] for v in row] for row in mul],
        "alpha": [labels[v] for v in alpha],
    }


def lawful_stream(order, limit):
    """First lawful tables in scan order: product rows row-major, then the
    involutive alphas, as compact JSON lines."""
    n = order
    rows = list(itertools.product(range(n), repeat=n))
    alphas = [al for al in rows if first_invol_failure(al) is None]
    out = []
    for mul in itertools.product(rows, repeat=n):
        for al in alphas:
            if first_hom_failure(mul, al) is None and first_mult_failure(mul, al) is None:
                doc = table_json(STREAM_LABELS[:n], mul, al)
                out.append(json.dumps(doc, separators=(",", ":")))
                if len(out) == limit:
                    return out
    return out


def all_lawful(order):
    n = order
    rows = list(itertools.product(range(n), repeat=n))
    return [
        (mul, al)
        for mul in itertools.product(rows, repeat=n)
        for al in rows
        if lawful(mul, al)
    ]


def direct_product(a, b):
    (mul_a, al_a), (mul_b, al_b) = a, b
    nb = len(al_b)
    pairs = [(i, j) for i in range(len(al_a)) for j in range(nb)]
    mul = tuple(
        tuple(mul_a[i][k] * nb + mul_b[j][l] for k, l in pairs) for i, j in pairs
    )
    alpha = tuple(al_a[i] * nb + al_b[j] for i, j in pairs)
    return mul, alpha


def relabel(table, perm):
    mul, alpha = table
    n = len(alpha)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    new_mul = tuple(tuple(perm[mul[inv[p]][inv[q]]] for q in range(n)) for p in range(n))
    return new_mul, tuple(perm[alpha[inv[p]]] for p in range(n))


def model_corpus(rng):
    """Lawful targets: 6 of order 2, 12 of order 3, and 12 of order 4 built
    as shuffled direct products of order-2 targets (the laws are equations,
    so products keep them)."""
    two = all_lawful(2)
    three = all_lawful(3)
    picked = [(("u", "v"), t) for t in rng.sample(two, min(6, len(two)))]
    picked += [(("x", "y", "z"), t) for t in rng.sample(three, 12)]
    fours = set()
    while len(fours) < 12:
        prod = direct_product(rng.choice(two), rng.choice(two))
        perm = list(range(4))
        rng.shuffle(perm)
        fours.add(relabel(prod, perm))
    picked += [(("a", "b", "c", "d"), t) for t in sorted(fours)]
    for _, (mul, al) in picked:
        if not lawful(mul, al):
            raise SystemExit("corpus table is not lawful")
    return picked


def main():
    golden = {"census": {}, "stream": {}}
    for order in (1, 2, 3):
        total, raw = census_counts(order, False)
        _, iso = census_counts(order, True)
        golden["census"][str(order)] = {"total": total, "raw": raw, "iso": iso}
    for order, limit in STREAM_LIMITS.items():
        golden["stream"][str(order)] = lawful_stream(order, limit)
    DATA.mkdir(exist_ok=True)
    (DATA / "census_golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    models = DATA / "models"
    models.mkdir(exist_ok=True)
    for k, (labels, (mul, al)) in enumerate(model_corpus(random.Random(20140917))):
        doc = table_json(labels, mul, al)
        (models / ("t%02d.json" % k)).write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
